//! The benchmark's own tracing: named spans around each call into the
//! program, kept in memory and summarised when the run ends, plus the
//! process memory readings.

use std::cell::RefCell;
use std::time::Instant;

/// Records a span per timed call when enabled; always returns the call's
/// duration, so untraced runs time the same calls without keeping spans.
pub struct Tracer {
    enabled: bool,
    spans: RefCell<Vec<(String, f64)>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, returning its result and its wall time in seconds.
    /// Spans do not nest: every span covers one call, so their sum is the
    /// share of the run spent inside named work.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        if self.enabled {
            self.spans.borrow_mut().push((name.to_string(), secs));
        }
        (out, secs)
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|(n, _)| n == name)
            .map(|&(_, s)| s)
            .collect()
    }

    /// Count and total seconds of the spans of each name, by name.
    pub fn totals(&self) -> Vec<(String, usize, f64)> {
        let mut out: Vec<(String, usize, f64)> = Vec::new();
        for (name, secs) in self.spans.borrow().iter() {
            match out.iter_mut().find(|(n, _, _)| n == name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += secs;
                }
                None => out.push((name.clone(), 1, *secs)),
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Total seconds covered by all spans.
    pub fn covered(&self) -> f64 {
        self.spans.borrow().iter().map(|&(_, s)| s).sum()
    }

    /// Switches span recording on or off (untraced baseline rounds of a
    /// traced run record nothing).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }
}

/// The fastest of several timings of the same work. Interference from
/// other tenants of the host only ever slows an operation down, in waves
/// that last about a second, so the fastest repetition is the estimate it
/// disturbs least. `NaN` when empty, which the output checks reject.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// A `/proc/self/status` field in MiB (`VmHWM` is the peak resident set,
/// `VmRSS` the current one).
pub fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
        .unwrap_or_else(|| panic!("/proc/self/status has no {field}"));
    let kib: f64 = line[field.len() + 1..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("status field is a kB count");
    kib / 1024.0
}
