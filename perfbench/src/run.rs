//! The workload pipeline: bring a fabric up, then repeat rounds of
//! analysis, capacity prediction, fault churn and a load sweep until the
//! measuring time is spent, then check every output.
//!
//! All three workloads run every stage, so every metric is measured on
//! every workload; the fabric size, the length and number of flit runs and
//! the size of the fault plan decide which layer carries the load.

use crate::checks::{self, Checks, Reach};
use crate::trace::{fastest, status_mib, Tracer};
use irnet::analyze::{analyze_masks, audit};
use irnet::downup::{
    plan_epochs_timeline_instrumented, plan_epochs_timeline_with, DownUp, EpochRepair,
    RepairStrategy,
};
use irnet::flow::{FlowConfig, FlowPredictor};
use irnet::metrics::paper::PaperMetrics;
use irnet::metrics::{sweep, Instance};
use irnet::sim::{EngineCore, FaultEpoch, SimConfig, SimStats, Simulator};
use irnet::telemetry::{Snapshot, Telemetry};
use irnet::topology::{
    gen, DampingPolicy, FaultEvent, FaultKind, FaultPlan, LinkId, RecoveryTimeline, Topology,
};
use irnet::turns::{RoutingTables, TurnTable};
use irnet::verify::{certify, certify_transition};
use std::time::Instant;

/// One workload: the fabric and how much simulated work each round does.
pub struct Spec {
    pub name: &'static str,
    /// Switches of the 8-port irregular fabric.
    switches: u32,
    /// Seed of the fabric and of its fault plan. Both are fixed per
    /// workload, so runs with different `--seed`s measure the same system
    /// and the same repairs; `--seed` draws the traffic of every flit run
    /// and the flow backend's samples.
    topo_seed: u64,
    /// Fabric bring-ups before the first round; `setup_s` is the fastest
    /// of these and of the one every round starts with.
    setup_reps: usize,
    /// Warm-up and measured cycles of each sweep rung.
    warmup: u32,
    measure: u32,
    /// Passes over the ladder per round.
    sweeps: usize,
    /// Links the fault plan fails, and how many of them it recovers.
    downs: usize,
    ups: usize,
    /// Leading epochs the full-rebuild oracle repairs again. It rebuilds
    /// every table, so on the larger fabrics it covers the failures only:
    /// recoveries take the same full rebuild under both strategies.
    full_oracle_epochs: usize,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "paper-sweep",
        switches: 512,
        topo_seed: 1,
        setup_reps: 3,
        warmup: 1_000,
        measure: 3_000,
        sweeps: 4,
        downs: 4,
        ups: 2,
        full_oracle_epochs: usize::MAX,
    },
    Spec {
        name: "fabric-bringup",
        switches: 1024,
        topo_seed: 2,
        setup_reps: 2,
        warmup: 200,
        measure: 500,
        sweeps: 2,
        downs: 3,
        ups: 1,
        full_oracle_epochs: 3,
    },
    Spec {
        name: "fault-churn",
        switches: 1024,
        topo_seed: 3,
        setup_reps: 2,
        warmup: 300,
        measure: 1_000,
        sweeps: 2,
        downs: 6,
        ups: 3,
        full_oracle_epochs: 6,
    },
];

const PORTS: u32 = 8;
const PACKET_LEN: u32 = 32;
/// The repository's offered-load ladder: `default_rates(8)`, 0.01 to 0.6.
const RUNGS: usize = 8;
/// Rungs at or below 0.104 flits/node/clock count as light. They are short,
/// so each pass runs them `LIGHT_REPEATS` times to get more samples of
/// their speed.
const LIGHT_RUNGS: usize = 5;
const LIGHT_REPEATS: usize = 3;
/// Offered load of the flit run that swaps through the fault epochs.
const CHURN_LOAD: f64 = 0.05;
/// The first fault strikes at this cycle; transitions are this far apart.
const CHURN_START: u32 = 2_000;
const CHURN_GAP: u32 = 500;
/// Rungs offered less than this share of the knee — the lower of the
/// sweep's peak accepted traffic and the flow backend's predicted
/// saturation — must deliver what they are offered, within
/// `TRACK_TOLERANCE`.
const TRACK_BELOW: f64 = 0.5;
const TRACK_TOLERANCE: f64 = 0.25;

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub checks: Checks,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Fabric {
    topo: Topology,
    inst: Instance,
    released: usize,
}

/// Everything measured on one run, gathered per operation.
#[derive(Default)]
struct Samples {
    attempted: u64,
    setup: Vec<f64>,
    analyze: Vec<f64>,
    capacity: Vec<f64>,
    /// Host ms of each epoch's repair and certification, per round.
    epoch_ms: Vec<Vec<f64>>,
    /// Whether each epoch is a down (failure) transition.
    epoch_down: Vec<bool>,
    /// Wall seconds of each sweep rung, per round.
    rung_walls: Vec<Vec<f64>>,
    /// Accepted traffic and latency of every rung of the first sweep.
    first_sweep: Option<Vec<(u64, u64)>>,
    /// The flow backend's predicted saturation (flits/node/clock).
    flow_sat: f64,
    untraced_rounds: Vec<f64>,
    traced_rounds: Vec<f64>,
    // Per-layer values from traced rounds.
    tables_rss_mib: f64,
    repair_snapshots: Vec<Snapshot>,
    flow: Vec<FlowLayer>,
    sim: Vec<SimLayer>,
}

struct FlowLayer {
    rep_sims: u64,
    clusters: u64,
    hits: u64,
    misses: u64,
}

#[derive(Default)]
struct SimLayer {
    light_hops: u64,
    light_wall: f64,
    heavy_hops: u64,
    heavy_wall: f64,
    heavy_block_rate: f64,
    heavy_occupancy: f64,
    paper_wall: f64,
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let process_start = Instant::now();
    let mut tr = Tracer::new(traced);
    let mut chk = Checks::default();
    let mut s = Samples::default();
    let sim_seed = splitmix(seed ^ spec.topo_seed);

    // The first bring-ups run back to back; every round brings the fabric
    // up once more, so the fastest `setup_s` is drawn from samples spread
    // over the whole run. The seed is fixed, so each bring-up rebuilds the
    // same fabric.
    let mut fab = bring_up(spec, &tr, &mut s);
    for _ in 1..spec.setup_reps {
        drop(fab);
        fab = bring_up(spec, &tr, &mut s);
    }
    if traced {
        check_split(&fab, &tr, &mut chk, &mut s);
    }
    let (timeline, plan_links) = screen(spec, &fab, &tr, &mut s);
    let base = SimConfig {
        packet_len: PACKET_LEN,
        warmup_cycles: spec.warmup,
        measure_cycles: spec.measure,
        ..SimConfig::default()
    };

    // Measured rounds. A traced run alternates untraced and traced rounds
    // so the tracing overhead is measured in the same process.
    let loop_start = Instant::now();
    let mut last_chain: Option<Vec<EpochRepair>> = None;
    let mut round = 0usize;
    loop {
        let trace_this = traced && round % 2 == 1;
        tr.set_enabled(trace_this);
        let t0 = Instant::now();
        drop(fab);
        fab = bring_up(spec, &tr, &mut s);
        // Ladders are spread over the gaps before, between and after the
        // longer stages, so each rung is timed at moments that lie apart.
        let mut ladders = 0;
        for slot in 1..=4 {
            while ladders < slot * spec.sweeps / 4 {
                sweep_ladder(&fab, &base, sim_seed, &tr, &mut chk, &mut s);
                ladders += 1;
            }
            match slot {
                1 => analyze(&fab, &tr, &mut chk, &mut s),
                2 => capacity(&fab, &base, sim_seed, &tr, &mut chk, &mut s),
                3 => {
                    drop(last_chain.take());
                    last_chain = Some(churn(&fab, &timeline, sim_seed, &tr, &mut chk, &mut s));
                }
                _ => {}
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        if trace_this {
            s.traced_rounds.push(wall);
        } else {
            s.untraced_rounds.push(wall);
        }
        round += 1;
        let both = !traced || round >= 2;
        if both && loop_start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    tr.set_enabled(traced);
    let peak_rss_mib = status_mib("VmHWM");

    let chain = last_chain.expect("at least one round ran");
    verify_outputs(
        spec, &fab, &base, sim_seed, &timeline, chain, &tr, &mut chk, &s,
    );
    eprintln!(
        "{}: {round} round(s); fault plan links {plan_links:?}",
        spec.name
    );
    for (name, count, secs) in tr.totals() {
        eprintln!("span {name:<24} {count:>4} x  {secs:>9.3} s");
    }
    let metrics = if traced {
        let untraced: f64 = s.untraced_rounds.iter().sum();
        let wall = process_start.elapsed().as_secs_f64() - untraced;
        layer_metrics(&tr, &s, fab.released, tr.covered() / wall)
    } else {
        end_to_end_metrics(spec, &s, peak_rss_mib)
    };
    for &(name, value, _) in &metrics {
        chk.ensure(value.is_finite(), || format!("metric {name} is {value}"));
    }
    Outcome {
        metrics,
        attempted: s.attempted,
        checks: chk,
    }
}

/// One fabric bring-up: topology generation plus DOWN/UP construction. A
/// traced bring-up builds through the split `construct_phases` +
/// `RoutingTables::build` path to time the two layers apart; the first
/// one in the process also reads the resident-set growth of the build.
fn bring_up(spec: &Spec, tr: &Tracer, s: &mut Samples) -> Fabric {
    let params = gen::IrregularParams::paper(spec.switches, PORTS);
    let (topo, t_gen) = tr.time("topology.gen", || {
        gen::random_irregular(params, spec.topo_seed).expect("topology generation")
    });
    let ((tree, cg, table, tables), released, t_build) = if tr.enabled() {
        let ((tree, cg, table, released), t_phases) = tr.time("core.phases", || {
            DownUp::new()
                .construct_phases(&topo)
                .expect("construction phases")
        });
        let rss0 = status_mib("VmRSS");
        let (tables, t_tables) = tr.time("turns.tables", || {
            RoutingTables::build(&cg, &table).expect("routing tables")
        });
        if s.setup.is_empty() {
            s.tables_rss_mib = status_mib("VmRSS") - rss0;
        }
        (
            (tree, cg, table, tables),
            released.len(),
            t_phases + t_tables,
        )
    } else {
        let (routing, t) = tr.time("core.construct", || {
            DownUp::new()
                .construct(&topo)
                .expect("DOWN/UP construction")
        });
        let released = routing.released_turns().len();
        (routing.into_parts(), released, t)
    };
    s.attempted += 2;
    s.setup.push(t_gen + t_build);
    Fabric {
        topo,
        inst: Instance {
            tree,
            cg,
            table,
            tables,
            spans: None,
        },
        released,
    }
}

/// The split-construction oracle: `construct_phases` +
/// `RoutingTables::build` must give what `DownUp::construct` gives.
fn check_split(fab: &Fabric, tr: &Tracer, chk: &mut Checks, s: &mut Samples) {
    let (whole, _) = tr.time("oracle.construct", || {
        DownUp::new()
            .construct(&fab.topo)
            .expect("DOWN/UP construction")
    });
    s.attempted += 1;
    chk.ensure(
        whole.turn_table() == &fab.inst.table
            && whole.routing_tables() == &fab.inst.tables
            && whole.released_turns().len() == fab.released,
        || "construct_phases + RoutingTables::build differs from DownUp::construct".into(),
    );
}

fn dead_mask(len: u32, dead: &[u32]) -> Vec<bool> {
    let mut m = vec![false; len as usize];
    for &d in dead {
        m[d as usize] = true;
    }
    m
}

/// Builds the fault plan: cross links of the pristine tree failed one by
/// one, then the first `ups` of them recovered in the same order, all
/// failures before all recoveries.
fn plan_for(topo: &Topology, links: &[LinkId], ups: usize) -> FaultPlan {
    let k = links.len() as u32;
    FaultPlan::scripted(links.iter().enumerate().map(|(i, &l)| {
        let (a, b) = topo.link(l);
        let kind = FaultKind::Link { a, b };
        let down = CHURN_START + CHURN_GAP * i as u32;
        if i < ups {
            FaultEvent::recovering(down, kind, CHURN_START + CHURN_GAP * (k + i as u32))
        } else {
            FaultEvent::down(down, kind)
        }
    }))
}

/// Draws the fault plan and screens it: a transition whose
/// survivors are infeasible, or whose old∪new dependency union is cyclic,
/// is a legitimate verdict of the program but would make the churn
/// workload measure a refusal, so the event behind it is dropped and the
/// next seeded candidate link takes its place.
fn screen(
    spec: &Spec,
    fab: &Fabric,
    tr: &Tracer,
    s: &mut Samples,
) -> (RecoveryTimeline, Vec<LinkId>) {
    let topo = &fab.topo;
    let mut candidates: Vec<LinkId> = (0..topo.num_links())
        .filter(|&l| !fab.inst.tree.is_tree_link(l))
        .collect();
    let mut state = spec.topo_seed;
    for i in (1..candidates.len()).rev() {
        state = splitmix(state);
        candidates.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let mut chosen: Vec<LinkId> = candidates[..spec.downs].to_vec();
    let mut next = spec.downs;
    let cg = &fab.inst.cg;
    loop {
        let plan = plan_for(topo, &chosen, spec.ups);
        let timeline = RecoveryTimeline::compute(topo, &plan, DampingPolicy::none())
            .expect("plan names existing links");
        assert_eq!(
            timeline.steps.len(),
            spec.downs + spec.ups,
            "one link per step"
        );
        let step_link = |k: usize| {
            let st = &timeline.steps[k];
            st.failed_links
                .first()
                .or(st.revived_links.first())
                .copied()
        };
        let mut bad = None;
        for (k, st) in timeline.steps.iter().enumerate() {
            let (verdict, _) = tr.time("analyze.feasibility", || {
                analyze_masks(topo, &st.node_down, &st.link_down)
            });
            s.attempted += 1;
            if !verdict.is_feasible() {
                bad = Some(k);
                break;
            }
        }
        if bad.is_none() {
            let (epochs, _) = tr.time("input.screen_repair", || {
                plan_epochs_timeline_with(
                    topo,
                    cg,
                    &fab.inst.table,
                    &fab.inst.tables,
                    &timeline,
                    DownUp::new(),
                    RepairStrategy::Incremental,
                )
                .expect("feasible plan repairs")
            });
            s.attempted += 1;
            bad = epochs.iter().position(|e| {
                let dead = dead_mask(cg.num_channels(), &e.epoch.dead_channels);
                let (certs, _) = tr.time("input.screen_certify", || {
                    certify_transition(cg, &e.epoch.old_table, &e.epoch.new_table, &dead)
                });
                !certs.is_deadlock_free()
            });
        }
        let Some(k) = bad else {
            return (timeline, chosen);
        };
        let drop_link = step_link(k).expect("every step changes one link");
        let slot = chosen
            .iter()
            .position(|&l| l == drop_link)
            .expect("step link is in the plan");
        chosen[slot] = *candidates
            .get(next)
            .expect("enough cross links to screen the plan");
        next += 1;
    }
}

/// `certify` + the whole-table `audit`.
fn analyze(fab: &Fabric, tr: &Tracer, chk: &mut Checks, s: &mut Samples) {
    let inst = &fab.inst;
    let (cert, t_cert) = tr.time("verify.certify", || certify(&inst.cg, &inst.table));
    chk.ensure(cert.is_deadlock_free(), || {
        "pristine turn table has no deadlock-freedom certificate".into()
    });
    let (report, t_audit) = tr.time("analyze.audit", || {
        audit(&inst.cg, &inst.table, &inst.tables, &cert)
    });
    chk.ensure(report.passed(), || {
        format!("audit failed: {} finding(s)", report.findings.len())
    });
    s.attempted += 2;
    s.analyze.push(t_cert + t_audit);
}

/// The flow backend's capacity curve over the sweep ladder.
fn capacity(
    fab: &Fabric,
    base: &SimConfig,
    seed: u64,
    tr: &Tracer,
    chk: &mut Checks,
    s: &mut Samples,
) {
    let inst = &fab.inst;
    let cfg = FlowConfig::default();
    let rates = sweep::default_rates(RUNGS);
    let tel = if tr.enabled() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let (mut pred, t_build) = tr.time("flow.build", || {
        FlowPredictor::build_instrumented(
            &fab.topo,
            &inst.tree,
            &inst.cg,
            &inst.table,
            base,
            seed,
            &cfg,
            &tel,
        )
    });
    let (curve, t_curve) = tr.time("flow.curve", || pred.curve(&rates));
    s.attempted += 2;
    s.capacity.push(t_build + t_curve);
    chk.ensure(
        curve.sat_throughput > 0.0 && curve.points.len() == RUNGS,
        || format!("flow curve is empty (saturation {})", curve.sat_throughput),
    );
    if tr.enabled() {
        let snap = tel.snapshot();
        let layer = FlowLayer {
            rep_sims: pred.sims_run() as u64,
            clusters: curve.cluster_count as u64,
            hits: pred.route_cache_hits() as u64,
            misses: pred.route_cache_misses() as u64,
        };
        chk.ensure(
            snap.counter("flow/rep_sims") == Some(layer.rep_sims)
                && snap.counter("flow/route_cache_hits").unwrap_or(0) == layer.hits
                && snap.counter("flow/route_cache_misses").unwrap_or(0) == layer.misses,
            || "flow telemetry counters disagree with the predictor's accessors".into(),
        );
        s.flow.push(layer);
    }
    s.flow_sat = curve.sat_throughput;
}

/// Repairs every transition of the screened plan under
/// `RepairStrategy::Incremental`, certifies each transition, then runs a
/// flit simulation that swaps through every epoch.
fn churn(
    fab: &Fabric,
    timeline: &RecoveryTimeline,
    seed: u64,
    tr: &Tracer,
    chk: &mut Checks,
    s: &mut Samples,
) -> Vec<EpochRepair> {
    let inst = &fab.inst;
    let cg = &inst.cg;
    let tel = if tr.enabled() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let (epochs, t_repair) = tr.time("core.repair", || {
        if tel.is_enabled() {
            plan_epochs_timeline_instrumented(
                &fab.topo,
                cg,
                &inst.table,
                &inst.tables,
                timeline,
                DownUp::new(),
                RepairStrategy::Incremental,
                &tel,
                None,
            )
        } else {
            plan_epochs_timeline_with(
                &fab.topo,
                cg,
                &inst.table,
                &inst.tables,
                timeline,
                DownUp::new(),
                RepairStrategy::Incremental,
            )
        }
        .expect("screened plan repairs")
    });
    s.attempted += epochs.len() as u64;
    if tel.is_enabled() {
        s.repair_snapshots.push(tel.snapshot());
    }
    // The repair call returns all epochs at once; its wall time is split
    // over the epochs in proportion to the stage timings each reports.
    let span_total: f64 = epochs.iter().map(|e| e.spans.total_seconds()).sum();
    let mut round_ms = Vec::with_capacity(epochs.len());
    for e in &epochs {
        let dead = dead_mask(cg.num_channels(), &e.epoch.dead_channels);
        let (certs, t_cert) = tr.time("verify.transition", || {
            certify_transition(cg, &e.epoch.old_table, &e.epoch.new_table, &dead)
        });
        s.attempted += 1;
        chk.ensure(certs.is_deadlock_free(), || {
            format!("transition at cycle {} is not certified", e.epoch.cycle)
        });
        round_ms.push(1e3 * (t_repair * e.spans.total_seconds() / span_total + t_cert));
    }
    s.epoch_down = epochs.iter().map(|e| e.epoch.is_down_only()).collect();
    s.epoch_ms.push(round_ms);

    let (result, _) = tr.time("sim.churn", || churn_sim(inst, &epochs, seed));
    s.attempted += 1;
    chk.result(result);
    epochs
}

/// The flit run through every epoch swap: checks flit conservation right
/// after each swap and at the end, and that the run never stalls.
fn churn_sim(inst: &Instance, epochs: &[EpochRepair], seed: u64) -> Result<(), String> {
    let last = epochs.last().expect("plan has transitions").epoch.cycle;
    let cfg = SimConfig {
        packet_len: PACKET_LEN,
        injection_rate: CHURN_LOAD,
        warmup_cycles: CHURN_START / 2,
        measure_cycles: last + 4 * CHURN_GAP - CHURN_START / 2,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&inst.cg, &inst.tables, cfg, seed);
    for e in epochs {
        let ep = &e.epoch;
        sim.schedule_reconfig(FaultEpoch {
            cycle: ep.cycle,
            dead_channels: ep.dead_channels.clone(),
            dead_nodes: ep.dead_nodes.clone(),
            revived_channels: ep.revived_channels.clone(),
            revived_nodes: ep.revived_nodes.clone(),
            tables: &ep.tables,
        });
    }
    let conserved = |sim: &Simulator| {
        sim.injected_flit_total()
            == sim.delivered_flit_total() + sim.dropped_flit_total() + sim.buffered_flit_count()
    };
    let mut swaps = epochs.iter().map(|e| e.epoch.cycle).peekable();
    while sim.now() < cfg.total_cycles() {
        sim.tick();
        if sim.stalled() {
            return Err(format!("churn run stalled at cycle {}", sim.now()));
        }
        if swaps.next_if(|&c| sim.now() > c).is_some() && !conserved(&sim) {
            return Err(format!(
                "flits not conserved across the swap before cycle {}",
                sim.now()
            ));
        }
    }
    if !conserved(&sim) {
        return Err("flits not conserved at the end of the churn run".into());
    }
    let stats = sim.finish();
    if stats.reconfig_epochs as usize != epochs.len() || stats.flits_delivered == 0 {
        return Err(format!(
            "churn run applied {} of {} epochs, delivered {} flits",
            stats.reconfig_epochs,
            epochs.len(),
            stats.flits_delivered
        ));
    }
    Ok(())
}

fn rung_config(base: &SimConfig, rate: f64) -> SimConfig {
    SimConfig {
        injection_rate: rate,
        ..*base
    }
}

/// One pass over the 8-rung ladder with `sweep::run_point`. A traced pass
/// makes the two calls `run_point` is made of — the simulation and
/// `PaperMetrics::compute` — itself, to time the layers apart.
fn sweep_ladder(
    fab: &Fabric,
    base: &SimConfig,
    seed: u64,
    tr: &Tracer,
    chk: &mut Checks,
    s: &mut Samples,
) {
    let inst = &fab.inst;
    let mut points = Vec::with_capacity(RUNGS);
    let mut walls = Vec::with_capacity(RUNGS);
    let mut layer = SimLayer::default();
    for (i, &rate) in sweep::default_rates(RUNGS).iter().enumerate() {
        let pseed = sweep::point_seed(seed, i);
        let light = i < LIGHT_RUNGS;
        let mut fastest_wall = f64::INFINITY;
        for rep in 0..if light { LIGHT_REPEATS } else { 1 } {
            let (m, deadlocked, wall) = if tr.enabled() {
                let (stats, t_sim) = tr.time("sim.run", || {
                    Simulator::new(&inst.cg, &inst.tables, rung_config(base, rate), pseed).run()
                });
                let (m, t_paper) = tr.time("metrics.paper", || {
                    PaperMetrics::compute(&stats, &inst.cg, &inst.tree)
                });
                let hops: u64 = stats.channel_flits.iter().sum();
                layer.paper_wall += t_paper;
                if light {
                    layer.light_hops += hops;
                    layer.light_wall += t_sim;
                } else {
                    let heavy = (RUNGS - LIGHT_RUNGS) as f64;
                    layer.heavy_hops += hops;
                    layer.heavy_wall += t_sim;
                    layer.heavy_block_rate += stats.header_block_rate() / heavy;
                    layer.heavy_occupancy += stats.avg_network_occupancy() / heavy;
                }
                (m, stats.deadlocked, t_sim + t_paper)
            } else {
                let (p, t) = tr.time("sim.run_point", || {
                    sweep::run_point(inst, base, rate, pseed)
                });
                (p.metrics, p.deadlocked, t)
            };
            s.attempted += 1;
            chk.ensure(!deadlocked, || format!("sweep rung {rate:.4} deadlocked"));
            fastest_wall = fastest_wall.min(wall);
            let point = (m.accepted_traffic.to_bits(), m.avg_latency.to_bits());
            if rep == 0 {
                points.push(point);
            } else {
                chk.ensure(points[i] == point, || {
                    format!("a repeated run of rung {rate:.4} gave a different result")
                });
            }
        }
        walls.push(fastest_wall);
    }
    s.rung_walls.push(walls);
    if tr.enabled() {
        s.sim.push(layer);
    }
    match &s.first_sweep {
        None => s.first_sweep = Some(points),
        Some(first) => chk.ensure(first == &points, || {
            "a repeated sweep gave different accepted traffic or latency".into()
        }),
    }
}

/// Checks run after the measured rounds, outside the timed region: the
/// independent checks on every routing function and sweep result, and the
/// differential oracles.
#[allow(clippy::too_many_arguments)]
fn verify_outputs(
    spec: &Spec,
    fab: &Fabric,
    base: &SimConfig,
    seed: u64,
    timeline: &RecoveryTimeline,
    chain: Vec<EpochRepair>,
    tr: &Tracer,
    chk: &mut Checks,
    s: &Samples,
) {
    let inst = &fab.inst;
    let cg = &inst.cg;
    let n = f64::from(spec.switches);
    let nch = f64::from(cg.num_channels());

    // The pristine routing function.
    let no_dead = vec![false; fab.topo.num_links() as usize];
    let (reach, _) = tr.time("check.routes", || {
        checks::check_routes(&fab.topo, cg, &inst.tables, &no_dead)
    });
    let reach: Option<Reach> = chk.result(reach);
    let (acyclic, _) = tr.time("check.acyclic", || checks::check_acyclic(cg, &inst.tables));
    chk.result(acyclic);

    // Sweep bounds from the BFS distances: nobody delivers more than
    // every channel busy every cycle allows, and no packet arrives sooner
    // than its length plus its distance.
    if let Some(reach) = &reach {
        let cap = (nch / (n * reach.mean_bfs)).min(1.0);
        let floor = f64::from(PACKET_LEN) + reach.mean_bfs;
        let points = s.first_sweep.as_ref().expect("a sweep ran");
        let peak = points
            .iter()
            .map(|p| f64::from_bits(p.0))
            .fold(0.0, f64::max);
        for (&(acc, lat), &rate) in points.iter().zip(&sweep::default_rates(RUNGS)) {
            let (acc, lat) = (f64::from_bits(acc), f64::from_bits(lat));
            chk.ensure(acc > 0.0 && acc <= cap, || {
                format!("rung {rate:.4}: accepted {acc} outside (0, {cap}]")
            });
            chk.ensure(lat >= floor, || {
                format!("rung {rate:.4}: latency {lat} below {floor}")
            });
            if rate <= TRACK_BELOW * peak.min(s.flow_sat) {
                chk.ensure((acc - rate).abs() <= TRACK_TOLERANCE * rate, || {
                    format!("rung {rate:.4}: accepted {acc} does not track the offered load")
                });
            }
        }
        chk.ensure(s.flow_sat > 0.0 && s.flow_sat <= cap, || {
            format!("flow saturation {} outside (0, {cap}]", s.flow_sat)
        });
    }

    // Every epoch of the last churn chain, then the full-rebuild oracle.
    let mut incremental = Vec::with_capacity(chain.len());
    for e in &chain {
        let ep = &e.epoch;
        let link_dead = dead_mask(fab.topo.num_links(), &ep.dead_links);
        let (r, _) = tr.time("check.routes", || {
            checks::check_routes(&fab.topo, cg, &ep.tables, &link_dead)
        });
        chk.result(r);
        let (r, _) = tr.time("check.acyclic", || checks::check_acyclic(cg, &ep.tables));
        chk.result(r);
        let (fp, _) = tr.time("check.fingerprint", || checks::fingerprint(cg, &ep.tables));
        incremental.push((fp, ep.new_table.clone(), ep.dead_channels.clone()));
    }
    drop(chain);
    let prefix = RecoveryTimeline {
        steps: timeline.steps[..spec.full_oracle_epochs.min(timeline.steps.len())].to_vec(),
        damping: timeline.damping.clone(),
        raw_transitions: timeline.raw_transitions,
    };
    incremental.truncate(prefix.steps.len());
    let (full, _) = tr.time("oracle.full_repair", || {
        plan_epochs_timeline_with(
            &fab.topo,
            cg,
            &inst.table,
            &inst.tables,
            &prefix,
            DownUp::new(),
            RepairStrategy::Full,
        )
        .expect("screened plan repairs")
    });
    chk.ensure(full.len() == incremental.len(), || {
        "full and incremental repair give different epoch counts".into()
    });
    for (e, (fp, table, dead)) in full.iter().zip(&incremental) {
        let (fp_full, _) = tr.time("check.fingerprint", || {
            checks::fingerprint(cg, &e.epoch.tables)
        });
        let same_table: &TurnTable = &e.epoch.new_table;
        chk.ensure(
            fp_full == *fp && same_table == table && &e.epoch.dead_channels == dead,
            || {
                format!(
                    "full repair differs from incremental at cycle {}",
                    e.epoch.cycle
                )
            },
        );
    }
    drop(full);

    // The dense reference core on one light and one heavy rung.
    let rates = sweep::default_rates(RUNGS);
    let points = s.first_sweep.as_ref().expect("a sweep ran");
    for i in [0, RUNGS - 1] {
        let cfg = rung_config(base, rates[i]);
        let pseed = sweep::point_seed(seed, i);
        let run = |core: EngineCore| -> SimStats {
            let cfg = SimConfig {
                engine_core: core,
                ..cfg
            };
            Simulator::new(cg, &inst.tables, cfg, pseed).run()
        };
        let (active, _) = tr.time("oracle.active", || run(EngineCore::ActiveSet));
        let (dense, _) = tr.time("oracle.dense", || run(EngineCore::DenseReference));
        chk.ensure(active == dense, || {
            format!("dense reference core differs at rung {:.4}", rates[i])
        });
        chk.ensure(
            points[i]
                == (
                    active.accepted_traffic().to_bits(),
                    active.avg_latency().to_bits(),
                ),
            || {
                format!(
                    "run_point differs from a direct run at rung {:.4}",
                    rates[i]
                )
            },
        );
    }
}

/// The fastest value of column `k` over the rounds of `rows`.
fn fastest_at(rows: &[Vec<f64>], k: usize) -> f64 {
    fastest(&rows.iter().map(|r| r[k]).collect::<Vec<_>>())
}

fn end_to_end_metrics(spec: &Spec, s: &Samples, peak_rss_mib: f64) -> Vec<Metric> {
    let points = s.first_sweep.as_ref().expect("a sweep ran");
    let max_acc = points
        .iter()
        .map(|p| f64::from_bits(p.0))
        .fold(0.0, f64::max);
    let cycles = f64::from(spec.warmup + spec.measure);
    let rung_wall = |k: usize| fastest_at(&s.rung_walls, k);
    let light: f64 = (0..LIGHT_RUNGS).map(rung_wall).sum();
    let heavy: f64 = (LIGHT_RUNGS..RUNGS).map(rung_wall).sum();
    let epoch_mean = |down: bool| {
        let ks: Vec<usize> = (0..s.epoch_down.len())
            .filter(|&k| s.epoch_down[k] == down)
            .collect();
        ks.iter().map(|&k| fastest_at(&s.epoch_ms, k)).sum::<f64>() / ks.len() as f64
    };
    vec![
        ("setup_s", fastest(&s.setup), "s"),
        ("peak_rss_mib", peak_rss_mib, "MiB"),
        (
            "sim_cycles_per_s_light",
            cycles * LIGHT_RUNGS as f64 / light,
            "cycles/s",
        ),
        (
            "sim_cycles_per_s_heavy",
            cycles * (RUNGS - LIGHT_RUNGS) as f64 / heavy,
            "cycles/s",
        ),
        ("max_accepted_flits", max_acc, "flits/node/cycle"),
        (
            "light_latency_cycles",
            f64::from_bits(points[0].1),
            "cycles",
        ),
        ("analyze_s", fastest(&s.analyze), "s"),
        ("capacity_s", fastest(&s.capacity), "s"),
        ("repair_down_ms", epoch_mean(true), "ms"),
        ("repair_up_ms", epoch_mean(false), "ms"),
    ]
}

fn layer_metrics(tr: &Tracer, s: &Samples, released: usize, coverage: f64) -> Vec<Metric> {
    let fastest_of = |name: &str| fastest(&tr.durations(name));
    let snap = s.repair_snapshots.first().expect("a traced churn ran");
    let repair = |stage: &str| {
        snap.span_seconds(stage)
            .expect("repair records every stage span")
    };
    let flow = s.flow.first().expect("a traced capacity curve ran");
    let sim = s.sim.first().expect("a traced sweep ran");
    let lookups = flow.hits + flow.misses;
    vec![
        ("topology.gen_s", fastest_of("topology.gen"), "s"),
        ("core.phases_s", fastest_of("core.phases"), "s"),
        ("core.released_turns", released as f64, "count"),
        ("core.repair.classify_s", repair("repair/classify"), "s"),
        ("core.repair.phases_s", repair("repair/phases"), "s"),
        ("core.repair.patch_s", repair("repair/patch"), "s"),
        ("core.repair.recertify_s", repair("repair/recertify"), "s"),
        (
            "core.repair.touched_rows",
            snap.counter("repair/touched_rows")
                .expect("repair counts touched rows") as f64,
            "count",
        ),
        ("turns.tables_s", fastest_of("turns.tables"), "s"),
        ("turns.tables_rss_mib", s.tables_rss_mib, "MiB"),
        ("verify.certify_s", fastest_of("verify.certify"), "s"),
        (
            "verify.transition_ms",
            1e3 * fastest_of("verify.transition"),
            "ms",
        ),
        ("analyze.audit_s", fastest_of("analyze.audit"), "s"),
        (
            "analyze.feasibility_ms",
            1e3 * fastest_of("analyze.feasibility"),
            "ms",
        ),
        ("flow.build_s", fastest_of("flow.build"), "s"),
        ("flow.curve_s", fastest_of("flow.curve"), "s"),
        ("flow.rep_sims", flow.rep_sims as f64, "count"),
        ("flow.clusters", flow.clusters as f64, "count"),
        ("flow.route_cache_hits", flow.hits as f64, "count"),
        ("flow.route_cache_lookups", lookups as f64, "count"),
        (
            "flow.route_cache_hit_ratio",
            flow.hits as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        (
            "sim.light.flit_hops_per_s",
            sim.light_hops as f64 / sim.light_wall,
            "flit-hops/s",
        ),
        (
            "sim.heavy.flit_hops_per_s",
            sim.heavy_hops as f64 / sim.heavy_wall,
            "flit-hops/s",
        ),
        (
            "sim.heavy.header_block_rate",
            sim.heavy_block_rate,
            "blocked/cycle",
        ),
        ("sim.heavy.occupancy_flits", sim.heavy_occupancy, "flits"),
        (
            "sim.flit_hops",
            (sim.light_hops + sim.heavy_hops) as f64,
            "count",
        ),
        ("metrics.paper_s", sim.paper_wall, "s"),
        ("trace.span_coverage", coverage, "ratio"),
        (
            "trace.overhead_s",
            fastest(&s.traced_rounds) - fastest(&s.untraced_rounds),
            "s",
        ),
    ]
}
