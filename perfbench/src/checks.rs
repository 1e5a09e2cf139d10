//! Output checks computed apart from the program: breadth-first search on
//! the topology, a Kahn acyclicity test on the dependencies the routing
//! tables actually produce, and route walks through the tables.

use irnet::topology::{ChannelId, CommGraph, NodeId, Topology};
use irnet::turns::{RoutingTables, INJECTION_SLOT};
use std::collections::VecDeque;

/// Failed checks of one run, with a count of those that passed.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
    pub passed: u64,
}

impl Checks {
    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn result<T>(&mut self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => {
                self.passed += 1;
                Some(v)
            }
            Err(msg) => {
                eprintln!("check failed: {msg}");
                self.failures.push(msg);
                None
            }
        }
    }
}

/// What the route walk learned about one routing function.
pub struct Reach {
    /// Mean BFS hop distance over those pairs.
    pub mean_bfs: f64,
}

/// Walks the lowest-port minimal route of every ordered pair of switches
/// through `tables` and checks that it reaches its destination over live
/// channels only, in no fewer hops than the BFS distance over the live
/// links of `topo`. `link_dead` flags the failed links.
pub fn check_routes(
    topo: &Topology,
    cg: &CommGraph,
    tables: &RoutingTables,
    link_dead: &[bool],
) -> Result<Reach, String> {
    let n = topo.num_nodes();
    let ch = cg.channels();
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n as usize];
    for (l, &(a, b)) in topo.links().iter().enumerate() {
        if !link_dead[l] {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
    }
    let mut dist = vec![u32::MAX; n as usize];
    let mut queue = VecDeque::new();
    let (mut pairs, mut dist_sum) = (0u64, 0u64);
    for t in 0..n {
        dist.fill(u32::MAX);
        dist[t as usize] = 0;
        queue.push_back(t);
        while let Some(v) = queue.pop_front() {
            for &w in &adj[v as usize] {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[v as usize] + 1;
                    queue.push_back(w);
                }
            }
        }
        for s in (0..n).filter(|&s| s != t) {
            let d = dist[s as usize];
            if d == u32::MAX {
                return Err(format!("switch {s} cannot reach {t} over live links"));
            }
            let (mut v, mut slot, mut hops) = (s, INJECTION_SLOT, 0u32);
            while v != t {
                let mask = tables.candidates(t, v, slot);
                let p = mask.trailing_zeros() as usize;
                let Some(&c) = ch.outputs(v).get(p) else {
                    return Err(format!("route {s}->{t} dead-ends at switch {v}"));
                };
                if link_dead[ch.link_of(c) as usize] {
                    return Err(format!("route {s}->{t} uses dead channel {c}"));
                }
                hops += 1;
                if hops > n {
                    return Err(format!("route {s}->{t} loops"));
                }
                slot = ch.in_port(c) as usize + 1;
                v = ch.sink(c);
            }
            if hops < d {
                return Err(format!(
                    "route {s}->{t} has {hops} hops, below the BFS distance {d}"
                ));
            }
            pairs += 1;
            dist_sum += u64::from(d);
        }
    }
    Ok(Reach {
        mean_bfs: dist_sum as f64 / pairs.max(1) as f64,
    })
}

/// Kahn's algorithm on the channel dependencies the tables can create: an
/// edge `in -> out` wherever some destination's minimal candidate set at
/// the switch `in` enters offers the output `out`. Fails with the number
/// of channels left on or behind a cycle.
pub fn check_acyclic(cg: &CommGraph, tables: &RoutingTables) -> Result<(), String> {
    let n = cg.num_nodes();
    let ch = cg.channels();
    let nch = ch.num_channels() as usize;
    let mut succ: Vec<Vec<ChannelId>> = vec![Vec::new(); nch];
    for v in 0..n {
        for (q, &cin) in ch.inputs(v).iter().enumerate() {
            let mut mask = 0u16;
            for t in (0..n).filter(|&t| t != v) {
                mask |= tables.candidates(t, v, q + 1);
            }
            let outs = ch.outputs(v);
            while mask != 0 {
                let p = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                succ[cin as usize].push(outs[p]);
            }
        }
    }
    let mut indeg = vec![0u32; nch];
    for out in succ.iter().flatten() {
        indeg[*out as usize] += 1;
    }
    let mut ready: Vec<usize> = (0..nch).filter(|&c| indeg[c] == 0).collect();
    let mut removed = 0usize;
    while let Some(c) = ready.pop() {
        removed += 1;
        for &o in &succ[c] {
            indeg[o as usize] -= 1;
            if indeg[o as usize] == 0 {
                ready.push(o as usize);
            }
        }
    }
    if removed == nch {
        Ok(())
    } else {
        Err(format!(
            "routing dependencies are cyclic: {} of {nch} channels lie on or behind a cycle",
            nch - removed
        ))
    }
}

/// FNV-1a digest of every cost and candidate entry of `tables`, so two
/// epoch chains can be compared without holding both in memory.
pub fn fingerprint(cg: &CommGraph, tables: &RoutingTables) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u16| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let n = cg.num_nodes();
    for t in 0..n {
        for c in 0..cg.num_channels() {
            eat(tables.cost(t, c));
        }
        for v in 0..n {
            for slot in 0..tables.slots() {
                eat(tables.candidates(t, v, slot));
                eat(tables.candidates_any(t, v, slot));
            }
        }
    }
    h
}
