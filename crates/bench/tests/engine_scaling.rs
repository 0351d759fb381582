//! The engine's work scales with the schedule, not with the cluster.
//!
//! Flat Ring at 64 KiB, one rank per node, on the Thor preset: each of
//! the N ranks runs one local copy (a `Start` and a `Finish` event) and
//! N − 1 transfers striped over both rails (a `Start` and two `Finish`
//! events), N² ops in all. Every ring step repeats one of two component
//! shapes, so the water-fill memo solves each twice (its first sighting,
//! then its admission) and replays the rest. These counts
//! are pinned exactly at 128 to 1024 nodes; only the calendar's sweep
//! length, which depends on its self-tuned bucket width, gets a bound.
//!
//! The ring's transfers share no resource, so no queued prediction is
//! ever superseded. A contended ring (16 ranks per node, whose copies
//! share node memory) covers their deletion.

use mha_collectives::{build, AlgoConfig, Family};
use mha_sched::{Probe, ProcGrid};
use mha_simnet::{ClusterSpec, EngineArena, EngineWork, SimResult, Simulator};

/// Counts water-fill solves and the flows they covered.
#[derive(Default)]
struct Solves {
    calls: u64,
    flows: u64,
}

impl Probe for Solves {
    fn waterfill(&mut self, _t: f64, flows: usize, _touched: usize) {
        self.calls += 1;
        self.flows += flows as u64;
    }
}

/// Runs flat Ring at 64 KiB on `grid` through a fresh arena.
fn run_ring(grid: ProcGrid) -> (u64, SimResult, Solves, EngineWork) {
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    let built = build(&AlgoConfig::flat(Family::Ring), grid, 64 * 1024, &spec).unwrap();
    let mut arena = EngineArena::new();
    let mut solves = Solves::default();
    let r = sim
        .run_probed_in(&built.sched, &mut solves, &mut arena)
        .unwrap();
    (built.sched.ops().len() as u64, r, solves, arena.work())
}

fn check_ring(nodes: u32) {
    let (ops, r, solves, work) = run_ring(ProcGrid::new(nodes, 1));
    let n = u64::from(nodes);

    assert_eq!(ops, n * n, "{nodes} nodes: ops");
    assert_eq!(r.events, 3 * n * (n - 1) + 2 * n, "{nodes} nodes: events");
    // No event pops stale.
    assert_eq!(work.pops, r.events, "{nodes} nodes: calendar pops");
    assert_eq!(solves.calls, ops, "{nodes} nodes: water-fill solves");
    assert_eq!(work.memo.misses, 4, "{nodes} nodes: memo misses");
    assert_eq!(work.memo.inserts, 2, "{nodes} nodes: memo inserts");
    assert_eq!(work.memo.hits, ops - 4, "{nodes} nodes: memo hits");
    assert_eq!(work.memo.flushes, 0, "{nodes} nodes: memo flushes");
    // Each solve covers only the touched component: one transfer's two
    // rail stripes at most.
    assert!(
        solves.flows <= 2 * solves.calls,
        "{nodes} nodes: {} flows over {} solves",
        solves.flows,
        solves.calls
    );
    assert_eq!(
        r.max_concurrent_flows as u64,
        2 * n,
        "{nodes} nodes: peak flows"
    );
    assert!(
        10 * work.cells_swept <= 11 * work.pops,
        "{nodes} nodes: {} cells swept over {} pops",
        work.cells_swept,
        work.pops
    );
}

#[test]
fn contended_ring_pops_no_superseded_prediction() {
    let (_, r, _, work) = run_ring(ProcGrid::new(8, 16));
    assert_eq!(r.events, 33_784);
    // About 14k predictions are superseded in this run; each must be
    // deleted from the calendar, not left to pop as a stale no-op.
    assert_eq!(work.pops, r.events);
    // The memo's behaviour on contended components, held by counts.
    let m = work.memo;
    assert_eq!(
        (m.hits, m.misses, m.inserts, m.flushes),
        (30_606, 122, 61, 0),
        "memo hits, misses, inserts, flushes"
    );
}

#[test]
fn flat_ring_128_to_512_nodes() {
    for nodes in [128, 256, 512] {
        check_ring(nodes);
    }
}

#[test]
fn flat_ring_1024_nodes() {
    check_ring(1024);
}
