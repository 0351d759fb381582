//! End-to-end pipeline tests: every Allgather algorithm is compiled,
//! structurally validated, proven race-free, executed on real bytes in
//! both executor modes, and priced on the simulator — the full round trip
//! a user of the library takes.

use mha::collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha::collectives::{build, AlgoConfig, AllgatherPhase, Family};
use mha::exec::{verify_allgather, verify_allreduce_sum_f32, Mode};
use mha::sched::ProcGrid;
use mha::simnet::{ClusterSpec, Simulator};

fn all_algorithms() -> Vec<AlgoConfig> {
    vec![
        AlgoConfig::flat(Family::Ring),
        AlgoConfig::flat(Family::RecursiveDoubling),
        AlgoConfig::flat(Family::Bruck),
        AlgoConfig::flat(Family::DirectSpread),
        AlgoConfig::flat(Family::SingleLeader),
        AlgoConfig::flat(Family::MultiLeader { groups: 2 }),
        AlgoConfig::default(),
        AlgoConfig::mha_inter(MhaInterConfig {
            inter: InterAlgo::RecursiveDoubling,
            offload: Offload::Auto,
            overlap: true,
        }),
        AlgoConfig::mha_inter(MhaInterConfig {
            inter: InterAlgo::Ring,
            offload: Offload::None,
            overlap: false,
        }),
    ]
}

#[test]
fn every_allgather_survives_the_full_pipeline() {
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    let grid = ProcGrid::new(4, 4);
    let msg = 48;
    for algo in all_algorithms() {
        let built =
            build(&algo, grid, msg, &spec).unwrap_or_else(|e| panic!("{}: {e}", algo.to_kv()));
        mha::sched::validate(&built.sched, Some(spec.rails))
            .unwrap_or_else(|e| panic!("{}: {e}", algo.to_kv()));
        let races = mha::sched::check_races(&built.sched);
        assert!(races.is_empty(), "{}: races {races:?}", algo.to_kv());
        verify_allgather(&built.sched, &built.send, &built.recv, msg, Mode::Single)
            .unwrap_or_else(|e| panic!("{}: {e}", algo.to_kv()));
        verify_allgather(
            &built.sched,
            &built.send,
            &built.recv,
            msg,
            Mode::Threaded(6),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", algo.to_kv()));
        let res = sim.run(&built.sched).unwrap();
        assert!(res.makespan > 0.0, "{}", algo.to_kv());
        // Every op completed in finite time and respects dependencies.
        for op in built.sched.ops() {
            for &d in built.sched.deps(op.id) {
                assert!(res.op_end[d.index()] <= res.op_end[op.id.index()]);
            }
        }
    }
}

#[test]
fn allgather_volume_invariants_hold_for_flat_algorithms() {
    // Flat Allgathers are bandwidth-optimal: every rank receives exactly
    // (R-1) * msg bytes over the network/CMA.
    let spec = ClusterSpec::thor();
    let grid = ProcGrid::new(2, 4);
    let msg = 128;
    let r = grid.nranks() as u64;
    for algo in [
        AlgoConfig::flat(Family::Ring),
        AlgoConfig::flat(Family::RecursiveDoubling),
        AlgoConfig::flat(Family::Bruck),
        AlgoConfig::flat(Family::DirectSpread),
    ] {
        let built = build(&algo, grid, msg, &spec).unwrap();
        let stats = built.sched.stats();
        assert_eq!(
            stats.cma_bytes + stats.rail_bytes,
            r * (r - 1) * msg as u64,
            "{}",
            algo.to_kv()
        );
    }
}

#[test]
fn allreduce_survives_the_full_pipeline_on_awkward_grids() {
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    for (nodes, ppn) in [(1u32, 5u32), (3, 2), (2, 6), (5, 1)] {
        let grid = ProcGrid::new(nodes, ppn);
        let elems = grid.nranks() as usize * 10;
        for phase in [
            AllgatherPhase::FlatRing,
            AllgatherPhase::MhaInter(MhaInterConfig::default()),
        ] {
            let built = mha::collectives::build_ring_allreduce(grid, elems, phase, &spec).unwrap();
            assert!(mha::sched::check_races(&built.sched).is_empty());
            verify_allreduce_sum_f32(
                &built.sched,
                &built.send,
                &built.recv,
                elems,
                Mode::Threaded(4),
            )
            .unwrap();
            assert!(sim.run(&built.sched).unwrap().makespan > 0.0);
        }
    }
}

#[test]
fn simulator_and_executor_agree_on_schedule_structure() {
    // The two back-ends must accept exactly the same schedules.
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    let built = build(&AlgoConfig::default(), ProcGrid::new(2, 3), 32, &spec).unwrap();
    let store = mha::exec::BufferStore::new(&built.sched);
    mha::exec::run_threaded(&built.sched, &store, 4).unwrap();
    sim.run(&built.sched).unwrap();
}

#[test]
fn trace_covers_every_op_and_is_consistent() {
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    let built = build(
        &AlgoConfig::flat(Family::Ring),
        ProcGrid::new(2, 2),
        1024,
        &spec,
    )
    .unwrap();
    let mut tb = mha::simnet::TraceBuilder::new();
    let res = sim.run_probed(&built.sched, &mut tb).unwrap();
    let trace = tb.finish(&built.sched);
    assert_eq!(trace.spans().len(), built.sched.ops().len());
    for span in trace.spans() {
        assert!(span.ready <= span.start);
        assert!(span.start < span.end);
        assert!(span.end <= res.makespan + 1e-12);
    }
    assert!((trace.makespan() - res.makespan).abs() < 1e-12);
}
