//! Failure injection and error-path coverage across the stack: bad
//! configurations must be rejected with precise errors, never mis-executed.

use mha::collectives::mha::{build_mha_intra, InterAlgo, MhaInterConfig, Offload};
use mha::collectives::{
    build, build_ring_allreduce, AlgoConfig, AllgatherPhase, BuildError, Family,
};
use mha::exec::ExecError;
use mha::sched::{Channel, Loc, ProcGrid, RankId, ScheduleBuilder, ValidateError};
use mha::simnet::{ClusterSpec, SimError, Simulator};

#[test]
fn rd_variants_reject_non_powers_of_two() {
    let spec = ClusterSpec::thor();
    assert!(matches!(
        build(
            &AlgoConfig::flat(Family::RecursiveDoubling),
            ProcGrid::new(3, 2),
            8,
            &spec
        ),
        Err(BuildError::RequiresPowerOfTwo {
            what: "ranks",
            got: 6
        })
    ));
    assert!(matches!(
        build(
            &AlgoConfig::mha_inter(MhaInterConfig {
                inter: InterAlgo::RecursiveDoubling,
                offload: Offload::Auto,
                overlap: true,
            }),
            ProcGrid::new(5, 2),
            8,
            &spec
        ),
        Err(BuildError::RequiresPowerOfTwo {
            what: "nodes",
            got: 5
        })
    ));
    assert!(matches!(
        build(
            &AlgoConfig::flat(Family::SingleLeader),
            ProcGrid::new(6, 2),
            8,
            &spec
        ),
        Err(BuildError::RequiresPowerOfTwo { .. })
    ));
}

#[test]
fn multi_leader_rejects_bad_group_counts() {
    let spec = ClusterSpec::thor();
    for groups in [0u32, 3, 7] {
        let err = build(
            &AlgoConfig::flat(Family::MultiLeader { groups }),
            ProcGrid::new(2, 4),
            8,
            &spec,
        )
        .unwrap_err();
        assert!(matches!(err, BuildError::BadParameter(_)), "{groups}");
    }
}

#[test]
fn mha_intra_rejects_multi_node_grids() {
    let spec = ClusterSpec::thor();
    assert!(matches!(
        build_mha_intra(ProcGrid::new(2, 4), 8, Offload::Auto, &spec),
        Err(BuildError::BadParameter(_))
    ));
}

#[test]
fn allreduce_rejects_indivisible_vectors() {
    let spec = ClusterSpec::thor();
    assert!(matches!(
        build_ring_allreduce(ProcGrid::new(2, 3), 100, AllgatherPhase::FlatRing, &spec),
        Err(BuildError::IndivisibleVector {
            elems: 100,
            ranks: 6
        })
    ));
}

#[test]
fn simulator_rejects_overloaded_nodes_and_bad_rails() {
    let sim = Simulator::new(ClusterSpec::thor()).unwrap();
    // Too many ranks per node for the 32-core Thor nodes.
    let grid = ProcGrid::single_node(33);
    let mut b = ScheduleBuilder::new(grid, "too-big");
    b.compute(RankId(0), 1, &[], 0);
    assert!(matches!(
        sim.run(&b.finish().freeze()),
        Err(SimError::PpnExceedsCores { ppn: 33, cores: 32 })
    ));
    // Rail index beyond the cluster's two HCAs.
    let grid = ProcGrid::new(2, 1);
    let mut b = ScheduleBuilder::new(grid, "bad-rail");
    let s = b.private_buf(RankId(0), 8, "s");
    let d = b.private_buf(RankId(1), 8, "d");
    b.transfer(
        RankId(0),
        RankId(1),
        Loc::new(s, 0),
        Loc::new(d, 0),
        8,
        Channel::Rail(2),
        &[],
        0,
    );
    assert!(matches!(
        sim.run(&b.finish().freeze()),
        Err(SimError::InvalidSchedule(ValidateError::RailOutOfRange {
            rail: 2,
            rails: 2,
            ..
        }))
    ));
}

#[test]
fn simulator_rejects_implausible_cluster_specs() {
    let mut spec = ClusterSpec::thor();
    spec.mem_bw = f64::NAN;
    assert!(matches!(
        Simulator::new(spec),
        Err(SimError::InvalidSpec(_))
    ));
    let mut spec = ClusterSpec::thor();
    spec.rail_alpha = -1e-6;
    assert!(matches!(
        Simulator::new(spec),
        Err(SimError::InvalidSpec(_))
    ));
}

#[test]
fn executors_reject_structurally_broken_schedules() {
    // CMA across nodes is illegal; both executors must refuse it rather
    // than move bytes.
    let grid = ProcGrid::new(2, 1);
    let mut b = ScheduleBuilder::new(grid, "cma-cross");
    let s = b.private_buf(RankId(0), 8, "s");
    let d = b.private_buf(RankId(1), 8, "d");
    b.transfer(
        RankId(0),
        RankId(1),
        Loc::new(s, 0),
        Loc::new(d, 0),
        8,
        Channel::Cma,
        &[],
        0,
    );
    let sch = b.finish().freeze();
    let store = mha::exec::BufferStore::new(&sch);
    assert!(matches!(
        mha::exec::run_single(&sch, &store),
        Err(ExecError::InvalidSchedule(
            ValidateError::CmaAcrossNodes { .. }
        ))
    ));
    assert!(matches!(
        mha::exec::run_threaded(&sch, &store, 2),
        Err(ExecError::InvalidSchedule(
            ValidateError::CmaAcrossNodes { .. }
        ))
    ));
    // The destination buffer must be untouched.
    assert_eq!(store.read_all(d), vec![0u8; 8]);
}

#[test]
fn race_checker_catches_a_deliberately_broken_pipeline() {
    // A "chunk-counter" pipeline with the dependency edge removed: the
    // member copies out of shm without waiting for the leader's copy-in.
    let grid = ProcGrid::new(1, 2);
    let mut b = ScheduleBuilder::new(grid, "broken-pipeline");
    let src = b.private_buf(RankId(0), 64, "src");
    let shm = b.shared_buf(mha::sched::NodeId(0), 64, "shm");
    let dst = b.private_buf(RankId(1), 64, "dst");
    b.copy(RankId(0), Loc::new(src, 0), Loc::new(shm, 0), 64, &[], 0);
    // BUG: no dependency on the copy-in.
    b.copy(RankId(1), Loc::new(shm, 0), Loc::new(dst, 0), 64, &[], 1);
    let sch = b.finish();
    assert!(
        mha::sched::validate(&sch, None).is_ok(),
        "structurally fine"
    );
    let races = mha::sched::check_races(&sch);
    assert_eq!(races.len(), 1, "the missing edge must surface as a race");
    assert_eq!(races[0].buf, shm);
}

#[test]
fn degenerate_layouts_all_work() {
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    // One rank total; one node; one process per node across many nodes.
    for grid in [
        ProcGrid::new(1, 1),
        ProcGrid::new(1, 4),
        ProcGrid::new(4, 1),
    ] {
        for algo in [
            AlgoConfig::flat(Family::Ring),
            AlgoConfig::flat(Family::Bruck),
            AlgoConfig::default(),
        ] {
            let built = build(&algo, grid, 16, &spec).unwrap();
            mha::exec::verify_allgather(
                &built.sched,
                &built.send,
                &built.recv,
                16,
                mha::exec::Mode::Single,
            )
            .unwrap();
            sim.run(&built.sched).unwrap();
        }
    }
}

#[test]
fn zero_rail_offload_equals_plain_direct_spread() {
    let spec = ClusterSpec::thor();
    let grid = ProcGrid::single_node(4);
    let mha0 = build_mha_intra(grid, 64, Offload::Fixed(0), &spec).unwrap();
    let ds = build(&AlgoConfig::flat(Family::DirectSpread), grid, 64, &spec).unwrap();
    assert_eq!(mha0.sched.stats().rail_transfers, 0);
    assert_eq!(
        mha0.sched.stats().cma_transfers,
        ds.sched.stats().cma_transfers
    );
}
