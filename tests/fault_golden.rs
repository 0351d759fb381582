//! Fault-path regression pins.
//!
//! * A canonical degraded-rail run (thor, rail 0 down at t = 0, the
//!   failure-aware 4×4 build at 64 KB) is pinned **bit-exactly** — the
//!   fault machinery must stay deterministic, and fault-free golden
//!   latencies elsewhere must not absorb drift from this path. On an
//!   intentional model change, re-pin from the bits printed by the
//!   assertion failure.
//! * A property sweep: *any* single-rail-failure schedule — every algorithm
//!   layout × any failed rail — still passes validate → check_races →
//!   verify on both executors.

use proptest::prelude::*;

use mha::collectives::mha::InterAlgo;
use mha::collectives::{build, AlgoConfig};
use mha::exec::{verify_allgather, Mode};
use mha::sched::{InvariantProbe, ProcGrid};
use mha::simnet::{ClusterSpec, FaultSpec, Simulator};

#[test]
fn canonical_degraded_rail_run_is_bit_identical() {
    let want = f64::from_bits(0x3f244be42776a2be); // 154.849625 us
    let spec = ClusterSpec::thor();
    let cfg = AlgoConfig {
        down_rails: vec![0],
        ..AlgoConfig::default()
    };
    let built = build(&cfg, ProcGrid::new(4, 4), 64 * 1024, &spec).unwrap();
    let sim = Simulator::with_faults(spec, FaultSpec::rail_down_at(0, 0.0)).unwrap();
    let mut audit = InvariantProbe::new();
    let got = sim.run_probed(&built.sched, &mut audit).unwrap().makespan;
    assert!(audit.is_clean(), "violations: {:?}", audit.violations());
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "degraded golden drifted: got {:.9} us (0x{:016x}), golden {:.9} us (0x{:016x})",
        got * 1e6,
        got.to_bits(),
        want * 1e6,
        want.to_bits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_single_rail_failure_schedule_is_correct(
        (nodes, ppn) in (1u32..=4, 1u32..=4),
        msg in 1usize..100_000,
        ring in any::<bool>(),
        rails in 2u8..=8,
        down_seed in 0u8..8,
    ) {
        let spec = ClusterSpec::thor_with_rails(rails);
        let grid = ProcGrid::new(nodes, ppn);
        let down = down_seed % rails;
        let cfg = AlgoConfig {
            // RD needs power-of-two nodes; Ring takes anything.
            inter: if ring || !nodes.is_power_of_two() {
                InterAlgo::Ring
            } else {
                InterAlgo::RecursiveDoubling
            },
            down_rails: vec![down],
            ..AlgoConfig::default()
        };
        let built = build(&cfg, grid, msg, &spec).unwrap();
        prop_assert!(mha::sched::validate(&built.sched, Some(spec.rails)).is_ok());
        prop_assert!(mha::sched::check_races(&built.sched).is_empty());
        verify_allgather(&built.sched, &built.send, &built.recv, msg, Mode::Single).unwrap();
        verify_allgather(&built.sched, &built.send, &built.recv, msg, Mode::Threaded(3))
            .unwrap();
    }
}
