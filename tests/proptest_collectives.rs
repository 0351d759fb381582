//! Property-based tests over the whole stack: random layouts, message
//! sizes and algorithms must always produce valid, race-free, semantically
//! correct, simulatable schedules.

use proptest::prelude::*;

use mha::collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha::collectives::{build, AlgoConfig, AllgatherPhase, Family};
use mha::exec::{verify_allgather, verify_allreduce_sum_f32, Mode};
use mha::sched::ProcGrid;
use mha::simnet::{ClusterSpec, Simulator};

fn arb_grid() -> impl Strategy<Value = ProcGrid> {
    (1u32..=5, 1u32..=6).prop_map(|(n, l)| ProcGrid::new(n, l))
}

/// Algorithms applicable to any grid.
fn arb_universal_algo() -> impl Strategy<Value = AlgoConfig> {
    prop_oneof![
        Just(AlgoConfig::flat(Family::Ring)),
        Just(AlgoConfig::flat(Family::Bruck)),
        Just(AlgoConfig::flat(Family::DirectSpread)),
        Just(AlgoConfig::flat(Family::MultiLeader { groups: 1 })),
        any::<bool>().prop_map(|ov| AlgoConfig::mha_inter(MhaInterConfig {
            inter: InterAlgo::Ring,
            offload: Offload::Auto,
            overlap: ov,
        })),
        (0u32..4).prop_map(|d| AlgoConfig::mha_inter(MhaInterConfig {
            inter: InterAlgo::Ring,
            offload: Offload::Fixed(d),
            overlap: true,
        })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_allgather_is_always_correct(
        grid in arb_grid(),
        algo in arb_universal_algo(),
        msg in 1usize..200,
    ) {
        let spec = ClusterSpec::thor();
        let built = build(&algo, grid, msg, &spec).unwrap();
        prop_assert!(mha::sched::validate(&built.sched, Some(spec.rails)).is_ok());
        prop_assert!(mha::sched::check_races(&built.sched).is_empty());
        verify_allgather(&built.sched, &built.send, &built.recv, msg, Mode::Threaded(3))
            .unwrap();
    }

    #[test]
    fn random_allgather_simulates_with_dependency_order(
        grid in arb_grid(),
        algo in arb_universal_algo(),
        msg in 1usize..100_000,
    ) {
        let spec = ClusterSpec::thor();
        let sim = Simulator::new(spec.clone()).unwrap();
        let built = build(&algo, grid, msg, &spec).unwrap();
        let res = sim.run(&built.sched).unwrap();
        prop_assert!(res.makespan > 0.0 && res.makespan.is_finite());
        for op in built.sched.ops() {
            for &d in built.sched.deps(op.id) {
                prop_assert!(res.op_end[d.index()] <= res.op_end[op.id.index()]);
            }
        }
        // No resource can be more than fully utilized.
        for u in res.utilization() {
            prop_assert!(u <= 1.0 + 1e-9, "utilization {u}");
        }
    }

    #[test]
    fn latency_is_monotone_in_message_size(
        grid in arb_grid(),
        base in 64usize..4096,
    ) {
        let spec = ClusterSpec::thor();
        let sim = Simulator::new(spec.clone()).unwrap();
        let algo = AlgoConfig::default();
        let small = build(&algo, grid, base, &spec).unwrap();
        let large = build(&algo, grid, base * 4, &spec).unwrap();
        let t_small = sim.run(&small.sched).unwrap().makespan;
        let t_large = sim.run(&large.sched).unwrap().makespan;
        prop_assert!(t_large >= t_small * 0.999, "{t_small} -> {t_large}");
    }

    #[test]
    fn random_allreduce_is_always_correct(
        grid in arb_grid(),
        elems_per_rank in 1usize..32,
        mha_phase in any::<bool>(),
    ) {
        let spec = ClusterSpec::thor();
        let elems = elems_per_rank * grid.nranks() as usize;
        let phase = if mha_phase {
            AllgatherPhase::MhaInter(MhaInterConfig::default())
        } else {
            AllgatherPhase::FlatRing
        };
        let built = mha::collectives::build_ring_allreduce(grid, elems, phase, &spec).unwrap();
        prop_assert!(mha::sched::check_races(&built.sched).is_empty());
        verify_allreduce_sum_f32(
            &built.sched, &built.send, &built.recv, elems, Mode::Threaded(3),
        ).unwrap();
    }

    #[test]
    fn step_counts_match_theory(
        grid in arb_grid(),
        msg in 1usize..64,
    ) {
        let spec = ClusterSpec::thor();
        let r = grid.nranks();
        // Ring and Direct Spread: N - 1 exchange steps (+ self-copy step).
        for algo in [AlgoConfig::flat(Family::Ring), AlgoConfig::flat(Family::DirectSpread)] {
            let built = build(&algo, grid, msg, &spec).unwrap();
            prop_assert_eq!(built.sched.stats().steps, r.max(1));
        }
        // RD: log2(N) exchange steps for powers of two.
        if r.is_power_of_two() {
            let built = build(&AlgoConfig::flat(Family::RecursiveDoubling), grid, msg, &spec).unwrap();
            prop_assert_eq!(built.sched.stats().steps, r.trailing_zeros() + 1);
        }
    }

    #[test]
    fn offload_splits_preserve_transfer_counts(
        l in 2u32..8,
        d in 0u32..8,
        msg in 1usize..4096,
    ) {
        let spec = ClusterSpec::thor();
        let grid = ProcGrid::single_node(l);
        let built = mha::collectives::mha::build_mha_intra(
            grid, msg, Offload::Fixed(d), &spec,
        ).unwrap();
        let stats = built.sched.stats();
        let d_eff = d.min(l - 1);
        prop_assert_eq!(stats.rail_transfers as u32, l * d_eff);
        prop_assert_eq!(stats.cma_transfers as u32, l * (l - 1 - d_eff));
        // Total data volume is invariant in the offload split.
        prop_assert_eq!(
            stats.cma_bytes + stats.rail_bytes,
            u64::from(l) * u64::from(l - 1) * msg as u64
        );
    }

    #[test]
    fn simulation_is_deterministic_for_random_inputs(
        grid in arb_grid(),
        msg in 1usize..10_000,
    ) {
        let spec = ClusterSpec::thor();
        let sim = Simulator::new(spec.clone()).unwrap();
        let built = build(&AlgoConfig::flat(Family::Ring), grid, msg, &spec).unwrap();
        let a = sim.run(&built.sched).unwrap();
        let b = sim.run(&built.sched).unwrap();
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.op_end, b.op_end);
        prop_assert_eq!(a.events, b.events);
    }
}
