//! Property-based tests of the simulator's core invariants.

use proptest::prelude::*;

use mha_sched::{Channel, Loc, ProcGrid, RankId, ScheduleBuilder, SummaryProbe};
use mha_simnet::{max_min_rates, ClusterSpec, FlowSpec, ResourceId, Simulator};

type ArbFlows = (Vec<f64>, Vec<Vec<(ResourceId, f64)>>, Vec<f64>);

fn arb_flows() -> impl Strategy<Value = ArbFlows> {
    // (resource capacities, per-flow resource sets, per-flow caps)
    (1usize..6, 1usize..10).prop_flat_map(|(nres, nflows)| {
        (
            proptest::collection::vec(1.0f64..100.0, nres),
            proptest::collection::vec(
                proptest::collection::btree_set(0..nres as u32, 1..=3.min(nres)).prop_flat_map(
                    |set| {
                        let v: Vec<u32> = set.into_iter().collect();
                        proptest::collection::vec(1.0f64..3.0, v.len()).prop_map(move |ws| {
                            v.iter()
                                .zip(&ws)
                                .map(|(&r, &w)| (ResourceId(r), w))
                                .collect::<Vec<_>>()
                        })
                    },
                ),
                nflows,
            ),
            proptest::collection::vec(0.5f64..50.0, nflows),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Max-min allocations are feasible and every flow is bottlenecked
    /// (either at its own cap or on a saturated resource).
    #[test]
    fn waterfill_is_feasible_and_pareto((caps, sets, flow_caps) in arb_flows()) {
        let flows: Vec<FlowSpec> = sets
            .iter()
            .zip(&flow_caps)
            .map(|(s, &cap)| FlowSpec { cap, resources: s })
            .collect();
        let rates = max_min_rates(&flows, |r| caps[r.index()]);
        prop_assert_eq!(rates.len(), flows.len());
        let mut used = vec![0.0; caps.len()];
        for (f, &rate) in flows.iter().zip(&rates) {
            prop_assert!(rate > 0.0);
            prop_assert!(rate <= f.cap * (1.0 + 1e-6));
            for &(res, w) in f.resources {
                used[res.index()] += rate * w;
            }
        }
        for (u, c) in used.iter().zip(&caps) {
            prop_assert!(*u <= c * (1.0 + 1e-6), "oversubscribed: {} > {}", u, c);
        }
        for (f, &rate) in flows.iter().zip(&rates) {
            let at_cap = (rate - f.cap).abs() < 1e-6 * f.cap.max(1.0);
            let bottlenecked = f.resources.iter().any(|&(res, _)| {
                (used[res.index()] - caps[res.index()]).abs()
                    < 1e-6 * caps[res.index()].max(1.0)
            });
            prop_assert!(at_cap || bottlenecked);
        }
    }

    /// A pair of transfers over random channels/sizes completes, respects
    /// physics (never faster than the ideal uncontended time), and is
    /// monotone when the message doubles.
    #[test]
    fn single_transfer_never_beats_ideal_time(
        len in 1usize..4_000_000,
        intra in any::<bool>(),
    ) {
        let spec = ClusterSpec::thor();
        let sim = Simulator::new(spec.clone()).unwrap();
        let (grid, src, dst, ch) = if intra {
            (ProcGrid::single_node(2), RankId(0), RankId(1), Channel::Cma)
        } else {
            (ProcGrid::new(2, 1), RankId(0), RankId(1), Channel::AllRails)
        };
        let build = |len: usize| {
            let mut b = ScheduleBuilder::new(grid, "p");
            let s = b.private_buf(src, len, "s");
            let d = b.private_buf(dst, len, "d");
            b.transfer(src, dst, Loc::new(s, 0), Loc::new(d, 0), len, ch, &[], 0);
            b.finish().freeze()
        };
        let t = sim.run(&build(len)).unwrap().makespan;
        let ideal = if intra {
            spec.t_c(len).min(spec.cma_alpha + len as f64 / spec.copy_bw)
        } else {
            spec.t_h(len).min(spec.rail_alpha + len as f64 / (spec.rail_bw * 2.0))
        };
        prop_assert!(t >= ideal * 0.999, "{} < ideal {}", t, ideal);
        let t2 = sim.run(&build(len * 2)).unwrap().makespan;
        prop_assert!(t2 >= t * 0.999);
    }

    /// Resource accounting: total bytes through each rail never exceed
    /// capacity × makespan.
    #[test]
    fn utilization_never_exceeds_one(
        nflows in 1usize..12,
        len in 1024usize..500_000,
    ) {
        let spec = ClusterSpec::thor();
        let sim = Simulator::new(spec.clone()).unwrap();
        let grid = ProcGrid::new(2, 12);
        let mut b = ScheduleBuilder::new(grid, "u");
        for i in 0..nflows {
            let src = RankId(i as u32);
            let dst = RankId((i + 12) as u32);
            let s = b.private_buf(src, len, "s");
            let d = b.private_buf(dst, len, "d");
            b.transfer(src, dst, Loc::new(s, 0), Loc::new(d, 0), len, Channel::AllRails, &[], 0);
        }
        let mut sp = SummaryProbe::new();
        sim.run_probed(&b.finish().freeze(), &mut sp).unwrap();
        for r in sp.finish().resources {
            prop_assert!(r.utilization <= 1.0 + 1e-9, "utilization {}", r.utilization);
        }
    }
}
