//! Property tests for the frozen CSR schedule IR and the shared readiness
//! runtime: freezing must preserve exactly the builder's dependency edge
//! list, and the indegree-counter drivers must release every op exactly
//! once, in an order consistent with the dependencies.

use proptest::prelude::*;

use mha::sched::{
    AtomicReadySet, FrozenSchedule, OpId, ProcGrid, RankId, ReadySet, ScheduleBuilder,
};

/// A random DAG as a per-op dependency list (each op depends on a random
/// subset of strictly earlier ops — the only shape the builder can express).
fn arb_dag() -> impl Strategy<Value = Vec<Vec<u32>>> {
    (1usize..40).prop_flat_map(|n| {
        let per_op: Vec<_> = (0..n)
            .map(|i| {
                if i == 0 {
                    Just(Vec::new()).boxed()
                } else {
                    proptest::collection::btree_set(0..i as u32, 0..=i.min(4))
                        .prop_map(|s| s.into_iter().collect::<Vec<u32>>())
                        .boxed()
                }
            })
            .collect();
        per_op
    })
}

fn build(deps: &[Vec<u32>]) -> FrozenSchedule {
    let mut b = ScheduleBuilder::new(ProcGrid::single_node(1), "prop-dag");
    for d in deps {
        let ids: Vec<OpId> = d.iter().map(|&i| OpId(i)).collect();
        b.compute(RankId(0), 1, &ids, 0);
    }
    b.finish().freeze()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The CSR adjacency is exactly the builder's edge list: `preds` are
    /// the deps in declaration order, `succs` hold the transposed edges in
    /// creation order, and the edge count round-trips.
    #[test]
    fn csr_round_trips_builder_edges(deps in arb_dag()) {
        let n = deps.len();
        let fs = build(&deps);
        prop_assert_eq!(fs.n_ops(), n);
        prop_assert_eq!(fs.n_edges(), deps.iter().map(Vec::len).sum::<usize>());
        let mut expect_succ = vec![Vec::new(); n];
        for (i, d) in deps.iter().enumerate() {
            let preds: Vec<u32> = fs.preds(i as u32).iter().map(|p| p.0).collect();
            prop_assert_eq!(&preds, d);
            prop_assert_eq!(fs.indegree(i as u32) as usize, d.len());
            for &p in d {
                expect_succ[p as usize].push(i as u32);
            }
        }
        for (i, succ) in expect_succ.iter().enumerate() {
            prop_assert_eq!(fs.succs(i as u32), &succ[..]);
        }
        // Roots are exactly the zero-indegree ops, in creation order.
        let expect_roots: Vec<u32> =
            (0..n as u32).filter(|&i| deps[i as usize].is_empty()).collect();
        prop_assert_eq!(fs.roots(), &expect_roots[..]);
    }

    /// Op ids are a topological order: every pred of op `i` is `< i`.
    #[test]
    fn topo_order_is_a_valid_linearization(deps in arb_dag()) {
        let fs = build(&deps);
        for i in 0..fs.n_ops() as u32 {
            for p in fs.preds(i) {
                prop_assert!(p.0 < i, "edge {} -> {i} violated", p.0);
            }
        }
    }

    /// Driving [`ReadySet`] from the roots releases every op exactly once,
    /// never before all of its predecessors.
    #[test]
    fn readiness_driver_releases_in_dependency_order(deps in arb_dag()) {
        let n = deps.len();
        let fs = build(&deps);
        let mut ready = ReadySet::new(&fs);
        prop_assert_eq!(ready.remaining(), n);
        let mut queue: Vec<u32> = fs.roots().to_vec();
        let mut order: Vec<u32> = Vec::new();
        let mut released = vec![false; n];
        for &r in fs.roots() {
            released[r as usize] = true;
        }
        while let Some(op) = queue.pop() {
            order.push(op);
            ready.complete(&fs, op, |s| {
                assert!(!released[s as usize], "op {s} released twice");
                released[s as usize] = true;
                queue.push(s);
            });
        }
        prop_assert!(ready.is_done());
        prop_assert_eq!(order.len(), n);
        let mut pos = vec![usize::MAX; n];
        for (k, &op) in order.iter().enumerate() {
            pos[op as usize] = k;
        }
        for (i, d) in deps.iter().enumerate() {
            for &p in d {
                prop_assert!(pos[p as usize] < pos[i], "op {i} completed before dep {p}");
            }
        }
    }

    /// The atomic driver agrees with the sequential one when driven
    /// single-threaded: same release multiset, same completion.
    #[test]
    fn atomic_readiness_matches_sequential(deps in arb_dag()) {
        let n = deps.len();
        let fs = build(&deps);
        let atomic = AtomicReadySet::new(&fs);
        let mut queue: Vec<u32> = fs.roots().to_vec();
        let mut released = fs.roots().len();
        while let Some(op) = queue.pop() {
            atomic.complete(&fs, op, |s| {
                released += 1;
                queue.push(s);
            });
        }
        prop_assert_eq!(released, n);
    }
}
