//! Stress test for `AtomicReadySet` under real thread contention: across
//! many rounds on random DAGs, every op must be released exactly once —
//! none lost (the drain would stall), none double-released (an op would
//! execute twice).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use mha_sched::{AtomicReadySet, FrozenSchedule, ProcGrid, RankId, ScheduleBuilder};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A random layered DAG: each op depends on a random subset of the
/// previous layer (plus occasional long-range edges), so completion order
/// under contention is highly interleaved.
fn random_dag(rng: &mut StdRng, n_ops: usize) -> FrozenSchedule {
    let mut b = ScheduleBuilder::new(ProcGrid::single_node(4), "contention");
    let mut ids = Vec::with_capacity(n_ops);
    for i in 0..n_ops {
        let mut deps = Vec::new();
        if i > 0 {
            let n_deps = rng.gen_range(0..=3usize.min(i));
            for _ in 0..n_deps {
                deps.push(ids[rng.gen_range(i.saturating_sub(8)..i)]);
            }
            deps.sort_unstable();
            deps.dedup();
        }
        ids.push(b.compute(RankId::from(i % 4), 1, &deps, 0));
    }
    b.finish().freeze()
}

/// Drains `fs` with `workers` threads pulling from a shared worklist,
/// counting how many times each op is released. Returns the counters.
fn drain(fs: &FrozenSchedule, workers: usize) -> Vec<u32> {
    let n = fs.n_ops();
    let released: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let worklist: Mutex<Vec<u32>> = Mutex::new(fs.roots().to_vec());
    for &r in fs.roots() {
        released[r as usize].fetch_add(1, Ordering::Relaxed);
    }
    let ready = AtomicReadySet::new(fs);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let Some(op) = worklist.lock().unwrap().pop() else {
                    // Either done, or another worker is about to release
                    // more ops; spin until the total accounts for all ops.
                    let done: u32 = released.iter().map(|c| c.load(Ordering::Acquire)).sum();
                    if done as usize >= n {
                        return;
                    }
                    std::hint::spin_loop();
                    continue;
                };
                ready.complete(fs, op, |s| {
                    released[s as usize].fetch_add(1, Ordering::AcqRel);
                    worklist.lock().unwrap().push(s);
                });
            });
        }
    });
    released.into_iter().map(|c| c.into_inner()).collect()
}

#[test]
fn every_op_released_exactly_once_under_contention() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for round in 0..20 {
        let n_ops = rng.gen_range(20..200usize);
        let fs = random_dag(&mut rng, n_ops);
        let released = drain(&fs, 8);
        assert_eq!(released.len(), n_ops);
        for (op, &count) in released.iter().enumerate() {
            assert_eq!(
                count, 1,
                "round {round}: op {op} released {count} times (n_ops={n_ops})"
            );
        }
    }
}

#[test]
fn wide_fanout_dag_is_fully_drained() {
    // One root fanning out to 256 leaves, all releasable at once — the
    // maximum-contention shape for the atomic counters.
    let mut b = ScheduleBuilder::new(ProcGrid::single_node(4), "fanout");
    let root = b.compute(RankId(0), 1, &[], 0);
    let mids: Vec<_> = (0..256u32)
        .map(|i| b.compute(RankId(i % 4), 1, &[root], 1))
        .collect();
    b.compute(RankId(0), 1, &mids, 2);
    let fs = b.finish().freeze();
    for _ in 0..10 {
        let released = drain(&fs, 8);
        assert!(released.iter().all(|&c| c == 1));
        let total: u32 = released.iter().sum();
        assert_eq!(total as usize, fs.n_ops());
    }
}
