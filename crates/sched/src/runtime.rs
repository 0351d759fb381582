//! Shared readiness runtime: indegree-counter (Kahn) drivers over the
//! frozen CSR adjacency.
//!
//! A frozen schedule stores successor lists only, so a driver seeds its
//! counters with one counting pass over them
//! ([`FrozenSchedule::indegrees`]). A released op's counter is zero and
//! no completion touches it again; the simulator parks the op's live-flow
//! count there ([`ReadySet::hold`]) instead of keeping a second per-op
//! table.
//!
//! Both execution backends used to carry their own copy of the same loop —
//! "when an op completes, decrement each successor's remaining-dependency
//! counter; a counter hitting zero makes that op ready". This module is the
//! single implementation: [`ReadySet`] for single-threaded drivers (the
//! discrete-event simulator) and [`AtomicReadySet`] for the work-stealing
//! threaded executor, where completions race.
//!
//! Successors are visited in CSR order, i.e. exactly the order the former
//! per-backend `Vec<Vec<OpId>>` adjacency produced — the simulator's event
//! sequence (and therefore every simulated latency) is unchanged.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::frozen::FrozenSchedule;
use crate::ids::OpId;

/// Single-threaded readiness driver.
///
/// Seed execution with [`FrozenSchedule::roots`]; each time an op finishes,
/// call [`ReadySet::complete`] and start every op handed to the callback.
#[derive(Debug, Clone)]
pub struct ReadySet {
    indeg: Vec<u32>,
    remaining: usize,
}

impl ReadySet {
    /// A fresh driver with every op unfinished.
    pub fn new(fs: &FrozenSchedule) -> Self {
        ReadySet {
            indeg: fs.indegrees(),
            remaining: fs.n_ops(),
        }
    }

    /// Rewinds the driver to the every-op-unfinished state for `fs`,
    /// reusing the indegree vector's allocation. After this call the
    /// driver is indistinguishable from `ReadySet::new(fs)`.
    pub fn reset(&mut self, fs: &FrozenSchedule) {
        fs.count_indegrees(&mut self.indeg);
        self.remaining = fs.n_ops();
    }

    /// A driver seeded with a non-root frontier: every op in `completed` is
    /// already retired (its successors' indegrees pre-decremented), and the
    /// returned frontier holds the not-yet-completed ops whose dependencies
    /// are all in `completed`, in op-id order — exactly the set a fresh
    /// driver replaying `completed` through [`ReadySet::complete`] would
    /// have released but not completed. This is the resume path for
    /// journaled execution: the indegree vector *is* the recoverable
    /// frontier, so a completion journal is all the state a restart needs.
    ///
    /// `completed` must be dependency-closed (every predecessor of a
    /// completed op is itself completed) and duplicate-free; callers
    /// validate journals before seeding (debug builds assert it).
    pub fn from_completed(fs: &FrozenSchedule, completed: &[u32]) -> (Self, Vec<u32>) {
        let (indeg, frontier) = seed_frontier(fs, completed);
        (
            ReadySet {
                indeg,
                remaining: fs.n_ops() - completed.len(),
            },
            frontier,
        )
    }

    /// Records `op` as finished and invokes `on_ready` for every successor
    /// whose dependencies are now all satisfied, in CSR (creation) order.
    pub fn complete(&mut self, fs: &FrozenSchedule, op: u32, mut on_ready: impl FnMut(u32)) {
        debug_assert!(self.remaining > 0, "completed more ops than exist");
        self.remaining -= 1;
        for &s in fs.succs(op) {
            let d = &mut self.indeg[s as usize];
            debug_assert!(*d > 0, "successor {s} already released");
            *d -= 1;
            if *d == 0 {
                on_ready(s);
            }
        }
    }

    /// Parks `count` in the counter of `op`, a released op (one whose
    /// counter reached zero) that has not completed. No completion touches
    /// a released op's counter, so a driver may keep per-op work there
    /// until the op completes: the simulator keeps the op's live flows.
    #[inline]
    pub fn hold(&mut self, op: u32, count: u32) {
        let c = &mut self.indeg[op as usize];
        debug_assert_eq!(*c, 0, "op {op} is not released");
        *c = count;
    }

    /// Takes one from the count [`ReadySet::hold`] parked on `op`; true
    /// when none is left.
    #[inline]
    pub fn take_one(&mut self, op: u32) -> bool {
        let c = &mut self.indeg[op as usize];
        debug_assert!(*c > 0, "op {op} holds nothing");
        *c -= 1;
        *c == 0
    }

    /// Ops not yet completed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Whether every op has completed.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }
}

/// Computes the seeded indegree vector and resume frontier shared by
/// [`ReadySet::from_completed`] and [`AtomicReadySet::from_completed`].
fn seed_frontier(fs: &FrozenSchedule, completed: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let n = fs.n_ops();
    let mut done = vec![false; n];
    for &c in completed {
        debug_assert!((c as usize) < n, "completed op {c} out of range");
        debug_assert!(!done[c as usize], "op {c} completed twice");
        done[c as usize] = true;
    }
    let mut indeg = fs.indegrees();
    for &c in completed {
        debug_assert!(
            fs.preds(c).iter().all(|&p| done[p.index()]),
            "completed set is not dependency-closed at op {c}"
        );
        for &s in fs.succs(c) {
            debug_assert!(indeg[s as usize] > 0, "successor {s} over-released");
            indeg[s as usize] -= 1;
        }
    }
    let frontier: Vec<u32> = (0..n)
        .filter(|&i| !done[i] && indeg[i] == 0)
        .map(|i| OpId::from(i).0)
        .collect();
    (indeg, frontier)
}

/// Lock-free readiness driver for concurrent completions.
///
/// Counters are decremented with `fetch_sub(AcqRel)`: the thread that takes a
/// counter to zero observes all writes made by the ops it depended on, so the
/// callback may immediately execute (or enqueue) the successor.
#[derive(Debug)]
pub struct AtomicReadySet {
    indeg: Vec<AtomicU32>,
}

impl AtomicReadySet {
    /// A fresh driver with every op unfinished.
    pub fn new(fs: &FrozenSchedule) -> Self {
        AtomicReadySet {
            indeg: fs.indegrees().into_iter().map(AtomicU32::new).collect(),
        }
    }

    /// The concurrent analogue of [`ReadySet::from_completed`]: a driver
    /// seeded with `completed` already retired, plus the resume frontier
    /// (not-yet-completed ops whose dependencies are all completed, in
    /// op-id order). Seeding happens before any worker touches the
    /// counters, so plain stores suffice.
    ///
    /// `completed` must be dependency-closed and duplicate-free (the
    /// journal layer validates this; debug builds assert it).
    pub fn from_completed(fs: &FrozenSchedule, completed: &[u32]) -> (Self, Vec<u32>) {
        let (indeg, frontier) = seed_frontier(fs, completed);
        (
            AtomicReadySet {
                indeg: indeg.into_iter().map(AtomicU32::new).collect(),
            },
            frontier,
        )
    }

    /// Records `op` as finished; invokes `on_ready` for each successor this
    /// call released. Safe to call from many threads at once.
    pub fn complete(&self, fs: &FrozenSchedule, op: u32, mut on_ready: impl FnMut(u32)) {
        for &s in fs.succs(op) {
            if self.indeg[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                on_ready(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScheduleBuilder;
    use crate::grid::ProcGrid;
    use crate::ids::RankId;

    fn chain_with_join() -> FrozenSchedule {
        // 0 -> 1 -> 3 <- 2 <- 0 ; 3 -> 4
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(1), "t");
        let o0 = b.compute(RankId(0), 1, &[], 0);
        let o1 = b.compute(RankId(0), 1, &[o0], 0);
        let o2 = b.compute(RankId(0), 1, &[o0], 0);
        let o3 = b.compute(RankId(0), 1, &[o1, o2], 1);
        b.compute(RankId(0), 1, &[o3], 2);
        b.finish().freeze()
    }

    fn drain(fs: &FrozenSchedule) -> Vec<u32> {
        let mut rs = ReadySet::new(fs);
        let mut order: Vec<u32> = fs.roots().to_vec();
        let mut i = 0;
        while i < order.len() {
            let op = order[i];
            rs.complete(fs, op, |s| order.push(s));
            i += 1;
        }
        assert!(rs.is_done());
        assert_eq!(rs.remaining(), 0);
        order
    }

    #[test]
    fn ready_set_releases_in_dependency_order() {
        let fs = chain_with_join();
        let order = drain(&fs);
        assert_eq!(order.len(), fs.n_ops());
        let pos: Vec<usize> = {
            let mut p = vec![0; order.len()];
            for (i, &op) in order.iter().enumerate() {
                p[op as usize] = i;
            }
            p
        };
        for i in 0..fs.n_ops() {
            let id = OpId::from(i);
            for d in fs.deps(id) {
                assert!(pos[d.index()] < pos[i], "{d} must precede {id}");
            }
        }
    }

    #[test]
    fn a_released_op_holds_a_count_no_completion_touches() {
        let fs = chain_with_join();
        let mut rs = ReadySet::new(&fs);
        rs.hold(0, 2);
        let mut released = Vec::new();
        assert!(!rs.take_one(0));
        assert!(rs.take_one(0));
        rs.complete(&fs, 0, |s| released.push(s));
        assert_eq!(released, [1, 2]);
        // Op 1 is released and busy; completing op 2 must not touch it.
        rs.hold(1, 1);
        rs.complete(&fs, 2, |s| released.push(s));
        assert_eq!(released, [1, 2]);
        assert!(rs.take_one(1));
        rs.complete(&fs, 1, |s| released.push(s));
        assert_eq!(released, [1, 2, 3]);
    }

    #[test]
    fn join_released_exactly_once() {
        let fs = chain_with_join();
        let order = drain(&fs);
        assert_eq!(order.iter().filter(|&&o| o == 3).count(), 1);
    }

    #[test]
    fn atomic_matches_sequential_release_set() {
        let fs = chain_with_join();
        let ars = AtomicReadySet::new(&fs);
        let mut order: Vec<u32> = fs.roots().to_vec();
        let mut i = 0;
        while i < order.len() {
            let op = order[i];
            ars.complete(&fs, op, |s| order.push(s));
            i += 1;
        }
        assert_eq!(order.len(), fs.n_ops());
    }

    /// Released-but-not-completed set after replaying `completed` through a
    /// fresh driver: the reference a seeded frontier must match.
    fn replay_frontier(fs: &FrozenSchedule, completed: &[u32]) -> Vec<u32> {
        let mut rs = ReadySet::new(fs);
        let mut released: Vec<u32> = fs.roots().to_vec();
        for &c in completed {
            rs.complete(fs, c, |s| released.push(s));
        }
        let mut f: Vec<u32> = released
            .into_iter()
            .filter(|op| !completed.contains(op))
            .collect();
        f.sort_unstable();
        f
    }

    #[test]
    fn seeded_frontier_matches_replayed_frontier() {
        let fs = chain_with_join();
        // Every dependency-closed prefix of the drain order.
        let order = drain(&fs);
        for k in 0..=order.len() {
            let completed = &order[..k];
            let want = replay_frontier(&fs, completed);
            let (rs, got) = ReadySet::from_completed(&fs, completed);
            assert_eq!(got, want, "ReadySet frontier diverged at prefix {k}");
            assert_eq!(rs.remaining(), fs.n_ops() - k);
            let (ars, agot) = AtomicReadySet::from_completed(&fs, completed);
            assert_eq!(agot, want, "AtomicReadySet frontier diverged at {k}");
            // Draining the seeded driver visits exactly the unfinished ops.
            let mut rest: Vec<u32> = got.clone();
            let mut i = 0;
            let mut rs = rs;
            while i < rest.len() {
                let op = rest[i];
                rs.complete(&fs, op, |s| rest.push(s));
                i += 1;
            }
            assert!(rs.is_done());
            assert_eq!(rest.len(), fs.n_ops() - k);
            // And the atomic driver releases the same suffix set.
            let mut arest: Vec<u32> = agot.clone();
            let mut i = 0;
            while i < arest.len() {
                let op = arest[i];
                ars.complete(&fs, op, |s| arest.push(s));
                i += 1;
            }
            let (mut a, mut b) = (rest, arest);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_and_full_completed_sets_seed_trivially() {
        let fs = chain_with_join();
        let (rs, frontier) = ReadySet::from_completed(&fs, &[]);
        assert_eq!(frontier, fs.roots());
        assert_eq!(rs.remaining(), fs.n_ops());
        let all: Vec<u32> = drain(&fs);
        let (rs, frontier) = ReadySet::from_completed(&fs, &all);
        assert!(frontier.is_empty());
        assert!(rs.is_done());
    }

    #[test]
    fn atomic_concurrent_join_releases_once() {
        use std::sync::atomic::AtomicUsize;
        // Two parallel predecessors of a join op complete from two threads;
        // the join must be released exactly once.
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(1), "t");
        let mut preds = Vec::new();
        for _ in 0..8 {
            preds.push(b.compute(RankId(0), 1, &[], 0));
        }
        b.compute(RankId(0), 1, &preds, 1);
        let fs = b.finish().freeze();
        for _ in 0..50 {
            let ars = AtomicReadySet::new(&fs);
            let released = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for half in 0..2u32 {
                    let (ars, released, fs) = (&ars, &released, &fs);
                    s.spawn(move || {
                        for p in (0..8u32).filter(|p| p % 2 == half) {
                            ars.complete(fs, p, |_| {
                                released.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            });
            assert_eq!(released.load(Ordering::Relaxed), 1);
        }
    }
}
