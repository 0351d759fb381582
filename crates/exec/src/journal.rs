//! Per-op completion journaling and the seeded kill harness.
//!
//! The frozen schedule is immutable, so the *only* state a crashed
//! execution needs to resume is which ops retired — the
//! [`mha_sched::FrozenSchedule`] indegree vector replayed over that set is
//! exactly the recoverable frontier (see
//! [`mha_sched::ReadySet::from_completed`]). A [`CompletionJournal`]
//! records completions in retire order as execution proceeds; the executors
//! append an op only *after* its byte effects are fully applied and
//! *before* its successors are released, so at any crash point the journal
//! is dependency-closed and every journaled op's effects are durable in the
//! [`crate::BufferStore`]. Resume therefore never re-runs a journaled op —
//! which is what makes recovery byte-exact even for non-idempotent
//! `Reduce` ops.
//!
//! [`KillPlan`] is the deterministic crash injector: named worker threads
//! die (via the same contained-panic machinery that reports
//! [`crate::ExecError::WorkerPanicked`]) once the global retired-op counter
//! passes their seeded thresholds, the run aborts with
//! [`crate::ExecError::Killed`], and `resume_threaded` finishes the
//! unfinished suffix against the same buffers.

use parking_lot::Mutex;

use mha_sched::FrozenSchedule;

/// A malformed completion journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalError {
    /// An entry names an op the schedule does not contain.
    OpOutOfRange {
        /// The offending entry.
        op: u32,
        /// Ops in the schedule.
        n_ops: usize,
    },
    /// An op appears more than once.
    Duplicate {
        /// The op journaled twice.
        op: u32,
    },
    /// An entry claims completion of an op before one of its dependencies —
    /// impossible under the retire-order append discipline, so the journal
    /// does not describe any real execution.
    DepIncomplete {
        /// The op claimed complete.
        op: u32,
        /// Its dependency that is not complete at that point.
        dep: u32,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::OpOutOfRange { op, n_ops } => {
                write!(f, "journal entry {op} out of range ({n_ops} ops)")
            }
            JournalError::Duplicate { op } => write!(f, "op {op} journaled twice"),
            JournalError::DepIncomplete { op, dep } => {
                write!(f, "journal claims op {op} before its dependency {dep}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// A sink receiving op completions as they retire. Implementations must be
/// callable from many worker threads at once (`&self`, `Sync`).
pub trait JournalSink: Sync {
    /// Called once per op, after its effects are fully applied to the
    /// buffers and before any successor is released.
    fn op_retired(&self, op: u32);
}

/// An append-only per-op completion journal in retire order.
///
/// Appends are serialized by a mutex — retire order is then a valid
/// topological order of the completed set, because the executors journal an
/// op before releasing its successors. The journal survives the run that
/// wrote it: pass it to `resume_single` / `resume_threaded` to execute only
/// the unfinished suffix (appending the newly retired ops to the same
/// journal), or to [`CompletionJournal::validate`] to audit it first.
#[derive(Debug)]
pub struct CompletionJournal {
    n_ops: usize,
    entries: Mutex<Vec<u32>>,
}

impl CompletionJournal {
    /// An empty journal sized for `sch`.
    pub fn for_schedule(sch: &FrozenSchedule) -> Self {
        CompletionJournal {
            n_ops: sch.n_ops(),
            entries: Mutex::new(Vec::with_capacity(sch.n_ops())),
        }
    }

    /// A journal pre-loaded with `entries` (e.g. read back from storage).
    /// Not validated here; [`CompletionJournal::validate`] or the resume
    /// entry points do that.
    pub fn from_entries(n_ops: usize, entries: Vec<u32>) -> Self {
        CompletionJournal {
            n_ops,
            entries: Mutex::new(entries),
        }
    }

    /// Ops the journaled schedule contains.
    pub fn n_ops(&self) -> usize {
        self.n_ops
    }

    /// Completions recorded so far.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Whether every op of the schedule has retired.
    pub fn is_complete(&self) -> bool {
        self.entries.lock().len() == self.n_ops
    }

    /// A snapshot of the entries in retire order.
    pub fn entries(&self) -> Vec<u32> {
        self.entries.lock().clone()
    }

    /// Records `op` as retired. Executors call this through
    /// [`JournalSink`]; tests may append directly.
    pub fn record(&self, op: u32) {
        self.entries.lock().push(op);
    }

    /// Checks the journal against `sch`: every entry in range, no
    /// duplicates, and the sequence dependency-closed in order (each op's
    /// dependencies all appear earlier). Returns the validated entry
    /// snapshot, ready to seed
    /// [`mha_sched::AtomicReadySet::from_completed`].
    pub fn validate(&self, sch: &FrozenSchedule) -> Result<Vec<u32>, JournalError> {
        let entries = self.entries();
        let n = sch.n_ops();
        let mut seen = vec![false; n];
        for &op in &entries {
            if op as usize >= n {
                return Err(JournalError::OpOutOfRange { op, n_ops: n });
            }
            if seen[op as usize] {
                return Err(JournalError::Duplicate { op });
            }
            if let Some(&dep) = sch.preds(op).iter().find(|&&p| !seen[p.index()]) {
                return Err(JournalError::DepIncomplete { op, dep: dep.0 });
            }
            seen[op as usize] = true;
        }
        Ok(entries)
    }

    /// An order-sensitive FNV-1a digest of the entries — two journals match
    /// iff they record the same completions in the same order. Golden tests
    /// pin this alongside the output-buffer hash.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &op in self.entries.lock().iter() {
            for b in op.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }
}

impl JournalSink for CompletionJournal {
    fn op_retired(&self, op: u32) {
        self.record(op);
    }
}

/// A deterministic worker-kill schedule for the threaded executor.
///
/// Victim `victims[i]` (a worker index in `0..threads`) dies — instead of
/// executing the op it just claimed — once the global retired-op counter
/// reaches `kill_after_ops + i`; the stagger spreads a multi-victim plan
/// over consecutive retire points instead of one thundering instant. The
/// claimed-but-unexecuted op is *not* journaled, so resume re-runs it.
/// `seed` records how the plan was drawn ([`KillPlan::seeded`]) and salts
/// nothing at kill time: given a plan, kills fire at fixed counter values
/// regardless of thread interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillPlan {
    /// The seed the plan was drawn from (0 for hand-built plans).
    pub seed: u64,
    /// Retired-op count at which the first victim dies.
    pub kill_after_ops: usize,
    /// Worker indices to kill, each staggered one retire point after the
    /// previous.
    pub victims: Vec<usize>,
}

impl KillPlan {
    /// A hand-built plan killing `victims` once `kill_after_ops` ops
    /// retired.
    pub fn new(kill_after_ops: usize, victims: Vec<usize>) -> Self {
        KillPlan {
            seed: 0,
            kill_after_ops,
            victims,
        }
    }

    /// Draws a plan from `seed` via splitmix64: a kill point inside the
    /// schedule (`0..n_ops`) and a non-empty victim subset of `0..threads`.
    pub fn seeded(seed: u64, n_ops: usize, threads: usize) -> Self {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let kill_after_ops = if n_ops == 0 {
            0
        } else {
            (next() % n_ops as u64) as usize
        };
        let n_victims = 1 + (next() % threads.max(1) as u64) as usize;
        let mut pool: Vec<usize> = (0..threads.max(1)).collect();
        let mut victims = Vec::with_capacity(n_victims);
        for _ in 0..n_victims {
            let i = (next() % pool.len() as u64) as usize;
            victims.push(pool.swap_remove(i));
        }
        victims.sort_unstable();
        KillPlan {
            seed,
            kill_after_ops,
            victims,
        }
    }

    /// A plan killing every one of `threads` workers, the first at
    /// `kill_after_ops` (torture mode).
    pub fn kill_all(kill_after_ops: usize, threads: usize) -> Self {
        KillPlan {
            seed: 0,
            kill_after_ops,
            victims: (0..threads).collect(),
        }
    }

    /// The retired-op threshold at which `worker` dies, if it is a victim.
    pub fn threshold(&self, worker: usize) -> Option<usize> {
        self.victims
            .iter()
            .position(|&v| v == worker)
            .map(|i| self.kill_after_ops + i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mha_sched::{ProcGrid, RankId, ScheduleBuilder};

    fn diamond() -> FrozenSchedule {
        // 0 -> {1, 2} -> 3
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(1), "d");
        let a = b.compute(RankId(0), 1, &[], 0);
        let l = b.compute(RankId(0), 1, &[a], 1);
        let r = b.compute(RankId(0), 1, &[a], 1);
        b.compute(RankId(0), 1, &[l, r], 2);
        b.finish().freeze()
    }

    #[test]
    fn valid_prefixes_validate() {
        let fs = diamond();
        for entries in [vec![], vec![0], vec![0, 1], vec![0, 2, 1], vec![0, 1, 2, 3]] {
            let j = CompletionJournal::from_entries(fs.n_ops(), entries.clone());
            assert_eq!(j.validate(&fs).unwrap(), entries);
        }
    }

    #[test]
    fn dep_incomplete_is_a_typed_rejection() {
        let fs = diamond();
        let j = CompletionJournal::from_entries(fs.n_ops(), vec![0, 1, 3]);
        assert_eq!(
            j.validate(&fs).unwrap_err(),
            JournalError::DepIncomplete { op: 3, dep: 2 }
        );
        let j = CompletionJournal::from_entries(fs.n_ops(), vec![1]);
        assert_eq!(
            j.validate(&fs).unwrap_err(),
            JournalError::DepIncomplete { op: 1, dep: 0 }
        );
    }

    #[test]
    fn duplicates_and_range_are_rejected() {
        let fs = diamond();
        let j = CompletionJournal::from_entries(fs.n_ops(), vec![0, 0]);
        assert_eq!(
            j.validate(&fs).unwrap_err(),
            JournalError::Duplicate { op: 0 }
        );
        let j = CompletionJournal::from_entries(fs.n_ops(), vec![9]);
        assert_eq!(
            j.validate(&fs).unwrap_err(),
            JournalError::OpOutOfRange { op: 9, n_ops: 4 }
        );
    }

    #[test]
    fn digest_is_order_sensitive() {
        let fs = diamond();
        let a = CompletionJournal::from_entries(fs.n_ops(), vec![0, 1, 2]);
        let b = CompletionJournal::from_entries(fs.n_ops(), vec![0, 2, 1]);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(
            a.digest(),
            CompletionJournal::from_entries(fs.n_ops(), vec![0, 1, 2]).digest()
        );
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        for seed in 0..64u64 {
            let a = KillPlan::seeded(seed, 100, 8);
            let b = KillPlan::seeded(seed, 100, 8);
            assert_eq!(a, b);
            assert!(a.kill_after_ops < 100);
            assert!(!a.victims.is_empty() && a.victims.len() <= 8);
            assert!(a.victims.iter().all(|&v| v < 8));
            let mut v = a.victims.clone();
            v.dedup();
            assert_eq!(v.len(), a.victims.len(), "duplicate victims");
        }
    }

    #[test]
    fn thresholds_stagger_victims() {
        let p = KillPlan::kill_all(5, 3);
        assert_eq!(p.threshold(0), Some(5));
        assert_eq!(p.threshold(1), Some(6));
        assert_eq!(p.threshold(2), Some(7));
        assert_eq!(p.threshold(3), None);
    }

    #[test]
    fn journal_error_display_is_readable() {
        let e = JournalError::DepIncomplete { op: 3, dep: 1 };
        assert_eq!(e.to_string(), "journal claims op 3 before its dependency 1");
        assert!(JournalError::Duplicate { op: 2 }
            .to_string()
            .contains("twice"));
        assert!(JournalError::OpOutOfRange { op: 9, n_ops: 4 }
            .to_string()
            .contains("out of range"));
    }
}
