//! The frozen schedule IR: an immutable, cache-friendly compilation of a
//! [`Schedule`] that both execution backends consume.
//!
//! A [`Schedule`] is convenient to *build* — ops carry their dependency
//! lists inline — but awkward to *execute*: every interpreter used to
//! re-derive successor adjacency (`Vec<Vec<OpId>>`) and indegree counts on
//! entry, walking heap-scattered edge lists on the hot path.
//! [`FrozenSchedule`] does this once, at build time, into flat CSR
//! (compressed sparse row) arrays:
//!
//! * `succ_off`/`succ`: for op `i`, the ops depending on it are
//!   `succ[succ_off[i]..succ_off[i+1]]`, in the same order the ad-hoc
//!   adjacency used to produce them (so event ordering — and therefore
//!   simulated timing — is bit-identical to the pre-CSR engine);
//! * the predecessor view (an op's dependencies) is the schedule's own flat
//!   dependency list ([`Schedule::deps`]), moved in with it rather than
//!   copied;
//! * `indegree`, `roots`: the Kahn bootstrap state every readiness driver
//!   needs (see [`crate::runtime`]). No topological order is stored: the
//!   builder only accepts backward dependencies, so op ids `0..n_ops()`
//!   already are one;
//! * `rows`: a dense per-op summary ([`OpRow`]) — kind class, bytes, step,
//!   lane rank — so probes and trace sinks classify ops without matching on
//!   [`OpKind`] themselves.
//!
//! `FrozenSchedule` derefs to [`Schedule`], so everything that inspects a
//! schedule (`validate`, `stats`, buffer lookups) keeps working unchanged.

use std::ops::Deref;

use crate::ids::OpId;
use crate::op::{Channel, OpKind};
use crate::schedule::Schedule;

/// Coarse classification of an op for traces, probes and summaries —
/// the same partition [`OpKind::kind_name`] reports, as a dense enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Intra-node kernel-assisted transfer (destination CPU does the work).
    Cma,
    /// Transfer pinned to one HCA rail.
    Rail,
    /// Transfer over the multi-rail pt2pt layer (striped or round-robin).
    Rails,
    /// CPU memcpy.
    Copy,
    /// CPU reduction.
    Reduce,
    /// Pure compute.
    Compute,
}

impl OpClass {
    /// Whether the HCA, not a CPU, performs the op (network lane).
    #[inline]
    pub fn is_network(self) -> bool {
        matches!(self, OpClass::Rail | OpClass::Rails)
    }

    /// The short name [`OpKind::kind_name`] would report.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Cma => "cma",
            OpClass::Rail => "rail",
            OpClass::Rails => "rails",
            OpClass::Copy => "copy",
            OpClass::Reduce => "reduce",
            OpClass::Compute => "compute",
        }
    }
}

/// Dense per-op summary row, precomputed at freeze time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRow {
    /// Kind classification.
    pub class: OpClass,
    /// Bytes the op moves (0 for compute).
    pub bytes: u64,
    /// Algorithm step, if one was assigned.
    pub step: Option<u32>,
    /// The rank whose timeline lane the op belongs to: the posting rank for
    /// network transfers, the executing CPU's rank otherwise.
    pub rank: u32,
}

/// An immutable, execution-ready schedule: the original [`Schedule`] plus
/// CSR successor adjacency, indegrees and the dense op table. Op ids
/// `0..n_ops()` are a topological order.
///
/// Produced by [`Schedule::freeze`]; consumed by `mha-simnet`'s engine and
/// `mha-exec`'s executors via the readiness drivers in [`crate::runtime`].
#[derive(Debug, Clone)]
pub struct FrozenSchedule {
    sched: Schedule,
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    indegree: Vec<u32>,
    roots: Vec<u32>,
    rows: Vec<OpRow>,
    /// Rail count this schedule last validated cleanly against (see
    /// [`FrozenSchedule::validate_for`]).
    validated: std::sync::OnceLock<Option<u8>>,
}

fn row_of(kind: &OpKind, step: u32) -> OpRow {
    let step = (step != u32::MAX).then_some(step);
    let (class, rank) = match kind {
        OpKind::Transfer {
            src_rank,
            dst_rank,
            channel,
            ..
        } => match channel {
            Channel::Cma => (OpClass::Cma, dst_rank.0),
            Channel::Rail(_) => (OpClass::Rail, src_rank.0),
            Channel::AllRails => (OpClass::Rails, src_rank.0),
        },
        OpKind::Copy { actor, .. } => (OpClass::Copy, actor.0),
        OpKind::Reduce { actor, .. } => (OpClass::Reduce, actor.0),
        OpKind::Compute { actor, .. } => (OpClass::Compute, actor.0),
    };
    OpRow {
        class,
        bytes: kind.bytes() as u64,
        step,
        rank,
    }
}

impl Schedule {
    /// Compiles the schedule into its frozen execution form. O(ops + edges),
    /// with a fixed number of allocations whatever the op count.
    pub fn freeze(self) -> FrozenSchedule {
        let n = self.ops().len();
        let n_edges = self.dep_lists().1.len();

        let mut indegree = Vec::with_capacity(n);
        let mut succ_off = vec![0u32; n + 1];
        let mut rows = Vec::with_capacity(n);
        let mut n_roots = 0;
        for (i, op) in self.ops().iter().enumerate() {
            debug_assert_eq!(op.id.index(), i, "ops must be stored in id order");
            let preds = self.deps(op.id);
            indegree.push(preds.len() as u32);
            n_roots += usize::from(preds.is_empty());
            for d in preds {
                debug_assert!(d.index() < i, "dependencies must point backwards");
                succ_off[d.index() + 1] += 1;
            }
            rows.push(row_of(&op.kind, op.step));
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
        }
        // Fill successor edges in global creation order, which reproduces
        // exactly the per-node ordering of the former `Vec<Vec<OpId>>`
        // adjacency (each dep pushes the depending op in id order).
        let mut cursor: Vec<u32> = succ_off[..n].to_vec();
        let mut succ = vec![0u32; n_edges];
        for op in self.ops() {
            for d in self.deps(op.id) {
                let c = &mut cursor[d.index()];
                succ[*c as usize] = op.id.0;
                *c += 1;
            }
        }

        let mut roots = Vec::with_capacity(n_roots);
        roots.extend((0..n as u32).filter(|&i| indegree[i as usize] == 0));

        FrozenSchedule {
            sched: self,
            succ_off,
            succ,
            indegree,
            roots,
            rows,
            validated: std::sync::OnceLock::new(),
        }
    }
}

impl FrozenSchedule {
    /// Number of ops.
    #[inline]
    pub fn n_ops(&self) -> usize {
        self.rows.len()
    }

    /// Number of dependency edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.succ.len()
    }

    /// Ops that depend on `op`, in the order the builder recorded them.
    #[inline]
    pub fn succs(&self, op: u32) -> &[u32] {
        let (a, b) = (self.succ_off[op as usize], self.succ_off[op as usize + 1]);
        &self.succ[a as usize..b as usize]
    }

    /// Dependencies of `op`: [`Schedule::deps`] by dense index.
    #[inline]
    pub fn preds(&self, op: u32) -> &[OpId] {
        self.sched.deps(OpId(op))
    }

    /// Dependency count of `op`.
    #[inline]
    pub fn indegree(&self, op: u32) -> u32 {
        self.indegree[op as usize]
    }

    /// All indegrees, indexed by op.
    #[inline]
    pub fn indegrees(&self) -> &[u32] {
        &self.indegree
    }

    /// Ops with no dependencies, in creation order.
    #[inline]
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// The dense per-op summary table.
    #[inline]
    pub fn rows(&self) -> &[OpRow] {
        &self.rows
    }

    /// Summary row of `op`.
    #[inline]
    pub fn row(&self, op: u32) -> &OpRow {
        &self.rows[op as usize]
    }

    /// [`crate::validate`] with a success memo: an immutable frozen
    /// schedule that validated cleanly for `rails` once stays valid, so
    /// repeated runs (the simulation campaign hot path, thousands of runs
    /// of one schedule) skip the O(ops) structural walk. Failures are
    /// never memoized, and a later call with a *different* rail count
    /// re-validates in full.
    pub fn validate_for(&self, rails: Option<u8>) -> Result<(), crate::ValidateError> {
        if self.validated.get() == Some(&rails) {
            return Ok(());
        }
        crate::validate(self, rails)?;
        let _ = self.validated.set(rails);
        Ok(())
    }

    /// The underlying schedule (also reachable through `Deref`).
    #[inline]
    pub fn schedule(&self) -> &Schedule {
        &self.sched
    }

    /// Unwraps the underlying schedule, discarding the compiled arrays.
    pub fn into_schedule(self) -> Schedule {
        self.sched
    }
}

impl Deref for FrozenSchedule {
    type Target = Schedule;

    #[inline]
    fn deref(&self) -> &Schedule {
        &self.sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Loc;
    use crate::builder::ScheduleBuilder;
    use crate::grid::ProcGrid;
    use crate::ids::{NodeId, RankId};

    fn diamond() -> FrozenSchedule {
        // 0 -> {1, 2} -> 3
        let grid = ProcGrid::single_node(2);
        let mut b = ScheduleBuilder::new(grid, "diamond");
        let p = b.private_buf(RankId(0), 64, "p");
        let q = b.private_buf(RankId(0), 64, "q");
        let shm = b.shared_buf(NodeId(0), 64, "shm");
        let a = b.copy(RankId(0), Loc::new(p, 0), Loc::new(q, 0), 64, &[], 0);
        let l = b.copy(RankId(0), Loc::new(q, 0), Loc::new(shm, 0), 64, &[a], 1);
        let r = b.compute(RankId(1), 100, &[a], 1);
        b.push(
            OpKind::Transfer {
                src_rank: RankId(0),
                dst_rank: RankId(1),
                src: Loc::new(q, 0),
                dst: Loc::new(q, 0),
                len: 64,
                channel: Channel::Cma,
            },
            &[l, r],
            2,
            None,
        );
        b.finish().freeze()
    }

    #[test]
    fn csr_matches_dependency_lists() {
        let fs = diamond();
        assert_eq!(fs.n_ops(), 4);
        assert_eq!(fs.n_edges(), 4);
        assert_eq!(fs.succs(0), &[1, 2]);
        assert_eq!(fs.succs(1), &[3]);
        assert_eq!(fs.succs(2), &[3]);
        assert_eq!(fs.succs(3), &[] as &[u32]);
        assert_eq!(fs.preds(3), &[OpId(1), OpId(2)]);
        assert!(fs.preds(0).is_empty());
        assert_eq!(fs.indegrees(), &[0, 1, 1, 2]);
        assert_eq!(fs.roots(), &[0]);
    }

    #[test]
    fn rows_classify_kind_bytes_step_and_lane() {
        let fs = diamond();
        assert_eq!(fs.row(0).class, OpClass::Copy);
        assert_eq!(fs.row(0).bytes, 64);
        assert_eq!(fs.row(0).step, Some(0));
        assert_eq!(fs.row(0).rank, 0);
        assert_eq!(fs.row(2).class, OpClass::Compute);
        assert_eq!(fs.row(2).bytes, 0);
        assert_eq!(fs.row(2).rank, 1);
        // CMA transfers run on the destination CPU's lane.
        assert_eq!(fs.row(3).class, OpClass::Cma);
        assert_eq!(fs.row(3).rank, 1);
        assert!(!fs.row(3).class.is_network());
        assert_eq!(fs.row(3).class.name(), "cma");
        assert!(OpClass::Rails.is_network());
    }

    #[test]
    fn deref_exposes_the_schedule() {
        let fs = diamond();
        assert_eq!(fs.ops().len(), 4);
        assert_eq!(fs.name(), "diamond");
        assert_eq!(fs.schedule().ops().len(), 4);
        assert_eq!(fs.clone().into_schedule().ops().len(), 4);
    }

    #[test]
    fn empty_schedule_freezes() {
        let fs = ScheduleBuilder::new(ProcGrid::single_node(1), "empty")
            .finish()
            .freeze();
        assert_eq!(fs.n_ops(), 0);
        assert_eq!(fs.n_edges(), 0);
        assert!(fs.roots().is_empty());
    }

    #[test]
    fn network_steps_have_network_rows() {
        let grid = ProcGrid::new(2, 1);
        let mut b = ScheduleBuilder::new(grid, "net");
        let s = b.private_buf(RankId(0), 32, "s");
        let d = b.private_buf(RankId(1), 32, "d");
        b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            32,
            Channel::AllRails,
            &[],
            0,
        );
        b.transfer(
            RankId(1),
            RankId(0),
            Loc::new(d, 0),
            Loc::new(s, 0),
            32,
            Channel::Rail(1),
            &[],
            0,
        );
        let fs = b.finish().freeze();
        assert_eq!(fs.row(0).class, OpClass::Rails);
        assert_eq!(fs.row(0).rank, 0); // posting (source) rank
        assert_eq!(fs.row(1).class, OpClass::Rail);
        assert_eq!(fs.row(1).rank, 1);
        assert!(fs.row(0).class.is_network());
    }
}
