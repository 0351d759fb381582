//! The frozen schedule IR: an immutable, cache-friendly compilation of a
//! [`Schedule`] that both execution backends consume.
//!
//! A [`Schedule`] is convenient to *build*: the builder appends each op's
//! dependency list. An interpreter wants the opposite direction, the ops
//! a completion releases. [`Schedule::freeze`] transposes the edges once
//! into flat CSR (compressed sparse row) arrays and keeps only those:
//!
//! * `succ_off`/`succ`: for op `i`, the ops depending on it are
//!   `succ[succ_off[i]..succ_off[i+1]]`, in creation order (so event
//!   ordering, and therefore simulated timing, is that of the builder's
//!   edge order);
//! * `roots`: the ops with no dependencies, where every readiness driver
//!   starts (see [`crate::runtime`]).
//!
//! The builder's dependency lists are dropped, so every edge is stored
//! once: a flat Ring keeps 52 B per op, the 40 B op plus about 8 B of
//! successors and their 4 B offset. Indegrees are one counting pass over
//! the successors, made when a readiness driver is seeded. The
//! predecessor view ([`FrozenSchedule::preds`], [`Schedule::deps`]) is
//! derived from the successors on first use and kept; the build →
//! freeze → validate → simulate path never asks for it. No topological
//! order is stored either: the builder only accepts backward
//! dependencies, so op ids `0..n_ops()` already are one.
//!
//! [`FrozenSchedule::into_schedule`] keeps the successor form, so
//! freezing the unwrapped schedule again is free.
//!
//! Probes and trace sinks classify ops through [`FrozenSchedule::row`], a
//! per-op summary ([`OpRow`]: kind class, bytes, step, lane rank) derived
//! from the op on demand rather than stored: it is read once per run, so a
//! table of it would cost 24 bytes per op for nothing.
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

/// Per-op summary row, derived from the op by [`FrozenSchedule::row`].
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

/// An immutable, execution-ready schedule: the original [`Schedule`] with
/// its edges as CSR successor lists, plus its roots. Op ids `0..n_ops()`
/// are a topological order.
///
/// Produced by [`Schedule::freeze`]; consumed by `mha-simnet`'s engine and
/// `mha-exec`'s executors via the readiness drivers in [`crate::runtime`].
#[derive(Debug, Clone)]
pub struct FrozenSchedule {
    /// Invariant: `sched.edges` is in the successor form.
    sched: Schedule,
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
    /// Compiles the schedule into its frozen execution form: O(ops + edges)
    /// with a fixed number of allocations whatever the op count, and O(1)
    /// for a schedule unwrapped by [`FrozenSchedule::into_schedule`].
    pub fn freeze(mut self) -> FrozenSchedule {
        self.edges.freeze();
        FrozenSchedule {
            sched: self,
            validated: std::sync::OnceLock::new(),
        }
    }
}

impl FrozenSchedule {
    /// Number of ops.
    #[inline]
    pub fn n_ops(&self) -> usize {
        self.sched.ops().len()
    }

    /// Number of dependency edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.sched.edges.len()
    }

    /// Ops that depend on `op`, in the order the builder recorded them.
    #[inline]
    pub fn succs(&self, op: u32) -> &[u32] {
        self.sched.edges.frozen().0.row(op as usize)
    }

    /// Dependencies of `op`: [`Schedule::deps`] by dense index, derived
    /// from the successor lists on the first call.
    #[inline]
    pub fn preds(&self, op: u32) -> &[OpId] {
        self.sched.deps(OpId(op))
    }

    /// Dependency count of `op`: the length of [`FrozenSchedule::preds`].
    #[inline]
    pub fn indegree(&self, op: u32) -> u32 {
        u32::try_from(self.preds(op).len()).expect("dependency counts fit u32")
    }

    /// Every op's dependency count, in op order: one counting pass over
    /// the successor lists.
    pub fn indegrees(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.count_indegrees(&mut out);
        out
    }

    /// Overwrites `out` with [`FrozenSchedule::indegrees`], reusing its
    /// allocation.
    pub(crate) fn count_indegrees(&self, out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.n_ops(), 0);
        for &s in &self.sched.edges.frozen().0.adj {
            out[s as usize] += 1;
        }
    }

    /// Ops with no dependencies, in creation order.
    #[inline]
    pub fn roots(&self) -> &[u32] {
        self.sched.edges.frozen().1
    }

    /// Every op's summary row, in op order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = OpRow> + '_ {
        self.sched.ops().iter().map(|op| row_of(&op.kind, op.step))
    }

    /// Summary row of `op`.
    #[inline]
    pub fn row(&self, op: u32) -> OpRow {
        let op = &self.sched.ops()[op as usize];
        row_of(&op.kind, op.step)
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

    /// Unwraps the underlying schedule. It keeps its successor lists and
    /// roots, so [`Schedule::freeze`] on it again is O(1).
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
        assert_eq!(fs.indegrees(), [0, 1, 1, 2]);
        assert_eq!(fs.indegree(3), 2);
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
