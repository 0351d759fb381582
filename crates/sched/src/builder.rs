//! Fluent construction of schedules.
//!
//! The builder enforces the one structural invariant that makes everything
//! downstream simple: **dependencies always point backwards** (an op may only
//! depend on ops created before it), so creation order is a topological order
//! and the DAG is acyclic by construction.

use crate::buffer::{BufKind, BufferDecl, Loc};
use crate::grid::ProcGrid;
use crate::ids::{BufId, NodeId, OpId, RankId};
use crate::op::{Channel, DType, Op, OpKind, RedOp};
use crate::schedule::Schedule;

/// Builds a [`Schedule`] incrementally.
pub struct ScheduleBuilder {
    grid: ProcGrid,
    buffers: Vec<BufferDecl>,
    ops: Vec<Op>,
    /// Flat dependency list: see [`Schedule::deps`].
    dep_off: Vec<u32>,
    deps: Vec<OpId>,
    name: String,
    release: Vec<f64>,
}

impl ScheduleBuilder {
    /// Starts a schedule for `grid`, labelled `name`.
    pub fn new(grid: ProcGrid, name: impl Into<String>) -> Self {
        ScheduleBuilder {
            grid,
            buffers: Vec::new(),
            ops: Vec::new(),
            dep_off: vec![0],
            deps: Vec::new(),
            name: name.into(),
            release: Vec::new(),
        }
    }

    /// Sets the release delay of `op`: it may not start before
    /// `ready + alpha + secs` of simulated time. The traffic layer models
    /// job arrival times and client think times with this; plain collective
    /// schedules never set it. Virtual-time only — the real executors
    /// run ops as soon as their dependencies complete.
    ///
    /// # Panics
    ///
    /// Panics if `op` was not created yet or `secs` is negative or
    /// non-finite.
    pub fn set_release(&mut self, op: OpId, secs: f64) {
        assert!(op.index() < self.ops.len(), "release for unknown op {op}");
        assert!(
            secs.is_finite() && secs >= 0.0,
            "release delay must be finite and non-negative, got {secs}"
        );
        if secs == 0.0 && self.release.is_empty() {
            return; // stay on the release-free fast path
        }
        if self.release.is_empty() {
            self.release.resize(self.ops.len(), 0.0);
        }
        self.release[op.index()] = secs;
    }

    /// The grid being scheduled against.
    #[inline]
    pub fn grid(&self) -> &ProcGrid {
        &self.grid
    }

    /// Number of ops created so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no ops were created yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Declares a buffer private to `rank`.
    pub fn private_buf(&mut self, rank: RankId, len: usize, label: impl Into<String>) -> BufId {
        assert!(
            rank.0 < self.grid.nranks(),
            "buffer owner {rank} outside grid"
        );
        self.decl(BufKind::Private(rank), len, None, label)
    }

    /// Declares a node-shared (shm) buffer on `node` with interleaved
    /// (NUMA-agnostic) placement.
    pub fn shared_buf(&mut self, node: NodeId, len: usize, label: impl Into<String>) -> BufId {
        assert!(
            node.0 < self.grid.nodes(),
            "buffer node {node} outside grid"
        );
        self.decl(BufKind::NodeShared(node), len, None, label)
    }

    /// Declares a node-shared buffer whose pages live on `socket`'s memory
    /// (first-touch placement by a rank of that socket). On NUMA clusters,
    /// ranks of other sockets pay the cross-socket interconnect to copy
    /// into or out of it.
    pub fn shared_buf_homed(
        &mut self,
        node: NodeId,
        socket: u32,
        len: usize,
        label: impl Into<String>,
    ) -> BufId {
        assert!(
            node.0 < self.grid.nodes(),
            "buffer node {node} outside grid"
        );
        self.decl(BufKind::NodeShared(node), len, Some(socket), label)
    }

    fn decl(
        &mut self,
        kind: BufKind,
        len: usize,
        home_socket: Option<u32>,
        label: impl Into<String>,
    ) -> BufId {
        let id = BufId::from(self.buffers.len());
        self.buffers.push(BufferDecl {
            id,
            kind,
            len,
            home_socket,
            label: label.into(),
        });
        id
    }

    /// Adds an op with explicit dependencies and step tag. `marker` names
    /// the op in traces in place of the label derived from its kind (the
    /// zero-flop `sync` markers, for instance); `None` keeps the derived
    /// label. Duplicate dependencies are dropped and the rest sorted.
    ///
    /// # Panics
    ///
    /// Panics if a dependency refers to an op not yet created (this is what
    /// keeps the graph acyclic).
    pub fn push(
        &mut self,
        kind: OpKind,
        deps: &[OpId],
        step: u32,
        marker: Option<&'static str>,
    ) -> OpId {
        let id = OpId::from(self.ops.len());
        for &d in deps {
            assert!(
                d < id,
                "op {id} depends on {d}, which does not exist yet (forward deps are forbidden)"
            );
        }
        // Sort and dedup in place at the tail of the flat list.
        let start = self.deps.len();
        self.deps.extend_from_slice(deps);
        let tail = &mut self.deps[start..];
        tail.sort_unstable();
        let mut kept = 0;
        for i in 0..tail.len() {
            if kept == 0 || tail[i] != tail[kept - 1] {
                tail[kept] = tail[i];
                kept += 1;
            }
        }
        self.deps.truncate(start + kept);
        self.dep_off
            .push(u32::try_from(self.deps.len()).expect("dependency count overflows u32"));
        self.ops.push(Op {
            id,
            kind,
            step,
            marker,
        });
        id
    }

    /// Convenience: a transfer op.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer(
        &mut self,
        src_rank: RankId,
        dst_rank: RankId,
        src: Loc,
        dst: Loc,
        len: usize,
        channel: Channel,
        deps: &[OpId],
        step: u32,
    ) -> OpId {
        self.push(
            OpKind::Transfer {
                src_rank,
                dst_rank,
                src,
                dst,
                len,
                channel,
            },
            deps,
            step,
            None,
        )
    }

    /// Convenience: a CPU copy op.
    pub fn copy(
        &mut self,
        actor: RankId,
        src: Loc,
        dst: Loc,
        len: usize,
        deps: &[OpId],
        step: u32,
    ) -> OpId {
        self.push(
            OpKind::Copy {
                actor,
                src,
                dst,
                len,
            },
            deps,
            step,
            None,
        )
    }

    /// Convenience: an elementwise reduction op.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        &mut self,
        actor: RankId,
        acc: Loc,
        operand: Loc,
        len: usize,
        dtype: DType,
        op: RedOp,
        deps: &[OpId],
        step: u32,
    ) -> OpId {
        assert!(
            len.is_multiple_of(dtype.size()),
            "reduce length {len} not a multiple of element size {}",
            dtype.size()
        );
        self.push(
            OpKind::Reduce {
                actor,
                acc,
                operand,
                len,
                dtype,
                op,
            },
            deps,
            step,
            None,
        )
    }

    /// Convenience: a pure-compute op.
    pub fn compute(&mut self, actor: RankId, flops: u64, deps: &[OpId], step: u32) -> OpId {
        self.push(OpKind::Compute { actor, flops }, deps, step, None)
    }

    /// Finalizes the schedule.
    pub fn finish(mut self) -> Schedule {
        // `set_release` may have run before trailing ops were pushed.
        if !self.release.is_empty() {
            self.release.resize(self.ops.len(), 0.0);
        }
        Schedule::from_parts(
            self.grid,
            self.buffers,
            self.ops,
            self.dep_off,
            self.deps,
            self.name,
            self.release,
        )
    }
}

/// Tracks the last op issued by each rank so algorithms can express MPI-style
/// program order ("this rank's next call starts after its previous one")
/// without threading `OpId`s by hand.
///
/// This mirrors how a blocking MPI algorithm serializes each rank's calls
/// while leaving cross-rank ordering to explicit dependencies.
pub struct RankCursors {
    last: Vec<Option<OpId>>,
}

impl RankCursors {
    /// Cursors for every rank of `grid`, all initially unset.
    pub fn new(grid: &ProcGrid) -> Self {
        RankCursors {
            last: vec![None; grid.nranks() as usize],
        }
    }

    /// The rank's previous op, if any, as a dependency list.
    pub fn deps_of(&self, rank: RankId) -> &[OpId] {
        self.last[rank.index()].as_slice()
    }

    /// Dependencies = the rank's previous op plus `extra`.
    pub fn deps_with(&self, rank: RankId, extra: &[OpId]) -> DepList {
        let mut d = DepList::from(self.deps_of(rank));
        d.extend_from_slice(extra);
        d
    }

    /// Records `op` as the rank's latest.
    pub fn advance(&mut self, rank: RankId, op: OpId) {
        self.last[rank.index()] = Some(op);
    }

    /// The rank's latest op.
    pub fn last(&self, rank: RankId) -> Option<OpId> {
        self.last[rank.index()]
    }
}

/// A short dependency list assembled without the heap: up to
/// [`DepList::INLINE`] ids are stored inline and only a longer list spills
/// into a `Vec`. Emitters gather an op's dependencies from several sources
/// (data arrival, both ranks' program order) in one of these, so building a
/// schedule makes no heap allocation per op. Derefs to `[OpId]`.
#[derive(Debug, Clone)]
pub struct DepList {
    len: usize,
    inline: [OpId; DepList::INLINE],
    spill: Vec<OpId>,
}

impl DepList {
    /// Ids held without a heap allocation.
    pub const INLINE: usize = 4;

    /// An empty list.
    pub fn new() -> Self {
        DepList {
            len: 0,
            inline: [OpId(0); DepList::INLINE],
            spill: Vec::new(),
        }
    }

    /// Appends `id`.
    pub fn push(&mut self, id: OpId) {
        if self.len < Self::INLINE {
            self.inline[self.len] = id;
        } else {
            if self.len == Self::INLINE {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(id);
        }
        self.len += 1;
    }

    /// Appends every id of `ids`.
    pub fn extend_from_slice(&mut self, ids: &[OpId]) {
        for &id in ids {
            self.push(id);
        }
    }
}

impl Default for DepList {
    fn default() -> Self {
        Self::new()
    }
}

impl From<&[OpId]> for DepList {
    fn from(ids: &[OpId]) -> Self {
        let mut d = DepList::new();
        d.extend_from_slice(ids);
        d
    }
}

impl std::ops::Deref for DepList {
    type Target = [OpId];

    fn deref(&self) -> &[OpId] {
        if self.len <= Self::INLINE {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deps_are_deduped_and_sorted() {
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(2), "t");
        let a = b.compute(RankId(0), 1, &[], 0);
        let c = b.compute(RankId(0), 1, &[], 0);
        let d = b.compute(RankId(1), 1, &[c, a, c], 1);
        let sch = b.finish();
        assert_eq!(sch.deps(d), &[a, c]);
    }

    #[test]
    #[should_panic(expected = "forward deps are forbidden")]
    fn forward_dependency_rejected() {
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(1), "t");
        b.compute(RankId(0), 1, &[OpId(5)], 0);
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn buffer_for_foreign_rank_rejected() {
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(2), "t");
        b.private_buf(RankId(7), 8, "x");
    }

    #[test]
    #[should_panic(expected = "not a multiple of element size")]
    fn misaligned_reduce_rejected() {
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(1), "t");
        let buf = b.private_buf(RankId(0), 16, "x");
        b.reduce(
            RankId(0),
            Loc::new(buf, 0),
            Loc::new(buf, 8),
            6,
            DType::F32,
            RedOp::Sum,
            &[],
            0,
        );
    }

    #[test]
    fn cursors_express_program_order() {
        let grid = ProcGrid::single_node(2);
        let mut b = ScheduleBuilder::new(grid, "t");
        let mut cur = RankCursors::new(&grid);
        assert!(cur.deps_of(RankId(0)).is_empty());
        let a = b.compute(RankId(0), 1, cur.deps_of(RankId(0)), 0);
        cur.advance(RankId(0), a);
        assert_eq!(cur.deps_of(RankId(0)), &[a]);
        assert_eq!(cur.last(RankId(1)), None);
        let mixed = cur.deps_with(RankId(0), &[a]);
        assert_eq!(&*mixed, &[a, a]); // push() dedups later
        let c = b.compute(RankId(0), 1, &mixed, 1);
        assert_eq!(b.finish().deps(c), &[a]);
    }

    #[test]
    fn dep_list_spills_past_its_inline_capacity() {
        let ids: Vec<OpId> = (0..9u32).map(OpId).collect();
        for n in 0..ids.len() {
            let d = DepList::from(&ids[..n]);
            assert_eq!(&*d, &ids[..n]);
        }
    }

    #[test]
    fn builder_len_tracks_ops() {
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(1), "t");
        assert!(b.is_empty());
        b.compute(RankId(0), 1, &[], 0);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}
