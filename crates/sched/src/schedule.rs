//! The schedule container: a validated DAG of operations over declared
//! buffers, produced by an algorithm in `mha-collectives` and consumed by
//! both the simulator (`mha-simnet`) and the executors (`mha-exec`).

use crate::buffer::BufferDecl;
use crate::edges::Edges;
use crate::grid::ProcGrid;
use crate::ids::{BufId, OpId};
use crate::op::{Channel, Op, OpKind};

/// Aggregate statistics of a schedule, used by tests to assert algorithmic
/// properties (step counts, traffic volume per channel) without executing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Total operations.
    pub ops: usize,
    /// Bytes moved over CMA transfers.
    pub cma_bytes: u64,
    /// Bytes moved over rail transfers (specific rail or striped).
    pub rail_bytes: u64,
    /// Bytes moved by CPU copies.
    pub copy_bytes: u64,
    /// Bytes combined by reductions.
    pub reduce_bytes: u64,
    /// Number of transfer ops on rails.
    pub rail_transfers: usize,
    /// Number of CMA transfer ops.
    pub cma_transfers: usize,
    /// Number of copy ops.
    pub copies: usize,
    /// Highest assigned step number plus one (0 if no steps assigned).
    pub steps: u32,
    /// Length (in ops) of the longest dependency chain.
    pub critical_path: usize,
}

/// A complete schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    grid: ProcGrid,
    buffers: Vec<BufferDecl>,
    ops: Vec<Op>,
    /// The dependency edges, stored once: as each op's dependency list
    /// until [`Schedule::freeze`], as successor lists after (see
    /// [`crate::edges`]).
    pub(crate) edges: Edges,
    /// Human-readable name of the algorithm that produced this schedule.
    name: String,
    /// Per-op release delays in seconds (empty ⇒ all zero): op `i` may not
    /// start before `ready(i) + alpha(i) + release[i]`. The multi-tenant
    /// traffic layer uses this to model job arrival times (on the roots of
    /// an open-loop job) and client think times (on the roots of a chained
    /// closed-loop job). Virtual-time only — the real executors ignore it.
    release: Vec<f64>,
}

impl Schedule {
    /// Assembles a schedule. Called by the builder; users go through
    /// [`crate::builder::ScheduleBuilder`].
    pub(crate) fn from_parts(
        grid: ProcGrid,
        buffers: Vec<BufferDecl>,
        ops: Vec<Op>,
        edges: Edges,
        name: String,
        release: Vec<f64>,
    ) -> Self {
        debug_assert!(release.is_empty() || release.len() == ops.len());
        debug_assert!(match &edges {
            Edges::Deps(deps) => deps.rows() == ops.len(),
            Edges::Succs { succs, .. } => succs.rows() == ops.len(),
        });
        Schedule {
            grid,
            buffers,
            ops,
            edges,
            name,
            release,
        }
    }

    /// The operations `id` depends on, ascending and without duplicates.
    ///
    /// A frozen schedule stores successor lists only; its first call here
    /// derives every op's dependency list from them (O(ops + edges), 4 B
    /// per op and per edge) and keeps it for later calls.
    #[inline]
    pub fn deps(&self, id: OpId) -> &[OpId] {
        self.edges.deps().row(id.index())
    }

    /// The flat dependency list: offsets (one per op, plus a final end)
    /// and the concatenated per-op lists they index. Derived on a frozen
    /// schedule, as for [`Schedule::deps`].
    #[inline]
    pub(crate) fn dep_lists(&self) -> (&[u32], &[OpId]) {
        let deps = self.edges.deps();
        (&deps.off, &deps.adj)
    }

    /// Whether the per-op dependency lists are in memory: always for a
    /// built or merged schedule, and for a frozen one (or one unwrapped
    /// from it) only after a reader asked for them (see
    /// [`Schedule::deps`]).
    pub fn holds_dep_lists(&self) -> bool {
        self.edges.holds_deps()
    }

    /// The release delay of `id` in seconds — `0.0` unless a delay was set
    /// through [`crate::builder::ScheduleBuilder::set_release`].
    #[inline]
    pub fn release_of(&self, id: OpId) -> f64 {
        self.release.get(id.index()).copied().unwrap_or(0.0)
    }

    /// Whether any op carries a non-zero release delay.
    #[inline]
    pub fn has_releases(&self) -> bool {
        !self.release.is_empty()
    }

    /// The process layout this schedule was built for.
    #[inline]
    pub fn grid(&self) -> &ProcGrid {
        &self.grid
    }

    /// Algorithm name (e.g. `"mha-inter-ring"`).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All buffer declarations, indexed by [`BufId`].
    #[inline]
    pub fn buffers(&self) -> &[BufferDecl] {
        &self.buffers
    }

    /// All operations in creation (= topological) order.
    #[inline]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Looks up a buffer declaration.
    #[inline]
    pub fn buffer(&self, id: BufId) -> &BufferDecl {
        &self.buffers[id.index()]
    }

    /// Looks up an operation.
    #[inline]
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.index()]
    }

    /// Computes aggregate statistics in one pass.
    pub fn stats(&self) -> ScheduleStats {
        let mut s = ScheduleStats {
            ops: self.ops.len(),
            ..Default::default()
        };
        // depth[i] = longest chain ending at op i (ops are topologically
        // ordered because deps always point backwards).
        let mut depth = vec![0usize; self.ops.len()];
        for (i, op) in self.ops.iter().enumerate() {
            let d = self
                .deps(OpId::from(i))
                .iter()
                .map(|p| depth[p.index()])
                .max()
                .unwrap_or(0)
                + 1;
            depth[i] = d;
            s.critical_path = s.critical_path.max(d);
            if op.has_step() {
                s.steps = s.steps.max(op.step + 1);
            }
            match &op.kind {
                OpKind::Transfer { len, channel, .. } => match channel {
                    Channel::Cma => {
                        s.cma_bytes += u64::from(*len);
                        s.cma_transfers += 1;
                    }
                    Channel::Rail(_) | Channel::AllRails => {
                        s.rail_bytes += u64::from(*len);
                        s.rail_transfers += 1;
                    }
                },
                OpKind::Copy { len, .. } => {
                    s.copy_bytes += u64::from(*len);
                    s.copies += 1;
                }
                OpKind::Reduce { len, .. } => s.reduce_bytes += u64::from(*len),
                OpKind::Compute { .. } => {}
            }
        }
        s
    }

    /// Total bytes a correctness-checking executor will move (all channels).
    pub fn total_bytes(&self) -> u64 {
        let s = self.stats();
        s.cma_bytes + s.rail_bytes + s.copy_bytes + s.reduce_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Loc;
    use crate::builder::ScheduleBuilder;
    use crate::ids::{NodeId, RankId};

    fn tiny() -> Schedule {
        let grid = ProcGrid::new(2, 2);
        let mut b = ScheduleBuilder::new(grid, "tiny");
        let s0 = b.private_buf(RankId(0), 16, "send0");
        let r1 = b.private_buf(RankId(1), 16, "recv1");
        let shm = b.shared_buf(NodeId(0), 32, "shm0");
        let t = b.push(
            OpKind::Transfer {
                src_rank: RankId(0),
                dst_rank: RankId(1),
                src: Loc::new(s0, 0),
                dst: Loc::new(r1, 0),
                len: 16,
                channel: Channel::Cma,
            },
            &[],
            0,
            None,
        );
        b.push(
            OpKind::Copy {
                actor: RankId(1),
                src: Loc::new(r1, 0),
                dst: Loc::new(shm, 0),
                len: 16,
            },
            &[t],
            1,
            None,
        );
        b.finish()
    }

    #[test]
    fn stats_counts_bytes_by_channel() {
        let s = tiny().stats();
        assert_eq!(s.ops, 2);
        assert_eq!(s.cma_bytes, 16);
        assert_eq!(s.copy_bytes, 16);
        assert_eq!(s.rail_bytes, 0);
        assert_eq!(s.cma_transfers, 1);
        assert_eq!(s.copies, 1);
        assert_eq!(s.steps, 2);
        assert_eq!(s.critical_path, 2);
    }

    #[test]
    fn freeze_inverts_deps() {
        // Adjacency queries moved to the frozen IR; freezing keeps the
        // schedule reachable through Deref.
        let fs = tiny().freeze();
        assert_eq!(fs.succs(0), &[1]);
        assert!(fs.succs(1).is_empty());
        assert_eq!(fs.indegrees(), [0, 1]);
        assert_eq!(fs.ops().len(), 2);
    }

    #[test]
    fn total_bytes_sums_channels() {
        assert_eq!(tiny().total_bytes(), 32);
    }

    #[test]
    fn unassigned_steps_do_not_count() {
        let grid = ProcGrid::single_node(1);
        let mut b = ScheduleBuilder::new(grid, "t");
        b.push(
            OpKind::Compute {
                actor: RankId(0),
                flops: 1,
            },
            &[],
            u32::MAX, // unassigned
            None,
        );
        let stats = b.finish().stats();
        assert_eq!(stats.steps, 0);
        assert_eq!(stats.critical_path, 1);
    }

    #[test]
    fn critical_path_tracks_longest_chain_not_op_count() {
        let grid = ProcGrid::single_node(2);
        let mut b = ScheduleBuilder::new(grid, "t");
        // Two independent chains of depth 3 and 2.
        let mut prev = None;
        for i in 0..3u32 {
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(b.compute(RankId(0), 1, &deps, i));
        }
        let a = b.compute(RankId(1), 1, &[], 0);
        b.compute(RankId(1), 1, &[a], 1);
        let stats = b.finish().stats();
        assert_eq!(stats.ops, 5);
        assert_eq!(stats.critical_path, 3);
    }
}
