//! Common build context for Allgather schedules.
//!
//! Every Allgather algorithm works against the same buffer layout: rank `r`
//! contributes `msg` bytes from its send buffer and must end with
//! `nranks * msg` bytes in its receive buffer — block `k` (at offset
//! `k * msg`) being rank `k`'s contribution (MPI_Allgather semantics).

use mha_sched::{
    BufId, Channel, FrozenSchedule, Loc, OpId, ProcGrid, RankCursors, RankId, ScheduleBuilder,
};

/// A finished collective schedule plus the handles verification needs.
#[derive(Debug, Clone)]
pub struct Built {
    /// The schedule itself.
    pub sched: FrozenSchedule,
    /// Per-rank send buffer (length = per-rank contribution).
    pub send: Vec<BufId>,
    /// Per-rank receive buffer (the collective's output).
    pub recv: Vec<BufId>,
    /// Per-rank contribution size in bytes (Allgather) or the vector length
    /// in bytes (Allreduce).
    pub msg: usize,
}

/// Mutable state threaded through an Allgather construction.
pub(crate) struct Ctx {
    pub b: ScheduleBuilder,
    pub cur: RankCursors,
    pub send: Vec<BufId>,
    pub recv: Vec<BufId>,
    pub msg: usize,
    /// When `false` (plain Allgather), rank `r`'s contribution lives in its
    /// send buffer and is ready at t = 0. When `true` (the Allgather phase
    /// of Ring-Allreduce), the contribution is block `r` of the *receive*
    /// buffer, produced by earlier ops — readiness is [`Ctx::ready_deps`].
    contrib_in_recv: bool,
    /// Per-rank op that produced the contribution (contrib-in-recv mode).
    ready: Vec<Option<OpId>>,
}

impl Ctx {
    /// Declares the standard Allgather buffers for `grid`. A `msg` of zero
    /// is legal (MPI_Allgather with count 0 is a no-op); builders must
    /// detect it via [`Ctx::is_degenerate`] and finish with
    /// [`Ctx::finish_degenerate`] instead of emitting zero-length transfers.
    pub fn new(grid: ProcGrid, msg: usize, name: impl Into<String>) -> Self {
        let mut b = ScheduleBuilder::new(grid, name);
        let nranks = grid.nranks();
        let send = grid
            .ranks()
            .map(|r| b.private_buf(r, msg, format!("send/{r}")))
            .collect();
        let recv = grid
            .ranks()
            .map(|r| b.private_buf(r, nranks as usize * msg, format!("recv/{r}")))
            .collect();
        Ctx {
            cur: RankCursors::new(&grid),
            b,
            send,
            recv,
            msg,
            contrib_in_recv: false,
            ready: vec![None; nranks as usize],
        }
    }

    /// Declares Allreduce buffers: per-rank send and recv of the full
    /// vector (`nranks * chunk` bytes each). Block `r` of the recv buffer is
    /// rank `r`'s reduce-scatter result, which becomes its Allgather
    /// contribution; callers mark readiness via [`Ctx::set_ready`] before
    /// emitting the Allgather phase.
    pub fn for_allreduce(grid: ProcGrid, chunk: usize, name: impl Into<String>) -> Self {
        let mut b = ScheduleBuilder::new(grid, name);
        let nranks = grid.nranks();
        let total = nranks as usize * chunk;
        let send = grid
            .ranks()
            .map(|r| b.private_buf(r, total, format!("send/{r}")))
            .collect();
        let recv = grid
            .ranks()
            .map(|r| b.private_buf(r, total, format!("recv/{r}")))
            .collect();
        Ctx {
            cur: RankCursors::new(&grid),
            b,
            send,
            recv,
            msg: chunk,
            contrib_in_recv: true,
            ready: vec![None; nranks as usize],
        }
    }

    /// Records that `op` completed `rank`'s contribution (contrib-in-recv
    /// mode only).
    pub fn set_ready(&mut self, rank: RankId, op: OpId) {
        self.ready[rank.index()] = Some(op);
    }

    /// Dependencies a transfer must honour before reading `rank`'s
    /// contribution "from the origin". Empty for plain Allgather (send
    /// buffers are ready at t = 0).
    pub fn ready_deps(&self, rank: RankId) -> &[OpId] {
        self.ready[rank.index()].as_slice()
    }

    /// The grid under construction.
    pub fn grid(&self) -> ProcGrid {
        *self.b.grid()
    }

    /// Location of block `block` inside `rank`'s receive buffer.
    pub fn recv_block(&self, rank: RankId, block: u32) -> Loc {
        Loc::new(self.recv[rank.index()], block as usize * self.msg)
    }

    /// Location of `rank`'s contribution: its send buffer for a plain
    /// Allgather, block `rank` of its receive buffer in contrib-in-recv
    /// (Allreduce phase-B) mode.
    pub fn send_loc(&self, rank: RankId) -> Loc {
        if self.contrib_in_recv {
            self.recv_block(rank, rank.0)
        } else {
            Loc::new(self.send[rank.index()], 0)
        }
    }

    /// The channel MPI point-to-point would use between two ranks: CMA when
    /// co-located, the multi-rail pt2pt layer otherwise.
    pub fn channel_between(&self, a: RankId, b: RankId) -> Channel {
        if self.b.grid().same_node(a, b) {
            Channel::Cma
        } else {
            Channel::AllRails
        }
    }

    /// Emits `rank`'s local copy of its own contribution into its receive
    /// buffer (the first thing every Allgather does), chained in the rank's
    /// program order. In contrib-in-recv mode the data is already in place,
    /// so a zero-cost synchronization marker is emitted instead (it carries
    /// the rank's program order into the Allgather phase).
    pub fn self_copy(&mut self, rank: RankId, step: u32) -> OpId {
        let deps = self.cur.deps_of(rank);
        let op = if self.contrib_in_recv {
            self.b.push(
                mha_sched::OpKind::Compute {
                    actor: rank,
                    flops: 0,
                },
                deps,
                step,
                Some("sync"),
            )
        } else {
            let src = self.send_loc(rank);
            let dst = self.recv_block(rank, rank.0);
            self.b.copy(rank, src, dst, self.msg, deps, step)
        };
        self.cur.advance(rank, op);
        op
    }

    /// Emits self-copies for every rank.
    pub fn self_copies_all(&mut self, step: u32) -> Vec<OpId> {
        self.grid()
            .ranks()
            .map(|r| self.self_copy(r, step))
            .collect()
    }

    /// Whether the collective moves zero bytes (`msg == 0`).
    pub fn is_degenerate(&self) -> bool {
        self.msg == 0
    }

    /// Emits the zero-byte collective body: one zero-flop marker per rank
    /// (structural validation rejects zero-length transfers and copies, so
    /// nothing else may be emitted). The result validates, executes, and
    /// trivially satisfies the Allgather postcondition.
    pub fn emit_degenerate(&mut self) {
        debug_assert!(self.is_degenerate());
        for r in self.grid().ranks() {
            let op = self.b.push(
                mha_sched::OpKind::Compute { actor: r, flops: 0 },
                self.cur.deps_of(r),
                0,
                Some("empty"),
            );
            self.cur.advance(r, op);
        }
    }

    /// [`Ctx::emit_degenerate`] + [`Ctx::finish`] in one call.
    pub fn finish_degenerate(mut self) -> Built {
        self.emit_degenerate();
        self.finish()
    }

    /// Finishes construction.
    pub fn finish(self) -> Built {
        Built {
            sched: self.b.finish().freeze(),
            send: self.send,
            recv: self.recv,
            msg: self.msg,
        }
    }
}

/// Errors a collective constructor can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The algorithm requires a power-of-two process/node count.
    RequiresPowerOfTwo {
        /// What must be a power of two (e.g. "ranks", "nodes").
        what: &'static str,
        /// The offending count.
        got: u32,
    },
    /// The algorithm requires the vector length to divide evenly.
    IndivisibleVector {
        /// Total elements.
        elems: usize,
        /// Required divisor.
        ranks: u32,
    },
    /// A parameter was out of range (e.g. more leader groups than ranks).
    BadParameter(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::RequiresPowerOfTwo { what, got } => {
                write!(f, "{what} must be a power of two, got {got}")
            }
            BuildError::IndivisibleVector { elems, ranks } => {
                write!(
                    f,
                    "vector of {elems} elements not divisible by {ranks} ranks"
                )
            }
            BuildError::BadParameter(msg) => write!(f, "bad parameter: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_declares_standard_buffers() {
        let grid = ProcGrid::new(2, 2);
        let ctx = Ctx::new(grid, 64, "t");
        let built = ctx.finish();
        assert_eq!(built.send.len(), 4);
        assert_eq!(built.recv.len(), 4);
        assert_eq!(built.sched.buffer(built.send[0]).len, 64);
        assert_eq!(built.sched.buffer(built.recv[3]).len, 256);
    }

    #[test]
    fn self_copy_targets_own_block() {
        let grid = ProcGrid::new(1, 3);
        let mut ctx = Ctx::new(grid, 10, "t");
        ctx.self_copies_all(0);
        let built = ctx.finish();
        assert_eq!(built.sched.ops().len(), 3);
        mha_sched::validate(&built.sched, None).unwrap();
        // Rank 2's self copy lands at offset 20.
        match &built.sched.ops()[2].kind {
            mha_sched::OpKind::Copy { dst, .. } => assert_eq!(dst.offset, 20),
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn channel_selection_follows_topology() {
        let grid = ProcGrid::new(2, 2);
        let ctx = Ctx::new(grid, 8, "t");
        assert_eq!(ctx.channel_between(RankId(0), RankId(1)), Channel::Cma);
        assert_eq!(ctx.channel_between(RankId(1), RankId(2)), Channel::AllRails);
    }

    #[test]
    fn zero_message_builds_a_degenerate_schedule() {
        let grid = ProcGrid::new(2, 2);
        let ctx = Ctx::new(grid, 0, "t");
        assert!(ctx.is_degenerate());
        let built = ctx.finish_degenerate();
        assert_eq!(built.msg, 0);
        assert_eq!(built.sched.ops().len(), 4);
        mha_sched::validate(&built.sched, None).unwrap();
        for op in built.sched.ops() {
            assert!(matches!(
                op.kind,
                mha_sched::OpKind::Compute { flops: 0, .. }
            ));
        }
    }
}
