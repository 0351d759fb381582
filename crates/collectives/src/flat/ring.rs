//! Flat Ring Allgather.
//!
//! In step `s`, rank `r` sends the block it received in step `s−1` to its
//! right neighbor and receives from its left neighbor; `N − 1` steps total
//! (Section 2.2). With multiple processes per node, some hops are intra-node
//! — the bottleneck the paper's Figure 2 visualizes.

use mha_sched::{ProcGrid, RankId};

use crate::ctx::{Built, Ctx};

/// Builds a flat Ring Allgather for `grid` with per-rank contribution `msg`.
pub fn build_ring(grid: ProcGrid, msg: usize) -> Built {
    let mut ctx = Ctx::new(grid, msg, "flat-ring");
    if ctx.is_degenerate() {
        return ctx.finish_degenerate();
    }
    emit_ring(&mut ctx);
    ctx.finish()
}

/// Emits the ring exchange into an existing context (also used as the
/// Allgather phase of baseline Ring-Allreduce).
pub(crate) fn emit_ring(ctx: &mut Ctx) {
    let grid = ctx.grid();
    let r = grid.nranks();
    let msg = ctx.msg;
    let self_copies = ctx.self_copies_all(0);
    if r == 1 {
        return;
    }

    // r − 1 steps of r transfers. Each waits on the sender's and the
    // receiver's previous op, so the r² ops of the ring need at most two
    // edges each; that bound overshoots by the r self copies' 2r. The
    // overshoot is kept on purpose: the list freezing frees is then as
    // large as a run's 8 B-per-op end-time table, which takes its place
    // instead of growing the heap (by 8 MiB at 1024 nodes).
    let transfers = r as usize * (r as usize - 1);
    ctx.b.reserve(transfers, 2 * (transfers + r as usize));

    // arrival[rank] = op that delivered the most recent block to `rank`.
    let mut arrival: Vec<mha_sched::OpId> = self_copies;
    for s in 0..r - 1 {
        let mut next_arrival = arrival.clone();
        for dst in 0..r {
            let src = (dst + r - 1) % r;
            // Block travelling to `dst` this step originated at src − s.
            let block = (src + r - s) % r;
            let (src_r, dst_r) = (RankId(src), RankId(dst));
            let ch = ctx.channel_between(src_r, dst_r);
            // Data availability at the sender plus both ranks' step loop
            // (MPI sendrecv blocks sender and receiver alike).
            let mut deps = ctx.cur.deps_with(dst_r, ctx.cur.deps_of(src_r));
            deps.push(arrival[src as usize]);
            let t = ctx.b.transfer(
                src_r,
                dst_r,
                ctx.recv_block(src_r, block),
                ctx.recv_block(dst_r, block),
                msg,
                ch,
                &deps,
                s + 1,
            );
            next_arrival[dst as usize] = t;
        }
        // Advance every rank's cursor to its receive of this step.
        for dst in 0..r {
            ctx.cur.advance(RankId(dst), next_arrival[dst as usize]);
        }
        arrival = next_arrival;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::testutil::assert_allgather_correct;

    #[test]
    fn ring_is_correct_across_layouts() {
        for (nodes, ppn) in [(1, 2), (1, 5), (2, 2), (3, 4), (4, 1), (2, 16)] {
            let built = build_ring(ProcGrid::new(nodes, ppn), 24);
            assert_allgather_correct(&built);
        }
    }

    #[test]
    fn ring_takes_n_minus_one_steps() {
        let built = build_ring(ProcGrid::new(2, 3), 8);
        let stats = built.sched.stats();
        assert_eq!(stats.steps, 6); // step 0 self-copy + 5 transfer steps
                                    // 6 ranks × 5 steps transfers + 6 self copies.
        assert_eq!(stats.ops, 6 * 5 + 6);
    }

    #[test]
    fn ring_single_rank_is_just_self_copy() {
        let built = build_ring(ProcGrid::new(1, 1), 8);
        assert_eq!(built.sched.ops().len(), 1);
        assert_allgather_correct(&built);
    }

    #[test]
    fn ring_uses_cma_within_node_and_rails_across() {
        let built = build_ring(ProcGrid::new(2, 2), 8);
        let stats = built.sched.stats();
        // 4 ranks × 3 steps = 12 transfers; each step has 2 intra hops
        // (0→1, 2→3) and 2 inter hops (1→2, 3→0).
        assert_eq!(stats.cma_transfers, 6);
        assert_eq!(stats.rail_transfers, 6);
    }

    #[test]
    fn ring_critical_path_scales_with_ranks() {
        let small = build_ring(ProcGrid::new(1, 4), 8)
            .sched
            .stats()
            .critical_path;
        let large = build_ring(ProcGrid::new(1, 8), 8)
            .sched
            .stats()
            .critical_path;
        assert!(large > small);
    }
}
