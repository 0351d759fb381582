//! Flat Direct-Spread (dissemination) Allgather.
//!
//! In step `i`, rank `r` receives rank `(r − i) mod N`'s block *directly
//! from its origin* rather than relayed through neighbors (Section 2.2,
//! Figure 4a). No data dependencies between ranks — each rank's steps chain
//! only on its own program order — which is exactly what makes it the base
//! of the MHA-intra design: the pending transfers are independent and can be
//! handed to idle HCAs.

use mha_sched::{ProcGrid, RankId};

use crate::ctx::{Built, Ctx};

/// Builds a flat Direct-Spread Allgather.
pub fn build_direct_spread(grid: ProcGrid, msg: usize) -> Built {
    let mut ctx = Ctx::new(grid, msg, "flat-direct-spread");
    if ctx.is_degenerate() {
        return ctx.finish_degenerate();
    }
    emit_direct_spread(&mut ctx);
    ctx.finish()
}

/// Emits the dissemination exchange into an existing non-degenerate context.
pub(crate) fn emit_direct_spread(ctx: &mut Ctx) {
    let r = ctx.grid().nranks();
    let msg = ctx.msg;
    ctx.self_copies_all(0);
    for i in 1..r {
        for dst in 0..r {
            let src = (dst + r - i) % r;
            let (src_r, dst_r) = (RankId(src), RankId(dst));
            let ch = ctx.channel_between(src_r, dst_r);
            // Blocks come straight from the origin's contribution (ready at
            // t = 0 for a plain Allgather): order on the receiver's own
            // step loop, plus the origin's readiness in Allreduce phase B.
            let deps = ctx.cur.deps_with(dst_r, ctx.ready_deps(src_r));
            let t = ctx.b.transfer(
                src_r,
                dst_r,
                ctx.send_loc(src_r),
                ctx.recv_block(dst_r, src),
                msg,
                ch,
                &deps,
                i,
            );
            ctx.cur.advance(dst_r, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::testutil::assert_allgather_correct;

    #[test]
    fn direct_spread_is_correct_across_layouts() {
        for (nodes, ppn) in [(1, 2), (1, 7), (2, 3), (4, 2), (3, 1)] {
            let built = build_direct_spread(ProcGrid::new(nodes, ppn), 16);
            assert_allgather_correct(&built);
        }
    }

    #[test]
    fn direct_spread_takes_n_minus_one_steps() {
        let built = build_direct_spread(ProcGrid::new(1, 4), 8);
        assert_eq!(built.sched.stats().steps, 4); // self-copy + 3 steps
        assert_eq!(built.sched.stats().ops, 4 + 4 * 3);
    }

    #[test]
    fn no_cross_rank_dependencies() {
        // Every transfer's deps belong to the same receiving rank.
        let built = build_direct_spread(ProcGrid::new(1, 5), 8);
        for (i, op) in built.sched.ops().iter().enumerate() {
            if let mha_sched::OpKind::Transfer { dst_rank, .. } = &op.kind {
                for &d in built.sched.deps(mha_sched::OpId::from(i)) {
                    let dep = built.sched.op(d);
                    let actor = match &dep.kind {
                        mha_sched::OpKind::Transfer { dst_rank, .. } => *dst_rank,
                        mha_sched::OpKind::Copy { actor, .. } => *actor,
                        other => panic!("unexpected dep {other:?}"),
                    };
                    assert_eq!(actor, *dst_rank);
                }
            }
        }
    }

    #[test]
    fn single_rank_degenerates_to_self_copy() {
        let built = build_direct_spread(ProcGrid::new(1, 1), 8);
        assert_eq!(built.sched.ops().len(), 1);
        assert_allgather_correct(&built);
    }
}
