//! Multi-leader Allgather (Kandalla et al. \[14\]) — the design the paper's
//! motivation (Figure 2) criticizes, and our surrogate for MVAPICH2-X's
//! large-message behaviour.
//!
//! Ranks on each node are split into `G` groups with one leader each. Phase
//! 1 gathers each group's blocks to its leader through shm; phase 2 runs a
//! *flat ring over all `N·G` leaders* — blending intra-node and inter-node
//! hops, so the ring is throttled by the slower intra-node links; phase 3
//! broadcasts each leader's full result through the group's shm segment.
//! The phases are strictly sequential ("a phase starts right after the
//! previous one has finished" — Section 1.1).

use mha_sched::{Loc, OpId, ProcGrid, RankId};

use crate::ctx::{BuildError, Built, Ctx};

/// Builds the multi-leader design with `groups` leader groups per node.
///
/// # Errors
///
/// [`BuildError::BadParameter`] if `groups` is zero or does not divide the
/// processes-per-node count.
pub fn build_multi_leader(grid: ProcGrid, msg: usize, groups: u32) -> Result<Built, BuildError> {
    let l = grid.ppn();
    if groups == 0 || !l.is_multiple_of(groups) {
        return Err(BuildError::BadParameter(format!(
            "{groups} groups do not divide {l} processes per node"
        )));
    }
    let mut ctx = Ctx::new(grid, msg, format!("twolevel-multi-leader(g={groups})"));
    if ctx.is_degenerate() {
        return Ok(ctx.finish_degenerate());
    }
    emit_multi_leader(&mut ctx, groups);
    Ok(ctx.finish())
}

/// Emits the three strictly-sequential multi-leader phases into an existing
/// context. The caller has already checked divisibility and non-degeneracy.
pub(crate) fn emit_multi_leader(ctx: &mut Ctx, groups: u32) {
    let grid = ctx.grid();
    let l = grid.ppn();
    let msg = ctx.msg;
    let lg = l / groups; // ranks per group
    let ng = grid.nodes() * groups; // total leaders
    let total = grid.nranks() as usize * msg;

    // Leader of global group `gg` (node gg / groups, group gg % groups).
    let leader = |gg: u32| RankId((gg / groups) * l + (gg % groups) * lg);
    // Global rank-block range of group `gg`.
    let group_first_block = |gg: u32| (gg / groups) * l + (gg % groups) * lg;

    // Per-group shm segment sized for the full result (phase 3 reuses it).
    let shm: Vec<_> = (0..ng)
        .map(|gg| {
            let node = mha_sched::NodeId(gg / groups);
            ctx.b.shared_buf(node, total, format!("shm/g{gg}"))
        })
        .collect();

    // ---- Phase 1: gather each group's blocks to its leader. -------------
    // ready[gg]: op after which leader gg's recv holds its group region.
    let mut ready: Vec<OpId> = Vec::with_capacity(ng as usize);
    for gg in 0..ng {
        let lead = leader(gg);
        let mut deposits = Vec::with_capacity(lg as usize);
        for j in 0..lg {
            let rank = RankId(lead.0 + j);
            let deps = ctx.cur.deps_of(rank);
            let dst = Loc::new(shm[gg as usize], rank.index() * msg);
            let op = ctx.b.copy(rank, ctx.send_loc(rank), dst, msg, deps, 0);
            ctx.cur.advance(rank, op);
            deposits.push(op);
        }
        // Leader pulls the contiguous group region into its recv buffer.
        let first = group_first_block(gg) as usize;
        let deps = ctx.cur.deps_with(lead, &deposits);
        let op = ctx.b.copy(
            lead,
            Loc::new(shm[gg as usize], first * msg),
            Loc::new(ctx.recv[lead.index()], first * msg),
            lg as usize * msg,
            &deps,
            1,
        );
        ctx.cur.advance(lead, op);
        ready.push(op);
    }

    // ---- Phase 2: flat ring over all leaders (group-block granularity). --
    if ng > 1 {
        let mut avail: Vec<OpId> = ready.clone();
        for s in 0..ng - 1 {
            let mut next_avail = avail.clone();
            for gg in 0..ng {
                let sender = (gg + ng - 1) % ng;
                let group_block = (sender + ng - s) % ng;
                let (lsrc, ldst) = (leader(sender), leader(gg));
                let ch = ctx.channel_between(lsrc, ldst);
                let off = group_first_block(group_block) as usize * msg;
                let mut deps = ctx.cur.deps_with(ldst, ctx.cur.deps_of(lsrc));
                deps.push(avail[sender as usize]);
                let t = ctx.b.transfer(
                    lsrc,
                    ldst,
                    Loc::new(ctx.recv[lsrc.index()], off),
                    Loc::new(ctx.recv[ldst.index()], off),
                    lg as usize * msg,
                    ch,
                    &deps,
                    1000 + s,
                );
                next_avail[gg as usize] = t;
            }
            for gg in 0..ng {
                ctx.cur.advance(leader(gg), next_avail[gg as usize]);
            }
            avail = next_avail;
        }
    }

    // ---- Phase 3 (sequential): leaders publish, members copy out. --------
    for gg in 0..ng {
        let lead = leader(gg);
        let deps = ctx.cur.deps_of(lead);
        let publish = ctx.b.copy(
            lead,
            Loc::new(ctx.recv[lead.index()], 0),
            Loc::new(shm[gg as usize], 0),
            total,
            deps,
            2000,
        );
        ctx.cur.advance(lead, publish);
        for j in 1..lg {
            let rank = RankId(lead.0 + j);
            let deps = ctx.cur.deps_with(rank, &[publish]);
            let op = ctx.b.copy(
                rank,
                Loc::new(shm[gg as usize], 0),
                Loc::new(ctx.recv[rank.index()], 0),
                total,
                &deps,
                2001,
            );
            ctx.cur.advance(rank, op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::testutil::assert_allgather_correct;
    use mha_simnet::{ClusterSpec, Simulator};

    #[test]
    fn multi_leader_is_correct() {
        for (nodes, ppn, g) in [
            (1, 4, 2),
            (2, 4, 1),
            (2, 4, 2),
            (2, 4, 4),
            (3, 6, 2),
            (4, 2, 2),
            (2, 1, 1),
        ] {
            let built = build_multi_leader(ProcGrid::new(nodes, ppn), 16, g).unwrap();
            assert_allgather_correct(&built);
        }
    }

    #[test]
    fn bad_group_counts_rejected() {
        assert!(matches!(
            build_multi_leader(ProcGrid::new(2, 4), 8, 3).unwrap_err(),
            BuildError::BadParameter(_)
        ));
        assert!(matches!(
            build_multi_leader(ProcGrid::new(2, 4), 8, 0).unwrap_err(),
            BuildError::BadParameter(_)
        ));
    }

    #[test]
    fn phase2_mixes_intra_and_inter_hops() {
        // The criticized blend: with 2 groups per node, half the ring hops
        // stay inside a node (CMA), half cross nodes.
        let built = build_multi_leader(ProcGrid::new(2, 4), 64, 2).unwrap();
        let stats = built.sched.stats();
        assert!(stats.cma_transfers > 0, "expected intra-node ring hops");
        assert!(stats.rail_transfers > 0, "expected inter-node ring hops");
    }

    #[test]
    fn mha_inter_beats_multi_leader_for_large_messages() {
        // The paper's headline comparison (Figures 12-14, MVAPICH2-X side).
        let spec = ClusterSpec::thor();
        let sim = Simulator::new(spec.clone()).unwrap();
        let grid = ProcGrid::new(8, 8);
        let msg = 128 * 1024;
        let ml = build_multi_leader(grid, msg, 2).unwrap();
        let mha = crate::build(&crate::AlgoConfig::default(), grid, msg, &spec).unwrap();
        let t_ml = sim.run(&ml.sched).unwrap().latency_us();
        let t_mha = sim.run(&mha.sched).unwrap().latency_us();
        assert!(
            t_mha < t_ml * 0.8,
            "mha {t_mha} should clearly beat multi-leader {t_ml}"
        );
    }
}
