//! Single-leader shared-memory Allgather (Mamidala et al. \[19\]).
//!
//! One leader per node; the node's shared-memory segment is the staging area
//! for *both* intra- and inter-node traffic: members deposit their blocks
//! into shm, leaders exchange node blocks over the network (Recursive
//! Doubling in the original paper) reading from and RDMA-writing into shm
//! directly, and every rank copies arrived chunks out of shm — overlapped
//! with the ongoing exchange. The paper's critique: phase 2 supports *only*
//! Recursive Doubling, whose doubling chunk sizes erode the overlap that
//! Ring would preserve (and no HCA offload is used in phase 1).

use mha_sched::{Channel, Loc, OpId, ProcGrid};

use crate::ctx::{BuildError, Built, Ctx};

/// Builds the single-leader design with Recursive-Doubling inter-leader
/// exchange and overlapped shm distribution.
///
/// # Errors
///
/// [`BuildError::RequiresPowerOfTwo`] unless the node count is a power of
/// two (the design is RD-only).
pub fn build_single_leader(grid: ProcGrid, msg: usize) -> Result<Built, BuildError> {
    let n = grid.nodes();
    if !n.is_power_of_two() {
        return Err(BuildError::RequiresPowerOfTwo {
            what: "nodes",
            got: n,
        });
    }
    let mut ctx = Ctx::new(grid, msg, "twolevel-single-leader");
    if ctx.is_degenerate() {
        return Ok(ctx.finish_degenerate());
    }
    emit_single_leader(&mut ctx);
    Ok(ctx.finish())
}

/// Emits the single-leader phases into an existing context. The caller has
/// already checked the power-of-two node count and non-degeneracy.
pub(crate) fn emit_single_leader(ctx: &mut Ctx) {
    let grid = ctx.grid();
    let n = grid.nodes();
    let l = grid.ppn();
    let msg = ctx.msg;
    let total = grid.nranks() as usize * msg;

    // Per-node shm segment holding the full result layout.
    let shm: Vec<_> = grid
        .node_ids()
        .map(|node| ctx.b.shared_buf(node, total, format!("shm/{node}")))
        .collect();

    // ---- Phase 1: members deposit their blocks into shm. ----------------
    // node_staged[node]: the deposit ops (the node block is complete once
    // all have run).
    let mut node_staged: Vec<Vec<OpId>> = Vec::with_capacity(n as usize);
    for node in grid.node_ids() {
        let mut deposits = Vec::with_capacity(l as usize);
        for rank in grid.ranks_of(node) {
            let deps = ctx.cur.deps_of(rank);
            let src = ctx.send_loc(rank);
            let dst = Loc::new(shm[node.index()], rank.index() * msg);
            let op = ctx.b.copy(rank, src, dst, msg, &deps, 0);
            ctx.cur.advance(rank, op);
            deposits.push(op);
        }
        node_staged.push(deposits);
    }

    // ---- Phase 2: RD between leaders, shm-resident. ----------------------
    // arrivals[node]: (start_block, nblocks, op) per received chunk.
    let mut arrivals: Vec<Vec<(u32, u32, OpId)>> = (0..n).map(|_| Vec::new()).collect();
    let mut net_cur: Vec<Vec<OpId>> = node_staged.clone();
    let steps = n.trailing_zeros();
    for k in 0..steps {
        let dist = 1u32 << k;
        let mut next_cur = net_cur.clone();
        for nd in 0..n {
            let partner = nd ^ dist;
            let pbase = partner & !(dist - 1);
            let mut deps = net_cur[partner as usize].clone();
            deps.extend(net_cur[nd as usize].iter().copied());
            let lsrc = grid.leader_of(mha_sched::NodeId(partner));
            let ldst = grid.leader_of(mha_sched::NodeId(nd));
            let off = (pbase * l) as usize * msg;
            let len = (dist * l) as usize * msg;
            let t = ctx.b.transfer(
                lsrc,
                ldst,
                Loc::new(shm[partner as usize], off),
                Loc::new(shm[nd as usize], off),
                len,
                Channel::AllRails,
                &deps,
                1000 + k,
            );
            arrivals[nd as usize].push((pbase * l, dist * l, t));
            next_cur[nd as usize] = vec![t];
        }
        net_cur = next_cur;
    }

    // ---- Phase 3: every rank copies chunks out of shm (overlapped). ------
    for node in grid.node_ids() {
        let nd = node.index();
        // Own node block: available after the node's deposits.
        let own_gate = node_staged[nd].clone();
        for rank in grid.ranks_of(node) {
            let deps = ctx.cur.deps_with(rank, &own_gate);
            let off = (node.0 * l) as usize * msg;
            let op = ctx.b.copy(
                rank,
                Loc::new(shm[nd], off),
                Loc::new(ctx.recv[rank.index()], off),
                (l as usize) * msg,
                &deps,
                2000,
            );
            ctx.cur.advance(rank, op);
        }
        // Remote chunks as they arrive.
        for (idx, &(start_block, nblocks, gate)) in arrivals[nd].iter().enumerate() {
            for rank in grid.ranks_of(node) {
                let off = start_block as usize * msg;
                let len = nblocks as usize * msg;
                let deps = ctx.cur.deps_with(rank, &[gate]);
                let op = ctx.b.copy(
                    rank,
                    Loc::new(shm[nd], off),
                    Loc::new(ctx.recv[rank.index()], off),
                    len,
                    &deps,
                    2001 + idx as u32,
                );
                ctx.cur.advance(rank, op);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::testutil::assert_allgather_correct;
    use mha_simnet::{ClusterSpec, Simulator};

    #[test]
    fn single_leader_is_correct() {
        for (nodes, ppn) in [(1, 3), (2, 2), (4, 4), (8, 2), (2, 1)] {
            let built = build_single_leader(ProcGrid::new(nodes, ppn), 24).unwrap();
            assert_allgather_correct(&built);
        }
    }

    #[test]
    fn non_power_of_two_nodes_rejected() {
        assert!(matches!(
            build_single_leader(ProcGrid::new(3, 2), 8).unwrap_err(),
            BuildError::RequiresPowerOfTwo { .. }
        ));
    }

    #[test]
    fn only_leaders_cross_nodes() {
        let built = build_single_leader(ProcGrid::new(4, 4), 16).unwrap();
        let grid = *built.sched.grid();
        for op in built.sched.ops() {
            if let mha_sched::OpKind::Transfer {
                src_rank, dst_rank, ..
            } = &op.kind
            {
                if !grid.same_node(*src_rank, *dst_rank) {
                    assert!(grid.is_leader(*src_rank) && grid.is_leader(*dst_rank));
                }
            }
        }
    }

    #[test]
    fn mha_inter_ring_beats_single_leader_in_network_bound_regime() {
        // The paper's improvement over the Mamidala-style design comes from
        // Ring's better overlap in phase 2 (Figure 7): RD's final chunk is
        // half the result and its broadcast cannot be hidden. The effect
        // shows where the network phase is the critical path — e.g. on a
        // single-rail cluster (the era of [19]); with both rails striped,
        // node-level copies become the shared bottleneck and the designs
        // converge (also consistent with the paper's Eq. 6/7 case split).
        let spec = ClusterSpec::thor_single_rail();
        let sim = Simulator::new(spec.clone()).unwrap();
        let grid = ProcGrid::new(16, 2);
        let msg = 2 << 20;
        let sl = build_single_leader(grid, msg).unwrap();
        let mha = crate::build(&crate::AlgoConfig::default(), grid, msg, &spec).unwrap();
        let t_sl = sim.run(&sl.sched).unwrap().latency_us();
        let t_mha = sim.run(&mha.sched).unwrap().latency_us();
        assert!(t_mha < t_sl * 0.9, "mha {t_mha} vs single-leader {t_sl}");
    }
}
