//! Alltoall (personalized all-to-all exchange) — a further "other
//! collective" (Section 7 future work), built with the same hierarchical
//! recipe as MHA-inter.
//!
//! * [`build_direct_alltoall`]: the conventional flat algorithm — in step
//!   `i` each rank sends its block for rank `r + i` and receives from
//!   `r − i` (topology-blind; intra-node blocks ride CMA, the rest the
//!   rails).
//! * [`build_mha_alltoall`]: hierarchical. Members stage their blocks in
//!   node shm *grouped by destination node*; one leader per node exchanges
//!   `L²`-block chunks with every other leader, striped across all rails;
//!   members copy out their own slice of each arriving chunk, overlapped
//!   with the remaining exchange. Inter-node message count drops from
//!   `L² · N · (N−1)` to `N · (N−1)` at `L²`-fold size — the same
//!   aggregation trade the paper's Allgather design makes.

use mha_sched::{BufId, Channel, Loc, NodeId, OpId, ProcGrid, RankId, ScheduleBuilder};
use mha_simnet::ClusterSpec;

use crate::ctx::{check_extent, BuildError};

/// A built Alltoall: `send[r]`/`recv[r]` are rank `r`'s buffers, each
/// `nranks * msg` bytes; block `d` of `send[r]` is rank `r`'s payload for
/// rank `d`.
#[derive(Debug, Clone)]
pub struct AlltoallBuilt {
    /// The schedule.
    pub sched: mha_sched::FrozenSchedule,
    /// Per-rank send buffer.
    pub send: Vec<BufId>,
    /// Per-rank receive buffer.
    pub recv: Vec<BufId>,
    /// Per-destination block size in bytes.
    pub msg: usize,
}

fn declare(b: &mut ScheduleBuilder, grid: ProcGrid, msg: usize) -> (Vec<BufId>, Vec<BufId>) {
    let total = grid.nranks() as usize * msg;
    let send = grid
        .ranks()
        .map(|r| b.private_buf(r, total, format!("a2a-send/{r}")))
        .collect();
    let recv = grid
        .ranks()
        .map(|r| b.private_buf(r, total, format!("a2a-recv/{r}")))
        .collect();
    (send, recv)
}

/// Builds the flat shifted-direct Alltoall.
///
/// # Errors
///
/// [`BuildError::BadParameter`] for an empty message;
/// [`BuildError::BufferTooLarge`] when a rank's `nranks × msg`-byte
/// buffer would pass `u32::MAX` bytes.
pub fn build_direct_alltoall(grid: ProcGrid, msg: usize) -> Result<AlltoallBuilt, BuildError> {
    if msg == 0 {
        return Err(BuildError::BadParameter("empty alltoall".into()));
    }
    check_extent(grid.nranks() as usize, msg)?;
    let r = grid.nranks();
    let mut b = ScheduleBuilder::new(grid, "flat-direct-alltoall");
    let (send, recv) = declare(&mut b, grid, msg);
    // Own block first.
    let mut cursor: Vec<Option<OpId>> = Vec::with_capacity(r as usize);
    for me in grid.ranks() {
        let op = b.copy(
            me,
            Loc::new(send[me.index()], me.index() * msg),
            Loc::new(recv[me.index()], me.index() * msg),
            msg,
            &[],
            0,
        );
        cursor.push(Some(op));
    }
    for i in 1..r {
        for me in grid.ranks() {
            let src = RankId((me.0 + r - i) % r);
            let ch = if grid.same_node(src, me) {
                Channel::Cma
            } else {
                Channel::AllRails
            };
            let deps: Vec<OpId> = cursor[me.index()].into_iter().collect();
            let t = b.transfer(
                src,
                me,
                Loc::new(send[src.index()], me.index() * msg),
                Loc::new(recv[me.index()], src.index() * msg),
                msg,
                ch,
                &deps,
                i,
            );
            cursor[me.index()] = Some(t);
        }
    }
    Ok(AlltoallBuilt {
        sched: b.finish().freeze(),
        send,
        recv,
        msg,
    })
}

/// Builds the hierarchical multi-HCA-aware Alltoall.
///
/// # Errors
///
/// [`BuildError::BadParameter`] for an empty message;
/// [`BuildError::BufferTooLarge`] when a node's staging segment,
/// `nranks × ppn × msg` bytes, would pass `u32::MAX` bytes.
pub fn build_mha_alltoall(
    grid: ProcGrid,
    msg: usize,
    spec: &ClusterSpec,
) -> Result<AlltoallBuilt, BuildError> {
    if msg == 0 {
        return Err(BuildError::BadParameter("empty alltoall".into()));
    }
    check_extent(grid.nranks() as usize * grid.ppn() as usize, msg)?;
    let _ = spec;
    let n = grid.nodes();
    let l = grid.ppn() as usize;
    let r = grid.nranks() as usize;
    let mut b = ScheduleBuilder::new(grid, "mha-alltoall");
    let (send, recv) = declare(&mut b, grid, msg);
    let chunk = l * l * msg; // one node-pair's traffic

    // Staging segments per node: `out` grouped by destination node
    // (chunk layout: [dst_local][src_local]), `inn` grouped by source node.
    let out: Vec<BufId> = grid
        .node_ids()
        .map(|node| b.shared_buf(node, n as usize * chunk, format!("a2a-out/{node}")))
        .collect();
    let inn: Vec<BufId> = grid
        .node_ids()
        .map(|node| b.shared_buf(node, n as usize * chunk, format!("a2a-in/{node}")))
        .collect();

    // ---- Stage 1: members deposit blocks, grouped by destination. -------
    // staged[node]: deposit ops per node.
    let mut staged: Vec<Vec<OpId>> = Vec::with_capacity(n as usize);
    let mut cursor: Vec<Option<OpId>> = vec![None; r];
    for node in grid.node_ids() {
        let mut ops = Vec::new();
        for (s_l, me) in grid.ranks_of(node).enumerate() {
            for d in 0..r {
                let dn = d / l;
                let d_l = d % l;
                let off = dn * chunk + (d_l * l + s_l) * msg;
                let deps: Vec<OpId> = cursor[me.index()].into_iter().collect();
                let op = b.copy(
                    me,
                    Loc::new(send[me.index()], d * msg),
                    Loc::new(out[node.index()], off),
                    msg,
                    &deps,
                    0,
                );
                cursor[me.index()] = Some(op);
                ops.push(op);
            }
        }
        staged.push(ops);
    }

    // ---- Stage 2: leaders exchange node-pair chunks (rounds of shifted
    // pairing), each immediately consumable. ------------------------------
    // arrivals[node]: (src_node, op) in arrival order.
    let mut arrivals: Vec<Vec<(u32, OpId)>> = (0..n).map(|_| Vec::new()).collect();
    let mut net_cursor: Vec<Option<OpId>> = vec![None; n as usize];
    for round in 1..n {
        for dst_n in 0..n {
            let src_n = (dst_n + n - round) % n;
            let (lsrc, ldst) = (grid.leader_of(NodeId(src_n)), grid.leader_of(NodeId(dst_n)));
            let mut deps: Vec<OpId> = staged[src_n as usize].clone();
            deps.extend(net_cursor[dst_n as usize]);
            let t = b.transfer(
                lsrc,
                ldst,
                Loc::new(out[src_n as usize], dst_n as usize * chunk),
                Loc::new(inn[dst_n as usize], src_n as usize * chunk),
                chunk,
                Channel::AllRails,
                &deps,
                1000 + round,
            );
            net_cursor[dst_n as usize] = Some(t);
            arrivals[dst_n as usize].push((src_n, t));
        }
    }

    // ---- Stage 3: members copy out their slice of each chunk, overlapped.
    for node in grid.node_ids() {
        let nd = node.index();
        for (d_l, me) in grid.ranks_of(node).enumerate() {
            // Own node's traffic straight from the out-staging.
            let gate = staged[nd].clone();
            let deps: Vec<OpId> = cursor[me.index()].iter().copied().chain(gate).collect();
            let op = b.copy(
                me,
                Loc::new(out[nd], nd * chunk + d_l * l * msg),
                Loc::new(recv[me.index()], nd * l * msg),
                l * msg,
                &deps,
                2000,
            );
            cursor[me.index()] = Some(op);
        }
        for (idx, &(src_n, gate)) in arrivals[nd].iter().enumerate() {
            for (d_l, me) in grid.ranks_of(node).enumerate() {
                let deps: Vec<OpId> = cursor[me.index()].iter().copied().chain([gate]).collect();
                let op = b.copy(
                    me,
                    Loc::new(inn[nd], src_n as usize * chunk + d_l * l * msg),
                    Loc::new(recv[me.index()], src_n as usize * l * msg),
                    l * msg,
                    &deps,
                    2001 + idx as u32,
                );
                cursor[me.index()] = Some(op);
            }
        }
    }
    Ok(AlltoallBuilt {
        sched: b.finish().freeze(),
        send,
        recv,
        msg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mha_exec::{verify_alltoall, Mode};
    use mha_simnet::Simulator;

    #[test]
    fn buffers_past_u32_offsets_are_rejected() {
        let err = build_direct_alltoall(ProcGrid::new(1024, 1), 4 << 20);
        assert_eq!(
            err.unwrap_err(),
            BuildError::BufferTooLarge {
                blocks: 1024,
                block: 4 << 20
            }
        );
        // The hierarchical staging segment is ppn times the recv buffer.
        let err = build_mha_alltoall(ProcGrid::new(16, 16), 1 << 20, &ClusterSpec::thor());
        assert_eq!(
            err.unwrap_err(),
            BuildError::BufferTooLarge {
                blocks: 256 * 16,
                block: 1 << 20
            }
        );
    }

    fn assert_a2a_correct(built: &AlltoallBuilt) {
        mha_sched::validate(&built.sched, Some(2)).unwrap();
        let races = mha_sched::check_races(&built.sched);
        assert!(races.is_empty(), "races: {races:?}");
        for mode in [Mode::Single, Mode::Threaded(4)] {
            verify_alltoall(&built.sched, &built.send, &built.recv, built.msg, mode).unwrap();
        }
    }

    #[test]
    fn direct_alltoall_is_correct() {
        for (nodes, ppn) in [(1u32, 1u32), (1, 4), (2, 2), (3, 2), (2, 4)] {
            assert_a2a_correct(&build_direct_alltoall(ProcGrid::new(nodes, ppn), 12).unwrap());
        }
    }

    #[test]
    fn mha_alltoall_is_correct() {
        for (nodes, ppn) in [(1u32, 4u32), (2, 2), (3, 2), (2, 4), (4, 3)] {
            let built =
                build_mha_alltoall(ProcGrid::new(nodes, ppn), 12, &ClusterSpec::thor()).unwrap();
            assert_a2a_correct(&built);
        }
    }

    #[test]
    fn aggregation_cuts_inter_node_message_count() {
        let grid = ProcGrid::new(4, 8);
        let spec = ClusterSpec::thor();
        let flat = build_direct_alltoall(grid, 64).unwrap();
        let mha = build_mha_alltoall(grid, 64, &spec).unwrap();
        let count_rail = |s: &mha_sched::Schedule| s.stats().rail_transfers;
        // Flat: every cross-node (src, dst) pair is its own message.
        assert_eq!(count_rail(&flat.sched), (32 * 24) as usize);
        // Hierarchical: one message per ordered node pair.
        assert_eq!(count_rail(&mha.sched), (4 * 3) as usize);
    }

    #[test]
    fn mha_alltoall_wins_for_small_blocks_at_scale() {
        // Aggregation amortizes per-message startup; that is the regime
        // hierarchical Alltoall targets.
        let spec = ClusterSpec::thor();
        let sim = Simulator::new(spec.clone()).unwrap();
        let grid = ProcGrid::new(8, 8);
        let msg = 512;
        let flat = build_direct_alltoall(grid, msg).unwrap();
        let mha = build_mha_alltoall(grid, msg, &spec).unwrap();
        let t_flat = sim.run(&flat.sched).unwrap().latency_us();
        let t_mha = sim.run(&mha.sched).unwrap().latency_us();
        assert!(t_mha < t_flat, "mha {t_mha} vs flat {t_flat}");
    }

    #[test]
    fn zero_message_rejected() {
        assert!(matches!(
            build_mha_alltoall(ProcGrid::new(2, 2), 0, &ClusterSpec::thor()),
            Err(BuildError::BadParameter(_))
        ));
    }
}
