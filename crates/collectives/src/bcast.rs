//! Broadcast — the first of the "other collectives" the paper's future
//! work targets (Section 7), built with the same multi-HCA-aware recipe.
//!
//! * [`build_binomial_bcast`]: the conventional flat binomial tree
//!   (`⌈log₂ R⌉` steps, topology-blind) — the library-style baseline.
//! * [`build_mha_bcast`]: hierarchical and segmented. The message is cut
//!   into segments; the root pipelines them down a binomial tree *over
//!   node leaders* (striped across all rails), and each arriving segment
//!   is published through the node's shared-memory segment while the next
//!   one is still in flight — the same phase-overlap principle as
//!   MHA-inter's chunk-counter pipeline.

use mha_sched::{BufId, Channel, Loc, NodeId, OpId, ProcGrid, RankId, ScheduleBuilder};
use mha_simnet::ClusterSpec;

use crate::chunks::chunk_bounds;
use crate::ctx::{check_extent, BuildError};

/// A built broadcast schedule: `bufs[r]` is rank `r`'s broadcast buffer
/// (the root's holds the payload before execution).
#[derive(Debug, Clone)]
pub struct BcastBuilt {
    /// The schedule.
    pub sched: mha_sched::FrozenSchedule,
    /// Per-rank broadcast buffer.
    pub bufs: Vec<BufId>,
    /// Broadcasting root.
    pub root: RankId,
    /// Payload size in bytes.
    pub msg: usize,
}

fn declare_bufs(b: &mut ScheduleBuilder, grid: ProcGrid, msg: usize) -> Vec<BufId> {
    grid.ranks()
        .map(|r| b.private_buf(r, msg, format!("bcast/{r}")))
        .collect()
}

/// Builds the flat binomial-tree broadcast from `root`.
///
/// # Errors
///
/// [`BuildError::BadParameter`] for an empty message or a root outside
/// the grid; [`BuildError::BufferTooLarge`] when `msg` passes `u32::MAX`
/// bytes.
pub fn build_binomial_bcast(
    grid: ProcGrid,
    msg: usize,
    root: RankId,
) -> Result<BcastBuilt, BuildError> {
    check_bcast(grid, msg, root)?;
    let r = grid.nranks();
    let mut b = ScheduleBuilder::new(grid, "flat-binomial-bcast");
    let bufs = declare_bufs(&mut b, grid, msg);
    // have[rel] = op after which relative rank `rel` holds the payload.
    let mut have: Vec<Option<OpId>> = vec![None; r as usize];
    let abs = |rel: u32| RankId((root.0 + rel) % r);
    let mut dist = 1u32;
    let mut step = 0u32;
    while dist < r {
        for rel in 0..dist.min(r) {
            let to = rel + dist;
            if to >= r {
                continue;
            }
            let (src, dst) = (abs(rel), abs(to));
            let ch = if grid.same_node(src, dst) {
                Channel::Cma
            } else {
                Channel::AllRails
            };
            let deps: Vec<OpId> = have[rel as usize].into_iter().collect();
            let t = b.transfer(
                src,
                dst,
                Loc::new(bufs[src.index()], 0),
                Loc::new(bufs[dst.index()], 0),
                msg,
                ch,
                &deps,
                step,
            );
            have[to as usize] = Some(t);
        }
        dist *= 2;
        step += 1;
    }
    Ok(BcastBuilt {
        sched: b.finish().freeze(),
        bufs,
        root,
        msg,
    })
}

/// The preconditions both broadcasts share.
fn check_bcast(grid: ProcGrid, msg: usize, root: RankId) -> Result<(), BuildError> {
    if msg == 0 {
        return Err(BuildError::BadParameter("empty broadcast".into()));
    }
    if root.0 >= grid.nranks() {
        return Err(BuildError::BadParameter(format!(
            "root {root} outside grid"
        )));
    }
    check_extent(1, msg)
}

/// Builds the hierarchical, segmented, multi-HCA-aware broadcast.
///
/// `segment` bounds the pipeline granularity (clamped to at least 4 KB and
/// at most the payload); `spec` supplies the rail count used by validation.
///
/// # Errors
///
/// As [`build_binomial_bcast`].
pub fn build_mha_bcast(
    grid: ProcGrid,
    msg: usize,
    root: RankId,
    segment: usize,
    spec: &ClusterSpec,
) -> Result<BcastBuilt, BuildError> {
    check_bcast(grid, msg, root)?;
    let _ = spec; // structural parameter only (kept for API symmetry)
    let seg = segment.max(4096).min(msg);
    let nseg = msg.div_ceil(seg);
    let n = grid.nodes();
    let mut b = ScheduleBuilder::new(grid, "mha-bcast");
    let bufs = declare_bufs(&mut b, grid, msg);

    // The root's node acts as tree root; leaders are rank 0 of each node,
    // except on the root's node where the root itself leads.
    let root_node = grid.node_of(root);
    let leader_of = |node: NodeId| {
        if node == root_node {
            root
        } else {
            grid.leader_of(node)
        }
    };
    // Relative node order starting at the root's node.
    let rel_node = |rel: u32| NodeId((root_node.0 + rel) % n);

    // Per-node shm segment for the distribution pipeline.
    let shm: Vec<BufId> = grid
        .node_ids()
        .map(|node| b.shared_buf(node, msg, format!("bcast-shm/{node}")))
        .collect();

    // leader_cursor[node]: program order of the leader's CPU.
    let mut leader_net: Vec<Option<OpId>> = vec![None; n as usize];
    let mut cpu_cursor: Vec<Option<OpId>> = vec![None; grid.nranks() as usize];

    for s in 0..nseg {
        let (lo, hi) = chunk_bounds(msg, nseg, s);
        let len = hi - lo;
        if len == 0 {
            continue;
        }
        // have[rel_node] = op delivering segment s to that node's leader.
        let mut have: Vec<Option<OpId>> = vec![None; n as usize];
        let mut dist = 1u32;
        while dist < n {
            for rel in 0..dist.min(n) {
                let to = rel + dist;
                if to >= n {
                    continue;
                }
                let (src_n, dst_n) = (rel_node(rel), rel_node(to));
                let (src, dst) = (leader_of(src_n), leader_of(dst_n));
                let mut deps: Vec<OpId> = have[rel as usize].into_iter().collect();
                // Pipeline: a leader forwards segment s only after it
                // forwarded segment s-1 to the same child (per-link FIFO
                // falls out of rail sharing; program order via leader_net).
                deps.extend(leader_net[dst_n.index()]);
                let t = b.transfer(
                    src,
                    dst,
                    Loc::new(bufs[src.index()], lo),
                    Loc::new(bufs[dst.index()], lo),
                    len,
                    Channel::AllRails,
                    &deps,
                    s as u32,
                );
                have[to as usize] = Some(t);
                leader_net[dst_n.index()] = Some(t);
            }
            dist *= 2;
        }
        // Node-level distribution of segment s, overlapped with the next
        // segment's tree.
        for node in grid.node_ids() {
            let lead = leader_of(node);
            let gate = if node == root_node {
                None // the root has the data from the start
            } else {
                have[((node.0 + n - root_node.0) % n) as usize]
            };
            let mut deps: Vec<OpId> = cpu_cursor[lead.index()].into_iter().collect();
            deps.extend(gate);
            let cin = b.copy(
                lead,
                Loc::new(bufs[lead.index()], lo),
                Loc::new(shm[node.index()], lo),
                len,
                &deps,
                1000 + s as u32,
            );
            cpu_cursor[lead.index()] = Some(cin);
            for rank in grid.ranks_of(node) {
                if rank == lead {
                    continue;
                }
                let mut deps: Vec<OpId> = cpu_cursor[rank.index()].into_iter().collect();
                deps.push(cin);
                let cout = b.copy(
                    rank,
                    Loc::new(shm[node.index()], lo),
                    Loc::new(bufs[rank.index()], lo),
                    len,
                    &deps,
                    2000 + s as u32,
                );
                cpu_cursor[rank.index()] = Some(cout);
            }
        }
    }
    Ok(BcastBuilt {
        sched: b.finish().freeze(),
        bufs,
        root,
        msg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mha_exec::{verify_bcast, Mode};
    use mha_simnet::Simulator;

    #[test]
    fn payloads_past_u32_offsets_are_rejected() {
        let grid = ProcGrid::new(2, 1);
        let too_large = BuildError::BufferTooLarge {
            blocks: 1,
            block: 1 << 32,
        };
        let flat = build_binomial_bcast(grid, 1 << 32, RankId(0));
        assert_eq!(flat.unwrap_err(), too_large);
        let mha = build_mha_bcast(grid, 1 << 32, RankId(0), 1 << 20, &ClusterSpec::thor());
        assert_eq!(mha.unwrap_err(), too_large);
    }

    fn assert_bcast_correct(built: &BcastBuilt) {
        mha_sched::validate(&built.sched, Some(2)).unwrap();
        let races = mha_sched::check_races(&built.sched);
        assert!(races.is_empty(), "races: {races:?}");
        for mode in [Mode::Single, Mode::Threaded(4)] {
            verify_bcast(
                &built.sched,
                &built.bufs,
                built.root.index(),
                built.msg,
                mode,
            )
            .unwrap();
        }
    }

    #[test]
    fn binomial_bcast_is_correct_for_any_layout_and_root() {
        for (nodes, ppn) in [(1u32, 1u32), (1, 5), (2, 3), (3, 2), (4, 4)] {
            let grid = ProcGrid::new(nodes, ppn);
            for root in [0, grid.nranks() - 1, grid.nranks() / 2] {
                let built = build_binomial_bcast(grid, 40, RankId(root)).unwrap();
                assert_bcast_correct(&built);
            }
        }
    }

    #[test]
    fn mha_bcast_is_correct_for_any_layout_and_root() {
        for (nodes, ppn) in [(1u32, 4u32), (2, 3), (3, 2), (4, 4)] {
            let grid = ProcGrid::new(nodes, ppn);
            for root in [0, grid.nranks() - 1] {
                let built = build_mha_bcast(grid, 40_000, RankId(root), 8192, &ClusterSpec::thor())
                    .unwrap();
                assert_bcast_correct(&built);
            }
        }
    }

    #[test]
    fn binomial_takes_log2_steps() {
        let built = build_binomial_bcast(ProcGrid::new(1, 8), 64, RankId(0)).unwrap();
        let max_step = built.sched.ops().iter().map(|o| o.step).max().unwrap();
        assert_eq!(max_step, 2); // steps 0,1,2 for 8 ranks
        assert_eq!(built.sched.ops().len(), 7); // R-1 transfers
    }

    #[test]
    fn mha_bcast_beats_binomial_for_large_messages_at_scale() {
        let spec = ClusterSpec::thor();
        let sim = Simulator::new(spec.clone()).unwrap();
        let grid = ProcGrid::new(8, 16);
        let msg = 8 << 20;
        let flat = build_binomial_bcast(grid, msg, RankId(0)).unwrap();
        let mha = build_mha_bcast(grid, msg, RankId(0), 256 * 1024, &spec).unwrap();
        let t_flat = sim.run(&flat.sched).unwrap().latency_us();
        let t_mha = sim.run(&mha.sched).unwrap().latency_us();
        assert!(
            t_mha < t_flat * 0.7,
            "mha {t_mha} should clearly beat binomial {t_flat}"
        );
    }

    #[test]
    fn tiny_messages_are_latency_bound_for_both() {
        // At 512 B nothing is bandwidth-bound: both designs cost a few
        // startup latencies and stay within a small factor of each other
        // (the hierarchical tree has fewer inter-node hops, so it may even
        // edge ahead; the interesting regime is the large-message one).
        let spec = ClusterSpec::thor();
        let sim = Simulator::new(spec.clone()).unwrap();
        let grid = ProcGrid::new(4, 4);
        let msg = 512;
        let flat = build_binomial_bcast(grid, msg, RankId(0)).unwrap();
        let mha = build_mha_bcast(grid, msg, RankId(0), 4096, &spec).unwrap();
        let t_flat = sim.run(&flat.sched).unwrap().latency_us();
        let t_mha = sim.run(&mha.sched).unwrap().latency_us();
        assert!(t_flat < 20.0 && t_mha < 20.0, "flat {t_flat}, mha {t_mha}");
        let ratio = t_flat.max(t_mha) / t_flat.min(t_mha);
        assert!(ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn bad_parameters_rejected() {
        let spec = ClusterSpec::thor();
        assert!(matches!(
            build_mha_bcast(ProcGrid::new(2, 2), 0, RankId(0), 4096, &spec),
            Err(BuildError::BadParameter(_))
        ));
        assert!(matches!(
            build_mha_bcast(ProcGrid::new(2, 2), 64, RankId(9), 4096, &spec),
            Err(BuildError::BadParameter(_))
        ));
    }

    #[test]
    fn segmentation_pipelines_the_tree() {
        // With 4 segments, later tree steps overlap earlier copies: the
        // makespan is far below nseg * single-segment latency.
        let spec = ClusterSpec::thor();
        let sim = Simulator::new(spec.clone()).unwrap();
        let grid = ProcGrid::new(8, 4);
        let msg = 4 << 20;
        let coarse = build_mha_bcast(grid, msg, RankId(0), msg, &spec).unwrap();
        let fine = build_mha_bcast(grid, msg, RankId(0), 128 * 1024, &spec).unwrap();
        let t_coarse = sim.run(&coarse.sched).unwrap().latency_us();
        let t_fine = sim.run(&fine.sched).unwrap().latency_us();
        assert!(
            t_fine < t_coarse * 0.75,
            "pipelining should help: fine {t_fine} vs coarse {t_coarse}"
        );
    }
}
