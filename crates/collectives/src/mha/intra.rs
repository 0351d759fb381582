//! MHA-intra: the multi-HCA aware intra-node Allgather (Section 3.1).
//!
//! Direct Spread gives every rank `L − 1` independent fetches. Instead of
//! the CPU performing all of them over CMA, each rank offloads `d` of them
//! to the node's HCAs as NIC-loopback RDMA transfers (striped across all
//! rails for large messages). The offloaded transfers have no dependencies
//! — block sources are send buffers, ready at t = 0 — so they run fully in
//! parallel with the CPU's CMA chain, and with `d` chosen by Eq. 1 both
//! finish together (Figure 4b: four ranks finish in two "steps" instead of
//! three).

use mha_sched::ProcGrid;
use mha_simnet::ClusterSpec;

use crate::ctx::{BuildError, Built, Ctx};
use crate::mha::offload::{resolve_offload, Offload};

/// Builds the MHA-intra Allgather for a single-node grid.
///
/// # Errors
///
/// [`BuildError::BadParameter`] if `grid` spans more than one node — use
/// [`crate::AlgoConfig::mha_inter`] for multi-node layouts.
pub fn build_mha_intra(
    grid: ProcGrid,
    msg: usize,
    policy: Offload,
    spec: &ClusterSpec,
) -> Result<Built, BuildError> {
    if grid.nodes() != 1 {
        return Err(BuildError::BadParameter(format!(
            "MHA-intra is a single-node design; got {} nodes",
            grid.nodes()
        )));
    }
    let d = resolve_offload(policy, spec, grid.ppn(), msg);
    let mut ctx = Ctx::new(grid, msg, format!("mha-intra(d={d})"));
    let topo = mha_sched::Topology::from_fanouts(&[grid.ppn()]);
    crate::compose::emit_plan(
        &mut ctx,
        &topo,
        &crate::compose::ComposePlan::gather(policy),
        Some(spec),
        None,
    )?;
    Ok(ctx.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::testutil::assert_allgather_correct;
    use mha_sched::{Channel, OpKind};
    use mha_simnet::Simulator;

    fn thor() -> ClusterSpec {
        ClusterSpec::thor()
    }

    #[test]
    fn mha_intra_is_correct_for_all_policies() {
        for l in [1u32, 2, 4, 7, 8] {
            for policy in [Offload::None, Offload::Fixed(2), Offload::Auto] {
                let built = build_mha_intra(ProcGrid::single_node(l), 32, policy, &thor()).unwrap();
                assert_allgather_correct(&built);
            }
        }
    }

    #[test]
    fn multi_node_grid_rejected() {
        let err = build_mha_intra(ProcGrid::new(2, 2), 8, Offload::Auto, &thor()).unwrap_err();
        assert!(matches!(err, BuildError::BadParameter(_)));
    }

    #[test]
    fn offloaded_transfers_have_no_dependencies() {
        let built = build_mha_intra(
            ProcGrid::single_node(4),
            1 << 20,
            Offload::Fixed(2),
            &thor(),
        )
        .unwrap();
        for op in built.sched.ops() {
            if let OpKind::Transfer {
                channel: Channel::AllRails,
                ..
            } = op.kind
            {
                assert!(op.deps.is_empty(), "HCA transfer {:?} has deps", op.id);
            }
        }
    }

    #[test]
    fn fixed_d_splits_transfers_as_requested() {
        let l = 6u32;
        let d = 2u32;
        let built =
            build_mha_intra(ProcGrid::single_node(l), 64, Offload::Fixed(d), &thor()).unwrap();
        let stats = built.sched.stats();
        assert_eq!(stats.rail_transfers, (l * d) as usize);
        assert_eq!(stats.cma_transfers, (l * (l - 1 - d)) as usize);
        assert_eq!(stats.copies, l as usize); // self copies
    }

    #[test]
    fn offload_beats_plain_direct_spread_for_large_messages() {
        // The headline of Section 5.2, at simulator level.
        let spec = thor();
        let sim = Simulator::new(spec.clone()).unwrap();
        let msg = 4 << 20;
        for l in [2u32, 4, 8] {
            let grid = ProcGrid::single_node(l);
            let none = build_mha_intra(grid, msg, Offload::None, &spec).unwrap();
            let auto = build_mha_intra(grid, msg, Offload::Auto, &spec).unwrap();
            let t_none = sim.run(&none.sched).unwrap().latency_us();
            let t_auto = sim.run(&auto.sched).unwrap().latency_us();
            assert!(
                t_auto < t_none * 0.9,
                "L={l}: offload {t_auto} vs none {t_none}"
            );
        }
    }

    #[test]
    fn improvement_shrinks_as_processes_grow() {
        // Section 5.2's trend: fixed HCA capacity serves more ranks.
        let spec = thor();
        let sim = Simulator::new(spec.clone()).unwrap();
        let msg = 1 << 20;
        let gain = |l: u32| {
            let grid = ProcGrid::single_node(l);
            let none = build_mha_intra(grid, msg, Offload::None, &spec).unwrap();
            let auto = build_mha_intra(grid, msg, Offload::Auto, &spec).unwrap();
            let t_none = sim.run(&none.sched).unwrap().latency_us();
            let t_auto = sim.run(&auto.sched).unwrap().latency_us();
            (t_none - t_auto) / t_none
        };
        let g2 = gain(2);
        let g16 = gain(16);
        assert!(g2 > g16, "gain should decay: {g2} vs {g16}");
    }

    #[test]
    fn single_rank_is_self_copy_only() {
        let built = build_mha_intra(ProcGrid::single_node(1), 16, Offload::Auto, &thor()).unwrap();
        assert_eq!(built.sched.ops().len(), 1);
    }
}
