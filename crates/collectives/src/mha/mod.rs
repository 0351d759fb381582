//! The paper's multi-HCA aware Allgather designs (Section 3).
//!
//! MHA-intra ([`build_mha_intra`]) and MHA-inter are built through
//! [`crate::build`]: [`crate::AlgoConfig::mha_intra`] and
//! [`crate::AlgoConfig::mha_inter`] name them, and the config's
//! `down_rails` field gives the failure-aware MHA-inter exchange over the
//! surviving rails. This module holds their knobs ([`MhaInterConfig`],
//! [`Offload`]) and the Eq. 1 offload sizing.
//!
//! The 3-level NUMA-aware variant — the paper's stated future work: *"We
//! can have a 3-level design with the overlapping of intra-socket,
//! inter-socket, and inter-node communication"* (Section 7) — lives here
//! as [`build_mha_numa3`], a thin wrapper instantiating the generic
//! composer on the (node × socket × rank) topology tree with the
//! `[Exchange, Import, Gather]` plan (see [`crate::ComposePlan::numa3`]).

mod inter;
mod intra;
mod offload;

pub(crate) use inter::emit_mha_inter;
pub use inter::{InterAlgo, MhaInterConfig};
pub use intra::build_mha_intra;
pub use offload::{optimal_offload, resolve_offload, tune_offload, Offload, OffloadSweep};

use mha_sched::{ProcGrid, Topology};
use mha_simnet::ClusterSpec;

use crate::compose::{emit_plan, ComposePlan};
use crate::ctx::{BuildError, Built, Ctx};

/// Configuration of the 3-level design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Numa3Config {
    /// Import other-socket regions via NIC loopback (true — the
    /// multi-HCA-aware choice) or over the inter-socket link (false).
    pub offload_xsocket: bool,
}

impl Default for Numa3Config {
    fn default() -> Self {
        Numa3Config {
            offload_xsocket: true,
        }
    }
}

/// Builds the 3-level NUMA-aware Allgather: intra-socket Direct Spread,
/// one inter-socket import per region (across the interconnect once, or
/// offloaded to the HCAs), and the overlapped inter-node Ring exchange
/// distributing through per-socket shm segments homed on their sockets.
///
/// # Errors
///
/// [`BuildError::BadParameter`] unless the cluster spec carries a NUMA
/// layout and the socket count divides the processes per node.
pub fn build_mha_numa3(
    grid: ProcGrid,
    msg: usize,
    cfg: Numa3Config,
    spec: &ClusterSpec,
) -> Result<Built, BuildError> {
    let Some(numa) = spec.numa.as_ref() else {
        return Err(BuildError::BadParameter(
            "the 3-level design needs a cluster spec with NUMA modeling (ClusterSpec::thor_numa)"
                .into(),
        ));
    };
    let l = grid.ppn();
    let s = numa.sockets;
    if !l.is_multiple_of(s) {
        return Err(BuildError::BadParameter(format!(
            "{s} sockets do not divide {l} processes per node"
        )));
    }
    let mut ctx = Ctx::new(grid, msg, "mha-numa3");
    let topo = Topology::three_level(grid.nodes(), s, l / s);
    emit_plan(
        &mut ctx,
        &topo,
        &ComposePlan::numa3(cfg.offload_xsocket),
        Some(spec),
        None,
    )?;
    Ok(ctx.finish())
}

#[cfg(test)]
mod numa3_tests {
    use super::*;
    use crate::flat::testutil::assert_allgather_correct;
    use mha_simnet::Simulator;

    fn numa_spec() -> ClusterSpec {
        ClusterSpec::thor_numa()
    }

    #[test]
    fn numa3_is_correct() {
        for (nodes, ppn) in [(1u32, 4u32), (1, 8), (2, 4), (3, 4), (4, 8), (2, 2)] {
            let built = build_mha_numa3(
                ProcGrid::new(nodes, ppn),
                24,
                Numa3Config::default(),
                &numa_spec(),
            )
            .unwrap();
            assert_allgather_correct(&built);
        }
    }

    #[test]
    fn numa3_without_offload_is_also_correct() {
        let built = build_mha_numa3(
            ProcGrid::new(2, 8),
            16,
            Numa3Config {
                offload_xsocket: false,
            },
            &numa_spec(),
        )
        .unwrap();
        assert_allgather_correct(&built);
    }

    #[test]
    fn numa3_requires_numa_spec_and_divisible_ppn() {
        assert!(matches!(
            build_mha_numa3(
                ProcGrid::new(2, 4),
                8,
                Numa3Config::default(),
                &ClusterSpec::thor()
            ),
            Err(BuildError::BadParameter(_))
        ));
        assert!(matches!(
            build_mha_numa3(ProcGrid::new(2, 5), 8, Numa3Config::default(), &numa_spec()),
            Err(BuildError::BadParameter(_))
        ));
    }

    #[test]
    fn numa3_beats_numa_blind_mha_inter_on_numa_hardware() {
        // The point of the future-work design: on a NUMA node, the 2-level
        // design's phase 1 bounces half its CMA fetches across the
        // interconnect; the 3-level design crosses it once per region.
        let spec = numa_spec();
        let sim = Simulator::new(spec.clone()).unwrap();
        let grid = ProcGrid::new(2, 16);
        let msg = 512 * 1024;
        let blind = crate::build(&crate::AlgoConfig::default(), grid, msg, &spec).unwrap();
        let aware = build_mha_numa3(grid, msg, Numa3Config::default(), &spec).unwrap();
        let t_blind = sim.run(&blind.sched).unwrap().latency_us();
        let t_aware = sim.run(&aware.sched).unwrap().latency_us();
        assert!(
            t_aware < t_blind,
            "numa3 {t_aware} should beat numa-blind {t_blind}"
        );
    }

    #[test]
    fn numa3_matches_2level_when_interconnect_is_free() {
        // With an (unphysically) fast interconnect the two designs price
        // similarly — the gap really is the cross-socket path.
        let mut spec = numa_spec();
        if let Some(numa) = spec.numa.as_mut() {
            numa.xsocket_bw = 1e12;
            numa.xsocket_alpha = 0.0;
        }
        let sim = Simulator::new(spec.clone()).unwrap();
        let grid = ProcGrid::new(2, 8);
        let msg = 256 * 1024;
        let blind = crate::build(&crate::AlgoConfig::default(), grid, msg, &spec).unwrap();
        let aware = build_mha_numa3(grid, msg, Numa3Config::default(), &spec).unwrap();
        let t_blind = sim.run(&blind.sched).unwrap().latency_us();
        let t_aware = sim.run(&aware.sched).unwrap().latency_us();
        let ratio = t_aware / t_blind;
        assert!(ratio < 1.3, "ratio {ratio}");
    }

    #[test]
    fn single_node_numa3_works_as_socket_hierarchy() {
        let spec = numa_spec();
        let sim = Simulator::new(spec.clone()).unwrap();
        let built = build_mha_numa3(
            ProcGrid::new(1, 16),
            64 * 1024,
            Numa3Config::default(),
            &spec,
        )
        .unwrap();
        assert_allgather_correct(&built);
        assert!(sim.run(&built.sched).unwrap().makespan > 0.0);
    }
}
