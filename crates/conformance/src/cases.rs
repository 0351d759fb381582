//! Random configuration sampling for the differential oracle.
//!
//! Each [`Case`] is a `(family, config, grid, message size)` tuple drawn
//! so that the config's structural preconditions hold (power-of-two rank
//! counts for recursive doubling, `groups | ppn` for multi-leader,
//! single-node grids for MHA-intra, …) — the oracle tests *correct*
//! configurations; rejection paths are covered by `tests/failure_modes.rs`.

use mha_collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha_collectives::Family as Algo;
use mha_collectives::{build, build_composed, AlgoConfig, BuildError, Built, ComposePlan};
use mha_sched::{ProcGrid, Topology};
use mha_simnet::ClusterSpec;
use rand::{rngs::StdRng, Rng};

/// The four collective families the oracle must cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Flat (single-level) algorithms: ring, recursive doubling, Bruck,
    /// direct spread.
    Flat,
    /// Two-level leader-based baselines: single-leader, multi-leader.
    TwoLevel,
    /// The paper's multi-HCA aware designs: MHA-intra, MHA-inter.
    Mha,
    /// Composer-built hierarchical designs over random ≥ 3-level topology
    /// trees (the N-level generalization of the NUMA-aware design).
    Hier,
}

impl Family {
    /// All families, in a fixed order (used for round-robin coverage).
    pub const ALL: [Family; 4] = [Family::Flat, Family::TwoLevel, Family::Mha, Family::Hier];

    /// Dense index into per-family counters.
    pub fn index(self) -> usize {
        match self {
            Family::Flat => 0,
            Family::TwoLevel => 1,
            Family::Mha => 2,
            Family::Hier => 3,
        }
    }
}

/// One randomly drawn oracle configuration.
#[derive(Debug, Clone)]
pub struct Case {
    /// The family the algorithm belongs to.
    pub family: Family,
    /// The allgather configuration under test ([`Family::Hier`] cases
    /// build through `tree` instead; `cfg` then mirrors the exchange
    /// choice).
    pub cfg: AlgoConfig,
    /// Process layout (the tree's flattening for [`Family::Hier`]).
    pub grid: ProcGrid,
    /// Per-rank contribution size in bytes.
    pub msg: usize,
    /// For [`Family::Hier`]: the topology tree and per-level plan the
    /// generic composer builds. `None` everywhere else.
    pub tree: Option<(Topology, ComposePlan)>,
}

impl Case {
    /// Builds the case's schedule: through the generic composer when a
    /// tree is attached, through the `AlgoConfig` dispatcher otherwise.
    pub fn build(&self, spec: &ClusterSpec) -> Result<Built, BuildError> {
        match &self.tree {
            Some((topo, plan)) => build_composed(topo, self.msg, plan, spec),
            None => build(&self.cfg, self.grid, self.msg, spec),
        }
    }

    /// A short, greppable description for disagreement reports.
    pub fn describe(&self) -> String {
        if let Some((topo, plan)) = &self.tree {
            let shape: Vec<String> = topo.levels().iter().map(|l| l.fanout.to_string()).collect();
            return format!(
                "{:?}/{} tree={} msg={}",
                self.family,
                plan.name(),
                shape.join("x"),
                self.msg
            );
        }
        format!(
            "{:?}/[{}] {}x{} msg={}",
            self.family,
            self.cfg.to_kv(),
            self.grid.nodes(),
            self.grid.ppn(),
            self.msg
        )
    }
}

const MSGS: [usize; 4] = [64, 256, 1024, 4096];
const PPNS: [u32; 4] = [1, 2, 4, 8];

fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

/// Draws a random ≥ 3-level topology tree plus a matching hierarchical
/// plan: exchange at the top, one import round per middle level, gather
/// at the leaves. Recursive doubling constrains the node count to a
/// power of two; everything else is free.
fn sample_hier(rng: &mut StdRng, msg: usize) -> Case {
    let inter = if rng.gen_range(0..2u32) == 0 {
        InterAlgo::Ring
    } else {
        InterAlgo::RecursiveDoubling
    };
    let nodes = match inter {
        InterAlgo::Ring => rng.gen_range(2..=3),
        InterAlgo::RecursiveDoubling => pick(rng, &[2u32, 4]),
    };
    let depth = rng.gen_range(3..=4usize);
    let mut fanouts = vec![nodes];
    for _ in 1..depth - 1 {
        fanouts.push(rng.gen_range(1..=2));
    }
    fanouts.push(rng.gen_range(1..=4));
    let topo = Topology::from_fanouts(&fanouts);
    let overlap = rng.gen_range(0..2u32) == 0;
    let import_offload = rng.gen_range(0..2u32) == 0;
    let gather = if rng.gen_range(0..2u32) == 0 {
        Offload::None
    } else {
        Offload::Auto
    };
    let plan = ComposePlan::hierarchical(depth, inter, overlap, import_offload, gather);
    Case {
        family: Family::Hier,
        cfg: AlgoConfig::mha_inter(MhaInterConfig {
            inter,
            offload: gather,
            overlap,
        }),
        grid: topo.flatten(),
        msg,
        tree: Some((topo, plan)),
    }
}

/// Draws one valid configuration from `family`.
pub fn sample_case(rng: &mut StdRng, family: Family) -> Case {
    let msg = pick(rng, &MSGS);
    if family == Family::Hier {
        return sample_hier(rng, msg);
    }
    let (cfg, grid) = match family {
        Family::Flat => match rng.gen_range(0..4u32) {
            0 => (
                AlgoConfig::flat(Algo::Ring),
                ProcGrid::new(rng.gen_range(1..=4), pick(rng, &PPNS)),
            ),
            1 => (
                // Power-of-two nodes × power-of-two ppn → power-of-two ranks.
                AlgoConfig::flat(Algo::RecursiveDoubling),
                ProcGrid::new(pick(rng, &[1, 2, 4]), pick(rng, &PPNS)),
            ),
            2 => (
                AlgoConfig::flat(Algo::Bruck),
                ProcGrid::new(rng.gen_range(1..=4), pick(rng, &PPNS)),
            ),
            _ => (
                AlgoConfig::flat(Algo::DirectSpread),
                ProcGrid::new(rng.gen_range(1..=4), pick(rng, &PPNS)),
            ),
        },
        Family::TwoLevel => {
            if rng.gen_range(0..2u32) == 0 {
                (
                    AlgoConfig::flat(Algo::SingleLeader),
                    ProcGrid::new(pick(rng, &[1, 2, 4]), pick(rng, &[2, 4, 8])),
                )
            } else {
                let ppn = pick(rng, &[2u32, 4, 8]);
                let divisors: Vec<u32> = (1..=ppn).filter(|g| ppn.is_multiple_of(*g)).collect();
                (
                    AlgoConfig::flat(Algo::MultiLeader {
                        groups: pick(rng, &divisors),
                    }),
                    ProcGrid::new(rng.gen_range(1..=4), ppn),
                )
            }
        }
        Family::Mha => {
            if rng.gen_range(0..2u32) == 0 {
                let ppn = pick(rng, &[2u32, 4, 8]);
                let offload = if rng.gen_range(0..2u32) == 0 {
                    Offload::Auto
                } else {
                    Offload::Fixed(rng.gen_range(0..ppn))
                };
                (AlgoConfig::mha_intra(offload), ProcGrid::single_node(ppn))
            } else {
                let inter = if rng.gen_range(0..2u32) == 0 {
                    InterAlgo::Ring
                } else {
                    InterAlgo::RecursiveDoubling
                };
                let nodes = match inter {
                    InterAlgo::Ring => rng.gen_range(2..=4),
                    InterAlgo::RecursiveDoubling => pick(rng, &[2u32, 4]),
                };
                (
                    AlgoConfig::mha_inter(MhaInterConfig {
                        inter,
                        offload: Offload::Auto,
                        overlap: rng.gen_range(0..2u32) == 0,
                    }),
                    ProcGrid::new(nodes, pick(rng, &[2u32, 4, 8])),
                )
            }
        }
        Family::Hier => unreachable!("handled above"),
    };
    Case {
        family,
        cfg,
        grid,
        msg,
        tree: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mha_simnet::ClusterSpec;
    use rand::SeedableRng;

    #[test]
    fn sampled_cases_always_build() {
        let spec = ClusterSpec::thor();
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..120 {
            let case = sample_case(&mut rng, Family::ALL[i % Family::ALL.len()]);
            case.build(&spec)
                .unwrap_or_else(|e| panic!("{} failed to build: {e:?}", case.describe()));
        }
    }
}
