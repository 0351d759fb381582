//! Workload mixes: what kind of collective a newly arrived job runs.
//!
//! A [`WorkloadMix`] is a weighted list of [`WorkloadEntry`]s; each entry
//! fixes an [`AlgoConfig`] and a node width and offers a palette of
//! message sizes. Sampling draws the entry by weight and the size
//! uniformly from its palette, consuming the traffic spec's seeded
//! generator — the same seed always produces the same job stream.

use mha_collectives::AlgoConfig;
use mha_sched::ProcGrid;
use rand::{rngs::StdRng, Rng};

/// One kind of job a tenant may submit.
#[derive(Debug, Clone)]
pub struct WorkloadEntry {
    /// The collective to build (coerced onto the job grid at sampling
    /// time, so any config is safe to list).
    pub cfg: AlgoConfig,
    /// Nodes the job asks for (whole-node placement at the cluster ppn).
    pub nodes: u32,
    /// Message-size palette in bytes (one drawn uniformly per job).
    pub msgs: Vec<usize>,
    /// Relative sampling weight (> 0).
    pub weight: f64,
}

impl WorkloadEntry {
    /// An entry with weight 1.
    pub fn new(cfg: AlgoConfig, nodes: u32, msgs: Vec<usize>) -> Self {
        WorkloadEntry {
            cfg,
            nodes,
            msgs,
            weight: 1.0,
        }
    }

    /// Replaces the weight (builder style).
    fn with_weight(mut self, weight: f64) -> Self {
        assert!(weight > 0.0 && weight.is_finite(), "bad weight {weight}");
        self.weight = weight;
        self
    }
}

/// A weighted set of job kinds.
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    entries: Vec<WorkloadEntry>,
}

impl WorkloadMix {
    /// A mix over `entries` (at least one, all weights positive, every
    /// entry with at least one message size and one node).
    pub fn new(entries: Vec<WorkloadEntry>) -> Self {
        assert!(!entries.is_empty(), "workload mix must have entries");
        for e in &entries {
            assert!(e.nodes >= 1, "entry asks for zero nodes");
            assert!(!e.msgs.is_empty(), "entry has no message sizes");
            assert!(e.weight > 0.0 && e.weight.is_finite(), "bad weight");
        }
        WorkloadMix { entries }
    }

    /// The paper-flavored default mix on a `cluster_nodes`-wide cluster:
    /// MHA-inter jobs at two widths plus a flat-ring background job, over
    /// the medium message range.
    pub fn paper_default(cluster_nodes: u32) -> Self {
        use mha_collectives::Family;
        let wide = cluster_nodes.max(2);
        let narrow = (cluster_nodes / 2).max(2).min(wide);
        let msgs = vec![1 << 10, 1 << 12, 1 << 14];
        WorkloadMix::new(vec![
            WorkloadEntry::new(AlgoConfig::default(), narrow, msgs.clone()).with_weight(2.0),
            WorkloadEntry::new(AlgoConfig::default(), wide, msgs.clone()),
            WorkloadEntry::new(AlgoConfig::flat(Family::Ring), narrow, msgs),
        ])
    }

    /// The entries, in declaration order.
    pub fn entries(&self) -> &[WorkloadEntry] {
        &self.entries
    }

    /// Draws one `(config, nodes, msg)` triple: the entry by weight, the
    /// size uniformly from its palette. The config is
    /// [`AlgoConfig::coerce_for`]-adjusted to the job grid so the draw is
    /// always buildable.
    pub fn sample(&self, ppn: u32, rng: &mut StdRng) -> (AlgoConfig, u32, usize) {
        let total: f64 = self.entries.iter().map(|e| e.weight).sum();
        let mut x = rng.gen_f64() * total;
        let mut idx = self.entries.len() - 1;
        for (i, e) in self.entries.iter().enumerate() {
            if x < e.weight {
                idx = i;
                break;
            }
            x -= e.weight;
        }
        let e = &self.entries[idx];
        let msg = e.msgs[rng.gen_range(0..e.msgs.len())];
        let grid = ProcGrid::new(e.nodes, ppn);
        (e.cfg.coerce_for(grid), e.nodes, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sampling_is_seed_deterministic_and_in_palette() {
        let mix = WorkloadMix::paper_default(8);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..16).map(|_| mix.sample(4, &mut rng)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(
            format!("{:?}", a),
            format!("{:?}", draw(3)),
            "same seed, same stream"
        );
        for (cfg, nodes, msg) in &a {
            assert!(*nodes >= 2 && *nodes <= 8);
            assert!([1usize << 10, 1 << 12, 1 << 14].contains(msg));
            assert!(cfg.valid_for(ProcGrid::new(*nodes, 4)), "coerced invalid");
        }
    }

    #[test]
    fn weights_bias_the_draw() {
        use mha_collectives::Family;
        let mix = WorkloadMix::new(vec![
            WorkloadEntry::new(AlgoConfig::flat(Family::Ring), 2, vec![64]).with_weight(99.0),
            WorkloadEntry::new(AlgoConfig::flat(Family::Bruck), 3, vec![64]),
        ]);
        let mut rng = StdRng::seed_from_u64(11);
        let wide = (0..200).filter(|_| mix.sample(2, &mut rng).1 == 2).count();
        assert!(wide > 150, "99:1 weighting should dominate, got {wide}/200");
    }
}
