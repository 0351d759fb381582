//! Distributed Bayesian Probabilistic Matrix Factorization — one of the
//! Allgather-bound applications the paper's introduction motivates
//! (Vander Aa et al. \[39\]: "Distributed Bayesian probabilistic matrix
//! factorization", whose per-iteration communication is an Allgather of
//! the freshly sampled item factors).
//!
//! The model: factorize an `users × items` ratings matrix as `U · Vᵀ` with
//! latent dimension `k`. Items are block-partitioned across ranks; every
//! Gibbs iteration each rank samples its item block's factors (dense
//! `k × k` solves per item) and then **allgathers V** so everyone can
//! sample their user block next. Iteration time = Allgather(V) + local
//! sampling compute, which makes the collective's latency directly visible
//! in samples/second — same shape as the paper's matvec experiment, at a
//! different compute/communication ratio.

use mha_sched::ProcGrid;
use mha_simnet::ClusterSpec;

use crate::osu::{AppError, Contestant};

/// Problem description.
#[derive(Debug, Clone, Copy)]
pub struct BpmfConfig {
    /// Users (rows of the ratings matrix).
    pub users: usize,
    /// Items (columns).
    pub items: usize,
    /// Latent dimension.
    pub latent: usize,
    /// Observed ratings per item on average (sparsity).
    pub ratings_per_item: usize,
    /// Process layout.
    pub grid: ProcGrid,
}

impl BpmfConfig {
    /// A MovieLens-20M-scale default: 138k users × 27k items, k = 32.
    pub fn movielens(grid: ProcGrid) -> Self {
        BpmfConfig {
            users: 138_000,
            items: 27_000,
            latent: 32,
            ratings_per_item: 740,
            grid,
        }
    }

    /// Bytes of one rank's item-factor block (f64 factors, padded so every
    /// rank contributes equally).
    fn block_bytes(&self) -> usize {
        let r = self.grid.nranks() as usize;
        self.items.div_ceil(r) * self.latent * 8
    }

    /// FLOPs per Gibbs iteration per rank: for each local item, build and
    /// solve a `k × k` normal-equation system from its ratings
    /// (`2·n·k²` accumulate + `k³/3` Cholesky).
    fn flops_per_rank(&self) -> f64 {
        let r = self.grid.nranks() as usize;
        let local_items = self.items.div_ceil(r) as f64;
        let k = self.latent as f64;
        local_items * (2.0 * self.ratings_per_item as f64 * k * k + k * k * k / 3.0)
    }
}

/// Result of one simulated Gibbs iteration.
#[derive(Debug, Clone, Copy)]
pub struct BpmfResult {
    /// Gibbs samples (full sweeps) per second.
    pub samples_per_sec: f64,
    /// Allgather time (µs).
    pub comm_us: f64,
    /// Sampling compute time (µs).
    pub compute_us: f64,
    /// Fraction of the iteration spent communicating.
    pub comm_fraction: f64,
}

/// Simulates one Gibbs iteration under `contestant`'s Allgather.
pub fn run_bpmf_iteration(
    cfg: BpmfConfig,
    contestant: Contestant,
    spec: &ClusterSpec,
) -> Result<BpmfResult, AppError> {
    let comm_us = contestant.allgather_latency_us(cfg.grid, cfg.block_bytes(), spec)?;
    let compute_us = cfg.flops_per_rank() / spec.flops_rate * 1e6;
    let total_us = comm_us + compute_us;
    Ok(BpmfResult {
        samples_per_sec: 1e6 / total_us,
        comm_us,
        compute_us,
        comm_fraction: comm_us / total_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mha_collectives::Library;

    #[test]
    fn movielens_dimensions_are_sane() {
        let cfg = BpmfConfig::movielens(ProcGrid::new(8, 32));
        // 27000 / 256 → 106 items per rank, 32 doubles each.
        assert_eq!(cfg.block_bytes(), 106 * 32 * 8);
        assert!(cfg.flops_per_rank() > 1e8);
    }

    #[test]
    fn mha_increases_sampling_throughput() {
        let spec = ClusterSpec::thor();
        let cfg = BpmfConfig::movielens(ProcGrid::new(8, 32));
        let mva = run_bpmf_iteration(cfg, Contestant::Library(Library::Mvapich2X), &spec).unwrap();
        let mha = run_bpmf_iteration(cfg, Contestant::MhaTuned, &spec).unwrap();
        assert!(
            mha.samples_per_sec > mva.samples_per_sec,
            "mha {} vs mvapich {}",
            mha.samples_per_sec,
            mva.samples_per_sec
        );
    }

    #[test]
    fn communication_fraction_grows_with_scale() {
        // Strong scaling: compute shrinks per rank, the Allgather does not.
        let spec = ClusterSpec::thor();
        let small = run_bpmf_iteration(
            BpmfConfig::movielens(ProcGrid::new(2, 32)),
            Contestant::MhaTuned,
            &spec,
        )
        .unwrap();
        let large = run_bpmf_iteration(
            BpmfConfig::movielens(ProcGrid::new(16, 32)),
            Contestant::MhaTuned,
            &spec,
        )
        .unwrap();
        assert!(large.comm_fraction > small.comm_fraction);
        assert!(large.samples_per_sec > small.samples_per_sec);
    }

    #[test]
    fn results_are_internally_consistent() {
        let spec = ClusterSpec::thor();
        let r = run_bpmf_iteration(
            BpmfConfig::movielens(ProcGrid::new(4, 16)),
            Contestant::MhaTuned,
            &spec,
        )
        .unwrap();
        let total = r.comm_us + r.compute_us;
        assert!((r.samples_per_sec - 1e6 / total).abs() < 1e-9 * r.samples_per_sec);
        assert!((r.comm_fraction - r.comm_us / total).abs() < 1e-12);
    }
}
