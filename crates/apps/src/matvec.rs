//! Distributed matrix–vector multiplication (paper Section 5.5).
//!
//! `y = A·x` with `A` (rows × cols, f64) in 1-D row layout: each rank holds
//! `rows / R` rows and a `cols / R` segment of `x`. One iteration is an
//! Allgather of the `x` segments (all-to-all broadcast) followed by the
//! local GEMV — so the kernel's throughput is directly gated by Allgather
//! latency, which is what Figure 16 measures (GFLOP/s, higher is better).
//!
//! Timing comes from the simulator; numerical correctness of the
//! distributed algorithm is established separately by [`verify_matvec`],
//! which runs the Allgather on real data with `mha-exec` and checks the
//! distributed result against a serial GEMV.

use mha_collectives::Built;
use mha_sched::ProcGrid;
use mha_simnet::ClusterSpec;

use crate::osu::{AppError, Contestant};

/// Problem description for one matvec benchmark point.
#[derive(Debug, Clone, Copy)]
pub struct MatvecConfig {
    /// Rows of `A` (= length of `y`).
    pub rows: usize,
    /// Columns of `A` (= length of `x`).
    pub cols: usize,
    /// Process layout.
    pub grid: ProcGrid,
}

impl MatvecConfig {
    /// The paper's strong-scaling problem: `1024 × 32768`.
    pub fn strong_scaling(grid: ProcGrid) -> Self {
        MatvecConfig {
            rows: 1024,
            cols: 32768,
            grid,
        }
    }

    /// The paper's weak-scaling problem: columns grow with the rank count
    /// (`1024 × 32768` at 256 ranks, doubling per doubling of ranks).
    pub fn weak_scaling(grid: ProcGrid) -> Self {
        let cols = 32768 * (grid.nranks() as usize).div_ceil(256).max(1);
        MatvecConfig {
            rows: 1024,
            cols,
            grid,
        }
    }

    /// Per-rank Allgather contribution in bytes (f64 segment of `x`),
    /// padded so every rank contributes equally.
    pub fn seg_bytes(&self) -> usize {
        let r = self.grid.nranks() as usize;
        self.cols.div_ceil(r) * 8
    }

    /// Total useful floating-point work per iteration (2 flops per matrix
    /// element).
    fn total_flops(&self) -> u64 {
        2 * self.rows as u64 * self.cols as u64
    }
}

/// Result of one simulated matvec iteration.
#[derive(Debug, Clone, Copy)]
pub struct MatvecResult {
    /// Sustained GFLOP/s across all ranks (the Figure 16 metric).
    pub gflops: f64,
    /// Allgather time (µs).
    pub comm_us: f64,
    /// Local GEMV time (µs).
    pub compute_us: f64,
}

/// Simulates one matvec iteration under `contestant`'s Allgather.
///
/// The local GEMV is uniform across ranks and strictly follows the
/// Allgather, so the iteration time is the Allgather makespan plus the
/// per-rank GEMV at the cluster's streaming FLOP rate.
pub fn run_matvec(
    cfg: MatvecConfig,
    contestant: Contestant,
    spec: &ClusterSpec,
) -> Result<MatvecResult, AppError> {
    let comm_us = contestant.allgather_latency_us(cfg.grid, cfg.seg_bytes(), spec)?;
    let per_rank_flops = cfg.total_flops() as f64 / f64::from(cfg.grid.nranks());
    let compute_us = per_rank_flops / spec.flops_rate * 1e6;
    let total_s = (comm_us + compute_us) * 1e-6;
    Ok(MatvecResult {
        gflops: cfg.total_flops() as f64 / total_s / 1e9,
        comm_us,
        compute_us,
    })
}

/// Numerically verifies the distributed algorithm: runs the Allgather of
/// `x` segments on real bytes (threaded executor), performs each rank's
/// GEMV on the gathered vector, and compares the assembled `y` against a
/// serial reference. Returns the max absolute error.
pub fn verify_matvec(cfg: MatvecConfig, built: &Built) -> Result<f64, String> {
    use mha_exec::{run_threaded, BufferStore};
    let r = cfg.grid.nranks() as usize;
    let seg = cfg.seg_bytes() / 8; // elements per padded segment
    let cols_padded = seg * r;

    // x: deterministic values; padding elements are zero.
    let x: Vec<f64> = (0..cols_padded)
        .map(|i| {
            if i < cfg.cols {
                ((i % 17) as f64) - 8.0
            } else {
                0.0
            }
        })
        .collect();
    // A[i][j] = small deterministic values.
    let a = |i: usize, j: usize| (((i * 31 + j * 7) % 13) as f64) - 6.0;

    let store = BufferStore::new(&built.sched);
    for (rank, &buf) in built.send.iter().enumerate() {
        let seg_vals = &x[rank * seg..(rank + 1) * seg];
        let bytes: Vec<u8> = seg_vals.iter().flat_map(|v| v.to_ne_bytes()).collect();
        store.fill(buf, 0, &bytes);
    }
    run_threaded(&built.sched, &store, 4).map_err(|e| e.to_string())?;

    // Each rank computes its row block from its own gathered copy of x.
    let rows_per = cfg.rows.div_ceil(r);
    let mut y = vec![0.0f64; rows_per * r];
    for (rank, &buf) in built.recv.iter().enumerate() {
        let gathered = store.read(buf, 0, cols_padded * 8);
        let gx: Vec<f64> = gathered
            .chunks_exact(8)
            .map(|c| f64::from_ne_bytes(c.try_into().unwrap()))
            .collect();
        for local_row in 0..rows_per {
            let i = rank * rows_per + local_row;
            if i >= cfg.rows {
                break;
            }
            let mut acc = 0.0;
            for (j, xv) in gx.iter().enumerate().take(cfg.cols) {
                acc += a(i, j) * xv;
            }
            y[i] = acc;
        }
    }

    // Serial reference.
    let mut max_err = 0.0f64;
    for (i, yv) in y.iter().enumerate().take(cfg.rows) {
        let mut acc = 0.0;
        for (j, xv) in x.iter().enumerate().take(cfg.cols) {
            acc += a(i, j) * xv;
        }
        max_err = max_err.max((acc - yv).abs());
    }
    Ok(max_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mha_collectives::Library;

    #[test]
    fn strong_scaling_config_matches_paper() {
        let cfg = MatvecConfig::strong_scaling(ProcGrid::new(8, 32));
        assert_eq!((cfg.rows, cfg.cols), (1024, 32768));
        assert_eq!(cfg.seg_bytes(), 32768 / 256 * 8);
    }

    #[test]
    fn weak_scaling_doubles_columns_with_ranks() {
        let c256 = MatvecConfig::weak_scaling(ProcGrid::new(8, 32));
        let c512 = MatvecConfig::weak_scaling(ProcGrid::new(16, 32));
        let c1024 = MatvecConfig::weak_scaling(ProcGrid::new(32, 32));
        assert_eq!(c256.cols, 32768);
        assert_eq!(c512.cols, 65536);
        assert_eq!(c1024.cols, 131072);
    }

    #[test]
    fn mha_yields_higher_gflops_than_libraries() {
        // Figure 16's qualitative claim, at a reduced scale.
        let spec = ClusterSpec::thor();
        let cfg = MatvecConfig::strong_scaling(ProcGrid::new(8, 32));
        let mha = run_matvec(cfg, Contestant::MhaTuned, &spec).unwrap();
        let hpcx = run_matvec(cfg, Contestant::Library(Library::HpcX), &spec).unwrap();
        let mva = run_matvec(cfg, Contestant::Library(Library::Mvapich2X), &spec).unwrap();
        assert!(mha.gflops > hpcx.gflops);
        assert!(mha.gflops > mva.gflops);
        // At the paper's 256-rank scale, communication dominates the
        // baselines by construction (Section 5.5).
        assert!(hpcx.comm_us > hpcx.compute_us);
    }

    #[test]
    fn distributed_matvec_is_numerically_correct() {
        let spec = ClusterSpec::thor();
        let cfg = MatvecConfig {
            rows: 64,
            cols: 96,
            grid: ProcGrid::new(2, 3),
        };
        let built = mha_collectives::build(
            &mha_collectives::AlgoConfig::default(),
            cfg.grid,
            cfg.seg_bytes(),
            &spec,
        )
        .unwrap();
        let err = verify_matvec(cfg, &built).unwrap();
        assert!(err < 1e-9, "max error {err}");
    }

    #[test]
    fn distributed_matvec_correct_with_flat_ring_too() {
        let spec = ClusterSpec::thor();
        let cfg = MatvecConfig {
            rows: 32,
            cols: 40,
            grid: ProcGrid::new(2, 2),
        };
        let ring = mha_collectives::AlgoConfig::flat(mha_collectives::Family::Ring);
        let built = mha_collectives::build(&ring, cfg.grid, cfg.seg_bytes(), &spec).unwrap();
        let err = verify_matvec(cfg, &built).unwrap();
        assert!(err < 1e-9, "max error {err}");
    }
}
