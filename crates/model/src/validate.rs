//! Model validation against the simulator (Section 4.3, Figures 9–10).
//!
//! The paper validates its equations against Thor measurements; our
//! "measurement" is the discrete-event simulator, so these helpers sweep a
//! message-size range, price each point both ways, and report
//! predicted-vs-actual pairs plus summary error statistics.

use mha_collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha_collectives::{build, AlgoConfig};
use mha_sched::ProcGrid;
use mha_simnet::{ClusterSpec, SimError, Simulator};

use crate::inter::{mha_inter_latency, Phase2};
use crate::intra::mha_intra_latency_auto;
use crate::params::ModelParams;

/// One predicted-vs-actual point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationPoint {
    /// Per-rank message size (bytes).
    pub msg: usize,
    /// Model prediction (µs).
    pub predicted_us: f64,
    /// Simulated "measurement" (µs).
    pub actual_us: f64,
}

impl ValidationPoint {
    /// |predicted − actual| / actual.
    pub fn rel_error(&self) -> f64 {
        (self.predicted_us - self.actual_us).abs() / self.actual_us.max(1e-12)
    }
}

/// A validation failure.
#[derive(Debug)]
pub enum ModelError {
    /// The collective failed to build.
    Build(mha_collectives::BuildError),
    /// Simulation failed.
    Sim(SimError),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Build(e) => write!(f, "build failed: {e}"),
            ModelError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<mha_collectives::BuildError> for ModelError {
    fn from(e: mha_collectives::BuildError) -> Self {
        ModelError::Build(e)
    }
}

impl From<SimError> for ModelError {
    fn from(e: SimError) -> Self {
        ModelError::Sim(e)
    }
}

/// Figure 9: MHA-intra predicted vs simulated latency for `l` processes
/// across `sizes`.
pub fn validate_intra(
    spec: &ClusterSpec,
    p: &ModelParams,
    l: u32,
    sizes: &[usize],
) -> Result<Vec<ValidationPoint>, ModelError> {
    let sim = Simulator::new(spec.clone())?;
    let grid = ProcGrid::single_node(l);
    let mut out = Vec::with_capacity(sizes.len());
    for &m in sizes {
        let built = build(&AlgoConfig::mha_intra(Offload::Auto), grid, m, spec)?;
        let actual_us = sim.run(&built.sched)?.latency_us();
        let predicted_us = mha_intra_latency_auto(p, l, m) * 1e6;
        out.push(ValidationPoint {
            msg: m,
            predicted_us,
            actual_us,
        });
    }
    Ok(out)
}

/// Figure 10: MHA-inter (tuned Ring/RD, matching the paper's procedure)
/// predicted vs simulated latency for `n × l` across `sizes`.
pub fn validate_inter(
    spec: &ClusterSpec,
    p: &ModelParams,
    n: u32,
    l: u32,
    sizes: &[usize],
) -> Result<Vec<ValidationPoint>, ModelError> {
    let sim = Simulator::new(spec.clone())?;
    let grid = ProcGrid::new(n, l);
    let mut out = Vec::with_capacity(sizes.len());
    for &m in sizes {
        let mut best_actual = f64::INFINITY;
        let mut best_pred = f64::INFINITY;
        let mut algos = vec![InterAlgo::Ring];
        if n.is_power_of_two() {
            algos.push(InterAlgo::RecursiveDoubling);
        }
        for inter in algos {
            let cfg = MhaInterConfig {
                inter,
                offload: Offload::Auto,
                overlap: true,
            };
            let built = build(&AlgoConfig::mha_inter(cfg), grid, m, spec)?;
            let actual = sim.run(&built.sched)?.latency_us();
            let phase2 = match inter {
                InterAlgo::Ring => Phase2::Ring,
                InterAlgo::RecursiveDoubling => Phase2::RecursiveDoubling,
            };
            let pred = mha_inter_latency(p, n, l, m, phase2) * 1e6;
            if actual < best_actual {
                best_actual = actual;
            }
            if pred < best_pred {
                best_pred = pred;
            }
        }
        out.push(ValidationPoint {
            msg: m,
            predicted_us: best_pred,
            actual_us: best_actual,
        });
    }
    Ok(out)
}

/// Mean relative error across points.
pub fn mean_rel_error(points: &[ValidationPoint]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    points.iter().map(ValidationPoint::rel_error).sum::<f64>() / points.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrate;

    fn sizes() -> Vec<usize> {
        mha_simnet::size_sweep(256 * 1024, 16 << 20)
    }

    #[test]
    fn intra_model_tracks_simulator_fig9() {
        // Figure 9's setting: 4 processes, 256 KB – 16 MB.
        let spec = ClusterSpec::thor();
        let p = calibrate(&spec).unwrap();
        let points = validate_intra(&spec, &p, 4, &sizes()).unwrap();
        let err = mean_rel_error(&points);
        assert!(err < 0.25, "mean relative error {err}: {points:?}");
        // Both curves rise monotonically.
        for w in points.windows(2) {
            assert!(w[1].actual_us > w[0].actual_us);
            assert!(w[1].predicted_us > w[0].predicted_us);
        }
    }

    #[test]
    fn inter_model_tracks_simulator_fig10() {
        // Figure 10's setting (scaled down for test time): 8 nodes.
        let spec = ClusterSpec::thor();
        let p = calibrate(&spec).unwrap();
        let sizes = mha_simnet::size_sweep(1024, 1 << 20);
        let points = validate_inter(&spec, &p, 8, 8, &sizes).unwrap();
        let err = mean_rel_error(&points);
        assert!(err < 0.5, "mean relative error {err}: {points:?}");
    }

    #[test]
    fn rel_error_is_symmetric_enough() {
        let pt = ValidationPoint {
            msg: 1,
            predicted_us: 110.0,
            actual_us: 100.0,
        };
        assert!((pt.rel_error() - 0.1).abs() < 1e-12);
        assert_eq!(mean_rel_error(&[]), 0.0);
    }
}
