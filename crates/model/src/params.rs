//! The cost-model parameter set — the paper's Table 1.
//!
//! | symbol | field | description |
//! |---|---|---|
//! | `N` | (argument) | number of nodes |
//! | `L` | (argument) | processes per node |
//! | `M` | (argument) | message size |
//! | `H` | [`ModelParams::h`] | number of adapters |
//! | `α_C` | [`ModelParams::alpha_c`] | startup per intra-node transfer |
//! | `BW_C` | [`ModelParams::bw_c`] | bandwidth of an intra-node transfer |
//! | `α_H` | [`ModelParams::alpha_h`] | startup per inter-node transfer |
//! | `BW_H` | [`ModelParams::bw_h`] | bandwidth of one rail |
//! | `α_L` | [`ModelParams::alpha_l`] | startup per local memcpy |
//! | `BW_L` | [`ModelParams::bw_l`] | bandwidth of a local memcpy |
//! | `b` | inside [`ModelParams::t_c`] | CMA memory-congestion multiplier |
//! | `cg(M,k)` | [`ModelParams::cg`] | copy-out congestion factor |
//!
//! `T_C`, `T_H` and `T_L` (Table 1's time helpers) are methods.

use mha_simnet::ClusterSpec;

/// Calibrated cost-model parameters (all times in seconds, bandwidths in
/// bytes/second).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// Startup time per intra-node (CMA) transfer — `α_C`.
    pub alpha_c: f64,
    /// Bandwidth of one uncontended intra-node transfer — `BW_C`.
    pub bw_c: f64,
    /// Startup time per inter-node transfer — `α_H` (small messages).
    pub alpha_h: f64,
    /// Additional startup for rendezvous-sized messages.
    pub alpha_h_rndv: f64,
    /// Rendezvous threshold in bytes.
    pub rndv_threshold: usize,
    /// Bandwidth of one rail — `BW_H`.
    pub bw_h: f64,
    /// Number of adapters — `H`.
    pub h: u32,
    /// Startup cost per local memory copy — `α_L`.
    pub alpha_l: f64,
    /// Bandwidth of one uncontended local memory copy — `BW_L`.
    pub bw_l: f64,
    /// Aggregate per-node memory bandwidth (drives `b` and `cg`).
    pub mem_bw: f64,
    /// Memory load of one CMA byte relative to a memcpy byte.
    pub cma_mem_weight: f64,
}

impl ModelParams {
    /// Parameters taken directly from a cluster specification (the
    /// "datasheet" calibration; [`crate::calibrate`] measures them from
    /// the simulator instead).
    pub fn from_spec(spec: &ClusterSpec) -> Self {
        ModelParams {
            alpha_c: spec.cma_alpha,
            bw_c: spec.cma_bw,
            alpha_h: spec.rail_alpha,
            alpha_h_rndv: spec.rndv_extra,
            rndv_threshold: spec.rndv_threshold,
            bw_h: spec.rail_bw,
            h: u32::from(spec.rails),
            alpha_l: spec.copy_alpha,
            bw_l: spec.copy_bw,
            mem_bw: spec.mem_bw,
            cma_mem_weight: spec.cma_mem_weight,
        }
    }

    /// Startup of an inter-node message of `m` bytes.
    pub fn rail_startup(&self, m: usize) -> f64 {
        if m >= self.rndv_threshold {
            self.alpha_h + self.alpha_h_rndv
        } else {
            self.alpha_h
        }
    }

    /// `T_H(M) = α_H + M / (BW_H · H)` — a transfer striped over all rails.
    pub fn t_h(&self, m: usize) -> f64 {
        self.rail_startup(m) + m as f64 / (self.bw_h * f64::from(self.h))
    }

    /// Congestion multiplier `b` for `l` concurrent CMA streams on one node
    /// (Table 1: "number of concurrent accesses to memory" once the memory
    /// is saturated; 1 for small concurrency).
    fn b_factor(&self, l: u32) -> f64 {
        let demand = f64::from(l) * self.cma_mem_weight * self.bw_c;
        (demand / self.mem_bw).max(1.0)
    }

    /// `T_C(M) = α_C + (M / BW_C) · b` with `b` for `l` concurrent streams.
    pub fn t_c(&self, m: usize, l: u32) -> f64 {
        self.alpha_c + m as f64 / self.bw_c * self.b_factor(l)
    }

    /// Uncontended `T_C` (b = 1) — what Eq. 1 uses.
    pub fn t_c1(&self, m: usize) -> f64 {
        self.t_c(m, 1)
    }

    /// `T_L(M) = α_L + M / BW_L` — one local memory copy.
    pub fn t_l(&self, m: usize) -> f64 {
        self.alpha_l + m as f64 / self.bw_l
    }

    /// Copy-out congestion factor `cg(M, k)`: the slowdown when `k`
    /// processes concurrently copy out of a shared region. Empirically a
    /// function of how far `k` copy streams oversubscribe the memory
    /// system (independent of `M` in the fluid model once `M` is large).
    pub fn cg(&self, _m: usize, k: u32) -> f64 {
        if k == 0 {
            return 1.0;
        }
        (f64::from(k) * self.bw_l / self.mem_bw).max(1.0)
    }

    /// Sanity check.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("bw_c", self.bw_c),
            ("bw_h", self.bw_h),
            ("bw_l", self.bw_l),
            ("mem_bw", self.mem_bw),
            ("cma_mem_weight", self.cma_mem_weight),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        if self.h == 0 {
            return Err("h must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> ModelParams {
        ModelParams::from_spec(&ClusterSpec::thor())
    }

    #[test]
    fn from_spec_is_valid_and_mirrors_table1() {
        let p = p();
        p.validate().unwrap();
        assert_eq!(p.h, 2);
        assert!(p.bw_h > 0.0 && p.bw_c > 0.0 && p.bw_l > p.bw_c * 0.5);
    }

    #[test]
    fn t_h_scales_with_rail_count() {
        let spec1 = ClusterSpec::thor_single_rail();
        let spec2 = ClusterSpec::thor();
        let m = 4 << 20;
        let ratio = ModelParams::from_spec(&spec1).t_h(m) / ModelParams::from_spec(&spec2).t_h(m);
        assert!(ratio > 1.8 && ratio < 2.1);
    }

    #[test]
    fn b_factor_kicks_in_with_concurrency() {
        let p = p();
        assert_eq!(p.b_factor(1), 1.0);
        // 8 CMA streams at weight 2 oversubscribe 42 GB/s.
        assert!(p.b_factor(8) > 3.0);
        assert!(p.b_factor(16) > p.b_factor(8));
    }

    #[test]
    fn cg_grows_with_concurrent_readers() {
        let p = p();
        assert_eq!(p.cg(1 << 20, 0), 1.0);
        assert_eq!(p.cg(1 << 20, 1), 1.0);
        assert!(p.cg(1 << 20, 31) > 5.0);
    }

    #[test]
    fn rendezvous_raises_large_message_startup() {
        let p = p();
        assert!(p.rail_startup(64 * 1024) > p.rail_startup(1024));
    }

    #[test]
    fn rendezvous_cutoff_matches_the_simulator_at_the_boundary() {
        // The model must flip to rendezvous at exactly len == threshold,
        // like ClusterSpec::rail_startup, or predictions drift right at
        // the boundary.
        let p = p();
        assert_eq!(p.rail_startup(p.rndv_threshold - 1), p.alpha_h);
        assert_eq!(p.rail_startup(p.rndv_threshold), p.alpha_h + p.alpha_h_rndv);
        assert_eq!(
            p.rail_startup(p.rndv_threshold + 1),
            p.alpha_h + p.alpha_h_rndv
        );
    }

    #[test]
    fn invalid_params_rejected() {
        let mut bad = p();
        bad.h = 0;
        assert!(bad.validate().is_err());
        let mut bad = p();
        bad.bw_l = -1.0;
        assert!(bad.validate().is_err());
    }
}
