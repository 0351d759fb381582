//! Cluster models: bandwidths, latencies and policies of the simulated
//! machine.
//!
//! The default [`ClusterSpec::thor`] preset is calibrated to the envelope the
//! paper measures on the HPC Advisory Council *Thor* cluster (Section 5.1 and
//! Figures 1/3): dual-socket 32-core Broadwell nodes, 2 × ConnectX-6 HDR100
//! rails, CMA intra-node copies whose bandwidth roughly equals one rail, and
//! a memory subsystem that congests when many ranks copy concurrently.

/// Static description of the simulated cluster hardware.
///
/// All bandwidths are in bytes/second, all latencies in seconds. The fields
/// map onto the paper's Table 1 notation where one exists.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// HCAs per node (`H`). Thor: 2.
    pub rails: u8,
    /// Peak bandwidth of one rail in one direction (`BW_H`).
    /// HDR100 ≈ 100 Gb/s ≈ 12.5 GB/s raw; ~12 GB/s at MPI level (Fig. 1).
    pub rail_bw: f64,
    /// Startup time of an inter-node transfer (`α_H`).
    pub rail_alpha: f64,
    /// Extra startup charged to rail messages at or above
    /// [`ClusterSpec::rndv_threshold`] — the rendezvous handshake
    /// (Section 2.3 mentions the protocol overheads this models).
    pub rndv_extra: f64,
    /// Message size (bytes) at which the rendezvous protocol kicks in.
    pub rndv_threshold: usize,
    /// Message size (bytes) at which the point-to-point layer stripes one
    /// message across all rails instead of placing it on one rail
    /// round-robin (Section 2.1: a rail saturates at 16 KB).
    pub stripe_threshold: usize,
    /// Bandwidth of a kernel-assisted single-copy intra-node transfer
    /// (`BW_C`). Approximately one rail's bandwidth on Thor (Fig. 1).
    pub cma_bw: f64,
    /// Startup time of a CMA transfer (`α_C`) — includes the syscall.
    pub cma_alpha: f64,
    /// Bandwidth of a plain local memcpy by one core (`BW_L`).
    pub copy_bw: f64,
    /// Startup cost of a local memcpy (`α_L`).
    pub copy_alpha: f64,
    /// Aggregate memory bandwidth of one node available to copy engines.
    /// When concurrent copies exceed `mem_bw / copy_bw` streams, each gets a
    /// fair share — this is what produces the paper's congestion factor
    /// `cg(M, L-1)` and the `b` factor in `T_C`.
    pub mem_bw: f64,
    /// Sustained floating-point rate of one core (used by `Compute` ops;
    /// matvec is memory-bound so this is a streaming-FLOP rate, not peak).
    pub flops_rate: f64,
    /// CPU cores per node; `ppn` may not exceed this.
    pub cores_per_node: u32,
    /// How hard one CMA payload byte loads the node memory system relative
    /// to one streaming shm-memcpy byte. Kernel-assisted copies
    /// (`process_vm_readv`) walk and touch both processes' pages through
    /// kernel mappings without non-temporal stores, so under concurrency
    /// they saturate DRAM roughly twice as fast per payload byte as a
    /// tuned shared-memory memcpy — this is the mechanism behind the
    /// paper's observation that the flat algorithms are "bottlenecked by
    /// the slowest links — intra-node transfers" (Section 1.1) while the
    /// shm-pipeline designs are not.
    pub cma_mem_weight: f64,
    /// Memory load of one reduction byte relative to a memcpy byte
    /// (read + read + write ≈ 1.5 × a copy's read + write).
    pub reduce_mem_weight: f64,
    /// Optional NUMA layout. `None` (the paper-reproduction default) models
    /// each node's memory as one uniform resource; `Some` splits it across
    /// sockets and adds a cross-socket interconnect — the substrate for the
    /// paper's future-work 3-level design (Section 7).
    pub numa: Option<crate::numa::NumaSpec>,
}

impl ClusterSpec {
    /// The Thor-like preset used for every paper experiment.
    pub fn thor() -> Self {
        ClusterSpec {
            rails: 2,
            rail_bw: 12.0e9,
            rail_alpha: 1.6e-6,
            rndv_extra: 2.0e-6,
            rndv_threshold: 16 * 1024,
            stripe_threshold: 16 * 1024,
            cma_bw: 11.0e9,
            cma_alpha: 0.8e-6,
            copy_bw: 13.0e9,
            copy_alpha: 0.3e-6,
            mem_bw: 42.0e9,
            flops_rate: 5.0e9,
            cores_per_node: 32,
            cma_mem_weight: 2.0,
            reduce_mem_weight: 1.5,
            numa: None,
        }
    }

    /// The Thor preset with its dual-socket Broadwell NUMA layout made
    /// visible (per-socket memory controllers + UPI link). Used by the
    /// future-work 3-level experiments; the paper-reproduction figures use
    /// the NUMA-blind [`ClusterSpec::thor`].
    pub fn thor_numa() -> Self {
        ClusterSpec {
            numa: Some(crate::numa::NumaSpec::broadwell_2s()),
            ..Self::thor()
        }
    }

    /// Sockets per node (1 when NUMA modeling is off).
    pub fn sockets(&self) -> u32 {
        self.numa.as_ref().map_or(1, |n| n.sockets)
    }

    /// A single-rail variant of [`ClusterSpec::thor`] — the "1 HCA" series
    /// of Figures 1 and 3.
    pub fn thor_single_rail() -> Self {
        ClusterSpec {
            rails: 1,
            ..Self::thor()
        }
    }

    /// A Thor-like cluster with `rails` HCAs per node (the ThetaGPU
    /// motivation: up to 8 rails).
    pub fn thor_with_rails(rails: u8) -> Self {
        assert!(rails > 0, "a cluster needs at least one rail");
        ClusterSpec {
            rails,
            ..Self::thor()
        }
    }

    /// Effective per-flow cap of a `Reduce` op's CPU stream: a reduction
    /// reads two streams and writes one, so it moves roughly twice the bytes
    /// of a plain copy per output byte.
    pub fn reduce_bw(&self) -> f64 {
        self.copy_bw / 2.0
    }

    /// Startup latency charged to a rail message of `len` bytes.
    pub fn rail_startup(&self, len: usize) -> f64 {
        if len >= self.rndv_threshold {
            self.rail_alpha + self.rndv_extra
        } else {
            self.rail_alpha
        }
    }

    /// Whether the point-to-point layer stripes a message of `len` bytes.
    pub fn stripes(&self, len: usize) -> bool {
        self.rails > 1 && len >= self.stripe_threshold
    }

    /// Ideal time for a message of `len` bytes over all rails combined —
    /// the `T_H(M) = α_H + M / (BW_H · H)` of the paper's Table 1.
    pub fn t_h(&self, len: usize) -> f64 {
        self.rail_startup(len) + len as f64 / (self.rail_bw * f64::from(self.rails))
    }

    /// Ideal time of an uncontended CMA transfer — Table 1's
    /// `T_C(M) = α_C + M / BW_C` with `b = 1`.
    pub fn t_c(&self, len: usize) -> f64 {
        self.cma_alpha + len as f64 / self.cma_bw
    }

    /// Ideal time of an uncontended local memcpy — Table 1's
    /// `T_L(M) = α_L + M / BW_L`.
    pub fn t_l(&self, len: usize) -> f64 {
        self.copy_alpha + len as f64 / self.copy_bw
    }

    /// The [`mha_sched::Topology`] this spec induces on `grid`, with each
    /// level carrying its real link parameters: the node level gets the
    /// rail fabric, the (optional) socket level the NUMA interconnect, and
    /// the rank level the CMA path. The socket level appears only when the
    /// spec models NUMA with more than one socket *and* the socket count
    /// divides the ppn — otherwise the tree degrades to the classic
    /// two-level (node × rank) shape, so callers can thread the result
    /// straight into the composer or a cache key without special-casing.
    pub fn topology_of(&self, grid: &mha_sched::ProcGrid) -> mha_sched::Topology {
        use mha_sched::TopoLevel;
        let node =
            TopoLevel::new(grid.nodes()).with_link(self.rails, self.rail_bw, self.rail_alpha);
        match &self.numa {
            Some(n) if n.sockets > 1 && grid.ppn().is_multiple_of(n.sockets) => {
                mha_sched::Topology::new(vec![
                    node,
                    TopoLevel::new(n.sockets).with_link(1, n.xsocket_bw, n.xsocket_alpha),
                    TopoLevel::new(grid.ppn() / n.sockets).with_link(
                        1,
                        self.cma_bw,
                        self.cma_alpha,
                    ),
                ])
            }
            _ => mha_sched::Topology::new(vec![
                node,
                TopoLevel::new(grid.ppn()).with_link(1, self.cma_bw, self.cma_alpha),
            ]),
        }
    }

    /// A stable structural digest of everything that affects simulated
    /// timing (see [`mha_sched::Fingerprinter`] for the guarantees). Two
    /// specs with equal digests price any schedule identically; the
    /// schedule-cache key (`mha_bench::campaign::ConfigKey`) folds it in.
    pub fn digest(&self) -> u64 {
        self.digest_with_stripe(self.stripe_threshold)
    }

    /// The digest as `sch` sees the spec: [`ClusterSpec::digest`] with the
    /// stripe threshold replaced by the smallest `AllRails` transfer length
    /// in `sch` that [`ClusterSpec::stripes`] accepts (`usize::MAX` when
    /// none does). The engine reads the threshold only through `stripes`
    /// on `AllRails` transfers, so two specs with equal `digest_for(sch)`
    /// simulate `sch` identically even when their thresholds differ.
    pub fn digest_for(&self, sch: &mha_sched::Schedule) -> u64 {
        let stripe = sch
            .ops()
            .iter()
            .filter_map(|op| match op.kind {
                mha_sched::OpKind::Transfer {
                    len,
                    channel: mha_sched::Channel::AllRails,
                    ..
                } => Some(len as usize),
                _ => None,
            })
            .filter(|&len| self.stripes(len))
            .min()
            .unwrap_or(usize::MAX);
        self.digest_with_stripe(stripe)
    }

    fn digest_with_stripe(&self, stripe_threshold: usize) -> u64 {
        let mut fp = mha_sched::Fingerprinter::new();
        fp.push_u8(self.rails)
            .push_f64(self.rail_bw)
            .push_f64(self.rail_alpha)
            .push_f64(self.rndv_extra)
            .push_usize(self.rndv_threshold)
            .push_usize(stripe_threshold)
            .push_f64(self.cma_bw)
            .push_f64(self.cma_alpha)
            .push_f64(self.copy_bw)
            .push_f64(self.copy_alpha)
            .push_f64(self.mem_bw)
            .push_f64(self.flops_rate)
            .push_u32(self.cores_per_node)
            .push_f64(self.cma_mem_weight)
            .push_f64(self.reduce_mem_weight);
        match &self.numa {
            None => {
                fp.push_bool(false);
            }
            Some(n) => {
                fp.push_bool(true)
                    .push_u32(n.sockets)
                    .push_f64(n.xsocket_bw)
                    .push_f64(n.xsocket_alpha);
            }
        }
        fp.finish().0
    }

    /// Sanity-checks the physical plausibility of the spec.
    pub fn validate(&self) -> Result<(), String> {
        let pos = [
            ("rail_bw", self.rail_bw),
            ("cma_bw", self.cma_bw),
            ("copy_bw", self.copy_bw),
            ("mem_bw", self.mem_bw),
            ("flops_rate", self.flops_rate),
        ];
        for (name, v) in pos {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        let weights = [
            ("cma_mem_weight", self.cma_mem_weight),
            ("reduce_mem_weight", self.reduce_mem_weight),
        ];
        for (name, v) in weights {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        let nonneg = [
            ("rail_alpha", self.rail_alpha),
            ("rndv_extra", self.rndv_extra),
            ("cma_alpha", self.cma_alpha),
            ("copy_alpha", self.copy_alpha),
        ];
        for (name, v) in nonneg {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be non-negative, got {v}"));
            }
        }
        if self.rails == 0 {
            return Err("rails must be at least 1".into());
        }
        if self.cores_per_node == 0 {
            return Err("cores_per_node must be at least 1".into());
        }
        if let Some(numa) = &self.numa {
            numa.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thor_preset_is_valid_and_matches_paper_envelope() {
        let t = ClusterSpec::thor();
        t.validate().unwrap();
        assert_eq!(t.rails, 2);
        // Inter-node with 2 rails roughly doubles one rail (Fig. 1).
        assert!((t.rail_bw * 2.0) > 1.9 * t.cma_bw);
        // Intra-node CMA ≈ one rail (Fig. 1: "approximately equal").
        assert!((t.cma_bw / t.rail_bw - 1.0).abs() < 0.2);
        // Striping threshold is the 16 KB saturation point of Section 2.1.
        assert_eq!(t.stripe_threshold, 16 * 1024);
    }

    #[test]
    fn rail_startup_includes_rendezvous_above_threshold() {
        let t = ClusterSpec::thor();
        assert!(t.rail_startup(1024) < t.rail_startup(64 * 1024));
        assert_eq!(t.rail_startup(1024), t.rail_alpha);
        assert_eq!(
            t.rail_startup(t.rndv_threshold),
            t.rail_alpha + t.rndv_extra
        );
    }

    #[test]
    fn striping_requires_multiple_rails_and_large_messages() {
        let t = ClusterSpec::thor();
        assert!(!t.stripes(1024));
        assert!(t.stripes(64 * 1024));
        let single = ClusterSpec::thor_single_rail();
        assert!(!single.stripes(64 * 1024));
    }

    #[test]
    fn stripe_cutoff_is_at_or_above_the_threshold() {
        // "At or above": len == threshold stripes, len == threshold − 1
        // does not. Guards the classic off-by-one in the cutoff compare.
        let t = ClusterSpec::thor();
        assert!(!t.stripes(t.stripe_threshold - 1));
        assert!(t.stripes(t.stripe_threshold));
        assert!(t.stripes(t.stripe_threshold + 1));
    }

    #[test]
    fn rendezvous_cutoff_is_at_or_above_the_threshold() {
        let t = ClusterSpec::thor();
        assert_eq!(t.rail_startup(t.rndv_threshold - 1), t.rail_alpha);
        assert_eq!(
            t.rail_startup(t.rndv_threshold),
            t.rail_alpha + t.rndv_extra
        );
        assert_eq!(
            t.rail_startup(t.rndv_threshold + 1),
            t.rail_alpha + t.rndv_extra
        );
    }

    #[test]
    fn table1_time_helpers_are_affine_in_len() {
        let t = ClusterSpec::thor();
        let m = 1 << 20;
        assert!(t.t_h(2 * m) > t.t_h(m));
        assert!(t.t_c(2 * m) - t.t_c(m) > 0.9 * (m as f64 / t.cma_bw));
        assert!(t.t_l(m) < t.t_c(m)); // memcpy beats CMA (no syscall)
    }

    #[test]
    fn two_rails_transfer_large_messages_about_twice_as_fast() {
        let two = ClusterSpec::thor();
        let one = ClusterSpec::thor_single_rail();
        let m = 4 << 20;
        let ratio = one.t_h(m) / two.t_h(m);
        assert!(ratio > 1.8 && ratio < 2.1, "ratio = {ratio}");
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut t = ClusterSpec::thor();
        t.rail_bw = 0.0;
        assert!(t.validate().is_err());
        let mut t = ClusterSpec::thor();
        t.cma_alpha = -1.0;
        assert!(t.validate().is_err());
        let mut t = ClusterSpec::thor();
        t.rails = 0;
        assert!(t.validate().is_err());
        let mut t = ClusterSpec::thor();
        t.cores_per_node = 0;
        assert!(t.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "at least one rail")]
    fn zero_rail_constructor_panics() {
        ClusterSpec::thor_with_rails(0);
    }

    #[test]
    fn topology_of_matches_grid_and_carries_link_params() {
        use mha_sched::ProcGrid;
        let grid = ProcGrid::new(4, 16);

        let flat = ClusterSpec::thor().topology_of(&grid);
        assert_eq!(flat.depth(), 2);
        assert!(flat.matches(&grid));
        assert_eq!(flat.level(0).rails, 2);
        assert_eq!(flat.level(0).bw, ClusterSpec::thor().rail_bw);
        assert_eq!(flat.level(1).bw, ClusterSpec::thor().cma_bw);

        let numa = ClusterSpec::thor_numa().topology_of(&grid);
        assert_eq!(numa.depth(), 3);
        assert!(numa.matches(&grid));
        assert_eq!(numa.fanout(1), 2);
        assert_eq!(numa.fanout(2), 8);
        let link = numa.level(1);
        let spec = ClusterSpec::thor_numa();
        let ns = spec.numa.as_ref().unwrap();
        assert_eq!(link.bw, ns.xsocket_bw);
        assert_eq!(link.alpha, ns.xsocket_alpha);
        numa.validate().unwrap();
    }

    #[test]
    fn topology_of_degrades_to_two_levels_when_sockets_do_not_divide() {
        use mha_sched::ProcGrid;
        // 2 sockets cannot split 5 ranks per node evenly: stay 2-level.
        let t = ClusterSpec::thor_numa().topology_of(&ProcGrid::new(2, 5));
        assert_eq!(t.depth(), 2);
        assert!(t.matches(&ProcGrid::new(2, 5)));
    }

    #[test]
    fn topology_of_separates_numa_from_flat_specs() {
        use mha_sched::ProcGrid;
        let grid = ProcGrid::new(2, 16);
        let flat = ClusterSpec::thor().topology_of(&grid);
        let numa = ClusterSpec::thor_numa().topology_of(&grid);
        assert_ne!(flat, numa);
    }
}
