//! Opt-in NUMA modeling — the substrate for the paper's stated future
//! work: *"We can have a 3-level design with the overlapping of
//! intra-socket, inter-socket, and inter-node communication"*
//! (Section 7).
//!
//! When a [`NumaSpec`] is attached to a [`crate::ClusterSpec`], each node's
//! memory system splits into per-socket resources plus a cross-socket
//! interconnect (UPI-like). CPU-driven byte movement then charges the
//! *actor's* socket memory, and any transfer whose peer lives on the other
//! socket additionally crosses the interconnect — so NUMA-blind algorithms
//! (which bounce half their traffic across sockets) pay for it, and
//! socket-aware ones do not. With `numa: None` (the default Thor preset)
//! nothing changes, keeping the paper-reproduction numbers intact.

use mha_sched::{ProcGrid, RankId};

/// NUMA layout of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NumaSpec {
    /// Sockets per node (Thor: 2 × Broadwell).
    pub sockets: u32,
    /// Effective cross-socket copy bandwidth, bytes/s. Broadwell's QPI
    /// links are ~19 GB/s raw, but remote-read memcpy streams sustain only
    /// ~35-40% of that after coherence/protocol overheads — about 7 GB/s —
    /// which is what a NUMA-blind collective actually experiences.
    pub xsocket_bw: f64,
    /// Extra startup latency for a cross-socket transfer (remote cache
    /// line / snoop cost folded into one constant).
    pub xsocket_alpha: f64,
}

impl NumaSpec {
    /// Broadwell-like dual-socket preset.
    pub fn broadwell_2s() -> Self {
        NumaSpec {
            sockets: 2,
            xsocket_bw: 7.0e9,
            xsocket_alpha: 0.15e-6,
        }
    }

    /// Sanity check.
    pub fn validate(&self) -> Result<(), String> {
        if self.sockets < 2 {
            return Err(format!(
                "NUMA modeling needs at least 2 sockets, got {}",
                self.sockets
            ));
        }
        if !(self.xsocket_bw.is_finite() && self.xsocket_bw > 0.0) {
            return Err(format!(
                "xsocket_bw must be positive, got {}",
                self.xsocket_bw
            ));
        }
        if !(self.xsocket_alpha.is_finite() && self.xsocket_alpha >= 0.0) {
            return Err(format!(
                "xsocket_alpha must be non-negative, got {}",
                self.xsocket_alpha
            ));
        }
        Ok(())
    }

    /// The socket hosting `rank` under block placement: local ranks are
    /// split evenly across sockets in contiguous blocks (the usual
    /// `--map-by socket`-less default).
    pub fn socket_of(&self, grid: &ProcGrid, rank: RankId) -> u32 {
        let local = grid.local_index(rank);
        let per = grid.ppn().div_ceil(self.sockets);
        (local / per).min(self.sockets - 1)
    }

    /// Whether two co-located ranks sit on different sockets.
    pub fn cross_socket(&self, grid: &ProcGrid, a: RankId, b: RankId) -> bool {
        grid.same_node(a, b) && self.socket_of(grid, a) != self.socket_of(grid, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadwell_preset_is_valid() {
        let n = NumaSpec::broadwell_2s();
        n.validate().unwrap();
        assert_eq!(n.sockets, 2);
    }

    #[test]
    fn socket_mapping_splits_local_ranks_in_blocks() {
        let n = NumaSpec::broadwell_2s();
        let grid = ProcGrid::new(2, 8);
        // Node 0: ranks 0..8 → sockets 0,0,0,0,1,1,1,1
        for r in 0..4 {
            assert_eq!(n.socket_of(&grid, RankId(r)), 0);
        }
        for r in 4..8 {
            assert_eq!(n.socket_of(&grid, RankId(r)), 1);
        }
        // Node 1 mirrors the layout.
        assert_eq!(n.socket_of(&grid, RankId(8)), 0);
        assert_eq!(n.socket_of(&grid, RankId(15)), 1);
    }

    #[test]
    fn cross_socket_requires_same_node() {
        let n = NumaSpec::broadwell_2s();
        let grid = ProcGrid::new(2, 8);
        assert!(n.cross_socket(&grid, RankId(0), RankId(7)));
        assert!(!n.cross_socket(&grid, RankId(0), RankId(3)));
        // Different nodes: never "cross-socket" (it is cross-node).
        assert!(!n.cross_socket(&grid, RankId(0), RankId(12)));
    }

    #[test]
    fn odd_ppn_rounds_up_per_socket() {
        let n = NumaSpec::broadwell_2s();
        let grid = ProcGrid::new(1, 5);
        assert_eq!(n.socket_of(&grid, RankId(2)), 0);
        assert_eq!(n.socket_of(&grid, RankId(3)), 1);
        assert_eq!(n.socket_of(&grid, RankId(4)), 1);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut n = NumaSpec::broadwell_2s();
        n.sockets = 1;
        assert!(n.validate().is_err());
        let mut n = NumaSpec::broadwell_2s();
        n.xsocket_bw = 0.0;
        assert!(n.validate().is_err());
        let mut n = NumaSpec::broadwell_2s();
        n.xsocket_alpha = f64::NAN;
        assert!(n.validate().is_err());
    }
}
