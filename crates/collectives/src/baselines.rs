//! Library surrogates: the algorithm-selection behaviour of the two MPI
//! implementations the paper compares against (Section 5.1).
//!
//! The real libraries are closed tuning tables over the same algorithm
//! space this crate implements; what determines a collective's *shape* is
//! which algorithm the library picks at each (layout, message size) point.
//! The selection rules below model the publicly documented behaviour:
//!
//! * **HPC-X** (Open MPI's `coll/tuned`): Bruck for small messages,
//!   Recursive Doubling for mid sizes on power-of-two communicators, Ring
//!   for large messages. Flat throughout — no hierarchy, no HCA-aware
//!   collective logic (multi-rail striping happens only at pt2pt level).
//! * **MVAPICH2-X**: Bruck/RD for small messages; the two-level
//!   multi-leader design of Kandalla et al. \[14\] for large messages, with
//!   strictly sequential phases (the behaviour the paper's Section 1.1
//!   attributes to it).
//!
//! See DESIGN.md ("The hardware gate and our substitution") for why this
//! surrogate preserves the comparisons.

use mha_sched::ProcGrid;

use crate::config::Family;

/// An MPI library whose Allgather behaviour we emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Library {
    /// NVIDIA HPC-X (Open MPI derivative).
    HpcX,
    /// MVAPICH2-X.
    Mvapich2X,
}

impl Library {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Library::HpcX => "HPC-X",
            Library::Mvapich2X => "MVAPICH2-X",
        }
    }

    /// The Allgather family the library would select for this layout and
    /// per-rank message size. Never [`Family::Library`], and always valid
    /// for `grid`.
    pub fn select_allgather(&self, grid: ProcGrid, msg: usize) -> Family {
        let p2_ranks = grid.nranks().is_power_of_two();
        match self {
            Library::HpcX => {
                if msg < 4096 {
                    Family::Bruck
                } else if msg < 64 * 1024 && p2_ranks {
                    Family::RecursiveDoubling
                } else {
                    Family::Ring
                }
            }
            Library::Mvapich2X => {
                if msg < 4096 {
                    if p2_ranks {
                        Family::RecursiveDoubling
                    } else {
                        Family::Bruck
                    }
                } else if grid.nodes() > 1 && grid.ppn().is_multiple_of(2) {
                    Family::MultiLeader { groups: 2 }
                } else if grid.nodes() > 1 {
                    Family::MultiLeader { groups: 1 }
                } else {
                    Family::Ring
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::testutil::assert_allgather_correct;
    use crate::{build, AlgoConfig};
    use mha_simnet::ClusterSpec;

    #[test]
    fn hpcx_selection_moves_bruck_rd_ring() {
        let grid = ProcGrid::new(2, 8);
        assert_eq!(Library::HpcX.select_allgather(grid, 256), Family::Bruck);
        assert_eq!(
            Library::HpcX.select_allgather(grid, 16 * 1024),
            Family::RecursiveDoubling
        );
        assert_eq!(
            Library::HpcX.select_allgather(grid, 256 * 1024),
            Family::Ring
        );
        // Non-power-of-two falls back from RD to Ring mid-range.
        let odd = ProcGrid::new(3, 5);
        assert_eq!(Library::HpcX.select_allgather(odd, 16 * 1024), Family::Ring);
    }

    #[test]
    fn mvapich_uses_multi_leader_for_large_multi_node() {
        let grid = ProcGrid::new(4, 8);
        assert_eq!(
            Library::Mvapich2X.select_allgather(grid, 128 * 1024),
            Family::MultiLeader { groups: 2 }
        );
        let single = ProcGrid::single_node(8);
        assert_eq!(
            Library::Mvapich2X.select_allgather(single, 128 * 1024),
            Family::Ring
        );
        let odd_ppn = ProcGrid::new(4, 5);
        assert_eq!(
            Library::Mvapich2X.select_allgather(odd_ppn, 128 * 1024),
            Family::MultiLeader { groups: 1 }
        );
    }

    #[test]
    fn surrogates_build_correct_schedules_across_the_sweep() {
        let spec = ClusterSpec::thor();
        let grid = ProcGrid::new(2, 4);
        for lib in [Library::HpcX, Library::Mvapich2X] {
            for msg in [256usize, 4096, 16 * 1024, 256 * 1024] {
                let cfg = AlgoConfig::flat(Family::Library(lib));
                let built = build(&cfg, grid, msg, &spec).unwrap();
                assert_allgather_correct(&built);
            }
        }
    }

    #[test]
    fn library_names_match_paper() {
        assert_eq!(Library::HpcX.name(), "HPC-X");
        assert_eq!(Library::Mvapich2X.name(), "MVAPICH2-X");
    }
}
