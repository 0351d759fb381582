//! # mha-apps — application-level workloads (paper Section 5)
//!
//! * [`osu`] — the contestants of the OSU-micro-benchmark-style sweeps:
//!   the HPC-X / MVAPICH2-X surrogates and the tuned MHA design, each
//!   building and pricing one Allgather or Allreduce point (Figures 11–15;
//!   `mha_bench::campaign` assembles the sweep tables).
//! * [`matvec`] — the 1-D row-partitioned matrix–vector kernel of
//!   Section 5.5 (Figure 16), with a real-data numerical verification of
//!   the distributed algorithm.
//! * [`deep_learning`] — the Horovod-style synthetic training benchmark of
//!   Section 5.6 (Figure 17) over ResNet-50/101/152 gradient footprints.
//! * [`bpmf`] — distributed Bayesian probabilistic matrix factorization,
//!   the other Allgather-bound application the paper's introduction cites.
//! * [`report`] — OSU-style table/CSV formatting shared by the `fig*`
//!   reproduction binaries in `mha-bench`.

#![warn(missing_docs)]

pub mod bpmf;
pub mod deep_learning;
pub mod matvec;
pub mod osu;
pub mod report;

pub use osu::{paper_contestants, AppError, Contestant};
