//! # mha-collectives — the paper's Allgather/Allreduce designs and baselines
//!
//! Every algorithm compiles an MPI-style collective into an `mha-sched`
//! schedule: flat baselines (Ring, Recursive Doubling, Bruck, Direct
//! Spread), two-level designs (single-leader and Kandalla-style
//! multi-leader), the paper's multi-HCA-aware contributions (MHA-intra with
//! HCA offload, hierarchical MHA-inter with an overlapped shared-memory
//! pipeline), Ring Allreduce with a pluggable Allgather phase, and the
//! HPC-X / MVAPICH2-X library surrogates the evaluation compares against.
//!
//! There is one way to name an Allgather and one way to build it: an
//! [`AlgoConfig`] (a [`Family`] plus its knobs) handed to [`build`]. The
//! per-family emitters under [`flat`], [`twolevel`] and [`mha`] are what
//! `build` dispatches to.
//!
//! Hierarchical families are emitted by one **generic composer**
//! ([`build_composed`]): a [`ComposePlan`] assigns a [`LevelAlgo`] to each
//! level of an `mha_sched::Topology` tree (exchange at the top, import
//! rounds through the middle, leader gather at the leaves), so two-level
//! MHA-inter and the 3-level NUMA-aware design are instantiations of the
//! same recursion rather than separate emitters.

#![warn(missing_docs)]

mod allreduce;
mod alltoall;
mod baselines;
mod bcast;
mod chunks;
mod compose;
mod config;
mod ctx;
pub mod flat;
pub mod mha;
mod tuned;
pub mod tuning;
pub mod twolevel;

pub use allreduce::{build_ring_allreduce, AllgatherPhase};
pub use alltoall::{build_direct_alltoall, build_mha_alltoall, AlltoallBuilt};
pub use baselines::Library;
pub use bcast::{build_binomial_bcast, build_mha_bcast, BcastBuilt};
pub use chunks::{chunk_bounds, chunk_bounds_aligned, chunk_len};
pub use compose::{build_composed, ComposePlan, LevelAlgo};
pub use config::{build, AlgoConfig, Family};
pub use ctx::{BuildError, Built};
pub use tuned::{msg_bucket, TableError, TableKey, TunedTable, TABLE_FORMAT_VERSION};
pub use tuning::{build_tuned_mha, select_inter_algo, InterChoice, TuneError};
