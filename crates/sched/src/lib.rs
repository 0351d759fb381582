//! # mha-sched — schedule IR for multi-HCA aware collectives
//!
//! This crate defines the intermediate representation shared by the whole
//! reproduction stack of *"Designing Hierarchical Multi-HCA Aware Allgather
//! in MPI"* (Tran et al., ICPP Workshops 2022):
//!
//! * a [`ProcGrid`] describing the `N × L` process layout,
//! * [`BufferDecl`]s for rank-private and node-shared (shm) memory,
//! * a dependency DAG of [`Op`]s — transfers over CMA or HCA rails, CPU
//!   copies, reductions and pure compute,
//! * a [`ScheduleBuilder`] that keeps the graph acyclic by construction,
//! * [`validate`]/[`check_races`] which prove a schedule is structurally
//!   sound and deterministic under any interleaving,
//! * [`Schedule::freeze`] → [`FrozenSchedule`], the execution-ready form:
//!   CSR successor adjacency and its roots, each edge stored once (the
//!   predecessor view is derived on demand), shared by every interpreter
//!   (op ids are a topological order),
//! * [`runtime`], the indegree-counter readiness drivers ([`ReadySet`],
//!   [`AtomicReadySet`]) both backends schedule with, and
//! * [`probe`], the pluggable observability seam ([`Probe`] sinks: run
//!   summaries with the network/CPU overlap fraction, invariant audits).
//!
//! Collective algorithms (in `mha-collectives`) compile to this IR once and
//! freeze it; the discrete-event simulator (`mha-simnet`) then prices the
//! schedule on a model of the Thor cluster while the threaded executor
//! (`mha-exec`) runs it on real byte buffers to verify semantics. One frozen
//! schedule, two interpreters, one readiness runtime.
//!
//! ```
//! use mha_sched::{Channel, Loc, ProcGrid, RankId, ScheduleBuilder};
//!
//! let grid = ProcGrid::new(2, 1); // two nodes, one process each
//! let mut b = ScheduleBuilder::new(grid, "demo");
//! let src = b.private_buf(RankId(0), 1 << 20, "send");
//! let dst = b.private_buf(RankId(1), 1 << 20, "recv");
//! b.transfer(RankId(0), RankId(1), Loc::new(src, 0), Loc::new(dst, 0),
//!            1 << 20, Channel::AllRails, &[], 0);
//! let sched = b.finish();
//! assert!(mha_sched::validate(&sched, Some(2)).is_ok());
//! assert_eq!(sched.stats().rail_bytes, 1 << 20);
//! ```

#![warn(missing_docs)]

mod buffer;
mod builder;
mod edges;
mod fingerprint;
mod frozen;
mod grid;
mod ids;
pub mod invariant;
mod merge;
mod op;
pub mod probe;
mod relocate;
pub mod runtime;
mod schedule;
mod topology;
mod validate;

pub use buffer::{BufKind, BufferDecl, Loc};
pub use builder::{DepList, RankCursors, ScheduleBuilder};
pub use fingerprint::{Fingerprint, Fingerprinter};
pub use frozen::{FrozenSchedule, OpClass, OpRow};
pub use grid::ProcGrid;
pub use ids::{BufId, GroupId, NodeId, OpId, RankId};
pub use invariant::{InvariantProbe, Violation};
pub use merge::{merge_parts, MergeError, MergePart, Merged};
pub use op::{Channel, DType, Marker, Op, OpKind, OpLabel, RailSet, RedOp};
pub use probe::{
    intersection_length, union_length, NullProbe, Probe, ResourceUtil, RunSummary, SummaryProbe,
    Tee,
};
pub use relocate::{relocate_onto, validate_placement, RelocateError};
pub use runtime::{AtomicReadySet, ReadySet};
pub use schedule::{Schedule, ScheduleStats};
pub use topology::{TopoLevel, Topology};
pub use validate::{check_races, rail_registered_buffers, validate, Race, ValidateError};
