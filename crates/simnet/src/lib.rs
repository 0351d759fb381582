//! # mha-simnet — a discrete-event multi-rail cluster simulator
//!
//! The hardware substitute for the paper's Thor cluster (32 nodes ×
//! 32 cores, 2 × HDR100 HCAs per node). Schedules produced by
//! `mha-collectives` are priced in virtual time on a fluid-flow model:
//!
//! * **Resources** ([`ResourceMap`]): per-rank CPU copy engines, per-node
//!   aggregate memory bandwidth, and full-duplex tx/rx servers per HCA rail.
//! * **Contention** ([`max_min_rates`]): concurrent flows receive max-min
//!   fair bandwidth shares, recomputed incrementally over the affected
//!   connected component on every flow arrival/departure. Rail serialization
//!   and the paper's memory-congestion factor `cg(M, L−1)` *emerge* from
//!   this instead of being hard-coded.
//! * **Protocol costs** ([`ClusterSpec`]): startup latencies, a rendezvous
//!   surcharge for large rail messages, the 16 KB striping threshold, and
//!   round-robin rail selection for small messages (Section 2.1).
//! * **Observability** ([`Trace`], [`mha_sched::Probe`]): every view of a
//!   run is a probe sink plugged into [`Simulator::run_probed`] — the
//!   ASCII Gantt timeline in the spirit of the paper's Figure 2
//!   ([`TraceBuilder`]), JSONL event streams ([`mha_sched::JsonlProbe`]),
//!   and the utilization/overlap digest ([`mha_sched::SummaryProbe`]) for
//!   the Figure 6/7 arguments. Check mode ([`check_enabled`]) tees an
//!   [`mha_sched::InvariantProbe`] onto every run and fails a run that
//!   breaks an invariant with [`SimError::Invariant`].
//!
//! ```
//! use mha_simnet::{ClusterSpec, Placement, Simulator};
//!
//! let sim = Simulator::new(ClusterSpec::thor()).unwrap();
//! let one_rail = Simulator::new(ClusterSpec::thor_single_rail()).unwrap();
//! let m = 4 << 20;
//! let bw2 = mha_simnet::pt2pt_bandwidth_mbps(&sim, Placement::InterNode, m, 64).unwrap();
//! let bw1 = mha_simnet::pt2pt_bandwidth_mbps(&one_rail, Placement::InterNode, m, 64).unwrap();
//! assert!(bw2 / bw1 > 1.8); // Figure 1: the second HCA doubles bandwidth
//! ```

#![warn(missing_docs)]

mod calendar;
mod engine;
mod fault;
mod metrics;
mod microbench;
mod numa;
mod resources;
mod topology;
mod trace;
mod waterfill;

pub use engine::{
    check_enabled, set_check_enabled, EngineArena, EngineWork, SimError, SimResult, Simulator,
};
pub use fault::{FaultEvent, FaultKind, FaultSpec, DEFAULT_RETRY_TIMEOUT};
pub use microbench::{pt2pt_bandwidth_mbps, pt2pt_latency_us, size_sweep, Placement};
pub use numa::NumaSpec;
pub use resources::{ResourceId, ResourceMap};
pub use topology::ClusterSpec;
pub use trace::{Lane, OpSpan, SpanMeta, Trace, TraceBuilder};
pub use waterfill::{
    max_min_rates, FillError, FillStats, FlowSpec, IncrementalFiller, WaterFiller,
};
