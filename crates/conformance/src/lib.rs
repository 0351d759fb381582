//! # mha-conformance — correctness as a continuously-exercised subsystem
//!
//! The paper's claims (Eqs. 1–7, the Ring-vs-RD overlap argument) are only
//! as credible as the simulator they are reproduced on. This crate makes
//! that credibility checkable, in three layers:
//!
//! 1. **Invariant probes** ([`mha_sched::InvariantProbe`], wired into the
//!    discrete-event engine): per-op causality, per-resource capacity and
//!    per-flow byte conservation, audited on every simulated run when
//!    `MHA_CHECK` is set (every `fig*` binary's `--check` flag).
//! 2. **A three-way differential oracle** ([`oracle`]): random
//!    configurations across the flat / two-level / MHA collective families,
//!    each cross-checked between the threaded executor (real bytes, MPI
//!    semantics via [`mha_exec::verify_allgather`]), the simulator (invariant
//!    audit + dependency-respecting op ordering) and the α–β model
//!    (latency monotone in message size, within a configurable envelope of
//!    the [`mha_model`] prediction). [`coverage`] adds a static check that
//!    the schedule writes every receive-buffer byte exactly once.
//! 3. **A deterministic schedule fuzzer with shrinking** ([`fuzz`]):
//!    mutates known-good schedules (drop an edge, swap transfer endpoints,
//!    shrink a copy range, …) and asserts the checker stack —
//!    [`mha_sched::validate`], [`mha_sched::check_races`],
//!    [`mha_exec::verify_allgather`] — kills every seeded mutant, greedily
//!    shrinking killed mutants to minimal reproductions.
//!
//! Run everything with `cargo test -p mha-conformance`; knobs:
//! `MHA_CONFORMANCE_CASES`, `MHA_CONFORMANCE_SEED`, `MHA_MODEL_ENVELOPE`,
//! `MHA_FUZZ_BUDGET`.

#![warn(missing_docs)]

pub mod cases;
pub mod coverage;
pub mod crash;
pub mod faults;
pub mod fuzz;
pub mod oracle;
pub mod traffic;
pub mod tuned;
pub mod waterfill;

pub use cases::{sample_case, Case, Family};
pub use coverage::check_allgather_coverage;
pub use crash::{
    check_crash_case, check_modeled_crash, run_crash_oracle, sample_crash_case, CrashCase,
    CrashOracleConfig, CrashOracleReport,
};
pub use faults::{
    check_fault_case, run_fault_oracle, sample_fault_case, FaultCase, FaultOracleConfig,
    FaultOracleReport,
};
pub use fuzz::{judge, seeded_mutants, shrink, FuzzTarget, Mutation, SchedSpec, Verdict};
pub use oracle::{check_model_envelope, run_oracle, OracleConfig, OracleReport};
pub use traffic::{
    check_traffic_case, run_traffic_oracle, sample_traffic_case, TrafficCase, TrafficOracleConfig,
    TrafficOracleReport,
};
pub use tuned::{run_tuned_oracle, TunedOracleConfig, TunedOracleReport};
pub use waterfill::{run_waterfill_oracle, WaterfillOracleReport};
