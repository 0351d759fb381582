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
//! 2. **Oracles** — each an [`Oracle`] (a seeded case sampler plus a
//!    per-case judge) under the one [`runner::run`] driver, which owns the
//!    RNG, the campaign fan-out and the index-ordered [`Report`]:
//!    the three-way differential ([`Differential`]: threaded executor ×
//!    simulator × α–β model, plus [`check_model_envelope`]), rail faults
//!    ([`Faults`]), worker kills ([`Crash`]), tuned-table serving
//!    ([`Tuned`]), engine pins ([`Waterfill`]) and tenant isolation
//!    ([`Traffic`]). [`coverage`] adds a static check that a schedule
//!    writes every receive-buffer byte exactly once.
//! 3. **A deterministic schedule fuzzer with shrinking** ([`fuzz`]):
//!    mutates known-good schedules (drop an edge, swap transfer endpoints,
//!    shrink a copy range, …) and asserts the checker stack —
//!    [`mha_sched::validate`], [`mha_sched::check_races`],
//!    [`mha_exec::verify_allgather`] — kills every seeded mutant, greedily
//!    shrinking killed mutants to minimal reproductions. Its random loop
//!    is the [`Fuzz`] oracle.
//!
//! `cargo test -p mha-conformance` runs every oracle at its default case
//! count. One oracle at another count runs through the binary:
//! `cargo run --release -p mha-conformance -- <oracle> [--cases N]`.

#![warn(missing_docs)]

pub mod cases;
pub mod coverage;
pub mod crash;
pub mod faults;
pub mod fuzz;
pub mod oracle;
pub mod runner;
pub mod traffic;
pub mod tuned;
pub mod waterfill;

pub use cases::{sample_case, Case, Family};
pub use coverage::check_allgather_coverage;
pub use crash::{check_crash_case, check_modeled_crash, seeded_store, snapshot, Crash, CrashCase};
pub use faults::{check_fault_case, FaultCase, Faults};
pub use fuzz::{
    check_kill_rate, fuzz_targets, judge, seeded_mutants, shrink, Fuzz, FuzzTarget, Mutation,
    SchedSpec, Verdict,
};
pub use oracle::{check_model_envelope, Differential, ENVELOPE};
pub use runner::{run, Oracle, Report};
pub use traffic::{check_traffic_case, sample_traffic_case, Traffic, TrafficCase};
pub use tuned::Tuned;
pub use waterfill::Waterfill;
