//! # mha-exec — real-data executors for collective schedules
//!
//! While `mha-simnet` prices a schedule in virtual time, this crate *runs*
//! it: every buffer becomes a real `Vec<u8>`, transfers and copies move real
//! bytes, reductions do real arithmetic. Two interpreters share identical
//! semantics:
//!
//! * [`run_single`] — sequential reference execution;
//! * [`run_threaded`] — a dependency-driven worker pool that may execute any
//!   topological interleaving, which (together with
//!   `mha_sched::check_races`) demonstrates that the paper's overlapped
//!   chunk-counter pipeline is deterministic.
//!
//! [`run_threaded_probed`] narrates a pool run through the simulator's
//! `mha_sched::Probe` seam (wall-clock op spans), so one sink works against
//! both backends.
//!
//! [`verify_allgather`] / [`verify_allreduce_sum_f32`] wrap the executors
//! with MPI-semantics postcondition checks; every collective algorithm in
//! `mha-collectives` is tested through them.
//!
//! Execution is crash-tolerant: the [`journal`] module records per-op
//! completions as they retire ([`CompletionJournal`]), a seeded
//! [`KillPlan`] murders worker threads at deterministic points, and
//! [`resume_threaded`] / [`resume_single`] rebuild the readiness frontier
//! from the journal and finish only the unfinished suffix — byte-identical
//! to a run that never crashed.

#![warn(missing_docs)]

mod executor;
pub mod journal;
mod memory;
mod verify;

pub use executor::{
    resume_single, resume_threaded, run_single, run_single_killed, run_threaded,
    run_threaded_killed, run_threaded_probed, ExecError,
};
pub use journal::{CompletionJournal, JournalError, JournalSink, KillPlan};
pub use memory::BufferStore;
pub use verify::{
    rank_pattern, rank_values_f32, verify_allgather, verify_allreduce_sum_f32, verify_alltoall,
    verify_bcast, Mode, VerifyError,
};

/// Locks `m`, ignoring poisoning. A worker that panics while holding a lock
/// has already failed its run ([`ExecError::WorkerPanicked`]); the buffers,
/// journal entries and ready queue it held stay readable for the caller.
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
