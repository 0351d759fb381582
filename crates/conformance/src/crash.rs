//! The crash oracle: seeded worker kills must recover byte-identically.
//!
//! Each crash case draws a collective configuration from one of the four
//! oracle families (flat / two-level / MHA / Hier) plus a kill seed, then
//! checks the same crash on both sides of the modeled-vs-executed pairing:
//!
//! * **executed (correctness)** — an unfailed [`mha_exec::run_single`] run
//!   is the reference; a deterministic single-executor kill at a seeded op
//!   index and a seeded [`KillPlan`] on the worker pool must both, after
//!   [`mha_exec::resume_single`] / [`mha_exec::resume_threaded`] from the
//!   completion journal, leave **every** buffer byte-identical to the
//!   reference — non-idempotent Reduce ops make any double-execution or
//!   skipped op visible;
//! * **modeled (latency)** — the same scenario as a node crash in `simnet`
//!   ([`FaultSpec::node_crash`]): the run must stay invariant-clean and
//!   the makespan must absorb the full recovery penalty.

use std::fmt;

use mha_exec::{
    resume_single, resume_threaded, run_single, run_single_killed, run_threaded_killed,
    BufferStore, CompletionJournal, ExecError, KillPlan,
};
use mha_sched::{FrozenSchedule, InvariantProbe};
use mha_simnet::{ClusterSpec, FaultSpec, Simulator};
use rand::{rngs::StdRng, Rng};

use crate::cases::{sample_case, Case, Family};
use crate::oracle::THREADS;
use crate::runner::Oracle;

/// The crash oracle: seeded kill schedules, the four families
/// round-robin, each checked executed ([`check_crash_case`]) then modeled
/// ([`check_modeled_crash`]). Passing cases are tallied `"recovered"`.
pub struct Crash;

impl Oracle for Crash {
    const NAME: &'static str = "crash";
    const SEED: u64 = 0xDEAD;
    const DEFAULT_CASES: usize = 100;
    type Case = CrashCase;

    fn sample(&self, rng: &mut StdRng, i: usize) -> CrashCase {
        CrashCase {
            case: sample_case(rng, Family::ALL[i % Family::ALL.len()]),
            kill_seed: rng.gen_range(0..u64::MAX),
        }
    }

    fn check(&self, crash: &CrashCase) -> Result<&'static str, String> {
        check_crash_case(crash, THREADS)?;
        check_modeled_crash(crash)?;
        Ok("recovered")
    }
}

/// One randomly drawn crash case: a collective configuration plus the seed
/// driving both kill points (single-executor stop index, threaded
/// [`KillPlan`], crashed simnet node).
#[derive(Debug, Clone)]
pub struct CrashCase {
    /// The collective under test.
    pub case: Case,
    /// Seed for every kill decision in the case.
    pub kill_seed: u64,
}

/// A short, greppable description for disagreement reports.
impl fmt::Display for CrashCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} kill_seed={:#x}", self.case, self.kill_seed)
    }
}

/// All buffer contents, in buffer-id order — the byte-exact recovery
/// oracle compares entire stores, not just the receive buffers, so a
/// resumed run may not even scribble differently on scratch space.
pub fn snapshot(sch: &FrozenSchedule, store: &BufferStore) -> Vec<Vec<u8>> {
    sch.buffers().iter().map(|b| store.read_all(b.id)).collect()
}

/// A store with every rank's send buffer filled with its distinct pattern.
pub fn seeded_store(sch: &FrozenSchedule, built: &mha_collectives::Built) -> BufferStore {
    let store = BufferStore::new(sch);
    for (rank, &buf) in built.send.iter().enumerate() {
        store.fill(buf, 0, &mha_exec::rank_pattern(rank, built.msg));
    }
    store
}

/// Checks the executed side of one crash case: kill at a seeded point on
/// both executors, resume from the journal, require every buffer
/// byte-identical to an unfailed run.
pub fn check_crash_case(crash: &CrashCase, threads: usize) -> Result<(), String> {
    let spec = ClusterSpec::thor();
    let built = crash
        .case
        .build(&spec)
        .map_err(|e| format!("build failed: {e:?}"))?;
    let sch = &built.sched;
    let n = sch.n_ops();
    if n == 0 {
        return Ok(());
    }

    // Reference: the unfailed run.
    let ref_store = seeded_store(sch, &built);
    run_single(sch, &ref_store).map_err(|e| format!("reference run: {e}"))?;
    let want = snapshot(sch, &ref_store);

    // Deterministic kill on the sequential executor: exactly `k` ops
    // retire, then the run dies; resume must finish the suffix.
    let k = (crash.kill_seed % n as u64) as usize;
    let store = seeded_store(sch, &built);
    let journal = CompletionJournal::for_schedule(sch);
    match run_single_killed(sch, &store, &journal, k) {
        Err(ExecError::Killed { done, total }) => {
            if done != k || total != n {
                return Err(format!("single kill at {k}/{n} reported {done}/{total}"));
            }
        }
        Ok(()) => return Err(format!("single kill at {k} of {n} never fired")),
        Err(e) => return Err(format!("single kill: {e}")),
    }
    if journal.len() != k {
        return Err(format!(
            "journal holds {} ops, kill was at {k}",
            journal.len()
        ));
    }
    resume_single(sch, &store, &journal).map_err(|e| format!("single resume: {e}"))?;
    if !journal.is_complete() {
        return Err(format!(
            "single resume left {} of {n} ops unjournaled",
            n - journal.len()
        ));
    }
    if snapshot(sch, &store) != want {
        return Err("single-executor recovery diverged from the unfailed run".into());
    }

    // Seeded worker-thread murder on the pool. A late kill point may let
    // the pool finish first (Ok) — the bytes must match either way.
    let plan = KillPlan::seeded(crash.kill_seed, n, threads);
    let store = seeded_store(sch, &built);
    let journal = CompletionJournal::for_schedule(sch);
    match run_threaded_killed(sch, &store, threads, &journal, &plan) {
        Err(ExecError::Killed { done, total }) => {
            if done != journal.len() || total != n || done >= total {
                return Err(format!(
                    "threaded kill reported {done}/{total}, journal {}",
                    journal.len()
                ));
            }
            resume_threaded(sch, &store, threads, &journal)
                .map_err(|e| format!("threaded resume: {e}"))?;
        }
        Ok(()) => {}
        Err(e) => return Err(format!("threaded kill: {e}")),
    }
    if !journal.is_complete() {
        return Err(format!(
            "threaded recovery left {} of {n} ops unjournaled",
            n - journal.len()
        ));
    }
    if snapshot(sch, &store) != want {
        return Err(format!(
            "threaded recovery diverged from the unfailed run (plan {plan:?})"
        ));
    }
    Ok(())
}

/// Checks the modeled side: the same crash as a simnet node outage. The
/// seeded node goes down at t = 0 and restarts after twice the fault-free
/// makespan, so a correct engine cannot finish before the restart; the run
/// must also stay invariant-clean.
pub fn check_modeled_crash(crash: &CrashCase) -> Result<(), String> {
    let spec = ClusterSpec::thor();
    let built = crash
        .case
        .build(&spec)
        .map_err(|e| format!("build failed: {e:?}"))?;
    if built.sched.n_ops() == 0 {
        return Ok(());
    }
    let m0 = Simulator::new(spec.clone())
        .map_err(|e| format!("simulator: {e}"))?
        .run(&built.sched)
        .map_err(|e| format!("fault-free sim: {e}"))?
        .makespan;
    let node = (crash.kill_seed % u64::from(crash.case.grid.nodes())) as u32;
    let recovery = 2.0 * m0;
    let sim = Simulator::with_faults(spec, FaultSpec::node_crash(node, 0.0, recovery))
        .map_err(|e| format!("simulator: {e}"))?;
    let mut audit = InvariantProbe::new();
    let m = sim
        .run_probed(&built.sched, &mut audit)
        .map_err(|e| format!("crashed sim: {e}"))?
        .makespan;
    if !audit.is_clean() {
        return Err(format!(
            "invariant violations under node crash: {}",
            audit.violations()[0]
        ));
    }
    if m < recovery {
        return Err(format!(
            "node {node} was down until {recovery:.3e}s but the run finished at {m:.3e}s"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn a_single_crash_case_recovers_on_both_sides() {
        let mut rng = StdRng::seed_from_u64(1);
        let crash = Crash.sample(&mut rng, 2);
        assert_eq!(crash.case.family, Family::Mha);
        check_crash_case(&crash, 4).unwrap();
        check_modeled_crash(&crash).unwrap();
    }

    #[test]
    fn every_family_survives_a_crash() {
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..Family::ALL.len() {
            let crash = Crash.sample(&mut rng, i);
            check_crash_case(&crash, 3).unwrap_or_else(|e| panic!("{crash}: {e}"));
        }
    }

    #[test]
    fn config_defaults_meet_the_acceptance_bar() {
        const { assert!(Crash::DEFAULT_CASES >= 100) };
        assert_eq!(Crash::SEED, 0xDEAD);
    }
}
