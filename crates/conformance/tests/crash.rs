//! The crash-oracle acceptance bar plus the journal property suite.
//!
//! * ≥ 100 seeded kill schedules across all four collective families must
//!   recover **byte-identically** to an unfailed run on both the Single and
//!   Threaded executors, and the same crash modeled as a simnet node outage
//!   must stay invariant-clean with a makespan that absorbs the recovery
//!   penalty.
//! * 200 seeded (schedule, kill-point) pairs: journal replay is idempotent
//!   (resume twice ≡ resume once) and a journal claiming an op whose
//!   dependencies are incomplete is rejected with a typed error.

use mha_bench::campaign::CampaignConfig;
use mha_conformance::{run, sample_case, seeded_store, snapshot, Crash, Family, Oracle};
use mha_exec::{
    resume_single, resume_threaded, run_single, run_single_killed, CompletionJournal, ExecError,
    JournalError,
};
use mha_simnet::ClusterSpec;
use rand::{rngs::StdRng, Rng, SeedableRng};

#[test]
fn crash_oracle_sweep_has_zero_disagreements() {
    let n = Crash::DEFAULT_CASES;
    assert!(n >= 100, "acceptance bar requires >= 100 cases");
    let report = run(Crash, n, &CampaignConfig::default());
    assert_eq!(report.cases, n);
    assert!(report.is_clean(), "{report}");
}

/// 200 seeded (schedule, kill-point) pairs: after a kill at op `k`,
/// resuming twice (and once more on the pool for good measure) leaves the
/// journal and every buffer exactly as a single resume does.
#[test]
fn journal_replay_is_idempotent_over_200_pairs() {
    let spec = ClusterSpec::thor();
    let mut rng = StdRng::seed_from_u64(0xD0_0DEAD);
    let mut checked = 0usize;
    while checked < 200 {
        let case = sample_case(&mut rng, Family::ALL[checked % Family::ALL.len()]);
        let built = case.build(&spec).expect("oracle cases always build");
        let sch = &built.sched;
        let n = sch.n_ops();
        if n == 0 {
            continue;
        }
        let k = rng.gen_range(0..n);

        let store = seeded_store(sch, &built);
        let journal = CompletionJournal::for_schedule(sch);
        match run_single_killed(sch, &store, &journal, k) {
            Err(ExecError::Killed { .. }) => {}
            other => panic!("{case}: kill at {k} of {n}: {other:?}"),
        }
        resume_single(sch, &store, &journal)
            .unwrap_or_else(|e| panic!("{case}: first resume: {e}"));
        let once = snapshot(sch, &store);
        let len_once = journal.len();
        let digest_once = journal.digest();

        // Second (and third, threaded) resume: nothing left to do, nothing
        // may change — not the bytes, not the journal.
        resume_single(sch, &store, &journal)
            .unwrap_or_else(|e| panic!("{case}: second resume: {e}"));
        resume_threaded(sch, &store, 3, &journal)
            .unwrap_or_else(|e| panic!("{case}: threaded resume: {e}"));
        assert_eq!(journal.len(), len_once, "{case}: journal grew");
        assert_eq!(journal.digest(), digest_once, "{case}: journal mutated");
        assert_eq!(
            snapshot(sch, &store),
            once,
            "{case}: bytes changed on re-resume"
        );

        // And the recovered bytes match an unfailed run.
        let ref_store = seeded_store(sch, &built);
        run_single(sch, &ref_store).unwrap();
        assert_eq!(once, snapshot(sch, &ref_store), "{case}: recovery diverged");
        checked += 1;
    }
}

/// A journal claiming an op whose dependencies are incomplete must be
/// rejected with the typed [`JournalError::DepIncomplete`] by validation
/// and by every resume entry point.
#[test]
fn dependency_incomplete_journals_are_rejected_typed() {
    let spec = ClusterSpec::thor();
    let mut rng = StdRng::seed_from_u64(0xBAD_5EED);
    let mut checked = 0usize;
    while checked < 50 {
        let case = sample_case(&mut rng, Family::ALL[checked % Family::ALL.len()]);
        let built = case.build(&spec).expect("oracle cases always build");
        let sch = &built.sched;
        // Find an op with at least one dependency and journal it alone.
        let Some(op) = (0..sch.n_ops() as u32).find(|&i| !sch.preds(i).is_empty()) else {
            continue;
        };
        let dep = sch.preds(op)[0].0;
        let journal = CompletionJournal::from_entries(sch.n_ops(), vec![op]);
        let err = journal.validate(sch).unwrap_err();
        assert_eq!(err, JournalError::DepIncomplete { op, dep }, "{case}");
        let store = seeded_store(sch, &built);
        assert!(matches!(
            resume_single(sch, &store, &journal),
            Err(ExecError::Journal(JournalError::DepIncomplete { .. }))
        ));
        assert!(matches!(
            resume_threaded(sch, &store, 2, &journal),
            Err(ExecError::Journal(JournalError::DepIncomplete { .. }))
        ));
        checked += 1;
    }
}
