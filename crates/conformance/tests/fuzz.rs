//! The fuzzer acceptance bar: every seeded mutant killed, killed mutants
//! shrink to verdict-preserving minimal reproductions, and survivors of
//! random fuzzing are genuinely correct schedules.

use mha_bench::campaign::CampaignConfig;
use mha_conformance::fuzz::{apply, find_killable_edge_drop};
use mha_conformance::{
    check_kill_rate, fuzz_targets, judge, run, seeded_mutants, shrink, Fuzz, Oracle,
};

#[test]
fn every_seeded_mutant_is_killed() {
    for (name, target) in fuzz_targets() {
        let seeded = seeded_mutants(&target.spec);
        assert!(
            seeded.len() >= 3,
            "{name}: expected several applicable mutant classes, got {seeded:?}"
        );
        for (class, m) in seeded {
            let mutant = apply(&target.spec, m).unwrap();
            let verdict = judge(target, &mutant);
            assert!(
                verdict.killed(),
                "{name}: seeded mutant {class} survived every checker"
            );
        }
        // The orphaned-op class: some dependency edge must be load-bearing.
        let drop = find_killable_edge_drop(target)
            .unwrap_or_else(|| panic!("{name}: every single edge drop survived"));
        let mutant = apply(&target.spec, drop).unwrap();
        assert!(judge(target, &mutant).killed());
    }
}

#[test]
fn killed_mutants_shrink_to_minimal_reproductions() {
    let (name, target) = &fuzz_targets()[0];
    for (class, m) in seeded_mutants(&target.spec) {
        let mutant = apply(&target.spec, m).unwrap();
        if !judge(target, &mutant).killed() {
            continue; // every_seeded_mutant_is_killed covers the bar
        }
        let minimal = shrink(target, &mutant);
        assert!(
            minimal.n_ops() <= mutant.n_ops(),
            "{name}/{class}: shrinking grew the schedule"
        );
        assert!(
            judge(target, &minimal).killed(),
            "{name}/{class}: shrunk mutant no longer killed"
        );
    }
}

#[test]
fn random_fuzzing_survivors_are_genuinely_correct() {
    let report = run(Fuzz, Fuzz::DEFAULT_CASES, &CampaignConfig::from_env());
    assert_eq!(report.cases, 150);
    check_kill_rate(&report).unwrap_or_else(|e| panic!("{e}: {report}"));
    assert!(report.is_clean(), "{report}");
}
