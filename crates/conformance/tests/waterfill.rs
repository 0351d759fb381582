//! The pinned engine oracle: 120 random schedules — a third of them under
//! random rail-fault timelines — each bit-identical to the output certified
//! against an independent reference engine.

use mha_conformance::run_waterfill_oracle;

#[test]
fn engine_matches_certified_pins_on_random_schedules() {
    let report = run_waterfill_oracle();
    assert_eq!(report.cases, 120, "every sampled case must build");
    assert_eq!(report.faulted, 40, "every third case runs faulted");
    assert!(
        report.is_clean(),
        "{} divergence(s):\n{}",
        report.disagreements.len(),
        report.disagreements.join("\n")
    );
}
