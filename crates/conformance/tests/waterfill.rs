//! The pinned engine oracle: 120 random schedules — a third of them under
//! random rail-fault timelines — each bit-identical to the output certified
//! against an independent reference engine.

use mha_bench::campaign::CampaignConfig;
use mha_conformance::{run, Oracle, Waterfill};

#[test]
fn engine_matches_certified_pins_on_random_schedules() {
    let report = run(
        Waterfill,
        Waterfill::DEFAULT_CASES,
        &CampaignConfig::default(),
    );
    assert_eq!(report.cases, 120);
    assert_eq!(report.count("faulted"), 40, "every third case runs faulted");
    assert!(report.is_clean(), "{report}");
}
