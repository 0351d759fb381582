//! The tuned-choice acceptance bar: the shipped tuning table serves a
//! correct Allgather for every seeded random query — on-grid and off.

use mha_bench::campaign::CampaignConfig;
use mha_conformance::{run, Oracle, Tuned};

#[test]
fn shipped_table_serves_only_correct_allgathers() {
    let oracle = Tuned::shipped().unwrap_or_else(|e| panic!("{e}"));
    let n = Tuned::DEFAULT_CASES;
    assert!(n >= 200, "acceptance bar requires >= 200 queries");
    let report = run(oracle, n, &CampaignConfig::default());
    assert_eq!(report.cases, n);
    // The query sampler roams off the tuned grid on purpose: both serving
    // regimes must be exercised.
    assert!(report.count("exact") > 0, "no query ever hit the table");
    assert!(
        report.count("fallback") > 0,
        "no query ever exercised the fallback"
    );
    assert!(report.is_clean(), "{report}");
}
