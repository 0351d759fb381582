//! The fault-oracle acceptance bar: ≥ 100 random fault schedules, zero
//! disagreements — degraded builds stay correct on both executors, faulted
//! simulation passes the invariant audit, and k-failed-rail latency stays
//! within the envelope of the α–β model at H − k rails.

use mha_bench::campaign::CampaignConfig;
use mha_conformance::{run, Faults, Oracle};

#[test]
fn fault_oracle_sweep_has_zero_disagreements() {
    let n = Faults::DEFAULT_CASES;
    assert!(n >= 100, "acceptance bar requires >= 100 cases");
    let report = run(Faults, n, &CampaignConfig::from_env());
    assert_eq!(report.cases, n);
    assert!(
        report.count("envelope") >= n / 4,
        "too few bandwidth-regime cases reached the envelope check: {report}"
    );
    assert!(report.is_clean(), "{report}");
}
