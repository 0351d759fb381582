//! The tenant-oracle acceptance bar.
//!
//! ≥ 100 seeded multi-tenant traffic scenarios, alternating hand-built
//! disjoint placements with random contended ones, must all pass with
//! the engine's invariant audit armed: disjoint tenants finish
//! bit-identically to their solo runs, and no simulator resource ever
//! carries more bytes than `capacity × makespan`.

use mha_bench::campaign::CampaignConfig;
use mha_conformance::{run, Oracle, Traffic};

#[test]
fn traffic_oracle_sweep_has_zero_disagreements() {
    let n = Traffic::DEFAULT_CASES;
    assert!(n >= 100, "acceptance bar requires >= 100 cases");
    let report = run(Traffic::armed(), n, &CampaignConfig::from_env());
    assert_eq!(report.cases, n);
    assert_eq!(report.count("disjoint"), n / 2, "{report}");
    assert!(report.is_clean(), "{report}");
}
