//! The differential-oracle acceptance bar: ≥ 200 random configurations,
//! all four families, zero disagreements, plus the model envelope.

use mha_bench::campaign::CampaignConfig;
use mha_conformance::{check_model_envelope, run, Differential, Family, Oracle};

#[test]
fn oracle_sweep_has_zero_disagreements() {
    let n = Differential::DEFAULT_CASES;
    assert!(n >= 200, "acceptance bar requires >= 200 cases");
    let mut report = run(Differential, n, &CampaignConfig::default());
    report.disagreements.extend(check_model_envelope());
    assert_eq!(report.cases, n);
    for f in Family::ALL {
        assert!(
            report.count(f.name()) >= n / 4,
            "{f:?} under-covered: {report}"
        );
    }
    assert!(report.is_clean(), "{report}");
}
