//! Figure 10: validation of the MHA-inter cost model (Eqs. 6/7) against
//! the simulator, 8 nodes × 32 PPN, 1 KB – 1 MB. The whole validation
//! sweep is one campaign point (see `mha_bench::campaign`); a meta row
//! carries the mean relative error for the title.

use mha_apps::report::{fmt_bytes, Table};
use mha_bench::campaign::{run_campaign, CampaignConfig, CampaignPoint, Row};
use mha_collectives::{build, AlgoConfig};
use mha_model::{calibrate, mean_rel_error, validate_inter};
use mha_simnet::{size_sweep, ClusterSpec};

fn main() {
    mha_bench::apply_check_flag();
    let spec = ClusterSpec::thor();
    let spec2 = spec.clone();
    let points = vec![CampaignPoint::custom("validate_inter", move |_seed| {
        let params = calibrate(&spec2).map_err(|e| format!("{e:?}"))?;
        let sizes = size_sweep(1024, 1 << 20);
        let points =
            validate_inter(&spec2, &params, 8, 32, &sizes).map_err(|e| format!("{e:?}"))?;
        let mut rows = vec![Row::new("meta", vec![mean_rel_error(&points) * 100.0])];
        for p in &points {
            rows.push(Row::new(
                fmt_bytes(p.msg),
                vec![p.actual_us, p.predicted_us, p.rel_error() * 100.0],
            ));
        }
        Ok(rows)
    })];
    let report = run_campaign(&points, &CampaignConfig::from_env()).unwrap();
    let rows = report.rows_for(0);
    let mut t = Table::new(
        format!(
            "Figure 10: MHA-inter model validation, 8 nodes x 32 PPN \
             (mean rel. error {:.1}%)",
            rows[0].values[0]
        ),
        "msg_bytes",
        vec![
            "actual_us".into(),
            "predicted_us".into(),
            "rel_err_pct".into(),
        ],
    );
    for row in &rows[1..] {
        t.push(row.label.clone(), row.values.clone());
    }
    mha_bench::emit(&t, "fig10_model_inter");
    let sim = mha_simnet::Simulator::new(spec.clone()).unwrap();
    let built = build(
        &AlgoConfig::default(),
        mha_sched::ProcGrid::new(8, 32),
        64 * 1024,
        &spec,
    )
    .unwrap();
    mha_bench::emit_run_summary(&sim, &built.sched, "fig10_model_inter");
}
