//! Figure 9: validation of the MHA-intra cost model (Eq. 2) against the
//! simulator, 4 processes, 256 KB – 16 MB. The whole validation sweep is
//! one campaign point (see `mha_bench::campaign`); a meta row carries the
//! mean relative error for the title.

use mha_apps::report::{fmt_bytes, Table};
use mha_bench::campaign::{run_campaign, CampaignPoint, Row};
use mha_model::{calibrate, mean_rel_error, validate_intra};
use mha_simnet::{size_sweep, ClusterSpec};

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let spec = ClusterSpec::thor();
    let spec2 = spec.clone();
    let points = vec![CampaignPoint::custom("validate_intra", move |_seed| {
        let params = calibrate(&spec2).map_err(|e| format!("{e:?}"))?;
        let sizes = size_sweep(256 * 1024, 16 << 20);
        let points = validate_intra(&spec2, &params, 4, &sizes).map_err(|e| format!("{e:?}"))?;
        let mut rows = vec![Row::new("meta", vec![mean_rel_error(&points) * 100.0])];
        for p in &points {
            rows.push(Row::new(
                fmt_bytes(p.msg),
                vec![p.actual_us, p.predicted_us, p.rel_error() * 100.0],
            ));
        }
        Ok(rows)
    })];
    let report = run_campaign(&points, &cli.env.campaign).unwrap();
    let rows = report.rows_for(0);
    let mut t = Table::new(
        format!(
            "Figure 9: MHA-intra model validation, 4 processes \
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
    cli.emit(&t, "fig09_model_intra");
    let sim = mha_simnet::Simulator::new(spec.clone()).unwrap();
    let built = mha_collectives::mha::build_mha_intra(
        mha_sched::ProcGrid::single_node(4),
        4 << 20,
        mha_collectives::mha::Offload::Auto,
        &spec,
    )
    .unwrap();
    cli.emit_run_summary(&sim, &built.sched, "fig09_model_intra");
}
