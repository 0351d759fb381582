//! Figure 5: latency as a function of the offload size, showing the
//! V-shaped curve and the optimum the tuning algorithm finds. Each
//! (L, M) configuration is one campaign point (see `mha_bench::campaign`)
//! whose tuner sweep returns the full curve plus a meta row carrying the
//! tuned/analytic optima for the title.

use mha_apps::report::Table;
use mha_bench::campaign::{run_campaign, CampaignPoint, Row};
use mha_collectives::mha::tune_offload;
use mha_simnet::ClusterSpec;

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let spec = ClusterSpec::thor();
    let configs = [
        (4u32, 4usize << 20, "L4_4M"),
        (8, 1 << 20, "L8_1M"),
        (16, 1 << 20, "L16_1M"),
    ];
    let points: Vec<CampaignPoint> = configs
        .iter()
        .map(|&(l, msg, tag)| {
            let spec = spec.clone();
            CampaignPoint::custom(tag, move |_seed| {
                let (best, curve) = tune_offload(&spec, l, msg).map_err(|e| format!("{e:?}"))?;
                let analytic = mha_collectives::mha::optimal_offload(&spec, l, msg);
                let mut rows = vec![Row::new("meta", vec![f64::from(best), f64::from(analytic)])];
                for pt in &curve {
                    rows.push(Row::new(pt.d.to_string(), vec![pt.latency_us]));
                }
                Ok(rows)
            })
        })
        .collect();
    let report = run_campaign(&points, &cli.env.campaign).unwrap();
    for (pi, &(l, msg, tag)) in configs.iter().enumerate() {
        let rows = report.rows_for(pi);
        let best = rows[0].values[0] as u32;
        let analytic = rows[0].values[1] as u32;
        let mut t = Table::new(
            format!(
                "Figure 5: offload size vs latency, L={l}, M={msg} \
                 (tuned optimum d={best}, Eq.1 predicts d={analytic})"
            ),
            "offload_d",
            vec!["latency_us".into()],
        );
        for row in &rows[1..] {
            t.push(row.label.clone(), row.values.clone());
        }
        cli.emit(&t, &format!("fig05_offload_{tag}"));
    }
    let sim = mha_simnet::Simulator::new(spec.clone()).unwrap();
    let built = mha_collectives::mha::build_mha_intra(
        mha_sched::ProcGrid::single_node(8),
        1 << 20,
        mha_collectives::mha::Offload::Auto,
        &spec,
    )
    .unwrap();
    cli.emit_run_summary(&sim, &built.sched, "fig05_offload");
}
