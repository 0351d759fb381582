//! Figure 3: inter-node latency with one and two HCAs (striping halves
//! large-message latency above the 16 KB threshold). Each message size is
//! one campaign point (see `mha_bench::campaign`).

use std::sync::Arc;

use mha_apps::report::{fmt_bytes, Table};
use mha_bench::campaign::{run_campaign, CampaignPoint, Row};
use mha_simnet::{pt2pt_latency_us, size_sweep, ClusterSpec, Placement, Simulator};

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let two = Arc::new(Simulator::new(ClusterSpec::thor()).unwrap());
    let one = Arc::new(Simulator::new(ClusterSpec::thor_single_rail()).unwrap());
    let sizes = size_sweep(8 * 1024, 4 << 20);
    let points: Vec<CampaignPoint> = sizes
        .iter()
        .map(|&m| {
            let two = Arc::clone(&two);
            let one = Arc::clone(&one);
            CampaignPoint::custom(fmt_bytes(m), move |_seed| {
                let l1 =
                    pt2pt_latency_us(&one, Placement::InterNode, m).map_err(|e| e.to_string())?;
                let l2 =
                    pt2pt_latency_us(&two, Placement::InterNode, m).map_err(|e| e.to_string())?;
                Ok(vec![Row::new(fmt_bytes(m), vec![l1, l2])])
            })
        })
        .collect();
    let report = run_campaign(&points, &cli.env.campaign).unwrap();
    let mut t = Table::new(
        "Figure 3: inter-node pt2pt latency (us), 1 vs 2 HCAs",
        "msg_bytes",
        vec!["1 HCA".into(), "2 HCAs".into()],
    );
    for pr in &report.results {
        for row in &pr.rows {
            t.push(row.label.clone(), row.values.clone());
        }
    }
    cli.emit(&t, "fig03_latency");
    cli.emit_run_summary(
        &two,
        &mha_bench::pt2pt_rails_schedule(4 << 20),
        "fig03_latency",
    );
}
