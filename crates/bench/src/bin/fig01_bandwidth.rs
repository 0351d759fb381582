//! Figure 1: bandwidth comparison between intra-node communication (CMA)
//! and inter-node communication with one and two HCAs, 8 KB – 4 MB.
//! Each message size is one campaign point (see `mha_bench::campaign`);
//! the three placements share the row's point.

use std::sync::Arc;

use mha_apps::report::{fmt_bytes, Table};
use mha_bench::campaign::{run_campaign, CampaignPoint, Row};
use mha_simnet::{pt2pt_bandwidth_mbps, size_sweep, ClusterSpec, Placement, Simulator};

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let window = 64;
    let two = Arc::new(Simulator::new(ClusterSpec::thor()).unwrap());
    let one = Arc::new(Simulator::new(ClusterSpec::thor_single_rail()).unwrap());
    let sizes = size_sweep(8 * 1024, 4 << 20);
    let points: Vec<CampaignPoint> = sizes
        .iter()
        .map(|&m| {
            let two = Arc::clone(&two);
            let one = Arc::clone(&one);
            CampaignPoint::custom(fmt_bytes(m), move |_seed| {
                let intra = pt2pt_bandwidth_mbps(&two, Placement::IntraNode, m, window)
                    .map_err(|e| e.to_string())?;
                let inter1 = pt2pt_bandwidth_mbps(&one, Placement::InterNode, m, window)
                    .map_err(|e| e.to_string())?;
                let inter2 = pt2pt_bandwidth_mbps(&two, Placement::InterNode, m, window)
                    .map_err(|e| e.to_string())?;
                Ok(vec![Row::new(fmt_bytes(m), vec![intra, inter1, inter2])])
            })
        })
        .collect();
    let report = run_campaign(&points, &cli.env.campaign).unwrap();
    let mut t = Table::new(
        "Figure 1: pt2pt bandwidth (MB/s), intra-node CMA vs inter-node 1/2 HCAs",
        "msg_bytes",
        vec![
            "intra-node CMA".into(),
            "inter-node 1 HCA".into(),
            "inter-node 2 HCAs".into(),
        ],
    );
    for pr in &report.results {
        for row in &pr.rows {
            t.push(row.label.clone(), row.values.clone());
        }
    }
    cli.emit(&t, "fig01_bandwidth");
    cli.emit_run_summary(
        &two,
        &mha_bench::pt2pt_rails_schedule(4 << 20),
        "fig01_bandwidth",
    );
}
