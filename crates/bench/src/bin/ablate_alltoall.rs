//! Extension experiment: hierarchical (node-aggregated) Alltoall vs the
//! flat shifted-direct algorithm — message-count aggregation at work.
//! Runs as one campaign (see `mha_bench::campaign`); the gain column is
//! derived from the two simulated cells at assembly time.

use mha_apps::report::{fmt_bytes, Table};
use mha_bench::campaign::{run_campaign, CampaignPoint};
use mha_collectives::{build_direct_alltoall, build_mha_alltoall};
use mha_sched::ProcGrid;
use mha_simnet::{size_sweep, ClusterSpec};

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let spec = ClusterSpec::thor();
    let grid = ProcGrid::new(8, 8);
    let sizes = size_sweep(64, 64 * 1024);
    let mut cells = Vec::new();
    for &msg in &sizes {
        cells.push(CampaignPoint::sim("flat", spec.clone(), move || {
            build_direct_alltoall(grid, msg)
                .map(|b| b.sched)
                .map_err(|e| format!("{e:?}"))
        }));
        let spec2 = spec.clone();
        cells.push(CampaignPoint::sim("mha", spec.clone(), move || {
            build_mha_alltoall(grid, msg, &spec2)
                .map(|b| b.sched)
                .map_err(|e| format!("{e:?}"))
        }));
    }
    let report = run_campaign(&cells, &cli.env.campaign).unwrap();
    let mut t = Table::new(
        "Extension: Alltoall, 8 nodes x 8 PPN",
        "msg_bytes",
        vec![
            "flat_direct_us".into(),
            "mha_alltoall_us".into(),
            "gain_pct".into(),
        ],
    );
    for (i, &msg) in sizes.iter().enumerate() {
        let t_flat = report.value(2 * i);
        let t_mha = report.value(2 * i + 1);
        t.push(
            fmt_bytes(msg),
            vec![t_flat, t_mha, (1.0 - t_mha / t_flat) * 100.0],
        );
    }
    cli.emit(&t, "ablate_alltoall");
}
