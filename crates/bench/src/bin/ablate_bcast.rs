//! Extension experiment: the multi-HCA-aware recipe applied to Broadcast
//! (the paper's future work mentions "other collectives") — hierarchical +
//! segmented + shm-overlapped vs the flat binomial tree. Runs as one
//! campaign (see `mha_bench::campaign`).

use mha_apps::report::{fmt_bytes, Table};
use mha_bench::campaign::{run_campaign, CampaignPoint};
use mha_collectives::{build_binomial_bcast, build_mha_bcast};
use mha_sched::{ProcGrid, RankId};
use mha_simnet::{size_sweep, ClusterSpec};

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let spec = ClusterSpec::thor();
    let grid = ProcGrid::new(8, 16);
    let sizes = size_sweep(64 * 1024, 16 << 20);
    let mut cells = Vec::new();
    for &msg in &sizes {
        cells.push(CampaignPoint::sim("binomial", spec.clone(), move || {
            build_binomial_bcast(grid, msg, RankId(0))
                .map(|b| b.sched)
                .map_err(|e| format!("{e:?}"))
        }));
        let spec2 = spec.clone();
        cells.push(CampaignPoint::sim("mha", spec.clone(), move || {
            build_mha_bcast(grid, msg, RankId(0), 256 * 1024, &spec2)
                .map(|b| b.sched)
                .map_err(|e| format!("{e:?}"))
        }));
    }
    let report = run_campaign(&cells, &cli.env.campaign).unwrap();
    let mut t = Table::new(
        "Extension: Broadcast, 8 nodes x 16 PPN (segment = 256 KB)",
        "msg_bytes",
        vec![
            "binomial_us".into(),
            "mha_bcast_us".into(),
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
    cli.emit(&t, "ablate_bcast");
}
