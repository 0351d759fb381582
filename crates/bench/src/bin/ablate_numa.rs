//! The future-work experiment (paper Section 7): 3-level NUMA-aware
//! Allgather versus the NUMA-blind 2-level design on a dual-socket
//! cluster model, across message sizes. Runs as one campaign (see
//! `mha_bench::campaign`), three simulated cells per row.

use mha_apps::report::{fmt_bytes, Table};
use mha_bench::campaign::{run_campaign, CampaignPoint};
use mha_collectives::mha::{build_mha_numa3, Numa3Config};
use mha_collectives::{build, AlgoConfig};
use mha_sched::ProcGrid;
use mha_simnet::{size_sweep, ClusterSpec};

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let spec = ClusterSpec::thor_numa();
    let grid = ProcGrid::new(4, 16);
    let sizes = size_sweep(4096, 1 << 20);
    let mut cells = Vec::new();
    for &msg in &sizes {
        let spec2 = spec.clone();
        cells.push(CampaignPoint::sim("blind", spec.clone(), move || {
            build(&AlgoConfig::default(), grid, msg, &spec2)
                .map(|b| b.sched)
                .map_err(|e| format!("{e:?}"))
        }));
        let spec2 = spec.clone();
        cells.push(CampaignPoint::sim("aware", spec.clone(), move || {
            build_mha_numa3(grid, msg, Numa3Config::default(), &spec2)
                .map(|b| b.sched)
                .map_err(|e| format!("{e:?}"))
        }));
        let spec2 = spec.clone();
        cells.push(CampaignPoint::sim("no_offload", spec.clone(), move || {
            build_mha_numa3(
                grid,
                msg,
                Numa3Config {
                    offload_xsocket: false,
                },
                &spec2,
            )
            .map(|b| b.sched)
            .map_err(|e| format!("{e:?}"))
        }));
    }
    let report = run_campaign(&cells, &cli.env.campaign).unwrap();
    let mut t = Table::new(
        "Future work: 3-level NUMA-aware vs 2-level NUMA-blind, 4 nodes x 16 PPN \
         (dual-socket, 7 GB/s effective cross-socket copies)",
        "msg_bytes",
        vec![
            "2level_blind_us".into(),
            "3level_numa_us".into(),
            "3level_no_offload_us".into(),
            "gain_pct".into(),
        ],
    );
    for (i, &msg) in sizes.iter().enumerate() {
        let t_blind = report.value(3 * i);
        let t_aware = report.value(3 * i + 1);
        let t_noloop = report.value(3 * i + 2);
        t.push(
            fmt_bytes(msg),
            vec![
                t_blind,
                t_aware,
                t_noloop,
                (1.0 - t_aware / t_blind) * 100.0,
            ],
        );
    }
    cli.emit(&t, "ablate_numa");
}
