//! The future-work experiment (paper Section 7): 3-level NUMA-aware
//! Allgather versus the NUMA-blind 2-level design on a dual-socket
//! cluster model, across message sizes. Runs as one campaign (see
//! `mha_bench::campaign`), three simulated cells per row.

use mha_apps::report::{fmt_bytes, Table};
use mha_bench::campaign::{run_campaign, CampaignConfig, CampaignPoint, ConfigKey};
use mha_collectives::mha::{build_mha_numa3, Numa3Config};
use mha_collectives::{build, AlgoConfig};
use mha_sched::ProcGrid;
use mha_simnet::{size_sweep, ClusterSpec};

fn main() {
    mha_bench::apply_check_flag();
    let spec = ClusterSpec::thor_numa();
    let grid = ProcGrid::new(4, 16);
    let sizes = size_sweep(4096, 1 << 20);
    let mut cells = Vec::new();
    for &msg in &sizes {
        let key = ConfigKey::new("numa/2level_blind", grid, msg, &spec);
        let spec2 = spec.clone();
        cells.push(CampaignPoint::sim("blind", key, spec.clone(), move || {
            build(&AlgoConfig::default(), grid, msg, &spec2)
                .map(|b| b.sched)
                .map_err(|e| format!("{e:?}"))
        }));
        let key = ConfigKey::new("numa/3level_aware", grid, msg, &spec);
        let spec2 = spec.clone();
        cells.push(CampaignPoint::sim("aware", key, spec.clone(), move || {
            build_mha_numa3(grid, msg, Numa3Config::default(), &spec2)
                .map(|b| b.sched)
                .map_err(|e| format!("{e:?}"))
        }));
        let key = ConfigKey::new("numa/3level_no_offload", grid, msg, &spec);
        let spec2 = spec.clone();
        cells.push(CampaignPoint::sim(
            "no_offload",
            key,
            spec.clone(),
            move || {
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
            },
        ));
    }
    let report = run_campaign(&cells, &CampaignConfig::from_env()).unwrap();
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
    mha_bench::emit(&t, "ablate_numa");
}
