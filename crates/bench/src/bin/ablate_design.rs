//! Ablation over the MHA-inter design space: phase-2 algorithm × offload
//! policy × phase-2/3 overlap — quantifying how much each design choice
//! of Section 3.2 contributes. The six variants run as one campaign (see
//! `mha_bench::campaign`); the full design doubles as the baseline cell.

use mha_apps::report::Table;
use mha_bench::campaign::{run_campaign, CampaignPoint};
use mha_collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha_collectives::{build, AlgoConfig};
use mha_sched::ProcGrid;
use mha_simnet::ClusterSpec;

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let spec = ClusterSpec::thor();
    let grid = ProcGrid::new(8, 16);
    let msg = 64 * 1024;
    let full = MhaInterConfig::default();
    let variants = [
        ("full design (ring, eq1 offload, overlap)", full),
        (
            "no phase-1 offload",
            MhaInterConfig {
                offload: Offload::None,
                ..full
            },
        ),
        (
            "no phase-2/3 overlap",
            MhaInterConfig {
                overlap: false,
                ..full
            },
        ),
        (
            "RD phase 2",
            MhaInterConfig {
                inter: InterAlgo::RecursiveDoubling,
                ..full
            },
        ),
        (
            "RD, no overlap, no offload",
            MhaInterConfig {
                inter: InterAlgo::RecursiveDoubling,
                offload: Offload::None,
                overlap: false,
            },
        ),
    ];
    let cells: Vec<CampaignPoint> = variants
        .iter()
        .map(|&(name, cfg)| {
            let spec2 = spec.clone();
            CampaignPoint::sim(name, spec.clone(), move || {
                build(&AlgoConfig::mha_inter(cfg), grid, msg, &spec2)
                    .map(|b| b.sched)
                    .map_err(|e| format!("{e:?}"))
            })
        })
        .collect();
    let report = run_campaign(&cells, &cli.env.campaign).unwrap();
    let full_t = report.value(0);
    let mut t = Table::new(
        "Ablation: MHA-inter design choices, 8 nodes x 16 PPN, 64 KB per rank",
        "configuration",
        vec!["latency_us".into(), "vs_full_design_pct".into()],
    );
    for (i, (name, _)) in variants.iter().enumerate() {
        let lat = report.value(i);
        t.push(*name, vec![lat, (lat / full_t - 1.0) * 100.0]);
    }
    cli.emit(&t, "ablate_design");
}
