//! Figure 8: Ring vs Recursive Doubling in the inter-leader exchange,
//! 16 and 32 nodes × 32 PPN. One campaign per node count (see
//! `mha_bench::campaign`): every (size, algorithm) cell is a build +
//! simulation point.

use mha_apps::report::fmt_bytes;
use mha_bench::campaign::{campaign_table, CampaignPoint};
use mha_collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha_collectives::{build, AlgoConfig};
use mha_sched::ProcGrid;
use mha_simnet::{size_sweep, ClusterSpec, Simulator};

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let spec = ClusterSpec::thor();
    let ccfg = &cli.env.campaign;
    for nodes in [16u32, 32] {
        let grid = ProcGrid::new(nodes, 32);
        let sizes = size_sweep(4, 1 << 20);
        let row_labels: Vec<String> = sizes.iter().map(|&m| fmt_bytes(m)).collect();
        let mut cells = Vec::new();
        for &msg in &sizes {
            for (name, algo) in [
                ("rd", InterAlgo::RecursiveDoubling),
                ("ring", InterAlgo::Ring),
            ] {
                let cfg = MhaInterConfig {
                    inter: algo,
                    offload: Offload::Auto,
                    overlap: true,
                };
                let spec2 = spec.clone();
                cells.push(CampaignPoint::sim(name, spec.clone(), move || {
                    build(&AlgoConfig::mha_inter(cfg), grid, msg, &spec2)
                        .map(|b| b.sched)
                        .map_err(|e| format!("{e:?}"))
                }));
            }
        }
        let t = campaign_table(
            &format!("Figure 8: RD vs Ring in phase 2, {nodes} nodes x 32 PPN"),
            "msg_bytes",
            vec!["RD_us".into(), "Ring_us".into()],
            &row_labels,
            cells,
            ccfg,
        )
        .unwrap();
        cli.emit(&t, &format!("fig08_rd_vs_ring_{nodes}n"));
    }
    let sim = Simulator::new(spec.clone()).unwrap();
    let cfg = MhaInterConfig {
        inter: InterAlgo::RecursiveDoubling,
        offload: Offload::Auto,
        overlap: true,
    };
    let built = build(
        &AlgoConfig::mha_inter(cfg),
        ProcGrid::new(16, 32),
        64 * 1024,
        &spec,
    )
    .unwrap();
    cli.emit_run_summary(&sim, &built.sched, "fig08_rd_vs_ring");
}
