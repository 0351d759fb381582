//! Figure 16: matrix–vector multiplication kernel, GFLOP/s (higher is
//! better), strong scaling of 1024×32768 and weak scaling to 1024×131072.
//! Each (process count × contestant) cell is one campaign point (see
//! `mha_bench::campaign`).

use mha_apps::matvec::{run_matvec, MatvecConfig};
use mha_apps::report::Table;
use mha_apps::{paper_contestants, Contestant};
use mha_bench::campaign::{run_campaign, CampaignConfig, CampaignPoint, Row};
use mha_collectives::{build, AlgoConfig};
use mha_sched::ProcGrid;
use mha_simnet::ClusterSpec;

fn sweep(title: &str, cfg_of: impl Fn(ProcGrid) -> MatvecConfig, name: &str, spec: &ClusterSpec) {
    let contestants = paper_contestants();
    let node_counts = [8u32, 16, 32];
    let mut points = Vec::new();
    for &nodes in &node_counts {
        let grid = ProcGrid::new(nodes, 32);
        let cfg = cfg_of(grid);
        for c in &contestants {
            let c = *c;
            let spec = spec.clone();
            points.push(CampaignPoint::custom(
                format!("{}/{}", grid.nranks(), c.name()),
                move |_seed| {
                    let r = run_matvec(cfg, c, &spec).map_err(|e| format!("{e:?}"))?;
                    Ok(vec![Row::new(c.name(), vec![r.gflops])])
                },
            ));
        }
    }
    let report = run_campaign(&points, &CampaignConfig::from_env()).unwrap();
    let mut t = Table::new(
        title,
        "processes",
        contestants.iter().map(Contestant::name).collect(),
    );
    for (ni, &nodes) in node_counts.iter().enumerate() {
        let grid = ProcGrid::new(nodes, 32);
        let cfg = cfg_of(grid);
        let mut row = Vec::new();
        for ci in 0..contestants.len() {
            row.push(report.value(ni * contestants.len() + ci));
        }
        t.push(
            format!("{} ({}x{})", grid.nranks(), cfg.rows, cfg.cols),
            row,
        );
    }
    mha_bench::emit(&t, name);
}

fn main() {
    mha_bench::apply_check_flag();
    let spec = ClusterSpec::thor();
    sweep(
        "Figure 16a: matvec strong scaling, GFLOP/s (1024 x 32768)",
        MatvecConfig::strong_scaling,
        "fig16_matvec_strong",
        &spec,
    );
    sweep(
        "Figure 16b: matvec weak scaling, GFLOP/s",
        MatvecConfig::weak_scaling,
        "fig16_matvec_weak",
        &spec,
    );
    // Summarize the collective the kernel is bound by: the per-iteration
    // result-vector Allgather on the 256-process strong-scaling point.
    let sim = mha_simnet::Simulator::new(spec.clone()).unwrap();
    let grid = ProcGrid::new(8, 32);
    let msg = 32768 * 8 / grid.nranks() as usize;
    let built = build(&AlgoConfig::default(), grid, msg, &spec).unwrap();
    mha_bench::emit_run_summary(&sim, &built.sched, "fig16_matvec");
}
