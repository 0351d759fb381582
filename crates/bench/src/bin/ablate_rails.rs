//! Ablation: how the MHA designs scale with the number of HCAs per node —
//! the ThetaGPU motivation (up to 8 rails, Section 1.1). Not a paper
//! figure; quantifies the design's headroom on denser multi-rail nodes.
//! Runs as one campaign (see `mha_bench::campaign`) spanning all four
//! rail counts; each row's cells carry their own cluster spec.

use mha_apps::report::{fmt_bytes, Table};
use mha_bench::campaign::{run_campaign, CampaignConfig, CampaignPoint, ConfigKey};
use mha_collectives::mha::{build_mha_intra, Offload};
use mha_collectives::{build, AlgoConfig};
use mha_sched::ProcGrid;
use mha_simnet::ClusterSpec;

fn main() {
    mha_bench::apply_check_flag();
    let msg = 1 << 20;
    let rail_counts = [1u8, 2, 4, 8];
    let mut cells = Vec::new();
    for &rails in &rail_counts {
        let spec = ClusterSpec::thor_with_rails(rails);
        let grid = ProcGrid::single_node(8);
        let key = ConfigKey::new("mha_intra/no_offload", grid, msg, &spec);
        let spec2 = spec.clone();
        cells.push(CampaignPoint::sim(
            "no_offload",
            key,
            spec.clone(),
            move || {
                build_mha_intra(grid, msg, Offload::None, &spec2)
                    .map(|b| b.sched)
                    .map_err(|e| format!("{e:?}"))
            },
        ));
        let key = ConfigKey::new("mha_intra/auto", grid, msg, &spec);
        let spec2 = spec.clone();
        cells.push(CampaignPoint::sim(
            "mha_auto",
            key,
            spec.clone(),
            move || {
                build_mha_intra(grid, msg, Offload::Auto, &spec2)
                    .map(|b| b.sched)
                    .map_err(|e| format!("{e:?}"))
            },
        ));
        let grid = ProcGrid::new(8, 8);
        let key = ConfigKey::new("mha_inter/default", grid, msg, &spec);
        let spec2 = spec.clone();
        cells.push(CampaignPoint::sim("inter", key, spec.clone(), move || {
            build(&AlgoConfig::default(), grid, msg, &spec2)
                .map(|b| b.sched)
                .map_err(|e| format!("{e:?}"))
        }));
    }
    let report = run_campaign(&cells, &CampaignConfig::from_env()).unwrap();
    let mut intra = Table::new(
        "Ablation: MHA-intra latency (us) vs rail count, 8 processes, 1 MB",
        "rails",
        vec!["no_offload".into(), "mha_auto".into(), "gain_pct".into()],
    );
    let mut inter = Table::new(
        "Ablation: MHA-inter latency (us) vs rail count, 8 nodes x 8 PPN, 1 MB",
        "rails",
        vec!["latency_us".into()],
    );
    for (i, &rails) in rail_counts.iter().enumerate() {
        let t_none = report.value(3 * i);
        let t_auto = report.value(3 * i + 1);
        intra.push(
            rails.to_string(),
            vec![t_none, t_auto, (1.0 - t_auto / t_none) * 100.0],
        );
        inter.push(rails.to_string(), vec![report.value(3 * i + 2)]);
    }
    let _ = fmt_bytes(msg);
    mha_bench::emit(&intra, "ablate_rails_intra");
    mha_bench::emit(&inter, "ablate_rails_inter");
}
