//! Figure 17: synthetic Horovod-style training throughput (images/s),
//! ResNet-50/101/152, batch 16 per worker, MVAPICH2-X vs MHA. (HPC-X is
//! absent as in the paper — it could not be run with Horovod, Section 5.6.)
//! Each (model × process count) pair is one campaign point (see
//! `mha_bench::campaign`) running both contestants.

use mha_apps::deep_learning::{run_training_step, DlConfig, RESNET101, RESNET152, RESNET50};
use mha_apps::report::Table;
use mha_apps::Contestant;
use mha_bench::campaign::{run_campaign, CampaignPoint, Row};
use mha_collectives::Library;
use mha_sched::ProcGrid;
use mha_simnet::ClusterSpec;

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let spec = ClusterSpec::thor();
    let models = [RESNET50, RESNET101, RESNET152];
    let node_counts = [8u32, 16, 32];
    let mut points = Vec::new();
    for model in models {
        for &nodes in &node_counts {
            let grid = ProcGrid::new(nodes, 32);
            let cfg = DlConfig {
                grid,
                model,
                batch: 16,
            };
            let spec = spec.clone();
            points.push(CampaignPoint::custom(
                format!("{}/{}", model.name, grid.nranks()),
                move |_seed| {
                    let mva =
                        run_training_step(cfg, Contestant::Library(Library::Mvapich2X), &spec)
                            .map_err(|e| format!("{e:?}"))?;
                    let mha = run_training_step(cfg, Contestant::MhaTuned, &spec)
                        .map_err(|e| format!("{e:?}"))?;
                    Ok(vec![Row::new(
                        grid.nranks().to_string(),
                        vec![
                            mva.images_per_sec,
                            mha.images_per_sec,
                            (mha.images_per_sec / mva.images_per_sec - 1.0) * 100.0,
                        ],
                    )])
                },
            ));
        }
    }
    let report = run_campaign(&points, &cli.env.campaign).unwrap();
    for (mi, model) in models.iter().enumerate() {
        let mut t = Table::new(
            format!(
                "Figure 17: {} ({:.1} M params), images/sec, batch 16",
                model.name,
                model.params as f64 / 1e6
            ),
            "processes",
            vec!["MVAPICH2-X".into(), "MHA".into(), "improvement_pct".into()],
        );
        for ni in 0..node_counts.len() {
            let rows = report.rows_for(mi * node_counts.len() + ni);
            for row in rows {
                t.push(row.label.clone(), row.values.clone());
            }
        }
        let tag = model.name.to_lowercase().replace('-', "");
        cli.emit(&t, &format!("fig17_dl_{tag}"));
    }
    // Summarize a representative gradient-bucket Allreduce (2 MB, 256 ranks).
    let sim = mha_simnet::Simulator::new(spec.clone()).unwrap();
    let built = mha_collectives::build_ring_allreduce(
        ProcGrid::new(8, 32),
        (2 << 20) / 4,
        mha_collectives::AllgatherPhase::MhaInter(Default::default()),
        &spec,
    )
    .unwrap();
    cli.emit_run_summary(&sim, &built.sched, "fig17_dl");
}
