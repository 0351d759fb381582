//! Ablation: Eq. 1's analytic offload versus the Figure 5 empirical tuner
//! across process counts — quantifying how much the congestion-blind
//! model leaves on the table (the gap that motivates the paper's tuner).
//! Each process count is one campaign point (see `mha_bench::campaign`);
//! the tuner sweeps its own candidate simulations inside the point.

use mha_apps::report::Table;
use mha_bench::campaign::{run_campaign, CampaignPoint, Row};
use mha_collectives::mha::{optimal_offload, tune_offload, Offload};
use mha_collectives::{build, AlgoConfig, Family};
use mha_sched::ProcGrid;
use mha_simnet::{ClusterSpec, Simulator};

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let spec = ClusterSpec::thor();
    let msg = 1 << 20;
    let procs = [2u32, 4, 8, 16, 32];
    let points: Vec<CampaignPoint> = procs
        .iter()
        .map(|&l| {
            let spec = spec.clone();
            CampaignPoint::custom(format!("L{l}"), move |_seed| {
                let sim = Simulator::new(spec.clone()).map_err(|e| e.to_string())?;
                let grid = ProcGrid::single_node(l);
                let d_eq1 = optimal_offload(&spec, l, msg);
                let (d_tuned, _) = tune_offload(&spec, l, msg).map_err(|e| format!("{e:?}"))?;
                // Both candidates go through the unified AlgoConfig
                // dispatcher — the same path the tuning table serves.
                let intra = |d: u32| AlgoConfig {
                    offload: Offload::Fixed(d),
                    ..AlgoConfig::flat(Family::MhaIntra)
                };
                let eq1 = build(&intra(d_eq1), grid, msg, &spec).map_err(|e| format!("{e:?}"))?;
                let tuned =
                    build(&intra(d_tuned), grid, msg, &spec).map_err(|e| format!("{e:?}"))?;
                let t_eq1 = sim.run(&eq1.sched).map_err(|e| e.to_string())?.latency_us();
                let t_tuned = sim
                    .run(&tuned.sched)
                    .map_err(|e| e.to_string())?
                    .latency_us();
                Ok(vec![Row::new(
                    l.to_string(),
                    vec![
                        f64::from(d_eq1),
                        f64::from(d_tuned),
                        t_eq1,
                        t_tuned,
                        (1.0 - t_tuned / t_eq1) * 100.0,
                    ],
                )])
            })
        })
        .collect();
    let report = run_campaign(&points, &cli.env.campaign).unwrap();
    let mut t = Table::new(
        "Ablation: Eq.1 analytic offload vs empirical tuner, 1 MB blocks",
        "processes",
        vec![
            "d_eq1".into(),
            "d_tuned".into(),
            "eq1_us".into(),
            "tuned_us".into(),
            "tuner_gain_pct".into(),
        ],
    );
    for pr in &report.results {
        for row in &pr.rows {
            t.push(row.label.clone(), row.values.clone());
        }
    }
    cli.emit(&t, "ablate_tuning");
}
