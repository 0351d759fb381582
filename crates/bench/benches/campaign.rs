//! Campaign runner overhead: `campaign_cold` (cache disabled — every job
//! rebuilds and refreezes its schedule) vs `campaign_warm` (shared
//! pre-warmed [`ScheduleCache`] — workers replay `Arc`-shared frozen
//! schedules through reused engine arenas) over the fig02 grid.
//!
//! Besides the Criterion console report, the measured medians are written
//! to `results/BENCH_campaign.json` (honoring `MHA_RESULTS_DIR`) so the
//! cold/warm gap is recorded alongside the figure CSVs.

use mha_collectives::{build, AlgoConfig, Family};
use std::time::Instant;

use criterion::{black_box, Criterion};
use mha_bench::campaign::{
    run_campaign_with, CampaignConfig, CampaignPoint, ConfigKey, ScheduleCache,
};
use mha_sched::ProcGrid;
use mha_simnet::ClusterSpec;

const SIZES: [usize; 5] = [256 * 1024, 512 * 1024, 1 << 20, 2 << 20, 4 << 20];

/// The fig02 workload family: flat Ring Allgather on 2 nodes × 2 PPN,
/// one point per message size.
fn fig02_points(spec: &ClusterSpec) -> Vec<CampaignPoint> {
    let grid = ProcGrid::new(2, 2);
    SIZES
        .iter()
        .map(|&msg| {
            let spec2 = spec.clone();
            CampaignPoint::sim(
                format!("ring_2x2_{msg}"),
                ConfigKey::new("allgather/ring", grid, msg, spec),
                spec.clone(),
                move || {
                    build(&AlgoConfig::flat(Family::Ring), grid, msg, &spec2)
                        .map(|b| b.sched)
                        .map_err(|e| format!("{e:?}"))
                },
            )
        })
        .collect()
}

/// Median wall-clock nanoseconds of `samples` runs of `f`.
fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut ns: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}

fn main() {
    let spec = ClusterSpec::thor();
    let points = fig02_points(&spec);
    let cfg = CampaignConfig {
        reps: 4, // amplifies build amortization: 20 jobs, 5 schedules
        cache: true,
        ..CampaignConfig::default()
    };
    let warm_cache = ScheduleCache::new(true);
    run_campaign_with(&points, &cfg, &warm_cache).unwrap(); // pre-warm

    let mut c = Criterion::default();
    let mut g = c.benchmark_group("campaign");
    g.bench_function("campaign_cold", |b| {
        b.iter(|| {
            let cache = ScheduleCache::new(false);
            black_box(
                run_campaign_with(&points, &cfg, &cache)
                    .unwrap()
                    .results
                    .len(),
            )
        })
    });
    g.bench_function("campaign_warm", |b| {
        b.iter(|| {
            black_box(
                run_campaign_with(&points, &cfg, &warm_cache)
                    .unwrap()
                    .results
                    .len(),
            )
        })
    });
    g.finish();

    // Manual medians for the JSON record (the Criterion shim prints to
    // stdout only).
    let cold_ns = median_ns(15, || {
        let cache = ScheduleCache::new(false);
        black_box(
            run_campaign_with(&points, &cfg, &cache)
                .unwrap()
                .results
                .len(),
        );
    });
    let warm_ns = median_ns(15, || {
        black_box(
            run_campaign_with(&points, &cfg, &warm_cache)
                .unwrap()
                .results
                .len(),
        );
    });

    let dir = std::env::var("MHA_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    std::fs::create_dir_all(&dir).unwrap();
    let path = format!("{dir}/BENCH_campaign.json");
    let json = format!(
        "{{\n  \"bench\": \"campaign_cold_vs_warm\",\n  \"grid\": \"fig02 flat ring 2x2\",\n  \
         \"sizes\": {SIZES:?},\n  \"points\": {},\n  \"reps\": {},\n  \"workers\": {},\n  \
         \"cold_ms_per_campaign\": {:.3},\n  \"warm_ms_per_campaign\": {:.3},\n  \
         \"warm_speedup\": {:.2}\n}}\n",
        points.len(),
        cfg.reps,
        cfg.workers,
        cold_ns / 1e6,
        warm_ns / 1e6,
        cold_ns / warm_ns
    );
    std::fs::write(&path, &json).unwrap();
    println!("campaign cold/warm medians written to {path}");
    print!("{json}");
}
