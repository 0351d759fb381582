//! Multi-tenant traffic figure: throughput vs offered load on a shared
//! cluster. Sweeps Poisson arrival rates over an 8-node Thor cluster with
//! randomly placed jobs from the paper-default workload mix, all priced in
//! one merged simulation per level, and reports per-tenant p50/p95/p99
//! job latency, delivered throughput and Jain's fairness index
//! (`results/fig_traffic.csv`). A second emission carries the raw per-job
//! trace of the heaviest load level. Deterministic: the CSVs are
//! byte-identical for any `MHA_CAMPAIGN_WORKERS`, which CI diffs.

use mha_bench::campaign::ScheduleCache;
use mha_bench::traffic::{offered_load_table, run_traffic_cached, TrafficSweep};
use mha_traffic::{job_trace_csv, tenant_csv, tenant_stats};

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let cfg = &cli.env.campaign;
    let sweep = TrafficSweep::thor_default();

    let table = offered_load_table(&sweep, cfg).unwrap();
    cli.emit(&table, "fig_traffic");

    // Raw artifacts for the heaviest level: the per-job trace and the
    // tenant summary the table aggregates.
    let heaviest = sweep
        .loads_hz
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let spec = sweep.spec_at(heaviest, cfg.seed);
    let cache = ScheduleCache::new(cfg.cache);
    let report = run_traffic_cached(&spec, &cache).unwrap();
    cli.emit_text(&job_trace_csv(&report), "fig_traffic_jobs");
    cli.emit_text(
        &tenant_csv(&tenant_stats(&report, spec.ppn)),
        "fig_traffic_tenants",
    );
}
