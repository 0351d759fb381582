//! Offered-load traffic campaigns: `mha-traffic` scenarios driven
//! through the campaign runner's worker pool.
//!
//! Each offered-load level is one [`CampaignPoint::custom`] job: sample
//! the Poisson job stream at that rate, price every job in one merged
//! simulation, and report per-tenant p50/p95/p99 latency, delivered
//! throughput and Jain's fairness index. All points share one
//! *placement-keyed* [`ScheduleCache`] — the cache key is
//! [`ConfigKey::for_algo`] of the job's solo build extended with
//! [`ConfigKey::with_placement`], so two jobs with the same config on
//! different node subsets build (and cache) distinct relocated
//! schedules. Results are bit-independent of the worker count, like
//! every other campaign.

use std::sync::Arc;

use mha_sched::FrozenSchedule;
use mha_simnet::ClusterSpec;
use mha_traffic::{
    placement_digest, run_jobs, sample_jobs, tenant_fairness, tenant_stats, Arrival, JobSpec,
    PlacementPolicy, TrafficReport, TrafficSpec, WorkloadMix,
};

use crate::campaign::{run_campaign, CampaignConfig, CampaignPoint, ConfigKey, Row, ScheduleCache};
use mha_apps::report::Table;

/// A builder for [`run_jobs`] that memoizes *relocated* frozen schedules
/// in `cache` under placement-extended keys. Jobs repeating the same
/// (config, message, placement) triple — every rep of a closed loop,
/// most of a heavy Poisson stream — rebuild nothing.
pub fn cached_builder<'a>(
    spec: &'a TrafficSpec,
    cache: &'a ScheduleCache,
) -> impl FnMut(&JobSpec) -> Result<Arc<FrozenSchedule>, String> + 'a {
    let cluster_grid = spec.grid();
    move |job: &JobSpec| {
        let key = ConfigKey::for_algo(&job.cfg, job.grid(spec.ppn), job.msg, &spec.cluster)
            .with_placement(placement_digest(cluster_grid, &job.nodes));
        cache.get_or_build(&key, || {
            let built =
                mha_collectives::build(&job.cfg, job.grid(spec.ppn), job.msg, &spec.cluster)
                    .map_err(|e| format!("job {}: {e}", job.id))?;
            let solo = built.sched.into_schedule();
            let placed = mha_sched::relocate_onto(&solo, cluster_grid, &job.nodes)
                .map_err(|e| format!("job {}: {e}", job.id))?;
            Ok(placed.freeze())
        })
    }
}

/// Samples and runs `spec` through `cache` (the library-level
/// [`mha_traffic::run_traffic`] with the cached builder swapped in).
pub fn run_traffic_cached(
    spec: &TrafficSpec,
    cache: &ScheduleCache,
) -> Result<TrafficReport, String> {
    let jobs = sample_jobs(spec);
    let mut build = cached_builder(spec, cache);
    run_jobs(spec, &jobs, &mut build)
}

/// One offered-load sweep: the scenario shape shared by every load level.
#[derive(Debug, Clone)]
pub struct TrafficSweep {
    /// The shared cluster.
    pub cluster: ClusterSpec,
    /// Cluster width in nodes.
    pub nodes: u32,
    /// Processes per node.
    pub ppn: u32,
    /// Placement policy for every job.
    pub policy: PlacementPolicy,
    /// Tenants jobs round-robin over.
    pub tenants: u32,
    /// Jobs per load level.
    pub jobs: u32,
    /// Poisson arrival rates to sweep (jobs/second, ascending makes the
    /// nicest plots but any order works).
    pub loads_hz: Vec<f64>,
}

impl TrafficSweep {
    /// The default sweep on the Thor preset: 8 nodes × 4 ppn, random
    /// placement, 4 tenants, 32 jobs per level, loads from uncontended
    /// to heavily oversubscribed.
    pub fn thor_default() -> Self {
        TrafficSweep {
            cluster: ClusterSpec::thor(),
            nodes: 8,
            ppn: 4,
            policy: PlacementPolicy::Random,
            tenants: 4,
            jobs: 32,
            loads_hz: vec![1.0e3, 4.0e3, 1.6e4, 6.4e4],
        }
    }

    /// The [`TrafficSpec`] of one load level under `seed`.
    pub fn spec_at(&self, rate_hz: f64, seed: u64) -> TrafficSpec {
        TrafficSpec {
            cluster: self.cluster.clone(),
            nodes: self.nodes,
            ppn: self.ppn,
            arrival: Arrival::Poisson {
                rate_hz,
                jobs: self.jobs,
            },
            mix: WorkloadMix::paper_default(self.nodes),
            policy: self.policy,
            tenants: self.tenants,
            seed,
        }
    }
}

/// The campaign points of a sweep: one custom point per load level, all
/// sharing `cache`. The point seed (a pure function of campaign seed and
/// point index) seeds the scenario, so reps resample the stream while
/// worker count never moves a bit.
fn offered_load_points(sweep: &TrafficSweep, cache: Arc<ScheduleCache>) -> Vec<CampaignPoint> {
    sweep
        .loads_hz
        .iter()
        .map(|&rate_hz| {
            let sweep = sweep.clone();
            let cache = Arc::clone(&cache);
            CampaignPoint::custom(format!("load{rate_hz:e}"), move |seed| {
                let spec = sweep.spec_at(rate_hz, seed);
                let report = run_traffic_cached(&spec, &cache)?;
                let stats = tenant_stats(&report, spec.ppn);
                let fairness = tenant_fairness(&stats);
                Ok(stats
                    .iter()
                    .map(|s| {
                        Row::new(
                            format!("hz{rate_hz:e}/t{}", s.tenant),
                            vec![
                                rate_hz,
                                s.jobs as f64,
                                s.p50 * 1e6,
                                s.p95 * 1e6,
                                s.p99 * 1e6,
                                s.throughput / 1e6,
                                fairness,
                            ],
                        )
                    })
                    .collect())
            })
        })
        .collect()
}

/// Runs the sweep and assembles the throughput-vs-offered-load table:
/// one row per `(load, tenant[, rep])`, columns `offered_hz`, `jobs`,
/// latency percentiles (µs), delivered throughput (MB/s) and the run's
/// Jain fairness index.
pub fn offered_load_table(sweep: &TrafficSweep, cfg: &CampaignConfig) -> Result<Table, String> {
    let cache = Arc::new(ScheduleCache::new(cfg.cache));
    let points = offered_load_points(sweep, cache);
    let report = run_campaign(&points, cfg)?;
    let mut table = Table::new(
        format!(
            "Traffic: offered load sweep, {}x{} {} placement, {} tenants",
            sweep.nodes,
            sweep.ppn,
            sweep.policy.token(),
            sweep.tenants
        ),
        "load/tenant",
        [
            "offered_hz",
            "jobs",
            "p50_us",
            "p95_us",
            "p99_us",
            "tput_MBps",
            "jain",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    for pr in &report.results {
        for row in &pr.rows {
            let label = if cfg.reps > 1 {
                format!("{}/r{}", row.label, pr.rep)
            } else {
                row.label.clone()
            };
            table.push(label, row.values.clone());
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_builder_hits_on_repeat_placements() {
        let sweep = TrafficSweep {
            jobs: 12,
            ..TrafficSweep::thor_default()
        };
        let spec = sweep.spec_at(2.0e3, 42);
        let cache = ScheduleCache::new(true);
        let r1 = run_traffic_cached(&spec, &cache).unwrap();
        let misses_cold = cache.misses();
        let r2 = run_traffic_cached(&spec, &cache).unwrap();
        assert_eq!(r1.makespan.to_bits(), r2.makespan.to_bits());
        assert_eq!(
            cache.misses(),
            misses_cold,
            "warm rerun must build nothing new"
        );
        assert!(cache.hits() >= 12, "second run should hit per job");
    }

    #[test]
    fn offered_load_table_is_worker_invariant() {
        let sweep = TrafficSweep {
            jobs: 8,
            loads_hz: vec![2.0e3, 3.2e4],
            ..TrafficSweep::thor_default()
        };
        let serial =
            offered_load_table(&sweep, &CampaignConfig::default().with_workers(1)).unwrap();
        let pooled =
            offered_load_table(&sweep, &CampaignConfig::default().with_workers(8)).unwrap();
        assert_eq!(serial.to_csv(), pooled.to_csv());
        assert_eq!(serial.len(), 2 * sweep.tenants as usize);
    }
}
