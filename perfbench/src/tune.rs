//! `tune_reduced`: `mha_tune::run_search(reduced_points(thor))` — three
//! points, ~74 rung-0 candidates each on the proxy grid, ~22 rung-1
//! finalists each on the true grid, one point priced under a rail-down
//! fault timeline, a fresh schedule cache every rep.
//!
//! The search is split into its points: rep `i` runs `run_search` on
//! point `i % 3` alone, and `wall_s` is the sum over the points of each
//! one's fastest rep. The search shares no cache entry between points
//! (every key holds the message size), so the parts cost what the whole
//! does, and reps under a second instead of ~2.5 s give the fastest-rep
//! estimate many more chances to land in a quiet stretch of a shared host.
//!
//! Many short simulations of distinct schedules: per-run set-up, first
//! validation, cache misses, the campaign pool and the fault path all
//! weigh here. An engine change that trades per-run set-up for per-event
//! speed shows here and nowhere else.
//!
//! The campaign runs on one worker: the search costs 1.8–4.1 s across one
//! and two workers on a two-core host, and one worker keeps a run steady
//! and the serial traced re-composition comparable with the untraced rep.

use std::collections::HashSet;

use mha_bench::campaign::{simulator_for, CampaignConfig, ConfigKey, ScheduleCache};
use mha_collectives::{AlgoConfig, TableKey, TunedTable};
use mha_sched::{NullProbe, ProcGrid};
use mha_simnet::{ClusterSpec, EngineArena, FaultSpec};
use mha_tune::search::{down_rails, fault_timeline, proxy_grid};
use mha_tune::{candidates, reduced_points, run_search, untuned_families, TunePoint};

use crate::{pins, trace, Output, Tracer, Workload};

/// Campaign workers of the untraced search.
pub const WORKERS: usize = 1;

/// The autotuner workload.
pub struct Tune {
    spec: ClusterSpec,
    points: Vec<TunePoint>,
    cfg: CampaignConfig,
    pins: Option<&'static [Output]>,
    last: Option<u64>,
}

impl Tune {
    /// The benchmark configuration, checked against its pinned output.
    /// `seed` is the campaign seed; the search's simulation points do not
    /// read it, so every seed tunes the same table.
    pub fn bench(seed: u64) -> Self {
        let spec = ClusterSpec::thor();
        let points = reduced_points(&spec);
        let mut t = Self::new(spec, points, WORKERS, seed);
        t.pins = Some(&pins::TUNE_REDUCED);
        t
    }

    /// A search over `points` on `workers` campaign workers, one point per
    /// rep, unpinned.
    pub fn new(spec: ClusterSpec, points: Vec<TunePoint>, workers: usize, seed: u64) -> Self {
        Tune {
            spec,
            points,
            cfg: CampaignConfig {
                workers,
                cache: true,
                reps: 1,
                seed,
            },
            pins: None,
            last: None,
        }
    }
}

/// `mha_tune::search::price_configs` without the pool: the same cache
/// keys, builds and simulators, one config after another.
#[allow(clippy::too_many_arguments)]
fn price(
    tr: &mut Tracer,
    configs: &[AlgoConfig],
    grid: ProcGrid,
    msg: usize,
    faults: Option<&FaultSpec>,
    spec: &ClusterSpec,
    cache: &ScheduleCache,
    arena: &mut EngineArena,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(configs.len());
    for c in configs {
        let key = ConfigKey::for_algo(c, grid, msg, spec);
        let sim_spec = c.effective_spec(spec).into_owned();
        let fs = cache.get_or_build(&key, || {
            trace::build(tr, c, grid, msg, &sim_spec).map(|b| b.sched)
        })?;
        let sim = simulator_for(&sim_spec, faults)?;
        trace::validate(tr, &fs, sim_spec.rails)?;
        out.push(trace::simulate(tr, &sim, &fs, &mut NullProbe, arena)?.latency_us());
    }
    Ok(out)
}

impl Tune {
    /// The point rep `i` searches.
    fn point(&self, i: u64) -> usize {
        (i % self.points.len() as u64) as usize
    }
}

impl Workload for Tune {
    fn rep(&mut self, i: u64) -> Result<(), String> {
        let k = self.point(i);
        let outcome = run_search(&self.points[k..=k], &self.spec, &self.cfg)?;
        self.last = Some(outcome.table.digest());
        Ok(())
    }

    fn output(&mut self) -> Result<Output, String> {
        let digest = self.last.take().ok_or_else(|| "no rep ran".to_string())?;
        Ok(Output {
            makespan_bits: 0,
            digest,
            events: 0,
        })
    }

    /// `run_search` re-composed from `candidates`, `proxy_grid`,
    /// `down_rails`, `fault_timeline` and `untuned_families`, with the
    /// pricing done serially (see [`price`]).
    fn traced_rep(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        let k = self.point(i);
        let spec = &self.spec;
        let cache = ScheduleCache::new(self.cfg.cache);
        let mut arena = EngineArena::new();
        let mut table = TunedTable::new(spec.digest());
        for point in &self.points[k..=k] {
            tr.add("tune.points", 1.0);
            let down = down_rails(point.rails_up, spec.rails);
            let faults = fault_timeline(&down);
            let proxy = proxy_grid(point.grid);
            let pool: Vec<AlgoConfig> = candidates(point.grid, &down)
                .into_iter()
                .filter(|c| c.valid_for(proxy))
                .collect();
            let p0 = price(
                tr,
                &pool,
                proxy,
                point.msg,
                faults.as_ref(),
                spec,
                &cache,
                &mut arena,
            )?;
            tr.add("tune.rung0_priced", pool.len() as f64);
            let mut order: Vec<usize> = (0..pool.len()).collect();
            order.sort_by(|&a, &b| {
                p0[a]
                    .total_cmp(&p0[b])
                    .then_with(|| pool[a].digest().cmp(&pool[b].digest()))
            });
            let keep = pool.len().div_ceil(4);
            let mut finalists: Vec<AlgoConfig> =
                order[..keep].iter().map(|&i| pool[i].clone()).collect();
            finalists.extend(
                untuned_families()
                    .into_iter()
                    .filter(|(_, c)| c.valid_for(point.grid))
                    .map(|(_, c)| c),
            );
            let mut seen = HashSet::new();
            finalists.retain(|c| seen.insert(c.digest()));
            let p1 = price(
                tr,
                &finalists,
                point.grid,
                point.msg,
                faults.as_ref(),
                spec,
                &cache,
                &mut arena,
            )?;
            tr.add("tune.rung1_priced", finalists.len() as f64);
            let win = (0..p1.len())
                .min_by(|&a, &b| {
                    p1[a]
                        .total_cmp(&p1[b])
                        .then_with(|| finalists[a].digest().cmp(&finalists[b].digest()))
                })
                .ok_or_else(|| "empty rung 1".to_string())?;
            table.insert(
                TableKey::for_query(point.grid, point.msg, point.rails_up),
                finalists[win].clone(),
            );
        }
        tr.add("bench.cache_hits", cache.hits() as f64);
        tr.add("bench.cache_misses", cache.misses() as f64);
        self.last = Some(table.digest());
        Ok(())
    }

    fn pinned(&self, i: u64) -> Option<Output> {
        self.pins.map(|p| p[self.point(i)])
    }

    fn input_key(&self, i: u64) -> u64 {
        self.point(i) as u64
    }

    fn parts(&self) -> u64 {
        self.points.len() as u64
    }

    fn describe(&self) -> String {
        format!(
            "\"points\":{},\"workers\":{},\"campaign_seed\":{}",
            self.points.len(),
            self.cfg.workers,
            self.cfg.seed
        )
    }
}
