//! `traffic_contended`: an `mha-traffic` Poisson stream through
//! `run_traffic_cached` — 64 jobs at 64 kHz on 16 nodes × 4 ppn, the
//! `paper_default` mix, random placement, 4 tenants, a fresh
//! `ScheduleCache` every rep.
//!
//! It uses the engine the other way round from `ring_1024`: one long run
//! of heavily contended components (tens of flows per solve, hundreds
//! active at the peak). It is also the only workload that goes through
//! `relocate_onto`, `merge_parts` and placement-keyed cache hits.
//!
//! Arrival seeds: a run cycles through the [`STREAMS`] consecutive streams
//! starting at arrival seed `base` (`--arrival-seed`, default 0), rep `i`
//! taking stream `base + (r + i) mod 16` where the rotation `r` comes from
//! the run seed. One stream's cost varies by up to 3× between streams, so
//! a run's median covers the whole set rather than hang on one draw, and
//! a claim can be re-checked on another base. Arrival seeds 0..256 have
//! their outputs pinned.

use std::collections::HashMap;
use std::sync::Arc;

use mha_bench::campaign::{ConfigKey, ScheduleCache};
use mha_bench::traffic::{run_traffic_cached, TrafficSweep};
use mha_sched::{merge_parts, FrozenSchedule, MergePart, OpId, Probe};
use mha_simnet::{EngineArena, Simulator};
use mha_traffic::{
    placement_digest, sample_jobs, tenant_fairness, tenant_stats, JobRecord, ResourceUse,
    TrafficReport,
};

use crate::{pins, trace, Digest, Output, Tracer, Workload};

/// Arrival seeds with a pinned output.
pub const ARRIVAL_SEEDS: u64 = 256;

/// Streams one run cycles through.
pub const STREAMS: u64 = 16;

/// The traffic workload.
pub struct Traffic {
    sweep: TrafficSweep,
    rate_hz: f64,
    base: u64,
    rotation: u64,
    pins: Option<&'static [Output]>,
    last: Option<TrafficReport>,
}

/// SplitMix64: spreads consecutive run seeds over the rotations.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Traffic {
    /// The benchmark configuration, checked against its pinned outputs.
    pub fn bench(seed: u64, base: u64) -> Self {
        let sweep = TrafficSweep {
            nodes: 16,
            ppn: 4,
            jobs: 64,
            loads_hz: vec![6.4e4],
            ..TrafficSweep::thor_default()
        };
        let mut t = Self::new(sweep, 6.4e4, seed, base);
        t.pins = Some(&pins::TRAFFIC_CONTENDED);
        t
    }

    /// One load level of `sweep` at `rate_hz` over the streams from
    /// arrival seed `base`, unpinned.
    pub fn new(sweep: TrafficSweep, rate_hz: f64, seed: u64, base: u64) -> Self {
        Traffic {
            sweep,
            rate_hz,
            base,
            rotation: splitmix(seed) % STREAMS,
            pins: None,
            last: None,
        }
    }

    /// The arrival seed of rep `i`.
    pub fn arrival_seed(&self, i: u64) -> u64 {
        self.base + (self.rotation + i) % STREAMS
    }

    /// Runs the stream of `arrival_seed`, untraced.
    pub fn run_stream(&mut self, arrival_seed: u64) -> Result<(), String> {
        let spec = self.sweep.spec_at(self.rate_hz, arrival_seed);
        let cache = ScheduleCache::new(true);
        let report = run_traffic_cached(&spec, &cache)?;
        std::hint::black_box(tenant_fairness(&tenant_stats(&report, spec.ppn)));
        self.last = Some(report);
        Ok(())
    }
}

/// Records each op's ready and end times, like `mha_traffic`'s tenant
/// probe, so jobs can be attributed through the merge spans.
struct JobProbe {
    ready: Vec<f64>,
    end: Vec<f64>,
}

impl Probe for JobProbe {
    fn op_ready(&mut self, op: u32, t: f64) {
        self.ready[op as usize] = t;
    }

    fn op_end(&mut self, op: u32, t: f64) {
        self.end[op as usize] = t;
    }
}

impl Workload for Traffic {
    fn rep(&mut self, i: u64) -> Result<(), String> {
        self.run_stream(self.arrival_seed(i))
    }

    fn output(&mut self) -> Result<Output, String> {
        let r = self.last.take().ok_or_else(|| "no rep ran".to_string())?;
        let mut d = Digest::new();
        for j in &r.jobs {
            d.word(u64::from(j.job.id))
                .word(j.arrival.to_bits())
                .word(j.end.to_bits());
        }
        Ok(Output {
            makespan_bits: r.makespan.to_bits(),
            digest: d.finish(),
            events: r.events,
        })
    }

    /// `run_traffic_cached` re-composed: `sample_jobs`, then
    /// `mha_bench::traffic::cached_builder` per job, then the body of
    /// `mha_traffic::run_jobs`, then `tenant_stats` and fairness.
    fn traced_rep(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        let spec = self.sweep.spec_at(self.rate_hz, self.arrival_seed(i));
        let cache = ScheduleCache::new(true);
        let jobs = tr.span("traffic.sample", || sample_jobs(&spec));
        tr.add("traffic.jobs", jobs.len() as f64);
        let grid = spec.grid();

        let mut frozen: Vec<Arc<FrozenSchedule>> = Vec::with_capacity(jobs.len());
        for job in &jobs {
            let key = ConfigKey::for_algo(&job.cfg, job.grid(spec.ppn), job.msg, &spec.cluster)
                .with_placement(placement_digest(grid, &job.nodes));
            let fs = cache.get_or_build(&key, || {
                let built = trace::build(tr, &job.cfg, job.grid(spec.ppn), job.msg, &spec.cluster)
                    .map_err(|e| format!("job {}: {e}", job.id))?;
                let solo = built.sched.into_schedule();
                let placed = tr
                    .span("sched.relocate", || {
                        mha_sched::relocate_onto(&solo, grid, &job.nodes)
                    })
                    .map_err(|e| format!("job {}: {e}", job.id))?;
                Ok(trace::freeze(tr, placed))
            })?;
            frozen.push(fs);
        }
        tr.add("bench.cache_hits", cache.hits() as f64);
        tr.add("bench.cache_misses", cache.misses() as f64);

        let index_of: HashMap<u32, usize> =
            jobs.iter().enumerate().map(|(k, j)| (j.id, k)).collect();
        let mut parts = Vec::with_capacity(jobs.len());
        for (k, j) in jobs.iter().enumerate() {
            let after = match j.after {
                None => None,
                Some(pred) => Some(*index_of.get(&pred).ok_or_else(|| {
                    format!(
                        "job {} chains on job {pred}, which is not in this run",
                        j.id
                    )
                })?),
            };
            parts.push(MergePart {
                sched: frozen[k].schedule(),
                release: j.release,
                after,
            });
        }
        let merged = tr
            .span("sched.merge", || merge_parts(grid, &parts))
            .map_err(|e| e.to_string())?;
        tr.add("sched.merged_ops", merged.schedule.ops().len() as f64);
        let spans = merged.spans;
        let merged_fs = trace::freeze(tr, merged.schedule);

        let sim = Simulator::new(spec.cluster.clone()).map_err(|e| e.to_string())?;
        trace::validate(tr, &merged_fs, spec.cluster.rails)?;
        let mut probe = JobProbe {
            ready: vec![0.0; merged_fs.n_ops()],
            end: vec![0.0; merged_fs.n_ops()],
        };
        let res = trace::simulate(tr, &sim, &merged_fs, &mut probe, &mut EngineArena::new())?;

        let records = jobs
            .iter()
            .enumerate()
            .map(|(k, j)| {
                let span = &spans[k];
                let arrival = frozen[k]
                    .roots()
                    .iter()
                    .map(|&r| {
                        let g = (span.start + r) as usize;
                        probe.ready[g] + merged_fs.schedule().release_of(OpId(g as u32))
                    })
                    .fold(0.0f64, f64::max);
                let end = (span.start..span.end)
                    .map(|g| probe.end[g as usize])
                    .fold(0.0f64, f64::max);
                JobRecord {
                    job: j.clone(),
                    arrival,
                    end,
                }
            })
            .collect();
        let resources = res
            .resource_labels
            .iter()
            .zip(&res.resource_bytes)
            .zip(&res.resource_capacity)
            .map(|((label, &bytes), &capacity)| ResourceUse {
                label: label.clone(),
                bytes,
                capacity,
            })
            .collect();
        let report = TrafficReport {
            jobs: records,
            makespan: res.makespan,
            tenants: spec.tenant_count(),
            resources,
            events: res.events,
        };
        let fairness = tr.span("traffic.report", || {
            tenant_fairness(&tenant_stats(&report, spec.ppn))
        });
        std::hint::black_box(fairness);
        self.last = Some(report);
        Ok(())
    }

    fn pinned(&self, i: u64) -> Option<Output> {
        let p = self.pins?;
        p.get(usize::try_from(self.arrival_seed(i)).ok()?).copied()
    }

    fn input_key(&self, i: u64) -> u64 {
        self.arrival_seed(i)
    }

    fn describe(&self) -> String {
        format!(
            "\"grid\":\"{}x{}\",\"jobs\":{},\"rate_hz\":{},\"tenants\":{},\"arrival_seed_base\":{},\"streams\":{STREAMS},\"rotation\":{}",
            self.sweep.nodes,
            self.sweep.ppn,
            self.sweep.jobs,
            self.rate_hz,
            self.sweep.tenants,
            self.base,
            self.rotation
        )
    }
}
