//! The timing loop, the correctness checks and the reduction of a run to
//! its metrics.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use crate::{Output, Tracer, Workload};

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Seconds of reps to run (at least [`MIN_REPS`] untraced reps, or one
    /// traced pair, whatever this says).
    pub seconds: f64,
    /// Make the traced run instead of the timed one.
    pub trace: bool,
    /// Check every rep against this output instead of the pinned one.
    pub pin_override: Option<Output>,
}

/// Untraced reps a run makes however long they take.
pub const MIN_REPS: u64 = 3;

/// Layer self times must sum to the traced wall within this share of it.
pub const SELF_SUM_TOLERANCE: f64 = 0.01;

/// One traced rep and its untraced twin on the same input.
#[derive(Debug, Clone)]
pub struct TracedRep {
    /// The rep's input key.
    pub key: u64,
    /// Seconds the traced rep took.
    pub wall: f64,
    /// Seconds the untraced twin took.
    pub untraced_wall: f64,
    /// Self time per layer name, including the `aux` measurements.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Counts taken at the layer boundaries.
    pub counts: BTreeMap<&'static str, f64>,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were an error or differed from their reference.
    pub failed: u64,
    /// Seconds per untraced rep, with the rep's input key.
    pub walls: Vec<(u64, f64)>,
    /// The workload's [`Workload::parts`].
    pub parts: u64,
    /// Traced reps (traced runs only).
    pub traced: Vec<TracedRep>,
    /// Traced reps whose output differed from the untraced twin's, or
    /// whose layer self times did not sum to their wall.
    pub unfaithful: u64,
    /// The first few failures, for the run header.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl RunReport {
    fn note(&mut self, what: String) {
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(what);
    }

    /// Counts one checked output; returns it when there was one.
    fn check(&mut self, i: u64, got: Result<Output, String>, want: &Output) -> Option<Output> {
        match got {
            Ok(o) if o == *want => {
                self.attempted += 1;
                Some(o)
            }
            Ok(o) => {
                self.fail(format!(
                    "rep {i}: output {o:?} differs from reference {want:?}"
                ));
                Some(o)
            }
            Err(e) => {
                self.fail(format!("rep {i}: {e}"));
                None
            }
        }
    }

    /// Failed outputs over attempted ones.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Every output matched its reference and the traced run was faithful.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.unfaithful == 0
    }
}

/// The reference output of rep `i`: the override, the pinned output, or —
/// for an input with none pinned — the output of the traced
/// re-composition of the same input, computed once per input.
fn reference(
    w: &mut dyn Workload,
    i: u64,
    plan: &Plan,
    unpinned: &mut HashMap<u64, Output>,
) -> Result<Output, String> {
    if let Some(p) = plan.pin_override.or_else(|| w.pinned(i)) {
        return Ok(p);
    }
    let key = w.input_key(i);
    if let Some(o) = unpinned.get(&key) {
        return Ok(*o);
    }
    let mut tr = Tracer::new();
    let root = tr.enter("reference");
    let r = w.traced_rep(i, &mut tr);
    tr.exit(root);
    r?;
    let o = w.output()?;
    unpinned.insert(key, o);
    Ok(o)
}

/// Runs `w` under `plan`.
pub fn run(w: &mut Box<dyn Workload>, plan: &Plan) -> RunReport {
    run_with(w, plan, &mut |_| {})
}

/// Runs `w` under `plan`, calling `between` after every rep, outside the
/// timed and checked part. `between` may replace the workload with a
/// fresh set-up of the same one.
pub fn run_with(
    w: &mut Box<dyn Workload>,
    plan: &Plan,
    between: &mut dyn FnMut(&mut Box<dyn Workload>),
) -> RunReport {
    let mut report = RunReport {
        parts: w.parts(),
        ..RunReport::default()
    };
    let mut unpinned = HashMap::new();
    let mut tracer = Tracer::new();
    let min_reps = if plan.trace { 1 } else { MIN_REPS }.max(report.parts);
    let start = Instant::now();
    let mut i = 0u64;
    while i < min_reps || start.elapsed().as_secs_f64() < plan.seconds {
        let want = match reference(w.as_mut(), i, plan, &mut unpinned) {
            Ok(o) => o,
            Err(e) => {
                report.fail(format!("rep {i}: no reference: {e}"));
                i += 1;
                continue;
            }
        };
        let t0 = Instant::now();
        let r = w.rep(i);
        let untraced_wall = t0.elapsed().as_secs_f64();
        report.walls.push((w.input_key(i), untraced_wall));
        let untraced = report.check(i, r.and_then(|()| w.output()), &want);

        if plan.trace {
            tracer.begin_rep(i);
            let t1 = Instant::now();
            let root = tracer.enter("rep");
            let r = w.traced_rep(i, &mut tracer);
            tracer.exit(root);
            let wall = t1.elapsed().as_secs_f64();
            let traced = report.check(i, r.and_then(|()| w.output()), &want);
            if traced.is_none() || traced != untraced {
                report.unfaithful += 1;
                report.note(format!(
                    "rep {i}: traced output {traced:?} differs from untraced {untraced:?}"
                ));
            }
            let self_sum: f64 = tracer.self_times(i).values().sum();
            if (self_sum - wall).abs() > SELF_SUM_TOLERANCE * wall {
                report.unfaithful += 1;
                report.note(format!(
                    "rep {i}: layer self times sum to {self_sum} s, traced wall is {wall} s"
                ));
            }
            let aux = tracer.enter("aux");
            let a = w.traced_aux(i, &mut tracer);
            tracer.exit(aux);
            match a {
                Ok(Some(o)) => {
                    report.check(i, Ok(o), &want);
                }
                Ok(None) => {}
                Err(e) => report.fail(format!("rep {i}: aux: {e}")),
            }
            report.traced.push(TracedRep {
                key: w.input_key(i),
                wall,
                untraced_wall,
                self_s: tracer.self_times(i),
                counts: tracer.counts().clone(),
            });
        }
        between(w);
        i += 1;
    }
    // The final check counts only when it fails, so that `error_rate`
    // stays the share of failed rep outputs.
    if let Some(Err(e)) = w.final_check() {
        report.fail(format!("final check: {e}"));
    }
    if plan.trace {
        report.tracer = Some(tracer);
    }
    report
}

/// The per-layer metrics and their units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("collectives.build_s", "s"),
    ("collectives.builds", "count"),
    ("sched.validate_s", "s"),
    ("sched.freeze_s", "s"),
    ("sched.ops", "count"),
    ("sched.edges", "count"),
    ("sched.relocate_s", "s"),
    ("sched.merge_s", "s"),
    ("sched.merged_ops", "count"),
    ("simnet.run_s", "s"),
    ("simnet.runs", "count"),
    ("simnet.events", "count"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.waterfill_solves", "count"),
    ("simnet.flows_per_solve", "count"),
    ("simnet.levels_touched_per_solve", "count"),
    ("simnet.rate_changes", "count"),
    ("simnet.peak_flows", "count"),
    ("bench.cache_hits", "count"),
    ("bench.cache_misses", "count"),
    ("bench.cache_hit_ratio", "ratio"),
    ("traffic.sample_s", "s"),
    ("traffic.jobs", "count"),
    ("traffic.report_s", "s"),
    ("tune.points", "count"),
    ("tune.rung0_priced", "count"),
    ("tune.rung1_priced", "count"),
    ("exec.store_setup_s", "s"),
    ("exec.run_s", "s"),
    ("exec.single_run_s", "s"),
    ("exec.speedup_vs_single", "ratio"),
    ("exec.ops_per_s", "1/s"),
    ("exec.bytes_moved", "B"),
    ("exec.verify_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.other_s", "s"),
];

/// One per-layer metric of one traced rep. A `_s` metric is the self time
/// of the span of the same name; a bare name is the count of that name.
fn layer_value(name: &str, t: &TracedRep) -> f64 {
    let s = |k: &str| t.self_s.get(k).copied().unwrap_or(0.0);
    let c = |k: &str| t.counts.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    match name {
        "trace.wall_s" => t.wall,
        "trace.overhead_s" => t.wall - t.untraced_wall,
        "trace.other_s" => s("rep"),
        "simnet.ns_per_event" => ratio(s("simnet.run") * 1e9, c("simnet.events")),
        "simnet.flows_per_solve" => {
            ratio(c("simnet.waterfill_flows"), c("simnet.waterfill_solves"))
        }
        "simnet.levels_touched_per_solve" => {
            ratio(c("simnet.levels_touched"), c("simnet.waterfill_solves"))
        }
        "bench.cache_hit_ratio" => ratio(
            c("bench.cache_hits"),
            c("bench.cache_hits") + c("bench.cache_misses"),
        ),
        "exec.speedup_vs_single" => ratio(s("exec.single_run"), s("exec.run")),
        "exec.ops_per_s" => ratio(c("sched.ops"), s("exec.run")),
        n => match n.strip_suffix("_s") {
            Some(span) => s(span),
            None => c(n),
        },
    }
}

/// Counts that are a peak over the rep rather than a total.
const PEAK_COUNTS: [&str; 1] = ["simnet.peak_flows"];

/// The traced reps of a workload made of several parts, joined into whole
/// reps: the `j`-th traced rep of every part, times and totals summed,
/// peaks maxed. Parts traced fewer times than others leave the rest out.
fn whole_reps(report: &RunReport) -> Vec<TracedRep> {
    let mut by_part: BTreeMap<u64, Vec<&TracedRep>> = BTreeMap::new();
    for t in &report.traced {
        by_part.entry(t.key).or_default().push(t);
    }
    if (by_part.len() as u64) < report.parts {
        return Vec::new();
    }
    let n = by_part.values().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|j| {
            let mut whole = TracedRep {
                key: 0,
                wall: 0.0,
                untraced_wall: 0.0,
                self_s: BTreeMap::new(),
                counts: BTreeMap::new(),
            };
            for part in by_part.values() {
                let t = part[j];
                whole.wall += t.wall;
                whole.untraced_wall += t.untraced_wall;
                for (&k, &v) in &t.self_s {
                    *whole.self_s.entry(k).or_insert(0.0) += v;
                }
                for (&k, &v) in &t.counts {
                    let c = whole.counts.entry(k).or_insert(0.0);
                    *c = if PEAK_COUNTS.contains(&k) {
                        c.max(v)
                    } else {
                        *c + v
                    };
                }
            }
            whole
        })
        .collect()
}

/// Each per-layer metric's median over the traced (whole) reps.
pub fn per_layer(report: &RunReport) -> Vec<(&'static str, &'static str, f64)> {
    let whole;
    let reps = if report.parts > 1 {
        whole = whole_reps(report);
        &whole
    } else {
        &report.traced
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = reps.iter().map(|t| layer_value(name, t)).collect();
            (name, unit, median(v))
        })
        .collect()
}

/// The end-to-end `wall_s`: the fastest rep of each distinct input, then
/// the median over inputs — or, for a workload made of parts, their sum.
/// Other tenants of a shared host only ever add time — on a two-core
/// host whole seconds-long phases run ~1.5× slower with no run-queue
/// wait to show for it — so the fastest of identical reps is the
/// steadiest estimate of what the code costs, and short reps give it
/// more chances to land in a quiet stretch.
pub fn wall_s(report: &RunReport) -> f64 {
    let mut fastest: BTreeMap<u64, f64> = BTreeMap::new();
    for &(key, t) in &report.walls {
        let f = fastest.entry(key).or_insert(t);
        *f = f.min(t);
    }
    if report.parts > 1 {
        fastest.into_values().sum()
    } else {
        median(fastest.into_values().collect())
    }
}

/// The median of `v` (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile of `v` (0 when empty).
pub fn percentile(mut v: Vec<f64>, p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
