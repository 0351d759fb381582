//! The traced run's recorder: spans held in memory and written when the
//! run ends, counts taken at the same layer boundaries, and the layer
//! calls wrapped in their spans.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use mha_collectives::{AlgoConfig, Built};
use mha_sched::{FrozenSchedule, Probe, ProcGrid, Schedule, Tee};
use mha_simnet::{ClusterSpec, EngineArena, SimResult, Simulator};

/// One layer call inside one traced rep.
#[derive(Debug, Clone)]
pub struct Span {
    /// The rep the span belongs to.
    pub rep: u64,
    /// Layer name, e.g. `simnet.run`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
}

/// Records spans and per-rep counts.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    rep: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Attributes the spans and counts that follow to rep `rep`.
    pub fn begin_rep(&mut self, rep: u64) {
        self.rep = rep;
        self.counts.clear();
    }

    /// Opens a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            rep: self.rep,
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, and any span an error path left open inside it.
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = end;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Adds `v` to this rep's count `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Raises this rep's count `name` to at least `v`.
    pub fn peak(&mut self, name: &'static str, v: f64) {
        let c = self.counts.entry(name).or_insert(0.0);
        *c = c.max(v);
    }

    /// This rep's counts.
    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    /// Self time per layer name over the spans of `rep`: each span's
    /// duration minus the durations of its children.
    pub fn self_times(&self, rep: u64) -> BTreeMap<&'static str, f64> {
        let lo = self
            .spans
            .iter()
            .position(|s| s.rep == rep)
            .unwrap_or(self.spans.len());
        let hi = self.spans[lo..]
            .iter()
            .position(|s| s.rep != rep)
            .map_or(self.spans.len(), |k| lo + k);
        let spans = &self.spans[lo..hi];
        let mut own: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
        for s in spans {
            if let Some(p) = s.parent {
                own[p - lo] -= s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, t) in spans.iter().zip(own) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"rep\":{},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
                s.rep, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Counts the engine's water-fill solves and rate changes through the
/// `Probe` seam.
#[derive(Debug, Default)]
struct EngineCounts {
    solves: u64,
    flows: u64,
    touched: u64,
    rate_changes: u64,
}

impl Probe for EngineCounts {
    fn flow_rate(&mut self, _op: u32, _flow: u32, _rate: f64, _t: f64) {
        self.rate_changes += 1;
    }

    fn waterfill(&mut self, _t: f64, flows: usize, touched: usize) {
        self.solves += 1;
        self.flows += flows as u64;
        self.touched += touched as u64;
    }
}

/// `mha_collectives::build` in a `collectives.build` span.
pub fn build(
    tr: &mut Tracer,
    cfg: &AlgoConfig,
    grid: ProcGrid,
    msg: usize,
    spec: &ClusterSpec,
) -> Result<Built, String> {
    let built = tr.span("collectives.build", || {
        mha_collectives::build(cfg, grid, msg, spec)
    });
    tr.add("collectives.builds", 1.0);
    built.map_err(|e| e.to_string())
}

/// `Schedule::freeze` in a `sched.freeze` span.
pub fn freeze(tr: &mut Tracer, sched: Schedule) -> FrozenSchedule {
    tr.span("sched.freeze", move || sched.freeze())
}

/// `mha_sched::validate`, through the frozen schedule's memo, in a
/// `sched.validate` span. The simulator's own validation of the same
/// schedule then hits the memo, so the rep validates once, as untraced.
pub fn validate(tr: &mut Tracer, fs: &FrozenSchedule, rails: u8) -> Result<(), String> {
    tr.span("sched.validate", || fs.validate_for(Some(rails)))
        .map_err(|e| e.to_string())
}

/// `Simulator::run_probed_in` in a `simnet.run` span, counting the
/// engine's work alongside `probe`.
pub fn simulate<P: Probe>(
    tr: &mut Tracer,
    sim: &Simulator,
    fs: &FrozenSchedule,
    probe: &mut P,
    arena: &mut EngineArena,
) -> Result<SimResult, String> {
    let mut counts = EngineCounts::default();
    let r = tr
        .span("simnet.run", || {
            sim.run_probed_in(fs, &mut Tee(probe, &mut counts), arena)
        })
        .map_err(|e| e.to_string())?;
    tr.add("simnet.runs", 1.0);
    tr.add("simnet.events", r.events as f64);
    tr.add("simnet.waterfill_solves", counts.solves as f64);
    tr.add("simnet.waterfill_flows", counts.flows as f64);
    tr.add("simnet.levels_touched", counts.touched as f64);
    tr.add("simnet.rate_changes", counts.rate_changes as f64);
    tr.peak("simnet.peak_flows", r.max_concurrent_flows as f64);
    tr.add("sched.ops", fs.n_ops() as f64);
    tr.add("sched.edges", fs.n_edges() as f64);
    Ok(r)
}
