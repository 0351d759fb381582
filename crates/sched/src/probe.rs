//! Pluggable observability for schedule execution.
//!
//! Every interpreter of a [`FrozenSchedule`] — the discrete-event simulator
//! and both real executors — narrates its run through the [`Probe`] trait:
//! op lifecycle spans (`ready`/`start`/`end`), fluid flow-rate changes,
//! water-filling recomputations and end-of-run resource totals. Sinks decide
//! what to keep:
//!
//! * [`NullProbe`] — keeps nothing (the default; all trait methods are
//!   no-op defaults, so custom sinks override only what they need);
//! * [`JsonlProbe`] — streams every event as one JSON object per line, for
//!   offline analysis (format documented on the type and in `DESIGN.md`);
//! * [`SummaryProbe`] — folds the stream into a [`RunSummary`]: per-resource
//!   utilization plus the network/CPU overlap fraction that quantifies the
//!   paper's Fig. 7 compute–communication overlap argument.
//!
//! The ASCII timeline sink (`TraceBuilder`) lives in `mha-simnet::trace`
//! because it renders against the simulator's lane model.

use std::io::{self, Write};

use crate::frozen::FrozenSchedule;

/// Observer of a single schedule execution.
///
/// All methods default to no-ops. Times are seconds from the start of the
/// run — simulated time for the simulator, wall-clock for the executors.
/// Ops are identified by their dense index; resolve metadata through the
/// [`FrozenSchedule`] handed to [`Probe::begin_run`].
pub trait Probe {
    /// The run is starting. `backend` identifies the interpreter
    /// (`"simnet"`, `"exec-single"`, `"exec-threaded"`).
    fn begin_run(&mut self, fs: &FrozenSchedule, backend: &'static str) {
        let _ = (fs, backend);
    }

    /// All dependencies of `op` are satisfied.
    fn op_ready(&mut self, op: u32, t: f64) {
        let _ = (op, t);
    }

    /// `op` began executing (startup latency elapsed, flows created).
    fn op_start(&mut self, op: u32, t: f64) {
        let _ = (op, t);
    }

    /// `op` finished.
    fn op_end(&mut self, op: u32, t: f64) {
        let _ = (op, t);
    }

    /// Whether this sink consumes the flow-lifecycle events
    /// ([`Probe::resource_decl`], [`Probe::flow_begin`], [`Probe::flow_end`]).
    ///
    /// Emitting those events costs the interpreter a small allocation per
    /// flow, so backends skip them unless a sink opts in. [`Probe::flow_rate`]
    /// is always delivered regardless.
    fn wants_flows(&self) -> bool {
        false
    }

    /// Declares one backend resource before any flow events: dense `index`,
    /// human-readable `label` (e.g. `tx(n0,h1)`) and `capacity` in bytes/s.
    /// Emitted after [`Probe::begin_run`], in index order, only when
    /// [`Probe::wants_flows`] is `true`.
    fn resource_decl(&mut self, index: u32, label: &str, capacity: f64) {
        let _ = (index, label, capacity);
    }

    /// A fluid flow of `op` was created: it will drain `bytes` at up to
    /// `cap` bytes/s, consuming `weight × rate` of each `(resource, weight)`
    /// pair while active. Flow indices are recycled after [`Probe::flow_end`].
    /// Only emitted when [`Probe::wants_flows`] is `true`.
    fn flow_begin(
        &mut self,
        op: u32,
        flow: u32,
        resources: &[(u32, f64)],
        cap: f64,
        bytes: f64,
        t: f64,
    ) {
        let _ = (op, flow, resources, cap, bytes, t);
    }

    /// Flow `flow` of `op` drained completely. Only emitted when
    /// [`Probe::wants_flows`] is `true`.
    fn flow_end(&mut self, op: u32, flow: u32, t: f64) {
        let _ = (op, flow, t);
    }

    /// Fluid flow `flow` belonging to `op` was (re)assigned `rate` bytes/s.
    fn flow_rate(&mut self, op: u32, flow: u32, rate: f64, t: f64) {
        let _ = (op, flow, rate, t);
    }

    /// Resource `res`'s effective capacity changed to `capacity` bytes/s at
    /// `t` — emitted by the simulator at fault boundaries (rail derate,
    /// link down/up). `capacity == 0.0` means the resource is down.
    fn resource_capacity(&mut self, res: u32, capacity: f64, t: f64) {
        let _ = (res, capacity, t);
    }

    /// Flow `flow` of `op` was re-issued onto a different resource set at
    /// `t` (retry after a rail fault). The flow keeps its identity and its
    /// remaining bytes; only its `(resource, weight)` pairs change.
    fn flow_resources(&mut self, op: u32, flow: u32, resources: &[(u32, f64)], t: f64) {
        let _ = (op, flow, resources, t);
    }

    /// The max-min water-filler recomputed a connected component of
    /// `flows` flows; `touched` of the component's resources had their
    /// bottleneck saturation level actually move. A truly incremental
    /// update reports `touched` well below the component's resource count
    /// — this is the observable distinguishing it from a full recompute.
    fn waterfill(&mut self, t: f64, flows: usize, touched: usize) {
        let _ = (t, flows, touched);
    }

    /// End-of-run total for one resource: `bytes` moved through a resource
    /// of `capacity` bytes/s.
    fn resource_sample(&mut self, label: &str, bytes: f64, capacity: f64) {
        let _ = (label, bytes, capacity);
    }

    /// The run finished after `makespan` seconds.
    fn end_run(&mut self, makespan: f64) {
        let _ = makespan;
    }
}

/// A probe that discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProbe;

impl Probe for NullProbe {}

// ---------------------------------------------------------------------------
// Interval arithmetic shared by summary sinks and metrics.
// ---------------------------------------------------------------------------

/// Total length of the union of (possibly overlapping) `[start, end)`
/// intervals. `O(n log n)`; intervals need not be sorted.
pub fn union_length(intervals: &[(f64, f64)]) -> f64 {
    if intervals.is_empty() {
        return 0.0;
    }
    let mut iv: Vec<(f64, f64)> = intervals.iter().filter(|(s, e)| e > s).copied().collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match cur {
            None => cur = Some((s, e)),
            Some((cs, ce)) => {
                if s <= ce {
                    cur = Some((cs, ce.max(e)));
                } else {
                    total += ce - cs;
                    cur = Some((s, e));
                }
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Total length of the intersection of the unions of two interval sets:
/// `|A ∩ B| = |A| + |B| − |A ∪ B|`.
pub fn intersection_length(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let mut all = a.to_vec();
    all.extend_from_slice(b);
    (union_length(a) + union_length(b) - union_length(&all)).max(0.0)
}

// ---------------------------------------------------------------------------
// JSONL sink
// ---------------------------------------------------------------------------

/// Streams the probe event stream as JSON Lines.
///
/// One object per line. The stream opens with a `begin` record and one `op`
/// record per op (static metadata), then carries dynamic events in order:
///
/// ```text
/// {"ev":"begin","backend":"simnet","schedule":"ring","ops":12,"edges":14}
/// {"ev":"op","op":0,"kind":"rails","bytes":4096,"step":0,"rank":0,"label":"r0->r4"}
/// {"ev":"res","res":0,"label":"cpu(r0)","capacity":1.3e10}
/// {"ev":"ready","op":0,"t":0.0}
/// {"ev":"start","op":0,"t":1.9e-6}
/// {"ev":"flow_begin","op":0,"flow":0,"cap":1.55e10,"bytes":4096.0,"resources":[[4,1.0],[6,1.0]],"t":1.9e-6}
/// {"ev":"rate","op":0,"flow":0,"rate":1.55e10,"t":1.9e-6}
/// {"ev":"waterfill","t":1.9e-6,"flows":2}
/// {"ev":"flow_end","op":0,"flow":0,"t":4.54e-6}
/// {"ev":"end","op":0,"t":4.54e-6}
/// {"ev":"resource","label":"tx(n0,h0)","bytes":4096.0,"capacity":1.55e10}
/// {"ev":"end_run","makespan":4.54e-6}
/// ```
///
/// Times are seconds; rates and capacities bytes/s. `step` is `null` for
/// untagged ops. No external JSON dependency is used: fields are numbers,
/// fixed keys and escaped strings only.
#[derive(Debug)]
pub struct JsonlProbe<W: Write> {
    w: W,
    err: Option<io::Error>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl<W: Write> JsonlProbe<W> {
    /// A sink writing to `w`.
    pub fn new(w: W) -> Self {
        JsonlProbe { w, err: None }
    }

    fn line(&mut self, s: String) {
        if self.err.is_none() {
            if let Err(e) = writeln!(self.w, "{s}") {
                self.err = Some(e);
            }
        }
    }

    /// Finishes the stream, returning the writer or the first I/O error.
    pub fn into_inner(mut self) -> io::Result<W> {
        match self.err.take() {
            Some(e) => Err(e),
            None => {
                self.w.flush()?;
                Ok(self.w)
            }
        }
    }
}

impl<W: Write> Probe for JsonlProbe<W> {
    fn begin_run(&mut self, fs: &FrozenSchedule, backend: &'static str) {
        self.line(format!(
            "{{\"ev\":\"begin\",\"backend\":\"{}\",\"schedule\":\"{}\",\"ops\":{},\"edges\":{}}}",
            json_escape(backend),
            json_escape(fs.name()),
            fs.n_ops(),
            fs.n_edges()
        ));
        for (i, row) in fs.rows().iter().enumerate() {
            let step = match row.step {
                Some(s) => s.to_string(),
                None => "null".into(),
            };
            self.line(format!(
                "{{\"ev\":\"op\",\"op\":{},\"kind\":\"{}\",\"bytes\":{},\"step\":{},\"rank\":{},\"label\":\"{}\"}}",
                i,
                row.class.name(),
                row.bytes,
                step,
                row.rank,
                json_escape(&fs.ops()[i].label().to_string())
            ));
        }
    }

    fn op_ready(&mut self, op: u32, t: f64) {
        self.line(format!("{{\"ev\":\"ready\",\"op\":{op},\"t\":{t:e}}}"));
    }

    fn op_start(&mut self, op: u32, t: f64) {
        self.line(format!("{{\"ev\":\"start\",\"op\":{op},\"t\":{t:e}}}"));
    }

    fn op_end(&mut self, op: u32, t: f64) {
        self.line(format!("{{\"ev\":\"end\",\"op\":{op},\"t\":{t:e}}}"));
    }

    fn wants_flows(&self) -> bool {
        true
    }

    fn resource_decl(&mut self, index: u32, label: &str, capacity: f64) {
        self.line(format!(
            "{{\"ev\":\"res\",\"res\":{index},\"label\":\"{}\",\"capacity\":{capacity:e}}}",
            json_escape(label)
        ));
    }

    fn flow_begin(
        &mut self,
        op: u32,
        flow: u32,
        resources: &[(u32, f64)],
        cap: f64,
        bytes: f64,
        t: f64,
    ) {
        let res: Vec<String> = resources
            .iter()
            .map(|(r, w)| format!("[{r},{w:e}]"))
            .collect();
        self.line(format!(
            "{{\"ev\":\"flow_begin\",\"op\":{op},\"flow\":{flow},\"cap\":{cap:e},\"bytes\":{bytes:e},\"resources\":[{}],\"t\":{t:e}}}",
            res.join(",")
        ));
    }

    fn flow_end(&mut self, op: u32, flow: u32, t: f64) {
        self.line(format!(
            "{{\"ev\":\"flow_end\",\"op\":{op},\"flow\":{flow},\"t\":{t:e}}}"
        ));
    }

    fn flow_rate(&mut self, op: u32, flow: u32, rate: f64, t: f64) {
        self.line(format!(
            "{{\"ev\":\"rate\",\"op\":{op},\"flow\":{flow},\"rate\":{rate:e},\"t\":{t:e}}}"
        ));
    }

    fn resource_capacity(&mut self, res: u32, capacity: f64, t: f64) {
        self.line(format!(
            "{{\"ev\":\"capacity\",\"res\":{res},\"capacity\":{capacity:e},\"t\":{t:e}}}"
        ));
    }

    fn flow_resources(&mut self, op: u32, flow: u32, resources: &[(u32, f64)], t: f64) {
        let res: Vec<String> = resources
            .iter()
            .map(|(r, w)| format!("[{r},{w:e}]"))
            .collect();
        self.line(format!(
            "{{\"ev\":\"flow_reroute\",\"op\":{op},\"flow\":{flow},\"resources\":[{}],\"t\":{t:e}}}",
            res.join(",")
        ));
    }

    fn waterfill(&mut self, t: f64, flows: usize, touched: usize) {
        self.line(format!(
            "{{\"ev\":\"waterfill\",\"t\":{t:e},\"flows\":{flows},\"touched\":{touched}}}"
        ));
    }

    fn resource_sample(&mut self, label: &str, bytes: f64, capacity: f64) {
        self.line(format!(
            "{{\"ev\":\"resource\",\"label\":\"{}\",\"bytes\":{bytes:e},\"capacity\":{capacity:e}}}",
            json_escape(label)
        ));
    }

    fn end_run(&mut self, makespan: f64) {
        self.line(format!("{{\"ev\":\"end_run\",\"makespan\":{makespan:e}}}"));
    }
}

// ---------------------------------------------------------------------------
// Summary sink
// ---------------------------------------------------------------------------

/// Utilization of one modelled resource over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceUtil {
    /// Resource label from the simulator's resource map, e.g. `tx(n0,h1)`.
    pub label: String,
    /// Total bytes moved through the resource.
    pub bytes: f64,
    /// Capacity in bytes/s.
    pub capacity: f64,
    /// `bytes / (capacity * makespan)` — fraction of the run the resource
    /// was busy, under the fluid model.
    pub utilization: f64,
}

/// Digest of one run: busy times, network/CPU overlap and resource totals.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Which interpreter produced the run.
    pub backend: &'static str,
    /// Schedule name.
    pub schedule: String,
    /// Number of ops executed.
    pub ops: usize,
    /// Total run time in seconds.
    pub makespan: f64,
    /// Union length of network-op (`rail`/`rails`) spans, seconds.
    pub net_busy: f64,
    /// Union length of CPU-op (`cma`/`copy`/`reduce`/`compute`) spans, seconds.
    pub cpu_busy: f64,
    /// Length of `net ∩ cpu`, seconds — time both lanes progressed at once.
    pub net_cpu_overlap: f64,
    /// Per-resource utilization, in resource-map order.
    pub resources: Vec<ResourceUtil>,
    /// Water-filling component recomputations performed.
    pub waterfill_recomputes: u64,
    /// Resources whose bottleneck saturation level moved, summed over all
    /// recomputations — the incremental allocator's actual work.
    pub waterfill_touched: u64,
    /// Flow rate (re)assignments performed.
    pub rate_changes: u64,
}

impl RunSummary {
    /// Fraction of network-busy time during which CPU work also progressed:
    /// `|net ∩ cpu| / |net|`. This is the overlap metric behind the paper's
    /// Fig. 7 — higher means communication hides more of the copy cost.
    /// Returns 0 when the run had no network time.
    pub fn overlap_fraction(&self) -> f64 {
        if self.net_busy > 0.0 {
            self.net_cpu_overlap / self.net_busy
        } else {
            0.0
        }
    }
}

/// Folds the probe stream into a [`RunSummary`].
#[derive(Debug, Default)]
pub struct SummaryProbe {
    backend: &'static str,
    schedule: String,
    is_net: Vec<bool>,
    start: Vec<f64>,
    net_spans: Vec<(f64, f64)>,
    cpu_spans: Vec<(f64, f64)>,
    resources: Vec<ResourceUtil>,
    waterfill_recomputes: u64,
    waterfill_touched: u64,
    rate_changes: u64,
    makespan: f64,
}

impl SummaryProbe {
    /// A fresh, empty summary sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the sink, producing the run digest.
    pub fn finish(mut self) -> RunSummary {
        let makespan = self.makespan;
        for r in &mut self.resources {
            let denom = r.capacity * makespan;
            r.utilization = if denom > 0.0 { r.bytes / denom } else { 0.0 };
        }
        RunSummary {
            backend: self.backend,
            schedule: self.schedule,
            ops: self.is_net.len(),
            makespan,
            net_busy: union_length(&self.net_spans),
            cpu_busy: union_length(&self.cpu_spans),
            net_cpu_overlap: intersection_length(&self.net_spans, &self.cpu_spans),
            resources: self.resources,
            waterfill_recomputes: self.waterfill_recomputes,
            waterfill_touched: self.waterfill_touched,
            rate_changes: self.rate_changes,
        }
    }
}

impl Probe for SummaryProbe {
    fn begin_run(&mut self, fs: &FrozenSchedule, backend: &'static str) {
        self.backend = backend;
        self.schedule = fs.name().to_string();
        self.is_net = fs.rows().iter().map(|r| r.class.is_network()).collect();
        // Compute ops burn CPU but move no data; they still count as CPU
        // lane time for the overlap metric (matches OpClass semantics).
        self.start = vec![f64::NAN; fs.n_ops()];
    }

    fn op_start(&mut self, op: u32, t: f64) {
        self.start[op as usize] = t;
    }

    fn op_end(&mut self, op: u32, t: f64) {
        let s = self.start[op as usize];
        if !s.is_nan() {
            let span = (s, t);
            if self.is_net[op as usize] {
                self.net_spans.push(span);
            } else {
                self.cpu_spans.push(span);
            }
        }
    }

    fn flow_rate(&mut self, _op: u32, _flow: u32, _rate: f64, _t: f64) {
        self.rate_changes += 1;
    }

    fn waterfill(&mut self, _t: f64, _flows: usize, touched: usize) {
        self.waterfill_recomputes += 1;
        self.waterfill_touched += touched as u64;
    }

    fn resource_sample(&mut self, label: &str, bytes: f64, capacity: f64) {
        self.resources.push(ResourceUtil {
            label: label.to_string(),
            bytes,
            capacity,
            utilization: 0.0,
        });
    }

    fn end_run(&mut self, makespan: f64) {
        self.makespan = makespan;
    }
}

/// Broadcasts each event to two probes, letting callers combine sinks
/// (e.g. a [`SummaryProbe`] and a [`JsonlProbe`]) in one run.
#[derive(Debug)]
pub struct Tee<'a, A: Probe + ?Sized, B: Probe + ?Sized>(pub &'a mut A, pub &'a mut B);

impl<A: Probe + ?Sized, B: Probe + ?Sized> Probe for Tee<'_, A, B> {
    fn begin_run(&mut self, fs: &FrozenSchedule, backend: &'static str) {
        self.0.begin_run(fs, backend);
        self.1.begin_run(fs, backend);
    }
    fn op_ready(&mut self, op: u32, t: f64) {
        self.0.op_ready(op, t);
        self.1.op_ready(op, t);
    }
    fn op_start(&mut self, op: u32, t: f64) {
        self.0.op_start(op, t);
        self.1.op_start(op, t);
    }
    fn op_end(&mut self, op: u32, t: f64) {
        self.0.op_end(op, t);
        self.1.op_end(op, t);
    }
    fn wants_flows(&self) -> bool {
        self.0.wants_flows() || self.1.wants_flows()
    }
    fn resource_decl(&mut self, index: u32, label: &str, capacity: f64) {
        self.0.resource_decl(index, label, capacity);
        self.1.resource_decl(index, label, capacity);
    }
    fn flow_begin(
        &mut self,
        op: u32,
        flow: u32,
        resources: &[(u32, f64)],
        cap: f64,
        bytes: f64,
        t: f64,
    ) {
        self.0.flow_begin(op, flow, resources, cap, bytes, t);
        self.1.flow_begin(op, flow, resources, cap, bytes, t);
    }
    fn flow_end(&mut self, op: u32, flow: u32, t: f64) {
        self.0.flow_end(op, flow, t);
        self.1.flow_end(op, flow, t);
    }
    fn flow_rate(&mut self, op: u32, flow: u32, rate: f64, t: f64) {
        self.0.flow_rate(op, flow, rate, t);
        self.1.flow_rate(op, flow, rate, t);
    }
    fn resource_capacity(&mut self, res: u32, capacity: f64, t: f64) {
        self.0.resource_capacity(res, capacity, t);
        self.1.resource_capacity(res, capacity, t);
    }
    fn flow_resources(&mut self, op: u32, flow: u32, resources: &[(u32, f64)], t: f64) {
        self.0.flow_resources(op, flow, resources, t);
        self.1.flow_resources(op, flow, resources, t);
    }
    fn waterfill(&mut self, t: f64, flows: usize, touched: usize) {
        self.0.waterfill(t, flows, touched);
        self.1.waterfill(t, flows, touched);
    }
    fn resource_sample(&mut self, label: &str, bytes: f64, capacity: f64) {
        self.0.resource_sample(label, bytes, capacity);
        self.1.resource_sample(label, bytes, capacity);
    }
    fn end_run(&mut self, makespan: f64) {
        self.0.end_run(makespan);
        self.1.end_run(makespan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Loc;
    use crate::builder::ScheduleBuilder;
    use crate::grid::ProcGrid;
    use crate::ids::RankId;
    use crate::op::Channel;

    fn tiny() -> FrozenSchedule {
        let mut b = ScheduleBuilder::new(ProcGrid::new(2, 1), "tiny");
        let s = b.private_buf(RankId(0), 64, "s");
        let d = b.private_buf(RankId(1), 64, "d");
        let t = b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            64,
            Channel::AllRails,
            &[],
            0,
        );
        b.copy(RankId(1), Loc::new(d, 0), Loc::new(d, 0), 64, &[t], 1);
        b.finish().freeze()
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_length(&[]), 0.0);
        assert_eq!(union_length(&[(0.0, 1.0), (0.5, 2.0)]), 2.0);
        assert_eq!(union_length(&[(0.0, 1.0), (2.0, 3.0)]), 2.0);
        assert_eq!(union_length(&[(1.0, 1.0), (2.0, 1.0)]), 0.0); // degenerate
    }

    #[test]
    fn intersection_is_symmetric_difference_of_unions() {
        let a = [(0.0, 2.0)];
        let b = [(1.0, 3.0)];
        assert!((intersection_length(&a, &b) - 1.0).abs() < 1e-12);
        assert!((intersection_length(&b, &a) - 1.0).abs() < 1e-12);
        assert_eq!(intersection_length(&a, &[]), 0.0);
    }

    #[test]
    fn summary_probe_computes_overlap() {
        let fs = tiny();
        let mut p = SummaryProbe::new();
        p.begin_run(&fs, "test");
        p.op_start(0, 0.0);
        p.op_end(0, 2.0); // net busy [0,2)
        p.op_start(1, 1.0);
        p.op_end(1, 3.0); // cpu busy [1,3)
        p.flow_rate(0, 0, 1e9, 0.0);
        p.waterfill(0.0, 1, 2);
        p.resource_sample("tx(n0,h0)", 64.0, 32.0);
        p.end_run(3.0);
        let s = p.finish();
        assert_eq!(s.backend, "test");
        assert_eq!(s.schedule, "tiny");
        assert_eq!(s.ops, 2);
        assert_eq!(s.makespan, 3.0);
        assert_eq!(s.net_busy, 2.0);
        assert_eq!(s.cpu_busy, 2.0);
        assert!((s.net_cpu_overlap - 1.0).abs() < 1e-12);
        assert!((s.overlap_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(s.rate_changes, 1);
        assert_eq!(s.waterfill_recomputes, 1);
        assert_eq!(s.waterfill_touched, 2);
        assert_eq!(s.resources.len(), 1);
        // 64 bytes over capacity 32 B/s in 3 s -> 2/3 busy.
        assert!((s.resources[0].utilization - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_fraction_zero_without_network() {
        let s = RunSummary::default();
        assert_eq!(s.overlap_fraction(), 0.0);
    }

    #[test]
    fn jsonl_probe_emits_one_object_per_line() {
        let fs = tiny();
        let mut p = JsonlProbe::new(Vec::<u8>::new());
        p.begin_run(&fs, "simnet");
        p.op_ready(0, 0.0);
        p.op_start(0, 1e-6);
        p.flow_rate(0, 0, 2.5e10, 1e-6);
        p.waterfill(1e-6, 1, 1);
        p.op_end(0, 2e-6);
        p.resource_sample("tx(n0,h0)", 64.0, 2.5e10);
        p.end_run(2e-6);
        let out = String::from_utf8(p.into_inner().unwrap()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        // begin + 2 op-meta + 5 events + resource + end_run
        assert_eq!(lines.len(), 10);
        assert!(lines[0].contains("\"ev\":\"begin\""));
        assert!(lines[0].contains("\"backend\":\"simnet\""));
        assert!(lines[1].contains("\"kind\":\"rails\""));
        assert!(lines[2].contains("\"kind\":\"copy\""));
        assert!(lines[2].contains("\"step\":1"));
        assert!(lines.last().unwrap().contains("\"ev\":\"end_run\""));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn tee_duplicates_events() {
        let fs = tiny();
        let mut a = SummaryProbe::new();
        let mut b = SummaryProbe::new();
        {
            let mut tee = Tee(&mut a, &mut b);
            tee.begin_run(&fs, "test");
            tee.op_ready(0, 0.0);
            tee.op_start(0, 0.0);
            tee.op_end(0, 1.0);
            tee.op_start(1, 1.0);
            tee.op_end(1, 2.0);
            tee.flow_rate(0, 0, 1.0, 0.0);
            tee.waterfill(0.0, 2, 1);
            tee.resource_sample("cpu(r0)", 1.0, 1.0);
            tee.end_run(2.0);
        }
        let (sa, sb) = (a.finish(), b.finish());
        assert_eq!(sa.makespan, sb.makespan);
        assert_eq!(sa.net_busy, sb.net_busy);
        assert_eq!(sa.rate_changes, sb.rate_changes);
        assert_eq!(sa.resources.len(), sb.resources.len());
    }
}
