//! Runtime invariant checking over the [`Probe`] event stream.
//!
//! [`InvariantProbe`] is a [`Probe`] sink that audits a run instead of
//! recording it. It asserts, for any backend:
//!
//! * **Causality** — no op starts before every one of its predecessors has
//!   finished (checked against the frozen CSR adjacency at `end_run`, so
//!   the threaded executor's time-sorted replay is judged by timestamps,
//!   not stream order);
//! * **Span completeness** — every op reports both a start and an end.
//!
//! And additionally, for backends that narrate fluid flows (the simulator;
//! it returns `true` from [`Probe::wants_flows`] so those events are
//! emitted):
//!
//! * **Capacity** — at no instant does the weighted sum of flow rates
//!   crossing a resource exceed its declared capacity. Rates are piecewise
//!   constant between events, so the check is applied to each maximal
//!   constant-rate interval: mutations at one timestamp are applied first,
//!   and the aggregate is audited when simulated time advances (a single
//!   water-fill recompute reassigns component rates one flow at a time, so
//!   mid-recompute transients at one instant are not violations);
//! * **Flow conservation** — every flow drains exactly the bytes it
//!   declared (the integral of its rate over its lifetime), and no flow is
//!   left active at `end_run`.
//!
//! Violations accumulate instead of panicking so a run can be audited
//! wholesale; read them with [`InvariantProbe::is_clean`] and
//! [`InvariantProbe::violations`]. The simulator's check mode (what
//! `fig* --check` arms) turns any violation into a typed error.

use std::fmt;

use crate::frozen::FrozenSchedule;
use crate::ids::OpId;
use crate::probe::Probe;

/// Absolute slack (bytes) allowed between a flow's declared size and the
/// integral of its rate; covers the engine's own `remaining < 1.0` settle.
const BYTES_ABS_TOL: f64 = 1.0;
/// Relative slack for byte conservation and capacity sums.
const REL_TOL: f64 = 1e-6;
/// Keep at most this many violations; further ones only bump the count.
const MAX_RECORDED: usize = 64;

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// An op started before one of its predecessors ended.
    Causality {
        /// The op that started early.
        op: u32,
        /// The predecessor still running at that point.
        pred: u32,
        /// When the predecessor ended.
        pred_end: f64,
        /// When the op started.
        start: f64,
    },
    /// An op never reported a start/end pair.
    MissingSpan {
        /// The op with an incomplete span.
        op: u32,
    },
    /// A resource's aggregate flow rate exceeded its capacity over a
    /// constant-rate interval.
    Capacity {
        /// Dense resource index (see [`Probe::resource_decl`]).
        resource: u32,
        /// Resource label, e.g. `tx(n0,h1)`.
        label: String,
        /// Aggregate weighted rate observed (bytes/s).
        load: f64,
        /// Declared capacity (bytes/s).
        capacity: f64,
        /// Start of the oversubscribed interval (seconds).
        t: f64,
    },
    /// A flow finished having moved a different number of bytes than it
    /// declared at creation.
    FlowConservation {
        /// The op the flow belonged to.
        op: u32,
        /// The flow index.
        flow: u32,
        /// Bytes declared at [`Probe::flow_begin`].
        declared: f64,
        /// Bytes integrated from the rate timeline.
        moved: f64,
    },
    /// A flow was still active when the run ended.
    UnfinishedFlow {
        /// The op the flow belonged to.
        op: u32,
        /// The flow index.
        flow: u32,
    },
    /// A down resource (capacity 0 after a fault) carried positive flow
    /// rate over a constant-rate interval — a flow progressed on a dead
    /// rail.
    DownResourceActive {
        /// Dense resource index (see [`Probe::resource_decl`]).
        resource: u32,
        /// Resource label, e.g. `tx(n0,h1)`.
        label: String,
        /// Aggregate weighted rate observed (bytes/s).
        load: f64,
        /// Start of the offending interval (seconds).
        t: f64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Causality {
                op,
                pred,
                pred_end,
                start,
            } => write!(
                f,
                "causality: op {op} started at {start:.9e}s before pred {pred} ended at {pred_end:.9e}s"
            ),
            Violation::MissingSpan { op } => {
                write!(f, "span: op {op} never reported a complete start/end pair")
            }
            Violation::Capacity {
                resource,
                label,
                load,
                capacity,
                t,
            } => write!(
                f,
                "capacity: resource {resource} ({label}) carried {load:.6e} B/s > capacity {capacity:.6e} B/s from t={t:.9e}s"
            ),
            Violation::FlowConservation {
                op,
                flow,
                declared,
                moved,
            } => write!(
                f,
                "conservation: flow {flow} of op {op} moved {moved:.3} of {declared:.3} declared bytes"
            ),
            Violation::UnfinishedFlow { op, flow } => {
                write!(f, "conservation: flow {flow} of op {op} still active at end of run")
            }
            Violation::DownResourceActive {
                resource,
                label,
                load,
                t,
            } => write!(
                f,
                "fault: down resource {resource} ({label}) carried {load:.6e} B/s from t={t:.9e}s"
            ),
        }
    }
}

/// State of one active fluid flow.
#[derive(Debug, Clone)]
struct FlowState {
    op: u32,
    resources: Vec<(u32, f64)>,
    declared: f64,
    rate: f64,
    last_t: f64,
    moved: f64,
}

/// A [`Probe`] sink that audits causality, per-resource capacity and byte
/// conservation (see the module docs for the exact invariants).
///
/// Reusable: [`Probe::begin_run`] resets all state, so one instance can
/// audit many runs back to back (violations accumulate across runs).
#[derive(Debug, Default)]
pub struct InvariantProbe {
    // Frozen DAG predecessors (the schedule's derived dependency lists),
    // copied as offsets + flat list.
    pred_off: Vec<u32>,
    pred_list: Vec<OpId>,
    // Per-op observed spans.
    start: Vec<f64>,
    end: Vec<f64>,
    // Declared resources.
    caps: Vec<f64>,
    labels: Vec<String>,
    load: Vec<f64>,
    // Resources whose load changed since the last capacity audit.
    touched: Vec<u32>,
    touch_stamp: Vec<u64>,
    epoch: u64,
    // Active flows, indexed by the backend's (recycled) flow index.
    flows: Vec<Option<FlowState>>,
    cur_t: f64,
    dirty: bool,
    violations: Vec<Violation>,
    /// Total violations observed (recorded + dropped past [`MAX_RECORDED`]).
    total: usize,
}

impl InvariantProbe {
    /// A fresh auditor with no recorded violations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Violations recorded so far (capped at an internal limit; see
    /// [`InvariantProbe::total_violations`] for the uncapped count).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations observed, including any dropped past the recording
    /// cap.
    pub fn total_violations(&self) -> usize {
        self.total
    }

    /// Whether every audited run was violation-free.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Consumes the auditor, returning every recorded violation.
    pub fn finish(self) -> Vec<Violation> {
        self.violations
    }

    fn record(&mut self, v: Violation) {
        self.total += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(v);
        }
    }

    /// Advances audited time to `t`, checking every touched resource's
    /// aggregate load over the interval that just closed.
    fn commit(&mut self, t: f64) {
        if t <= self.cur_t {
            return;
        }
        if self.dirty {
            self.audit_touched();
            self.dirty = false;
        }
        self.cur_t = t;
    }

    fn audit_touched(&mut self) {
        let t = self.cur_t;
        let touched = std::mem::take(&mut self.touched);
        for &r in &touched {
            let (load, cap) = (self.load[r as usize], self.caps[r as usize]);
            if cap == 0.0 && load > 1e-3 {
                self.record(Violation::DownResourceActive {
                    resource: r,
                    label: self.labels[r as usize].clone(),
                    load,
                    t,
                });
            } else if load > cap * (1.0 + REL_TOL) + 1e-3 {
                self.record(Violation::Capacity {
                    resource: r,
                    label: self.labels[r as usize].clone(),
                    load,
                    capacity: cap,
                    t,
                });
            }
        }
        // touched entries stay stale via the epoch bump in begin_run /
        // touch(); reuse the allocation.
        self.touched = touched;
        self.touched.clear();
        self.epoch += 1;
    }

    fn touch(&mut self, r: u32) {
        let s = &mut self.touch_stamp[r as usize];
        if *s != self.epoch + 1 {
            *s = self.epoch + 1;
            self.touched.push(r);
        }
    }

    fn flow_mut(&mut self, flow: u32) -> Option<&mut FlowState> {
        self.flows.get_mut(flow as usize).and_then(Option::as_mut)
    }
}

impl Probe for InvariantProbe {
    fn begin_run(&mut self, fs: &FrozenSchedule, _backend: &'static str) {
        let n = fs.n_ops();
        let (off, list) = fs.schedule().dep_lists();
        self.pred_off.clear();
        self.pred_off.extend_from_slice(off);
        self.pred_list.clear();
        self.pred_list.extend_from_slice(list);
        self.start = vec![f64::NAN; n];
        self.end = vec![f64::NAN; n];
        self.caps.clear();
        self.labels.clear();
        self.load.clear();
        self.touched.clear();
        self.touch_stamp.clear();
        self.flows.clear();
        self.cur_t = 0.0;
        self.dirty = false;
    }

    fn op_start(&mut self, op: u32, t: f64) {
        self.start[op as usize] = t;
    }

    fn op_end(&mut self, op: u32, t: f64) {
        self.end[op as usize] = t;
    }

    fn wants_flows(&self) -> bool {
        true
    }

    fn resource_decl(&mut self, index: u32, label: &str, capacity: f64) {
        let i = index as usize;
        if self.caps.len() <= i {
            self.caps.resize(i + 1, f64::INFINITY);
            self.labels.resize(i + 1, String::new());
            self.load.resize(i + 1, 0.0);
            self.touch_stamp.resize(i + 1, 0);
        }
        self.caps[i] = capacity;
        self.labels[i] = label.to_string();
    }

    fn flow_begin(
        &mut self,
        op: u32,
        flow: u32,
        resources: &[(u32, f64)],
        _cap: f64,
        bytes: f64,
        t: f64,
    ) {
        self.commit(t);
        let i = flow as usize;
        if self.flows.len() <= i {
            self.flows.resize_with(i + 1, || None);
        }
        if let Some(prev) = self.flows[i].take() {
            // A recycled index must have ended first.
            self.record(Violation::UnfinishedFlow { op: prev.op, flow });
        }
        self.flows[i] = Some(FlowState {
            op,
            resources: resources.to_vec(),
            declared: bytes,
            rate: 0.0,
            last_t: t,
            moved: 0.0,
        });
    }

    fn flow_rate(&mut self, _op: u32, flow: u32, rate: f64, t: f64) {
        self.commit(t);
        let Some(f) = self.flow_mut(flow) else {
            return; // sink attached without flow_begin support
        };
        f.moved += f.rate * (t - f.last_t);
        f.last_t = t;
        let old = f.rate;
        f.rate = rate;
        let resources = std::mem::take(&mut self.flows[flow as usize].as_mut().unwrap().resources);
        for &(r, w) in &resources {
            self.load[r as usize] += w * (rate - old);
            self.touch(r);
        }
        self.flows[flow as usize].as_mut().unwrap().resources = resources;
        self.dirty = true;
    }

    fn resource_capacity(&mut self, res: u32, capacity: f64, t: f64) {
        self.commit(t);
        let i = res as usize;
        if self.caps.len() <= i {
            self.caps.resize(i + 1, f64::INFINITY);
            self.labels.resize(i + 1, String::new());
            self.load.resize(i + 1, 0.0);
            self.touch_stamp.resize(i + 1, 0);
        }
        self.caps[i] = capacity;
        // Re-audit the resource under its new capacity once time advances.
        self.touch(res);
        self.dirty = true;
    }

    fn flow_resources(&mut self, _op: u32, flow: u32, resources: &[(u32, f64)], t: f64) {
        self.commit(t);
        let Some(f) = self.flow_mut(flow) else {
            return;
        };
        f.moved += f.rate * (t - f.last_t);
        f.last_t = t;
        let rate = f.rate;
        let old = std::mem::replace(&mut f.resources, resources.to_vec());
        for &(r, w) in &old {
            self.load[r as usize] -= w * rate;
            self.touch(r);
        }
        for &(r, w) in resources {
            self.load[r as usize] += w * rate;
            self.touch(r);
        }
        self.dirty = true;
    }

    fn flow_end(&mut self, op: u32, flow: u32, t: f64) {
        self.commit(t);
        let Some(mut f) = self.flows.get_mut(flow as usize).and_then(Option::take) else {
            return;
        };
        f.moved += f.rate * (t - f.last_t);
        if (f.moved - f.declared).abs() > BYTES_ABS_TOL + REL_TOL * f.declared {
            self.record(Violation::FlowConservation {
                op,
                flow,
                declared: f.declared,
                moved: f.moved,
            });
        }
        for &(r, w) in &f.resources {
            self.load[r as usize] -= w * f.rate;
            self.touch(r);
        }
        self.dirty = true;
    }

    fn end_run(&mut self, makespan: f64) {
        self.commit(makespan.max(self.cur_t) + 1.0);
        for i in 0..self.flows.len() {
            if let Some(f) = self.flows[i].take() {
                self.record(Violation::UnfinishedFlow {
                    op: f.op,
                    flow: u32::try_from(i).expect("flow ids are u32"),
                });
            }
        }
        // Causality + span completeness, judged on collected timestamps so
        // replayed streams (threaded executor) are handled correctly.
        for op in 0..self.start.len() {
            let (s, e) = (self.start[op], self.end[op]);
            if s.is_nan() || e.is_nan() {
                self.record(Violation::MissingSpan {
                    op: OpId::from(op).0,
                });
                continue;
            }
            let (lo, hi) = (self.pred_off[op] as usize, self.pred_off[op + 1] as usize);
            for k in lo..hi {
                let p = self.pred_list[k].index();
                let pe = self.end[p];
                if pe.is_nan() {
                    continue; // already reported as MissingSpan
                }
                if pe > s + 1e-12 * s.abs().max(1e-18) {
                    self.record(Violation::Causality {
                        op: OpId::from(op).0,
                        pred: OpId::from(p).0,
                        pred_end: pe,
                        start: s,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScheduleBuilder;
    use crate::grid::ProcGrid;
    use crate::ids::RankId;

    fn two_op_chain() -> FrozenSchedule {
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(1), "chain");
        let a = b.compute(RankId(0), 100, &[], 0);
        b.compute(RankId(0), 100, &[a], 1);
        b.finish().freeze()
    }

    fn drive_clean(p: &mut InvariantProbe, fs: &FrozenSchedule) {
        p.begin_run(fs, "test");
        p.resource_decl(0, "cpu(r0)", 10.0);
        p.op_ready(0, 0.0);
        p.op_start(0, 0.0);
        p.flow_begin(0, 0, &[(0, 1.0)], 10.0, 10.0, 0.0);
        p.flow_rate(0, 0, 10.0, 0.0);
        p.flow_end(0, 0, 1.0);
        p.op_end(0, 1.0);
        p.op_start(1, 1.0);
        p.flow_begin(1, 0, &[(0, 1.0)], 10.0, 20.0, 1.0);
        p.flow_rate(1, 0, 10.0, 1.0);
        p.flow_end(1, 0, 3.0);
        p.op_end(1, 3.0);
        p.end_run(3.0);
    }

    #[test]
    fn clean_run_has_no_violations() {
        let fs = two_op_chain();
        let mut p = InvariantProbe::new();
        drive_clean(&mut p, &fs);
        assert!(p.is_clean(), "{:?}", p.violations());
    }

    #[test]
    fn causality_violation_detected() {
        let fs = two_op_chain();
        let mut p = InvariantProbe::new();
        p.begin_run(&fs, "test");
        p.op_start(0, 0.0);
        p.op_end(0, 2.0);
        p.op_start(1, 1.0); // starts before pred ends
        p.op_end(1, 3.0);
        p.end_run(3.0);
        assert!(matches!(
            p.violations(),
            [Violation::Causality { op: 1, pred: 0, .. }]
        ));
    }

    #[test]
    fn missing_span_detected() {
        let fs = two_op_chain();
        let mut p = InvariantProbe::new();
        p.begin_run(&fs, "test");
        p.op_start(0, 0.0);
        p.op_end(0, 1.0);
        // op 1 never runs
        p.end_run(1.0);
        assert!(matches!(p.violations(), [Violation::MissingSpan { op: 1 }]));
    }

    #[test]
    fn oversubscribed_resource_detected() {
        let fs = two_op_chain();
        let mut p = InvariantProbe::new();
        p.begin_run(&fs, "test");
        p.resource_decl(0, "tx(n0,h0)", 10.0);
        p.op_start(0, 0.0);
        p.op_start(1, 0.0);
        p.flow_begin(0, 0, &[(0, 1.0)], 10.0, 10.0, 0.0);
        p.flow_begin(1, 1, &[(0, 1.0)], 10.0, 10.0, 0.0);
        // Both flows at 8 B/s on a 10 B/s resource: 16 > 10 once time moves.
        p.flow_rate(0, 0, 8.0, 0.0);
        p.flow_rate(1, 1, 8.0, 0.0);
        p.flow_rate(0, 0, 2.0, 1.0); // time advances -> audit fires
        assert!(
            matches!(p.violations(), [Violation::Capacity { resource: 0, .. }]),
            "{:?}",
            p.violations()
        );
    }

    #[test]
    fn same_instant_transients_are_not_violations() {
        let fs = two_op_chain();
        let mut p = InvariantProbe::new();
        p.begin_run(&fs, "test");
        p.resource_decl(0, "tx(n0,h0)", 10.0);
        p.op_start(0, 0.0);
        p.flow_begin(0, 0, &[(0, 1.0)], 10.0, 10.0, 0.0);
        p.flow_begin(0, 1, &[(0, 1.0)], 10.0, 10.0, 0.0);
        // Mid-recompute transient: first flow briefly at 10, then both 5 —
        // all at t=0, so no interval ever carries more than 10.
        p.flow_rate(0, 0, 10.0, 0.0);
        p.flow_rate(0, 0, 5.0, 0.0);
        p.flow_rate(0, 1, 5.0, 0.0);
        p.flow_end(0, 0, 2.0);
        p.flow_end(0, 1, 2.0);
        p.op_end(0, 2.0);
        p.op_start(1, 2.0);
        p.op_end(1, 2.0);
        p.end_run(2.0);
        assert!(p.is_clean(), "{:?}", p.violations());
    }

    #[test]
    fn short_changed_flow_is_flagged() {
        let fs = two_op_chain();
        let mut p = InvariantProbe::new();
        p.begin_run(&fs, "test");
        p.resource_decl(0, "cpu(r0)", 10.0);
        p.op_start(0, 0.0);
        p.flow_begin(0, 0, &[(0, 1.0)], 10.0, 100.0, 0.0);
        p.flow_rate(0, 0, 10.0, 0.0);
        p.flow_end(0, 0, 1.0); // only 10 of 100 bytes moved
        p.op_end(0, 1.0);
        p.op_start(1, 1.0);
        p.op_end(1, 1.0);
        p.end_run(1.0);
        assert!(
            matches!(
                p.violations(),
                [Violation::FlowConservation { op: 0, flow: 0, .. }]
            ),
            "{:?}",
            p.violations()
        );
    }

    #[test]
    fn unfinished_flow_is_flagged() {
        let fs = two_op_chain();
        let mut p = InvariantProbe::new();
        p.begin_run(&fs, "test");
        p.resource_decl(0, "cpu(r0)", 10.0);
        p.op_start(0, 0.0);
        p.op_end(0, 1.0);
        p.op_start(1, 1.0);
        p.op_end(1, 2.0);
        p.flow_begin(0, 0, &[(0, 1.0)], 10.0, 10.0, 0.0);
        p.end_run(2.0);
        assert!(p
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::UnfinishedFlow { op: 0, flow: 0 })));
    }

    #[test]
    fn reusable_across_runs() {
        let fs = two_op_chain();
        let mut p = InvariantProbe::new();
        drive_clean(&mut p, &fs);
        drive_clean(&mut p, &fs);
        assert!(p.is_clean());
        assert!(p.wants_flows());
    }

    #[test]
    fn progress_on_a_down_resource_is_flagged() {
        let fs = two_op_chain();
        let mut p = InvariantProbe::new();
        p.begin_run(&fs, "test");
        p.resource_decl(0, "tx(n0,h0)", 10.0);
        p.op_start(0, 0.0);
        p.flow_begin(0, 0, &[(0, 1.0)], 10.0, 100.0, 0.0);
        p.flow_rate(0, 0, 5.0, 0.0);
        p.resource_capacity(0, 0.0, 1.0); // rail goes down…
        p.flow_rate(0, 0, 5.0, 2.0); // …but the flow kept its rate
        assert!(
            p.violations()
                .iter()
                .any(|v| matches!(v, Violation::DownResourceActive { resource: 0, .. })),
            "{:?}",
            p.violations()
        );
    }

    #[test]
    fn stalled_flow_on_a_down_resource_is_clean() {
        let fs = two_op_chain();
        let mut p = InvariantProbe::new();
        p.begin_run(&fs, "test");
        p.resource_decl(0, "tx(n0,h0)", 10.0);
        p.resource_decl(1, "tx(n0,h1)", 10.0);
        p.op_start(0, 0.0);
        p.flow_begin(0, 0, &[(0, 1.0)], 10.0, 10.0, 0.0);
        p.flow_rate(0, 0, 10.0, 0.0);
        // Rail down at 0.5 after 5 bytes; flow stalls at the same instant,
        // then re-issues on rail 1 and drains the remaining 5 bytes.
        p.flow_rate(0, 0, 0.0, 0.5);
        p.resource_capacity(0, 0.0, 0.5);
        p.flow_resources(0, 0, &[(1, 1.0)], 0.7);
        p.flow_rate(0, 0, 10.0, 0.7);
        p.flow_end(0, 0, 1.2);
        p.op_end(0, 1.2);
        p.op_start(1, 1.2);
        p.op_end(1, 1.2);
        p.end_run(1.2);
        assert!(p.is_clean(), "{:?}", p.violations());
    }

    #[test]
    fn derated_resource_keeps_capacity_audit() {
        let fs = two_op_chain();
        let mut p = InvariantProbe::new();
        p.begin_run(&fs, "test");
        p.resource_decl(0, "tx(n0,h0)", 10.0);
        p.op_start(0, 0.0);
        p.flow_begin(0, 0, &[(0, 1.0)], 10.0, 100.0, 0.0);
        p.flow_rate(0, 0, 8.0, 0.0);
        p.resource_capacity(0, 5.0, 1.0); // derate to 5 B/s…
        p.flow_rate(0, 0, 8.0, 2.0); // …while the flow still runs at 8
        assert!(
            p.violations()
                .iter()
                .any(|v| matches!(v, Violation::Capacity { resource: 0, .. })),
            "{:?}",
            p.violations()
        );
    }

    #[test]
    fn violations_display_readably() {
        let v = Violation::Capacity {
            resource: 3,
            label: "tx(n0,h1)".into(),
            load: 2.0e10,
            capacity: 1.55e10,
            t: 1e-6,
        };
        let s = v.to_string();
        assert!(s.contains("tx(n0,h1)") && s.contains("capacity"));
        let c = Violation::Causality {
            op: 5,
            pred: 2,
            pred_end: 2.0,
            start: 1.0,
        };
        assert!(c.to_string().contains("causality"));
    }
}
