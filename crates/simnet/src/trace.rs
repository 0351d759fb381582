//! Execution traces and the Fig. 2-style ASCII timeline.
//!
//! The paper motivates its designs with a TAU trace of a flat Ring Allgather
//! (Figure 2) and argues about overlap with timeline views (Figures 6/7).
//! [`Trace`] captures per-op `ready → start → end` spans from the simulator
//! and can render them as a Gantt chart grouped per rank (CPU lane and
//! network lane), or dump CSV for external plotting.
//!
//! [`TraceBuilder`] is the [`Probe`] sink that collects those spans: the
//! engine no longer records timeline arrays itself — `trace: true` simply
//! plugs this sink into the probed run.

use mha_sched::{Channel, FrozenSchedule, OpId, OpKind, Probe, RankId, Schedule};

// Interval arithmetic lives with the probe layer now; re-exported here so
// existing `mha_simnet::trace::{union_length, intersection_length}` callers
// keep compiling.
pub use mha_sched::probe::{intersection_length, union_length};

/// The `ready/start/end` times (seconds) of one op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSpan {
    /// The op this span belongs to.
    pub op: OpId,
    /// When all dependencies had finished.
    pub ready: f64,
    /// When the startup latency elapsed and the fluid phase began.
    pub start: f64,
    /// When the op completed.
    pub end: f64,
}

/// Which timeline row an op is drawn on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// CPU work of a rank (copies, CMA transfers it performs, compute).
    Cpu(RankId),
    /// Network transfers posted by a rank (HCA does the work).
    Net(RankId),
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lane::Cpu(r) => write!(f, "cpu {r}"),
            Lane::Net(r) => write!(f, "net {r}"),
        }
    }
}

/// Metadata snapshot of one op, denormalized from the schedule so the trace
/// is self-contained.
#[derive(Debug, Clone)]
pub struct SpanMeta {
    /// Row assignment.
    pub lane: Lane,
    /// Short kind name (`cma`, `rail`, `copy`, …).
    pub kind: &'static str,
    /// The op's label from the schedule.
    pub label: String,
    /// Algorithm step, if assigned.
    pub step: Option<u32>,
    /// Bytes moved.
    pub bytes: usize,
}

/// A complete simulation trace.
#[derive(Debug, Clone)]
pub struct Trace {
    spans: Vec<OpSpan>,
    meta: Vec<SpanMeta>,
    makespan: f64,
}

fn lane_of(kind: &OpKind) -> Lane {
    match kind {
        OpKind::Transfer {
            src_rank,
            channel: Channel::Rail(_) | Channel::AllRails,
            ..
        } => Lane::Net(*src_rank),
        other => Lane::Cpu(
            other
                .cpu_actor()
                .expect("non-rail op always has a CPU actor"),
        ),
    }
}

impl Trace {
    /// Builds a trace from simulator spans plus schedule metadata.
    pub fn new(sch: &Schedule, spans: Vec<OpSpan>) -> Self {
        let meta = spans
            .iter()
            .map(|s| {
                let op = sch.op(s.op);
                SpanMeta {
                    lane: lane_of(&op.kind),
                    kind: op.kind.kind_name(),
                    label: op.label().to_string(),
                    step: op.has_step().then_some(op.step),
                    bytes: op.kind.bytes(),
                }
            })
            .collect();
        let makespan = spans.iter().map(|s| s.end).fold(0.0, f64::max);
        Trace {
            spans,
            meta,
            makespan,
        }
    }

    /// All spans, in op order.
    pub fn spans(&self) -> &[OpSpan] {
        &self.spans
    }

    /// Metadata aligned with [`Trace::spans`].
    pub fn meta(&self) -> &[SpanMeta] {
        &self.meta
    }

    /// Total simulated time.
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// `(start, end)` intervals of all spans matching `pred`.
    pub fn intervals_where(
        &self,
        mut pred: impl FnMut(&OpSpan, &SpanMeta) -> bool,
    ) -> Vec<(f64, f64)> {
        self.spans
            .iter()
            .zip(&self.meta)
            .filter(|(s, m)| pred(s, m))
            .map(|(s, _)| (s.start, s.end))
            .collect()
    }

    /// CSV dump: `op,lane,kind,step,bytes,ready_us,start_us,end_us,label`.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("op,lane,kind,step,bytes,ready_us,start_us,end_us,label\n");
        for (s, m) in self.spans.iter().zip(&self.meta) {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:.3},{:.3},{:.3},{}",
                s.op.index(),
                m.lane,
                m.kind,
                m.step.map_or(-1i64, i64::from),
                m.bytes,
                s.ready * 1e6,
                s.start * 1e6,
                s.end * 1e6,
                m.label
            );
        }
        out
    }

    /// Renders an ASCII Gantt chart `width` columns wide, one row per lane,
    /// in the spirit of the paper's Figure 2. Busy cells show the first
    /// letter of the op kind (`c`ma, `r`ail, c`o`py…, chosen per cell by the
    /// latest-starting op covering it); idle cells are `.`.
    pub fn render_ascii(&self, width: usize) -> String {
        use std::collections::BTreeMap;
        assert!(width >= 10, "timeline needs at least 10 columns");
        if self.makespan <= 0.0 {
            return String::from("(empty trace)\n");
        }
        let mut lanes: BTreeMap<Lane, Vec<(f64, f64, char)>> = BTreeMap::new();
        for (s, m) in self.spans.iter().zip(&self.meta) {
            let ch = match m.kind {
                "cma" => 'c',
                "rail" | "rails" => 'r',
                "copy" => 'o',
                "reduce" => '+',
                "compute" => 'x',
                _ => '?',
            };
            lanes.entry(m.lane).or_default().push((s.start, s.end, ch));
        }
        let mut out = String::new();
        let scale = self.makespan / width as f64;
        out.push_str(&format!(
            "timeline: {:.1} us total, {:.3} us/col\n",
            self.makespan * 1e6,
            scale * 1e6
        ));
        for (lane, mut items) in lanes {
            items.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut row = vec!['.'; width];
            for (start, end, ch) in items {
                let c0 = ((start / scale) as usize).min(width - 1);
                let c1 = ((end / scale).ceil() as usize).clamp(c0 + 1, width);
                for cell in row.iter_mut().take(c1).skip(c0) {
                    *cell = ch;
                }
            }
            out.push_str(&format!("{lane:>8} |"));
            out.extend(row);
            out.push_str("|\n");
        }
        out
    }
}

/// Probe sink that records op `ready/start/end` spans and assembles a
/// [`Trace`] when the run completes.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    spans: Vec<OpSpan>,
}

impl TraceBuilder {
    /// An empty sink; spans are sized on [`Probe::begin_run`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the trace, resolving op metadata against `sch`.
    pub fn finish(self, sch: &Schedule) -> Trace {
        Trace::new(sch, self.spans)
    }
}

impl Probe for TraceBuilder {
    fn begin_run(&mut self, fs: &FrozenSchedule, _backend: &'static str) {
        self.spans = (0..fs.n_ops())
            .map(|i| OpSpan {
                op: OpId(i as u32),
                ready: f64::NAN,
                start: f64::NAN,
                end: f64::NAN,
            })
            .collect();
    }

    fn op_ready(&mut self, op: u32, t: f64) {
        self.spans[op as usize].ready = t;
    }

    fn op_start(&mut self, op: u32, t: f64) {
        self.spans[op as usize].start = t;
    }

    fn op_end(&mut self, op: u32, t: f64) {
        self.spans[op as usize].end = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mha_sched::{Loc, ProcGrid, ScheduleBuilder};

    fn sample_trace() -> Trace {
        let grid = ProcGrid::new(2, 1);
        let mut b = ScheduleBuilder::new(grid, "t");
        let s = b.private_buf(RankId(0), 64, "s");
        let d = b.private_buf(RankId(1), 64, "d");
        let d2 = b.private_buf(RankId(1), 64, "d2");
        let t = b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            64,
            Channel::Rail(0),
            &[],
            0,
        );
        b.copy(RankId(1), Loc::new(d, 0), Loc::new(d2, 0), 64, &[t], 1);
        let sch = b.finish();
        Trace::new(
            &sch,
            vec![
                OpSpan {
                    op: OpId(0),
                    ready: 0.0,
                    start: 1.0,
                    end: 3.0,
                },
                OpSpan {
                    op: OpId(1),
                    ready: 3.0,
                    start: 3.5,
                    end: 5.0,
                },
            ],
        )
    }

    #[test]
    fn lanes_separate_net_and_cpu() {
        let t = sample_trace();
        assert_eq!(t.meta()[0].lane, Lane::Net(RankId(0)));
        assert_eq!(t.meta()[1].lane, Lane::Cpu(RankId(1)));
        assert_eq!(t.makespan(), 5.0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample_trace().to_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("op,lane"));
        assert!(lines[1].contains("rail"));
        assert!(lines[2].contains("copy"));
    }

    #[test]
    fn ascii_timeline_draws_both_lanes() {
        let art = sample_trace().render_ascii(40);
        assert!(art.contains("net r0"));
        assert!(art.contains("cpu r1"));
        assert!(art.contains('r'));
        assert!(art.contains('o'));
    }

    #[test]
    fn intervals_where_filters() {
        let t = sample_trace();
        let rails = t.intervals_where(|_, m| m.kind == "rail");
        assert_eq!(rails, vec![(1.0, 3.0)]);
    }

    #[test]
    fn union_length_merges_overlaps() {
        assert_eq!(union_length(&[]), 0.0);
        assert_eq!(union_length(&[(0.0, 2.0), (1.0, 3.0)]), 3.0);
        assert_eq!(union_length(&[(0.0, 1.0), (2.0, 3.0)]), 2.0);
        assert_eq!(union_length(&[(5.0, 4.0)]), 0.0); // degenerate dropped
    }

    #[test]
    fn intersection_length_measures_overlap() {
        let a = [(0.0, 4.0)];
        let b = [(2.0, 6.0)];
        assert!((intersection_length(&a, &b) - 2.0).abs() < 1e-12);
        let disjoint = [(10.0, 11.0)];
        assert_eq!(intersection_length(&a, &disjoint), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 10 columns")]
    fn tiny_width_rejected() {
        sample_trace().render_ascii(3);
    }
}
