//! The discrete-event engine: executes a frozen schedule DAG in virtual time
//! on a [`ClusterSpec`], with fluid max-min fair bandwidth sharing.
//!
//! The engine consumes the compiled form of a schedule
//! ([`mha_sched::FrozenSchedule`]) and drives readiness through the shared
//! indegree-counter runtime ([`mha_sched::ReadySet`]) — the same machinery
//! the real executors use, so both backends release ops in identical order.
//!
//! Each op, once its dependencies finish, pays a fixed startup latency
//! (α_C / α_H / α_L, plus the rendezvous handshake for large rail messages)
//! and then becomes one or more *flows*. A flow occupies a set of resources
//! (see [`crate::resources`]) and drains its byte count at the max-min fair
//! rate. Whenever a flow starts or finishes, rates are recomputed — but only
//! for the *connected component* of flows reachable from the changed
//! resources, so million-op flat-ring schedules stay tractable.
//!
//! Every run narrates itself through a [`Probe`] ([`Simulator::run_probed`]):
//! op spans, flow-rate changes, water-fill recomputations and resource
//! totals. [`Simulator::run`] plugs in the no-op sink; the ASCII timeline
//! is the [`crate::TraceBuilder`] sink plugged into [`Simulator::run_probed`].

use mha_sched::{
    Channel, FrozenSchedule, InvariantProbe, NodeId, NullProbe, OpKind, Probe, ProcGrid, ReadySet,
    Schedule, Violation,
};

use crate::calendar::CalendarQueue;
use crate::fault::{FaultEvent, FaultKind, FaultSpec};
use crate::resources::{socket_of, ResourceId, ResourceMap};
use crate::topology::ClusterSpec;
use crate::waterfill::{FillError, FillStats, FlowSpec, IncrementalFiller};

/// A rail flow's routing coordinates `(src node, dst node, rail)` — what a
/// retry needs to re-issue the flow on a surviving rail.
type RailRoute = (NodeId, NodeId, u8);

/// One expanded flow before materialization: rate cap, byte count, rail
/// route, and the half-open range of its `(resource, weight)` pairs inside
/// the arena's flat emission scratch ([`EngineArena::spec_res`]).
#[derive(Debug, Clone, Copy)]
struct SpecTmp {
    cap: f64,
    bytes: f64,
    route: Option<RailRoute>,
    res_lo: u32,
    res_hi: u32,
}

/// An error preventing simulation.
#[derive(Debug)]
pub enum SimError {
    /// The schedule failed structural validation.
    InvalidSchedule(mha_sched::ValidateError),
    /// The cluster spec is physically implausible.
    InvalidSpec(String),
    /// The grid places more ranks on a node than the cluster has cores.
    PpnExceedsCores {
        /// Requested processes per node.
        ppn: u32,
        /// Available cores per node.
        cores: u32,
    },
    /// An op expanded into a flow the water-filler rejected (non-finite or
    /// non-positive cap/weight). Formerly a debug-only assertion that let
    /// release builds silently corrupt every rate in the component.
    InvalidFlow {
        /// The op whose flow was rejected.
        op: u32,
        /// What the water-filler rejected.
        source: FillError,
    },
    /// Check mode ([`check_enabled`]) audited the run and found invariant
    /// violations.
    Invariant {
        /// Name of the audited schedule.
        schedule: String,
        /// Violations observed, including any past the recording cap.
        total: usize,
        /// The recorded violations, in the order they were observed.
        violations: Vec<Violation>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidSchedule(e) => write!(f, "invalid schedule: {e}"),
            SimError::InvalidSpec(e) => write!(f, "invalid cluster spec: {e}"),
            SimError::PpnExceedsCores { ppn, cores } => {
                write!(f, "{ppn} processes per node exceed {cores} cores")
            }
            SimError::InvalidFlow { op, source } => {
                write!(f, "op {op} produced an invalid flow: {source}")
            }
            SimError::Invariant {
                schedule,
                total,
                violations,
            } => {
                write!(
                    f,
                    "invariant check failed: {total} violation(s) on schedule `{schedule}`"
                )?;
                for v in violations.iter().take(8) {
                    write!(f, "\n  - {v}")?;
                }
                if *total > 8 {
                    write!(f, "\n  ... and {} more", total - 8)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InvalidFlow { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<mha_sched::ValidateError> for SimError {
    fn from(e: mha_sched::ValidateError) -> Self {
        SimError::InvalidSchedule(e)
    }
}

/// The outcome of simulating one schedule.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Completion time of the whole schedule, in seconds.
    pub makespan: f64,
    /// Completion time of each op, indexed like `Schedule::ops()`.
    pub op_end: Vec<f64>,
    /// Events processed (diagnostics).
    pub events: u64,
    /// Peak number of simultaneously active flows.
    pub max_concurrent_flows: usize,
    /// Bytes that crossed each resource (for utilization reports).
    pub resource_bytes: Vec<f64>,
    /// Capacity of each resource (bytes/s), aligned with `resource_bytes`.
    pub resource_capacity: Vec<f64>,
    /// Labels of the resources, aligned with `resource_bytes`.
    pub resource_labels: Vec<String>,
}

impl SimResult {
    /// Makespan in microseconds — the unit the paper reports.
    pub fn latency_us(&self) -> f64 {
        self.makespan * 1e6
    }
}

/// A flow's `(resource, weight)` list, stored inline. Every flow kind the
/// engine emits uses at most 3 entries (tx+rx rail pair, or
/// cpu+mem+optional xsocket), so the list lives in the `Flow` record
/// itself — the recompute hot loops walk flow resources three times per
/// event, and a `Vec`'s heap indirection there is a guaranteed cache miss
/// per flow.
#[derive(Debug, Clone)]
struct ResList {
    arr: [(ResourceId, f64); 4],
    len: u8,
}

impl ResList {
    fn new() -> Self {
        ResList {
            arr: [(ResourceId(0), 0.0); 4],
            len: 0,
        }
    }
    fn clear(&mut self) {
        self.len = 0;
    }
    fn push(&mut self, e: (ResourceId, f64)) {
        self.arr[self.len as usize] = e;
        self.len += 1;
    }
    fn extend_from_slice(&mut self, s: &[(ResourceId, f64)]) {
        self.arr[self.len as usize..self.len as usize + s.len()].copy_from_slice(s);
        self.len += s.len() as u8;
    }
}

impl std::ops::Deref for ResList {
    type Target = [(ResourceId, f64)];
    fn deref(&self) -> &Self::Target {
        &self.arr[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a ResList {
    type Item = &'a (ResourceId, f64);
    type IntoIter = std::slice::Iter<'a, (ResourceId, f64)>;
    fn into_iter(self) -> Self::IntoIter {
        self[..].iter()
    }
}

#[derive(Debug)]
struct Flow {
    op: u32,
    /// `(resource, weight)` pairs: the flow consumes `weight · rate` of
    /// each resource while active.
    resources: ResList,
    cap: f64,
    remaining: f64,
    rate: f64,
    last_update: f64,
    /// The calendar key `(time, seq)` of the flow's one pending event.
    /// For a running flow it is the completion prediction made at the last
    /// rate change: `now + remaining / rate` at that instant, stamped with
    /// the seq that queueing every prediction at its rate change
    /// (push-per-change) would have used. The argmin scheduler queues under
    /// this stored key verbatim, so same-instant events pop in exactly
    /// push-per-change order (bit-identity by construction). For a stalled
    /// flow it is the retry.
    key: (f64, u64),
    /// Whether an event under `key` is in the calendar.
    queued: bool,
    /// Starved by a fault (rate 0 on a down rail); its retry is `key`.
    stalled: bool,
    /// Consecutive failed retries (drives exponential backoff).
    retries: u32,
    /// Rail routing coordinates, for fault-time re-issue. `None` for flows
    /// that never touch a rail (CMA, copies, reductions, compute).
    route: Option<RailRoute>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// Op's startup latency elapsed: materialize its flows.
    Start { op: u32 },
    /// A flow predicted to drain at this time.
    Finish { flow: u32 },
    /// A fault-timeline boundary: rescale rail capacities and re-waterfill.
    Fault { idx: u32 },
    /// A stalled flow's retry timeout elapsed: re-issue on a surviving rail.
    Retry { flow: u32 },
}

/// Relative tolerance when deciding whether a flow's rate changed enough to
/// reschedule its completion event.
const RATE_EPS: f64 = 1e-12;

/// The documented cap on retry exponential backoff: the wait multiplier
/// saturates at `2^MAX_BACKOFF_SHIFT` × the retry timeout.
const MAX_BACKOFF_SHIFT: u32 = 10;

/// Mutable simulation state, boxed into one struct so helper methods can
/// borrow it wholesale.
#[derive(Debug, Default)]
struct EngineState {
    flows: Vec<Flow>,
    free_flows: Vec<u32>,
    res_flows: Vec<Vec<u32>>,
    resource_bytes: Vec<f64>,
    res_stamp: Vec<u64>,
    flow_stamp: Vec<u64>,
    epoch: u64,
    /// The event queue (keyed cancellation, O(1) ops).
    cal: CalendarQueue<Ev>,
    seq: u64,
    filler: IncrementalFiller,
    rates: Vec<f64>,
    max_active: usize,
    /// Per-resource fault scaling of nominal capacity (all 1.0 without
    /// faults; multiplying by 1.0 is bit-exact, so fault-free runs are
    /// unchanged).
    cap_scale: Vec<f64>,
    /// Whether a fault timeline is active (enables the stall/retry path).
    faults_active: bool,
    /// Seconds a stalled flow waits before re-issuing.
    retry_timeout: f64,
    /// Connected-component scratch for [`EngineState::recompute`].
    comp: Vec<u32>,
    /// DFS stack scratch for [`EngineState::recompute`].
    dfs: Vec<ResourceId>,
    /// Resources stamped by the current recompute's DFS, in stamp order.
    comp_res: Vec<ResourceId>,
    /// Component-local index of each stamped resource (parallel to
    /// `res_stamp`; only valid for resources stamped in the current epoch).
    res_lidx: Vec<u32>,
    /// Union-find parents over `comp_res`, grouping the component into
    /// connected sub-groups for argmin prediction scheduling.
    uf: Vec<u32>,
    /// Canonical component descriptor assembled during the DFS: `[n, per comp flow (cap bits, degree, (res_lidx, w bits)…),
    /// per comp_res effective-capacity bits]` — the
    /// [`IncrementalFiller::fill_keyed`] memo key.
    key: Vec<u64>,
    /// Per-group earliest predicted finisher: `((key time bits ‖ key seq),
    /// flow)`, indexed by union-find root. `u128::MAX` = no runnable member.
    group_best: Vec<(u128, u32)>,
    /// Unchanged flows whose queued prediction survived the rate loop —
    /// the only candidates the argmin pass may still have to cancel.
    keeps: Vec<u32>,
}

impl EngineState {
    /// Rewinds the state to what a freshly-constructed engine would hold
    /// for a cluster with `n_res` resources, keeping every allocation —
    /// the flow table, the per-resource registries, the event queue and
    /// the water-fill scratch.
    ///
    /// Flow slots keep their stale contents (an op's start overwrites the
    /// slot it takes whole) and `free_flows` is primed in
    /// descending order, so a warm run pops slots 0, 1, 2, … — exactly the
    /// indices a cold run assigns by pushing. Every field an event can
    /// observe is therefore bit-identical between cold and warm runs.
    fn reset(&mut self, n_res: usize, faults_active: bool, retry_timeout: f64) {
        self.free_flows.clear();
        self.free_flows.extend((0..self.flows.len() as u32).rev());
        self.res_flows.resize_with(n_res, Vec::new);
        for v in &mut self.res_flows {
            v.clear();
        }
        self.resource_bytes.clear();
        self.resource_bytes.resize(n_res, 0.0);
        self.res_stamp.clear();
        self.res_stamp.resize(n_res, 0);
        self.res_lidx.clear();
        self.res_lidx.resize(n_res, 0);
        self.flow_stamp.clear();
        self.flow_stamp.resize(self.flows.len(), 0);
        self.epoch = 0;
        self.cal.clear();
        self.filler.reset(n_res);
        self.seq = 0;
        self.max_active = 0;
        self.cap_scale.clear();
        self.cap_scale.resize(n_res, 1.0);
        self.faults_active = faults_active;
        self.retry_timeout = retry_timeout;
    }

    fn push_event(&mut self, time: f64, ev: Ev) {
        self.seq += 1;
        self.cal.push(time, self.seq, ev);
    }

    /// Queues flow `fi`'s completion prediction under its stored key,
    /// burning no new sequence number — a deferred prediction re-uses the
    /// seq reserved when its rate changed, so pop order matches
    /// push-per-change.
    fn queue_finish(&mut self, fi: u32) {
        let f = &mut self.flows[fi as usize];
        f.queued = true;
        self.cal.push(f.key.0, f.key.1, Ev::Finish { flow: fi });
    }

    /// Deletes flow `f`'s pending event, if any. Takes the calendar, not
    /// `&mut self`, so the rate loop can call it while it holds a flow
    /// borrowed.
    #[inline]
    fn cancel(f: &mut Flow, cal: &mut CalendarQueue<Ev>) {
        if std::mem::take(&mut f.queued) {
            let found = cal.remove(f.key.0, f.key.1);
            debug_assert!(found, "a flow's key pointed at a missing event");
        }
    }

    /// Schedules flow `fi`'s retry timeout as its pending event.
    fn push_retry(&mut self, time: f64, fi: u32) {
        self.seq += 1;
        let f = &mut self.flows[fi as usize];
        f.key = (time, self.seq);
        f.queued = true;
        self.cal.push(time, self.seq, Ev::Retry { flow: fi });
    }

    /// The one staleness rule: a popped `Finish` or `Retry` is live iff it
    /// is its flow's pending event, which it then stops being. Every
    /// superseded event is deleted from the calendar by key, so a stale pop
    /// means a cancellation was missed.
    fn take_pending(&mut self, fi: usize, seq: u64) -> bool {
        let f = &mut self.flows[fi];
        let live = f.queued && f.key.1 == seq;
        debug_assert!(live, "flow {fi}: popped an event it no longer owns");
        if live {
            f.queued = false;
        }
        live
    }

    /// Recomputes max-min rates over the connected component reachable from
    /// `seed_resources`, settling byte accounting at `now` and rescheduling
    /// completion predictions for flows whose rate changed.
    fn recompute<P: Probe + ?Sized>(
        &mut self,
        now: f64,
        seed_resources: &[ResourceId],
        rmap: &ResourceMap,
        probe: &mut P,
    ) -> Result<(), SimError> {
        self.epoch += 1;
        let e = self.epoch;
        // Scratch vectors live in the state (allocation-free after warm-up)
        // but are taken out so the traversal below can borrow `self` freely.
        let mut comp = std::mem::take(&mut self.comp);
        comp.clear();
        let mut stack = std::mem::take(&mut self.dfs);
        stack.clear();
        let mut uf = std::mem::take(&mut self.uf);
        self.comp_res.clear();
        uf.clear();
        self.key.clear();
        self.key.push(0); // patched to comp.len() after the DFS
        for &r in seed_resources {
            if self.res_stamp[r.index()] != e {
                self.res_stamp[r.index()] = e;
                self.res_lidx[r.index()] = self.comp_res.len() as u32;
                uf.push(self.comp_res.len() as u32);
                self.comp_res.push(r);
                stack.push(r);
            }
        }
        // DFS over the flow/resource bipartite graph. The visit fuses three
        // extra jobs into the traversal while the flow is already in cache:
        // settling byte accounting up to `now` (`comp` is built in this same
        // visit order, so per-resource accumulation order — and hence every
        // rounded sum — is unchanged), the canonical memo key for the
        // filler, and a union-find over the component's resources, grouping
        // it into the connected sub-groups the argmin scheduler below works
        // per.
        while let Some(r) = stack.pop() {
            for &fi in &self.res_flows[r.index()] {
                if self.flow_stamp[fi as usize] == e {
                    continue;
                }
                self.flow_stamp[fi as usize] = e;
                comp.push(fi);
                let f = &mut self.flows[fi as usize];
                let dt = now - f.last_update;
                let moved = if dt > 0.0 && f.rate > 0.0 {
                    (f.rate * dt).min(f.remaining)
                } else {
                    0.0
                };
                f.remaining -= moved;
                f.last_update = now;
                let f = &self.flows[fi as usize];
                self.key.push(f.cap.to_bits());
                self.key.push(f.resources.len() as u64);
                let mut root = u32::MAX;
                for &(r2, w) in &f.resources {
                    if moved > 0.0 {
                        self.resource_bytes[r2.index()] += moved * w;
                    }
                    if self.res_stamp[r2.index()] != e {
                        self.res_stamp[r2.index()] = e;
                        self.res_lidx[r2.index()] = self.comp_res.len() as u32;
                        uf.push(self.comp_res.len() as u32);
                        self.comp_res.push(r2);
                        stack.push(r2);
                    }
                    let li = self.res_lidx[r2.index()];
                    self.key.push(u64::from(li));
                    self.key.push(w.to_bits());
                    if root == u32::MAX {
                        root = Self::uf_find(&mut uf, li);
                    } else {
                        let b = Self::uf_find(&mut uf, li);
                        if b != root {
                            uf[b as usize] = root;
                        }
                    }
                }
            }
        }
        if comp.is_empty() {
            self.comp = comp;
            self.dfs = stack;
            self.uf = uf;
            return Ok(());
        }
        self.key[0] = comp.len() as u64;
        for &r in &self.comp_res {
            self.key
                .push((rmap.capacity(r) * self.cap_scale[r.index()]).to_bits());
        }

        // Water-fill the component, handing the filler a view straight into
        // the flow table — no per-call spec vector — and probing its memo
        // with the key assembled during the DFS (recurring component shapes
        // — every step of a ring, every symmetric node — replay a stored
        // solution bit-identically).
        let filled = {
            let flows = &self.flows;
            let cap_scale = &self.cap_scale;
            let flow_view = |k: usize| {
                let f = &flows[comp[k] as usize];
                FlowSpec {
                    cap: f.cap,
                    resources: &f.resources,
                }
            };
            let capacity = |r: ResourceId| rmap.capacity(r) * cap_scale[r.index()];
            let res_lidx = &self.res_lidx;
            let comp_res = &self.comp_res;
            self.filler.fill_keyed(
                &self.key,
                comp.len(),
                flow_view,
                capacity,
                |r| res_lidx[r.index()],
                |li| comp_res[li as usize],
                &mut self.rates,
            )
        };
        let touched = match filled {
            Ok(t) => t,
            Err(err) => {
                let op = self.flows[comp[err.flow()] as usize].op;
                self.comp = comp;
                self.dfs = stack;
                self.uf = uf;
                return Err(SimError::InvalidFlow { op, source: err });
            }
        };
        probe.waterfill(now, comp.len(), touched);

        // Rate updates, fused with the argmin accumulation: queue ONE
        // prediction per connected sub-group — its argmin stored
        // `key`. Any live `Finish` pop recomputes over
        // the popped flow's whole sub-group, so predictions for later
        // finishers are recreated then — queueing them all now would only
        // produce events that get cancelled or superseded first. This turns
        // queue traffic from O(rate changes) per recompute (≈ the component
        // size on contended rings) into O(sub-groups) (usually 1). Stored
        // keys are reused verbatim, so the event a
        // prediction eventually fires as is bit-identical — time, order
        // among same-instant events, everything — to push-per-change.
        let mut best = std::mem::take(&mut self.group_best);
        let mut keeps = std::mem::take(&mut self.keeps);
        best.clear();
        best.resize(self.comp_res.len(), (u128::MAX, u32::MAX));
        keeps.clear();
        for (k, &fi) in comp.iter().enumerate() {
            let new_rate = self.rates[k];
            let f = &mut self.flows[fi as usize];
            if self.faults_active && new_rate <= 0.0 {
                // Starved by a down rail: stall and schedule a retry. The
                // stalled flow stays registered on its resources so a
                // link-up recompute wakes it.
                if !f.stalled {
                    f.stalled = true;
                    f.rate = 0.0;
                    probe.flow_rate(f.op, fi, 0.0, now);
                    Self::cancel(f, &mut self.cal);
                    self.push_retry(now + self.retry_timeout, fi);
                }
                continue;
            }
            let changed = f.stalled || (new_rate - f.rate).abs() > RATE_EPS * f.cap;
            f.rate = new_rate;
            f.stalled = false;
            f.retries = 0;
            // Queue bookkeeping stays inline under the single `f` borrow
            // (`seq` and `cal` are fields disjoint from the flow table) —
            // re-indexing the flow table or bouncing through `&mut self`
            // helpers costs real time at ~7 changed flows per event.
            if changed {
                assert!(new_rate > 0.0, "flow starved by water-filling");
                probe.flow_rate(f.op, fi, new_rate, now);
                // Drop the superseded prediction (or the retry of a flow
                // that just woke), so a queued flow always means "key
                // unchanged since push". Queueing is deferred to the argmin
                // pass below: burn the sequence number push-per-change
                // would have stamped on this prediction and reserve it in
                // the key for the (possible) later push.
                Self::cancel(f, &mut self.cal);
                self.seq += 1;
                f.key = (now + f.remaining / new_rate, self.seq);
            } else if f.queued {
                // Unchanged flow with a live queued prediction: it keeps
                // its event (and queue position) unless the pass below
                // finds its sub-group's argmin moved elsewhere. Stalled
                // and changed flows never land here — their events were
                // just cancelled.
                keeps.push(fi);
            }
            if let Some(&(r0, _)) = f.resources.first() {
                let g = Self::uf_find(&mut uf, self.res_lidx[r0.index()]) as usize;
                // The key's time is non-negative, so the bit pattern orders
                // like the float. Exact time ties MUST break by the reserved
                // sequence number — that is the order push-per-change pops
                // same-instant predictions in.
                let cand = (u128::from(f.key.0.to_bits()) << 64) | u128::from(f.key.1);
                if (cand, fi) < best[g] {
                    best[g] = (cand, fi);
                }
            }
        }
        // Queue each sub-group's argmin (push order across groups is
        // irrelevant — the queue sorts by key) and drop the queued
        // prediction of any unchanged flow the argmin moved away from.
        for &(_, fi) in &best {
            if fi != u32::MAX && !self.flows[fi as usize].queued {
                self.queue_finish(fi);
            }
        }
        for &fi in &keeps {
            let f = &self.flows[fi as usize];
            let Some(&(r0, _)) = f.resources.first() else {
                continue;
            };
            let g = Self::uf_find(&mut uf, self.res_lidx[r0.index()]) as usize;
            if best[g].1 != fi {
                Self::cancel(&mut self.flows[fi as usize], &mut self.cal);
            }
        }
        self.keeps = keeps;
        self.group_best = best;
        self.uf = uf;
        self.comp = comp;
        self.dfs = stack;
        Ok(())
    }

    /// Union-find lookup with path halving over the scratch parent table.
    fn uf_find(uf: &mut [u32], mut x: u32) -> u32 {
        while uf[x as usize] != x {
            let p = uf[x as usize];
            uf[x as usize] = uf[p as usize];
            x = uf[p as usize];
        }
        x
    }
}

/// Reusable engine memory: the event queue, flow table, per-resource flow
/// registries, readiness driver,
/// water-fill scratch, flow-spec emission buffers and the resource map.
///
/// Repeated [`Simulator::run_in`] calls through one arena allocate nothing
/// in the engine after the first (warm-up) run on a given schedule shape —
/// only the returned [`SimResult`] is built fresh. Results are bit-identical
/// to [`Simulator::run`]: every observable field is reset to its
/// cold-start value and flow slots are recycled in cold-run index order.
///
/// An arena is not tied to one simulator or schedule; it revalidates its
/// cached resource map against the run's `(grid, spec)` and rebuilds it on
/// mismatch.
#[derive(Debug, Default)]
pub struct EngineArena {
    st: EngineState,
    ready: Option<ReadySet>,
    rr_next_rail: Vec<u8>,
    fault_events: Vec<FaultEvent>,
    specs: Vec<SpecTmp>,
    spec_res: Vec<(ResourceId, f64)>,
    rails: Vec<u8>,
    seeds: Vec<ResourceId>,
    rmap: Option<RmapCache>,
}

/// The arena's cached resource layout, revalidated per run.
#[derive(Debug)]
struct RmapCache {
    grid: ProcGrid,
    spec: ClusterSpec,
    rmap: ResourceMap,
    labels: Vec<String>,
}

impl EngineArena {
    /// An empty arena; buffers grow on first use and are kept thereafter.
    pub fn new() -> Self {
        EngineArena::default()
    }

    /// The engine work done through this arena since its creation, summed
    /// over every run (no run resets it).
    pub fn work(&self) -> EngineWork {
        let (pops, cells_swept) = self.st.cal.work();
        EngineWork {
            pops,
            cells_swept,
            memo: self.st.filler.stats(),
        }
    }
}

/// Engine work counts, read through [`EngineArena::work`]. They depend
/// only on the schedules and the cluster, never on the machine.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineWork {
    /// Events popped off the calendar queue, stale ones included.
    pub pops: u64,
    /// Calendar cells those pops swept: about one per pop when the bucket
    /// width fits the gaps between events.
    pub cells_swept: u64,
    /// Water-fill memo hits, misses, inserts and flushes.
    pub memo: FillStats,
}

/// Programmatic override of check mode: 0 = none (fall back to the cached
/// `MHA_CHECK` read), 1 = forced off, 2 = forced on.
static CHECK_OVERRIDE: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Whether invariant-check mode is on.
///
/// Resolution order: the thread-safe programmatic override
/// ([`set_check_enabled`]) wins; otherwise the `MHA_CHECK` environment
/// variable (set to anything other than empty or `0`), read **once** per
/// process and cached — later `set_var`/`remove_var` calls have no effect,
/// which keeps the answer stable under the parallel test harness. The
/// `fig*` binaries enable it via `--check` before constructing any
/// [`Simulator`].
pub fn check_enabled() -> bool {
    match CHECK_OVERRIDE.load(std::sync::atomic::Ordering::SeqCst) {
        1 => false,
        2 => true,
        _ => {
            static CHECK: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
            *CHECK
                .get_or_init(|| std::env::var("MHA_CHECK").is_ok_and(|v| !v.is_empty() && v != "0"))
        }
    }
}

/// Forces check mode on (`Some(true)`), off (`Some(false)`), or back to the
/// cached `MHA_CHECK` environment read (`None`). Thread-safe; tests and the
/// bench harness use this instead of racing on `std::env::set_var`.
pub fn set_check_enabled(v: Option<bool>) {
    let code = match v {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    CHECK_OVERRIDE.store(code, std::sync::atomic::Ordering::SeqCst);
}

/// Check mode's verdict on a run of `sch` that `audit` watched.
fn verdict(sch: &FrozenSchedule, audit: InvariantProbe) -> Result<(), SimError> {
    if audit.is_clean() {
        return Ok(());
    }
    Err(SimError::Invariant {
        schedule: sch.name().to_string(),
        total: audit.total_violations(),
        violations: audit.finish(),
    })
}

/// A discrete-event simulator for one cluster specification.
#[derive(Debug, Clone)]
pub struct Simulator {
    spec: ClusterSpec,
    faults: Option<FaultSpec>,
}

impl Simulator {
    /// Creates a simulator, validating the spec.
    pub fn new(spec: ClusterSpec) -> Result<Self, SimError> {
        spec.validate().map_err(SimError::InvalidSpec)?;
        Ok(Simulator { spec, faults: None })
    }

    /// Creates a simulator with a fault timeline (see [`FaultSpec`]). Rail
    /// indices are validated here; node indices are validated against the
    /// grid on each run.
    pub fn with_faults(spec: ClusterSpec, faults: FaultSpec) -> Result<Self, SimError> {
        let mut sim = Simulator::new(spec)?;
        faults
            .validate(sim.spec.rails, u32::MAX)
            .map_err(SimError::InvalidSpec)?;
        sim.faults = Some(faults);
        Ok(sim)
    }

    /// The cluster being simulated.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The fault timeline, if any.
    pub fn faults(&self) -> Option<&FaultSpec> {
        self.faults.as_ref()
    }

    /// Whether this simulator has a non-empty fault timeline. A
    /// [`FaultSpec`] with zero events is treated exactly like no spec at
    /// all: the engine skips the stall/retry machinery and the
    /// surviving-rail scans, taking the same zero-overhead path as a
    /// fault-free simulator.
    pub fn faults_active(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| !f.events.is_empty())
    }

    /// Simulates `sch` with default options; returns virtual-time results.
    pub fn run(&self, sch: &FrozenSchedule) -> Result<SimResult, SimError> {
        self.run_probed(sch, &mut NullProbe)
    }

    /// Simulates `sch` reusing `arena`'s allocations; bit-identical to
    /// [`Simulator::run`] (see [`EngineArena`]). This is the hot path the
    /// campaign runner replays cached schedules through.
    pub fn run_in(
        &self,
        sch: &FrozenSchedule,
        arena: &mut EngineArena,
    ) -> Result<SimResult, SimError> {
        self.run_probed_in(sch, &mut NullProbe, arena)
    }

    /// Simulates `sch`, narrating the run through `probe` (see
    /// [`mha_sched::probe`] for the available sinks; the ASCII timeline is
    /// [`crate::TraceBuilder`]).
    ///
    /// When check mode is on ([`check_enabled`], e.g. via a `fig*`
    /// binary's `--check` flag), every run is additionally audited by an
    /// [`InvariantProbe`] teed alongside `probe`, and any
    /// causality/capacity/conservation violation fails the run with
    /// [`SimError::Invariant`].
    pub fn run_probed<P: Probe + ?Sized>(
        &self,
        sch: &FrozenSchedule,
        probe: &mut P,
    ) -> Result<SimResult, SimError> {
        self.run_probed_in(sch, probe, &mut EngineArena::new())
    }

    /// [`Simulator::run_probed`] through a reusable [`EngineArena`].
    ///
    /// Generic over the probe so the no-probe path ([`Simulator::run_in`],
    /// the campaign hot loop) monomorphizes with [`NullProbe`] and every
    /// per-rate-change callback inlines to nothing — the event loop makes
    /// hundreds of thousands of probe calls per run, and a virtual dispatch
    /// on each is measurable. `&mut dyn Probe` still works (`dyn Probe`
    /// implements `Probe`).
    pub fn run_probed_in<P: Probe + ?Sized>(
        &self,
        sch: &FrozenSchedule,
        probe: &mut P,
        arena: &mut EngineArena,
    ) -> Result<SimResult, SimError> {
        if check_enabled() {
            let mut audit = InvariantProbe::new();
            let r = self.run_probed_inner(sch, &mut mha_sched::Tee(probe, &mut audit), arena)?;
            verdict(sch, audit)?;
            Ok(r)
        } else {
            self.run_probed_inner(sch, probe, arena)
        }
    }

    fn run_probed_inner<P: Probe + ?Sized>(
        &self,
        sch: &FrozenSchedule,
        probe: &mut P,
        arena: &mut EngineArena,
    ) -> Result<SimResult, SimError> {
        sch.validate_for(Some(self.spec.rails))?;
        let grid = *sch.grid();
        if grid.ppn() > self.spec.cores_per_node {
            return Err(SimError::PpnExceedsCores {
                ppn: grid.ppn(),
                cores: self.spec.cores_per_node,
            });
        }
        if let Some(faults) = &self.faults {
            faults
                .validate(self.spec.rails, grid.nodes())
                .map_err(SimError::InvalidSpec)?;
        }
        let rmap_fresh = !arena
            .rmap
            .as_ref()
            .is_some_and(|c| c.grid == grid && c.spec == self.spec);
        if rmap_fresh {
            let rmap = ResourceMap::new(&grid, &self.spec);
            let labels = (0..rmap.len())
                .map(|i| rmap.label(ResourceId(i as u32)))
                .collect();
            arena.rmap = Some(RmapCache {
                grid,
                spec: self.spec.clone(),
                rmap,
                labels,
            });
        }
        let EngineArena {
            st,
            ready,
            rr_next_rail,
            fault_events,
            specs,
            spec_res,
            rails,
            seeds,
            rmap: rmap_cache,
        } = arena;
        let cache = rmap_cache.as_ref().expect("resource map cached above");
        let rmap = &cache.rmap;

        let n_ops = sch.n_ops();
        probe.begin_run(sch, "simnet");
        let narrate_flows = probe.wants_flows();
        if narrate_flows {
            for (i, label) in cache.labels.iter().enumerate() {
                probe.resource_decl(i as u32, label, rmap.capacity(ResourceId(i as u32)));
            }
        }

        match ready {
            Some(r) => r.reset(sch),
            None => *ready = Some(ReadySet::new(sch)),
        }
        let ready = ready.as_mut().expect("readiness driver installed above");

        let mut op_end = vec![f64::NAN; n_ops];
        rr_next_rail.clear();
        rr_next_rail.resize(grid.nodes() as usize, 0);

        let faults_active = self.faults_active();
        st.reset(
            rmap.len(),
            faults_active,
            self.faults.as_ref().map_or(0.0, |f| f.retry_timeout),
        );

        // Fault boundaries enter the queue before the roots so a fault at
        // t=0 rescales capacities before any same-instant op start. Without
        // a fault timeline no events are pushed and the queue order is
        // byte-identical to the fault-free engine.
        fault_events.clear();
        if let Some(faults) = &self.faults {
            fault_events.extend_from_slice(&faults.events);
            fault_events.sort_by(|a, b| a.time.total_cmp(&b.time));
            for (i, ev) in fault_events.iter().enumerate() {
                st.push_event(ev.time, Ev::Fault { idx: i as u32 });
            }
        }

        for &i in sch.roots() {
            probe.op_ready(i, 0.0);
            let alpha = self.op_alpha(sch, i as usize);
            // Release delays (job arrival / think times from the traffic
            // layer) hold the start back; the guard keeps release-free
            // schedules on the exact `alpha` the engine always used.
            let rel = sch.release_of(mha_sched::OpId(i));
            let start = if rel > 0.0 { alpha + rel } else { alpha };
            st.push_event(start, Ev::Start { op: i });
        }

        let mut events = 0u64;
        let mut makespan = 0.0f64;

        // `events` counts *processed* events. Superseded events are deleted
        // by key, so every pop is live; `take_pending` skips (and, in debug
        // builds, asserts on) a pop a missed cancellation left behind.
        while let Some((time, seq, ev)) = st.cal.pop() {
            match ev {
                Ev::Start { op } => {
                    events += 1;
                    let oi = op as usize;
                    probe.op_start(op, time);
                    self.emit_op_flows(
                        sch,
                        oi,
                        rmap,
                        &grid,
                        rr_next_rail,
                        &st.cap_scale,
                        specs,
                        spec_res,
                        rails,
                    );
                    seeds.clear();
                    let mut created = 0u32;
                    for &sp in specs.iter() {
                        if sp.bytes <= 0.0 {
                            continue;
                        }
                        created += 1;
                        let mut resources = ResList::new();
                        resources
                            .extend_from_slice(&spec_res[sp.res_lo as usize..sp.res_hi as usize]);
                        let flow = Flow {
                            op,
                            resources,
                            cap: sp.cap,
                            remaining: sp.bytes,
                            rate: 0.0,
                            last_update: time,
                            key: (0.0, 0),
                            queued: false,
                            stalled: false,
                            retries: 0,
                            route: sp.route,
                        };
                        let fi = if let Some(fi) = st.free_flows.pop() {
                            st.flows[fi as usize] = flow;
                            fi as usize
                        } else {
                            st.flows.push(flow);
                            st.flow_stamp.push(0);
                            st.flows.len() - 1
                        };
                        let no_resources = sp.res_lo == sp.res_hi;
                        for &(r, _) in &spec_res[sp.res_lo as usize..sp.res_hi as usize] {
                            st.res_flows[r.index()].push(fi as u32);
                            seeds.push(r);
                        }
                        if narrate_flows {
                            let f = &st.flows[fi];
                            let res: Vec<(u32, f64)> =
                                f.resources.iter().map(|&(r, w)| (r.0, w)).collect();
                            probe.flow_begin(op, fi as u32, &res, f.cap, f.remaining, time);
                        }
                        if no_resources {
                            // Pure compute never contends: run at cap now.
                            let f = &mut st.flows[fi];
                            f.rate = f.cap;
                            st.seq += 1;
                            f.key = (time + f.remaining / f.rate, st.seq);
                            probe.flow_rate(op, fi as u32, f.rate, time);
                            st.queue_finish(fi as u32);
                        }
                    }
                    st.max_active = st.max_active.max(st.flows.len() - st.free_flows.len());
                    if created == 0 {
                        // Latency-only op (e.g. Compute { flops: 0 }).
                        op_end[oi] = time;
                        probe.op_end(op, time);
                        makespan = makespan.max(time);
                        self.enqueue_ready(sch, op, time, ready, probe, st);
                        continue;
                    }
                    // The op's readiness counter is zero and no completion
                    // touches it again: it counts the op's live flows.
                    ready.hold(op, created);
                    if !seeds.is_empty() {
                        st.recompute(time, seeds, rmap, probe)?;
                    }
                }
                Ev::Finish { flow } => {
                    let fi = flow as usize;
                    if !st.take_pending(fi, seq) {
                        continue;
                    }
                    events += 1;
                    // The slot is free once the flow leaves its resources'
                    // registries: the next op start overwrites it whole.
                    let f = &st.flows[fi];
                    let moved = (f.rate * (time - f.last_update)).min(f.remaining);
                    debug_assert!(
                        f.remaining - moved < 1.0,
                        "flow finished with {} bytes left",
                        f.remaining - moved
                    );
                    let (flow_op, res) = (f.op, f.resources.clone());
                    for &(r, w) in &res {
                        st.resource_bytes[r.index()] += moved * w;
                    }
                    if narrate_flows {
                        probe.flow_end(flow_op, flow, time);
                    }
                    seeds.clear();
                    seeds.extend(res.iter().map(|&(r, _)| r));
                    for &r in seeds.iter() {
                        let list = &mut st.res_flows[r.index()];
                        if let Some(pos) = list.iter().position(|&x| x == flow) {
                            list.swap_remove(pos);
                        }
                    }
                    st.free_flows.push(flow);

                    let oi = flow_op as usize;
                    if ready.take_one(flow_op) {
                        op_end[oi] = time;
                        probe.op_end(flow_op, time);
                        makespan = makespan.max(time);
                        self.enqueue_ready(sch, flow_op, time, ready, probe, st);
                    }
                    if !seeds.is_empty() {
                        st.recompute(time, seeds, rmap, probe)?;
                    }
                }
                Ev::Fault { idx } => {
                    events += 1;
                    let fe = fault_events[idx as usize];
                    seeds.clear();
                    if matches!(fe.kind, FaultKind::NodeDown | FaultKind::NodeUp) {
                        // Whole-node crash/restart: every resource the node
                        // owns — CPUs, memory ports, the cross-socket link,
                        // and all rails of its HCAs — goes to 0 (or back to
                        // nominal). Stalled rail flows back off until the
                        // restart; CPU/mem flows wake on the recompute the
                        // NodeUp seeds.
                        let scale = if matches!(fe.kind, FaultKind::NodeDown) {
                            0.0
                        } else {
                            1.0
                        };
                        let n = NodeId(fe.node.expect("validated: node faults carry a node"));
                        for rank in grid.ranks_of(n) {
                            seeds.push(rmap.cpu(rank));
                        }
                        for s in 0..self.spec.sockets() {
                            seeds.push(rmap.mem(n, s));
                        }
                        for h in 0..self.spec.rails {
                            seeds.push(rmap.tx(n, h));
                            seeds.push(rmap.rx(n, h));
                        }
                        if self.spec.sockets() > 1 {
                            seeds.push(rmap.xsocket(n));
                        }
                        for &r in seeds.iter() {
                            st.cap_scale[r.index()] = scale;
                            probe.resource_capacity(r.0, rmap.capacity(r) * scale, time);
                        }
                    } else {
                        let scale = match fe.kind {
                            FaultKind::Derate(f) => f,
                            FaultKind::Down => 0.0,
                            FaultKind::Up => 1.0,
                            FaultKind::NodeDown | FaultKind::NodeUp => unreachable!(),
                        };
                        let (n_lo, n_hi) = match fe.node {
                            Some(n) => (n, n + 1),
                            None => (0, grid.nodes()),
                        };
                        for n in (n_lo..n_hi).map(NodeId) {
                            for r in [rmap.tx(n, fe.rail), rmap.rx(n, fe.rail)] {
                                st.cap_scale[r.index()] = scale;
                                probe.resource_capacity(r.0, rmap.capacity(r) * scale, time);
                                seeds.push(r);
                            }
                        }
                    }
                    st.recompute(time, seeds, rmap, probe)?;
                }
                Ev::Retry { flow } => {
                    let fi = flow as usize;
                    if !st.take_pending(fi, seq) {
                        continue;
                    }
                    debug_assert!(st.flows[fi].stalled, "a woken flow kept its retry");
                    events += 1;
                    let Some((sn, dn, cur)) = st.flows[fi].route else {
                        continue; // non-rail flows never stall on a fault
                    };
                    // First surviving rail, scanning round-robin from the
                    // rail after the one we stalled on.
                    let mut next: Option<u8> = None;
                    for off in 1..=self.spec.rails {
                        let h =
                            ((u16::from(cur) + u16::from(off)) % u16::from(self.spec.rails)) as u8;
                        if st.cap_scale[rmap.tx(sn, h).index()] > 0.0
                            && st.cap_scale[rmap.rx(dn, h).index()] > 0.0
                        {
                            next = Some(h);
                            break;
                        }
                    }
                    match next {
                        Some(h) => {
                            // Re-issue: move the flow onto the surviving
                            // rail, keeping identity and remaining bytes.
                            // `seeds` doubles as the old-resource scratch —
                            // the recompute below must seed both the rails
                            // the flow left and the ones it joined.
                            seeds.clear();
                            seeds.extend(st.flows[fi].resources.iter().map(|&(r, _)| r));
                            for &r in seeds.iter() {
                                let list = &mut st.res_flows[r.index()];
                                if let Some(pos) = list.iter().position(|&x| x == flow) {
                                    list.swap_remove(pos);
                                }
                            }
                            let (txr, rxr) = (rmap.tx(sn, h), rmap.rx(dn, h));
                            {
                                let f = &mut st.flows[fi];
                                f.resources.clear();
                                f.resources.push((txr, 1.0));
                                f.resources.push((rxr, 1.0));
                                f.route = Some((sn, dn, h));
                                f.retries = 0;
                            }
                            st.res_flows[txr.index()].push(flow);
                            st.res_flows[rxr.index()].push(flow);
                            if narrate_flows {
                                let res: Vec<(u32, f64)> = st.flows[fi]
                                    .resources
                                    .iter()
                                    .map(|&(r, w)| (r.0, w))
                                    .collect();
                                probe.flow_resources(st.flows[fi].op, flow, &res, time);
                            }
                            seeds.push(txr);
                            seeds.push(rxr);
                            st.recompute(time, seeds, rmap, probe)?;
                        }
                        None => {
                            // No rail survives: back off exponentially
                            // (saturating at the documented 2^10 cap — the
                            // counter itself must not wrap past it) and try
                            // again. If every rail stays down forever the
                            // run ends at the deadlock assertion below.
                            let f = &mut st.flows[fi];
                            f.retries = f.retries.saturating_add(1);
                            let backoff = (1u64 << f.retries.min(MAX_BACKOFF_SHIFT)) as f64;
                            let t = time + st.retry_timeout * backoff;
                            st.push_retry(t, flow);
                        }
                    }
                }
            }
        }

        assert!(
            ready.is_done(),
            "simulation deadlocked: {} of {n_ops} ops incomplete",
            ready.remaining()
        );

        for (i, label) in cache.labels.iter().enumerate() {
            probe.resource_sample(label, st.resource_bytes[i], rmap.capacities()[i]);
        }
        probe.end_run(makespan);

        Ok(SimResult {
            makespan,
            op_end,
            events,
            max_concurrent_flows: st.max_active,
            resource_bytes: st.resource_bytes.clone(),
            resource_capacity: rmap.capacities().to_vec(),
            resource_labels: cache.labels.clone(),
        })
    }

    /// Releases successors of completed op `op` through the shared readiness
    /// driver and schedules their starts after their startup latencies.
    fn enqueue_ready<P: Probe + ?Sized>(
        &self,
        sch: &FrozenSchedule,
        op: u32,
        time: f64,
        ready: &mut ReadySet,
        probe: &mut P,
        st: &mut EngineState,
    ) {
        ready.complete(sch, op, |s| {
            probe.op_ready(s, time);
            let alpha = self.op_alpha(sch, s as usize);
            let rel = sch.release_of(mha_sched::OpId(s));
            let start = if rel > 0.0 {
                time + alpha + rel
            } else {
                time + alpha
            };
            st.push_event(start, Ev::Start { op: s });
        });
    }

    /// Whether any of `locs` lives in a node-shared buffer whose home
    /// socket differs from `actor_socket`.
    fn touches_remote_home(sch: &Schedule, locs: &[mha_sched::Loc], actor_socket: u32) -> bool {
        locs.iter().any(|loc| {
            sch.buffer(loc.buf)
                .home_socket
                .is_some_and(|h| h != actor_socket)
        })
    }

    /// Startup latency of op `oi`.
    fn op_alpha(&self, sch: &Schedule, oi: usize) -> f64 {
        match &sch.ops()[oi].kind {
            OpKind::Transfer {
                src_rank,
                dst_rank,
                len,
                channel,
                ..
            } => match channel {
                Channel::Cma => {
                    let grid = sch.grid();
                    let xs = self
                        .spec
                        .numa
                        .as_ref()
                        .filter(|n| n.cross_socket(grid, *src_rank, *dst_rank))
                        .map_or(0.0, |n| n.xsocket_alpha);
                    self.spec.cma_alpha + xs
                }
                Channel::Rail(_) | Channel::AllRails => self.spec.rail_startup(*len as usize),
            },
            OpKind::Copy { .. } | OpKind::Reduce { .. } => self.spec.copy_alpha,
            OpKind::Compute { .. } => 0.0,
        }
    }

    /// Expands op `oi` into flow specs, emitting `(cap, bytes, route)`
    /// rows into `out` and the flows' `(resource, weight)` pairs into the
    /// flat scratch `res` — no per-op allocation once the scratch buffers
    /// are warm. The round-robin rail for small `AllRails` messages is
    /// chosen here — i.e. when the transfer actually starts, matching an
    /// MPI pt2pt layer choosing the rail as the message hits the wire.
    /// Under an active (non-empty) fault timeline, `AllRails` resolves
    /// against the rails currently up for this src/dst pair
    /// (`cap_scale > 0`), re-tiling the stripe over the survivors.
    #[allow(clippy::too_many_arguments)]
    fn emit_op_flows(
        &self,
        sch: &Schedule,
        oi: usize,
        rmap: &ResourceMap,
        grid: &ProcGrid,
        rr_next_rail: &mut [u8],
        cap_scale: &[f64],
        out: &mut Vec<SpecTmp>,
        res: &mut Vec<(ResourceId, f64)>,
        rails: &mut Vec<u8>,
    ) {
        out.clear();
        res.clear();
        let spec = &self.spec;
        let faults_active = self.faults_active();
        // Seals the resources pushed since `lo` into one spec row.
        fn seal(
            out: &mut Vec<SpecTmp>,
            res: &[(ResourceId, f64)],
            lo: usize,
            cap: f64,
            bytes: f64,
            route: Option<RailRoute>,
        ) {
            out.push(SpecTmp {
                cap,
                bytes,
                route,
                res_lo: lo as u32,
                res_hi: res.len() as u32,
            });
        }
        match &sch.ops()[oi].kind {
            OpKind::Transfer {
                src_rank,
                dst_rank,
                len,
                channel,
                ..
            } => {
                let sn = grid.node_of(*src_rank);
                let dn = grid.node_of(*dst_rank);
                match channel {
                    Channel::Cma => {
                        let sck = socket_of(spec, grid, *dst_rank);
                        let lo = res.len();
                        res.push((rmap.cpu(*dst_rank), 1.0));
                        res.push((rmap.mem(dn, sck), spec.cma_mem_weight));
                        if let Some(numa) = &spec.numa {
                            if numa.cross_socket(grid, *src_rank, *dst_rank) {
                                res.push((rmap.xsocket(dn), 1.0));
                            }
                        }
                        seal(out, res, lo, spec.cma_bw, *len as f64, None);
                    }
                    Channel::Rail(h) => {
                        let lo = res.len();
                        res.push((rmap.tx(sn, *h), 1.0));
                        res.push((rmap.rx(dn, *h), 1.0));
                        seal(out, res, lo, spec.rail_bw, *len as f64, Some((sn, dn, *h)));
                    }
                    Channel::AllRails => {
                        let rail_up = |r: u8| {
                            cap_scale[rmap.tx(sn, r).index()] > 0.0
                                && cap_scale[rmap.rx(dn, r).index()] > 0.0
                        };
                        let len = *len as usize;
                        if spec.stripes(len) {
                            // Resolve against the surviving-rail set. Only
                            // consulted under a fault timeline; otherwise
                            // every rail is up and the tiling is identical
                            // to the fault-free engine. If every rail is
                            // down, issue on the full set and let the
                            // stall/retry machinery wait out the outage.
                            rails.clear();
                            if faults_active {
                                rails.extend((0..spec.rails).filter(|&r| rail_up(r)));
                                if rails.is_empty() {
                                    rails.extend(0..spec.rails);
                                }
                            } else {
                                rails.extend(0..spec.rails);
                            }
                            let k = rails.len();
                            let base = len / k;
                            let rem = len % k;
                            for (i, &r) in rails.iter().enumerate() {
                                let bytes = base + usize::from(i < rem);
                                if bytes == 0 {
                                    continue;
                                }
                                let lo = res.len();
                                res.push((rmap.tx(sn, r), 1.0));
                                res.push((rmap.rx(dn, r), 1.0));
                                seal(out, res, lo, spec.rail_bw, bytes as f64, Some((sn, dn, r)));
                            }
                        } else {
                            let mut h = rr_next_rail[sn.index()];
                            if faults_active {
                                // Skip dead rails; if all are down, keep
                                // the scheduled one and stall.
                                for _ in 0..spec.rails {
                                    if rail_up(h) {
                                        break;
                                    }
                                    h = (h + 1) % spec.rails;
                                }
                            }
                            rr_next_rail[sn.index()] = (h + 1) % spec.rails;
                            let lo = res.len();
                            res.push((rmap.tx(sn, h), 1.0));
                            res.push((rmap.rx(dn, h), 1.0));
                            seal(out, res, lo, spec.rail_bw, len as f64, Some((sn, dn, h)));
                        }
                    }
                }
            }
            OpKind::Copy {
                actor,
                src,
                dst,
                len,
            } => {
                let node = grid.node_of(*actor);
                let sck = socket_of(spec, grid, *actor);
                let lo = res.len();
                res.push((rmap.cpu(*actor), 1.0));
                res.push((rmap.mem(node, sck), 1.0));
                // First-touch shm pages on another socket route the copy
                // through the cross-socket interconnect.
                if spec.numa.is_some() && Self::touches_remote_home(sch, &[*src, *dst], sck) {
                    res.push((rmap.xsocket(node), 1.0));
                }
                seal(out, res, lo, spec.copy_bw, *len as f64, None);
            }
            OpKind::Reduce {
                actor,
                acc,
                operand,
                len,
                ..
            } => {
                let node = grid.node_of(*actor);
                let sck = socket_of(spec, grid, *actor);
                let lo = res.len();
                res.push((rmap.cpu(*actor), 1.0));
                res.push((rmap.mem(node, sck), spec.reduce_mem_weight));
                if spec.numa.is_some() && Self::touches_remote_home(sch, &[*acc, *operand], sck) {
                    res.push((rmap.xsocket(node), 1.0));
                }
                seal(out, res, lo, spec.reduce_bw(), *len as f64, None);
            }
            OpKind::Compute { actor, flops } => {
                // Convert FLOPs to CPU byte-equivalents so compute and copy
                // contend for the same core in one unit system.
                let bytes = *flops as f64 * spec.copy_bw / spec.flops_rate;
                let lo = res.len();
                res.push((rmap.cpu(*actor), 1.0));
                seal(out, res, lo, spec.copy_bw, bytes, None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mha_sched::{Loc, OpId, RankId, ScheduleBuilder};

    fn sim() -> Simulator {
        Simulator::new(ClusterSpec::thor()).unwrap()
    }

    fn rel_close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1e-30)
    }

    #[test]
    fn single_cma_transfer_matches_alpha_beta() {
        let grid = ProcGrid::single_node(2);
        let mut b = ScheduleBuilder::new(grid, "cma1");
        let len = 1 << 20;
        let s = b.private_buf(RankId(0), len, "s");
        let d = b.private_buf(RankId(1), len, "d");
        b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            len,
            Channel::Cma,
            &[],
            0,
        );
        let r = sim().run(&b.finish().freeze()).unwrap();
        let spec = ClusterSpec::thor();
        let expect = spec.cma_alpha + len as f64 / spec.cma_bw;
        assert!(
            rel_close(r.makespan, expect, 1e-9),
            "{} vs {expect}",
            r.makespan
        );
    }

    #[test]
    fn single_rail_transfer_includes_rendezvous() {
        let grid = ProcGrid::new(2, 1);
        let mut b = ScheduleBuilder::new(grid, "rail1");
        let len = 1 << 20;
        let s = b.private_buf(RankId(0), len, "s");
        let d = b.private_buf(RankId(1), len, "d");
        b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            len,
            Channel::Rail(0),
            &[],
            0,
        );
        let r = sim().run(&b.finish().freeze()).unwrap();
        let spec = ClusterSpec::thor();
        let expect = spec.rail_alpha + spec.rndv_extra + len as f64 / spec.rail_bw;
        assert!(rel_close(r.makespan, expect, 1e-9));
    }

    #[test]
    fn striped_transfer_is_about_twice_as_fast() {
        let grid = ProcGrid::new(2, 1);
        let len = 4 << 20;
        let build = |ch| {
            let mut b = ScheduleBuilder::new(grid, "t");
            let s = b.private_buf(RankId(0), len, "s");
            let d = b.private_buf(RankId(1), len, "d");
            b.transfer(
                RankId(0),
                RankId(1),
                Loc::new(s, 0),
                Loc::new(d, 0),
                len,
                ch,
                &[],
                0,
            );
            b.finish().freeze()
        };
        let one = sim().run(&build(Channel::Rail(0))).unwrap().makespan;
        let both = sim().run(&build(Channel::AllRails)).unwrap().makespan;
        let ratio = one / both;
        assert!(ratio > 1.8 && ratio < 2.1, "ratio = {ratio}");
    }

    #[test]
    fn small_allrails_messages_round_robin_across_rails() {
        // Two small concurrent messages from the same node should land on
        // different rails and overlap almost perfectly.
        let grid = ProcGrid::new(2, 2);
        let len = 4096;
        let mut b = ScheduleBuilder::new(grid, "rr");
        for r in 0..2u32 {
            let s = b.private_buf(RankId(r), len, "s");
            let d = b.private_buf(RankId(r + 2), len, "d");
            b.transfer(
                RankId(r),
                RankId(r + 2),
                Loc::new(s, 0),
                Loc::new(d, 0),
                len,
                Channel::AllRails,
                &[],
                0,
            );
        }
        let r = sim().run(&b.finish().freeze()).unwrap();
        let spec = ClusterSpec::thor();
        let single = spec.rail_alpha + len as f64 / spec.rail_bw;
        assert!(
            rel_close(r.makespan, single, 1e-6),
            "round-robin should overlap: {} vs {single}",
            r.makespan
        );
    }

    #[test]
    fn two_cma_transfers_to_one_rank_share_its_cpu() {
        let grid = ProcGrid::single_node(3);
        let len = 1 << 20;
        let mut b = ScheduleBuilder::new(grid, "share");
        let d = b.private_buf(RankId(2), 2 * len, "d");
        for r in 0..2u32 {
            let s = b.private_buf(RankId(r), len, "s");
            b.transfer(
                RankId(r),
                RankId(2),
                Loc::new(s, 0),
                Loc::new(d, (r as usize) * len),
                len,
                Channel::Cma,
                &[],
                0,
            );
        }
        let r = sim().run(&b.finish().freeze()).unwrap();
        let spec = ClusterSpec::thor();
        // Both CMA flows cross cpu(r2) with capacity copy_bw: each gets
        // copy_bw / 2 (their own cap cma_bw is not binding at that point).
        let expect = spec.cma_alpha + len as f64 / (spec.copy_bw / 2.0);
        assert!(
            rel_close(r.makespan, expect, 1e-6),
            "{} vs {expect}",
            r.makespan
        );
    }

    #[test]
    fn memory_congestion_emerges_with_many_copies() {
        let spec = ClusterSpec::thor();
        let l = 8u32;
        let grid = ProcGrid::single_node(l);
        let len = 1 << 20;
        let mut b = ScheduleBuilder::new(grid, "mem");
        let shm = b.shared_buf(mha_sched::NodeId(0), len, "shm");
        for r in 0..l {
            let d = b.private_buf(RankId(r), len, "d");
            b.copy(RankId(r), Loc::new(shm, 0), Loc::new(d, 0), len, &[], 0);
        }
        let r = sim().run(&b.finish().freeze()).unwrap();
        // 8 copies share mem_bw = 42 GB/s → 5.25 GB/s each, well under the
        // 13 GB/s per-core cap.
        let expect = spec.copy_alpha + len as f64 / (spec.mem_bw / l as f64);
        assert!(
            rel_close(r.makespan, expect, 1e-6),
            "{} vs {expect}",
            r.makespan
        );
    }

    #[test]
    fn dependency_chain_adds_latencies() {
        let grid = ProcGrid::single_node(2);
        let len = 64 * 1024;
        let mut b = ScheduleBuilder::new(grid, "chain");
        let s = b.private_buf(RankId(0), len, "s");
        let d = b.private_buf(RankId(1), len, "d");
        let e = b.private_buf(RankId(1), len, "e");
        let t1 = b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            len,
            Channel::Cma,
            &[],
            0,
        );
        b.copy(RankId(1), Loc::new(d, 0), Loc::new(e, 0), len, &[t1], 1);
        let r = sim().run(&b.finish().freeze()).unwrap();
        let spec = ClusterSpec::thor();
        let expect = spec.t_c(len) + spec.t_l(len);
        assert!(
            rel_close(r.makespan, expect, 1e-9),
            "{} vs {expect}",
            r.makespan
        );
    }

    #[test]
    fn compute_duration_is_flops_over_rate() {
        let grid = ProcGrid::single_node(1);
        let mut b = ScheduleBuilder::new(grid, "comp");
        b.compute(RankId(0), 5_000_000, &[], 0);
        let r = sim().run(&b.finish().freeze()).unwrap();
        let spec = ClusterSpec::thor();
        let expect = 5.0e6 / spec.flops_rate;
        assert!(rel_close(r.makespan, expect, 1e-9));
    }

    #[test]
    fn zero_flop_compute_completes_instantly() {
        let grid = ProcGrid::single_node(1);
        let mut b = ScheduleBuilder::new(grid, "zero");
        let c = b.compute(RankId(0), 0, &[], 0);
        b.compute(RankId(0), 1000, &[c], 1);
        let r = sim().run(&b.finish().freeze()).unwrap();
        assert!(r.makespan > 0.0);
        assert_eq!(r.op_end.len(), 2);
        assert!(r.op_end[0] <= r.op_end[1]);
    }

    #[test]
    fn op_end_respects_dependencies() {
        let grid = ProcGrid::single_node(4);
        let mut b = ScheduleBuilder::new(grid, "deps");
        let mut prev = None;
        for i in 0..10u32 {
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(b.compute(RankId(i % 4), 1000, &deps, i));
        }
        let sch = b.finish().freeze();
        let r = sim().run(&sch).unwrap();
        for (i, &end) in r.op_end.iter().enumerate() {
            for &d in sch.deps(OpId::from(i)) {
                assert!(r.op_end[d.index()] <= end);
            }
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let grid = ProcGrid::new(2, 4);
        let mut b = ScheduleBuilder::new(grid, "det");
        for r in 0..4u32 {
            let len = 10_000 * (r as usize + 1);
            let s = b.private_buf(RankId(r), len, "s");
            let d = b.private_buf(RankId(r + 4), len, "d");
            b.transfer(
                RankId(r),
                RankId(r + 4),
                Loc::new(s, 0),
                Loc::new(d, 0),
                len,
                Channel::AllRails,
                &[],
                0,
            );
        }
        let sch = b.finish().freeze();
        let a = sim().run(&sch).unwrap();
        let b2 = sim().run(&sch).unwrap();
        assert_eq!(a.makespan, b2.makespan);
        assert_eq!(a.op_end, b2.op_end);
        assert_eq!(a.events, b2.events);
    }

    #[test]
    fn ppn_over_cores_is_rejected() {
        let grid = ProcGrid::single_node(64);
        let mut b = ScheduleBuilder::new(grid, "big");
        b.compute(RankId(0), 1, &[], 0);
        let err = sim().run(&b.finish().freeze()).unwrap_err();
        assert!(matches!(
            err,
            SimError::PpnExceedsCores { ppn: 64, cores: 32 }
        ));
    }

    #[test]
    fn invalid_schedule_is_rejected() {
        let grid = ProcGrid::new(2, 1);
        let mut b = ScheduleBuilder::new(grid, "bad");
        let s = b.private_buf(RankId(0), 8, "s");
        let d = b.private_buf(RankId(1), 8, "d");
        b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            8,
            Channel::Rail(7),
            &[],
            0,
        );
        assert!(matches!(
            sim().run(&b.finish().freeze()).unwrap_err(),
            SimError::InvalidSchedule(_)
        ));
    }

    /// A run's [`mha_sched::RunSummary`].
    fn summarize(sch: &FrozenSchedule) -> mha_sched::RunSummary {
        let mut sp = mha_sched::SummaryProbe::new();
        sim().run_probed(sch, &mut sp).unwrap();
        sp.finish()
    }

    #[test]
    fn utilization_is_bounded_and_bottleneck_sane() {
        let grid = ProcGrid::new(2, 1);
        let len = 1 << 22;
        let mut b = ScheduleBuilder::new(grid, "util");
        let s = b.private_buf(RankId(0), len, "s");
        let d = b.private_buf(RankId(1), len, "d");
        b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            len,
            Channel::Rail(0),
            &[],
            0,
        );
        let r = summarize(&b.finish().freeze());
        for u in &r.resources {
            assert!((0.0..=1.0 + 1e-9).contains(&u.utilization), "{u:?}");
        }
        let top = r
            .resources
            .iter()
            .max_by(|a, b| a.utilization.total_cmp(&b.utilization))
            .unwrap();
        assert!(
            top.label.starts_with("tx") || top.label.starts_with("rx"),
            "{}",
            top.label
        );
        assert!(
            top.utilization > 0.9,
            "rail should be nearly saturated: {}",
            top.utilization
        );
    }

    #[test]
    fn striping_handles_non_divisible_lengths() {
        // An odd length splits into base/base+1 subflows; all bytes must
        // arrive and the makespan matches the larger stripe.
        let grid = ProcGrid::new(2, 1);
        let len = (1 << 20) + 1; // odd, above stripe threshold
        let mut b = ScheduleBuilder::new(grid, "odd");
        let s = b.private_buf(RankId(0), len, "s");
        let d = b.private_buf(RankId(1), len, "d");
        b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            len,
            Channel::AllRails,
            &[],
            0,
        );
        let r = sim().run(&b.finish().freeze()).unwrap();
        let spec = ClusterSpec::thor();
        let expect = spec.rail_startup(len) + len.div_ceil(2) as f64 / spec.rail_bw;
        assert!(
            rel_close(r.makespan, expect, 1e-9),
            "{} vs {expect}",
            r.makespan
        );
        // Both rails carried traffic.
        let tx_bytes: f64 = r
            .resource_labels
            .iter()
            .zip(&r.resource_bytes)
            .filter(|(l, _)| l.starts_with("tx(n0"))
            .map(|(_, b)| *b)
            .sum();
        assert!((tx_bytes - len as f64).abs() < 1.0);
    }

    #[test]
    fn single_rail_cluster_never_stripes() {
        let one = Simulator::new(ClusterSpec::thor_single_rail()).unwrap();
        let grid = ProcGrid::new(2, 1);
        let len = 1 << 20;
        let mut b = ScheduleBuilder::new(grid, "one-rail");
        let s = b.private_buf(RankId(0), len, "s");
        let d = b.private_buf(RankId(1), len, "d");
        b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            len,
            Channel::AllRails,
            &[],
            0,
        );
        let r = one.run(&b.finish().freeze()).unwrap();
        let spec = ClusterSpec::thor_single_rail();
        let expect = spec.rail_startup(len) + len as f64 / spec.rail_bw;
        assert!(rel_close(r.makespan, expect, 1e-9));
        assert_eq!(r.max_concurrent_flows, 1);
    }

    #[test]
    fn event_count_is_linear_in_ops_for_chain_schedules() {
        // A dependency chain produces O(1) events per op (no rate-change
        // amplification when components are singletons).
        let grid = ProcGrid::single_node(1);
        let mut b = ScheduleBuilder::new(grid, "chain");
        let n = 200u32;
        let buf = b.private_buf(RankId(0), 64, "p");
        let buf2 = b.private_buf(RankId(0), 64, "q");
        let mut prev = None;
        for i in 0..n {
            let deps: Vec<_> = prev.into_iter().collect();
            let (s, d) = if i % 2 == 0 { (buf, buf2) } else { (buf2, buf) };
            prev = Some(b.copy(RankId(0), Loc::new(s, 0), Loc::new(d, 0), 64, &deps, i));
        }
        let r = sim().run(&b.finish().freeze()).unwrap();
        assert!(r.events <= 3 * u64::from(n), "events {}", r.events);
    }

    #[test]
    fn numa_cross_socket_cma_pays_the_interconnect() {
        let spec = ClusterSpec::thor_numa();
        let sim = Simulator::new(spec.clone()).unwrap();
        let grid = ProcGrid::single_node(8); // sockets: ranks 0-3 / 4-7
        let len = 1 << 20;
        let build = |src: u32, dst: u32| {
            let mut b = ScheduleBuilder::new(grid, "numa");
            let s = b.private_buf(RankId(src), len, "s");
            let d = b.private_buf(RankId(dst), len, "d");
            b.transfer(
                RankId(src),
                RankId(dst),
                Loc::new(s, 0),
                Loc::new(d, 0),
                len,
                Channel::Cma,
                &[],
                0,
            );
            b.finish().freeze()
        };
        let same = sim.run(&build(0, 1)).unwrap().makespan;
        let cross = sim.run(&build(0, 5)).unwrap().makespan;
        // Even one cross-socket stream runs at the interconnect's
        // effective rate rather than the local controller's…
        assert!(cross > same * 1.3, "cross {cross} vs same {same}");
        // …and concurrent cross-socket streams share it.
        let mut b = ScheduleBuilder::new(grid, "numa-congested");
        for i in 0..4u32 {
            let s = b.private_buf(RankId(i), len, "s");
            let d = b.private_buf(RankId(i + 4), len, "d");
            b.transfer(
                RankId(i),
                RankId(i + 4),
                Loc::new(s, 0),
                Loc::new(d, 0),
                len,
                Channel::Cma,
                &[],
                0,
            );
        }
        let congested = sim.run(&b.finish().freeze()).unwrap().makespan;
        let numa = spec.numa.as_ref().unwrap();
        let expect = spec.cma_alpha + numa.xsocket_alpha + len as f64 / (numa.xsocket_bw / 4.0);
        assert!(
            (congested - expect).abs() < 0.05 * expect,
            "congested {congested} vs expected {expect}"
        );
    }

    #[test]
    fn numa_same_socket_traffic_is_unaffected() {
        // Same-socket transfers on the NUMA spec behave like the uniform
        // model with a per-socket memory controller.
        let numa = Simulator::new(ClusterSpec::thor_numa()).unwrap();
        let grid = ProcGrid::single_node(4); // all on socket 0
        let len = 256 * 1024;
        let mut b = ScheduleBuilder::new(grid, "same-socket");
        let s = b.private_buf(RankId(0), len, "s");
        let d = b.private_buf(RankId(1), len, "d");
        b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            len,
            Channel::Cma,
            &[],
            0,
        );
        let sch = b.finish().freeze();
        let spec = ClusterSpec::thor_numa();
        let t = numa.run(&sch).unwrap().makespan;
        // One CMA stream on one socket: bounded by the per-socket memory
        // controller (mem_bw/2 at weight 2 = 10.5 GB/s), not the 11 GB/s
        // CMA cap.
        let per_socket = spec.mem_bw / 2.0 / spec.cma_mem_weight;
        let expect = spec.cma_alpha + len as f64 / per_socket.min(spec.cma_bw);
        assert!(
            (t - expect).abs() < 1e-9 * expect.max(1.0),
            "{t} vs {expect}"
        );
    }

    #[test]
    fn invariant_probe_passes_on_contended_schedules() {
        // Heavy sharing: many CMA transfers into one rank, plus striped
        // rail traffic — the hardest case for the capacity/conservation
        // audit, since rates change repeatedly mid-flight.
        let grid = ProcGrid::new(2, 4);
        let len = 1 << 20;
        let mut b = ScheduleBuilder::new(grid, "audit");
        let d = b.private_buf(RankId(3), 3 * len, "d");
        for r in 0..3u32 {
            let s = b.private_buf(RankId(r), len, "s");
            b.transfer(
                RankId(r),
                RankId(3),
                Loc::new(s, 0),
                Loc::new(d, (r as usize) * len),
                len,
                Channel::Cma,
                &[],
                0,
            );
        }
        for r in 0..4u32 {
            let s = b.private_buf(RankId(r), len, "rs");
            let rd = b.private_buf(RankId(r + 4), len, "rd");
            b.transfer(
                RankId(r),
                RankId(r + 4),
                Loc::new(s, 0),
                Loc::new(rd, 0),
                len,
                Channel::AllRails,
                &[],
                1,
            );
        }
        let sch = b.finish().freeze();
        let mut audit = mha_sched::InvariantProbe::new();
        sim().run_probed(&sch, &mut audit).unwrap();
        assert!(audit.is_clean(), "{:?}", audit.violations());
    }

    #[test]
    fn trace_records_spans_when_enabled() {
        let grid = ProcGrid::single_node(2);
        let mut b = ScheduleBuilder::new(grid, "tr");
        let s = b.private_buf(RankId(0), 1024, "s");
        let d = b.private_buf(RankId(1), 1024, "d");
        b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            1024,
            Channel::Cma,
            &[],
            0,
        );
        let sch = b.finish().freeze();
        let mut tb = crate::TraceBuilder::new();
        let r = sim().run_probed(&sch, &mut tb).unwrap();
        let t = tb.finish(&sch);
        assert_eq!(t.spans().len(), 1);
        let sp = t.spans()[0];
        assert_eq!(sp.ready, 0.0);
        assert!(sp.start > sp.ready);
        assert!(sp.end > sp.start);
        assert_eq!(t.makespan(), r.makespan);
    }

    #[test]
    fn invariant_violations_are_a_typed_error() {
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(1), "audited");
        let p = b.private_buf(RankId(0), 8, "p");
        let q = b.private_buf(RankId(0), 8, "q");
        let mut prev = vec![];
        for step in 0..10 {
            prev = vec![b.copy(RankId(0), Loc::new(p, 0), Loc::new(q, 0), 8, &prev, step)];
        }
        let sch = b.finish().freeze();
        assert!(verdict(&sch, InvariantProbe::new()).is_ok());
        // A stream that reports no op spans: all 10 ops are flagged.
        let mut audit = InvariantProbe::new();
        audit.begin_run(&sch, "test");
        audit.end_run(0.0);
        let err = verdict(&sch, audit).unwrap_err();
        assert!(
            matches!(&err, SimError::Invariant { schedule, total: 10, violations }
                if schedule == "audited" && violations.len() == 10),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(msg.starts_with("invariant check failed: 10 violation(s) on schedule `audited`"));
        assert!(msg.contains("\n  - span: op 0 never reported"), "{msg}");
        assert!(msg.ends_with("\n  ... and 2 more"), "{msg}");
    }

    /// One inter-node transfer on the given channel, for fault tests.
    fn rail_sch(len: usize, ch: Channel) -> FrozenSchedule {
        let grid = ProcGrid::new(2, 1);
        let mut b = ScheduleBuilder::new(grid, "fault");
        let s = b.private_buf(RankId(0), len, "s");
        let d = b.private_buf(RankId(1), len, "d");
        b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            len,
            ch,
            &[],
            0,
        );
        b.finish().freeze()
    }

    fn bytes_on(r: &SimResult, prefix: &str) -> f64 {
        r.resource_labels
            .iter()
            .zip(&r.resource_bytes)
            .filter(|(l, _)| l.starts_with(prefix))
            .map(|(_, b)| *b)
            .sum()
    }

    #[test]
    fn fault_timeline_past_the_makespan_leaves_results_bit_identical() {
        let sch = rail_sch(1 << 20, Channel::AllRails);
        let plain = sim().run(&sch).unwrap();
        let faults = FaultSpec::derate(0, 1e9, 0.5); // long after completion
        let faulty = Simulator::with_faults(ClusterSpec::thor(), faults)
            .unwrap()
            .run(&sch)
            .unwrap();
        assert_eq!(plain.makespan.to_bits(), faulty.makespan.to_bits());
        assert_eq!(plain.op_end.len(), faulty.op_end.len());
        for (a, b) in plain.op_end.iter().zip(&faulty.op_end) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn derated_rail_slows_the_transfer_proportionally() {
        let len = 1 << 20;
        let sch = rail_sch(len, Channel::Rail(0));
        let faults = FaultSpec::derate(0, 0.0, 0.5);
        let r = Simulator::with_faults(ClusterSpec::thor(), faults)
            .unwrap()
            .run(&sch)
            .unwrap();
        let spec = ClusterSpec::thor();
        let expect = spec.rail_startup(len) + len as f64 / (0.5 * spec.rail_bw);
        assert!(
            rel_close(r.makespan, expect, 1e-9),
            "{} vs {expect}",
            r.makespan
        );
    }

    #[test]
    fn striping_avoids_a_down_rail() {
        // Rail 0 dead from t=0: a striped AllRails transfer re-tiles the
        // whole message onto rail 1 and never touches rail 0.
        let len = 1 << 20;
        let sch = rail_sch(len, Channel::AllRails);
        let faults = FaultSpec::rail_down_at(0, 0.0);
        let r = Simulator::with_faults(ClusterSpec::thor(), faults)
            .unwrap()
            .run(&sch)
            .unwrap();
        let spec = ClusterSpec::thor();
        let expect = spec.rail_startup(len) + len as f64 / spec.rail_bw;
        assert!(
            rel_close(r.makespan, expect, 1e-9),
            "{} vs {expect}",
            r.makespan
        );
        assert_eq!(bytes_on(&r, "tx(n0,h0"), 0.0);
        assert!((bytes_on(&r, "tx(n0,h1") - len as f64).abs() < 1.0);
    }

    #[test]
    fn stalled_flow_retries_onto_the_surviving_rail() {
        // A pinned Rail(0) flow can't re-stripe at issue time; it stalls,
        // waits out the retry timeout, and re-issues on rail 1.
        let len = 1 << 20;
        let sch = rail_sch(len, Channel::Rail(0));
        let timeout = 50e-6;
        let mut faults = FaultSpec::rail_down_at(0, 0.0);
        faults.retry_timeout = timeout;
        let r = Simulator::with_faults(ClusterSpec::thor(), faults)
            .unwrap()
            .run(&sch)
            .unwrap();
        let spec = ClusterSpec::thor();
        let expect = spec.rail_startup(len) + timeout + len as f64 / spec.rail_bw;
        assert!(
            rel_close(r.makespan, expect, 1e-9),
            "{} vs {expect}",
            r.makespan
        );
        assert_eq!(bytes_on(&r, "tx(n0,h0"), 0.0);
        assert!((bytes_on(&r, "tx(n0,h1") - len as f64).abs() < 1.0);
    }

    #[test]
    fn link_flap_pauses_and_resumes_the_flow() {
        // Rail 0 flaps mid-flight; with a retry timeout longer than the
        // outage, the flow waits in place and resumes on the same rail.
        let len = 4 << 20;
        let sch = rail_sch(len, Channel::Rail(0));
        let spec = ClusterSpec::thor();
        let alpha = spec.rail_startup(len);
        let full = len as f64 / spec.rail_bw;
        let t_down = alpha + 0.25 * full;
        let t_up = t_down + 3.0 * full;
        let mut faults = FaultSpec::flap(0, t_down, t_up);
        faults.retry_timeout = 100.0; // never retries within this run
        let r = Simulator::with_faults(spec.clone(), faults)
            .unwrap()
            .run(&sch)
            .unwrap();
        let expect = t_up + 0.75 * full;
        assert!(
            rel_close(r.makespan, expect, 1e-9),
            "{} vs {expect}",
            r.makespan
        );
        assert_eq!(bytes_on(&r, "tx(n0,h1"), 0.0);
    }

    #[test]
    fn down_rail_run_passes_the_invariant_audit() {
        let len = 1 << 20;
        let sch = rail_sch(len, Channel::AllRails);
        let faults = FaultSpec::rail_down_at(0, 0.0);
        let sim = Simulator::with_faults(ClusterSpec::thor(), faults).unwrap();
        let mut audit = mha_sched::InvariantProbe::new();
        sim.run_probed(&sch, &mut audit).unwrap();
        assert!(audit.is_clean(), "{:?}", audit.violations());
    }

    #[test]
    fn per_node_fault_only_affects_that_node_and_is_grid_checked() {
        // A node index outside the grid is caught at run time.
        let sch = rail_sch(1 << 20, Channel::Rail(0));
        let faults = FaultSpec::new(1e-4).with_event(FaultEvent {
            time: 0.0,
            rail: 0,
            node: Some(7),
            kind: FaultKind::Down,
        });
        let sim = Simulator::with_faults(ClusterSpec::thor(), faults).unwrap();
        assert!(matches!(
            sim.run(&sch).unwrap_err(),
            SimError::InvalidSpec(_)
        ));

        // A fault pinned to the destination node still kills the path
        // (its rx side is down), so the stall/retry machinery engages.
        let len = 1 << 20;
        let timeout = 50e-6;
        let mut faults = FaultSpec::new(timeout).with_event(FaultEvent {
            time: 0.0,
            rail: 0,
            node: Some(1),
            kind: FaultKind::Down,
        });
        faults.retry_timeout = timeout;
        let r = Simulator::with_faults(ClusterSpec::thor(), faults)
            .unwrap()
            .run(&rail_sch(len, Channel::Rail(0)))
            .unwrap();
        let spec = ClusterSpec::thor();
        let expect = spec.rail_startup(len) + timeout + len as f64 / spec.rail_bw;
        assert!(
            rel_close(r.makespan, expect, 1e-9),
            "{} vs {expect}",
            r.makespan
        );
    }

    #[test]
    fn check_override_wins_over_the_env_cache() {
        set_check_enabled(Some(true));
        assert!(check_enabled());
        set_check_enabled(Some(false));
        assert!(!check_enabled());
        set_check_enabled(None);
    }

    /// A striped + round-robin + CMA mix, enough to exercise flow-slot
    /// recycling and the water-fill component logic.
    fn mixed_sched() -> FrozenSchedule {
        let grid = ProcGrid::new(2, 2);
        let mut b = ScheduleBuilder::new(grid, "mix");
        let big = 256 * 1024;
        let small = 4096;
        for r in 0..2u32 {
            let s = b.private_buf(RankId(r), big, "s");
            let d = b.private_buf(RankId(r + 2), big, "d");
            let t1 = b.transfer(
                RankId(r),
                RankId(r + 2),
                Loc::new(s, 0),
                Loc::new(d, 0),
                big,
                Channel::AllRails,
                &[],
                0,
            );
            let s2 = b.private_buf(RankId(r), small, "s2");
            let d2 = b.private_buf(RankId(r + 2), small, "d2");
            b.transfer(
                RankId(r),
                RankId(r + 2),
                Loc::new(s2, 0),
                Loc::new(d2, 0),
                small,
                Channel::AllRails,
                &[t1],
                1,
            );
        }
        let s3 = b.private_buf(RankId(0), big, "s3");
        let d3 = b.private_buf(RankId(1), big, "d3");
        b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s3, 0),
            Loc::new(d3, 0),
            big,
            Channel::Cma,
            &[],
            0,
        );
        b.finish().freeze()
    }

    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_runs() {
        let sch = mixed_sched();
        let sim = sim();
        let cold = sim.run(&sch).unwrap();
        let mut arena = EngineArena::new();
        for rep in 0..5 {
            let warm = sim.run_in(&sch, &mut arena).unwrap();
            assert_eq!(
                warm.makespan.to_bits(),
                cold.makespan.to_bits(),
                "rep {rep}: warm makespan diverged"
            );
            assert_eq!(warm.events, cold.events);
            assert_eq!(warm.max_concurrent_flows, cold.max_concurrent_flows);
            for (a, b) in warm.op_end.iter().zip(&cold.op_end) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in warm.resource_bytes.iter().zip(&cold.resource_bytes) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn arena_revalidates_its_resource_map_across_grids_and_specs() {
        let mut arena = EngineArena::new();
        let a = mixed_sched();
        let sim2 = sim();
        let want_a = sim2.run(&a).unwrap().makespan;
        assert_eq!(sim2.run_in(&a, &mut arena).unwrap().makespan, want_a);

        // Different grid through the same arena.
        let grid = ProcGrid::new(4, 1);
        let mut b = ScheduleBuilder::new(grid, "other");
        let len = 64 * 1024;
        let s = b.private_buf(RankId(0), len, "s");
        let d = b.private_buf(RankId(3), len, "d");
        b.transfer(
            RankId(0),
            RankId(3),
            Loc::new(s, 0),
            Loc::new(d, 0),
            len,
            Channel::AllRails,
            &[],
            0,
        );
        let other = b.finish().freeze();
        let want_b = sim2.run(&other).unwrap().makespan;
        assert_eq!(sim2.run_in(&other, &mut arena).unwrap().makespan, want_b);

        // Different cluster spec (single rail) through the same arena.
        let single = Simulator::new(ClusterSpec::thor_single_rail()).unwrap();
        let want_c = single.run(&other).unwrap().makespan;
        assert_eq!(single.run_in(&other, &mut arena).unwrap().makespan, want_c);

        // And back to the first shape again.
        assert_eq!(sim2.run_in(&a, &mut arena).unwrap().makespan, want_a);
    }

    #[test]
    fn empty_fault_spec_takes_the_fault_free_path() {
        let empty = Simulator::with_faults(
            ClusterSpec::thor(),
            FaultSpec::new(crate::fault::DEFAULT_RETRY_TIMEOUT),
        )
        .unwrap();
        assert!(
            !empty.faults_active(),
            "a zero-event FaultSpec must not arm the fault machinery"
        );
        assert!(Simulator::new(ClusterSpec::thor())
            .unwrap()
            .faults()
            .is_none());
        let armed =
            Simulator::with_faults(ClusterSpec::thor(), FaultSpec::rail_down_at(0, 1.0)).unwrap();
        assert!(armed.faults_active());

        // And the gated run is bit-identical to the fault-free simulator.
        let sch = mixed_sched();
        let plain = sim().run(&sch).unwrap();
        let gated = empty.run(&sch).unwrap();
        assert_eq!(plain.makespan.to_bits(), gated.makespan.to_bits());
        assert_eq!(plain.events, gated.events);
    }

    fn assert_bits_eq(a: &SimResult, b: &SimResult, what: &str) {
        assert_eq!(
            a.makespan.to_bits(),
            b.makespan.to_bits(),
            "{what}: makespan"
        );
        assert_eq!(a.events, b.events, "{what}: event count");
        assert_eq!(a.op_end.len(), b.op_end.len(), "{what}: op count");
        for (i, (x, y)) in a.op_end.iter().zip(&b.op_end).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: op_end[{i}]");
        }
        for (i, (x, y)) in a.resource_bytes.iter().zip(&b.resource_bytes).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: resource_bytes[{i}]");
        }
    }

    /// Every rail down from t=0: the flow must make zero-capacity forward
    /// progress via the stall/retry machinery (no spin, no deadlock) and
    /// resume the instant the fabric comes back.
    #[test]
    fn all_rails_down_at_t0_recover_without_spinning() {
        let len = 1 << 20;
        let sch = rail_sch(len, Channel::Rail(0));
        let timeout = 10e-6;
        let t_up = 500e-6;
        let mut faults = FaultSpec::new(timeout);
        for rail in 0..2u8 {
            faults = faults
                .with_event(FaultEvent {
                    time: 0.0,
                    rail,
                    node: None,
                    kind: FaultKind::Down,
                })
                .with_event(FaultEvent {
                    time: t_up,
                    rail,
                    node: None,
                    kind: FaultKind::Up,
                });
        }
        let r = Simulator::with_faults(ClusterSpec::thor(), faults)
            .unwrap()
            .run(&sch)
            .unwrap();
        let spec = ClusterSpec::thor();
        let expect = t_up + len as f64 / spec.rail_bw;
        assert!(
            rel_close(r.makespan, expect, 1e-9),
            "{} vs {expect}",
            r.makespan
        );
    }

    /// A no-survivor flap long enough to force hundreds of consecutive
    /// retries: the exponential backoff multiplier must saturate at
    /// `2^MAX_BACKOFF_SHIFT` (an unsaturated shift overflows u64 well
    /// before the fabric recovers) and the flow must still resume.
    #[test]
    fn retry_backoff_saturates_under_a_long_no_survivor_flap() {
        let len = 1 << 20;
        let sch = rail_sch(len, Channel::Rail(0));
        let timeout = 1e-9; // waits saturate at ~1 µs → hundreds of retries
        let t_up = 1e-3;
        let mut faults = FaultSpec::new(timeout);
        for rail in 0..2u8 {
            faults = faults
                .with_event(FaultEvent {
                    time: 0.0,
                    rail,
                    node: None,
                    kind: FaultKind::Down,
                })
                .with_event(FaultEvent {
                    time: t_up,
                    rail,
                    node: None,
                    kind: FaultKind::Up,
                });
        }
        let r = Simulator::with_faults(ClusterSpec::thor(), faults)
            .unwrap()
            .run(&sch)
            .unwrap();
        let spec = ClusterSpec::thor();
        let expect = t_up + len as f64 / spec.rail_bw;
        assert!(
            rel_close(r.makespan, expect, 1e-9),
            "{} vs {expect}",
            r.makespan
        );
    }

    /// A malformed per-flow cap that slips past spec validation surfaces
    /// as a typed `SimError::InvalidFlow` naming the op — not a
    /// debug-only assertion that release builds would sail past.
    #[test]
    fn bad_flow_cap_is_a_typed_error_naming_the_op() {
        let mut s = sim();
        s.spec.cma_bw = f64::NAN; // smuggled past `Simulator::new` validation
        let grid = ProcGrid::single_node(2);
        let mut b = ScheduleBuilder::new(grid, "badcap");
        let len = 1 << 16;
        let src = b.private_buf(RankId(0), len, "s");
        let dst = b.private_buf(RankId(1), len, "d");
        b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(src, 0),
            Loc::new(dst, 0),
            len,
            Channel::Cma,
            &[],
            0,
        );
        let err = s.run(&b.finish().freeze()).unwrap_err();
        match err {
            SimError::InvalidFlow { op, source } => {
                assert_eq!(op, 0, "the failing op id is reported");
                assert!(matches!(source, crate::FillError::BadCap { .. }));
            }
            other => panic!("expected InvalidFlow, got {other:?}"),
        }
    }

    /// The engine's output on a mixed striped/CMA schedule and on a
    /// flapping rail exercising stall/retry, pinned bit-for-bit: makespan,
    /// event count and every `op_end`. The pins were certified at commit
    /// 572bd33, the last to carry an independent binary-heap,
    /// re-solve-every-component engine, which produced the same bits. A
    /// warm arena — slot recycling and the calendar's learned geometry
    /// persisting across runs — must reproduce the cold run exactly.
    #[test]
    fn engine_matches_pinned_bits_cold_and_warm() {
        fn assert_pinned(r: &SimResult, makespan: u64, events: u64, op_end: &[u64], what: &str) {
            assert_eq!(r.makespan.to_bits(), makespan, "{what}: makespan");
            assert_eq!(r.events, events, "{what}: event count");
            let got: Vec<u64> = r.op_end.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, op_end, "{what}: op_end");
        }
        let sch = mixed_sched();
        let s = sim();
        let cold = s.run(&sch).unwrap();
        assert_pinned(
            &cold,
            0x3efc_b78d_6722_eb83,
            12,
            &[
                0x3efa_ae6d_fdf6_516c,
                0x3efc_b78d_6722_eb83,
                0x3efa_ae6d_fdf6_516c,
                0x3efc_b78d_6722_eb83,
                0x3ef9_d3e8_2c54_34de,
            ],
            "mixed schedule",
        );

        let fsch = rail_sch(1 << 20, Channel::AllRails);
        let mut faults = FaultSpec::flap(0, 50e-6, 120e-6);
        faults.retry_timeout = 10e-6;
        let fs = Simulator::with_faults(ClusterSpec::thor(), faults).unwrap();
        let mut arena = EngineArena::new();
        let r = fs.run_in(&fsch, &mut arena).unwrap();
        assert_pinned(
            &r,
            0x3f08_cb3e_ef15_0d19,
            5,
            &[0x3f08_cb3e_ef15_0d19],
            "flapping rail",
        );
        // The stall, retry and wake-up path pops no stale event either.
        assert_eq!(arena.work().pops, r.events, "flapping rail: calendar pops");

        let mut arena = EngineArena::new();
        for pass in 0..2 {
            let warm = s.run_in(&sch, &mut arena).unwrap();
            assert_bits_eq(&warm, &cold, &format!("warm arena pass {pass}"));
        }
    }
}
