//! Campaign runner: declarative sweeps → a sharded work queue → a
//! deterministic result set.
//!
//! Every `fig*`/`ablate*` binary used to be a nest of `for` loops calling
//! `Simulator::run` cell by cell. A *campaign* replaces the loops with
//! data: a list of [`CampaignPoint`]s (one per table cell, each either a
//! schedule build + simulation or an arbitrary closure), executed by
//! [`run_campaign`] on a thread pool. Three properties make this more than
//! a parallel `for`:
//!
//! * **One simulation per distinct schedule** — each `(point, rep)` job
//!   of a [`PointWork::Sim`] point builds its own frozen schedule and
//!   drops it when the job ends, so a campaign holds at most one schedule
//!   per worker. The job then keys itself by what the simulation can
//!   observe: the schedule's [`FrozenSchedule::fingerprint`], the spec as
//!   the schedule sees it ([`ClusterSpec::digest_for`]) and the fault
//!   timeline's digest. The first job to claim a key simulates; every
//!   other job with it moves on without waiting and, once the pool has
//!   joined, reports the key's values under its own label
//!   ([`CampaignReport::simulations`] counts the keys). Per-run engine
//!   state lives in each worker's private [`EngineArena`] and is reset,
//!   never rebuilt. No schedule outlives its job, so there is no
//!   campaign-level schedule cache; the traffic layer's placement-keyed
//!   [`ScheduleCache`] is the one cache.
//! * **Worker-count independence** — the simulator is deterministic and
//!   every job writes into its own pre-assigned slot of a lock-free
//!   collector, so the assembled output is *bit-identical* whether the
//!   campaign runs on 1, 2 or 8 workers. `tests/campaign_determinism.rs`
//!   holds that bar over the golden workload set.
//! * **Seed policy** — repetitions are first-class: each `(point, rep)`
//!   job receives a seed derived only from `(campaign seed, point index,
//!   rep)` — never from worker identity or scheduling order — so seeded
//!   [`PointWork::Custom`] closures are reproducible too.
//!
//! Library code builds a [`CampaignConfig`] itself and reads no
//! environment variable; the binaries take theirs from
//! `MHA_CAMPAIGN_WORKERS` (pool size), `MHA_CAMPAIGN_REPS` and
//! `MHA_CAMPAIGN_SEED` through [`crate::Cli`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use mha_apps::report::{fmt_bytes, Table};
use mha_apps::Contestant;
use mha_collectives::{AlgoConfig, TunedTable};
use mha_sched::{Fingerprinter, FrozenSchedule, ProcGrid};
use mha_simnet::{ClusterSpec, EngineArena, FaultSpec, Simulator};

/// The build-relevant configuration fingerprint a cached schedule is keyed
/// by. Two lookups share a cache entry **iff** their keys are structurally
/// equal — the key therefore covers everything the build depends on: the
/// algorithm family, the process grid, the message size, the cluster model
/// digest ([`ClusterSpec::digest`]), the [`AlgoConfig::digest`] of every
/// remaining knob, and the placement of a relocated schedule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConfigKey {
    /// Algorithm family, `"algo/<family token>"`.
    pub family: String,
    /// Node count of the process grid.
    pub nodes: u32,
    /// Processes per node.
    pub ppn: u32,
    /// Message size in bytes.
    pub msg: usize,
    /// [`ClusterSpec::digest`] of the cluster the schedule is built for.
    pub spec_digest: u64,
    /// [`AlgoConfig::digest`] of the built config.
    pub salt: u64,
    /// `mha_traffic::placement_digest` of the node subset a
    /// relocated schedule occupies on a shared cluster. Zero for the
    /// ordinary whole-cluster builds; set by [`ConfigKey::with_placement`]
    /// for the traffic layer's cached relocations, so two jobs with the
    /// same [`AlgoConfig`] but different placements never alias.
    pub placement: u64,
}

impl ConfigKey {
    /// The key of an [`AlgoConfig`]-dispatched build: family string
    /// `"algo/<family token>"`, salt = [`AlgoConfig::digest`] (covering
    /// every remaining knob — inter/overlap/offload/chunk/stripe/rails),
    /// and the spec digest taken from [`AlgoConfig::effective_spec`] so a
    /// stripe-threshold override re-keys exactly like the build and the
    /// pricing see it. One hash path: the tuning table and the schedule
    /// cache derive from the same config digest.
    pub fn for_algo(cfg: &AlgoConfig, grid: ProcGrid, msg: usize, spec: &ClusterSpec) -> Self {
        ConfigKey {
            family: format!("algo/{}", cfg.family.token()),
            nodes: grid.nodes(),
            ppn: grid.ppn(),
            msg,
            spec_digest: cfg.effective_spec(spec).digest(),
            salt: cfg.digest(),
            placement: 0,
        }
    }

    /// Replaces the placement digest (builder style) — required whenever
    /// the cached artifact is a schedule *relocated* onto a node subset
    /// of a larger cluster, since `nodes`/`ppn` then describe the job
    /// grid, not where it landed.
    pub fn with_placement(mut self, placement: u64) -> Self {
        self.placement = placement;
        self
    }

    /// A stable 64-bit digest of the key (shard selection, diagnostics).
    pub fn digest(&self) -> u64 {
        let mut fp = Fingerprinter::new();
        fp.push_str(&self.family)
            .push_u32(self.nodes)
            .push_u32(self.ppn)
            .push_usize(self.msg)
            .push_u64(self.spec_digest)
            .push_u64(self.salt)
            .push_u64(self.placement);
        fp.finish().0
    }
}

/// Shard count of the [`ScheduleCache`]. Power of two, sized so that even
/// an 8-worker campaign rarely contends on a shard lock.
const CACHE_SHARDS: usize = 16;

/// Locks `m`, ignoring poisoning: a builder that panicked inside
/// [`ScheduleCache::get_or_build`] inserted nothing, so its shard stays
/// consistent, and a campaign's shared-simulation map is only read and
/// inserted into under its lock, never left half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A concurrent build-once cache of frozen schedules, shared by every
/// builder of one traffic run or sweep (see `crate::traffic`).
///
/// Sharded: each [`ConfigKey`] hashes (via [`ConfigKey::digest`], stable
/// across processes) to one of `CACHE_SHARDS` (16) independently locked maps.
/// A miss builds *while holding the shard lock*, so concurrent workers
/// asking for the same key never build twice — the second worker blocks
/// briefly and then shares the first worker's `Arc`. Hit/miss counters are
/// exact and exposed for the cache-correctness tests.
pub struct ScheduleCache {
    shards: Vec<Mutex<HashMap<ConfigKey, Arc<FrozenSchedule>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    enabled: bool,
}

impl std::fmt::Debug for ScheduleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleCache")
            .field("enabled", &self.enabled)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl ScheduleCache {
    /// An empty cache; when `enabled` is false every lookup builds fresh
    /// (and counts as a miss).
    pub fn new(enabled: bool) -> Self {
        ScheduleCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            enabled,
        }
    }

    /// Returns the schedule for `key`, building (and memoizing) it on the
    /// first request.
    pub fn get_or_build(
        &self,
        key: &ConfigKey,
        build: impl FnOnce() -> Result<FrozenSchedule, String>,
    ) -> Result<Arc<FrozenSchedule>, String> {
        if !self.enabled {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return build().map(Arc::new);
        }
        let shard = &self.shards[(key.digest() as usize) % CACHE_SHARDS];
        let mut map = lock(shard);
        if let Some(s) = map.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(s));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let s = Arc::new(build()?);
        map.insert(key.clone(), Arc::clone(&s));
        Ok(s)
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct schedules held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// True when nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Pool size, cache switch and repetition/seed policy of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Worker threads (clamped to ≥ 1; results are independent of this).
    pub workers: usize,
    /// Whether the traffic builders (`crate::traffic`) share relocated
    /// schedules through a [`ScheduleCache`]; campaign points themselves
    /// always build their own.
    pub cache: bool,
    /// Repetitions per point (each `(point, rep)` is one job).
    pub reps: u32,
    /// Campaign seed; job seeds derive from `(seed, point, rep)` only.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            workers: default_workers(),
            cache: true,
            reps: 1,
            seed: 0,
        }
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

impl CampaignConfig {
    /// Replaces the worker count (builder style).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// One result row produced by a campaign job: a label, numeric values
/// (column cells) and an optional free-form note (rendered artifacts like
/// timelines ride here).
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (table first column).
    pub label: String,
    /// Numeric cells.
    pub values: Vec<f64>,
    /// Free-form rendered payload, if any.
    pub note: Option<String>,
}

impl Row {
    /// A purely numeric row.
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        Row {
            label: label.into(),
            values,
            note: None,
        }
    }

    /// A row carrying only rendered text.
    pub fn note(label: impl Into<String>, text: impl Into<String>) -> Self {
        Row {
            label: label.into(),
            values: Vec::new(),
            note: Some(text.into()),
        }
    }
}

/// A schedule-building closure (runs once per `(point, rep)` job).
pub type BuildFn = Arc<dyn Fn() -> Result<FrozenSchedule, String> + Send + Sync>;

/// An arbitrary job body; receives the job seed, returns its rows.
pub type CustomFn = Arc<dyn Fn(u64) -> Result<Vec<Row>, String> + Send + Sync>;

/// What one campaign point executes.
// `Sim` carries its full config inline (a `ClusterSpec` plus a fault
// timeline) while `Custom` is a single Arc; points live once per
// sweep cell in a `Vec<CampaignPoint>`, so the size gap is harmless and
// boxing would only add an indirection on the hot job path.
#[allow(clippy::large_enum_variant)]
pub enum PointWork {
    /// Build a frozen schedule, simulate it on `spec` under `faults`, and
    /// report `[latency_us, makespan_s]`. Jobs of one campaign whose
    /// schedules, spec views and timelines key alike share one simulation
    /// (see [`run_campaign`]).
    Sim {
        /// Cluster the simulation prices the schedule on.
        spec: ClusterSpec,
        /// Optional fault timeline. An empty timeline is treated exactly
        /// like `None`: the simulator is constructed fault-free (see
        /// [`simulator_for`]), keeping the engine on its
        /// zero-fault-machinery path.
        faults: Option<FaultSpec>,
        /// Builds the schedule.
        build: BuildFn,
    },
    /// Anything else (microbenchmarks, model curves, rendered artifacts).
    Custom(CustomFn),
}

impl std::fmt::Debug for PointWork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PointWork::Sim { faults, .. } => f
                .debug_struct("Sim")
                .field("faults", faults)
                .finish_non_exhaustive(),
            PointWork::Custom(_) => f.debug_struct("Custom").finish_non_exhaustive(),
        }
    }
}

/// One unit of a campaign (typically one table cell).
#[derive(Debug)]
pub struct CampaignPoint {
    /// Label stamped on the point's rows (for [`PointWork::Sim`]).
    pub label: String,
    /// The work itself.
    pub work: PointWork,
}

impl CampaignPoint {
    /// A fault-free simulation point.
    pub fn sim(
        label: impl Into<String>,
        spec: ClusterSpec,
        build: impl Fn() -> Result<FrozenSchedule, String> + Send + Sync + 'static,
    ) -> Self {
        Self::sim_faulty(label, spec, None, build)
    }

    /// A simulation point under an optional fault timeline.
    pub fn sim_faulty(
        label: impl Into<String>,
        spec: ClusterSpec,
        faults: Option<FaultSpec>,
        build: impl Fn() -> Result<FrozenSchedule, String> + Send + Sync + 'static,
    ) -> Self {
        CampaignPoint {
            label: label.into(),
            work: PointWork::Sim {
                spec,
                faults,
                build: Arc::new(build),
            },
        }
    }

    /// A custom point.
    pub fn custom(
        label: impl Into<String>,
        f: impl Fn(u64) -> Result<Vec<Row>, String> + Send + Sync + 'static,
    ) -> Self {
        CampaignPoint {
            label: label.into(),
            work: PointWork::Custom(Arc::new(f)),
        }
    }
}

/// The rows of one `(point, rep)` job.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Index into the campaign's point list.
    pub point: usize,
    /// Repetition number (`0..reps`).
    pub rep: u32,
    /// The job's rows.
    pub rows: Vec<Row>,
}

/// Everything a finished campaign produced, in deterministic
/// `(point, rep)` order.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// One entry per job, sorted by `(point, rep)`.
    pub results: Vec<PointResult>,
    /// Distinct simulations the [`PointWork::Sim`] jobs ran: one per
    /// key (see [`run_campaign`]), however many jobs shared it.
    pub simulations: usize,
}

impl CampaignReport {
    /// The rows of `point`'s first repetition.
    pub fn rows_for(&self, point: usize) -> &[Row] {
        self.results
            .iter()
            .find(|r| r.point == point)
            .map(|r| r.rows.as_slice())
            .unwrap_or(&[])
    }

    /// The first value of `point`'s first row, first repetition — the
    /// latency cell of a [`PointWork::Sim`] point.
    pub fn value(&self, point: usize) -> f64 {
        self.rows_for(point)
            .first()
            .and_then(|r| r.values.first().copied())
            .unwrap_or(f64::NAN)
    }

    /// The makespan (seconds) of a [`PointWork::Sim`] point.
    pub fn makespan(&self, point: usize) -> f64 {
        self.rows_for(point)
            .first()
            .and_then(|r| r.values.get(1).copied())
            .unwrap_or(f64::NAN)
    }
}

/// Constructs the simulator for a campaign point: faults machinery is
/// armed **only** when the timeline actually contains events, so
/// fault-free campaign runs (including `ablate_faults`' `k = 0` row) take
/// the engine's zero-allocation fault-free branch.
pub fn simulator_for(spec: &ClusterSpec, faults: Option<&FaultSpec>) -> Result<Simulator, String> {
    match faults {
        Some(f) if !f.events.is_empty() => Simulator::with_faults(spec.clone(), f.clone()),
        _ => Simulator::new(spec.clone()),
    }
    .map_err(|e| e.to_string())
}

/// A `Sim` job's key: schedule fingerprint, spec digest for the
/// schedule, and the digest of a non-empty timeline (`None` for no
/// timeline or an empty one, which [`simulator_for`] treats alike).
type SimKey = (u64, u64, Option<u64>);

/// One key's simulation outcome, `[latency_us, makespan_s]` or its error;
/// set once, by the job that claimed the key.
type SimCell = Arc<OnceLock<Result<[f64; 2], String>>>;

/// What one job leaves in its slot.
enum JobOut {
    /// A custom job's rows, or a `Sim` job's build error.
    Rows(Result<Vec<Row>, String>),
    /// A `Sim` job's key cell. The job that claimed the key sets it; the
    /// others leave without waiting, and assembly reads the cell once the
    /// pool has joined.
    Sim(SimCell),
}

/// Runs `points` under `cfg`.
///
/// A [`PointWork::Sim`] job builds its schedule and keys itself by what
/// its simulation can observe: the schedule's
/// [`FrozenSchedule::fingerprint`], [`ClusterSpec::digest_for`] the
/// schedule, and its fault timeline's [`FaultSpec::digest`]. Jobs with
/// equal keys simulate identically, so the first job to claim a key
/// simulates on its worker's arena, and a job whose key is already
/// claimed takes the key's cell and moves on to the next job at once,
/// never waiting for the simulation. Once the pool has joined, every
/// cell is set and each job reports its key's values (or error) under
/// its own label, so the report is the same whichever job simulated.
pub fn run_campaign(
    points: &[CampaignPoint],
    cfg: &CampaignConfig,
) -> Result<CampaignReport, String> {
    let reps = cfg.reps.max(1);
    let jobs: Vec<(usize, u32)> = (0..points.len())
        .flat_map(|pi| (0..reps).map(move |rep| (pi, rep)))
        .collect();
    // Lock-free collector: every job owns one pre-assigned write-once
    // slot, so assembly order is fixed before the pool starts.
    let slots: Vec<OnceLock<JobOut>> = (0..jobs.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let sims = Mutex::new(HashMap::new());
    let workers = cfg.workers.clamp(1, jobs.len().max(1));

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                // One arena per worker: engine state is reset between
                // jobs, never reallocated.
                let mut arena = EngineArena::new();
                loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(pi, rep)) = jobs.get(j) else { break };
                    let seed = job_seed(cfg.seed, pi, rep);
                    let out = run_point(&points[pi], seed, &sims, &mut arena);
                    let _ = slots[j].set(out);
                }
            });
        }
    });

    let mut results = Vec::with_capacity(jobs.len());
    for (slot, &(pi, rep)) in slots.into_iter().zip(&jobs) {
        let label = &points[pi].label;
        let rows = match slot.into_inner() {
            Some(JobOut::Rows(rows)) => rows,
            Some(JobOut::Sim(cell)) => match cell.get() {
                Some(values) => values
                    .clone()
                    .map(|v| vec![Row::new(label.clone(), v.to_vec())]),
                None => Err("shared simulation never ran".into()),
            },
            None => Err("job never ran".into()),
        }
        .map_err(|e| format!("point {pi} [{label}] rep {rep}: {e}"))?;
        results.push(PointResult {
            point: pi,
            rep,
            rows,
        });
    }
    let simulations = lock(&sims).len();
    Ok(CampaignReport {
        results,
        simulations,
    })
}

/// The seed handed to job `(point, rep)` — a pure function of the campaign
/// seed and the job's identity, independent of workers and scheduling.
fn job_seed(seed: u64, point: usize, rep: u32) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.push_u64(seed).push_usize(point).push_u32(rep);
    fp.finish().0
}

fn run_point(
    point: &CampaignPoint,
    seed: u64,
    sims: &Mutex<HashMap<SimKey, SimCell>>,
    arena: &mut EngineArena,
) -> JobOut {
    match &point.work {
        PointWork::Sim {
            spec,
            faults,
            build,
        } => {
            let sched = match build() {
                Ok(sched) => sched,
                Err(e) => return JobOut::Rows(Err(e)),
            };
            let faults = faults.as_ref().filter(|f| !f.events.is_empty());
            let key = (
                sched.fingerprint().0,
                spec.digest_for(&sched),
                faults.map(FaultSpec::digest),
            );
            // Claim the key under the lock; simulate outside it.
            let (cell, claimed) = match lock(sims).entry(key) {
                Entry::Occupied(e) => (Arc::clone(e.get()), false),
                Entry::Vacant(e) => (Arc::clone(e.insert(SimCell::default())), true),
            };
            if claimed {
                let values = simulator_for(spec, faults).and_then(|sim| {
                    let r = sim.run_in(&sched, arena).map_err(|e| e.to_string())?;
                    Ok([r.latency_us(), r.makespan])
                });
                let _ = cell.set(values);
            }
            JobOut::Sim(cell)
        }
        PointWork::Custom(f) => JobOut::Rows(f(seed)),
    }
}

/// Runs a row-major grid of points (`row_labels.len() × columns.len()`
/// cells, one point per cell) and assembles the standard sweep [`Table`],
/// each cell being its point's latency value.
#[allow(clippy::too_many_arguments)]
pub fn campaign_table(
    title: &str,
    row_header: &str,
    columns: Vec<String>,
    row_labels: &[String],
    cells: Vec<CampaignPoint>,
    cfg: &CampaignConfig,
) -> Result<Table, String> {
    let ncols = columns.len();
    assert_eq!(
        cells.len(),
        row_labels.len() * ncols,
        "cell grid does not match {} rows x {} columns",
        row_labels.len(),
        ncols
    );
    let report = run_campaign(&cells, cfg)?;
    let mut table = Table::new(title, row_header, columns);
    for (ri, label) in row_labels.iter().enumerate() {
        let row = (0..ncols).map(|ci| report.value(ri * ncols + ci)).collect();
        table.push(label.clone(), row);
    }
    Ok(table)
}

/// Sweeps `osu_allgather` over `sizes` for each contestant: a table of
/// latencies in microseconds (rows = message sizes). Every cell is a
/// [`PointWork::Sim`] point, priced in reused engine arenas across the
/// worker pool.
pub fn allgather_sweep(
    title: &str,
    grid: ProcGrid,
    sizes: &[usize],
    contestants: &[Contestant],
    spec: &ClusterSpec,
    cfg: &CampaignConfig,
) -> Result<Table, String> {
    allgather_sweep_tuned(title, grid, sizes, contestants, None, spec, cfg)
}

/// Column label of the tuning-table column [`allgather_sweep_tuned`]
/// appends.
pub const TUNED_COLUMN: &str = "MHA-tuned";

/// [`allgather_sweep`] plus an optional [`TUNED_COLUMN`]: when `tuned` is
/// a loaded [`TunedTable`], every row gains one extra cell whose config
/// comes from a **pure table probe** ([`TunedTable::lookup`] — no search,
/// no build on the serving path) and whose schedule is the one
/// [`mha_collectives::build`] dispatch call on the served [`AlgoConfig`],
/// priced on the config's effective spec. With `tuned = None` the table is
/// bit-identical to [`allgather_sweep`]'s.
pub fn allgather_sweep_tuned(
    title: &str,
    grid: ProcGrid,
    sizes: &[usize],
    contestants: &[Contestant],
    tuned: Option<&TunedTable>,
    spec: &ClusterSpec,
    cfg: &CampaignConfig,
) -> Result<Table, String> {
    let row_labels: Vec<String> = sizes.iter().map(|&m| fmt_bytes(m)).collect();
    let ncols = contestants.len() + usize::from(tuned.is_some());
    let mut cells = Vec::with_capacity(sizes.len() * ncols);
    for &msg in sizes {
        for &c in contestants {
            let spec2 = spec.clone();
            cells.push(CampaignPoint::sim(c.name(), spec.clone(), move || {
                c.build_allgather(grid, msg, &spec2)
                    .map(|b| b.sched)
                    .map_err(|e| e.to_string())
            }));
        }
        if let Some(table) = tuned {
            let served = table.lookup(grid, msg, spec.rails);
            let sim_spec = served.effective_spec(spec).into_owned();
            let build_spec = sim_spec.clone();
            cells.push(CampaignPoint::sim(TUNED_COLUMN, sim_spec, move || {
                mha_collectives::build(&served, grid, msg, &build_spec)
                    .map(|b| b.sched)
                    .map_err(|e| e.to_string())
            }));
        }
    }
    let mut columns: Vec<String> = contestants.iter().map(Contestant::name).collect();
    if tuned.is_some() {
        columns.push(TUNED_COLUMN.into());
    }
    campaign_table(title, "msg_bytes", columns, &row_labels, cells, cfg)
}

/// Sweeps `osu_allreduce` over vector sizes in bytes (f32 elements are
/// `bytes / 4`, padded up to the rank count), with explicit column names
/// (Figure 15 titles its baseline column `FlatRing`).
pub fn allreduce_sweep(
    title: &str,
    grid: ProcGrid,
    sizes_bytes: &[usize],
    contestants: &[Contestant],
    columns: Vec<String>,
    spec: &ClusterSpec,
    cfg: &CampaignConfig,
) -> Result<Table, String> {
    assert_eq!(columns.len(), contestants.len());
    let r = grid.nranks() as usize;
    let row_labels: Vec<String> = sizes_bytes.iter().map(|&b| fmt_bytes(b)).collect();
    let mut cells = Vec::with_capacity(sizes_bytes.len() * contestants.len());
    for &bytes in sizes_bytes {
        let elems = (bytes / 4).div_ceil(r) * r; // pad to divisibility
        for &c in contestants {
            let spec2 = spec.clone();
            cells.push(CampaignPoint::sim(c.name(), spec.clone(), move || {
                c.build_allreduce(grid, elems, &spec2)
                    .map(|b| b.sched)
                    .map_err(|e| e.to_string())
            }));
        }
    }
    campaign_table(title, "msg_bytes", columns, &row_labels, cells, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_point(label: &str, msg: usize) -> CampaignPoint {
        CampaignPoint::sim(label, ClusterSpec::thor(), move || {
            Ok(crate::pt2pt_rails_schedule(msg))
        })
    }

    #[test]
    fn a_job_whose_key_is_claimed_neither_simulates_nor_waits() {
        // Claim the key as a job still simulating it would: its cell is
        // in the map and unset.
        let sched = crate::pt2pt_rails_schedule(4096);
        let spec = ClusterSpec::thor();
        let key = (sched.fingerprint().0, spec.digest_for(&sched), None);
        let claimed = SimCell::default();
        let sims = Mutex::new(HashMap::from([(key, Arc::clone(&claimed))]));
        let out = run_point(&tiny_point("p", 4096), 0, &sims, &mut EngineArena::new());
        let JobOut::Sim(cell) = out else {
            panic!("a Sim job leaves its key's cell")
        };
        assert!(Arc::ptr_eq(&cell, &claimed));
        assert!(
            cell.get().is_none(),
            "the owner sets the cell, not a sharer"
        );
        assert_eq!(lock(&sims).len(), 1);
    }

    #[test]
    fn sim_points_report_latency_and_makespan() {
        let points = vec![tiny_point("64K", 64 * 1024)];
        let report = run_campaign(&points, &CampaignConfig::default()).unwrap();
        assert_eq!(report.results.len(), 1);
        let v = report.value(0);
        let m = report.makespan(0);
        assert!(v > 0.0 && m > 0.0);
        assert_eq!(v.to_bits(), (m * 1e6).to_bits());
    }

    #[test]
    fn worker_counts_agree_bitwise() {
        let points: Vec<CampaignPoint> = [4096usize, 65536, 1 << 20]
            .iter()
            .map(|&m| tiny_point("p", m))
            .collect();
        let base = run_campaign(&points, &CampaignConfig::default().with_workers(1)).unwrap();
        for workers in [2usize, 8] {
            let r =
                run_campaign(&points, &CampaignConfig::default().with_workers(workers)).unwrap();
            for (a, b) in base.results.iter().zip(&r.results) {
                assert_eq!(a.rows[0].values[0].to_bits(), b.rows[0].values[0].to_bits());
            }
        }
    }

    #[test]
    fn every_job_builds_its_own_schedule() {
        let builds = Arc::new(AtomicUsize::new(0));
        let points: Vec<CampaignPoint> = [4096usize, 65536, 1 << 20]
            .iter()
            .map(|&m| {
                let builds = Arc::clone(&builds);
                CampaignPoint::sim("p", ClusterSpec::thor(), move || {
                    builds.fetch_add(1, Ordering::Relaxed);
                    Ok(crate::pt2pt_rails_schedule(m))
                })
            })
            .collect();
        let cfg = CampaignConfig {
            reps: 5,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&points, &cfg).unwrap();
        assert_eq!(report.results.len(), 3 * 5);
        assert_eq!(builds.load(Ordering::Relaxed), 3 * 5);
        // The repetitions of a point share its simulation.
        assert_eq!(report.simulations, 3);
    }

    #[test]
    fn one_schedule_under_two_fault_timelines_matches_across_pool_widths() {
        // The `ablate_faults` shape: points that build the same schedule
        // and differ only in their fault timeline.
        let spec = ClusterSpec::thor();
        let sched = crate::pt2pt_rails_schedule(1 << 20);
        let timelines = [None, Some(FaultSpec::rail_down_at(0, 1e-5))];
        let points: Vec<CampaignPoint> = timelines
            .iter()
            .map(|faults| {
                let sched = sched.clone();
                CampaignPoint::sim_faulty("p", spec.clone(), faults.clone(), move || {
                    Ok(sched.clone())
                })
            })
            .collect();
        let bits = |workers| {
            run_campaign(&points, &CampaignConfig::default().with_workers(workers))
                .unwrap()
                .results
                .iter()
                .map(|r| r.rows[0].values.iter().map(|v| v.to_bits()).collect())
                .collect::<Vec<Vec<u64>>>()
        };
        let serial = bits(1);
        assert_eq!(serial, bits(8));
        for (faults, row) in timelines.iter().zip(&serial) {
            let sim = simulator_for(&spec, faults.as_ref()).unwrap();
            let want = sim.run(&sched).unwrap();
            assert_eq!(
                row,
                &vec![want.latency_us().to_bits(), want.makespan.to_bits()]
            );
        }
        assert_ne!(serial[0], serial[1], "the rail fault must cost time");
    }

    #[test]
    fn job_seeds_are_stable_across_pool_widths() {
        // Seed policy: a custom point sees the same per-rep seeds on every
        // run regardless of worker count.
        let seen = |workers| {
            let p = vec![CampaignPoint::custom("s", |seed| {
                Ok(vec![Row::new(format!("{seed:016x}"), vec![])])
            })];
            let cfg = CampaignConfig {
                reps: 3,
                workers,
                ..CampaignConfig::default()
            };
            run_campaign(&p, &cfg)
                .unwrap()
                .results
                .iter()
                .map(|r| r.rows[0].label.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(seen(1), seen(8));
    }

    #[test]
    fn errors_name_the_failing_point() {
        let points = vec![CampaignPoint::custom("boom", |_| Err("nope".into()))];
        let err = run_campaign(&points, &CampaignConfig::default()).unwrap_err();
        assert!(err.contains("boom") && err.contains("nope"), "{err}");
    }

    #[test]
    fn empty_faults_build_a_fault_free_simulator() {
        let spec = ClusterSpec::thor();
        let none = simulator_for(&spec, None).unwrap();
        let empty = simulator_for(&spec, Some(&FaultSpec::new(1e-4))).unwrap();
        let armed = simulator_for(&spec, Some(&FaultSpec::rail_down_at(0, 1e-3))).unwrap();
        assert!(!none.faults_active());
        assert!(!empty.faults_active());
        assert!(armed.faults_active());
    }

    #[test]
    fn campaign_table_assembles_row_major() {
        let cells = vec![
            tiny_point("a", 4096),
            tiny_point("b", 65536),
            tiny_point("c", 4096),
            tiny_point("d", 65536),
        ];
        let t = campaign_table(
            "t",
            "msg",
            vec!["x".into(), "y".into()],
            &["r0".into(), "r1".into()],
            cells,
            &CampaignConfig::default(),
        )
        .unwrap();
        assert_eq!(t.len(), 2);
        let rows = t.rows();
        // Same build -> identical latency down each column.
        assert_eq!(rows[0].1[0].to_bits(), rows[1].1[0].to_bits());
        assert_eq!(rows[0].1[1].to_bits(), rows[1].1[1].to_bits());

        // An Allreduce sweep pads each vector up to the rank count: 1000 B
        // over 6 ranks is 250 f32 elements, priced as 252.
        let spec = ClusterSpec::thor();
        let grid = ProcGrid::new(2, 3);
        let mha = Contestant::MhaTuned;
        let t = allreduce_sweep(
            "t",
            grid,
            &[1000],
            &[mha],
            vec![mha.name()],
            &spec,
            &CampaignConfig::default(),
        )
        .unwrap();
        assert_eq!(t.len(), 1);
        let want = mha.allreduce_latency_us(grid, 252, &spec).unwrap();
        assert_eq!(t.rows()[0].1[0].to_bits(), want.to_bits());
    }

    #[test]
    fn algo_keys_cover_every_config_knob() {
        use mha_collectives::Family;
        let spec = ClusterSpec::thor();
        let grid = ProcGrid::new(4, 4);
        let base = ConfigKey::for_algo(&AlgoConfig::default(), grid, 4096, &spec);
        assert_eq!(base.family, "algo/mha-inter");
        // Any knob change re-keys through the salt (= config digest).
        let chunked = AlgoConfig {
            chunk: Some(2),
            ..AlgoConfig::default()
        };
        assert_ne!(base, ConfigKey::for_algo(&chunked, grid, 4096, &spec));
        // A stripe override re-keys through the *effective spec* digest,
        // exactly as the build and the pricing see it.
        let striped = AlgoConfig {
            stripe_threshold: Some(1024),
            ..AlgoConfig::default()
        };
        let sk = ConfigKey::for_algo(&striped, grid, 4096, &spec);
        assert_eq!(sk.spec_digest, striped.effective_spec(&spec).digest());
        assert_ne!(base.spec_digest, sk.spec_digest);
        // Families keep distinct family strings.
        let ring = ConfigKey::for_algo(&AlgoConfig::flat(Family::Ring), grid, 4096, &spec);
        assert_eq!(ring.family, "algo/ring");
        assert_ne!(base, ring);
    }

    #[test]
    fn tuned_sweep_appends_a_pure_probe_column() {
        let spec = ClusterSpec::thor();
        let grid = ProcGrid::new(2, 4);
        let sizes = [256usize, 4096];
        let contestants = mha_apps::paper_contestants();
        let cfg = CampaignConfig::default();
        // None → bit-identical to the plain sweep.
        let plain = allgather_sweep("t", grid, &sizes, &contestants, &spec, &cfg).unwrap();
        assert_eq!(plain.len(), sizes.len());
        for (_, row) in plain.rows() {
            assert_eq!(row.len(), contestants.len());
            assert!(row.iter().all(|v| *v > 0.0));
        }
        let none =
            allgather_sweep_tuned("t", grid, &sizes, &contestants, None, &spec, &cfg).unwrap();
        assert_eq!(plain.to_csv(), none.to_csv());
        // Some → one extra column serving the stored config per point.
        let mut table = TunedTable::new(spec.digest());
        for &msg in &sizes {
            table.insert(
                mha_collectives::TableKey::for_query(grid, msg, spec.rails),
                AlgoConfig::default(),
            );
        }
        let tuned =
            allgather_sweep_tuned("t", grid, &sizes, &contestants, Some(&table), &spec, &cfg)
                .unwrap();
        let header = tuned.to_csv().lines().next().unwrap().to_string();
        assert!(header.ends_with(&format!(",{TUNED_COLUMN}")), "{header}");
        // The tuned cell is exactly the dispatched build of the served
        // config, priced on the same spec.
        let sim = Simulator::new(spec.clone()).unwrap();
        for (&msg, (_, row)) in sizes.iter().zip(tuned.rows()) {
            let served = table.lookup(grid, msg, spec.rails);
            let built = mha_collectives::build(&served, grid, msg, &spec).unwrap();
            let want = sim.run(&built.sched).unwrap().latency_us();
            assert_eq!(row.last().unwrap().to_bits(), want.to_bits(), "msg={msg}");
        }
    }
}
