//! The three-way differential oracle: simnet × executor × α–β model.
//!
//! For each randomly drawn [`Case`] the oracle checks that
//! three independent interpretations of the same frozen schedule agree:
//!
//! * the **threaded executor** moves real bytes and lands on MPI_Allgather
//!   semantics ([`mha_exec::verify_allgather`], single-threaded and
//!   thread-pool execution) — plus the static byte-coverage partition
//!   ([`crate::check_allgather_coverage`]);
//! * the **simulator** survives a full invariant audit
//!   ([`mha_sched::InvariantProbe`]: causality, capacity, conservation)
//!   and orders op completions consistently with the executor — every
//!   dependency edge finishes in order in both backends, and the simulated
//!   critical path's completion order is reproduced by the executor's
//!   wall-clock stamps;
//! * the **α–β model** brackets the simulated latency: for representative
//!   large-message sweeps per family, simulated latency is monotone in
//!   message size and within a configurable multiplicative envelope of the
//!   [`mha_model`] prediction.

use std::sync::Arc;

use mha_bench::campaign::{run_campaign, CampaignConfig, CampaignPoint, Row};
use mha_collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha_collectives::{build, AlgoConfig};
use mha_exec::{run_threaded_probed, BufferStore, Mode};
use mha_model::{mha_inter_latency, mha_intra_latency_auto, ModelParams, Phase2};
use mha_sched::{FrozenSchedule, InvariantProbe, Probe, ProcGrid};
use mha_simnet::{ClusterSpec, Simulator};
use rand::{rngs::StdRng, SeedableRng};

use crate::cases::{sample_case, Case, Family};
use crate::coverage::check_allgather_coverage;

/// Oracle knobs (all overridable from the environment).
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Number of random configurations to draw (≥ 200 for the acceptance
    /// bar; `MHA_CONFORMANCE_CASES`).
    pub cases: usize,
    /// RNG seed (`MHA_CONFORMANCE_SEED`); the whole run is deterministic
    /// given the seed.
    pub seed: u64,
    /// Multiplicative model envelope: simulated latency must lie within
    /// `[model / envelope, model · envelope]` (`MHA_MODEL_ENVELOPE`).
    pub envelope: f64,
    /// Worker threads for the thread-pool verification runs.
    pub threads: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            cases: 200,
            seed: 0xC0FFEE,
            // Measured ratios on the seed engine: 0.91–1.47 across the
            // three series; 2.0 brackets them with headroom against
            // incidental engine drift while still catching a misplaced
            // factor of L, H or N.
            envelope: 2.0,
            threads: 4,
        }
    }
}

impl OracleConfig {
    /// The default configuration with `MHA_CONFORMANCE_CASES`,
    /// `MHA_CONFORMANCE_SEED` and `MHA_MODEL_ENVELOPE` applied on top.
    pub fn from_env() -> Self {
        let mut cfg = OracleConfig::default();
        if let Some(v) = env_parse("MHA_CONFORMANCE_CASES") {
            cfg.cases = v;
        }
        if let Some(v) = env_parse("MHA_CONFORMANCE_SEED") {
            cfg.seed = v;
        }
        if let Some(v) = env_parse("MHA_MODEL_ENVELOPE") {
            cfg.envelope = v;
        }
        cfg
    }
}

fn env_parse<T: std::str::FromStr>(key: &str) -> Option<T> {
    std::env::var(key).ok()?.parse().ok()
}

/// The outcome of an oracle sweep.
#[derive(Debug)]
pub struct OracleReport {
    /// Configurations checked.
    pub cases: usize,
    /// Cases per family, indexed by [`Family::index`].
    pub by_family: [usize; 4],
    /// Human-readable description of every disagreement (empty = pass).
    pub disagreements: Vec<String>,
}

impl OracleReport {
    /// Whether the sweep found no disagreement.
    pub fn is_clean(&self) -> bool {
        self.disagreements.is_empty()
    }
}

/// Records per-op completion stamps from a probed execution.
#[derive(Default)]
struct EndStamps {
    end: Vec<f64>,
}

impl Probe for EndStamps {
    fn begin_run(&mut self, fs: &FrozenSchedule, _backend: &'static str) {
        self.end = vec![f64::NAN; fs.n_ops()];
    }

    fn op_end(&mut self, op: u32, t: f64) {
        self.end[op as usize] = t;
    }
}

/// Runs the full oracle sweep: `cfg.cases` random configurations
/// (families round-robin) plus the per-family model-envelope series.
///
/// Cases are pre-sampled sequentially from the seeded RNG — so the case
/// sequence is identical to a serial sweep — then fanned across the
/// campaign worker pool (`MHA_CAMPAIGN_WORKERS`); disagreements are
/// reassembled in case order, so the report is independent of pool width.
pub fn run_oracle(cfg: &OracleConfig) -> OracleReport {
    let spec = ClusterSpec::thor();
    let sim = Arc::new(Simulator::new(spec.clone()).unwrap());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut by_family = [0usize; 4];

    let mut cases = Vec::with_capacity(cfg.cases);
    for i in 0..cfg.cases {
        let family = Family::ALL[i % Family::ALL.len()];
        cases.push(sample_case(&mut rng, family));
        by_family[family.index()] += 1;
    }

    let threads = cfg.threads;
    let points: Vec<CampaignPoint> = cases
        .into_iter()
        .map(|case| {
            let sim = Arc::clone(&sim);
            let spec = spec.clone();
            let label = case.describe();
            CampaignPoint::custom(label, move |_seed| {
                Ok(vec![match check_case(&case, &sim, &spec, threads) {
                    Ok(()) => Row::new("ok", vec![1.0]),
                    Err(e) => Row::note(case.describe(), e),
                }])
            })
        })
        .collect();
    // A disagreement is data, not a pool failure: each case reports
    // through its row so one bad case never aborts the sweep. Reps are
    // pinned to 1 — the sweep's case count is the repetition policy.
    let mut pool = CampaignConfig::from_env();
    pool.reps = 1;
    let report = run_campaign(&points, &pool).expect("oracle pool failed");

    let mut disagreements = Vec::new();
    for pr in &report.results {
        for row in &pr.rows {
            if let Some(e) = &row.note {
                disagreements.push(format!("case {} [{}]: {e}", pr.point, row.label));
            }
        }
    }
    disagreements.extend(check_model_envelope(cfg.envelope));

    OracleReport {
        cases: cfg.cases,
        by_family,
        disagreements,
    }
}

/// Checks one configuration across the executor and the simulator; returns
/// a description of the first disagreement found.
pub fn check_case(
    case: &Case,
    sim: &Simulator,
    spec: &ClusterSpec,
    threads: usize,
) -> Result<(), String> {
    let built = case
        .build(spec)
        .map_err(|e| format!("build failed: {e:?}"))?;
    let sch = &built.sched;

    // Structural layer: validation, determinism, static byte coverage.
    mha_sched::validate(sch, Some(spec.rails)).map_err(|e| format!("validate: {e}"))?;
    let races = mha_sched::check_races(sch);
    if !races.is_empty() {
        return Err(format!("{} races, first on {}", races.len(), races[0].buf));
    }
    check_allgather_coverage(&built).map_err(|e| format!("coverage: {e}"))?;

    // Executor layer: real bytes, MPI semantics, both execution modes.
    mha_exec::verify_allgather(sch, &built.send, &built.recv, built.msg, Mode::Single)
        .map_err(|e| format!("verify single: {e:?}"))?;
    mha_exec::verify_allgather(
        sch,
        &built.send,
        &built.recv,
        built.msg,
        Mode::Threaded(threads),
    )
    .map_err(|e| format!("verify threaded: {e:?}"))?;

    // Simulator layer: full invariant audit.
    let mut audit = InvariantProbe::new();
    let result = sim
        .run_probed(sch, &mut audit)
        .map_err(|e| format!("simnet: {e}"))?;
    if !audit.is_clean() {
        return Err(format!("invariant violations: {}", audit.violations()[0]));
    }

    // Ordering agreement: every dependency edge completes in order in both
    // backends, and the simulated critical path's completion order is
    // reproduced by the executor's wall-clock stamps.
    let mut stamps = EndStamps::default();
    let store = BufferStore::new(sch);
    run_threaded_probed(sch, &store, threads, &mut stamps)
        .map_err(|e| format!("probed exec: {e:?}"))?;
    for op in 0..sch.n_ops() as u32 {
        for &p in sch.preds(op) {
            let (ps, os) = (result.op_end[p as usize], result.op_end[op as usize]);
            if ps > os {
                return Err(format!(
                    "simnet finished {op} at {os} before pred {p} at {ps}"
                ));
            }
            let (pe, oe) = (stamps.end[p as usize], stamps.end[op as usize]);
            if pe > oe {
                return Err(format!(
                    "executor finished {op} at {oe} before pred {p} at {pe}"
                ));
            }
        }
    }
    let chain = critical_path(sch, &result.op_end);
    for w in chain.windows(2) {
        if stamps.end[w[0] as usize] > stamps.end[w[1] as usize] {
            return Err(format!(
                "critical-path order diverged: executor finished {} after {}",
                w[0], w[1]
            ));
        }
    }
    Ok(())
}

/// The simulated critical path: from the last op to finish, walk backwards
/// through the latest-finishing predecessor. Returned root → sink.
pub fn critical_path(sch: &FrozenSchedule, op_end: &[f64]) -> Vec<u32> {
    let Some((mut cur, _)) = op_end.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)) else {
        return Vec::new();
    };
    let mut chain = vec![cur as u32];
    while let Some(&p) = sch
        .preds(cur as u32)
        .iter()
        .max_by(|a, b| op_end[**a as usize].total_cmp(&op_end[**b as usize]))
    {
        chain.push(p);
        cur = p as usize;
    }
    chain.reverse();
    chain
}

/// The model layer: per-family large-message series checking that simulated
/// latency is monotone in message size and within `envelope` of the α–β
/// prediction. Returns one description per failure (empty = pass).
pub fn check_model_envelope(envelope: f64) -> Vec<String> {
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    let p = ModelParams::from_spec(&spec);
    let sizes = [16 * 1024usize, 64 * 1024, 256 * 1024];

    // (name, algorithm, grid, model prediction in seconds)
    type Model<'a> = Box<dyn Fn(usize) -> f64 + 'a>;
    let series: Vec<(&str, AlgoConfig, ProcGrid, Model<'_>)> = vec![
        (
            "flat/ring 4x1",
            AlgoConfig::flat(mha_collectives::Family::Ring),
            ProcGrid::new(4, 1),
            // Textbook α–β ring over P ranks: (P−1) fully-striped steps.
            Box::new(|m| 3.0 * (p.rail_startup(m) + m as f64 / (p.bw_h * f64::from(p.h)))),
        ),
        (
            "mha/intra 1x8",
            AlgoConfig::mha_intra(Offload::Auto),
            ProcGrid::single_node(8),
            Box::new(|m| mha_intra_latency_auto(&p, 8, m)),
        ),
        (
            "mha/inter-ring 4x8",
            AlgoConfig::mha_inter(MhaInterConfig {
                inter: InterAlgo::Ring,
                offload: Offload::Auto,
                overlap: true,
            }),
            ProcGrid::new(4, 8),
            Box::new(|m| mha_inter_latency(&p, 4, 8, m, Phase2::Ring)),
        ),
    ];

    let mut failures = Vec::new();
    for (name, cfg, grid, model) in &series {
        let mut prev = 0.0f64;
        for &m in &sizes {
            let built = match build(cfg, *grid, m, &spec) {
                Ok(b) => b,
                Err(e) => {
                    failures.push(format!("{name} msg={m}: build failed: {e:?}"));
                    continue;
                }
            };
            let t = match sim.run(&built.sched) {
                Ok(r) => r.makespan,
                Err(e) => {
                    failures.push(format!("{name} msg={m}: simnet failed: {e}"));
                    continue;
                }
            };
            if t < prev {
                failures.push(format!(
                    "{name}: latency not monotone, {t:.3e}s at msg={m} after {prev:.3e}s"
                ));
            }
            prev = t;
            let predicted = model(m);
            let ratio = t / predicted;
            if !(1.0 / envelope..=envelope).contains(&ratio) {
                failures.push(format!(
                    "{name} msg={m}: simulated {t:.3e}s vs model {predicted:.3e}s \
                     (ratio {ratio:.2} outside ±{envelope}x)"
                ));
            }
        }
    }

    // Hierarchical series: the composer's 3-level NUMA schedule on the
    // NUMA spec, priced by the per-level model over the spec's own tree.
    {
        let name = "hier/numa3 4x2x8";
        let spec = ClusterSpec::thor_numa();
        let sim = Simulator::new(spec.clone()).unwrap();
        let p = ModelParams::from_spec(&spec);
        let topo = spec.topology_of(&ProcGrid::new(4, 16));
        let plan = mha_collectives::ComposePlan::numa3(true);
        let mut prev = 0.0f64;
        for &m in &sizes {
            let (built, predicted) = match (
                mha_collectives::build_composed(&topo, m, &plan, &spec),
                mha_model::composed_latency(&p, &topo, &plan, m),
            ) {
                (Ok(b), Some(t)) => (b, t),
                (Err(e), _) => {
                    failures.push(format!("{name} msg={m}: build failed: {e:?}"));
                    continue;
                }
                (_, None) => {
                    failures.push(format!("{name} msg={m}: model declined the plan"));
                    continue;
                }
            };
            let t = match sim.run(&built.sched) {
                Ok(r) => r.makespan,
                Err(e) => {
                    failures.push(format!("{name} msg={m}: simnet failed: {e}"));
                    continue;
                }
            };
            if t < prev {
                failures.push(format!(
                    "{name}: latency not monotone, {t:.3e}s at msg={m} after {prev:.3e}s"
                ));
            }
            prev = t;
            let ratio = t / predicted;
            if !(1.0 / envelope..=envelope).contains(&ratio) {
                failures.push(format!(
                    "{name} msg={m}: simulated {t:.3e}s vs model {predicted:.3e}s \
                     (ratio {ratio:.2} outside ±{envelope}x)"
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_case_passes_every_layer() {
        let spec = ClusterSpec::thor();
        let sim = Simulator::new(spec.clone()).unwrap();
        let case = Case {
            family: Family::Mha,
            cfg: AlgoConfig::default(),
            grid: ProcGrid::new(2, 4),
            msg: 512,
            tree: None,
        };
        check_case(&case, &sim, &spec, 4).unwrap();
    }

    #[test]
    fn critical_path_follows_latest_predecessors() {
        use mha_sched::{RankId, ScheduleBuilder};
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(2), "cp");
        let a = b.compute(RankId(0), 100, &[], 0);
        let c = b.compute(RankId(1), 10_000, &[], 0);
        b.compute(RankId(0), 100, &[a, c], 1);
        let sch = b.finish().freeze();
        let sim = Simulator::new(ClusterSpec::thor()).unwrap();
        let r = sim.run(&sch).unwrap();
        assert_eq!(critical_path(&sch, &r.op_end), vec![1, 2]);
    }
}
