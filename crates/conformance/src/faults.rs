//! The fault-case oracle: random rail-fault schedules must not break the
//! collective.
//!
//! For each randomly drawn fault case (`H`-rail cluster, `k` rails down at
//! t = 0, a hierarchical Allgather built failure-aware against the
//! surviving set) the oracle checks:
//!
//! * **correctness** — the degraded schedule still passes validation, the
//!   race check, and MPI_Allgather semantics on both executors (the
//!   fault-oblivious build is checked alongside it as a control);
//! * **invariants** — simulating the degraded schedule under the fault
//!   timeline passes the full [`mha_sched::InvariantProbe`] audit,
//!   including the "no flow progresses on a down rail" probe;
//! * **degradation envelope** — for bandwidth-regime messages, the
//!   simulated latency with `k` failed rails is within a multiplicative
//!   envelope of the α–β model evaluated at `H − k` rails.

use mha_bench::campaign::{run_campaign, simulator_for, CampaignConfig, CampaignPoint, Row};
use mha_collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha_collectives::{build, AlgoConfig};
use mha_exec::Mode;
use mha_model::{mha_inter_latency, ModelParams, Phase2};
use mha_sched::{InvariantProbe, ProcGrid};
use mha_simnet::{ClusterSpec, FaultSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Structural + executor checks shared by both builds of a fault case.
fn verify_built(
    built: &mha_collectives::Built,
    spec: &ClusterSpec,
    threads: usize,
) -> Result<(), String> {
    mha_sched::validate(&built.sched, Some(spec.rails)).map_err(|e| format!("validate: {e}"))?;
    let races = mha_sched::check_races(&built.sched);
    if !races.is_empty() {
        return Err(format!("{} races, first on {}", races.len(), races[0].buf));
    }
    mha_exec::verify_allgather(
        &built.sched,
        &built.send,
        &built.recv,
        built.msg,
        Mode::Single,
    )
    .map_err(|e| format!("verify single: {e:?}"))?;
    mha_exec::verify_allgather(
        &built.sched,
        &built.send,
        &built.recv,
        built.msg,
        Mode::Threaded(threads),
    )
    .map_err(|e| format!("verify threaded: {e:?}"))?;
    Ok(())
}

/// Fault-oracle knobs (all overridable from the environment).
#[derive(Debug, Clone)]
pub struct FaultOracleConfig {
    /// Number of random fault cases (`MHA_FAULT_CASES`).
    pub cases: usize,
    /// RNG seed (`MHA_FAULT_SEED`); the sweep is deterministic given it.
    pub seed: u64,
    /// Degraded latency must lie within `[model / envelope,
    /// model · envelope]` of the α–β prediction at `H − k` rails
    /// (`MHA_FAULT_ENVELOPE`).
    pub envelope: f64,
    /// Worker threads for the thread-pool verification runs.
    pub threads: usize,
}

impl Default for FaultOracleConfig {
    fn default() -> Self {
        FaultOracleConfig {
            cases: 100,
            seed: 0xFA17,
            envelope: 2.0,
            threads: 4,
        }
    }
}

impl FaultOracleConfig {
    /// The default configuration with `MHA_FAULT_CASES`, `MHA_FAULT_SEED`
    /// and `MHA_FAULT_ENVELOPE` applied on top.
    pub fn from_env() -> Self {
        let mut cfg = FaultOracleConfig::default();
        if let Some(v) = env_parse("MHA_FAULT_CASES") {
            cfg.cases = v;
        }
        if let Some(v) = env_parse("MHA_FAULT_SEED") {
            cfg.seed = v;
        }
        if let Some(v) = env_parse("MHA_FAULT_ENVELOPE") {
            cfg.envelope = v;
        }
        cfg
    }
}

fn env_parse<T: std::str::FromStr>(key: &str) -> Option<T> {
    std::env::var(key).ok()?.parse().ok()
}

/// One randomly drawn fault case.
#[derive(Debug, Clone)]
pub struct FaultCase {
    /// Rails per node of the cluster under test.
    pub rails: u8,
    /// Rails taken down at t = 0 (distinct, strictly fewer than `rails`).
    pub down: Vec<u8>,
    /// Process layout.
    pub grid: ProcGrid,
    /// Per-rank contribution size in bytes.
    pub msg: usize,
    /// Phase-2 exchange pattern.
    pub inter: InterAlgo,
    /// Intra-node offload policy.
    pub offload: Offload,
}

impl FaultCase {
    /// A short, greppable description for disagreement reports.
    pub fn describe(&self) -> String {
        format!(
            "{:?} {}x{} msg={} rails={} down={:?}",
            self.inter,
            self.grid.nodes(),
            self.grid.ppn(),
            self.msg,
            self.rails,
            self.down
        )
    }
}

fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

/// Draws one fault case. Node counts stay powers of two so both phase-2
/// patterns are always buildable.
pub fn sample_fault_case(rng: &mut StdRng) -> FaultCase {
    let rails = pick(rng, &[2u8, 4, 8]);
    let k = rng.gen_range(0..rails) as usize;
    let mut all: Vec<u8> = (0..rails).collect();
    for i in 0..k {
        let j = rng.gen_range(i..all.len());
        all.swap(i, j);
    }
    let mut down = all[..k].to_vec();
    down.sort_unstable();
    FaultCase {
        rails,
        down,
        grid: ProcGrid::new(pick(rng, &[2u32, 4]), pick(rng, &[1u32, 2, 4])),
        msg: pick(rng, &[1024usize, 16 * 1024, 64 * 1024]),
        inter: if rng.gen_range(0..2u32) == 0 {
            InterAlgo::Ring
        } else {
            InterAlgo::RecursiveDoubling
        },
        offload: if rng.gen_range(0..2u32) == 0 {
            Offload::Auto
        } else {
            Offload::None
        },
    }
}

/// The outcome of a fault-oracle sweep.
#[derive(Debug)]
pub struct FaultOracleReport {
    /// Fault cases checked.
    pub cases: usize,
    /// Cases whose degradation envelope was checked (bandwidth-regime
    /// messages only).
    pub envelope_checked: usize,
    /// Human-readable description of every disagreement (empty = pass).
    pub disagreements: Vec<String>,
}

impl FaultOracleReport {
    /// Whether the sweep found no disagreement.
    pub fn is_clean(&self) -> bool {
        self.disagreements.is_empty()
    }
}

/// Runs the fault-oracle sweep: `cfg.cases` random fault cases.
///
/// Cases are pre-sampled sequentially from the seeded RNG, fanned across
/// the campaign worker pool (`MHA_CAMPAIGN_WORKERS`), and reassembled in
/// case order — the report is independent of pool width.
pub fn run_fault_oracle(cfg: &FaultOracleConfig) -> FaultOracleReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let cases: Vec<FaultCase> = (0..cfg.cases)
        .map(|_| sample_fault_case(&mut rng))
        .collect();

    let envelope = cfg.envelope;
    let threads = cfg.threads;
    let points: Vec<CampaignPoint> = cases
        .into_iter()
        .map(|case| {
            let label = case.describe();
            CampaignPoint::custom(label, move |_seed| {
                Ok(vec![match check_fault_case(&case, envelope, threads) {
                    Ok(checked) => Row::new("ok", vec![if checked { 1.0 } else { 0.0 }]),
                    Err(e) => Row::note(case.describe(), e),
                }])
            })
        })
        .collect();
    let mut pool = CampaignConfig::from_env();
    pool.reps = 1;
    let report = run_campaign(&points, &pool).expect("fault-oracle pool failed");

    let mut disagreements = Vec::new();
    let mut envelope_checked = 0;
    for pr in &report.results {
        for row in &pr.rows {
            match &row.note {
                Some(e) => {
                    disagreements.push(format!("fault case {} [{}]: {e}", pr.point, row.label))
                }
                None => envelope_checked += row.values[0] as usize,
            }
        }
    }
    FaultOracleReport {
        cases: cfg.cases,
        envelope_checked,
        disagreements,
    }
}

/// Checks one fault case; returns whether the degradation envelope was
/// evaluated (it is skipped in the startup-dominated small-message regime,
/// where an α–β bandwidth model is not the right yardstick).
pub fn check_fault_case(case: &FaultCase, envelope: f64, threads: usize) -> Result<bool, String> {
    let spec = ClusterSpec::thor_with_rails(case.rails);
    let cfg = AlgoConfig::mha_inter(MhaInterConfig {
        inter: case.inter,
        offload: case.offload,
        overlap: true,
    });

    // Control: the fault-oblivious build stays healthy.
    let base = build(&cfg, case.grid, case.msg, &spec)
        .map_err(|e| format!("baseline build failed: {e:?}"))?;
    verify_built(&base, &spec, threads).map_err(|e| format!("baseline {e}"))?;

    // The failure-aware build must be just as correct.
    let degraded = AlgoConfig {
        down_rails: case.down.clone(),
        ..cfg
    };
    let deg = build(&degraded, case.grid, case.msg, &spec)
        .map_err(|e| format!("degraded build failed: {e:?}"))?;
    verify_built(&deg, &spec, threads).map_err(|e| format!("degraded {e}"))?;

    // Simulate the degraded schedule under the fault timeline with the
    // full invariant audit (includes the down-rail progress probe). An
    // empty down-set must not pay for a fault interpreter: `simulator_for`
    // takes the engine's fault-free branch when the timeline is empty.
    let mut faults = FaultSpec::new(mha_simnet::DEFAULT_RETRY_TIMEOUT);
    for &r in &case.down {
        faults = faults.with_event(mha_simnet::FaultEvent {
            time: 0.0,
            rail: r,
            node: None,
            kind: mha_simnet::FaultKind::Down,
        });
    }
    let sim = simulator_for(&spec, Some(&faults)).map_err(|e| format!("simulator: {e}"))?;
    let mut audit = InvariantProbe::new();
    let result = sim
        .run_probed(&deg.sched, &mut audit)
        .map_err(|e| format!("faulted simnet: {e}"))?;
    if !audit.is_clean() {
        return Err(format!(
            "invariant violations under faults: {}",
            audit.violations()[0]
        ));
    }

    // Degradation envelope: latency with k failed rails vs the α–β model
    // at H − k rails. Only meaningful once bandwidth dominates startup.
    if case.msg < spec.stripe_threshold {
        return Ok(false);
    }
    let survivors = case.rails - case.down.len() as u8;
    let p = ModelParams::from_spec(&ClusterSpec::thor_with_rails(survivors));
    let phase2 = match case.inter {
        InterAlgo::Ring => Phase2::Ring,
        InterAlgo::RecursiveDoubling => Phase2::RecursiveDoubling,
    };
    let predicted = mha_inter_latency(&p, case.grid.nodes(), case.grid.ppn(), case.msg, phase2);
    let ratio = result.makespan / predicted;
    if !(1.0 / envelope..=envelope).contains(&ratio) {
        return Err(format!(
            "degraded latency {:.3e}s vs model at {survivors} rails {predicted:.3e}s \
             (ratio {ratio:.2} outside ±{envelope}x)",
            result.makespan
        ));
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_fault_case_passes_every_layer() {
        let case = FaultCase {
            rails: 4,
            down: vec![1],
            grid: ProcGrid::new(4, 2),
            msg: 64 * 1024,
            inter: InterAlgo::Ring,
            offload: Offload::Auto,
        };
        assert!(check_fault_case(&case, 2.0, 4).unwrap());
    }

    #[test]
    fn sampled_cases_always_leave_a_survivor() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let c = sample_fault_case(&mut rng);
            assert!(c.down.len() < c.rails as usize);
            let mut d = c.down.clone();
            d.dedup();
            assert_eq!(d.len(), c.down.len(), "duplicate down rails");
        }
    }

    #[test]
    fn a_zero_fault_case_stays_on_the_fault_free_path() {
        // An empty down-set is a valid draw; it must check out clean and
        // its simulator must take the fault-free branch (no interpreter).
        let spec = ClusterSpec::thor_with_rails(4);
        let empty = FaultSpec::new(mha_simnet::DEFAULT_RETRY_TIMEOUT);
        assert!(!simulator_for(&spec, Some(&empty)).unwrap().faults_active());
        let case = FaultCase {
            rails: 4,
            down: vec![],
            grid: ProcGrid::new(2, 2),
            msg: 64 * 1024,
            inter: InterAlgo::Ring,
            offload: Offload::Auto,
        };
        assert!(check_fault_case(&case, 2.0, 4).unwrap());
    }

    #[test]
    fn config_defaults_meet_the_acceptance_bar() {
        let cfg = FaultOracleConfig::default();
        assert!(cfg.cases >= 100);
        assert_eq!(cfg.envelope, 2.0);
    }
}
