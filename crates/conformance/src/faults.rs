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

use std::fmt;

use mha_bench::campaign::simulator_for;
use mha_collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha_collectives::{build, AlgoConfig};
use mha_model::{mha_inter_latency, ModelParams, Phase2};
use mha_sched::{InvariantProbe, ProcGrid};
use mha_simnet::{ClusterSpec, FaultSpec};
use rand::{rngs::StdRng, Rng};

use crate::cases::pick;
use crate::oracle::{verify_built, ENVELOPE};
use crate::runner::Oracle;

/// The fault oracle: random rail-fault cases, each checked by
/// [`check_fault_case`]. Passing cases are tallied `"envelope"` when the
/// degradation envelope was evaluated and `"startup"` when the message
/// was too small for it.
pub struct Faults;

impl Oracle for Faults {
    const NAME: &'static str = "faults";
    const SEED: u64 = 0xFA17;
    const DEFAULT_CASES: usize = 100;
    type Case = FaultCase;

    /// Node counts stay powers of two so both phase-2 patterns are
    /// always buildable.
    fn sample(&self, rng: &mut StdRng, _i: usize) -> FaultCase {
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

    fn check(&self, case: &FaultCase) -> Result<&'static str, String> {
        check_fault_case(case)
    }
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

/// A short, greppable description for disagreement reports.
impl fmt::Display for FaultCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
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

/// Checks one fault case; returns `"envelope"` when the degradation
/// envelope was evaluated and `"startup"` when it was skipped (in the
/// startup-dominated small-message regime an α–β bandwidth model is not
/// the right yardstick).
pub fn check_fault_case(case: &FaultCase) -> Result<&'static str, String> {
    let spec = ClusterSpec::thor_with_rails(case.rails);
    let cfg = AlgoConfig::mha_inter(MhaInterConfig {
        inter: case.inter,
        offload: case.offload,
        overlap: true,
    });

    // Control: the fault-oblivious build stays healthy.
    let base = build(&cfg, case.grid, case.msg, &spec)
        .map_err(|e| format!("baseline build failed: {e:?}"))?;
    verify_built(&base, spec.rails).map_err(|e| format!("baseline {e}"))?;

    // The failure-aware build must be just as correct.
    let degraded = AlgoConfig {
        down_rails: case.down.clone(),
        ..cfg
    };
    let deg = build(&degraded, case.grid, case.msg, &spec)
        .map_err(|e| format!("degraded build failed: {e:?}"))?;
    verify_built(&deg, spec.rails).map_err(|e| format!("degraded {e}"))?;

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
        return Ok("startup");
    }
    let survivors = case.rails - case.down.len() as u8;
    let p = ModelParams::from_spec(&ClusterSpec::thor_with_rails(survivors));
    let phase2 = match case.inter {
        InterAlgo::Ring => Phase2::Ring,
        InterAlgo::RecursiveDoubling => Phase2::RecursiveDoubling,
    };
    let predicted = mha_inter_latency(&p, case.grid.nodes(), case.grid.ppn(), case.msg, phase2);
    let ratio = result.makespan / predicted;
    if !(1.0 / ENVELOPE..=ENVELOPE).contains(&ratio) {
        return Err(format!(
            "degraded latency {:.3e}s vs model at {survivors} rails {predicted:.3e}s \
             (ratio {ratio:.2} outside ±{ENVELOPE}x)",
            result.makespan
        ));
    }
    Ok("envelope")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
        assert_eq!(check_fault_case(&case), Ok("envelope"));
    }

    #[test]
    fn sampled_cases_always_leave_a_survivor() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let c = Faults.sample(&mut rng, 0);
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
        assert_eq!(check_fault_case(&case), Ok("envelope"));
    }

    #[test]
    fn config_defaults_meet_the_acceptance_bar() {
        const { assert!(Faults::DEFAULT_CASES >= 100) };
        assert_eq!(Faults::SEED, 0xFA17);
        assert_eq!(ENVELOPE, 2.0);
    }
}
