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
//!   message size and within the multiplicative [`ENVELOPE`] of the
//!   [`mha_model`] prediction. These series are not random cases, so
//!   [`check_model_envelope`] is a plain function the acceptance test and
//!   the CLI call beside the [`Differential`] sweep.

use mha_collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha_collectives::{build, build_composed, AlgoConfig, Built, ComposePlan, Family as Algo};
use mha_exec::{run_threaded_probed, BufferStore, Mode};
use mha_model::{composed_latency, mha_inter_latency, mha_intra_latency_auto, ModelParams, Phase2};
use mha_sched::{FrozenSchedule, InvariantProbe, Probe, ProcGrid};
use mha_simnet::{ClusterSpec, Simulator};
use rand::rngs::StdRng;

use crate::cases::{sample_case, Case, Family};
use crate::coverage::check_allgather_coverage;
use crate::runner::Oracle;

/// Multiplicative model envelope: simulated latency must lie within
/// `[model / ENVELOPE, model · ENVELOPE]`. Measured ratios on the seed
/// engine: 0.91–1.47 across the differential series; 2.0 brackets them
/// with headroom against incidental engine drift while still catching a
/// misplaced factor of L, H or N. The fault oracle shares it.
pub const ENVELOPE: f64 = 2.0;

/// Worker threads for the thread-pool executor runs of every oracle.
pub(crate) const THREADS: usize = 4;

/// The differential oracle: random configurations, the four families
/// round-robin, each checked across the executor and the simulator on
/// the Thor cluster.
/// Passing cases are tallied by [`Family::name`].
pub struct Differential;

impl Oracle for Differential {
    const NAME: &'static str = "differential";
    const SEED: u64 = 0xC0FFEE;
    const DEFAULT_CASES: usize = 200;
    type Case = Case;

    fn sample(&self, rng: &mut StdRng, i: usize) -> Case {
        sample_case(rng, Family::ALL[i % Family::ALL.len()])
    }

    fn check(&self, case: &Case) -> Result<&'static str, String> {
        check_case(case).map(|()| case.family.name())
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

/// The structural and executor layers every built collective must pass:
/// validation against `rails`, the race check, and MPI_Allgather
/// semantics on the sequential and the [`THREADS`]-worker executor.
pub(crate) fn verify_built(built: &Built, rails: u8) -> Result<(), String> {
    let sch = &built.sched;
    mha_sched::validate(sch, Some(rails)).map_err(|e| format!("validate: {e}"))?;
    let races = mha_sched::check_races(sch);
    if !races.is_empty() {
        return Err(format!("{} races, first on {}", races.len(), races[0].buf));
    }
    mha_exec::verify_allgather(sch, &built.send, &built.recv, built.msg, Mode::Single)
        .map_err(|e| format!("verify single: {e:?}"))?;
    mha_exec::verify_allgather(
        sch,
        &built.send,
        &built.recv,
        built.msg,
        Mode::Threaded(THREADS),
    )
    .map_err(|e| format!("verify threaded: {e:?}"))
}

/// Checks one configuration across the executor and the simulator on the
/// Thor cluster; returns a description of the first disagreement found.
fn check_case(case: &Case) -> Result<(), String> {
    let spec = ClusterSpec::thor();
    let built = case
        .build(&spec)
        .map_err(|e| format!("build failed: {e:?}"))?;
    let sch = &built.sched;

    // Structural and executor layers, then static byte coverage.
    verify_built(&built, spec.rails)?;
    check_allgather_coverage(&built).map_err(|e| format!("coverage: {e}"))?;

    // Simulator layer: full invariant audit.
    let mut audit = InvariantProbe::new();
    let result = Simulator::new(spec)
        .map_err(|e| format!("simulator: {e}"))?
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
    run_threaded_probed(sch, &store, THREADS, &mut stamps)
        .map_err(|e| format!("probed exec: {e:?}"))?;
    for op in 0..sch.n_ops() as u32 {
        for p in sch.preds(op) {
            let p = p.index();
            let (ps, os) = (result.op_end[p], result.op_end[op as usize]);
            if ps > os {
                return Err(format!(
                    "simnet finished {op} at {os} before pred {p} at {ps}"
                ));
            }
            let (pe, oe) = (stamps.end[p], stamps.end[op as usize]);
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
        .max_by(|a, b| op_end[a.index()].total_cmp(&op_end[b.index()]))
    {
        chain.push(p.0);
        cur = p.index();
    }
    chain.reverse();
    chain
}

/// The model layer: per-family large-message series checking that simulated
/// latency is monotone in message size and within [`ENVELOPE`] of the α–β
/// prediction. Returns one description per failure (empty = pass).
pub fn check_model_envelope() -> Vec<String> {
    let thor = ClusterSpec::thor();
    let p = ModelParams::from_spec(&thor);
    let numa = ClusterSpec::thor_numa();
    let pn = ModelParams::from_spec(&numa);
    let topo = numa.topology_of(&ProcGrid::new(4, 16));
    let plan = ComposePlan::numa3(true);
    let sizes = [16 * 1024usize, 64 * 1024, 256 * 1024];

    // (name, cluster, msg -> (schedule, model prediction in seconds))
    type Point<'a> = Box<dyn Fn(usize) -> Result<(Built, f64), String> + 'a>;
    let built = |cfg: AlgoConfig, grid: ProcGrid, m: usize| {
        build(&cfg, grid, m, &thor).map_err(|e| format!("build failed: {e:?}"))
    };
    let series: Vec<(&str, &ClusterSpec, Point<'_>)> = vec![
        (
            "flat/ring 4x1",
            &thor,
            // Textbook α–β ring over P ranks: (P−1) fully-striped steps.
            Box::new(|m| {
                let b = built(AlgoConfig::flat(Algo::Ring), ProcGrid::new(4, 1), m)?;
                Ok((
                    b,
                    3.0 * (p.rail_startup(m) + m as f64 / (p.bw_h * f64::from(p.h))),
                ))
            }),
        ),
        (
            "mha/intra 1x8",
            &thor,
            Box::new(|m| {
                let b = built(
                    AlgoConfig::mha_intra(Offload::Auto),
                    ProcGrid::single_node(8),
                    m,
                )?;
                Ok((b, mha_intra_latency_auto(&p, 8, m)))
            }),
        ),
        (
            "mha/inter-ring 4x8",
            &thor,
            Box::new(|m| {
                let cfg = AlgoConfig::mha_inter(MhaInterConfig {
                    inter: InterAlgo::Ring,
                    offload: Offload::Auto,
                    overlap: true,
                });
                let b = built(cfg, ProcGrid::new(4, 8), m)?;
                Ok((b, mha_inter_latency(&p, 4, 8, m, Phase2::Ring)))
            }),
        ),
        // Hierarchical series: the composer's 3-level NUMA schedule on the
        // NUMA spec, priced by the per-level model over the spec's own tree.
        (
            "hier/numa3 4x2x8",
            &numa,
            Box::new(|m| {
                let b = build_composed(&topo, m, &plan, &numa)
                    .map_err(|e| format!("build failed: {e:?}"))?;
                let t = composed_latency(&pn, &topo, &plan, m).ok_or("model declined the plan")?;
                Ok((b, t))
            }),
        ),
    ];

    let mut failures = Vec::new();
    for (name, spec, point) in &series {
        let sim = Simulator::new((*spec).clone()).expect("thor specs validate");
        let mut prev = 0.0f64;
        for &m in &sizes {
            let (b, predicted) = match point(m) {
                Ok(x) => x,
                Err(e) => {
                    failures.push(format!("{name} msg={m}: {e}"));
                    continue;
                }
            };
            let t = match sim.run(&b.sched) {
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
            if !(1.0 / ENVELOPE..=ENVELOPE).contains(&ratio) {
                failures.push(format!(
                    "{name} msg={m}: simulated {t:.3e}s vs model {predicted:.3e}s \
                     (ratio {ratio:.2} outside ±{ENVELOPE}x)"
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
        let case = Case {
            family: Family::Mha,
            cfg: AlgoConfig::default(),
            grid: ProcGrid::new(2, 4),
            msg: 512,
            tree: None,
        };
        check_case(&case).unwrap();
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
