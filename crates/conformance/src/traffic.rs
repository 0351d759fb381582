//! The tenant oracle: concurrent jobs must contend fairly and isolate
//! exactly.
//!
//! Each case is a small multi-tenant traffic scenario priced through
//! [`mha_traffic::run_jobs`] with invariant-check mode armed (the engine
//! tees an [`mha_sched::InvariantProbe`] onto every run and fails it with
//! [`mha_simnet::SimError::Invariant`] on any causality/capacity/
//! conservation violation, which the case reports as a disagreement). Two
//! case shapes alternate:
//!
//! * **disjoint** — tenants occupy hand-built non-overlapping node
//!   blocks. Every tenant's jobs must finish **bit-identically** to a
//!   solo run of just that tenant's jobs (same placements, same
//!   arrivals, competitors deleted): on a homogeneous cluster with
//!   per-node resources, jobs that share nothing must not perturb each
//!   other by even an ulp.
//! * **contended** — a seeded random scenario ([`mha_traffic::sample_jobs`])
//!   whose placements may overlap arbitrarily.
//!
//! Both shapes also audit aggregate accounting: the bytes that crossed
//! every simulator resource must fit inside `capacity × makespan` — the
//! water-filler may never oversubscribe a rail, CPU or memory bus no
//! matter how many tenants pile onto it.

use std::fmt;

use mha_collectives::{AlgoConfig, Family as AlgoFamily};
use mha_simnet::ClusterSpec;
use mha_traffic::{
    default_builder, run_jobs, sample_jobs, tenant_jobs, Arrival, JobSpec, PlacementPolicy,
    TrafficReport, TrafficSpec, WorkloadMix,
};
use rand::{rngs::StdRng, Rng};

use crate::cases::pick;
use crate::runner::Oracle;

/// The tenant oracle: seeded scenarios, disjoint and contended in turn,
/// each checked by [`check_traffic_case`]. Passing cases are tallied
/// `"disjoint"` or `"contended"`.
///
/// A live `Traffic` holds the engine's invariant audit armed
/// ([`mha_simnet::set_check_enabled`]) — every run of the sweep is
/// audited and a violation fails its case — and dropping it disarms the
/// audit.
pub struct Traffic {
    _armed: (),
}

impl Traffic {
    /// The oracle, with the invariant audit armed until it is dropped.
    pub fn armed() -> Self {
        mha_simnet::set_check_enabled(Some(true));
        Traffic { _armed: () }
    }
}

impl Drop for Traffic {
    fn drop(&mut self) {
        mha_simnet::set_check_enabled(None);
    }
}

impl Oracle for Traffic {
    const NAME: &'static str = "traffic";
    const SEED: u64 = 0x7EA7;
    const DEFAULT_CASES: usize = 100;
    type Case = TrafficCase;

    fn sample(&self, rng: &mut StdRng, i: usize) -> TrafficCase {
        sample_traffic_case(rng, i)
    }

    fn check(&self, case: &TrafficCase) -> Result<&'static str, String> {
        check_traffic_case(case)?;
        Ok(if case.disjoint {
            "disjoint"
        } else {
            "contended"
        })
    }
}

/// One randomly drawn traffic case.
#[derive(Debug, Clone)]
pub struct TrafficCase {
    /// The scenario (cluster shape, tenant count; its `arrival`/`mix` are
    /// advisory for hand-built disjoint cases, authoritative otherwise).
    pub spec: TrafficSpec,
    /// The concrete job list priced by the case.
    pub jobs: Vec<JobSpec>,
    /// Whether tenants were placed on provably disjoint node blocks (and
    /// the bit-equality half of the check applies).
    pub disjoint: bool,
}

/// A short, greppable description for disagreement reports.
impl fmt::Display for TrafficCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}x{} {} jobs={} tenants={} seed={:#x}",
            if self.disjoint {
                "disjoint"
            } else {
                "contended"
            },
            self.spec.nodes,
            self.spec.ppn,
            self.spec.policy.token(),
            self.jobs.len(),
            self.spec.tenant_count(),
            self.spec.seed,
        )
    }
}

fn sample_cfg(rng: &mut StdRng, nodes: u32, ppn: u32) -> AlgoConfig {
    let grid = mha_sched::ProcGrid::new(nodes, ppn);
    let cfg = match rng.gen_range(0..3u32) {
        0 => AlgoConfig::default(),
        1 => AlgoConfig::flat(AlgoFamily::Ring),
        _ => AlgoConfig::flat(AlgoFamily::Bruck),
    };
    cfg.coerce_for(grid)
}

/// Draws a **disjoint** case: 2–3 tenants on non-overlapping contiguous
/// node blocks of an 8-node cluster, each running a chain or a timed
/// sequence of 1–3 jobs pinned to its block.
fn sample_disjoint_case(rng: &mut StdRng, seed: u64) -> TrafficCase {
    let cluster_nodes = 8u32;
    let ppn = pick(rng, &[1u32, 2]);
    let tenants = rng.gen_range(2..=3u32);
    // Block widths that always fit: 2..=8/tenants nodes each.
    let max_w = cluster_nodes / tenants;
    let mut jobs = Vec::new();
    let mut next_node = 0u32;
    for tenant in 0..tenants {
        let w = rng.gen_range(2..=max_w.max(2));
        let nodes: Vec<u32> = (next_node..next_node + w).collect();
        next_node += w;
        let chained = rng.gen_range(0..2u32) == 0;
        let count = rng.gen_range(1..=3u32);
        let mut prev: Option<u32> = None;
        let mut arrival = 0.0f64;
        for _ in 0..count {
            let id = jobs.len() as u32;
            let (release, after) = if chained {
                let think = rng.gen_range(0.0..5e-5);
                (if prev.is_some() { think } else { 0.0 }, prev)
            } else {
                arrival += rng.gen_range(0.0..1e-4);
                (arrival, None)
            };
            jobs.push(JobSpec {
                id,
                tenant,
                cfg: sample_cfg(rng, w, ppn),
                msg: pick(rng, &[1usize << 10, 1 << 12, 1 << 14]),
                nodes: nodes.clone(),
                release,
                after,
            });
            prev = Some(id);
        }
    }
    TrafficCase {
        spec: TrafficSpec {
            cluster: ClusterSpec::thor(),
            nodes: cluster_nodes,
            ppn,
            arrival: Arrival::Trace(vec![0.0]),
            mix: WorkloadMix::paper_default(cluster_nodes),
            policy: PlacementPolicy::Packed,
            tenants,
            seed,
        },
        jobs,
        disjoint: true,
    }
}

/// Draws a **contended** case: a seeded random scenario whose placements
/// may overlap arbitrarily.
fn sample_contended_case(rng: &mut StdRng, seed: u64) -> TrafficCase {
    let nodes = pick(rng, &[4u32, 8]);
    let ppn = pick(rng, &[1u32, 2]);
    let arrival = match rng.gen_range(0..3u32) {
        0 => Arrival::Closed {
            clients: rng.gen_range(2..=3),
            jobs_per_client: rng.gen_range(1..=3),
            think: rng.gen_range(0.0..5e-5),
        },
        1 => Arrival::Poisson {
            rate_hz: 10f64.powf(rng.gen_range(3.0..4.8)),
            jobs: rng.gen_range(3..=8),
        },
        _ => Arrival::Trace(
            (0..rng.gen_range(3..=6u32))
                .map(|i| f64::from(i) * 2e-5)
                .collect(),
        ),
    };
    let spec = TrafficSpec {
        cluster: ClusterSpec::thor(),
        nodes,
        ppn,
        arrival,
        mix: WorkloadMix::paper_default(nodes),
        policy: pick(
            rng,
            &[
                PlacementPolicy::Packed,
                PlacementPolicy::Striped,
                PlacementPolicy::Random,
            ],
        ),
        tenants: rng.gen_range(2..=4),
        seed,
    };
    let jobs = sample_jobs(&spec);
    TrafficCase {
        spec,
        jobs,
        disjoint: false,
    }
}

/// Draws one traffic case: even indices disjoint, odd contended.
pub fn sample_traffic_case(rng: &mut StdRng, index: usize) -> TrafficCase {
    let seed = rng.gen_range(0..u64::MAX);
    if index.is_multiple_of(2) {
        sample_disjoint_case(rng, seed)
    } else {
        sample_contended_case(rng, seed)
    }
}

/// The aggregate-accounting audit: no resource may carry more bytes than
/// `capacity × makespan` (tiny relative slack for summation roundoff).
fn check_capacity(report: &TrafficReport) -> Result<(), String> {
    for r in &report.resources {
        let budget = r.capacity * report.makespan;
        if r.bytes > budget * (1.0 + 1e-6) + 1e-9 {
            return Err(format!(
                "resource {} carried {:.6e} bytes but capacity x makespan is {:.6e}",
                r.label, r.bytes, budget
            ));
        }
    }
    Ok(())
}

/// Checks one traffic case end to end (see the module docs for the bars).
pub fn check_traffic_case(case: &TrafficCase) -> Result<(), String> {
    let mut build = default_builder(&case.spec);
    let merged = run_jobs(&case.spec, &case.jobs, &mut build)?;
    check_capacity(&merged)?;

    if !case.disjoint {
        return Ok(());
    }
    for tenant in 0..case.spec.tenant_count() {
        let subset = tenant_jobs(&case.jobs, tenant);
        if subset.is_empty() {
            continue;
        }
        let solo = run_jobs(&case.spec, &subset, &mut build)?;
        check_capacity(&solo)?;
        for sr in &solo.jobs {
            let mr = merged
                .jobs
                .iter()
                .find(|r| r.job.id == sr.job.id)
                .ok_or_else(|| format!("job {} missing from merged run", sr.job.id))?;
            if sr.end.to_bits() != mr.end.to_bits() || sr.arrival.to_bits() != mr.arrival.to_bits()
            {
                return Err(format!(
                    "disjoint tenant {tenant} job {} diverged: solo ({:.17e}, {:.17e}) vs merged ({:.17e}, {:.17e})",
                    sr.job.id, sr.arrival, sr.end, mr.arrival, mr.end
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn a_disjoint_case_isolates_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        let case = sample_traffic_case(&mut rng, 0);
        assert!(case.disjoint);
        check_traffic_case(&case).unwrap();
    }

    #[test]
    fn a_contended_case_stays_within_capacity() {
        let mut rng = StdRng::seed_from_u64(4);
        let case = sample_traffic_case(&mut rng, 1);
        assert!(!case.disjoint);
        check_traffic_case(&case).unwrap();
    }

    #[test]
    fn config_defaults_meet_the_acceptance_bar() {
        const { assert!(Traffic::DEFAULT_CASES >= 100) };
        assert_eq!(Traffic::SEED, 0x7EA7);
    }
}
