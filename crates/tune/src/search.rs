//! Successive-halving search over the design space, one tuning point at a
//! time, pruned on a proxy grid and decided on the true grid.
//!
//! Per [`TunePoint`] the search runs two rungs:
//!
//! * **Rung 0 (explore, cheap)**: every candidate from
//!   [`crate::space::candidates`] is priced on a quarter-size **proxy
//!   grid** ([`proxy_grid`] — same ppn, `max(2, nodes/4)` nodes), and only
//!   the top `⌈n/4⌉` survive. Latency ranks transfer well across node
//!   counts at fixed ppn (the Figure 8 crossover moves, but the ordering
//!   of nearby variants is stable), and a wrong prune can only cost
//!   optimality — never correctness — because of rung 1's floor.
//! * **Rung 1 (decide, exact)**: the survivors **plus every untuned
//!   baseline family** ([`crate::space::untuned_families`]) are priced on
//!   the true grid; the winner is the argmin. Including the untuned
//!   families makes `tuned ≤ untuned` a structural invariant of the
//!   emitted table, not an empirical hope — CI asserts it anyway.
//!
//! Degraded points (`rails_up <` the spec's rail count) price every
//! candidate under a rail-down fault timeline from time 0, with MHA-inter
//! candidates *built* rail-aware (`down_rails`), reproducing the repo's
//! degraded-operation story. All pricing goes through the campaign runner,
//! so results are worker-count independent.

use std::collections::HashMap;

use mha_bench::campaign::{run_campaign, CampaignConfig, CampaignPoint};
use mha_collectives::{AlgoConfig, TableKey, TunedTable};
use mha_sched::ProcGrid;
use mha_simnet::{ClusterSpec, FaultEvent, FaultKind, FaultSpec};

use crate::space::{candidates, dedup_by_digest, untuned_families};

/// One point the table is tuned at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunePoint {
    /// The process grid.
    pub grid: ProcGrid,
    /// Per-rank contribution in bytes (one representative per
    /// [`mha_collectives::msg_bucket`]).
    pub msg: usize,
    /// Rails up at this point (`spec.rails` = healthy).
    pub rails_up: u8,
}

/// The evaluation grids of Figures 12–14: 8/16/32 nodes × 32 PPN.
pub fn fig_grids() -> Vec<ProcGrid> {
    vec![
        ProcGrid::new(8, 32),
        ProcGrid::new(16, 32),
        ProcGrid::new(32, 32),
    ]
}

/// The full point set the shipped table is tuned on: every Figure 12–14
/// grid × the medium + large message sweeps (one size per power-of-two
/// bucket) × healthy and one-rail-degraded fabrics.
pub fn full_points(spec: &ClusterSpec) -> Vec<TunePoint> {
    let mut sizes = mha_bench::medium_sizes();
    sizes.extend(mha_bench::large_sizes());
    let mut out = Vec::new();
    for grid in fig_grids() {
        for &msg in &sizes {
            for rails_up in [spec.rails, spec.rails.saturating_sub(1).max(1)] {
                out.push(TunePoint {
                    grid,
                    msg,
                    rails_up,
                });
            }
        }
    }
    dedup_points(out)
}

/// A reduced point set for CI smoke runs: the Figure 12 grid at one
/// medium and one large size, healthy fabric plus one degraded point.
pub fn reduced_points(spec: &ClusterSpec) -> Vec<TunePoint> {
    let grid = ProcGrid::new(8, 32);
    let mut out = vec![
        TunePoint {
            grid,
            msg: 256,
            rails_up: spec.rails,
        },
        TunePoint {
            grid,
            msg: 256 * 1024,
            rails_up: spec.rails,
        },
        TunePoint {
            grid,
            msg: 64 * 1024,
            rails_up: spec.rails.saturating_sub(1).max(1),
        },
    ];
    out = dedup_points(out);
    out
}

fn dedup_points(points: Vec<TunePoint>) -> Vec<TunePoint> {
    let mut seen = std::collections::HashSet::new();
    points
        .into_iter()
        .filter(|p| {
            seen.insert((
                p.grid.nodes(),
                p.grid.ppn(),
                mha_collectives::msg_bucket(p.msg),
                p.rails_up,
            ))
        })
        .collect()
}

/// The rung-0 proxy grid: same ppn, a quarter of the nodes (floor 2) —
/// cheap enough to price the whole space, node-structured enough to rank
/// inter-node variants.
pub fn proxy_grid(grid: ProcGrid) -> ProcGrid {
    ProcGrid::new((grid.nodes() / 4).max(2), grid.ppn())
}

/// What the search decided at one point, with the evidence.
#[derive(Debug, Clone)]
pub struct PointSummary {
    /// The tuning point.
    pub point: TunePoint,
    /// The winning config (the table entry).
    pub winner: AlgoConfig,
    /// Simulated latency of the winner on the true grid (µs).
    pub tuned_us: f64,
    /// Each untuned family's latency on the true grid (µs), in
    /// [`untuned_families`] order (entries invalid at this grid are
    /// `None`).
    pub untuned_us: Vec<(&'static str, Option<f64>)>,
    /// Candidates priced on the proxy grid (rung 0).
    pub rung0: usize,
    /// Candidates priced on the true grid (rung 1).
    pub rung1: usize,
    /// Distinct simulations over both rungs: candidates that build the
    /// same schedule for the same simulator share one (see
    /// [`price_configs`]).
    pub simulated: usize,
}

impl PointSummary {
    /// The best (lowest) untuned latency at this point.
    pub fn best_untuned_us(&self) -> f64 {
        self.untuned_us
            .iter()
            .filter_map(|(_, v)| *v)
            .fold(f64::INFINITY, f64::min)
    }
}

/// The search product: the table plus per-point evidence.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The tuned table (spec digest stamped, ready to save).
    pub table: TunedTable,
    /// Per-point decisions, in input order.
    pub summaries: Vec<PointSummary>,
}

/// The rails that are down when `rails_up` of `total` rails survive —
/// highest indices fail first (rail 0 is the last survivor).
pub fn down_rails(rails_up: u8, total: u8) -> Vec<u8> {
    (rails_up.min(total)..total).collect()
}

/// The pricing timeline of a degraded point: every down rail fails
/// fabric-wide at time 0. `None` when all rails are up.
pub fn fault_timeline(down: &[u8]) -> Option<FaultSpec> {
    let (&first, rest) = down.split_first()?;
    let mut f = FaultSpec::rail_down_at(first, 0.0);
    for &rail in rest {
        f = f.with_event(FaultEvent {
            time: 0.0,
            rail,
            node: None,
            kind: FaultKind::Down,
        });
    }
    Some(f)
}

/// Prices `configs` at `(grid, msg)` under an optional fault timeline:
/// one campaign, one latency per config (µs). Shared by the search rungs,
/// the `ablate_tune` binary and the serving tests.
///
/// Configs that would run the same simulation are priced once. A serial
/// pass builds each config on its effective spec and keys it by its
/// schedule fingerprint plus [`ClusterSpec::digest_for`] of that schedule,
/// dropping the schedule before the next build. Within one call the grid,
/// message size and fault timeline are shared, so configs with equal keys
/// simulate identically: the campaign runs one point per distinct key (its
/// first config, rebuilt by the job) and every config gets its group's
/// latency.
pub fn price_configs(
    configs: &[AlgoConfig],
    grid: ProcGrid,
    msg: usize,
    faults: Option<&FaultSpec>,
    spec: &ClusterSpec,
    cfg: &CampaignConfig,
) -> Result<Vec<f64>, String> {
    price_grouped(configs, grid, msg, faults, spec, cfg).map(|(prices, _)| prices)
}

/// [`price_configs`], also returning how many distinct simulations ran.
fn price_grouped(
    configs: &[AlgoConfig],
    grid: ProcGrid,
    msg: usize,
    faults: Option<&FaultSpec>,
    spec: &ClusterSpec,
    cfg: &CampaignConfig,
) -> Result<(Vec<f64>, usize), String> {
    let mut groups: HashMap<(u64, u64), usize> = HashMap::new();
    let mut group_of = Vec::with_capacity(configs.len());
    let mut points = Vec::new();
    for (i, c) in configs.iter().enumerate() {
        let sim_spec = c.effective_spec(spec).into_owned();
        let fs = mha_collectives::build(c, grid, msg, &sim_spec)
            .map_err(|e| format!("config {i} [{}]: {e}", c.family.token()))?
            .sched;
        let key = (fs.fingerprint().0, sim_spec.digest_for(&fs));
        drop(fs);
        let g = *groups.entry(key).or_insert_with(|| {
            let c = c.clone();
            let build_spec = sim_spec.clone();
            points.push(CampaignPoint::sim_faulty(
                c.family.token(),
                sim_spec,
                faults.cloned(),
                move || {
                    mha_collectives::build(&c, grid, msg, &build_spec)
                        .map(|b| b.sched)
                        .map_err(|e| e.to_string())
                },
            ));
            points.len() - 1
        });
        group_of.push(g);
    }
    let report = run_campaign(&points, cfg)?;
    let prices = group_of.iter().map(|&g| report.value(g)).collect();
    Ok((prices, points.len()))
}

/// Deterministic best index: lowest latency, ties broken by config
/// digest so the result is independent of candidate assembly order.
fn argmin(prices: &[f64], configs: &[AlgoConfig]) -> usize {
    (0..prices.len())
        .min_by(|&a, &b| {
            prices[a]
                .total_cmp(&prices[b])
                .then_with(|| configs[a].digest().cmp(&configs[b].digest()))
        })
        .expect("non-empty candidate set")
}

/// Runs the two-rung search over `points` and assembles the tuned table.
///
/// # Errors
///
/// A candidate that fails to build or simulate aborts the search with the
/// campaign runner's error string (candidates are pre-filtered by
/// [`AlgoConfig::valid_for`], so this indicates a bug, not a bad point).
pub fn run_search(
    points: &[TunePoint],
    spec: &ClusterSpec,
    cfg: &CampaignConfig,
) -> Result<SearchOutcome, String> {
    let mut table = TunedTable::new(spec.digest());
    let mut summaries = Vec::with_capacity(points.len());
    for &point in points {
        let down = down_rails(point.rails_up, spec.rails);
        let faults = fault_timeline(&down);
        // Rung 0: full space on the proxy grid.
        let proxy = proxy_grid(point.grid);
        let pool: Vec<AlgoConfig> = candidates(point.grid, &down)
            .into_iter()
            .filter(|c| c.valid_for(proxy))
            .collect();
        let (p0, sims0) = price_grouped(&pool, proxy, point.msg, faults.as_ref(), spec, cfg)?;
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_by(|&a, &b| {
            p0[a]
                .total_cmp(&p0[b])
                .then_with(|| pool[a].digest().cmp(&pool[b].digest()))
        });
        let keep = pool.len().div_ceil(4);
        let mut finalists: Vec<AlgoConfig> =
            order[..keep].iter().map(|&i| pool[i].clone()).collect();
        // Rung 1: survivors ∪ every untuned family, on the true grid. The
        // untuned floor makes the winner ≤ untuned by construction.
        let untuned: Vec<(&'static str, AlgoConfig)> = untuned_families()
            .into_iter()
            .filter(|(_, c)| c.valid_for(point.grid))
            .collect();
        finalists.extend(untuned.iter().map(|(_, c)| c.clone()));
        let finalists = dedup_by_digest(finalists);
        let (p1, sims1) = price_grouped(
            &finalists,
            point.grid,
            point.msg,
            faults.as_ref(),
            spec,
            cfg,
        )?;
        let win = argmin(&p1, &finalists);
        let by_digest: HashMap<u64, f64> = finalists
            .iter()
            .zip(&p1)
            .map(|(c, &v)| (c.digest(), v))
            .collect();
        let untuned_us: Vec<(&'static str, Option<f64>)> = untuned_families()
            .into_iter()
            .map(|(label, c)| (label, by_digest.get(&c.digest()).copied()))
            .collect();
        table.insert(
            TableKey::for_query(point.grid, point.msg, point.rails_up),
            finalists[win].clone(),
        );
        summaries.push(PointSummary {
            point,
            winner: finalists[win].clone(),
            tuned_us: p1[win],
            untuned_us,
            rung0: pool.len(),
            rung1: finalists.len(),
            simulated: sims0 + sims1,
        });
    }
    Ok(SearchOutcome { table, summaries })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn down_rails_fail_from_the_top() {
        assert_eq!(down_rails(2, 2), Vec::<u8>::new());
        assert_eq!(down_rails(1, 2), vec![1]);
        assert_eq!(down_rails(0, 2), vec![0, 1]);
        assert_eq!(down_rails(3, 2), Vec::<u8>::new());
    }

    #[test]
    fn proxy_grid_quarters_nodes_with_a_floor() {
        assert_eq!(proxy_grid(ProcGrid::new(32, 32)), ProcGrid::new(8, 32));
        assert_eq!(proxy_grid(ProcGrid::new(8, 32)), ProcGrid::new(2, 32));
        assert_eq!(proxy_grid(ProcGrid::new(4, 16)), ProcGrid::new(2, 16));
    }

    #[test]
    fn point_sets_bucket_unique_and_cover_the_fig_grids() {
        let spec = ClusterSpec::thor();
        let full = full_points(&spec);
        // 3 grids × 11 sizes × 2 rail states, all distinct buckets.
        assert_eq!(full.len(), 3 * 11 * 2);
        let reduced = reduced_points(&spec);
        assert!(reduced.len() <= full.len());
        assert!(reduced.iter().all(|p| p.grid == ProcGrid::new(8, 32)));
    }

    #[test]
    fn search_winner_never_loses_to_an_untuned_family() {
        // One cheap point end-to-end: the structural invariant holds and
        // the table serves the winner back.
        let spec = ClusterSpec::thor();
        let points = [TunePoint {
            grid: ProcGrid::new(4, 4),
            msg: 4096,
            rails_up: spec.rails,
        }];
        let out = run_search(&points, &spec, &CampaignConfig::default()).unwrap();
        assert_eq!(out.table.len(), 1);
        let s = &out.summaries[0];
        assert!(
            s.tuned_us <= s.best_untuned_us(),
            "tuned {} > best untuned {}",
            s.tuned_us,
            s.best_untuned_us()
        );
        let served = out.table.lookup(points[0].grid, points[0].msg, spec.rails);
        assert_eq!(served, s.winner);
    }

    #[test]
    fn degraded_points_tune_rail_aware_candidates() {
        let spec = ClusterSpec::thor();
        let points = [TunePoint {
            grid: ProcGrid::new(4, 4),
            msg: 16 * 1024,
            rails_up: 1,
        }];
        let out = run_search(&points, &spec, &CampaignConfig::default()).unwrap();
        let s = &out.summaries[0];
        assert!(s.tuned_us <= s.best_untuned_us());
        // The winner is either rail-aware MHA or a library pick — never an
        // MHA config that still schedules the dead rail.
        if s.winner.family == mha_collectives::Family::MhaInter {
            assert_eq!(s.winner.down_rails, vec![1]);
        }
    }
}
