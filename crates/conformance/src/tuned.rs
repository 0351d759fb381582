//! Tuned-choice oracle: every config a [`TunedTable`] can serve is a
//! *correct* Allgather.
//!
//! The autotuner (`mha-tune`) only prices candidates it already built, so
//! on-grid entries are trivially buildable — the risk is the serving
//! path's off-grid behavior: nearest-neighbor fallback plus
//! [`AlgoConfig::coerce_for`] on grids the search never saw. This oracle
//! hammers `lookup` with seeded random queries (including off-grid,
//! non-power-of-two and single-node shapes) and asserts the served config
//! (a) is valid for the queried grid, (b) dispatches through
//! [`mha_collectives::build`], and (c) produces a schedule whose writes
//! exactly tile every receive buffer ([`check_allgather_coverage`]) —
//! i.e. a mistuned table can be slow, but it can never be wrong.

use std::fmt;
use std::path::Path;

use mha_collectives::{build, AlgoConfig, TableKey, TunedTable};
use mha_sched::ProcGrid;
use mha_simnet::ClusterSpec;
use rand::{rngs::StdRng, Rng};

use crate::coverage::check_allgather_coverage;
use crate::runner::Oracle;

/// The tuned-choice oracle over one table: seeded queries, every fourth
/// aimed at a stored key, each served config checked for grid validity, a
/// successful dispatch and exact receive-buffer coverage. Passing queries
/// are tallied `"exact"` (answered by an exact table probe) or
/// `"fallback"` (nearest-neighbor fallback or the empty-table default).
pub struct Tuned {
    table: TunedTable,
    spec: ClusterSpec,
    /// Stored keys on ≤ 256-rank grids, the on-key queries' targets.
    small_keys: Vec<TableKey>,
}

impl Tuned {
    /// The oracle over `table`, serving on [`ClusterSpec::thor`].
    pub fn new(table: TunedTable) -> Self {
        let small_keys = table
            .sorted_entries()
            .into_iter()
            .map(|(k, _)| k)
            .filter(|k| k.nodes * k.ppn <= 256)
            .collect();
        Tuned {
            table,
            spec: ClusterSpec::thor(),
            small_keys,
        }
    }

    /// The oracle over the shipped `results/tuned_thor.mtab`.
    pub fn shipped() -> Result<Self, String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/tuned_thor.mtab");
        let table = TunedTable::load(&path).map_err(|e| {
            format!(
                "shipped table {} unusable ({e}); regenerate with \
                 `cargo run --release -p mha-tune --bin mha_tune`",
                path.display()
            )
        })?;
        Ok(Self::new(table))
    }
}

/// One query against the table.
#[derive(Debug)]
pub struct Query {
    grid: ProcGrid,
    msg: usize,
    rails_up: u8,
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} msg={} rails_up={}",
            self.grid.nodes(),
            self.grid.ppn(),
            self.msg,
            self.rails_up
        )
    }
}

impl Oracle for Tuned {
    const NAME: &'static str = "tuned";
    const SEED: u64 = 0xC0FFEE;
    const DEFAULT_CASES: usize = 200;
    type Case = Query;

    /// Every fourth query aims at a stored key (exact-probe regime); the
    /// rest roam the shape space (fallback + coercion regime).
    fn sample(&self, rng: &mut StdRng, i: usize) -> Query {
        if i.is_multiple_of(4) {
            sample_on_key(rng, &self.small_keys).unwrap_or_else(|| sample_roaming(rng))
        } else {
            sample_roaming(rng)
        }
    }

    fn check(&self, q: &Query) -> Result<&'static str, String> {
        let served = self.table.lookup(q.grid, q.msg, q.rails_up);
        check_served(&served, q.grid, q.msg, &self.spec)
            .map_err(|e| format!("{e} [served {}]", served.to_kv()))?;
        let key = TableKey::for_query(q.grid, q.msg, q.rails_up);
        Ok(if self.table.get(&key).is_some() {
            "exact"
        } else {
            "fallback"
        })
    }
}

/// One random roaming query: grids are capped at 128 ranks so each case
/// builds quickly, and shapes deliberately include off-tuned-grid node
/// counts (non-power-of-two, single node, ppn 1).
fn sample_roaming(rng: &mut StdRng) -> Query {
    let nodes = rng.gen_range(1..=16u32);
    let max_ppn = (128 / nodes).max(1);
    let ppn = rng.gen_range(1..=max_ppn.min(32));
    let msg = 1usize << rng.gen_range(0..=20u32);
    let msg = msg + rng.gen_range(0..=msg / 2);
    let rails_up = rng.gen_range(0..=3u8);
    Query {
        grid: ProcGrid::new(nodes, ppn),
        msg,
        rails_up,
    }
}

/// A query aimed at a stored key (message drawn inside the key's bucket),
/// so the exact-probe serving regime is exercised too. Keys are limited
/// to ≤ 256-rank grids to keep per-case build cost small.
fn sample_on_key(rng: &mut StdRng, keys: &[TableKey]) -> Option<Query> {
    if keys.is_empty() {
        return None;
    }
    let k = keys[rng.gen_range(0..keys.len())];
    let lo = 1usize << k.msg_bucket;
    let msg = lo + rng.gen_range(0..lo);
    Some(Query {
        grid: ProcGrid::new(k.nodes, k.ppn),
        msg,
        rails_up: k.rails_up,
    })
}

/// (a) validity for the queried grid, (b) a successful dispatch, (c) exact
/// receive-buffer coverage.
fn check_served(
    served: &AlgoConfig,
    grid: ProcGrid,
    msg: usize,
    spec: &ClusterSpec,
) -> Result<(), String> {
    if !served.valid_for(grid) {
        return Err("served config invalid for queried grid".into());
    }
    let built = build(served, grid, msg, &served.effective_spec(spec))
        .map_err(|e| format!("dispatch failed: {e}"))?;
    check_allgather_coverage(&built).map_err(|e| format!("coverage: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// `cases` queries from `seed` against `table`; the tally labels.
    fn serve(table: TunedTable, seed: u64, cases: usize) -> Vec<&'static str> {
        let oracle = Tuned::new(table);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..cases)
            .map(|i| {
                let q = oracle.sample(&mut rng, i);
                oracle.check(&q).unwrap_or_else(|e| panic!("{q}: {e}"))
            })
            .collect()
    }

    #[test]
    fn empty_table_serves_correct_defaults_everywhere() {
        let tags = serve(TunedTable::new(0), 11, 40);
        assert!(tags.iter().all(|t| *t == "fallback"), "{tags:?}");
    }

    #[test]
    fn adversarial_entries_are_coerced_into_correct_serves() {
        // Store configs that are invalid on most grids; the serving path
        // must coerce them rather than hand out something unbuildable.
        let mut table = TunedTable::new(0);
        table.insert(
            TableKey {
                nodes: 8,
                ppn: 32,
                msg_bucket: 10,
                rails_up: 2,
            },
            AlgoConfig {
                inter: mha_collectives::mha::InterAlgo::RecursiveDoubling,
                chunk: Some(1 << 20),
                down_rails: vec![0, 1, 2, 3],
                ..AlgoConfig::default()
            },
        );
        let tags = serve(table, 23, 60);
        assert!(tags.contains(&"fallback"));
    }

    #[test]
    fn config_defaults_meet_the_acceptance_bar() {
        const { assert!(Tuned::DEFAULT_CASES >= 200) };
        assert_eq!(Tuned::SEED, 0xC0FFEE);
    }
}
