//! Serving acceptance against the shipped table (`results/tuned_thor.mtab`):
//! every figure-grid query is an exact hash hit (a pure probe, no
//! fallback), and the served config never loses to an untuned family when
//! priced live. Default mode covers the Figure 12 grid at two sizes so
//! the suite stays fast; set `MHA_TUNE_FULL=1` to sweep every grid × size
//! × rail state the tuner emits.

use mha_bench::campaign::CampaignConfig;
use mha_sched::ProcGrid;
use mha_tune::search::price_configs;
use mha_tune::{fig_grids, untuned_families, TableKey, TunedTable};

fn shipped_table() -> TunedTable {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/tuned_thor.mtab");
    TunedTable::load(&path).unwrap_or_else(|e| {
        panic!(
            "shipped table {} unusable ({e}); regenerate with `cargo run --release -p mha-tune --bin mha_tune`",
            path.display()
        )
    })
}

fn full() -> bool {
    std::env::var_os("MHA_TUNE_FULL").is_some_and(|v| v == "1")
}

#[test]
fn shipped_table_matches_the_thor_spec() {
    let table = shipped_table();
    let spec = mha_simnet::ClusterSpec::thor();
    assert_eq!(
        table.spec_digest,
        spec.digest(),
        "shipped table was tuned against a different cluster spec"
    );
    assert_eq!(table.version, mha_tune::TABLE_FORMAT_VERSION);
    assert!(!table.is_empty());
}

#[test]
fn figure_grid_queries_are_exact_probes() {
    let table = shipped_table();
    let spec = mha_simnet::ClusterSpec::thor();
    let mut sizes = mha_bench::medium_sizes();
    sizes.extend(mha_bench::large_sizes());
    for grid in fig_grids() {
        for &msg in &sizes {
            for rails_up in [spec.rails, 1] {
                let key = TableKey::for_query(grid, msg, rails_up);
                assert!(
                    table.get(&key).is_some(),
                    "no exact entry for {key:?} — serving would fall back off the tuned grid"
                );
                // And the pure probe serves exactly what lookup returns
                // (the stored entry is already grid-valid, so coercion is
                // the identity).
                assert_eq!(
                    table.get(&key),
                    Some(&table.lookup(grid, msg, rails_up)),
                    "lookup diverged from the exact probe at {key:?}"
                );
            }
        }
    }
}

#[test]
fn tuned_serving_never_loses_to_an_untuned_family() {
    let table = shipped_table();
    let spec = mha_simnet::ClusterSpec::thor();
    let cfg = CampaignConfig::default();
    let untuned = untuned_families();

    let (grids, sizes): (Vec<ProcGrid>, Vec<usize>) = if full() {
        let mut sizes = mha_bench::medium_sizes();
        sizes.extend(mha_bench::large_sizes());
        (fig_grids(), sizes)
    } else {
        (vec![ProcGrid::new(8, 32)], vec![256, 256 * 1024])
    };

    for &grid in &grids {
        for &msg in &sizes {
            let served = table.lookup(grid, msg, spec.rails);
            let mut configs: Vec<mha_tune::AlgoConfig> =
                untuned.iter().map(|(_, c)| c.clone()).collect();
            configs.push(served.clone());
            let prices = price_configs(&configs, grid, msg, None, &spec, &cfg).unwrap();
            let tuned_us = *prices.last().unwrap();
            for (i, (label, _)) in untuned.iter().enumerate() {
                assert!(
                    tuned_us <= prices[i] * (1.0 + 1e-9),
                    "{}x{} msg={msg}: tuned {tuned_us}us ({}) loses to {label} {}us",
                    grid.nodes(),
                    grid.ppn(),
                    served.to_kv(),
                    prices[i]
                );
            }
        }
    }
}
