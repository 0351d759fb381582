//! Ablation: tuned serving vs every untuned family on the Figure 12–14
//! grids — the acceptance sweep of the `mha-tune` pipeline.
//!
//! Loads the shipped tuning table (`results/tuned_thor.mtab`, or
//! `MHA_TUNED_TABLE` as read by `mha_bench::Cli`), serves each
//! `(grid, msg)` point with a **pure table probe** (no search, no build
//! on the serving path), prices the served config next to every untuned
//! family, and hard-asserts `tuned ≤ untuned` at every point. Emits `results/ablate_tune.csv`.

use mha_apps::report::{fmt_bytes, Table};
use mha_tune::search::price_configs;
use mha_tune::{fig_grids, untuned_families};

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let table = cli.load_tuned_table();

    let spec = mha_simnet::ClusterSpec::thor();
    let cfg = &cli.env.campaign;
    let mut sizes = mha_bench::medium_sizes();
    sizes.extend(mha_bench::large_sizes());

    let untuned = untuned_families();
    let mut columns: Vec<String> = untuned.iter().map(|(l, _)| (*l).to_string()).collect();
    columns.push("MHA-tuned".into());
    columns.push("gain_pct".into());
    let mut t = Table::new(
        "Ablation: tuned table serving vs untuned families, Figures 12-14 grids",
        "point",
        columns,
    );

    let mut violations = 0usize;
    for grid in fig_grids() {
        for &msg in &sizes {
            // Pure probe on the serving path: lookup, then one dispatch.
            let served = table.lookup(grid, msg, spec.rails);
            let mut configs: Vec<mha_collectives::AlgoConfig> =
                untuned.iter().map(|(_, c)| c.clone()).collect();
            configs.push(served);
            let prices = price_configs(&configs, grid, msg, None, &spec, cfg).unwrap();
            let tuned_us = *prices.last().unwrap();
            let best_untuned = prices[..prices.len() - 1]
                .iter()
                .fold(f64::INFINITY, |a, &b| a.min(b));
            for (i, (label, _)) in untuned.iter().enumerate() {
                if tuned_us > prices[i] * (1.0 + 1e-9) {
                    eprintln!(
                        "VIOLATION {}x{} {}: tuned {tuned_us} > {label} {}",
                        grid.nodes(),
                        grid.ppn(),
                        fmt_bytes(msg),
                        prices[i]
                    );
                    violations += 1;
                }
            }
            let mut row = prices.clone();
            row.push((1.0 - tuned_us / best_untuned) * 100.0);
            t.push(
                format!("{}x{} {}", grid.nodes(), grid.ppn(), fmt_bytes(msg)),
                row,
            );
        }
    }
    cli.emit(&t, "ablate_tune");
    assert_eq!(
        violations, 0,
        "{violations} serving points lost to an untuned family"
    );
    println!("[tuned <= untuned at every point]");
}
