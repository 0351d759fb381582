//! The offline autotuner: runs the successive-halving search over the
//! Figure 12–14 grids and writes the versioned tuning table to
//! `--out <path>`, else to the table path [`mha_bench::Cli`] resolved
//! (`MHA_TUNED_TABLE`, else `tuned_thor.mtab` under `MHA_RESULTS_DIR` or
//! `results/`).
//!
//! `--reduced` tunes the CI smoke point set instead of the full grid.
//! The campaign settings (`MHA_CAMPAIGN_WORKERS`, `MHA_CAMPAIGN_SEED`, …)
//! are read by `Cli` too, once, before the search starts.
//! Exits non-zero if any tuned pick loses to an untuned family — that
//! would indicate a search bug, since the untuned families are rung-1
//! candidates by construction.

use mha_apps::report::{fmt_bytes, Table};
use mha_tune::{full_points, reduced_points, run_search};

fn main() {
    let cli = mha_bench::Cli::parse(&["--check", "--reduced", "--out <path>"]);
    let reduced = cli.has("--reduced");
    let out_path = cli
        .value("--out")
        .map_or_else(|| cli.env.tuned_table.clone(), std::path::PathBuf::from);

    let spec = mha_simnet::ClusterSpec::thor();
    let cfg = &cli.env.campaign;
    let points = if reduced {
        reduced_points(&spec)
    } else {
        full_points(&spec)
    };
    eprintln!(
        "[mha-tune: searching {} points ({} mode), {} workers]",
        points.len(),
        if reduced { "reduced" } else { "full" },
        cfg.workers
    );
    let outcome = run_search(&points, &spec, cfg).unwrap();

    let mut t = Table::new(
        "mha-tune: tuned vs best untuned per point",
        "point",
        vec![
            "tuned_us".into(),
            "best_untuned_us".into(),
            "gain_pct".into(),
            "rung0".into(),
            "rung1".into(),
            "sims".into(),
        ],
    );
    let mut losses = 0usize;
    for s in &outcome.summaries {
        let best = s.best_untuned_us();
        if s.tuned_us > best {
            eprintln!(
                "LOSS at {:?}: tuned {} > untuned {} ({})",
                s.point,
                s.tuned_us,
                best,
                s.winner.to_kv()
            );
            losses += 1;
        }
        t.push(
            format!(
                "{}x{} {} r{}",
                s.point.grid.nodes(),
                s.point.grid.ppn(),
                fmt_bytes(s.point.msg),
                s.point.rails_up
            ),
            vec![
                s.tuned_us,
                best,
                (1.0 - s.tuned_us / best) * 100.0,
                s.rung0 as f64,
                s.rung1 as f64,
                s.simulated as f64,
            ],
        );
    }
    println!("{}", t.to_text());
    assert_eq!(
        losses, 0,
        "{losses} tuned picks lost to an untuned family — search bug"
    );

    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).unwrap();
    }
    outcome.table.save(&out_path).unwrap();
    println!(
        "[saved {} ({} entries, digest {:016x})]",
        out_path.display(),
        outcome.table.len(),
        outcome.table.digest()
    );
}
