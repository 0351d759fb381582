//! # mha-bench — per-figure reproduction binaries and the campaign runner
//!
//! One binary per table/figure in the paper's evaluation (see DESIGN.md's
//! experiment index): `cargo run --release -p mha-bench --bin fig11_intra_allgather`
//! prints the paper-style table and drops a CSV under `results/`. Every
//! binary parses its command line through [`Cli`], naming the flags it
//! accepts.

#![warn(missing_docs)]

pub mod campaign;
pub mod traffic;

use std::path::{Path, PathBuf};

use mha_apps::report::{render_run_summary, Table};
use mha_sched::{FrozenSchedule, SummaryProbe};
use mha_simnet::Simulator;

/// A binary's command line, parsed whole before any work starts.
///
/// Each binary names the arguments it accepts: flags (`"--check"`) and
/// options with a value (`"--out <path>"`). Anything else, or an option
/// without its value, exits 2 with a usage line. Two flags act here, so
/// every binary treats them alike. `--check` audits every simulated run
/// with an [`mha_sched::InvariantProbe`] (causality, per-resource
/// capacity, byte conservation); a violation fails that run with
/// [`mha_simnet::SimError::Invariant`], which the binary reports as an
/// error. It goes through [`mha_simnet::set_check_enabled`], so it works
/// however early the `MHA_CHECK` cache was read. `--tuned` loads
/// [`Cli::tuned`]; without it the sweeps stay byte-identical to their
/// untuned output.
#[derive(Debug)]
pub struct Cli {
    /// The tuning table ([`load_tuned_table`]), when `--tuned` was given.
    pub tuned: Option<mha_collectives::TunedTable>,
    given: Vec<(&'static str, Option<String>)>,
}

impl Cli {
    /// Parses `std::env::args()` against `accepts`.
    pub fn parse(accepts: &[&'static str]) -> Cli {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        let bin = Path::new(&bin).file_name().unwrap_or_default();
        let given = parse_args(accepts, argv).unwrap_or_else(|e| {
            let usage: Vec<String> = accepts.iter().map(|a| format!("[{a}]")).collect();
            eprintln!(
                "error: {e}\nusage: {} {}",
                bin.to_string_lossy(),
                usage.join(" ")
            );
            std::process::exit(2);
        });
        let mut cli = Cli { tuned: None, given };
        if cli.has("--check") {
            mha_simnet::set_check_enabled(Some(true));
            eprintln!("[--check: invariant probes active on every simulated run]");
        }
        if cli.has("--tuned") {
            cli.tuned = Some(load_tuned_table());
        }
        cli
    }

    /// Whether the flag or option `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The value of option `name`, if it was given.
    pub fn value(&self, name: &str) -> Option<&str> {
        let (_, v) = self.given.iter().find(|(n, _)| *n == name)?;
        v.as_deref()
    }
}

/// Matches `argv` against `accepts`. A value may not start with `--`, so
/// `--out --reduced` is a missing path, not a file name.
fn parse_args(
    accepts: &[&'static str],
    mut argv: impl Iterator<Item = String>,
) -> Result<Vec<(&'static str, Option<String>)>, String> {
    let mut given = Vec::new();
    while let Some(arg) = argv.next() {
        let spec = accepts
            .iter()
            .find(|a| a.split(' ').next() == Some(arg.as_str()))
            .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        given.push(match spec.split_once(' ') {
            None => (*spec, None),
            Some((name, meta)) => match argv.next() {
                Some(v) if !v.starts_with("--") => (name, Some(v)),
                _ => return Err(format!("{name} needs a value {meta}")),
            },
        });
    }
    Ok(given)
}

/// The tuning table the binaries serve and `mha_tune` writes by default:
/// `MHA_TUNED_TABLE` if set, else `tuned_thor.mtab` under [`results_dir`].
pub fn tuned_table_path() -> PathBuf {
    std::env::var_os("MHA_TUNED_TABLE")
        .map(PathBuf::from)
        .unwrap_or_else(|| results_dir().join("tuned_thor.mtab"))
}

/// Loads the table at [`tuned_table_path`], the serving half of the
/// `mha-tune` autotuner. A table that cannot be loaded exits 2: the user
/// asked for tuned numbers, so there is no silent fallback.
pub fn load_tuned_table() -> mha_collectives::TunedTable {
    let path = tuned_table_path();
    match mha_collectives::TunedTable::load(&path) {
        Ok(t) => {
            eprintln!(
                "[serving {} tuned entries from {} (digest {:016x})]",
                t.len(),
                path.display(),
                t.digest()
            );
            t
        }
        Err(e) => {
            eprintln!(
                "error: cannot load tuning table {} ({e}); run `cargo run --release -p mha-tune --bin mha_tune` first",
                path.display()
            );
            std::process::exit(2);
        }
    }
}

/// Directory the `fig*` binaries write CSVs into (`results/` at the
/// workspace root, honoring `MHA_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("MHA_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Prints the table and saves `results/<name>.csv`.
pub fn emit(table: &Table, name: &str) {
    println!("{}", table.to_text());
    save(&table.to_csv(), &format!("{name}.csv"));
}

/// Prints a free-form artifact (timelines, op dumps) and saves it as
/// `results/<name>.txt`.
pub fn emit_text(content: &str, name: &str) {
    println!("{content}");
    save(content, &format!("{name}.txt"));
}

/// Writes `body` to `file` under [`results_dir`], warning on failure.
fn save(body: &str, file: &str) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(file);
    match std::fs::write(&path, body) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Re-simulates `sched` with a [`SummaryProbe`] attached and prints the
/// per-rail/CPU/memory utilization + overlap block, saving it as
/// `results/<name>_summary.txt`. The `fig*` binaries call this once on a
/// representative workload after their sweep tables. A failed run (under
/// `--check`, an invariant violation) exits 1.
pub fn emit_run_summary(sim: &Simulator, sched: &FrozenSchedule, name: &str) {
    let mut probe = SummaryProbe::new();
    if let Err(e) = sim.run_probed(sched, &mut probe) {
        eprintln!("error: summary run for {name} failed: {e}");
        std::process::exit(1);
    }
    emit_text(
        &render_run_summary(&probe.finish()),
        &format!("{name}_summary"),
    );
}

/// A single inter-node `msg`-byte transfer striped over all rails — the
/// representative workload the microbenchmark figures (1/3) summarize.
pub fn pt2pt_rails_schedule(msg: usize) -> FrozenSchedule {
    use mha_sched::{Channel, Loc, ProcGrid, RankId, ScheduleBuilder};
    let mut b = ScheduleBuilder::new(ProcGrid::new(2, 1), "pt2pt-rails");
    let s = b.private_buf(RankId(0), msg, "s");
    let d = b.private_buf(RankId(1), msg, "d");
    b.transfer(
        RankId(0),
        RankId(1),
        Loc::new(s, 0),
        Loc::new(d, 0),
        msg,
        Channel::AllRails,
        &[],
        0,
    );
    b.finish().freeze()
}

/// The paper's "medium" message sweep for Figures 12–14 (256 B – 8 KB).
pub fn medium_sizes() -> Vec<usize> {
    mha_simnet::size_sweep(256, 8 * 1024)
}

/// The paper's "large" message sweep for Figures 12–14 (16 KB – 256 KB).
pub fn large_sizes() -> Vec<usize> {
    mha_simnet::size_sweep(16 * 1024, 256 * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_match_paper_ranges() {
        let m = medium_sizes();
        assert_eq!(m.first(), Some(&256));
        assert_eq!(m.last(), Some(&8192));
        let l = large_sizes();
        assert_eq!(l.first(), Some(&16384));
        assert_eq!(l.last(), Some(&262144));
    }

    #[test]
    fn emit_text_writes_artifact() {
        std::env::set_var("MHA_RESULTS_DIR", "/tmp/mha-bench-selftest");
        emit_text("hello", "selftest");
        let body = std::fs::read_to_string("/tmp/mha-bench-selftest/selftest.txt").unwrap();
        assert_eq!(body, "hello");
        std::env::remove_var("MHA_RESULTS_DIR");
    }
}
