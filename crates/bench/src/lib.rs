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

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use campaign::CampaignConfig;
use mha_apps::report::{render_run_summary, Table};
use mha_sched::{FrozenSchedule, SummaryProbe};
use mha_simnet::Simulator;

/// A binary's command line and environment, both read whole before any
/// work starts.
///
/// Each binary names the arguments it accepts: flags (`"--check"`) and
/// options with a value (`"--out <path>"`). Anything else, or an option
/// without its value, exits 2 with a usage line. The environment is read
/// once, by [`Cli::read_env`], into [`Cli::env`]; a malformed value exits
/// 2 too. Only binaries read these variables; library code and tests
/// never do, and a test passes its [`CampaignConfig`] explicitly.
///
/// Two flags act here, so every binary treats them alike. `--check`
/// audits every simulated run with an [`mha_sched::InvariantProbe`]
/// (causality, per-resource capacity, byte conservation); a violation
/// fails that run with [`mha_simnet::SimError::Invariant`], which the
/// binary reports as an error. It goes through
/// [`mha_simnet::set_check_enabled`], so it works however early the
/// `MHA_CHECK` cache was read. `--tuned` loads [`Cli::tuned`]; without it
/// the sweeps stay byte-identical to their untuned output.
#[derive(Debug)]
pub struct Cli {
    /// The tuning table at [`Env::tuned_table`], when `--tuned` was given.
    pub tuned: Option<mha_collectives::TunedTable>,
    /// The campaign, results and tuning-table settings.
    pub env: Env,
    given: Vec<(&'static str, Option<String>)>,
}

/// The settings a binary takes from its environment, resolved once by
/// [`Cli::read_env`].
#[derive(Debug)]
pub struct Env {
    /// [`CampaignConfig::default`] with `MHA_CAMPAIGN_WORKERS`,
    /// `MHA_CAMPAIGN_REPS` and `MHA_CAMPAIGN_SEED` applied.
    pub campaign: CampaignConfig,
    /// Where results are written: `MHA_RESULTS_DIR`, else `results`
    /// (relative to the working directory).
    pub results_dir: PathBuf,
    /// The tuning table the binaries serve and `mha_tune` writes by
    /// default: `MHA_TUNED_TABLE`, else `tuned_thor.mtab` under
    /// [`Env::results_dir`].
    pub tuned_table: PathBuf,
}

impl Cli {
    /// Parses `std::env::args()` against `accepts`, then reads the
    /// environment ([`Cli::read_env`]).
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
        let env = Cli::read_env().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        let mut cli = Cli {
            tuned: None,
            env,
            given,
        };
        if cli.has("--check") {
            mha_simnet::set_check_enabled(Some(true));
            eprintln!("[--check: invariant probes active on every simulated run]");
        }
        if cli.has("--tuned") {
            cli.tuned = Some(cli.load_tuned_table());
        }
        cli
    }

    /// Reads `MHA_CAMPAIGN_{WORKERS,REPS,SEED}`, `MHA_RESULTS_DIR` and
    /// `MHA_TUNED_TABLE` from the process environment: the one reader of
    /// these variables. A binary with a command line of its own calls it
    /// directly. A campaign variable that is set but not a number is an
    /// error naming it; an empty one counts as unset.
    pub fn read_env() -> Result<Env, String> {
        resolve_env(|name| std::env::var_os(name))
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

    /// Loads the table at [`Env::tuned_table`], the serving half of the
    /// `mha-tune` autotuner. A table that cannot be loaded exits 2: the
    /// user asked for tuned numbers, so there is no silent fallback.
    pub fn load_tuned_table(&self) -> mha_collectives::TunedTable {
        let path = &self.env.tuned_table;
        match mha_collectives::TunedTable::load(path) {
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

    /// Prints the table and saves `<results_dir>/<name>.csv`. A file that
    /// cannot be written exits 1.
    pub fn emit(&self, table: &Table, name: &str) {
        println!("{}", table.to_text());
        self.save(&table.to_csv(), &format!("{name}.csv"));
    }

    /// Prints a free-form artifact (timelines, op dumps) and saves it as
    /// `<results_dir>/<name>.txt`. A file that cannot be written exits 1.
    pub fn emit_text(&self, content: &str, name: &str) {
        println!("{content}");
        self.save(content, &format!("{name}.txt"));
    }

    /// Saves `body` as `<results_dir>/<file>`, or exits 1 naming the path:
    /// a run whose results are missing has failed.
    fn save(&self, body: &str, file: &str) {
        match save_in(&self.env.results_dir, body, file) {
            Ok(path) => println!("[saved {}]", path.display()),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    /// Re-simulates `sched` with a [`SummaryProbe`] attached and prints the
    /// per-rail/CPU/memory utilization + overlap block, saving it as
    /// `<results_dir>/<name>_summary.txt`. The `fig*` binaries call this
    /// once on a representative workload after their sweep tables. A
    /// failed run (under `--check`, an invariant violation) exits 1.
    pub fn emit_run_summary(&self, sim: &Simulator, sched: &FrozenSchedule, name: &str) {
        let mut probe = SummaryProbe::new();
        if let Err(e) = sim.run_probed(sched, &mut probe) {
            eprintln!("error: summary run for {name} failed: {e}");
            std::process::exit(1);
        }
        self.emit_text(
            &render_run_summary(&probe.finish()),
            &format!("{name}_summary"),
        );
    }
}

/// Resolves [`Env`] from `var`, a lookup of one variable by name.
fn resolve_env(var: impl Fn(&str) -> Option<OsString>) -> Result<Env, String> {
    let mut campaign = CampaignConfig::default();
    if let Some(w) = parse_var::<usize>(&var, "MHA_CAMPAIGN_WORKERS")? {
        campaign.workers = w.max(1);
    }
    if let Some(r) = parse_var::<u32>(&var, "MHA_CAMPAIGN_REPS")? {
        campaign.reps = r.max(1);
    }
    if let Some(s) = parse_var::<u64>(&var, "MHA_CAMPAIGN_SEED")? {
        campaign.seed = s;
    }
    let results_dir =
        var("MHA_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from);
    let tuned_table =
        var("MHA_TUNED_TABLE").map_or_else(|| results_dir.join("tuned_thor.mtab"), PathBuf::from);
    Ok(Env {
        campaign,
        results_dir,
        tuned_table,
    })
}

/// Variable `name` parsed as a `T`: `None` when it is unset or blank, an
/// error naming it when it does not parse.
fn parse_var<T: FromStr>(
    var: &impl Fn(&str) -> Option<OsString>,
    name: &str,
) -> Result<Option<T>, String> {
    let Some(raw) = var(name) else {
        return Ok(None);
    };
    match raw.to_string_lossy().trim() {
        "" => Ok(None),
        text => text.parse().map(Some).map_err(|_| {
            format!(
                "{name}=`{text}` is not a valid {}",
                std::any::type_name::<T>()
            )
        }),
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

/// Writes `body` to `dir/file`, creating `dir`; returns the path written,
/// or a `cannot write …` message naming the path that failed.
fn save_in(dir: &Path, body: &str, file: &str) -> Result<PathBuf, String> {
    let path = dir.join(file);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, body))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
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

    /// [`resolve_env`] over a fixed variable list, not the process's.
    fn resolve(vars: &[(&str, &str)]) -> Result<Env, String> {
        resolve_env(|name| {
            let (_, v) = vars.iter().find(|(n, _)| *n == name)?;
            Some(OsString::from(v))
        })
    }

    #[test]
    fn unset_variables_resolve_to_the_defaults() {
        let env = resolve(&[]).unwrap();
        let default = CampaignConfig::default();
        assert_eq!(env.campaign.workers, default.workers);
        assert_eq!((env.campaign.reps, env.campaign.seed), (1, 0));
        assert_eq!(env.results_dir, Path::new("results"));
        assert_eq!(env.tuned_table, Path::new("results/tuned_thor.mtab"));
    }

    #[test]
    fn set_variables_override_the_defaults() {
        let env = resolve(&[
            ("MHA_CAMPAIGN_WORKERS", " 3 "),
            ("MHA_CAMPAIGN_REPS", "0"),
            ("MHA_CAMPAIGN_SEED", "42"),
            ("MHA_RESULTS_DIR", "runs/a"),
        ])
        .unwrap();
        assert_eq!(env.campaign.workers, 3);
        assert_eq!(env.campaign.reps, 1, "reps clamp to at least 1");
        assert_eq!(env.campaign.seed, 42);
        assert_eq!(env.tuned_table, Path::new("runs/a/tuned_thor.mtab"));
        let env = resolve(&[("MHA_CAMPAIGN_WORKERS", ""), ("MHA_TUNED_TABLE", "t.mtab")]).unwrap();
        assert_eq!(env.campaign.workers, CampaignConfig::default().workers);
        assert_eq!(env.tuned_table, Path::new("t.mtab"));
    }

    #[test]
    fn a_malformed_number_is_an_error_naming_its_variable() {
        for (name, value) in [
            ("MHA_CAMPAIGN_WORKERS", "eight"),
            ("MHA_CAMPAIGN_REPS", "-1"),
            ("MHA_CAMPAIGN_SEED", "1.5"),
        ] {
            let e = resolve(&[(name, value)]).unwrap_err();
            assert!(e.contains(&format!("{name}=`{value}`")), "{e}");
        }
    }

    #[test]
    fn emit_text_writes_artifact() {
        let dir = std::env::temp_dir().join(format!("mha-bench-save-{}", std::process::id()));
        let path = save_in(&dir, "hello", "selftest.txt").unwrap();
        assert_eq!(path, dir.join("selftest.txt"));
        let body = std::fs::read_to_string(dir.join("selftest.txt")).unwrap();
        assert_eq!(body, "hello");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
