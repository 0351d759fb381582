//! `mha-conformance <oracle> [--cases N]`: runs one conformance oracle at
//! its fixed seed, prints the report and exits non-zero on any
//! disagreement. The campaign pool width follows `MHA_CAMPAIGN_WORKERS`.
//!
//! ```text
//! cargo run --release -p mha-conformance -- differential --cases 1000
//! ```

use std::fmt;
use std::process::ExitCode;

use mha_bench::campaign::CampaignConfig;
use mha_conformance::{
    check_kill_rate, check_model_envelope, run, Crash, Differential, Faults, Fuzz, Oracle, Report,
    Traffic, Tuned, Waterfill,
};

const ORACLES: [&str; 7] = [
    Differential::NAME,
    Faults::NAME,
    Crash::NAME,
    Tuned::NAME,
    Waterfill::NAME,
    Traffic::NAME,
    Fuzz::NAME,
];

/// A rejected command line.
#[derive(Debug)]
enum ArgError {
    MissingOracle,
    UnknownOracle(String),
    UnknownArgument(String),
    BadCases(String),
    ZeroCases,
    FixedCases(usize),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingOracle => write!(f, "no oracle named"),
            ArgError::UnknownOracle(o) => write!(f, "unknown oracle `{o}`"),
            ArgError::UnknownArgument(a) => write!(f, "unexpected argument `{a}`"),
            ArgError::BadCases(v) => write!(f, "--cases needs a positive integer, got `{v}`"),
            ArgError::ZeroCases => write!(f, "--cases must be at least 1"),
            ArgError::FixedCases(n) => write!(
                f,
                "{} checks exactly its {} pinned cases, got --cases {n}",
                Waterfill::NAME,
                Waterfill::DEFAULT_CASES
            ),
        }
    }
}

/// `(oracle, cases)`: a name from [`ORACLES`] and a positive count, or
/// `None` for the oracle's default.
fn parse(args: &[String]) -> Result<(&'static str, Option<usize>), ArgError> {
    let mut oracle = None;
    let mut cases = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cases" => {
                let v = it.next().ok_or(ArgError::BadCases(String::new()))?;
                let n: usize = v.parse().map_err(|_| ArgError::BadCases(v.clone()))?;
                cases = Some(n);
            }
            name if oracle.is_none() && !name.starts_with('-') => oracle = Some(name.to_string()),
            other => return Err(ArgError::UnknownArgument(other.to_string())),
        }
    }
    let name = oracle.ok_or(ArgError::MissingOracle)?;
    let oracle = *ORACLES
        .iter()
        .find(|o| **o == name)
        .ok_or(ArgError::UnknownOracle(name))?;
    match cases {
        Some(0) => Err(ArgError::ZeroCases),
        Some(n) if oracle == Waterfill::NAME && n != Waterfill::DEFAULT_CASES => {
            Err(ArgError::FixedCases(n))
        }
        _ => Ok((oracle, cases)),
    }
}

fn sweep<O: Oracle>(oracle: O, cases: Option<usize>) -> Report {
    run(
        oracle,
        cases.unwrap_or(O::DEFAULT_CASES),
        &CampaignConfig::from_env(),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (oracle, cases) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: mha-conformance <{}> [--cases N]",
                ORACLES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match oracle {
        Differential::NAME => {
            let mut r = sweep(Differential, cases);
            r.disagreements.extend(check_model_envelope());
            r
        }
        Faults::NAME => sweep(Faults, cases),
        Crash::NAME => sweep(Crash, cases),
        Tuned::NAME => match Tuned::shipped() {
            Ok(t) => sweep(t, cases),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        Waterfill::NAME => sweep(Waterfill, cases),
        Traffic::NAME => sweep(Traffic::armed(), cases),
        Fuzz::NAME => {
            let mut r = sweep(Fuzz, cases);
            r.disagreements.extend(check_kill_rate(&r).err());
            r
        }
        _ => unreachable!("parse admits only known oracles"),
    };
    println!("{report}");
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
