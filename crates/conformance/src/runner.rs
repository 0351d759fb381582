//! The one conformance runner: every oracle is an [`Oracle`], and [`run`]
//! is the fixed driver under it.
//!
//! An oracle only says how to draw a case and how to judge one. The runner
//! owns everything else: the seeded RNG, sequential sampling (so the case
//! stream never depends on the pool), fan-out over the campaign worker
//! pool (a failing case is a disagreement, never an aborted sweep), and
//! index-ordered assembly of one [`Report`] — identical at any pool width.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use mha_bench::campaign::{run_campaign, CampaignConfig, CampaignPoint, Row};
use rand::{rngs::StdRng, SeedableRng};

/// A conformance oracle: a seeded case sampler plus a per-case judge.
pub trait Oracle: Send + Sync + 'static {
    /// The name the CLI selects the oracle by.
    const NAME: &'static str;
    /// The seed of the case stream; fixed, so every sweep is reproducible.
    const SEED: u64;
    /// The case count of the acceptance sweep.
    const DEFAULT_CASES: usize;
    /// One drawn case; its `Display` form is the case's greppable label.
    type Case: fmt::Display + Send + Sync + 'static;

    /// Draws case `i` from the shared stream. Called in index order.
    fn sample(&self, rng: &mut StdRng, i: usize) -> Self::Case;

    /// Judges one case: `Ok` with a label the runner tallies, or a
    /// description of the disagreement.
    fn check(&self, case: &Self::Case) -> Result<&'static str, String>;
}

/// The outcome of one sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The oracle's [`Oracle::NAME`].
    pub oracle: &'static str,
    /// Cases checked.
    pub cases: usize,
    /// Passing cases per `Ok` label.
    pub tally: BTreeMap<String, usize>,
    /// One line per failing case (or extra check), in case order.
    pub disagreements: Vec<String>,
}

impl Report {
    /// Whether the sweep found no disagreement.
    pub fn is_clean(&self) -> bool {
        self.disagreements.is_empty()
    }

    /// Passing cases labelled `tag`.
    pub fn count(&self, tag: &str) -> usize {
        self.tally.get(tag).copied().unwrap_or(0)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} cases, {} disagreement(s); tally",
            self.oracle,
            self.cases,
            self.disagreements.len()
        )?;
        for (tag, n) in &self.tally {
            write!(f, " {tag}={n}")?;
        }
        for d in &self.disagreements {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

/// Runs `cases` cases of `oracle` on `pool`'s workers (its repetition
/// count is ignored: the case count is the sweep's repetition policy).
pub fn run<O: Oracle>(oracle: O, cases: usize, pool: &CampaignConfig) -> Report {
    let oracle = Arc::new(oracle);
    let mut rng = StdRng::seed_from_u64(O::SEED);
    let points: Vec<CampaignPoint> = (0..cases)
        .map(|i| {
            let case = oracle.sample(&mut rng, i);
            let oracle = Arc::clone(&oracle);
            CampaignPoint::custom(case.to_string(), move |_seed| {
                Ok(vec![match oracle.check(&case) {
                    Ok(tag) => Row::new(tag, Vec::new()),
                    Err(e) => Row::note(case.to_string(), e),
                }])
            })
        })
        .collect();
    let pool = CampaignConfig {
        reps: 1,
        ..pool.clone()
    };
    let done = run_campaign(&points, &pool).expect("custom points never fail the pool");

    let mut report = Report {
        oracle: O::NAME,
        cases,
        tally: BTreeMap::new(),
        disagreements: Vec::new(),
    };
    for pr in &done.results {
        for row in &pr.rows {
            match &row.note {
                Some(e) => report.disagreements.push(format!(
                    "{} case {} [{}]: {e}",
                    O::NAME,
                    pr.point,
                    row.label
                )),
                None => *report.tally.entry(row.label.clone()).or_default() += 1,
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Fails every odd index; labels even ones by their draw's parity.
    struct Toy;

    struct ToyCase {
        i: usize,
        draw: u32,
    }

    impl fmt::Display for ToyCase {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "#{} draw={}", self.i, self.draw)
        }
    }

    impl Oracle for Toy {
        const NAME: &'static str = "toy";
        const SEED: u64 = 5;
        const DEFAULT_CASES: usize = 40;
        type Case = ToyCase;

        fn sample(&self, rng: &mut StdRng, i: usize) -> ToyCase {
            ToyCase {
                i,
                draw: rng.gen_range(0..1000),
            }
        }

        fn check(&self, &ToyCase { i, draw }: &ToyCase) -> Result<&'static str, String> {
            if i % 2 == 1 {
                Err(format!("odd {i}"))
            } else if draw % 2 == 0 {
                Ok("even-draw")
            } else {
                Ok("odd-draw")
            }
        }
    }

    #[test]
    fn every_case_reports_in_index_order_at_any_pool_width() {
        let n = Toy::DEFAULT_CASES;
        let serial = run(Toy, n, &CampaignConfig::default().with_workers(1));
        let pooled = run(Toy, n, &CampaignConfig::default().with_workers(8));
        assert_eq!(serial, pooled);

        assert_eq!((serial.oracle, serial.cases), ("toy", n));
        assert_eq!(serial.tally.values().sum::<usize>(), n / 2);
        let mut rng = StdRng::seed_from_u64(Toy::SEED);
        let draws: Vec<u32> = (0..n).map(|i| Toy.sample(&mut rng, i).draw).collect();
        let even_draws = draws.iter().step_by(2).filter(|d| *d % 2 == 0).count();
        assert_eq!(serial.count("even-draw"), even_draws);
        assert_eq!(serial.count("odd-draw"), n / 2 - even_draws);

        let want: Vec<String> = (1..n)
            .step_by(2)
            .map(|i| format!("toy case {i} [#{i} draw={}]: odd {i}", draws[i]))
            .collect();
        assert_eq!(serial.disagreements, want);
        assert!(!serial.is_clean());
    }
}
