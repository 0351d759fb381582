//! `price_configs` simulates one config per group of configs that build
//! the same schedule for the same simulator. The grouping must not be
//! visible from outside: every latency equals, bit for bit, the latency of
//! the config priced alone in its own one-point campaign, at any worker
//! count.

use std::collections::HashMap;

use mha_bench::campaign::{run_campaign, CampaignConfig, CampaignPoint};
use mha_sched::{Channel, OpKind, ProcGrid, Schedule};
use mha_simnet::{ClusterSpec, FaultSpec};
use mha_tune::search::{down_rails, fault_timeline, price_configs};
use mha_tune::{candidates, AlgoConfig};

/// The `stripes()` answer for each `AllRails` transfer of `sch`, in op
/// order: what the engine reads of the stripe threshold.
fn stripe_decisions(sch: &Schedule, spec: &ClusterSpec) -> Vec<bool> {
    sch.ops()
        .iter()
        .filter_map(|op| match op.kind {
            OpKind::Transfer {
                len,
                channel: Channel::AllRails,
                ..
            } => Some(spec.stripes(len as usize)),
            _ => None,
        })
        .collect()
}

/// `c` priced alone: one campaign with one point, no grouping.
fn price_alone(
    c: &AlgoConfig,
    grid: ProcGrid,
    msg: usize,
    faults: Option<&FaultSpec>,
    spec: &ClusterSpec,
) -> f64 {
    let sim_spec = c.effective_spec(spec).into_owned();
    let build_spec = sim_spec.clone();
    let c = c.clone();
    let point = CampaignPoint::sim_faulty("alone", sim_spec, faults.cloned(), move || {
        mha_tune::build(&c, grid, msg, &build_spec)
            .map(|b| b.sched)
            .map_err(|e| e.to_string())
    });
    let cfg = CampaignConfig {
        workers: 1,
        ..CampaignConfig::default()
    };
    run_campaign(&[point], &cfg).unwrap().value(0)
}

#[test]
fn grouped_prices_match_each_config_priced_alone() {
    let spec = ClusterSpec::thor();
    let grid = ProcGrid::new(4, 4);
    let msg = 4096;
    for rails_up in [spec.rails, 1] {
        let down = down_rails(rails_up, spec.rails);
        let faults = fault_timeline(&down);
        let configs = candidates(grid, &down);
        let alone: Vec<u64> = configs
            .iter()
            .map(|c| price_alone(c, grid, msg, faults.as_ref(), &spec).to_bits())
            .collect();

        // The point must exercise the grouping: some configs share a
        // schedule, and on the healthy fabric two of those differ in a
        // stripe decision and so in latency, which a key without the
        // spec's view of the schedule would merge. (Degraded MHA builds
        // place their rails themselves, leaving no stripe decision to the
        // engine.)
        let mut by_fp: HashMap<u64, Vec<(Vec<bool>, u64)>> = HashMap::new();
        for (c, &price) in configs.iter().zip(&alone) {
            let sim_spec = c.effective_spec(&spec).into_owned();
            let fs = mha_tune::build(c, grid, msg, &sim_spec).unwrap().sched;
            by_fp
                .entry(fs.fingerprint().0)
                .or_default()
                .push((stripe_decisions(&fs, &sim_spec), price));
        }
        assert!(
            by_fp.len() < configs.len(),
            "r{rails_up}: no two configs share a schedule"
        );
        if rails_up == spec.rails {
            assert!(
                by_fp
                    .values()
                    .any(|g| g.iter().any(|(d, p)| d != &g[0].0 && p != &g[0].1)),
                "r{rails_up}: no shared schedule prices differently under another stripe decision"
            );
        }

        for workers in [1, 2] {
            let cfg = CampaignConfig {
                workers,
                ..CampaignConfig::default()
            };
            let grouped: Vec<u64> =
                price_configs(&configs, grid, msg, faults.as_ref(), &spec, &cfg)
                    .unwrap()
                    .into_iter()
                    .map(f64::to_bits)
                    .collect();
            for (i, c) in configs.iter().enumerate() {
                assert_eq!(
                    grouped[i],
                    alone[i],
                    "r{rails_up}, {workers} workers: {} priced {} grouped, {} alone",
                    c.to_kv(),
                    f64::from_bits(grouped[i]),
                    f64::from_bits(alone[i])
                );
            }
        }
    }
}
