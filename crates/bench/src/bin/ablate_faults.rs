//! Ablation: graceful degradation under rail failures. Sweeps `k` rails
//! failing *mid-run* (at 2% of the fault-free makespan, while the rail
//! traffic is in flight) on an 8-rail cluster and compares two strategies
//! against the α–β model evaluated at `H − k` rails:
//!
//! * `oblivious`: the fault-oblivious schedule — `AllRails` flows already
//!   in flight on a dying rail stall, then re-issue on a survivor after
//!   the retry timeout; flows started after the fault resolve against the
//!   surviving set automatically;
//! * `aware`: the failure-aware build whose leader exchanges are re-tiled
//!   over the surviving set up front (its intra-node offload traffic is
//!   still `AllRails`, so mid-run faults cost both strategies the same
//!   in-flight stalls);
//! * `model`: `T(H − k)` — the ideal a degraded run should track (the
//!   conformance bar requires staying within 2x of it).
//!
//! The per-`k` simulations run as one campaign (see
//! `mha_bench::campaign`). One oblivious schedule is priced under all
//! eight fault timelines; the `k = 0` row's timeline is empty, so its simulator is constructed
//! fault-free (`simulator_for` gates the fault machinery on
//! `!events.is_empty()`).

use mha_apps::report::Table;
use mha_bench::campaign::{run_campaign, CampaignPoint};
use mha_collectives::mha::MhaInterConfig;
use mha_collectives::{build, AlgoConfig};
use mha_model::{mha_inter_latency, ModelParams, Phase2};
use mha_sched::ProcGrid;
use mha_simnet::{ClusterSpec, FaultEvent, FaultKind, FaultSpec, Simulator, DEFAULT_RETRY_TIMEOUT};

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let rails = 8u8;
    let grid = ProcGrid::new(4, 4);
    let msg = 256 * 1024;
    let spec = ClusterSpec::thor_with_rails(rails);
    let cfg = MhaInterConfig::default();

    let oblivious = build(&AlgoConfig::mha_inter(cfg), grid, msg, &spec).unwrap();
    let healthy = Simulator::new(spec.clone()).unwrap();
    let t_fault = 0.02 * healthy.run(&oblivious.sched).unwrap().makespan;

    let mut cells = Vec::new();
    for k in 0..rails {
        let down: Vec<u8> = (0..k).collect();
        let mut faults = FaultSpec::new(DEFAULT_RETRY_TIMEOUT);
        for &r in &down {
            faults = faults.with_event(FaultEvent {
                time: t_fault,
                rail: r,
                node: None,
                kind: FaultKind::Down,
            });
        }
        // One oblivious schedule serves every k; only the fault timeline
        // varies.
        let sched = oblivious.sched.clone();
        cells.push(CampaignPoint::sim_faulty(
            "oblivious",
            spec.clone(),
            Some(faults.clone()),
            move || Ok(sched.clone()),
        ));
        let spec2 = spec.clone();
        let aware = AlgoConfig {
            down_rails: down,
            ..AlgoConfig::mha_inter(cfg)
        };
        cells.push(CampaignPoint::sim_faulty(
            "aware",
            spec.clone(),
            Some(faults),
            move || {
                build(&aware, grid, msg, &spec2)
                    .map(|b| b.sched)
                    .map_err(|e| format!("{e:?}"))
            },
        ));
    }
    let report = run_campaign(&cells, &cli.env.campaign).unwrap();

    let mut table = Table::new(
        "Ablation: MHA-inter latency (us), k of 8 rails fail mid-run, 4 nodes x 4 PPN, 256 KB",
        "k_down",
        vec![
            "oblivious_us".into(),
            "aware_us".into(),
            "model_us".into(),
            "aware_vs_model".into(),
        ],
    );
    for k in 0..rails {
        let i = usize::from(k);
        let t_obl = report.value(2 * i);
        let t_aware = report.value(2 * i + 1);
        let p = ModelParams::from_spec(&ClusterSpec::thor_with_rails(rails - k));
        let t_model = mha_inter_latency(&p, grid.nodes(), grid.ppn(), msg, Phase2::Ring) * 1e6;
        table.push(
            k.to_string(),
            vec![t_obl, t_aware, t_model, t_aware / t_model],
        );
    }
    cli.emit(&table, "ablate_faults");
}
