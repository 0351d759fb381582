//! The composer-built 3-level NUMA sweep: NUMA-aware (with and without
//! cross-socket HCA offload) versus the NUMA-blind 2-level design, every
//! schedule built by the generic hierarchical composer over an explicit
//! topology tree. Each 3-level cell is
//! also validated against the per-level α–β model
//! ([`mha_model::composed_latency`]): the simulated makespan must stay
//! within the 2× envelope of the prediction (the conformance crate's
//! model envelope), so the sweep doubles as a model-conformance gate.

use mha_apps::report::{fmt_bytes, Table};
use mha_bench::campaign::{run_campaign, CampaignPoint};
use mha_collectives::mha::MhaInterConfig;
use mha_collectives::{build_composed, ComposePlan};
use mha_model::{composed_latency, ModelParams};
use mha_sched::{ProcGrid, Topology};
use mha_simnet::{size_sweep, ClusterSpec};

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let spec = ClusterSpec::thor_numa();
    let grid = ProcGrid::new(4, 16);
    // The NUMA spec's own tree: 4 nodes × 2 sockets × 8 ranks, with real
    // per-level link parameters (rails / cross-socket / CMA) for the model.
    let topo3 = spec.topology_of(&grid);
    assert_eq!(topo3.depth(), 3, "thor_numa must induce a 3-level tree");
    let topo2 = Topology::two_level(grid.nodes(), grid.ppn());
    let sizes = size_sweep(4096, 1 << 20);

    let mut cells = Vec::new();
    for &msg in &sizes {
        let plans: [(&str, &Topology, ComposePlan); 3] = [
            (
                "blind",
                &topo2,
                ComposePlan::mha_inter(MhaInterConfig::default()),
            ),
            ("aware", &topo3, ComposePlan::numa3(true)),
            ("no_offload", &topo3, ComposePlan::numa3(false)),
        ];
        for (label, topo, plan) in plans {
            let (spec2, topo, plan) = (spec.clone(), topo.clone(), plan.clone());
            cells.push(CampaignPoint::sim(label, spec.clone(), move || {
                build_composed(&topo, msg, &plan, &spec2)
                    .map(|b| b.sched)
                    .map_err(|e| format!("{e:?}"))
            }));
        }
    }
    let report = run_campaign(&cells, &cli.env.campaign).unwrap();

    let envelope = 2.0f64;
    let p = ModelParams::from_spec(&spec);
    let mut t = Table::new(
        "Composer-built 3-level NUMA-aware vs 2-level NUMA-blind, 4 nodes x 16 PPN \
         (dual-socket; 3-level cells checked against the per-level model)",
        "msg_bytes",
        vec![
            "2level_blind_us".into(),
            "3level_numa_us".into(),
            "3level_no_offload_us".into(),
            "gain_pct".into(),
            "model_ratio".into(),
        ],
    );
    for (i, &msg) in sizes.iter().enumerate() {
        let t_blind = report.value(3 * i);
        let t_aware = report.value(3 * i + 1);
        let t_noload = report.value(3 * i + 2);
        // The model gate: both 3-level cells inside the envelope.
        let mut aware_ratio = f64::NAN;
        for (off, cell, sim_s) in [
            (true, 3 * i + 1, report.makespan(3 * i + 1)),
            (false, 3 * i + 2, report.makespan(3 * i + 2)),
        ] {
            let predicted = composed_latency(&p, &topo3, &ComposePlan::numa3(off), msg)
                .expect("numa3 plan must be priceable");
            let ratio = sim_s / predicted;
            assert!(
                (1.0 / envelope..=envelope).contains(&ratio),
                "cell {cell} (msg={msg}, offload={off}): simulated {sim_s:.3e}s vs \
                 model {predicted:.3e}s (ratio {ratio:.2} outside ±{envelope}x)"
            );
            if off {
                aware_ratio = ratio;
            }
        }
        t.push(
            fmt_bytes(msg),
            vec![
                t_blind,
                t_aware,
                t_noload,
                (1.0 - t_aware / t_blind) * 100.0,
                aware_ratio,
            ],
        );
    }
    cli.emit(&t, "ablate_numa3");
}
