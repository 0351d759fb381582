//! Figures 6/7: overlap of inter-node transfers with intra-node shm copies
//! during phases 2/3, Ring vs Recursive Doubling.
//!
//! One simulation per config feeds two probe sinks through [`Tee`]: the
//! timeline ([`TraceBuilder`]) for the phase-filtered interval math, and a
//! [`SummaryProbe`] whose whole-run overlap fraction is the headline metric.
//! Each config is one campaign point (see `mha_bench::campaign`); its row
//! carries the six metrics and the rendered run summary rides in the note.

use mha_collectives::{build, AlgoConfig};
use std::sync::Arc;

use mha_apps::report::{render_run_summary, Table};
use mha_bench::campaign::{run_campaign, CampaignPoint, Row};
use mha_collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha_sched::{intersection_length, union_length, ProcGrid, SummaryProbe, Tee};
use mha_simnet::{ClusterSpec, Simulator, TraceBuilder};

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let spec = ClusterSpec::thor();
    let sim = Arc::new(Simulator::new(spec.clone()).unwrap());
    let msg = 64 * 1024;
    let configs = [
        (4u32, InterAlgo::Ring, "ppn4/Ring"),
        (4, InterAlgo::RecursiveDoubling, "ppn4/RD"),
        (32, InterAlgo::Ring, "ppn32/Ring"),
        (32, InterAlgo::RecursiveDoubling, "ppn32/RD"),
    ];
    let points: Vec<CampaignPoint> = configs
        .iter()
        .map(|&(ppn, algo, name)| {
            let sim = Arc::clone(&sim);
            let spec = spec.clone();
            CampaignPoint::custom(name, move |_seed| {
                let grid = ProcGrid::new(8, ppn);
                let cfg = MhaInterConfig {
                    inter: algo,
                    offload: Offload::None, // isolate the phase-2/3 overlap effect
                    overlap: true,
                };
                let built = build(&AlgoConfig::mha_inter(cfg), grid, msg, &spec)
                    .map_err(|e| format!("{e:?}"))?;
                let mut tb = TraceBuilder::new();
                let mut sp = SummaryProbe::new();
                let res = sim
                    .run_probed(&built.sched, &mut Tee(&mut tb, &mut sp))
                    .map_err(|e| e.to_string())?;
                let latency_us = res.latency_us();
                let trace = tb.finish(&built.sched);
                let summary = sp.finish();
                // Phase-2 network transfers carry step tags >= 1000; phase-3
                // copies >= 2000.
                let net = trace.intervals_where(|s, m| {
                    let _ = s;
                    m.kind == "rails" && m.step.is_some_and(|st| st >= 1000)
                });
                let copies = trace.intervals_where(|s, m| {
                    let _ = s;
                    m.kind == "copy" && m.step.is_some_and(|st| st >= 2000)
                });
                let net_busy = union_length(&net) * 1e6;
                let copy_busy = union_length(&copies) * 1e6;
                let overlap = intersection_length(&net, &copies) * 1e6;
                let mut note = format!("[{name}] ");
                note.push_str(&render_run_summary(&summary));
                Ok(vec![Row {
                    label: name.to_string(),
                    values: vec![
                        latency_us,
                        net_busy,
                        copy_busy,
                        overlap,
                        100.0 * overlap / net_busy.max(1e-12),
                        100.0 * summary.overlap_fraction(),
                    ],
                    note: Some(note),
                }])
            })
        })
        .collect();
    let report = run_campaign(&points, &cli.env.campaign).unwrap();
    let mut t = Table::new(
        "Figure 6/7: phase-2/3 overlap, 8 nodes, 64 KB per rank \
         (PPN 4 = network-bound regime, PPN 32 = copy-bound regime)",
        "config",
        vec![
            "latency_us".into(),
            "net_busy_us".into(),
            "copy_busy_us".into(),
            "overlap_us".into(),
            "overlap_pct_of_net".into(),
            "whole_run_overlap_pct".into(),
        ],
    );
    let mut summaries = String::new();
    for pr in &report.results {
        for row in &pr.rows {
            t.push(row.label.clone(), row.values.clone());
            if let Some(n) = &row.note {
                summaries.push_str(n);
            }
        }
    }
    cli.emit(&t, "fig07_overlap");
    cli.emit_text(&summaries, "fig07_overlap_summary");
}
