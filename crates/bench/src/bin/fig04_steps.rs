//! Figure 4: step structure of Direct Spread vs MHA-intra with 4 processes
//! and 2 HCAs — the offloaded transfers leave only two CPU steps. The two
//! latency cells run as campaign points (see `mha_bench::campaign`); the
//! op dumps are rendered at assembly.

use mha_bench::campaign::{run_campaign, CampaignPoint};
use mha_collectives::mha::{build_mha_intra, Offload};
use mha_collectives::{build, AlgoConfig, Family};
use mha_sched::{OpKind, ProcGrid};
use mha_simnet::{ClusterSpec, Simulator};
use std::fmt::Write as _;

fn dump(title: &str, built: &mha_collectives::Built, out: &mut String) {
    let _ = writeln!(out, "== {title} ({}) ==", built.sched.name());
    for op in built.sched.ops() {
        let what = match &op.kind {
            OpKind::Transfer {
                src_rank,
                dst_rank,
                channel,
                ..
            } => {
                format!("{src_rank} -> {dst_rank} via {channel:?}")
            }
            OpKind::Copy { actor, .. } => format!("self-copy @ {actor}"),
            other => format!("{other:?}"),
        };
        let _ = writeln!(out, "  step {:>2}: {what}", op.step);
    }
}

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    let grid = ProcGrid::single_node(4);
    let msg = 4 << 20;
    let ds = build(&AlgoConfig::flat(Family::DirectSpread), grid, msg, &spec).unwrap();
    let mha = build_mha_intra(grid, msg, Offload::Auto, &spec).unwrap();

    let ds_sched = ds.sched.clone();
    let mha_sched = mha.sched.clone();
    let cells = vec![
        CampaignPoint::sim("direct_spread", spec.clone(), move || Ok(ds_sched.clone())),
        CampaignPoint::sim("mha_intra", spec.clone(), move || Ok(mha_sched.clone())),
    ];
    let report = run_campaign(&cells, &cli.env.campaign).unwrap();
    let t_ds = report.value(0);
    let t_mha = report.value(1);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4: 4 processes, 4 MB blocks, 2 HCAs\n\
         Direct Spread: 3 CPU steps, {t_ds:.1} us\n\
         MHA-intra:     CPU steps overlap HCA transfers, {t_mha:.1} us \
         ({:.0}% faster)\n",
        (1.0 - t_mha / t_ds) * 100.0
    );
    dump("Direct Spread (Fig. 4a)", &ds, &mut out);
    dump("MHA-intra (Fig. 4b)", &mha, &mut out);
    cli.emit_text(&out, "fig04_steps");
    cli.emit_run_summary(&sim, &mha.sched, "fig04_steps");
}
