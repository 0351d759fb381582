//! Figure 2: timeline view of a flat Ring Allgather on 2 nodes × 2 PPN —
//! the motivation trace showing intra-node hops throttling the ring.
//! The traced run is one campaign point (see `mha_bench::campaign`) whose
//! rendered artifact rides in the row's note.

use mha_bench::campaign::{run_campaign, CampaignPoint, Row};
use mha_collectives::{build, AlgoConfig, Family};
use mha_sched::ProcGrid;
use mha_simnet::{ClusterSpec, Simulator, TraceBuilder};

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    let grid = ProcGrid::new(2, 2);
    let msg = 1 << 20;
    let built = build(&AlgoConfig::flat(Family::Ring), grid, msg, &spec).unwrap();

    let spec2 = spec.clone();
    let points = vec![CampaignPoint::custom("timeline", move |_seed| {
        let sim = Simulator::new(spec2.clone()).map_err(|e| e.to_string())?;
        let built = build(&AlgoConfig::flat(Family::Ring), grid, msg, &spec2)
            .map_err(|e| format!("{e:?}"))?;
        let mut tb = TraceBuilder::new();
        sim.run_probed(&built.sched, &mut tb)
            .map_err(|e| e.to_string())?;
        let trace = tb.finish(&built.sched);
        let mut out = String::new();
        out.push_str("Figure 2: flat Ring Allgather, 2 nodes x 2 PPN, 1 MB per rank\n");
        out.push_str("(c = CMA transfer by receiver CPU, r = rail transfer, o = copy)\n\n");
        out.push_str(&trace.render_ascii(100));
        out.push_str("\nPer-op CSV:\n");
        out.push_str(&trace.to_csv());
        Ok(vec![Row::note("timeline", out)])
    })];
    let report = run_campaign(&points, &cli.env.campaign).unwrap();
    let out = report.rows_for(0)[0].note.clone().unwrap();
    cli.emit_text(&out, "fig02_timeline");
    cli.emit_run_summary(&sim, &built.sched, "fig02_timeline");
}
