//! Figure 14: inter-node Allgather on 1024 processes
//! (32 nodes x 32 PPN), medium and large message sweeps. Both panels run
//! as campaigns (see `mha_bench::campaign`). With `--tuned` each panel
//! gains an `MHA-tuned` column served from the `mha-tune` tuning table
//! (`results/tuned_thor.mtab`, or `MHA_TUNED_TABLE` as read by
//! `mha_bench::Cli`) by pure probes.

use mha_apps::paper_contestants;
use mha_bench::campaign::allgather_sweep_tuned;
use mha_collectives::{build, AlgoConfig};
use mha_sched::ProcGrid;
use mha_simnet::ClusterSpec;

fn main() {
    let cli = mha_bench::Cli::parse(&["--check", "--tuned"]);
    let spec = ClusterSpec::thor();
    let cfg = &cli.env.campaign;
    let grid = ProcGrid::new(32, 32);
    let medium = allgather_sweep_tuned(
        "Figure 14a: Allgather latency (us), 1024 processes, medium messages",
        grid,
        &mha_bench::medium_sizes(),
        &paper_contestants(),
        cli.tuned.as_ref(),
        &spec,
        cfg,
    )
    .unwrap();
    cli.emit(&medium, "fig14_inter_allgather_1024_medium");
    let large = allgather_sweep_tuned(
        "Figure 14b: Allgather latency (us), 1024 processes, large messages",
        grid,
        &mha_bench::large_sizes(),
        &paper_contestants(),
        cli.tuned.as_ref(),
        &spec,
        cfg,
    )
    .unwrap();
    cli.emit(&large, "fig14_inter_allgather_1024_large");
    let sim = mha_simnet::Simulator::new(spec.clone()).unwrap();
    let built = build(&AlgoConfig::default(), grid, 64 * 1024, &spec).unwrap();
    cli.emit_run_summary(&sim, &built.sched, "fig14_inter_allgather_1024");
}
