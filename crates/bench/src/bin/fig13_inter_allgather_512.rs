//! Figure 13: inter-node Allgather on 512 processes
//! (16 nodes x 32 PPN), medium and large message sweeps. Both panels run
//! as campaigns (see `mha_bench::campaign`). With `--tuned` each panel
//! gains an `MHA-tuned` column served from the `mha-tune` tuning table
//! (`results/tuned_thor.mtab` or `MHA_TUNED_TABLE`) by pure probes.

use mha_apps::paper_contestants;
use mha_bench::campaign::{allgather_sweep_tuned, CampaignConfig};
use mha_collectives::{build, AlgoConfig};
use mha_sched::ProcGrid;
use mha_simnet::ClusterSpec;

fn main() {
    mha_bench::apply_check_flag();
    let tuned = mha_bench::apply_tuned_flag();
    let spec = ClusterSpec::thor();
    let cfg = CampaignConfig::from_env();
    let grid = ProcGrid::new(16, 32);
    let medium = allgather_sweep_tuned(
        "Figure 13a: Allgather latency (us), 512 processes, medium messages",
        grid,
        &mha_bench::medium_sizes(),
        &paper_contestants(),
        tuned.as_ref(),
        &spec,
        &cfg,
    )
    .unwrap();
    mha_bench::emit(&medium, "fig13_inter_allgather_512_medium");
    let large = allgather_sweep_tuned(
        "Figure 13b: Allgather latency (us), 512 processes, large messages",
        grid,
        &mha_bench::large_sizes(),
        &paper_contestants(),
        tuned.as_ref(),
        &spec,
        &cfg,
    )
    .unwrap();
    mha_bench::emit(&large, "fig13_inter_allgather_512_large");
    let sim = mha_simnet::Simulator::new(spec.clone()).unwrap();
    let built = build(&AlgoConfig::default(), grid, 64 * 1024, &spec).unwrap();
    mha_bench::emit_run_summary(&sim, &built.sched, "fig13_inter_allgather_512");
}
