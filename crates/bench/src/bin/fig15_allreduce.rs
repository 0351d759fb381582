//! Figure 15: Ring-Allreduce at 32 PPN on 8/16/32 nodes. Both library
//! surrogates run the classic flat Ring-Allreduce (identical behaviour at
//! these sizes), so the table has one baseline column; MHA swaps the
//! Allgather phase for the hierarchical design (Section 5.4). Each node
//! count runs as one campaign (see `mha_bench::campaign`).

use mha_apps::Contestant;
use mha_bench::campaign::allreduce_sweep;
use mha_collectives::Library;
use mha_sched::ProcGrid;
use mha_simnet::ClusterSpec;

fn main() {
    let cli = mha_bench::Cli::parse(&["--check"]);
    let spec = ClusterSpec::thor();
    let cfg = &cli.env.campaign;
    let sizes_bytes = [64 * 1024usize, 2 << 20, 16 << 20, 128 << 20];
    for nodes in [8u32, 16, 32] {
        let grid = ProcGrid::new(nodes, 32);
        let t = allreduce_sweep(
            &format!(
                "Figure 15: Allreduce latency (us), {nodes} nodes x 32 PPN \
                 (flat ring = HPC-X and MVAPICH2-X surrogate)"
            ),
            grid,
            &sizes_bytes,
            &[Contestant::Library(Library::HpcX), Contestant::MhaTuned],
            vec!["FlatRing".into(), "MHA".into()],
            &spec,
            cfg,
        )
        .unwrap();
        cli.emit(&t, &format!("fig15_allreduce_{nodes}n"));
    }
    let sim = mha_simnet::Simulator::new(spec.clone()).unwrap();
    let built = mha_collectives::build_ring_allreduce(
        ProcGrid::new(8, 32),
        (2 << 20) / 4,
        mha_collectives::AllgatherPhase::MhaInter(Default::default()),
        &spec,
    )
    .unwrap();
    cli.emit_run_summary(&sim, &built.sched, "fig15_allreduce");
}
