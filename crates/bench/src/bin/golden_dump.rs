//! Prints the exact (bit-level) simulated makespans of the golden
//! workloads guarded by `tests/golden_latencies.rs`. Re-run this after an
//! *intentional* model change to regenerate the constants; an unintentional
//! difference is a regression in the scheduler → simulator pipeline.

use mha_collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha_collectives::{build, AlgoConfig, Family};
use mha_sched::ProcGrid;
use mha_simnet::{ClusterSpec, Simulator};

fn main() {
    mha_bench::Cli::parse(&["--check"]);
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();

    let mut rows: Vec<(String, f64)> = Vec::new();

    // Fig. 2 workload: flat Ring Allgather, 2 nodes x 2 PPN, 1 MB.
    let built = build(
        &AlgoConfig::flat(Family::Ring),
        ProcGrid::new(2, 2),
        1 << 20,
        &spec,
    )
    .unwrap();
    rows.push((
        "fig02/ring_2x2_1M".into(),
        sim.run(&built.sched).unwrap().makespan,
    ));

    // Fig. 8 workload: MHA-inter with Ring vs RD phase 2, 16 nodes x 32 PPN.
    for (name, algo) in [
        ("ring", InterAlgo::Ring),
        ("rd", InterAlgo::RecursiveDoubling),
    ] {
        for msg in [4096usize, 64 * 1024] {
            let cfg = MhaInterConfig {
                inter: algo,
                offload: Offload::Auto,
                overlap: true,
            };
            let built = build(
                &AlgoConfig::mha_inter(cfg),
                ProcGrid::new(16, 32),
                msg,
                &spec,
            )
            .unwrap();
            rows.push((
                format!("fig08/{name}_16x32_{msg}"),
                sim.run(&built.sched).unwrap().makespan,
            ));
        }
    }

    // Fig. 12 workload: 8 nodes x 32 PPN contestants at 4 KB.
    for (name, algo) in [
        ("ring", AlgoConfig::flat(Family::Ring)),
        ("bruck", AlgoConfig::flat(Family::Bruck)),
        ("mha", AlgoConfig::default()),
    ] {
        let built = build(&algo, ProcGrid::new(8, 32), 4096, &spec).unwrap();
        rows.push((
            format!("fig12/{name}_8x32_4096"),
            sim.run(&built.sched).unwrap().makespan,
        ));
    }

    // Fig. 11 workload: MHA-intra on one 16-process node, large messages.
    for msg in [256 * 1024usize, 4 << 20] {
        let built = build(
            &AlgoConfig::mha_intra(Offload::Auto),
            ProcGrid::single_node(16),
            msg,
            &spec,
        )
        .unwrap();
        rows.push((
            format!("fig11/mha_intra_1x16_{msg}"),
            sim.run(&built.sched).unwrap().makespan,
        ));
    }

    // Fig. 13 workload: 512 processes (16 x 32), ring baseline + MHA.
    for (name, algo) in [
        ("ring", AlgoConfig::flat(Family::Ring)),
        ("mha", AlgoConfig::default()),
    ] {
        let built = build(&algo, ProcGrid::new(16, 32), 16 * 1024, &spec).unwrap();
        rows.push((
            format!("fig13/{name}_16x32_16384"),
            sim.run(&built.sched).unwrap().makespan,
        ));
    }

    // Fig. 14 workload: 1024 processes (32 x 32), medium + large MHA.
    for msg in [4096usize, 64 * 1024] {
        let built = build(&AlgoConfig::default(), ProcGrid::new(32, 32), msg, &spec).unwrap();
        rows.push((
            format!("fig14/mha_32x32_{msg}"),
            sim.run(&built.sched).unwrap().makespan,
        ));
    }

    for (name, makespan) in rows {
        println!(
            "(\"{name}\", f64::from_bits(0x{:016x})), // {:.6} us",
            makespan.to_bits(),
            makespan * 1e6
        );
    }
}
