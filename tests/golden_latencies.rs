//! Bit-exact golden simulated latencies for the paper-figure workloads.
//!
//! The frozen-schedule refactor (CSR adjacency + shared readiness runtime)
//! is required to leave the discrete-event engine's event sequence — and so
//! every simulated makespan — *bit-identical*. These constants were captured
//! from the pre-refactor engine; any drift means the scheduler → simulator
//! pipeline changed behaviour. After an *intentional* model change,
//! regenerate them with `cargo run --release -p mha-bench --bin golden_dump`.

use mha::collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha::collectives::{build, AlgoConfig, Family};
use mha::sched::ProcGrid;
use mha::simnet::{ClusterSpec, Simulator};

fn golden() -> Vec<(&'static str, f64)> {
    vec![
        ("fig02/ring_2x2_1M", f64::from_bits(0x3f3834699899a5d2)), // 369.334965 us
        ("fig08/ring_16x32_4096", f64::from_bits(0x3f5c48ef52b1f2a9)), // 1726.373400 us
        ("fig08/ring_16x32_65536", f64::from_bits(0x3f9bcd308c4d7c52)), // 27149.923862 us
        ("fig08/rd_16x32_4096", f64::from_bits(0x3f5d08bd5a0dc992)), // 1772.103227 us
        ("fig08/rd_16x32_65536", f64::from_bits(0x3f9c98ec44950569)), // 27927.104650 us
        ("fig12/ring_8x32_4096", f64::from_bits(0x3f5ca8fab664b88f)), // 1749.272190 us
        ("fig12/bruck_8x32_4096", f64::from_bits(0x3f61a542613c5e41)), // 2153.997086 us
        ("fig12/mha_8x32_4096", f64::from_bits(0x3f4e4ff3af34a934)), // 925.058352 us
        (
            "fig11/mha_intra_1x16_262144",
            f64::from_bits(0x3f67d19a32d7357b),
        ), // 2907.563371 us
        (
            "fig11/mha_intra_1x16_4194304",
            f64::from_bits(0x3fa6180840780799),
        ), // 43152.101392 us
        ("fig13/ring_16x32_16384", f64::from_bits(0x3f8a2cb47614aa3e)), // 12780.580381 us
        ("fig13/mha_16x32_16384", f64::from_bits(0x3f7bffc5daeef453)), // 6835.720894 us
        ("fig14/mha_32x32_4096", f64::from_bits(0x3f6b456d24709764)), // 3329.003495 us
        ("fig14/mha_32x32_65536", f64::from_bits(0x3faafe1dd5f3f5e9)), // 52720.005386 us
    ]
}

/// Rebuilds the same workloads as `golden_dump` and returns the measured
/// makespans keyed by the same names.
fn measure() -> Vec<(String, f64)> {
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    let mut rows: Vec<(String, f64)> = Vec::new();

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

    for msg in [4096usize, 64 * 1024] {
        let built = build(&AlgoConfig::default(), ProcGrid::new(32, 32), msg, &spec).unwrap();
        rows.push((
            format!("fig14/mha_32x32_{msg}"),
            sim.run(&built.sched).unwrap().makespan,
        ));
    }
    rows
}

#[test]
fn paper_figure_latencies_are_bit_identical() {
    let measured = measure();
    let expected = golden();
    assert_eq!(measured.len(), expected.len());
    for ((name, got), (ename, want)) in measured.iter().zip(&expected) {
        assert_eq!(name, ename, "workload list drifted");
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{name}: got {:.9} us (0x{:016x}), golden {:.9} us (0x{:016x})",
            got * 1e6,
            got.to_bits(),
            want * 1e6,
            want.to_bits()
        );
    }
}
