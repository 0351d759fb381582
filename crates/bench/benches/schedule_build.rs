//! Construction throughput of the schedule compilers: how fast collectives
//! compile to the IR across algorithms and scales.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mha_collectives::{build, AlgoConfig, Family};
use mha_sched::ProcGrid;
use mha_simnet::ClusterSpec;

fn bench_builds(c: &mut Criterion) {
    let spec = ClusterSpec::thor();
    let mut g = c.benchmark_group("schedule_build");
    for (nodes, ppn) in [(4u32, 8u32), (8, 32)] {
        let grid = ProcGrid::new(nodes, ppn);
        for algo in [
            AlgoConfig::flat(Family::Ring),
            AlgoConfig::flat(Family::Bruck),
            AlgoConfig::default(),
        ] {
            g.bench_with_input(
                BenchmarkId::new(algo.family.token(), format!("{nodes}x{ppn}")),
                &grid,
                |b, grid| {
                    b.iter(|| {
                        let built = build(&algo, *grid, 4096, &spec).unwrap();
                        std::hint::black_box(built.sched.ops().len())
                    })
                },
            );
        }
    }
    g.finish();
}

fn bench_validation(c: &mut Criterion) {
    let spec = ClusterSpec::thor();
    let grid = ProcGrid::new(8, 32);
    let built = build(&AlgoConfig::flat(Family::Ring), grid, 4096, &spec).unwrap();
    c.bench_function("validate/ring_8x32", |b| {
        b.iter(|| mha_sched::validate(std::hint::black_box(&built.sched), Some(2)).unwrap())
    });
    let small = build(&AlgoConfig::default(), ProcGrid::new(4, 8), 4096, &spec).unwrap();
    c.bench_function("check_races/mha_4x8", |b| {
        b.iter(|| assert!(mha_sched::check_races(std::hint::black_box(&small.sched)).is_empty()))
    });
}

criterion_group!(benches, bench_builds, bench_validation);
criterion_main!(benches);
