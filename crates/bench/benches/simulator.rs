//! Simulator throughput: events/second on representative schedules —
//! the number that bounds how fast the fig12-14 sweeps run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mha_collectives::{build, AlgoConfig, Family};
use mha_sched::ProcGrid;
use mha_simnet::{ClusterSpec, Simulator};

fn bench_sim(c: &mut Criterion) {
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    let mut g = c.benchmark_group("simulate");
    g.sample_size(10);
    for (name, algo, nodes, ppn) in [
        ("flat_ring", AlgoConfig::flat(Family::Ring), 8u32, 16u32),
        ("mha_inter", AlgoConfig::default(), 8, 16),
        ("bruck", AlgoConfig::flat(Family::Bruck), 8, 16),
    ] {
        let grid = ProcGrid::new(nodes, ppn);
        let built = build(&algo, grid, 64 * 1024, &spec).unwrap();
        let events = sim.run(&built.sched).unwrap().events;
        g.throughput(Throughput::Elements(events));
        g.bench_with_input(
            BenchmarkId::new(name, format!("{nodes}x{ppn}")),
            &built,
            |b, built| b.iter(|| std::hint::black_box(sim.run(&built.sched).unwrap().makespan)),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
