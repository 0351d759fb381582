//! Real-data executor throughput: bytes moved per second through the
//! dependency-driven worker pool versus the sequential reference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mha_collectives::{build, AlgoConfig};
use mha_exec::{run_single, run_threaded, BufferStore};
use mha_sched::ProcGrid;
use mha_simnet::ClusterSpec;

fn bench_exec(c: &mut Criterion) {
    let spec = ClusterSpec::thor();
    let grid = ProcGrid::new(2, 8);
    let msg = 64 * 1024;
    let built = build(&AlgoConfig::default(), grid, msg, &spec).unwrap();
    let bytes = built.sched.total_bytes();
    let mut g = c.benchmark_group("executor");
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function(BenchmarkId::new("single", "mha_2x8_64K"), |b| {
        let store = BufferStore::new(&built.sched);
        b.iter(|| run_single(&built.sched, &store).unwrap())
    });
    for threads in [2usize, 4, 8] {
        g.bench_function(BenchmarkId::new("threaded", format!("{threads}t")), |b| {
            let store = BufferStore::new(&built.sched);
            b.iter(|| run_threaded(&built.sched, &store, threads).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_exec);
criterion_main!(benches);
