//! Water-filling allocator micro-benchmark: cost of one max-min fair
//! recomputation as component size grows (the per-event hot path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mha_simnet::{FlowSpec, IncrementalFiller, ResourceId, WaterFiller};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_waterfill(c: &mut Criterion) {
    let mut g = c.benchmark_group("waterfill");
    for flows in [8usize, 32, 128, 512] {
        let mut rng = StdRng::seed_from_u64(42);
        let nres = (flows / 2).max(4);
        let caps: Vec<f64> = (0..nres).map(|_| rng.gen_range(1.0..100.0)).collect();
        let sets: Vec<Vec<(ResourceId, f64)>> = (0..flows)
            .map(|_| {
                let k = rng.gen_range(1..=3usize);
                let mut v: Vec<u32> = (0..k).map(|_| rng.gen_range(0..nres as u32)).collect();
                v.sort_unstable();
                v.dedup();
                v.into_iter()
                    .map(|r| (ResourceId(r), rng.gen_range(1.0..2.0)))
                    .collect()
            })
            .collect();
        let flow_caps: Vec<f64> = (0..flows).map(|_| rng.gen_range(1.0..50.0)).collect();
        let specs: Vec<FlowSpec> = sets
            .iter()
            .zip(&flow_caps)
            .map(|(s, &cap)| FlowSpec { cap, resources: s })
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(flows), &specs, |b, specs| {
            let mut filler = WaterFiller::new();
            let mut rates = Vec::new();
            b.iter(|| {
                filler.fill(specs, |r| caps[r.index()], &mut rates).unwrap();
                std::hint::black_box(rates.len())
            })
        });
    }
    g.finish();
}

/// The engine's actual usage pattern: one `WaterFiller` reused across
/// events, each recomputing a *different* connected component out of a
/// large resource universe. This guards the dense `local_of` index map —
/// the reset cost must stay proportional to the previous component, never
/// to the universe (1024 resources here, components of ≤ 24).
fn bench_component_recompute(c: &mut Criterion) {
    let mut g = c.benchmark_group("waterfill_recompute");
    let universe = 1024u32;
    let mut rng = StdRng::seed_from_u64(7);
    let caps: Vec<f64> = (0..universe).map(|_| rng.gen_range(1.0..100.0)).collect();
    for comp in [4usize, 24] {
        // 64 precomputed components, each touching `comp` flows over a
        // random slice of the universe — successive fills share nothing.
        let sets: Vec<Vec<Vec<(ResourceId, f64)>>> = (0..64)
            .map(|_| {
                let base = rng.gen_range(0..universe - 64);
                (0..comp)
                    .map(|_| {
                        let k = rng.gen_range(1..=3usize);
                        let mut v: Vec<u32> =
                            (0..k).map(|_| base + rng.gen_range(0..64u32)).collect();
                        v.sort_unstable();
                        v.dedup();
                        v.into_iter()
                            .map(|r| (ResourceId(r), rng.gen_range(1.0..2.0)))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let flow_caps: Vec<f64> = (0..comp).map(|_| rng.gen_range(1.0..50.0)).collect();
        g.bench_with_input(BenchmarkId::from_parameter(comp), &sets, |b, sets| {
            let mut filler = WaterFiller::new();
            let mut rates = Vec::new();
            let mut i = 0usize;
            b.iter(|| {
                let specs: Vec<FlowSpec> = sets[i % sets.len()]
                    .iter()
                    .zip(&flow_caps)
                    .map(|(s, &cap)| FlowSpec { cap, resources: s })
                    .collect();
                i += 1;
                filler
                    .fill(&specs, |r| caps[r.index()], &mut rates)
                    .unwrap();
                std::hint::black_box(rates.len())
            })
        });
    }
    g.finish();
}

/// Incremental replay vs from-scratch solving on the engine's dominant
/// workload: the *same* small component recomputed over and over (a ring
/// step re-creates one contention pattern thousands of times). The
/// reference `WaterFiller::fill_with` re-runs progressive filling; the
/// memoized `fill_view` builds the canonical key, then a hash probe plus a
/// copy.
fn bench_incremental_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("waterfill_incremental");
    let mut rng = StdRng::seed_from_u64(11);
    for comp in [4usize, 16] {
        let nres = comp.max(4);
        let caps: Vec<f64> = (0..nres).map(|_| rng.gen_range(1.0..100.0)).collect();
        let sets: Vec<Vec<(ResourceId, f64)>> = (0..comp)
            .map(|_| {
                let k = rng.gen_range(1..=3usize);
                let mut v: Vec<u32> = (0..k).map(|_| rng.gen_range(0..nres as u32)).collect();
                v.sort_unstable();
                v.dedup();
                v.into_iter()
                    .map(|r| (ResourceId(r), rng.gen_range(1.0..2.0)))
                    .collect()
            })
            .collect();
        let flow_caps: Vec<f64> = (0..comp).map(|_| rng.gen_range(1.0..50.0)).collect();
        let specs: Vec<FlowSpec> = sets
            .iter()
            .zip(&flow_caps)
            .map(|(s, &cap)| FlowSpec { cap, resources: s })
            .collect();
        g.bench_with_input(BenchmarkId::new("replay", comp), &specs, |b, specs| {
            let mut filler = IncrementalFiller::new();
            filler.reset(nres);
            let mut rates = Vec::new();
            b.iter(|| {
                filler
                    .fill_view(specs.len(), |i| specs[i], |r| caps[r.index()], &mut rates)
                    .unwrap();
                std::hint::black_box(rates.len())
            })
        });
        g.bench_with_input(BenchmarkId::new("scratch", comp), &specs, |b, specs| {
            let mut filler = WaterFiller::new();
            let mut rates = Vec::new();
            b.iter(|| {
                filler
                    .fill_with(specs.len(), |i| specs[i], |r| caps[r.index()], &mut rates)
                    .unwrap();
                std::hint::black_box(rates.len())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_waterfill,
    bench_component_recompute,
    bench_incremental_replay
);
criterion_main!(benches);
