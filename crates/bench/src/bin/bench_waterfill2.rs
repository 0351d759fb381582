//! Records the incremental-allocator speedup as `results/BENCH_waterfill2.json`.
//!
//! Two measurements, both on flat `Ring` allgathers at 64 KiB per rank:
//!
//! 1. **flat_ring 8x16 speedup** — wall time per simulated run with the
//!    incremental allocator (memoized component replay + keyed stale-event
//!    cancellation) vs scratch mode (`MHA_SCRATCH_FILL` semantics: every
//!    component re-solved, stale events popped and version-checked — the
//!    faithful pre-overhaul engine). The two modes are bit-identical in
//!    output; only speed differs.
//! 2. **per-event cost scaling** — ns per processed event at 128→1024
//!    nodes (ppn 1). The old engine's stale-event storm plus
//!    recompute-from-scratch made this grow with topology size; the
//!    overhaul targets flat (sub-linear) per-event cost.
//!
//! Flags: `--assert-ratio <x>` fails (exit 1) if the 8x16 speedup is below
//! `x` (CI smoke uses 2, locally 5 is expected); `--quick` shortens the
//! timing windows for CI runners. Honors `MHA_RESULTS_DIR`.

use mha_bench::results_dir;
use mha_collectives::{build, AlgoConfig, Family};
use mha_sched::{FrozenSchedule, Probe, ProcGrid};
use mha_simnet::{set_incremental_enabled, ClusterSpec, EngineArena, Simulator};
use std::fmt::Write as _;
use std::time::Instant;

/// Reference from the PR 1 trajectory (CHANGES.md): `simulate flat_ring
/// 8x16` went 44.5 → 37.9 ms/run on that machine. Recorded for the
/// trajectory plot; absolute times are hardware-dependent, so the asserted
/// criterion is the in-process incremental-vs-scratch ratio.
const PR1_FLAT_RING_8X16_MS: f64 = 37.9;

#[derive(Default)]
struct WfStats {
    recomputes: u64,
    touched: u64,
    comp_flows: u64,
}

impl Probe for WfStats {
    fn waterfill(&mut self, _t: f64, flows: usize, touched: usize) {
        self.recomputes += 1;
        self.touched += touched as u64;
        self.comp_flows += flows as u64;
    }
}

/// Mean wall seconds per run over a fixed timing window, through a warm
/// arena (the campaign runner's hot path).
fn time_runs(sim: &Simulator, sch: &FrozenSchedule, window: f64) -> f64 {
    let mut arena = EngineArena::new();
    sim.run_in(sch, &mut arena).unwrap(); // warm-up: allocations + memo
    let t0 = Instant::now();
    let mut n = 0u32;
    loop {
        std::hint::black_box(sim.run_in(sch, &mut arena).unwrap().makespan);
        n += 1;
        if t0.elapsed().as_secs_f64() >= window {
            break;
        }
    }
    t0.elapsed().as_secs_f64() / f64::from(n)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut assert_ratio: Option<f64> = None;
    let mut window = 1.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--assert-ratio" => {
                i += 1;
                assert_ratio = Some(args[i].parse().expect("--assert-ratio <float>"));
            }
            "--quick" => window = 0.25,
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"pr1_flat_ring_8x16_ms\": {PR1_FLAT_RING_8X16_MS},"
    );

    // -- flat_ring 8x16: incremental vs scratch ---------------------------
    let grid = ProcGrid::new(8, 16);
    let built = build(&AlgoConfig::flat(Family::Ring), grid, 64 * 1024, &spec).unwrap();
    let sch: &FrozenSchedule = &built.sched;

    set_incremental_enabled(Some(true));
    let mut st = WfStats::default();
    let r = sim.run_probed(sch, &mut st).unwrap();
    let inc = time_runs(&sim, sch, window);
    set_incremental_enabled(Some(false));
    let scratch = time_runs(&sim, sch, window);
    set_incremental_enabled(None);

    let speedup = scratch / inc;
    println!(
        "flat_ring 8x16: incremental {:.2} ms/run, scratch {:.2} ms/run, speedup {speedup:.2}x",
        inc * 1e3,
        scratch * 1e3
    );
    println!(
        "  events={}, recomputes={}, avg_comp={:.1} flows, levels touched/recompute={:.2}",
        r.events,
        st.recomputes,
        st.comp_flows as f64 / st.recomputes as f64,
        st.touched as f64 / st.recomputes as f64
    );
    let _ = writeln!(json, "  \"flat_ring_8x16\": {{");
    let _ = writeln!(json, "    \"incremental_ms_per_run\": {:.4},", inc * 1e3);
    let _ = writeln!(json, "    \"scratch_ms_per_run\": {:.4},", scratch * 1e3);
    let _ = writeln!(json, "    \"speedup_vs_scratch\": {speedup:.3},");
    let _ = writeln!(json, "    \"events\": {},", r.events);
    let _ = writeln!(json, "    \"waterfill_recomputes\": {},", st.recomputes);
    let _ = writeln!(
        json,
        "    \"levels_touched_per_recompute\": {:.3}",
        st.touched as f64 / st.recomputes as f64
    );
    let _ = writeln!(json, "  }},");

    // -- per-event cost scaling, 128 → 1024 nodes -------------------------
    set_incremental_enabled(Some(true));
    let mut per_event_ns = Vec::new();
    let _ = writeln!(json, "  \"per_event_scaling\": [");
    let node_counts = [128u32, 256, 512, 1024];
    for (k, &nodes) in node_counts.iter().enumerate() {
        let grid = ProcGrid::new(nodes, 1);
        let built = build(&AlgoConfig::flat(Family::Ring), grid, 64 * 1024, &spec).unwrap();
        let sch: &FrozenSchedule = &built.sched;
        let events = sim.run(sch).unwrap().events;
        let per_run = time_runs(&sim, sch, window.min(0.5) * 2.0);
        let ns = per_run / events as f64 * 1e9;
        per_event_ns.push(ns);
        println!(
            "ring {nodes}x1: {:.2} ms/run, {events} events, {ns:.0} ns/event",
            per_run * 1e3
        );
        let _ = writeln!(
            json,
            "    {{\"nodes\": {nodes}, \"ms_per_run\": {:.4}, \"events\": {events}, \"ns_per_event\": {ns:.1}}}{}",
            per_run * 1e3,
            if k + 1 < node_counts.len() { "," } else { "" }
        );
    }
    set_incremental_enabled(None);
    let _ = writeln!(json, "  ],");
    let scaling = per_event_ns[per_event_ns.len() - 1] / per_event_ns[0];
    println!("per-event cost 1024/128 nodes: {scaling:.2}x (sub-linear target < 8x)");
    let _ = writeln!(json, "  \"per_event_cost_ratio_1024_vs_128\": {scaling:.3}");
    json.push_str("}\n");

    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_waterfill2.json");
    std::fs::write(&path, &json).expect("write BENCH_waterfill2.json");
    println!("[saved {}]", path.display());

    // Sub-linear per-event scaling: an 8× topology must not cost 8× per
    // event. Always enforced — this is the structural claim, not a noisy
    // absolute timing.
    assert!(
        scaling < 8.0,
        "per-event cost scaled super-linearly: {scaling:.2}x over an 8x topology growth"
    );
    if let Some(min) = assert_ratio {
        if speedup < min {
            eprintln!("FAIL: flat_ring 8x16 speedup {speedup:.2}x < required {min}x");
            std::process::exit(1);
        }
        println!("speedup {speedup:.2}x >= required {min}x");
    }
}
