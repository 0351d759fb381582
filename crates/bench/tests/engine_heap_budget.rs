//! Heap budget of a simulated run: what a frozen schedule keeps per op,
//! and how far a run's peak heap climbs above it.
//!
//! Flat Ring 256×1 at 64 KiB on the Thor preset, 65,536 ops. The frozen
//! schedule holds the ops (40 B each), the dependency and successor lists
//! and their offsets, and the roots; everything else it can report is
//! derived on demand. A run needs one `op_end` time, one flows-left count
//! and one readiness counter per op (about 1 MB here), plus the event queue
//! and the flow table. The ring drains in synchronized bursts of
//! same-instant events, so an event queue whose buckets kept every burst's
//! buffer would add megabytes on top.
//!
//! The counting allocator is process-global, so this binary holds exactly
//! one test: a second one running on another thread would add its
//! allocations to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mha_collectives::{build, AlgoConfig, Family};
use mha_sched::ProcGrid;
use mha_simnet::{ClusterSpec, EngineArena, Simulator};

struct PeakLive;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are statistics that publish no other data.
unsafe impl GlobalAlloc for PeakLive {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakLive = PeakLive;

/// Bytes live now.
fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Runs `f` and returns its result with the peak live bytes it reached
/// above the live bytes at its start.
fn peak_above<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = live();
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (PEAK.load(Ordering::Relaxed) - base, out)
}

/// Most bytes a frozen schedule may keep per op: 68 are used, 108 with an
/// 80 B op (`usize` offsets and lengths, a stored id, a `&str` marker) and
/// 136 when it also stored a 24 B summary row and a 4 B indegree per op.
const SCHEDULE_BYTES_PER_OP: usize = 72;
/// Most bytes a run's peak heap may reach above the frozen schedule: 1.9 MB
/// are used, 5.4 MB when the event queue's buckets kept every drained
/// burst's buffer.
const RUN_PEAK_BYTES: usize = 5 << 19;

#[test]
fn ring_256_schedule_and_run_stay_within_their_heap_budgets() {
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    let mut arena = EngineArena::new();

    let base = live();
    let fs = build(
        &AlgoConfig::flat(Family::Ring),
        ProcGrid::new(256, 1),
        64 * 1024,
        &spec,
    )
    .unwrap()
    .sched;
    let ops = fs.n_ops();
    assert_eq!(ops, 256 * 256);
    let per_op = (live() - base) / ops;
    assert!(
        per_op <= SCHEDULE_BYTES_PER_OP,
        "the frozen schedule keeps {per_op} B per op, budget {SCHEDULE_BYTES_PER_OP}"
    );

    let (peak, r) = peak_above(|| sim.run_in(&fs, &mut arena).unwrap());
    assert_eq!(r.op_end.len(), ops);
    assert!(
        peak <= RUN_PEAK_BYTES,
        "the run peaked {peak} B above the schedule, budget {RUN_PEAK_BYTES}"
    );
}
