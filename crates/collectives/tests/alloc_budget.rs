//! Allocation budget of the schedule compiler: building a schedule makes no
//! heap allocation per op, freezing one makes a fixed number, and
//! refreezing an unwrapped frozen schedule makes none.
//!
//! The counting allocator is process-global, so this binary holds exactly
//! one test: a second one running on another thread would add its
//! allocations to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mha_collectives::{build, AlgoConfig, Family};
use mha_sched::{merge_parts, MergePart, ProcGrid};
use mha_simnet::ClusterSpec;

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) made while running `f`.
fn allocs<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn build_and_freeze_allocate_per_schedule_not_per_op() {
    let spec = ClusterSpec::thor();
    let ring = AlgoConfig::flat(Family::Ring);
    let build_ring = |nodes| build(&ring, ProcGrid::new(nodes, 1), 4096, &spec).unwrap();

    let (n, built) = allocs(|| build_ring(256));
    let ops = built.sched.n_ops();
    assert_eq!(ops, 256 * 256);
    assert!(
        n < ops / 8,
        "building flat Ring on 256x1 made {n} allocations for {ops} ops"
    );

    // Freezing makes the same number of allocations at any op count. A
    // one-part merge hands back the schedule with the builder's
    // dependency lists, which freezing transposes.
    let freeze_allocs = |nodes| {
        let fs = build_ring(nodes).sched;
        let part = MergePart {
            sched: fs.schedule(),
            release: 0.0,
            after: None,
        };
        let sch = merge_parts(*fs.grid(), &[part]).unwrap().schedule;
        assert!(sch.holds_dep_lists());
        allocs(|| sch.freeze()).0
    };
    let (small, large) = (freeze_allocs(16), freeze_allocs(256));
    assert!(small > 0);
    assert_eq!(
        small, large,
        "freeze allocations grew with the op count: {small} at 16x1, {large} at 256x1"
    );

    // An unwrapped frozen schedule keeps its successor lists: refreezing
    // it allocates nothing.
    let sch = build_ring(256).sched.into_schedule();
    assert_eq!(allocs(|| sch.freeze()).0, 0);
}
