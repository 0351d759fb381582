//! A merge past the `u32` op-id space is rejected before it allocates.
//!
//! 65,537 references to one flat Ring 256×1 schedule (65,536 ops each)
//! total 4,295,032,832 ops, just over `u32::MAX`. `merge_parts` must
//! return [`MergeError::TooLarge`] without allocating anything beyond the
//! parts slice the caller built.
//!
//! The counting allocator is process-global, so this binary holds exactly
//! one test: a second one running on another thread would add its
//! allocations to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mha_sched::{
    merge_parts, Channel, Loc, MergeError, MergePart, OpId, ProcGrid, Schedule, ScheduleBuilder,
};

struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Flat Ring on `n`×1 at 8 B per rank: each rank places its own block,
/// then in each of `n − 1` steps receives a block from its left
/// neighbour, `n²` ops in all.
fn ring(n: u32) -> Schedule {
    let grid = ProcGrid::new(n, 1);
    let mut b = ScheduleBuilder::new(grid, "ring");
    let msg = 8;
    let recv: Vec<_> = grid
        .ranks()
        .map(|r| b.private_buf(r, n as usize * msg, "recv"))
        .collect();
    let mut last: Vec<OpId> = grid.ranks().map(|r| b.compute(r, 0, &[], 0)).collect();
    for step in 1..n {
        let prev = last.clone();
        for me in grid.ranks() {
            let left = (me.0 + n - 1) % n;
            let block = (me.0 + n - step) % n;
            let at = Loc::new(recv[left as usize], block as usize * msg);
            let t = b.transfer(
                left.into(),
                me,
                at,
                Loc::new(recv[me.index()], block as usize * msg),
                msg,
                Channel::AllRails,
                &[prev[left as usize], prev[me.index()]],
                step,
            );
            last[me.index()] = t;
        }
    }
    b.finish()
}

#[test]
fn a_merge_past_u32_ops_fails_before_allocating() {
    let sch = ring(256);
    assert_eq!(sch.ops().len(), 65_536);
    let part = MergePart {
        sched: &sch,
        release: 0.0,
        after: None,
    };
    let parts = vec![part; 65_537];
    let total = 65_537 * 65_536;
    assert!(total > u32::MAX as usize);

    let before = ALLOCATED.load(Ordering::Relaxed);
    let merged = merge_parts(*sch.grid(), &parts);
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
    assert_eq!(
        merged.unwrap_err(),
        MergeError::TooLarge {
            what: "ops",
            count: total
        }
    );
    assert_eq!(allocated, 0, "the rejected merge allocated {allocated} B");
}
