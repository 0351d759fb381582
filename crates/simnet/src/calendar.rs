//! A bucketed calendar queue — the engine's event queue.
//!
//! Classic Brown-style calendar queue specialized for the simulator's
//! access pattern: virtual time only moves forward, every push is at or
//! after the time of the last pop, and superseded events (a rescheduled
//! flow-completion prediction, a stalled flow's obsolete retry) are
//! *deleted by key* instead of being left behind to pop as stale no-ops.
//!
//! Events live in `2^k` buckets of virtual-time width `width`; an event at
//! time `t` belongs to cell `⌊t / width⌋` and hashes to bucket
//! `cell & (2^k − 1)`. Each bucket is kept **sorted ascending** by
//! `(time, seq)` — crucial because collective schedules produce huge runs
//! of *exactly tied* completion times (every rank of a symmetric ring step
//! finishes at the same instant), which no bucket width can separate. In a
//! sorted bucket a tied push appends at the back in O(1) (`seq` is
//! monotone), the pop takes the front in O(1), and only a keyed delete
//! pays a mid-deque memmove. An unsorted bucket would instead re-scan the
//! whole tie run on every pop, degrading to O(n) per event.
//!
//! A cursor (`cur_cell`) sweeps cells in order; a pop takes the cursor
//! bucket's front entry if it belongs to the current (or an earlier) cell.
//! Because `cell(t)` is monotone in `t` and pushes behind the cursor
//! rewind it, pops come out in exactly the total order `(time, seq)` — the
//! order of a binary min-heap over the same keys, which the tests use as
//! the model. Bucket geometry (count, width) only ever affects speed,
//! never order.
//!
//! Typical costs: O(1) push, O(1) pop, O(bucket occupancy) keyed delete.
//! A fully empty year falls back to a global min-scan that re-anchors the
//! cursor, so sparse far-future events (retry backoffs) stay correct. The
//! width self-tunes: when the average pop starts sweeping too many empty
//! cells, a same-size rebuild re-derives it from sampled inter-event gaps
//! (Brown's rule).

use std::collections::VecDeque;

/// One queued event. The composite sort key packs the event time's IEEE
/// bits over the sequence number — for the engine's non-negative finite
/// times, `f64::to_bits` is monotone, so `u128` order == `(time, seq)`
/// order, and the original time is recovered exactly for cell hashing.
#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    key: u128,
    item: T,
}

#[inline]
fn key_of(time: f64, seq: u64) -> u128 {
    (u128::from(time.to_bits()) << 64) | u128::from(seq)
}

#[inline]
fn time_of(key: u128) -> f64 {
    f64::from_bits((key >> 64) as u64)
}

#[inline]
fn seq_of(key: u128) -> u64 {
    key as u64
}

/// Growth/shrink bounds: 64 buckets up to 2^20.
const MIN_BITS: u32 = 6;
const MAX_BITS: u32 = 20;

/// Re-tune cadence and the average per-pop cell-sweep length that
/// triggers it. A well-sized queue visits ~1 bucket per pop; sustained
/// long sweeps mean the width no longer matches the workload's
/// inter-event gap.
const TUNE_INTERVAL: u32 = 256;
const SCAN_BUDGET: u64 = 8;

/// A min-queue over `(time, seq)` with O(1) typical insert and pop and a
/// keyed removal. `time` must be non-negative and finite; `seq` must be
/// unique per live entry (the engine's push counter guarantees both).
#[derive(Debug)]
pub(crate) struct CalendarQueue<T> {
    buckets: Vec<VecDeque<Entry<T>>>,
    nbits: u32,
    width: f64,
    inv_width: f64,
    count: usize,
    /// The cell the pop scan resumes from; never ahead of the minimum
    /// live entry's cell.
    cur_cell: u64,
    /// Rebuild scratch, kept to avoid reallocating on resize.
    scratch: Vec<Entry<T>>,
    /// Pops since the last width check and the cells they swept; drives
    /// the self-tuning rebuild.
    pops_since_tune: u32,
    scan_since_tune: u64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with the default geometry (64 buckets, 1 µs wide).
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..1usize << MIN_BITS).map(|_| VecDeque::new()).collect(),
            nbits: MIN_BITS,
            width: 1e-6,
            inv_width: 1e6,
            count: 0,
            cur_cell: 0,
            scratch: Vec::new(),
            pops_since_tune: 0,
            scan_since_tune: 0,
        }
    }

    /// Live entries.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Drops every entry, keeping bucket allocations and the learned
    /// width (a warm queue re-runs the same workload without re-tuning).
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.count = 0;
        self.cur_cell = 0;
        self.pops_since_tune = 0;
        self.scan_since_tune = 0;
    }

    #[inline]
    fn mask(&self) -> u64 {
        (1u64 << self.nbits) - 1
    }

    /// The cell an event at `time` belongs to. The saturating f64→u64
    /// cast keeps this monotone in `time` even for degenerate widths, so
    /// ordering is preserved no matter how the geometry is tuned.
    #[inline]
    fn cell(&self, time: f64) -> u64 {
        (time * self.inv_width) as u64
    }

    /// Inserts `entry` into bucket `b`, keeping it sorted ascending by
    /// key. The overwhelmingly common case — a time at or past the
    /// bucket's back (ties arrive in `seq` order) — is an O(1) append.
    #[inline]
    fn insert_sorted(&mut self, b: usize, entry: Entry<T>) {
        let bucket = &mut self.buckets[b];
        match bucket.back() {
            None => bucket.push_back(entry),
            Some(back) if back.key <= entry.key => bucket.push_back(entry),
            _ => {
                let i = bucket.partition_point(|e| e.key < entry.key);
                bucket.insert(i, entry);
            }
        }
    }

    /// Inserts an event. O(1) plus an occasional rebuild when the queue
    /// outgrows its bucket array.
    pub fn push(&mut self, time: f64, seq: u64, item: T) {
        debug_assert!(time >= 0.0 && time.is_finite(), "event time {time}");
        if self.count >= self.buckets.len() * 2 && self.nbits < MAX_BITS {
            self.rebuild(self.nbits + 1);
        }
        let c = self.cell(time);
        if self.count == 0 || c < self.cur_cell {
            self.cur_cell = c;
        }
        let b = (c & self.mask()) as usize;
        self.insert_sorted(
            b,
            Entry {
                key: key_of(time, seq),
                item,
            },
        );
        self.count += 1;
    }

    /// Deletes the entry with sequence number `seq`, pushed at `time`.
    /// Returns whether it was found (it always is, if the caller's
    /// bookkeeping is right). O(bucket occupancy) for the mid-deque
    /// shift; the lookup itself is a binary search.
    pub fn remove(&mut self, time: f64, seq: u64) -> bool {
        let b = (self.cell(time) & self.mask()) as usize;
        let bucket = &mut self.buckets[b];
        match bucket.binary_search_by(|e| e.key.cmp(&key_of(time, seq))) {
            Ok(i) => {
                bucket.remove(i);
                self.count -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Removes and returns the `(time, seq)`-minimum entry.
    pub fn pop(&mut self) -> Option<(f64, u64, T)> {
        if self.count == 0 {
            return None;
        }
        if self.pops_since_tune >= TUNE_INTERVAL {
            if self.scan_since_tune > u64::from(self.pops_since_tune) * SCAN_BUDGET {
                self.rebuild(self.nbits);
            }
            self.pops_since_tune = 0;
            self.scan_since_tune = 0;
        }
        self.pops_since_tune += 1;
        let nb = self.buckets.len();
        for _ in 0..nb {
            let b = (self.cur_cell & self.mask()) as usize;
            self.scan_since_tune += 1;
            // The bucket front is its minimum; if it belongs to the
            // current cell (or an earlier one — pushes behind the cursor
            // rewind it, but a same-bucket earlier year is also possible
            // after a rewind), it is the global minimum.
            if let Some(front) = self.buckets[b].front() {
                if self.cell(time_of(front.key)) <= self.cur_cell {
                    return Some(self.take_front(b));
                }
            }
            self.cur_cell += 1;
        }
        // A whole year was empty: the next event is far in the future.
        // Find it directly and re-anchor the cursor at its cell.
        self.scan_since_tune += self.count as u64;
        let mut at: Option<usize> = None;
        for (bi, bucket) in self.buckets.iter().enumerate() {
            if let Some(front) = bucket.front() {
                let better = match at {
                    None => true,
                    Some(bj) => front.key < self.buckets[bj].front().expect("non-empty").key,
                };
                if better {
                    at = Some(bi);
                }
            }
        }
        let bi = at.expect("count > 0 but no entry found");
        self.cur_cell = self.cell(time_of(self.buckets[bi].front().expect("non-empty").key));
        Some(self.take_front(bi))
    }

    fn take_front(&mut self, b: usize) -> (f64, u64, T) {
        let e = self.buckets[b].pop_front().expect("checked non-empty");
        self.count -= 1;
        if self.count * 4 < self.buckets.len() && self.nbits > MIN_BITS {
            self.rebuild(self.nbits - 1);
        }
        (time_of(e.key), seq_of(e.key), e.item)
    }

    /// Re-hashes every entry into `2^new_bits` buckets, re-deriving the
    /// width from a sample of inter-event gaps (Brown's rule: a few times
    /// the mean positive gap, so a cell holds O(1) distinct times).
    /// Deterministic: driven only by entry counts and times.
    fn rebuild(&mut self, new_bits: u32) {
        self.scratch.clear();
        for b in &mut self.buckets {
            self.scratch.extend(b.drain(..));
        }
        // Sample up to 64 event times for the width estimate.
        let mut times: Vec<f64> = self
            .scratch
            .iter()
            .take(64)
            .map(|e| time_of(e.key))
            .collect();
        times.sort_by(f64::total_cmp);
        let mut gap_sum = 0.0;
        let mut gaps = 0u32;
        for w in times.windows(2) {
            let g = w[1] - w[0];
            if g > 0.0 {
                gap_sum += g;
                gaps += 1;
            }
        }
        if gaps > 0 {
            let w = 3.0 * gap_sum / f64::from(gaps);
            if w.is_finite() && w > 0.0 {
                self.width = w;
                self.inv_width = 1.0 / w;
            }
        }
        self.nbits = new_bits;
        let n = 1usize << new_bits;
        if self.buckets.len() < n {
            self.buckets.resize_with(n, VecDeque::new);
        } else {
            self.buckets.truncate(n);
        }
        self.cur_cell = u64::MAX;
        let mask = self.mask();
        let mut moved = std::mem::take(&mut self.scratch);
        for e in moved.drain(..) {
            let c = self.cell(time_of(e.key));
            if c < self.cur_cell {
                self.cur_cell = c;
            }
            let b = (c & mask) as usize;
            // Inline sorted insert (self is partially borrowed by `moved`).
            let bucket = &mut self.buckets[b];
            match bucket.back() {
                Some(back) if back.key > e.key => {
                    let i = bucket.partition_point(|x| x.key < e.key);
                    bucket.insert(i, e);
                }
                _ => bucket.push_back(e),
            }
        }
        self.scratch = moved;
        if self.count == 0 {
            self.cur_cell = 0;
        }
        self.pops_since_tune = 0;
        self.scan_since_tune = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::{BTreeSet, BinaryHeap};

    fn xorshift(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    /// Random interleaved pushes and pops must come out in exactly the
    /// order a binary heap produces.
    #[test]
    fn matches_binary_heap_order() {
        let mut seed = 0x1234_5678_9abc_def0u64;
        for round in 0..50 {
            let mut cal = CalendarQueue::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0.0f64;
            for _ in 0..400 {
                let burst = 1 + (xorshift(&mut seed) % 4);
                for _ in 0..burst {
                    // Times from a wide dynamic range, always >= now.
                    let scale = 10f64.powi((xorshift(&mut seed) % 9) as i32 - 4);
                    let t = now + (xorshift(&mut seed) % 1000) as f64 * 1e-9 * scale;
                    seq += 1;
                    cal.push(t, seq, seq);
                    heap.push(Reverse((t.to_bits(), seq)));
                }
                if !xorshift(&mut seed).is_multiple_of(3) {
                    let got = cal.pop();
                    let want = heap.pop();
                    match (got, want) {
                        (Some((t, s, item)), Some(Reverse((tb, sb)))) => {
                            assert_eq!(t.to_bits(), tb, "round {round}");
                            assert_eq!(s, sb, "round {round}");
                            assert_eq!(item, s);
                            now = t;
                        }
                        (None, None) => {}
                        (g, w) => panic!("round {round}: {g:?} vs {w:?}"),
                    }
                }
            }
            while let Some(Reverse((tb, sb))) = heap.pop() {
                let (t, s, _) = cal.pop().expect("calendar ran dry early");
                assert_eq!((t.to_bits(), s), (tb, sb));
            }
            assert!(cal.pop().is_none());
            assert_eq!(cal.len(), 0);
        }
    }

    /// Random interleaved pushes, pops and keyed removals of random live
    /// entries must match a sorted-set model exactly — the engine's
    /// cancellation path. Rounds are large enough to grow the bucket array
    /// and retune the width, so removal is exercised across rebuilds; a
    /// key that was already popped or removed must miss.
    #[test]
    fn push_pop_remove_match_a_sorted_set_model() {
        let mut seed = 0x0dd_ba11_cafe_f00du64;
        let mut rebuilt = false;
        let mut retuned = false;
        for round in 0..20 {
            let mut cal = CalendarQueue::new();
            let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
            let mut gone: Vec<(f64, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut now = 0.0f64;
            for _ in 0..1500 {
                for _ in 0..1 + xorshift(&mut seed) % 4 {
                    let scale = 10f64.powi((xorshift(&mut seed) % 7) as i32 - 3);
                    let t = now + (xorshift(&mut seed) % 1000) as f64 * 1e-9 * scale;
                    seq += 1;
                    cal.push(t, seq, seq);
                    model.insert((t.to_bits(), seq));
                }
                rebuilt |= cal.nbits > MIN_BITS;
                retuned |= cal.width != 1e-6;
                match xorshift(&mut seed) % 4 {
                    0 if !model.is_empty() => {
                        // Remove a random live entry.
                        let k = (xorshift(&mut seed) % model.len() as u64) as usize;
                        let (tb, s) = *model.iter().nth(k).expect("k < len");
                        model.remove(&(tb, s));
                        let t = f64::from_bits(tb);
                        assert!(cal.remove(t, s), "round {round}: live ({t}, {s}) missing");
                        gone.push((t, s));
                    }
                    1 if !gone.is_empty() => {
                        let (t, s) = gone[(xorshift(&mut seed) % gone.len() as u64) as usize];
                        assert!(!cal.remove(t, s), "round {round}: dead ({t}, {s}) removed");
                    }
                    _ => {
                        let got = cal.pop().map(|(t, s, item)| {
                            assert_eq!(item, s);
                            (t.to_bits(), s)
                        });
                        let want = model.pop_first();
                        assert_eq!(got, want, "round {round}");
                        if let Some((tb, s)) = got {
                            now = f64::from_bits(tb);
                            gone.push((now, s));
                        }
                    }
                }
                assert_eq!(cal.len(), model.len(), "round {round}");
            }
            while let Some(want) = model.pop_first() {
                let (t, s, _) = cal.pop().expect("calendar ran dry early");
                assert_eq!((t.to_bits(), s), want, "round {round} drain");
            }
            assert!(cal.pop().is_none());
        }
        assert!(rebuilt, "no round grew the bucket array");
        assert!(retuned, "no round retuned the bucket width");
    }

    /// Massive exact-time ties — the collective-schedule signature — must
    /// stay cheap and pop in seq order. This exercises the O(1) tied
    /// append / O(1) front pop path.
    #[test]
    fn exact_ties_pop_in_seq_order() {
        let mut cal = CalendarQueue::new();
        let mut seq = 0u64;
        for step in 0..8u64 {
            let t = step as f64 * 1e-5;
            for _ in 0..500 {
                seq += 1;
                cal.push(t, seq, seq);
            }
        }
        let mut last = 0u64;
        let mut n = 0;
        while let Some((_, s, _)) = cal.pop() {
            assert!(s > last, "seq order violated: {s} after {last}");
            last = s;
            n += 1;
        }
        assert_eq!(n, 4000);
    }

    /// Keyed removal deletes exactly the named entry and leaves the rest
    /// of the order intact.
    #[test]
    fn remove_deletes_only_the_named_entry() {
        let mut cal = CalendarQueue::new();
        let mut keys = Vec::new();
        for i in 0..100u64 {
            let t = i as f64 * 1e-6;
            cal.push(t, i + 1, i);
            keys.push((t, i + 1));
        }
        // Remove every third entry.
        for (i, &(t, s)) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert!(cal.remove(t, s), "missing ({t}, {s})");
            }
        }
        assert!(!cal.remove(0.0, 1), "double remove must miss");
        let mut popped = Vec::new();
        while let Some((_, _, item)) = cal.pop() {
            popped.push(item);
        }
        let want: Vec<u64> = (0..100).filter(|i| i % 3 != 0).collect();
        assert_eq!(popped, want);
    }

    /// Equal times pop in sequence order — the engine's tie-break.
    #[test]
    fn equal_times_pop_in_seq_order() {
        let mut cal = CalendarQueue::new();
        for s in [5u64, 2, 9, 1, 7] {
            cal.push(1e-3, s, s);
        }
        let mut got = Vec::new();
        while let Some((_, s, _)) = cal.pop() {
            got.push(s);
        }
        assert_eq!(got, vec![1, 2, 5, 7, 9]);
    }

    /// A sparse far-future event (a retry backoff long after everything
    /// else drained) is found via the fallback scan.
    #[test]
    fn far_future_event_is_found() {
        let mut cal = CalendarQueue::new();
        for i in 0..10u64 {
            cal.push(i as f64 * 1e-7, i + 1, i);
        }
        cal.push(1e5, 999, 999); // ~28 virtual hours out
        for i in 0..10u64 {
            assert_eq!(cal.pop().unwrap().2, i);
        }
        assert_eq!(cal.pop().unwrap().2, 999);
        assert!(cal.pop().is_none());
    }

    /// Growth and shrink keep every entry and the order.
    #[test]
    fn resize_preserves_contents() {
        let mut cal = CalendarQueue::new();
        let n = 5000u64;
        for i in 0..n {
            cal.push((i % 977) as f64 * 3e-8, i + 1, i);
        }
        assert_eq!(cal.len(), n as usize);
        let mut last = (0.0f64, 0u64);
        let mut count = 0;
        while let Some((t, s, _)) = cal.pop() {
            assert!(
                t > last.0 || (t == last.0 && s > last.1),
                "order violated at ({t}, {s}) after {last:?}"
            );
            last = (t, s);
            count += 1;
        }
        assert_eq!(count, n);
    }

    /// `clear` empties the queue but keeps it usable.
    #[test]
    fn clear_then_reuse() {
        let mut cal = CalendarQueue::new();
        for i in 0..100u64 {
            cal.push(i as f64 * 1e-6, i + 1, i);
        }
        cal.clear();
        assert_eq!(cal.len(), 0);
        assert!(cal.pop().is_none());
        cal.push(5e-6, 1, 42u64);
        assert_eq!(cal.pop().unwrap().2, 42);
    }
}
