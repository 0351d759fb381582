//! Real byte storage for schedule execution.
//!
//! Each declared buffer becomes a lock-protected `Vec<u8>`. The executors
//! lock the (at most two) buffers an op touches in id order, so no deadlock
//! is possible; for schedules that pass `mha_sched::check_races`, the result
//! is additionally independent of scheduling order.

use std::sync::Mutex;

use mha_sched::{BufId, Loc, Schedule};

use crate::lock;

/// The materialized buffers of one schedule.
pub struct BufferStore {
    bufs: Vec<Mutex<Vec<u8>>>,
}

impl BufferStore {
    /// Allocates zero-filled storage for every buffer in `sch`.
    pub fn new(sch: &Schedule) -> Self {
        BufferStore {
            bufs: sch
                .buffers()
                .iter()
                .map(|b| Mutex::new(vec![0u8; b.len]))
                .collect(),
        }
    }

    /// Number of buffers.
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    /// Whether the store holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Overwrites `buf[offset..offset + data.len()]` with `data`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn fill(&self, buf: BufId, offset: usize, data: &[u8]) {
        let mut guard = lock(&self.bufs[buf.index()]);
        guard[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Returns a copy of `buf[offset..offset + len]`.
    pub fn read(&self, buf: BufId, offset: usize, len: usize) -> Vec<u8> {
        let guard = lock(&self.bufs[buf.index()]);
        guard[offset..offset + len].to_vec()
    }

    /// Returns a full copy of `buf`.
    pub fn read_all(&self, buf: BufId) -> Vec<u8> {
        lock(&self.bufs[buf.index()]).clone()
    }

    /// Copies `len` bytes from `src` to `dst`, locking in id order.
    /// Used for transfers and copies alike (the executors model both as a
    /// memcpy; timing differences are the simulator's concern).
    pub fn copy_bytes(&self, src: Loc, dst: Loc, len: usize) {
        if src.buf == dst.buf {
            let mut guard = lock(&self.bufs[src.buf.index()]);
            // Validation forbids overlapping same-buffer copies, so a
            // temporary split via copy_within is safe.
            guard.copy_within(span(src, len), dst.offset as usize);
        } else {
            // Lock in id order to avoid deadlock between concurrent ops.
            let (first, second) = if src.buf < dst.buf {
                (src.buf, dst.buf)
            } else {
                (dst.buf, src.buf)
            };
            let g1 = lock(&self.bufs[first.index()]);
            let g2 = lock(&self.bufs[second.index()]);
            let (sg, mut dg) = if src.buf == first { (g1, g2) } else { (g2, g1) };
            dg[span(dst, len)].copy_from_slice(&sg[span(src, len)]);
        }
    }

    /// Applies `acc[i] = combine(acc[i], operand[i])` elementwise over `len`
    /// bytes, where `elem_size`-byte chunks are combined by `combine`.
    pub fn combine_bytes(
        &self,
        acc: Loc,
        operand: Loc,
        len: usize,
        elem_size: usize,
        combine: impl Fn(&mut [u8], &[u8]),
    ) {
        assert_eq!(len % elem_size, 0);
        if acc.buf == operand.buf {
            let mut guard = lock(&self.bufs[acc.buf.index()]);
            // Ranges are validated non-overlapping only for Copy; reduce may
            // legally read and write the same buffer at disjoint offsets.
            // Work on a copied operand to sidestep aliasing.
            let op_copy = guard[span(operand, len)].to_vec();
            let acc_slice = &mut guard[span(acc, len)];
            for (a, o) in acc_slice
                .chunks_exact_mut(elem_size)
                .zip(op_copy.chunks_exact(elem_size))
            {
                combine(a, o);
            }
        } else {
            let (first, second) = if acc.buf < operand.buf {
                (acc.buf, operand.buf)
            } else {
                (operand.buf, acc.buf)
            };
            let g1 = lock(&self.bufs[first.index()]);
            let g2 = lock(&self.bufs[second.index()]);
            let (mut ag, og) = if acc.buf == first { (g1, g2) } else { (g2, g1) };
            let acc_slice = &mut ag[span(acc, len)];
            let op_slice = &og[span(operand, len)];
            for (a, o) in acc_slice
                .chunks_exact_mut(elem_size)
                .zip(op_slice.chunks_exact(elem_size))
            {
                combine(a, o);
            }
        }
    }
}

/// The bytes `len` long at `loc`, as a slice range.
fn span(loc: Loc, len: usize) -> std::ops::Range<usize> {
    let start = loc.offset as usize;
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;
    use mha_sched::{ProcGrid, RankId, ScheduleBuilder};

    fn store_with(lens: &[usize]) -> (Schedule, BufferStore) {
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(1), "t");
        for (i, &l) in lens.iter().enumerate() {
            b.private_buf(RankId(0), l, format!("b{i}"));
        }
        // A schedule must not be empty of buffers for these tests; ops not
        // needed here.
        let sch = b.finish();
        let store = BufferStore::new(&sch);
        (sch, store)
    }

    #[test]
    fn buffers_start_zeroed() {
        let (_s, st) = store_with(&[4, 8]);
        assert_eq!(st.len(), 2);
        assert!(!st.is_empty());
        assert_eq!(st.read_all(BufId(0)), vec![0; 4]);
        assert_eq!(st.read(BufId(1), 2, 3), vec![0; 3]);
    }

    #[test]
    fn fill_then_read_round_trips() {
        let (_s, st) = store_with(&[8]);
        st.fill(BufId(0), 2, &[1, 2, 3]);
        assert_eq!(st.read_all(BufId(0)), vec![0, 0, 1, 2, 3, 0, 0, 0]);
    }

    #[test]
    fn copy_between_buffers() {
        let (_s, st) = store_with(&[4, 4]);
        st.fill(BufId(0), 0, &[9, 8, 7, 6]);
        st.copy_bytes(Loc::new(BufId(0), 1), Loc::new(BufId(1), 2), 2);
        assert_eq!(st.read_all(BufId(1)), vec![0, 0, 8, 7]);
    }

    #[test]
    fn copy_within_one_buffer() {
        let (_s, st) = store_with(&[8]);
        st.fill(BufId(0), 0, &[1, 2, 3, 4, 0, 0, 0, 0]);
        st.copy_bytes(Loc::new(BufId(0), 0), Loc::new(BufId(0), 4), 4);
        assert_eq!(st.read_all(BufId(0)), vec![1, 2, 3, 4, 1, 2, 3, 4]);
    }

    #[test]
    fn combine_sums_f32() {
        let (_s, st) = store_with(&[8, 8]);
        let a: Vec<u8> = [1.5f32, 2.0].iter().flat_map(|v| v.to_ne_bytes()).collect();
        let b: Vec<u8> = [0.5f32, 3.0].iter().flat_map(|v| v.to_ne_bytes()).collect();
        st.fill(BufId(0), 0, &a);
        st.fill(BufId(1), 0, &b);
        st.combine_bytes(
            Loc::new(BufId(0), 0),
            Loc::new(BufId(1), 0),
            8,
            4,
            |acc, op| {
                let x = f32::from_ne_bytes(acc.try_into().unwrap())
                    + f32::from_ne_bytes(op.try_into().unwrap());
                acc.copy_from_slice(&x.to_ne_bytes());
            },
        );
        let out = st.read_all(BufId(0));
        let v0 = f32::from_ne_bytes(out[0..4].try_into().unwrap());
        let v1 = f32::from_ne_bytes(out[4..8].try_into().unwrap());
        assert_eq!((v0, v1), (2.0, 5.0));
    }

    #[test]
    fn combine_within_one_buffer_disjoint_ranges() {
        let (_s, st) = store_with(&[16]);
        let vals: Vec<u8> = [1.0f32, 2.0, 10.0, 20.0]
            .iter()
            .flat_map(|v| v.to_ne_bytes())
            .collect();
        st.fill(BufId(0), 0, &vals);
        st.combine_bytes(
            Loc::new(BufId(0), 0),
            Loc::new(BufId(0), 8),
            8,
            4,
            |acc, op| {
                let x = f32::from_ne_bytes(acc.try_into().unwrap())
                    + f32::from_ne_bytes(op.try_into().unwrap());
                acc.copy_from_slice(&x.to_ne_bytes());
            },
        );
        let out = st.read_all(BufId(0));
        let v0 = f32::from_ne_bytes(out[0..4].try_into().unwrap());
        let v1 = f32::from_ne_bytes(out[4..8].try_into().unwrap());
        assert_eq!((v0, v1), (11.0, 22.0));
    }
}
