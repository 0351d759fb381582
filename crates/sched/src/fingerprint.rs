//! Stable structural fingerprints for cache keys.
//!
//! The campaign runner (in `mha-bench`) memoizes built-and-frozen schedules
//! across sweep points, keyed by the *build-relevant* configuration. Rust's
//! `DefaultHasher` is explicitly unstable across releases and (with
//! `RandomState`) across processes, so cache keys and persisted digests use
//! this module instead: a fixed FNV-1a 64-bit construction whose output for
//! a given byte sequence never changes.
//!
//! Two layers:
//!
//! * [`Fingerprinter`] — an order-sensitive accumulator with typed `push_*`
//!   methods (each value is framed by a type tag so `push_u32(1); push_u32(2)`
//!   and `push_u64(…)` of the concatenated bits cannot collide by framing);
//! * [`FrozenSchedule::fingerprint`] — a digest of everything execution
//!   observes about a schedule: grid, buffer table, op table (kinds, ranks,
//!   locations, lengths, channels), dependency edges and step tags. Two
//!   schedules with equal fingerprints simulate identically on the same
//!   cluster spec (up to the 64-bit collision bound).

use crate::buffer::BufKind;
use crate::frozen::FrozenSchedule;
use crate::ids::OpId;
use crate::op::{Channel, OpKind};

/// A 64-bit stable digest (see module docs for guarantees).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Order-sensitive stable hasher over typed values.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    state: u64,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

impl Fingerprinter {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Fingerprinter { state: FNV_OFFSET }
    }

    fn byte(&mut self, b: u8) {
        self.state ^= u64::from(b);
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    fn raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    fn tagged(&mut self, tag: u8, bytes: &[u8]) {
        self.byte(tag);
        self.raw(bytes);
    }

    /// Mixes in one byte.
    pub fn push_u8(&mut self, v: u8) -> &mut Self {
        self.tagged(1, &[v]);
        self
    }

    /// Mixes in a `u32`.
    pub fn push_u32(&mut self, v: u32) -> &mut Self {
        self.tagged(2, &v.to_le_bytes());
        self
    }

    /// Mixes in a `u64`.
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.tagged(3, &v.to_le_bytes());
        self
    }

    /// Mixes in a `usize` (widened to 64 bits so 32/64-bit hosts agree).
    pub fn push_usize(&mut self, v: usize) -> &mut Self {
        self.tagged(4, &(v as u64).to_le_bytes());
        self
    }

    /// Mixes in an `f64` by exact bit pattern (`-0.0` and `0.0` differ).
    pub fn push_f64(&mut self, v: f64) -> &mut Self {
        self.tagged(5, &v.to_bits().to_le_bytes());
        self
    }

    /// Mixes in a boolean.
    pub fn push_bool(&mut self, v: bool) -> &mut Self {
        self.tagged(6, &[u8::from(v)]);
        self
    }

    /// Mixes in a string, length-framed so `("ab","c")` ≠ `("a","bc")`.
    pub fn push_str(&mut self, v: &str) -> &mut Self {
        self.byte(7);
        self.raw(&(v.len() as u64).to_le_bytes());
        self.raw(v.as_bytes());
        self
    }

    /// The digest of everything pushed so far.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

// Offsets and lengths are pushed as `usize`, the width the pinned
// digests were taken at.
fn push_loc(fp: &mut Fingerprinter, loc: &crate::buffer::Loc) {
    fp.push_u32(loc.buf.0).push_usize(loc.offset as usize);
}

impl FrozenSchedule {
    /// A stable structural digest of the schedule: grid, buffers, op kinds
    /// with all operands, dependency edges and step tags. Everything the
    /// simulator and executors can observe contributes; the human-readable
    /// schedule name does not (two identically-built schedules with
    /// different names are interchangeable for execution).
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprinter::new();
        fp.push_u32(self.grid().nodes()).push_u32(self.grid().ppn());

        fp.push_usize(self.buffers().len());
        for b in self.buffers() {
            match b.kind {
                BufKind::Private(r) => fp.push_u8(0).push_u32(r.0),
                BufKind::NodeShared(n) => fp.push_u8(1).push_u32(n.0),
            };
            fp.push_usize(b.len);
            match b.home_socket {
                None => fp.push_u8(0),
                Some(s) => fp.push_u8(1).push_u32(s),
            };
        }

        fp.push_usize(self.ops().len());
        for (i, op) in self.ops().iter().enumerate() {
            match &op.kind {
                OpKind::Transfer {
                    src_rank,
                    dst_rank,
                    src,
                    dst,
                    len,
                    channel,
                } => {
                    fp.push_u8(10).push_u32(src_rank.0).push_u32(dst_rank.0);
                    push_loc(&mut fp, src);
                    push_loc(&mut fp, dst);
                    fp.push_usize(*len as usize);
                    match channel {
                        Channel::Cma => fp.push_u8(0),
                        Channel::Rail(h) => fp.push_u8(1).push_u8(*h),
                        Channel::AllRails => fp.push_u8(2),
                    };
                }
                OpKind::Copy {
                    actor,
                    src,
                    dst,
                    len,
                } => {
                    fp.push_u8(11).push_u32(actor.0);
                    push_loc(&mut fp, src);
                    push_loc(&mut fp, dst);
                    fp.push_usize(*len as usize);
                }
                OpKind::Reduce {
                    actor,
                    acc,
                    operand,
                    len,
                    dtype,
                    op: red,
                } => {
                    fp.push_u8(12).push_u32(actor.0);
                    push_loc(&mut fp, acc);
                    push_loc(&mut fp, operand);
                    fp.push_usize(*len as usize)
                        .push_u8(u8::try_from(dtype.size()).expect("element sizes are 4 or 8"))
                        .push_u8(*red as u8);
                }
                OpKind::Compute { actor, flops } => {
                    fp.push_u8(13).push_u32(actor.0).push_u64(*flops);
                }
            }
            fp.push_u32(op.step);
            let deps = self.deps(OpId::from(i));
            fp.push_usize(deps.len());
            for d in deps {
                fp.push_u32(d.0);
            }
        }
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Loc;
    use crate::builder::ScheduleBuilder;
    use crate::grid::ProcGrid;
    use crate::ids::RankId;

    fn sched(len: usize, channel: Channel) -> FrozenSchedule {
        let mut b = ScheduleBuilder::new(ProcGrid::new(2, 1), "s");
        let s = b.private_buf(RankId(0), len, "s");
        let d = b.private_buf(RankId(1), len, "d");
        b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            len,
            channel,
            &[],
            0,
        );
        b.finish().freeze()
    }

    #[test]
    fn fingerprint_is_stable_across_rebuilds() {
        assert_eq!(
            sched(1024, Channel::AllRails).fingerprint(),
            sched(1024, Channel::AllRails).fingerprint()
        );
    }

    #[test]
    fn fingerprint_distinguishes_len_and_channel() {
        let base = sched(1024, Channel::AllRails).fingerprint();
        assert_ne!(base, sched(2048, Channel::AllRails).fingerprint());
        assert_ne!(base, sched(1024, Channel::Rail(0)).fingerprint());
        assert_ne!(base, sched(1024, Channel::Rail(1)).fingerprint());
        assert_ne!(base, sched(1024, Channel::Cma).fingerprint());
    }

    #[test]
    fn fingerprint_ignores_the_schedule_name() {
        let mut a = ScheduleBuilder::new(ProcGrid::single_node(1), "alpha");
        a.compute(RankId(0), 7, &[], 0);
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(1), "beta");
        b.compute(RankId(0), 7, &[], 0);
        assert_eq!(
            a.finish().freeze().fingerprint(),
            b.finish().freeze().fingerprint()
        );
    }

    #[test]
    fn typed_framing_prevents_concatenation_collisions() {
        let mut a = Fingerprinter::new();
        a.push_str("ab").push_str("c");
        let mut b = Fingerprinter::new();
        b.push_str("a").push_str("bc");
        assert_ne!(a.finish(), b.finish());

        let mut c = Fingerprinter::new();
        c.push_u32(1).push_u32(2);
        let mut d = Fingerprinter::new();
        d.push_u64(1 | (2 << 32));
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn fingerprint_display_is_hex() {
        let s = format!("{}", Fingerprint(0xdead_beef));
        assert_eq!(s, "00000000deadbeef");
    }
}
