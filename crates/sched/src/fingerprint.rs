//! Stable structural fingerprints for cache keys.
//!
//! Rust's `DefaultHasher` is explicitly unstable across releases and (with
//! `RandomState`) across processes, so cache keys and persisted digests use
//! this module instead. Two constructions, each with an output that never
//! changes for a given input:
//!
//! * [`Fingerprinter`] — an order-sensitive FNV-1a 64-bit accumulator with
//!   typed `push_*` methods (each value is framed by a type tag so
//!   `push_u32(1); push_u32(2)` and `push_u64(…)` of the concatenated bits
//!   cannot collide by framing), for config, spec and table digests;
//! * [`FrozenSchedule::fingerprint`] — a digest of everything execution
//!   observes about a schedule: grid, buffer table, op table (kinds, ranks,
//!   locations, lengths, channels), step tags, dependency edges and release
//!   delays, hashed a word at a time over several multiply lanes. The
//!   campaign runner (in `mha-bench`) keys its shared simulations by it:
//!   two schedules with equal fingerprints simulate identically on the
//!   same cluster spec (up to the 64-bit collision bound).

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

/// Multiply lanes of [`FrozenSchedule::fingerprint`], one per word of a
/// block: the lanes' multiplies do not wait on each other. Five, the words
/// of one op.
const LANES: usize = 5;

/// A block of [`LANES`] words.
type Block = [u64; LANES];

/// Per-lane start states and multipliers, and the multiplier that folds
/// the lanes together: odd constants with well-spread bits (the digits of
/// π, and the wyhash and splitmix64 constants).
const SEED: Block = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
    0x4528_21e6_38d0_1377,
];
const MUL: Block = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
    0x1d8e_4e27_c47d_124f,
];
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;

/// The 128-bit product of `a` and `b`, its high half xor its low half.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    // Splitting the product into its two halves is the point.
    #[allow(clippy::cast_possible_truncation)]
    let (lo, hi) = (p as u64, (p >> 64) as u64);
    lo ^ hi
}

/// Two `u32` fields in one word, `lo` in the low half.
#[inline]
fn pack(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | u64::from(hi) << 32
}

/// A location as one word: buffer id low, offset high.
#[inline]
fn loc(l: &crate::buffer::Loc) -> u64 {
    pack(l.buf.0, l.offset)
}

/// The order-sensitive block hash behind [`FrozenSchedule::fingerprint`]:
/// each block's words go one to a lane, through a folded multiply, and
/// [`WordHash::finish`] mixes the lanes into one digest. A record shorter
/// than a block is zero-padded to one; a stream whose records each have a
/// length fixed by the words before them is decoded unambiguously from its
/// blocks, so only the 64-bit collision bound can merge two such streams.
struct WordHash {
    lanes: Block,
}

impl WordHash {
    fn new() -> Self {
        WordHash { lanes: SEED }
    }

    #[inline]
    fn block(&mut self, b: Block) {
        for (k, lane) in self.lanes.iter_mut().enumerate() {
            *lane = fold_mul(*lane ^ b[k], MUL[k]);
        }
    }

    /// `v`, two values per word, zero-padded to whole blocks.
    fn u32s(&mut self, v: &[u32]) {
        let mut chunks = v.chunks_exact(2 * LANES);
        for c in &mut chunks {
            self.block(std::array::from_fn(|k| pack(c[2 * k], c[2 * k + 1])));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let at = |i: usize| rest.get(i).copied().unwrap_or(0);
            self.block(std::array::from_fn(|k| pack(at(2 * k), at(2 * k + 1))));
        }
    }

    fn finish(self) -> Fingerprint {
        let mut h = 0;
        for lane in self.lanes {
            h = fold_mul(h ^ lane, FOLD);
        }
        // The murmur3 finalizer: every input bit reaches every output bit.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        Fingerprint(h)
    }
}

impl FrozenSchedule {
    /// A stable structural digest of the schedule: grid, buffers, op kinds
    /// with all operands, step tags, dependency edges and release delays.
    /// Everything the simulator and executors can observe contributes; the
    /// human-readable schedule name, buffer labels and op markers do not
    /// (two identically-built schedules with different names are
    /// interchangeable for execution). Release delays are mixed in only
    /// when the schedule has any, so a release-free schedule's digest does
    /// not depend on them.
    ///
    /// The schedule is hashed as blocks of five `u64` words, each word on
    /// its own multiply lane, with fields packed two `u32`s to a word: a
    /// header (grid, buffer and op counts, whether there are release
    /// delays); one block per buffer (owner and home socket, their tags,
    /// the length); one per op (kind tag, channel or element type and
    /// step; ranks or actor; two locations or the flop count; length and
    /// successor count); the successor lists, ten ids to a block; the
    /// release delays' bits, five to a block. The edges are read from the
    /// successor lists the frozen schedule stores, so hashing never
    /// derives the predecessor view. O(ops + edges), no allocation.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = WordHash::new();
        let n = self.ops().len();
        h.block([
            pack(self.grid().nodes(), self.grid().ppn()),
            self.buffers().len() as u64,
            n as u64,
            u64::from(self.has_releases()),
            0,
        ]);

        for b in self.buffers() {
            let (shared, owner) = match b.kind {
                BufKind::Private(r) => (0, r.0),
                BufKind::NodeShared(node) => (1, node.0),
            };
            let (homed, socket) = b.home_socket.map_or((0, 0), |s| (1, s));
            h.block([pack(owner, socket), pack(shared, homed), b.len as u64, 0, 0]);
        }

        let (succs, _) = self.edges.frozen();
        for (op, ends) in self.ops().iter().zip(succs.off.windows(2)) {
            // (tag, channel or element type, actors, operands, length)
            let (tag, aux, who, a, b, len) = match &op.kind {
                OpKind::Transfer {
                    src_rank,
                    dst_rank,
                    src,
                    dst,
                    len,
                    channel,
                } => {
                    let aux = match channel {
                        Channel::Cma => 0,
                        Channel::AllRails => 1,
                        Channel::Rail(r) => 2 | u32::from(*r) << 2,
                    };
                    (
                        0,
                        aux,
                        pack(src_rank.0, dst_rank.0),
                        loc(src),
                        loc(dst),
                        *len,
                    )
                }
                OpKind::Copy {
                    actor,
                    src,
                    dst,
                    len,
                } => (1, 0, u64::from(actor.0), loc(src), loc(dst), *len),
                OpKind::Reduce {
                    actor,
                    acc,
                    operand,
                    len,
                    dtype,
                    op: red,
                } => {
                    let size = u32::try_from(dtype.size()).expect("element sizes are 4 or 8");
                    let aux = size | (*red as u32) << 8;
                    (2, aux, u64::from(actor.0), loc(acc), loc(operand), *len)
                }
                OpKind::Compute { actor, flops } => (3, 0, u64::from(actor.0), *flops, 0, 0),
            };
            h.block([
                pack(tag | aux << 8, op.step),
                who,
                a,
                b,
                pack(len, ends[1] - ends[0]),
            ]);
        }
        h.u32s(&succs.adj);

        if self.has_releases() {
            for first in (0..n).step_by(LANES) {
                h.block(std::array::from_fn(|k| {
                    let i = first + k;
                    if i < n {
                        self.release_of(OpId::from(i)).to_bits()
                    } else {
                        0
                    }
                }));
            }
        }
        h.finish()
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
    fn fingerprint_distinguishes_release_delays() {
        let with_release = |secs: Option<f64>| {
            let mut b = ScheduleBuilder::new(ProcGrid::single_node(1), "r");
            let a = b.compute(RankId(0), 7, &[], 0);
            b.compute(RankId(0), 7, &[a], 1);
            if let Some(secs) = secs {
                b.set_release(a, secs);
            }
            b.finish().freeze().fingerprint()
        };
        let free = with_release(None);
        assert_eq!(free, with_release(Some(0.0)));
        assert_ne!(free, with_release(Some(1e-6)));
        assert_ne!(with_release(Some(1e-6)), with_release(Some(2e-6)));
        assert_eq!(with_release(Some(1e-6)), with_release(Some(1e-6)));
    }

    #[test]
    fn fingerprint_distinguishes_the_edges() {
        // Three equal ops; only which op waits on which differs.
        let chain = |edges: &[(usize, usize)]| {
            let mut b = ScheduleBuilder::new(ProcGrid::single_node(1), "e");
            let mut ids = Vec::new();
            for _ in 0..3 {
                let deps: Vec<OpId> = edges
                    .iter()
                    .filter(|&&(_, to)| to == ids.len())
                    .map(|&(from, _)| ids[from])
                    .collect();
                ids.push(b.compute(RankId(0), 7, &deps, 0));
            }
            b.finish().freeze().fingerprint()
        };
        let fps = [
            chain(&[]),
            chain(&[(0, 1)]),
            chain(&[(0, 2)]),
            chain(&[(1, 2)]),
            chain(&[(0, 1), (0, 2)]),
            chain(&[(0, 1), (1, 2)]),
        ];
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(fps[5], chain(&[(0, 1), (1, 2)]));
    }

    #[test]
    fn refreezing_keeps_the_fingerprint() {
        let fs = sched(1024, Channel::AllRails);
        let before = fs.fingerprint();
        assert_eq!(fs.into_schedule().freeze().fingerprint(), before);
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
