//! Operation kinds: the vocabulary of the schedule IR.
//!
//! Each operation names the *resources* it occupies implicitly through its
//! kind, which is how the simulator charges time and how the executors know
//! which thread performs it:
//!
//! | kind | moves data with | simulator resources |
//! |---|---|---|
//! | `Transfer`/`Cma` | the destination rank's CPU (process_vm_readv-style single copy) | `cpu(dst)`, `mem(node)` |
//! | `Transfer`/`Rail` | one HCA (RDMA; no CPU involvement) | `tx(src node, rail)`, `rx(dst node, rail)` |
//! | `Transfer`/`AllRails` | all HCAs (striped or round-robin per the cluster policy) | every rail of both nodes |
//! | `Copy` | the actor's CPU (memcpy within/into shm) | `cpu(actor)`, `mem(node)` |
//! | `Reduce` | the actor's CPU (read-read-write arithmetic) | `cpu(actor)`, `mem(node)` |
//! | `Compute` | the actor's CPU (pure FLOPs, no memory traffic modeled) | `cpu(actor)` |

use crate::buffer::Loc;
use crate::ids::RankId;

/// Which communication channel a [`OpKind::Transfer`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// Kernel-assisted single-copy (CMA / process_vm_readv). Executed by the
    /// destination rank's CPU; valid between ranks of the same node only.
    Cma,
    /// A specific HCA rail (0-based). Valid inter-node, and intra-node as a
    /// NIC-loopback transfer — the trick MHA-intra uses to recruit idle HCAs.
    Rail(u8),
    /// Let the point-to-point layer use every rail: striping for messages at
    /// or above the cluster's stripe threshold, round-robin below it
    /// (Section 2.1 / Liu et al. \[17\]).
    AllRails,
}

/// The rails a failure-aware builder may use: the survivors of a cluster's
/// `H` rails after excluding those known (or assumed) to be down.
///
/// [`Channel::AllRails`] resolves against this set when a builder re-tiles a
/// striped transfer over `H − k` surviving rails. With every rail up the set
/// is *full* and resolution is the identity — schedules built against a full
/// set are byte-identical to fault-oblivious ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RailSet {
    rails: Vec<u8>,
    total: u8,
}

impl RailSet {
    /// Every rail of a cluster with `total` rails is up.
    ///
    /// # Panics
    ///
    /// If `total` is zero.
    pub fn full(total: u8) -> Self {
        assert!(total > 0, "a cluster has at least one rail");
        RailSet {
            rails: (0..total).collect(),
            total,
        }
    }

    /// The survivors after excluding `down` (duplicates and out-of-range
    /// entries are ignored). If *every* rail is down, falls back to the full
    /// set — a builder must route somewhere, and the simulator's stall/retry
    /// machinery models waiting out a total outage.
    pub fn excluding(total: u8, down: &[u8]) -> Self {
        assert!(total > 0, "a cluster has at least one rail");
        let rails: Vec<u8> = (0..total).filter(|r| !down.contains(r)).collect();
        if rails.is_empty() {
            RailSet::full(total)
        } else {
            RailSet { rails, total }
        }
    }

    /// The surviving rail indices, ascending.
    pub fn rails(&self) -> &[u8] {
        &self.rails
    }

    /// Number of surviving rails (always ≥ 1).
    pub fn len(&self) -> usize {
        self.rails.len()
    }

    /// Never empty — kept for clippy's `len`-without-`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether every rail of the cluster survives.
    pub fn is_full(&self) -> bool {
        self.rails.len() == usize::from(self.total)
    }

    /// The cluster's total rail count.
    pub fn total(&self) -> u8 {
        self.total
    }
}

/// The element type of a [`OpKind::Reduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit IEEE float (the gradient type in the DL experiments).
    F32,
    /// 64-bit IEEE float.
    F64,
}

impl DType {
    /// Size of one element in bytes.
    #[inline]
    pub fn size(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F64 => 8,
        }
    }
}

/// The combining operator of a [`OpKind::Reduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedOp {
    /// Elementwise sum (MPI_SUM) — used by Allreduce.
    Sum,
    /// Elementwise maximum (MPI_MAX).
    Max,
}

/// One operation in the DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Move `len` bytes from `src` (addressed by `src_rank`) to `dst`
    /// (addressed by `dst_rank`) over `channel`.
    Transfer {
        /// Rank owning/registering the source region.
        src_rank: RankId,
        /// Rank owning/registering the destination region.
        dst_rank: RankId,
        /// Source byte range.
        src: Loc,
        /// Destination byte range.
        dst: Loc,
        /// Length in bytes.
        len: u32,
        /// Transport.
        channel: Channel,
    },
    /// A CPU memcpy by `actor` between two locally addressable ranges
    /// (e.g. leader copying an arrived chunk into the node's shm segment, or
    /// a member copying it out — phase 3 of MHA-inter).
    Copy {
        /// Rank whose CPU performs the copy.
        actor: RankId,
        /// Source byte range (must be local to `actor`).
        src: Loc,
        /// Destination byte range (must be local to `actor`).
        dst: Loc,
        /// Length in bytes.
        len: u32,
    },
    /// Elementwise `acc[i] = op(acc[i], operand[i])` over `len` bytes
    /// interpreted as `dtype` — the arithmetic step of reduce-scatter.
    Reduce {
        /// Rank whose CPU performs the reduction.
        actor: RankId,
        /// Accumulator range (read-modify-write; must be local to `actor`).
        acc: Loc,
        /// Operand range (read-only; must be local to `actor`).
        operand: Loc,
        /// Length in bytes; must be a multiple of `dtype.size()`.
        len: u32,
        /// Element type.
        dtype: DType,
        /// Combining operator.
        op: RedOp,
    },
    /// Pure computation by `actor` costing `flops` floating-point operations
    /// (the local GEMV in the matvec kernel, backprop in the DL loop).
    Compute {
        /// Rank whose CPU computes.
        actor: RankId,
        /// Cost in floating-point operations.
        flops: u64,
    },
}

impl OpKind {
    /// Bytes moved by this op (zero for `Compute`).
    pub fn bytes(&self) -> usize {
        match *self {
            OpKind::Transfer { len, .. }
            | OpKind::Copy { len, .. }
            | OpKind::Reduce { len, .. } => len as usize,
            OpKind::Compute { .. } => 0,
        }
    }

    /// Short kind name for traces and DOT dumps: its
    /// [`crate::OpClass::name`].
    pub fn kind_name(&self) -> &'static str {
        self.class_and_rank().0.name()
    }
}

/// A fixed name shown in place of the label an op's kind would render:
/// the zero-flop markers emitters place in a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Marker {
    /// Carries a rank's program order into a later phase (`sync`).
    Sync,
    /// The whole body of a zero-byte collective (`empty`).
    Empty,
    /// Joins the stripes of one striped transfer (`stripe-join`).
    StripeJoin,
}

impl Marker {
    /// The name traces and labels show.
    pub fn as_str(self) -> &'static str {
        match self {
            Marker::Sync => "sync",
            Marker::Empty => "empty",
            Marker::StripeJoin => "stripe-join",
        }
    }
}

/// An operation plus its DAG bookkeeping: one row of the op table.
///
/// An op is 40 bytes and owns no heap memory. Its id is its index in
/// [`crate::Schedule::ops`], its edges live in the schedule's edge lists
/// ([`crate::Schedule::deps`]), and its label is rendered
/// from the kind or the marker on demand ([`Op::label`]). Offsets and
/// lengths are `u32`, so no buffer of a schedule exceeds `u32::MAX` bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// What the op does.
    pub kind: OpKind,
    /// Algorithm step this op belongs to (for step-count assertions, traces
    /// and the Fig. 2-style timeline). Zero-based; `u32::MAX` = unassigned.
    pub step: u32,
    /// A fixed name (e.g. [`Marker::Sync`]) shown in place of the label
    /// derived from the kind; `None` for ops made by the builder's typed
    /// constructors.
    pub marker: Option<Marker>,
}

impl Op {
    /// Whether a step was assigned.
    pub fn has_step(&self) -> bool {
        self.step != u32::MAX
    }

    /// Human-readable label: the marker if the op has one, otherwise
    /// rendered from the kind — `r3->r0` for a transfer, `copy@r0`,
    /// `red@r1` and `comp@r2` for the CPU kinds.
    pub fn label(&self) -> OpLabel<'_> {
        OpLabel(self)
    }
}

/// An op's label, rendered through [`std::fmt::Display`] without storing
/// text (see [`Op::label`]).
#[derive(Debug, Clone, Copy)]
pub struct OpLabel<'a>(&'a Op);

impl std::fmt::Display for OpLabel<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(m) = self.0.marker {
            return f.write_str(m.as_str());
        }
        match self.0.kind {
            OpKind::Transfer {
                src_rank, dst_rank, ..
            } => write!(f, "{src_rank}->{dst_rank}"),
            OpKind::Copy { actor, .. } => write!(f, "copy@{actor}"),
            OpKind::Reduce { actor, .. } => write!(f, "red@{actor}"),
            OpKind::Compute { actor, .. } => write!(f, "comp@{actor}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::BufId;

    fn loc() -> Loc {
        Loc::new(BufId(0), 0)
    }

    #[test]
    fn rail_set_excludes_down_rails() {
        let full = RailSet::full(4);
        assert!(full.is_full());
        assert_eq!(full.rails(), &[0, 1, 2, 3]);

        let s = RailSet::excluding(4, &[1, 3]);
        assert!(!s.is_full());
        assert_eq!(s.rails(), &[0, 2]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.total(), 4);

        // Out-of-range / duplicate exclusions are ignored.
        let s = RailSet::excluding(2, &[1, 1, 9]);
        assert_eq!(s.rails(), &[0]);

        // A total outage falls back to the full set.
        let s = RailSet::excluding(2, &[0, 1]);
        assert!(s.is_full());
    }

    #[test]
    fn lane_rank_is_dst_for_cma_and_src_for_rail() {
        let transfer = |channel| OpKind::Transfer {
            src_rank: RankId(0),
            dst_rank: RankId(1),
            src: loc(),
            dst: loc(),
            len: 8,
            channel,
        };
        let cma = transfer(Channel::Cma);
        assert_eq!(cma.class_and_rank(), (crate::OpClass::Cma, 1));
        assert_eq!(cma.kind_name(), "cma");
        let rail = transfer(Channel::Rail(0));
        assert_eq!(rail.class_and_rank(), (crate::OpClass::Rail, 0));
        assert_eq!(rail.kind_name(), "rail");
    }

    #[test]
    fn bytes_and_names() {
        let c = OpKind::Copy {
            actor: RankId(0),
            src: loc(),
            dst: loc(),
            len: 123,
        };
        assert_eq!(c.bytes(), 123);
        assert_eq!(c.kind_name(), "copy");
        let comp = OpKind::Compute {
            actor: RankId(0),
            flops: 10,
        };
        assert_eq!(comp.bytes(), 0);
        assert_eq!(comp.kind_name(), "compute");
    }

    #[test]
    fn labels_render_the_former_strings() {
        let op = |kind, marker| Op {
            kind,
            step: 0,
            marker,
        };
        let transfer = |channel| OpKind::Transfer {
            src_rank: RankId(3),
            dst_rank: RankId(0),
            src: loc(),
            dst: loc(),
            len: 8,
            channel,
        };
        let label = |kind| op(kind, None).label().to_string();
        assert_eq!(label(transfer(Channel::Cma)), "r3->r0");
        assert_eq!(label(transfer(Channel::Rail(1))), "r3->r0");
        let copy = OpKind::Copy {
            actor: RankId(0),
            src: loc(),
            dst: loc(),
            len: 8,
        };
        assert_eq!(label(copy), "copy@r0");
        let reduce = OpKind::Reduce {
            actor: RankId(1),
            acc: loc(),
            operand: loc(),
            len: 8,
            dtype: DType::F32,
            op: RedOp::Sum,
        };
        assert_eq!(label(reduce), "red@r1");
        let comp = || OpKind::Compute {
            actor: RankId(2),
            flops: 0,
        };
        assert_eq!(label(comp()), "comp@r2");
        for (m, s) in [
            (Marker::Sync, "sync"),
            (Marker::Empty, "empty"),
            (Marker::StripeJoin, "stripe-join"),
        ] {
            assert_eq!(op(comp(), Some(m)).label().to_string(), s);
        }
    }

    #[test]
    fn the_op_table_row_is_40_bytes() {
        use std::mem::size_of;
        assert_eq!(size_of::<Loc>(), 8);
        assert_eq!(size_of::<OpKind>(), 32);
        assert_eq!(size_of::<Option<Marker>>(), 1);
        assert_eq!(size_of::<Op>(), 40);
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F32.size(), 4);
        assert_eq!(DType::F64.size(), 8);
    }
}
