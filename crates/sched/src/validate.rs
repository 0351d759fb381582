//! Structural validation and data-race checking for schedules.
//!
//! Every algorithm in `mha-collectives` is tested through these checks: a
//! schedule that passes [`validate`] is safe for both back-ends to run, and
//! one that passes [`check_races`] is deterministic regardless of execution
//! interleaving — the property the paper's chunk-counter pipeline relies on.

use std::fmt;

use crate::buffer::{BufKind, Loc};
use crate::ids::{BufId, OpId};
use crate::op::{Channel, OpKind};
use crate::schedule::Schedule;

/// A structural defect found by [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing
pub enum ValidateError {
    /// A `Loc` names a buffer that was never declared.
    UnknownBuffer { op: OpId, buf: BufId },
    /// A byte range runs past the end of its buffer.
    OutOfBounds {
        op: OpId,
        buf: BufId,
        offset: usize,
        len: usize,
        buf_len: usize,
    },
    /// An op moves zero bytes (always an algorithm bug).
    EmptyOp { op: OpId },
    /// A transfer endpoint rank cannot address the named buffer.
    BadEndpoint { op: OpId, buf: BufId },
    /// A CMA transfer between ranks on different nodes.
    CmaAcrossNodes { op: OpId },
    /// A transfer from a rank to itself.
    SelfTransfer { op: OpId },
    /// A copy/reduce actor cannot address one of its operands locally.
    NonLocalAccess { op: OpId, buf: BufId },
    /// A copy whose source and destination ranges overlap in one buffer.
    OverlappingCopy { op: OpId },
    /// A rail index at or above the cluster's rail count.
    RailOutOfRange { op: OpId, rail: u8, rails: u8 },
    /// A reduce whose length is not a multiple of its element size.
    MisalignedReduce { op: OpId },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::UnknownBuffer { op, buf } => {
                write!(f, "{op}: unknown buffer {buf}")
            }
            ValidateError::OutOfBounds {
                op,
                buf,
                offset,
                len,
                buf_len,
            } => write!(
                f,
                "{op}: range {offset}..{} exceeds {buf} of length {buf_len}",
                offset + len
            ),
            ValidateError::EmptyOp { op } => write!(f, "{op}: zero-length operation"),
            ValidateError::BadEndpoint { op, buf } => {
                write!(f, "{op}: endpoint rank cannot address {buf}")
            }
            ValidateError::CmaAcrossNodes { op } => {
                write!(f, "{op}: CMA transfer crosses node boundary")
            }
            ValidateError::SelfTransfer { op } => write!(f, "{op}: transfer to self"),
            ValidateError::NonLocalAccess { op, buf } => {
                write!(f, "{op}: actor cannot locally address {buf}")
            }
            ValidateError::OverlappingCopy { op } => {
                write!(f, "{op}: copy source and destination overlap")
            }
            ValidateError::RailOutOfRange { op, rail, rails } => {
                write!(f, "{op}: rail {rail} out of range (cluster has {rails})")
            }
            ValidateError::MisalignedReduce { op } => {
                write!(f, "{op}: reduce length not a multiple of element size")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

fn check_range(sch: &Schedule, op: OpId, loc: Loc, len: usize) -> Result<(), ValidateError> {
    let Some(buf) = sch.buffers().get(loc.buf.index()) else {
        return Err(ValidateError::UnknownBuffer { op, buf: loc.buf });
    };
    let end = loc
        .offset
        .checked_add(len)
        .ok_or(ValidateError::OutOfBounds {
            op,
            buf: loc.buf,
            offset: loc.offset,
            len,
            buf_len: buf.len,
        })?;
    if end > buf.len {
        return Err(ValidateError::OutOfBounds {
            op,
            buf: loc.buf,
            offset: loc.offset,
            len,
            buf_len: buf.len,
        });
    }
    Ok(())
}

/// Validates schedule structure: bounds, locality, channel legality.
///
/// `rails` is the number of HCAs per node on the target cluster; pass `None`
/// to skip rail-index checking (e.g. when the schedule is cluster-agnostic).
pub fn validate(sch: &Schedule, rails: Option<u8>) -> Result<(), ValidateError> {
    let grid = sch.grid();
    for op in sch.ops() {
        let id = op.id;
        match &op.kind {
            OpKind::Transfer {
                src_rank,
                dst_rank,
                src,
                dst,
                len,
                channel,
            } => {
                if *len == 0 {
                    return Err(ValidateError::EmptyOp { op: id });
                }
                if src_rank == dst_rank {
                    return Err(ValidateError::SelfTransfer { op: id });
                }
                check_range(sch, id, *src, *len)?;
                check_range(sch, id, *dst, *len)?;
                if !sch.buffer(src.buf).transfer_endpoint_ok(grid, *src_rank) {
                    return Err(ValidateError::BadEndpoint {
                        op: id,
                        buf: src.buf,
                    });
                }
                if !sch.buffer(dst.buf).transfer_endpoint_ok(grid, *dst_rank) {
                    return Err(ValidateError::BadEndpoint {
                        op: id,
                        buf: dst.buf,
                    });
                }
                match channel {
                    Channel::Cma => {
                        if !grid.same_node(*src_rank, *dst_rank) {
                            return Err(ValidateError::CmaAcrossNodes { op: id });
                        }
                    }
                    Channel::Rail(h) => {
                        if let Some(r) = rails {
                            if *h >= r {
                                return Err(ValidateError::RailOutOfRange {
                                    op: id,
                                    rail: *h,
                                    rails: r,
                                });
                            }
                        }
                    }
                    Channel::AllRails => {}
                }
            }
            OpKind::Copy {
                actor,
                src,
                dst,
                len,
            } => {
                if *len == 0 {
                    return Err(ValidateError::EmptyOp { op: id });
                }
                check_range(sch, id, *src, *len)?;
                check_range(sch, id, *dst, *len)?;
                for loc in [src, dst] {
                    if !sch.buffer(loc.buf).local_to(grid, *actor) {
                        return Err(ValidateError::NonLocalAccess {
                            op: id,
                            buf: loc.buf,
                        });
                    }
                }
                if src.buf == dst.buf {
                    let (a0, a1) = (src.offset, src.offset + len);
                    let (b0, b1) = (dst.offset, dst.offset + len);
                    if a0 < b1 && b0 < a1 {
                        return Err(ValidateError::OverlappingCopy { op: id });
                    }
                }
            }
            OpKind::Reduce {
                actor,
                acc,
                operand,
                len,
                dtype,
                ..
            } => {
                if *len == 0 {
                    return Err(ValidateError::EmptyOp { op: id });
                }
                if *len % dtype.size() != 0 {
                    return Err(ValidateError::MisalignedReduce { op: id });
                }
                check_range(sch, id, *acc, *len)?;
                check_range(sch, id, *operand, *len)?;
                for loc in [acc, operand] {
                    if !sch.buffer(loc.buf).local_to(grid, *actor) {
                        return Err(ValidateError::NonLocalAccess {
                            op: id,
                            buf: loc.buf,
                        });
                    }
                }
            }
            OpKind::Compute { .. } => {}
        }
    }
    Ok(())
}

/// A pair of unordered, conflicting operations found by [`check_races`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Race {
    /// First op (lower id).
    pub a: OpId,
    /// Second op.
    pub b: OpId,
    /// Buffer on which the conflicting access happens.
    pub buf: BufId,
}

#[derive(Clone, Copy)]
struct Access {
    op: OpId,
    start: usize,
    end: usize,
    write: bool,
}

fn accesses_of(kind: &OpKind, mut f: impl FnMut(Loc, usize, bool)) {
    match *kind {
        OpKind::Transfer { src, dst, len, .. } => {
            f(src, len, false);
            f(dst, len, true);
        }
        OpKind::Copy { src, dst, len, .. } => {
            f(src, len, false);
            f(dst, len, true);
        }
        OpKind::Reduce {
            acc, operand, len, ..
        } => {
            f(operand, len, false);
            f(acc, len, true);
        }
        OpKind::Compute { .. } => {}
    }
}

/// A dense reachability bitmap over the (topologically ordered) op DAG.
struct Reach {
    words_per_op: usize,
    bits: Vec<u64>,
}

impl Reach {
    fn build(sch: &Schedule) -> Self {
        let n = sch.ops().len();
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; words * n];
        for op in sch.ops() {
            let i = op.id.index();
            // Split at the current op's row to borrow ancestor rows immutably.
            let (prev, cur) = bits.split_at_mut(i * words);
            let row = &mut cur[..words];
            for &d in sch.deps(op.id) {
                let j = d.index();
                row[j / 64] |= 1 << (j % 64);
                let drow = &prev[j * words..(j + 1) * words];
                for (r, d) in row.iter_mut().zip(drow) {
                    *r |= *d;
                }
            }
        }
        Reach {
            words_per_op: words,
            bits,
        }
    }

    /// True if `a` happens-before `b` (a is an ancestor of b).
    fn ordered(&self, a: OpId, b: OpId) -> bool {
        let (a, b) = (a.index(), b.index());
        let row = &self.bits[b * self.words_per_op..(b + 1) * self.words_per_op];
        row[a / 64] & (1 << (a % 64)) != 0
    }
}

/// Exhaustively checks that every pair of conflicting accesses (two accesses
/// to overlapping byte ranges of one buffer, at least one a write) is ordered
/// by the dependency DAG.
///
/// Cost is O(ops² / 64) in time and memory for the reachability bitmap plus
/// O(k²) per buffer for k accesses, so use it on test-sized schedules (it is
/// exercised up to a few thousand ops in this repo's test suite).
pub fn check_races(sch: &Schedule) -> Vec<Race> {
    let nbuf = sch.buffers().len();
    let mut per_buf: Vec<Vec<Access>> = vec![Vec::new(); nbuf];
    for op in sch.ops() {
        accesses_of(&op.kind, |loc, len, write| {
            per_buf[loc.buf.index()].push(Access {
                op: op.id,
                start: loc.offset,
                end: loc.offset + len,
                write,
            });
        });
    }
    let reach = Reach::build(sch);
    let mut races = Vec::new();
    for (bi, accesses) in per_buf.iter_mut().enumerate() {
        accesses.sort_by_key(|a| a.start);
        for i in 0..accesses.len() {
            let a = accesses[i];
            for b in accesses.iter().skip(i + 1) {
                if b.start >= a.end {
                    break; // sorted by start: nothing later can overlap `a`
                }
                if a.op == b.op || (!a.write && !b.write) {
                    continue;
                }
                if !reach.ordered(a.op, b.op) && !reach.ordered(b.op, a.op) {
                    let (lo, hi) = if a.op < b.op {
                        (a.op, b.op)
                    } else {
                        (b.op, a.op)
                    };
                    let race = Race {
                        a: lo,
                        b: hi,
                        buf: BufId::from(bi),
                    };
                    if !races.contains(&race) {
                        races.push(race);
                    }
                }
            }
        }
    }
    races
}

/// `Private` buffers involved in rail transfers would, on real hardware, need
/// memory registration; this helper reports how many distinct buffers a rail
/// ever touches (used by tests to keep registration counts sane).
pub fn rail_registered_buffers(sch: &Schedule) -> usize {
    let mut seen = vec![false; sch.buffers().len()];
    for op in sch.ops() {
        if let OpKind::Transfer {
            src,
            dst,
            channel: Channel::Rail(_) | Channel::AllRails,
            ..
        } = op.kind
        {
            seen[src.buf.index()] = true;
            seen[dst.buf.index()] = true;
        }
    }
    seen.iter()
        .zip(sch.buffers())
        .filter(|(s, b)| **s && matches!(b.kind, BufKind::Private(_)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScheduleBuilder;
    use crate::grid::ProcGrid;
    use crate::ids::{NodeId, RankId};

    fn grid22() -> ProcGrid {
        ProcGrid::new(2, 2)
    }

    #[test]
    fn valid_schedule_passes() {
        let mut b = ScheduleBuilder::new(grid22(), "ok");
        let s = b.private_buf(RankId(0), 8, "s");
        let d = b.private_buf(RankId(2), 8, "d");
        b.transfer(
            RankId(0),
            RankId(2),
            Loc::new(s, 0),
            Loc::new(d, 0),
            8,
            Channel::Rail(1),
            &[],
            0,
        );
        let sch = b.finish();
        assert!(validate(&sch, Some(2)).is_ok());
        assert!(check_races(&sch).is_empty());
        assert_eq!(rail_registered_buffers(&sch), 2);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut b = ScheduleBuilder::new(grid22(), "oob");
        let s = b.private_buf(RankId(0), 8, "s");
        let d = b.private_buf(RankId(1), 4, "d");
        b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            8,
            Channel::Cma,
            &[],
            0,
        );
        let err = validate(&b.finish(), None).unwrap_err();
        assert!(matches!(err, ValidateError::OutOfBounds { .. }));
    }

    #[test]
    fn cma_across_nodes_detected() {
        let mut b = ScheduleBuilder::new(grid22(), "cma");
        let s = b.private_buf(RankId(0), 8, "s");
        let d = b.private_buf(RankId(2), 8, "d");
        b.transfer(
            RankId(0),
            RankId(2),
            Loc::new(s, 0),
            Loc::new(d, 0),
            8,
            Channel::Cma,
            &[],
            0,
        );
        assert!(matches!(
            validate(&b.finish(), None).unwrap_err(),
            ValidateError::CmaAcrossNodes { .. }
        ));
    }

    #[test]
    fn rail_out_of_range_detected_only_with_rail_count() {
        let mut b = ScheduleBuilder::new(grid22(), "rail");
        let s = b.private_buf(RankId(0), 8, "s");
        let d = b.private_buf(RankId(2), 8, "d");
        b.transfer(
            RankId(0),
            RankId(2),
            Loc::new(s, 0),
            Loc::new(d, 0),
            8,
            Channel::Rail(5),
            &[],
            0,
        );
        let sch = b.finish();
        assert!(validate(&sch, None).is_ok());
        assert!(matches!(
            validate(&sch, Some(2)).unwrap_err(),
            ValidateError::RailOutOfRange {
                rail: 5,
                rails: 2,
                ..
            }
        ));
    }

    #[test]
    fn shm_access_from_other_node_detected() {
        let mut b = ScheduleBuilder::new(grid22(), "shm");
        let shm = b.shared_buf(NodeId(0), 8, "shm");
        let p = b.private_buf(RankId(2), 8, "p");
        b.copy(RankId(2), Loc::new(shm, 0), Loc::new(p, 0), 8, &[], 0);
        assert!(matches!(
            validate(&b.finish(), None).unwrap_err(),
            ValidateError::NonLocalAccess { .. }
        ));
    }

    #[test]
    fn overlapping_copy_detected() {
        let mut b = ScheduleBuilder::new(grid22(), "ovl");
        let p = b.private_buf(RankId(0), 16, "p");
        b.copy(RankId(0), Loc::new(p, 0), Loc::new(p, 4), 8, &[], 0);
        assert!(matches!(
            validate(&b.finish(), None).unwrap_err(),
            ValidateError::OverlappingCopy { .. }
        ));
    }

    #[test]
    fn self_transfer_detected() {
        let mut b = ScheduleBuilder::new(grid22(), "self");
        let s = b.private_buf(RankId(0), 8, "s");
        let d = b.private_buf(RankId(0), 8, "d");
        b.transfer(
            RankId(0),
            RankId(0),
            Loc::new(s, 0),
            Loc::new(d, 0),
            8,
            Channel::Cma,
            &[],
            0,
        );
        assert!(matches!(
            validate(&b.finish(), None).unwrap_err(),
            ValidateError::SelfTransfer { .. }
        ));
    }

    #[test]
    fn unordered_write_write_is_a_race() {
        let mut b = ScheduleBuilder::new(grid22(), "race");
        let src0 = b.private_buf(RankId(0), 8, "s0");
        let src1 = b.private_buf(RankId(1), 8, "s1");
        let dst = b.private_buf(RankId(2), 8, "d");
        // Two rail transfers write the same destination range, unordered.
        b.transfer(
            RankId(0),
            RankId(2),
            Loc::new(src0, 0),
            Loc::new(dst, 0),
            8,
            Channel::Rail(0),
            &[],
            0,
        );
        b.transfer(
            RankId(1),
            RankId(2),
            Loc::new(src1, 0),
            Loc::new(dst, 4),
            4,
            Channel::Rail(1),
            &[],
            0,
        );
        let races = check_races(&b.finish());
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].buf, dst);
    }

    #[test]
    fn ordered_conflict_is_not_a_race() {
        let mut b = ScheduleBuilder::new(grid22(), "ordered");
        let src0 = b.private_buf(RankId(0), 8, "s0");
        let dst = b.private_buf(RankId(2), 8, "d");
        let t1 = b.transfer(
            RankId(0),
            RankId(2),
            Loc::new(src0, 0),
            Loc::new(dst, 0),
            8,
            Channel::Rail(0),
            &[],
            0,
        );
        b.transfer(
            RankId(0),
            RankId(2),
            Loc::new(src0, 0),
            Loc::new(dst, 0),
            8,
            Channel::Rail(0),
            &[t1],
            1,
        );
        assert!(check_races(&b.finish()).is_empty());
    }

    #[test]
    fn transitive_ordering_suppresses_race() {
        let mut b = ScheduleBuilder::new(grid22(), "trans");
        let p = b.private_buf(RankId(0), 8, "p");
        let q = b.private_buf(RankId(0), 8, "q");
        let a = b.copy(RankId(0), Loc::new(p, 0), Loc::new(q, 0), 8, &[], 0);
        let m = b.compute(RankId(0), 1, &[a], 1);
        // c conflicts with a (writes q) but is ordered a -> m -> c.
        b.copy(RankId(0), Loc::new(p, 0), Loc::new(q, 0), 8, &[m], 2);
        assert!(check_races(&b.finish()).is_empty());
    }

    #[test]
    fn read_read_overlap_is_fine() {
        let mut b = ScheduleBuilder::new(grid22(), "rr");
        let p = b.private_buf(RankId(0), 8, "p");
        let d1 = b.private_buf(RankId(0), 8, "d1");
        let d2 = b.private_buf(RankId(0), 8, "d2");
        b.copy(RankId(0), Loc::new(p, 0), Loc::new(d1, 0), 8, &[], 0);
        b.copy(RankId(0), Loc::new(p, 0), Loc::new(d2, 0), 8, &[], 0);
        assert!(check_races(&b.finish()).is_empty());
    }
}
