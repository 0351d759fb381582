//! Merging many schedules into one shared-cluster schedule.
//!
//! The multi-tenant traffic layer prices K concurrent jobs by *merging*
//! their (already [relocated](crate::relocate_onto)) schedules into a
//! single DAG over the cluster grid and handing that to one simulator
//! instance — cross-job contention then emerges from the ordinary
//! max-min water-filler with no engine changes. Each input keeps a dense
//! contiguous op-id span in the output, which is the per-job namespace:
//! probes attribute an op (and its flows) to job `k` by binary-searching
//! the spans, and the job's completion is the max end time over its span.
//!
//! Two arrival shapes map onto the merge:
//!
//! * **open loop** — a part with `after: None` keeps its roots as roots of
//!   the merged DAG; its `release` is the job's absolute arrival time.
//! * **closed loop** — a part with `after: Some(p)` has every root gain
//!   dependencies on part `p`'s sinks, so it starts when its predecessor
//!   finishes; its `release` is then the client's think time.
//!
//! Merging a single part with zero release reproduces the input schedule
//! *exactly* (same ops, buffers, ids, labels), which is what makes the
//! solo-vs-merged bit-equality oracle in `mha-conformance` hold trivially
//! for the K = 1 case and meaningfully for K > 1 disjoint placements.
//!
//! Op ids, buffer ids and dependency offsets are `u32`, so a merge whose
//! op, buffer or edge total would pass `u32::MAX` is rejected with
//! [`MergeError::TooLarge`] before the merged tables are allocated.

use crate::buffer::Loc;
use crate::edges::{Csr, Edges};
use crate::grid::ProcGrid;
use crate::ids::{BufId, OpId};
use crate::op::OpKind;
use crate::schedule::Schedule;

/// One job's contribution to a merged schedule.
#[derive(Debug, Clone, Copy)]
pub struct MergePart<'a> {
    /// The job's schedule, already on the shared cluster grid.
    pub sched: &'a Schedule,
    /// Release delay applied to the part's roots: absolute arrival time
    /// for unchained parts, think time past the predecessor for chained
    /// ones. Added on top of any release the part already carries.
    pub release: f64,
    /// Index of an **earlier** part whose completion gates this one.
    pub after: Option<usize>,
}

/// A merged schedule plus the op-id span each part occupies in it.
#[derive(Debug, Clone)]
pub struct Merged {
    /// The combined schedule over the cluster grid.
    pub schedule: Schedule,
    /// `spans[k]` is the half-open op-id range of part `k`; spans are
    /// contiguous, ascending, and cover `0..n_ops`.
    pub spans: Vec<std::ops::Range<u32>>,
}

impl Merged {
    /// The part owning op `id`, by binary search over the spans.
    pub fn part_of(&self, id: OpId) -> usize {
        match self.spans.binary_search_by(|s| {
            if id.0 < s.start {
                std::cmp::Ordering::Greater
            } else if id.0 >= s.end {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(k) => k,
            Err(_) => panic!("op {} outside every span", id.0),
        }
    }
}

/// Why a merge was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No parts were given.
    Empty,
    /// Part `part` is on a grid other than the cluster grid (relocate it
    /// first).
    GridMismatch {
        /// Offending part index.
        part: usize,
    },
    /// Part `part` chains on `after`, which is not an earlier part.
    BadChain {
        /// Offending part index.
        part: usize,
        /// The out-of-order (or self) predecessor it names.
        after: usize,
    },
    /// A release delay is negative or non-finite.
    BadRelease {
        /// Offending part index.
        part: usize,
    },
    /// The merged schedule would hold more ops, buffers or dependency
    /// edges than its `u32` ids and offsets can index.
    TooLarge {
        /// What overflows: `"ops"`, `"buffers"` or `"dependencies"`.
        what: &'static str,
        /// How many the merge would hold.
        count: usize,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Empty => write!(f, "merge of zero parts"),
            MergeError::GridMismatch { part } => {
                write!(f, "part {part} is not on the cluster grid")
            }
            MergeError::BadChain { part, after } => {
                write!(f, "part {part} chains on non-earlier part {after}")
            }
            MergeError::BadRelease { part } => {
                write!(f, "part {part} has a negative or non-finite release")
            }
            MergeError::TooLarge { what, count } => {
                write!(f, "merge of {count} {what} overflows u32 ids")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Ops of `sch` no other op depends on — the part's completion frontier.
fn sinks(sch: &Schedule) -> Vec<OpId> {
    let mut has_succ = vec![false; sch.ops().len()];
    for &d in sch.dep_lists().1 {
        has_succ[d.index()] = true;
    }
    has_succ
        .iter()
        .enumerate()
        .filter(|&(_, &s)| !s)
        .map(|(i, _)| OpId::from(i))
        .collect()
}

/// Number of ops of `sch` with no dependencies.
fn root_count(sch: &Schedule) -> usize {
    sch.dep_lists()
        .0
        .windows(2)
        .filter(|w| w[0] == w[1])
        .count()
}

/// Whether `count` ids or offsets fit a `u32`.
fn fits(what: &'static str, count: usize) -> Result<(), MergeError> {
    match u32::try_from(count) {
        Ok(_) => Ok(()),
        Err(_) => Err(MergeError::TooLarge { what, count }),
    }
}

/// Merges `parts` into one schedule over `cluster`, offsetting every op
/// and buffer id, wiring chained parts' roots onto their predecessor's
/// sinks, and recording each part's release delay on its roots.
///
/// # Errors
///
/// A [`MergeError`] for no parts, a part off the cluster grid, a chain
/// to a non-earlier part, a bad release, or a merged op, buffer or edge
/// count past `u32::MAX`. Every check runs before the merged schedule's
/// tables are allocated.
///
/// Parts may be built or unwrapped frozen schedules; a frozen part's
/// dependency lists are derived on first use (see [`Schedule::deps`]).
/// The merged schedule holds dependency lists, as a built one does.
pub fn merge_parts(cluster: ProcGrid, parts: &[MergePart]) -> Result<Merged, MergeError> {
    if parts.is_empty() {
        return Err(MergeError::Empty);
    }
    for (k, p) in parts.iter().enumerate() {
        if p.sched.grid() != &cluster {
            return Err(MergeError::GridMismatch { part: k });
        }
        if let Some(a) = p.after {
            if a >= k {
                return Err(MergeError::BadChain { part: k, after: a });
            }
        }
        if !p.release.is_finite() || p.release < 0.0 {
            return Err(MergeError::BadRelease { part: k });
        }
    }

    let n_ops: usize = parts.iter().map(|p| p.sched.ops().len()).sum();
    let n_bufs: usize = parts.iter().map(|p| p.sched.buffers().len()).sum();
    let own_deps: usize = parts.iter().map(|p| p.sched.edges.len()).sum();
    fits("ops", n_ops)?;
    fits("buffers", n_bufs)?;
    fits("dependencies", own_deps)?;
    // Sinks (part-local ids) of every part a later part chains on; each
    // root of a chained part gains an edge to each of them.
    let mut part_sinks: Vec<Vec<OpId>> = Vec::new();
    let mut n_deps = own_deps;
    if parts.iter().any(|p| p.after.is_some()) {
        part_sinks.resize(parts.len(), Vec::new());
        for p in parts {
            if let Some(a) = p.after {
                if part_sinks[a].is_empty() {
                    part_sinks[a] = sinks(parts[a].sched);
                }
                n_deps += root_count(p.sched) * part_sinks[a].len();
            }
        }
        fits("dependencies", n_deps)?;
    }

    let mut buffers = Vec::with_capacity(n_bufs);
    let mut ops = Vec::with_capacity(n_ops);
    let mut dep_off = Vec::with_capacity(n_ops + 1);
    dep_off.push(0u32);
    let mut deps = Vec::with_capacity(n_deps);
    let mut release = vec![0.0f64; n_ops];
    let mut any_release = false;
    let mut spans: Vec<std::ops::Range<u32>> = Vec::with_capacity(parts.len());

    // Every count below is bounded by a total checked above.
    let narrow = |n: usize| u32::try_from(n).expect("merge totals were checked");
    for p in parts {
        let op_off = narrow(ops.len());
        let buf_off = narrow(buffers.len());
        let remap_loc = |l: Loc| Loc {
            buf: BufId(l.buf.0 + buf_off),
            offset: l.offset,
        };

        for b in p.sched.buffers() {
            let mut b = b.clone();
            b.id = BufId(b.id.0 + buf_off);
            buffers.push(b);
        }

        for (i, op) in p.sched.ops().iter().enumerate() {
            let id = OpId::from(i);
            let own = p.sched.deps(id);
            let is_root = own.is_empty();
            deps.extend(own.iter().map(|d| OpId(d.0 + op_off)));
            if is_root {
                if let Some(a) = p.after {
                    let a_off = spans[a].start;
                    deps.extend(part_sinks[a].iter().map(|s| OpId(s.0 + a_off)));
                }
            }
            dep_off.push(narrow(deps.len()));
            let mut rel = p.sched.release_of(id);
            if is_root {
                rel += p.release;
            }
            if rel > 0.0 {
                any_release = true;
            }
            release[op_off as usize + i] = rel;

            let mut op = op.clone();
            op.kind = match op.kind {
                OpKind::Transfer {
                    src_rank,
                    dst_rank,
                    src,
                    dst,
                    len,
                    channel,
                } => OpKind::Transfer {
                    src_rank,
                    dst_rank,
                    src: remap_loc(src),
                    dst: remap_loc(dst),
                    len,
                    channel,
                },
                OpKind::Copy {
                    actor,
                    src,
                    dst,
                    len,
                } => OpKind::Copy {
                    actor,
                    src: remap_loc(src),
                    dst: remap_loc(dst),
                    len,
                },
                OpKind::Reduce {
                    actor,
                    acc,
                    operand,
                    len,
                    dtype,
                    op,
                } => OpKind::Reduce {
                    actor,
                    acc: remap_loc(acc),
                    operand: remap_loc(operand),
                    len,
                    dtype,
                    op,
                },
                OpKind::Compute { actor, flops } => OpKind::Compute { actor, flops },
            };
            ops.push(op);
        }
        spans.push(op_off..narrow(ops.len()));
    }

    let name = if parts.len() == 1 {
        parts[0].sched.name().to_string()
    } else {
        format!("traffic[{} jobs]", parts.len())
    };
    let schedule = Schedule::from_parts(
        cluster,
        buffers,
        ops,
        Edges::Deps(Csr {
            off: dep_off,
            adj: deps,
        }),
        name,
        if any_release { release } else { Vec::new() },
    );
    Ok(Merged { schedule, spans })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScheduleBuilder;
    use crate::ids::{NodeId, RankId};
    use crate::op::Channel;

    fn job(grid: ProcGrid, src: u32, dst: u32, name: &str) -> Schedule {
        let mut b = ScheduleBuilder::new(grid, name);
        let s = b.private_buf(RankId(src), 128, "s");
        let d = b.private_buf(RankId(dst), 128, "d");
        let shm = b.shared_buf(NodeId(grid.node_of(RankId(dst)).0), 128, "shm");
        let t = b.transfer(
            RankId(src),
            RankId(dst),
            Loc::new(s, 0),
            Loc::new(d, 0),
            128,
            Channel::AllRails,
            &[],
            0,
        );
        b.copy(RankId(dst), Loc::new(d, 0), Loc::new(shm, 0), 128, &[t], 1);
        b.finish()
    }

    #[test]
    fn single_part_zero_release_is_identity() {
        let grid = ProcGrid::new(4, 2);
        let sch = job(grid, 0, 2, "solo");
        let m = merge_parts(
            grid,
            &[MergePart {
                sched: &sch,
                release: 0.0,
                after: None,
            }],
        )
        .unwrap();
        assert_eq!(m.spans, vec![0..2]);
        assert!(!m.schedule.has_releases());
        assert_eq!(
            format!("{:?}", m.schedule.ops()),
            format!("{:?}", sch.ops())
        );
        assert_eq!(
            format!("{:?}", m.schedule.buffers()),
            format!("{:?}", sch.buffers())
        );
        assert_eq!(m.schedule.name(), "solo");
    }

    #[test]
    fn ids_deps_and_locs_are_offset() {
        let grid = ProcGrid::new(4, 2);
        let a = job(grid, 0, 2, "a");
        let b = job(grid, 4, 6, "b");
        let m = merge_parts(
            grid,
            &[
                MergePart {
                    sched: &a,
                    release: 0.0,
                    after: None,
                },
                MergePart {
                    sched: &b,
                    release: 1e-3,
                    after: None,
                },
            ],
        )
        .unwrap();
        assert_eq!(m.spans, vec![0..2, 2..4]);
        assert_eq!(m.part_of(OpId(1)), 0);
        assert_eq!(m.part_of(OpId(2)), 1);
        let sch = &m.schedule;
        assert_eq!(sch.ops().len(), 4);
        assert_eq!(sch.buffers().len(), 6);
        // Part b's copy depends on part b's transfer, not part a's.
        assert_eq!(sch.deps(OpId(3)), &[OpId(2)]);
        match &sch.ops()[2].kind {
            OpKind::Transfer { src, dst, .. } => {
                assert_eq!(src.buf, BufId(3));
                assert_eq!(dst.buf, BufId(4));
            }
            other => panic!("unexpected kind {other:?}"),
        }
        // Open-loop arrival landed on part b's root only.
        assert_eq!(sch.release_of(OpId(2)), 1e-3);
        assert_eq!(sch.release_of(OpId(0)), 0.0);
        assert_eq!(sch.release_of(OpId(3)), 0.0);
        assert!(crate::validate(sch, Some(2)).is_ok());
    }

    #[test]
    fn chained_parts_depend_on_predecessor_sinks() {
        let grid = ProcGrid::new(4, 2);
        let a = job(grid, 0, 2, "a");
        let b = job(grid, 0, 2, "b");
        let m = merge_parts(
            grid,
            &[
                MergePart {
                    sched: &a,
                    release: 0.0,
                    after: None,
                },
                MergePart {
                    sched: &b,
                    release: 5e-4,
                    after: Some(0),
                },
            ],
        )
        .unwrap();
        let sch = &m.schedule;
        // Part a's sink is its copy (op 1); part b's root (op 2) now
        // depends on it, with the think time as a relative release.
        assert_eq!(sch.deps(OpId(2)), &[OpId(1)]);
        assert_eq!(sch.release_of(OpId(2)), 5e-4);
        assert!(crate::validate(sch, Some(2)).is_ok());
    }

    #[test]
    fn chained_edges_past_u32_are_rejected() {
        // 70,000 independent ops: each is both a root and a sink, so
        // chaining one such part on another adds 70,000² edges.
        let grid = ProcGrid::new(1, 1);
        let mut b = ScheduleBuilder::new(grid, "flat");
        for _ in 0..70_000 {
            b.compute(RankId(0), 1, &[], 0);
        }
        let flat = b.finish();
        let part = |after| MergePart {
            sched: &flat,
            release: 0.0,
            after,
        };
        assert_eq!(
            merge_parts(grid, &[part(None), part(Some(0))]).unwrap_err(),
            MergeError::TooLarge {
                what: "dependencies",
                count: 70_000 * 70_000
            }
        );
    }

    #[test]
    fn bad_merges_are_rejected() {
        let grid = ProcGrid::new(4, 2);
        let a = job(grid, 0, 2, "a");
        let other = job(ProcGrid::new(2, 2), 0, 2, "o");
        assert_eq!(merge_parts(grid, &[]).unwrap_err(), MergeError::Empty);
        assert_eq!(
            merge_parts(
                grid,
                &[MergePart {
                    sched: &other,
                    release: 0.0,
                    after: None
                }]
            )
            .unwrap_err(),
            MergeError::GridMismatch { part: 0 }
        );
        assert_eq!(
            merge_parts(
                grid,
                &[MergePart {
                    sched: &a,
                    release: 0.0,
                    after: Some(0)
                }]
            )
            .unwrap_err(),
            MergeError::BadChain { part: 0, after: 0 }
        );
        assert_eq!(
            merge_parts(
                grid,
                &[MergePart {
                    sched: &a,
                    release: -1.0,
                    after: None
                }]
            )
            .unwrap_err(),
            MergeError::BadRelease { part: 0 }
        );
    }
}
