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

use crate::buffer::Loc;
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
        }
    }
}

impl std::error::Error for MergeError {}

/// Ops of `sch` no other op depends on — the part's completion frontier.
fn sinks(sch: &Schedule) -> Vec<u32> {
    let mut has_succ = vec![false; sch.ops().len()];
    for &d in sch.dep_lists().1 {
        has_succ[d.index()] = true;
    }
    (0..sch.ops().len() as u32)
        .filter(|&i| !has_succ[i as usize])
        .collect()
}

/// Merges `parts` into one schedule over `cluster`, offsetting every op
/// and buffer id, wiring chained parts' roots onto their predecessor's
/// sinks, and recording each part's release delay on its roots.
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
    let mut buffers = Vec::with_capacity(n_bufs);
    let n_deps: usize = parts.iter().map(|p| p.sched.dep_lists().1.len()).sum();
    let mut ops = Vec::with_capacity(n_ops);
    let mut dep_off = Vec::with_capacity(n_ops + 1);
    dep_off.push(0u32);
    let mut deps = Vec::with_capacity(n_deps);
    let mut release = vec![0.0f64; n_ops];
    let mut any_release = false;
    let mut spans = Vec::with_capacity(parts.len());
    // Global sink ids per already-merged part, for chaining.
    let mut part_sinks: Vec<Vec<OpId>> = Vec::with_capacity(parts.len());

    for p in parts {
        let op_off = ops.len() as u32;
        let buf_off = buffers.len() as u32;
        let remap_loc = |l: Loc| Loc {
            buf: BufId(l.buf.0 + buf_off),
            offset: l.offset,
        };

        for b in p.sched.buffers() {
            let mut b = b.clone();
            b.id = BufId(b.id.0 + buf_off);
            buffers.push(b);
        }

        part_sinks.push(
            sinks(p.sched)
                .into_iter()
                .map(|i| OpId(i + op_off))
                .collect(),
        );

        for op in p.sched.ops() {
            let gid = OpId(op.id.0 + op_off);
            let own = p.sched.deps(op.id);
            let is_root = own.is_empty();
            deps.extend(own.iter().map(|d| OpId(d.0 + op_off)));
            if is_root {
                if let Some(a) = p.after {
                    deps.extend_from_slice(&part_sinks[a]);
                }
            }
            dep_off.push(u32::try_from(deps.len()).expect("dependency count overflows u32"));
            let mut rel = p.sched.release_of(op.id);
            if is_root {
                rel += p.release;
            }
            if rel > 0.0 {
                any_release = true;
            }
            release[gid.index()] = rel;

            let mut op = op.clone();
            op.id = gid;
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
        spans.push(op_off..ops.len() as u32);
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
        dep_off,
        deps,
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
