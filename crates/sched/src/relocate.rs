//! Relocating a schedule onto a node subset of a larger cluster.
//!
//! A collective schedule is built against its own compact [`ProcGrid`]
//! (`nodes × ppn`, ranks `0..nodes*ppn`). The multi-tenant traffic layer
//! places such a job onto an arbitrary subset of a shared cluster's nodes;
//! [`relocate_onto`] performs the mechanical half of that placement: every
//! rank, node and buffer owner is remapped through the placement's node
//! list while the op DAG — dependencies, byte counts, channels, steps,
//! release delays — is preserved verbatim.
//!
//! The transform is intentionally *structure-preserving*: op `i` of the
//! relocated schedule is op `i` of the original with its endpoints renamed,
//! so a relocated job priced alone on the cluster is bit-identical to the
//! original priced on its own grid (all cluster nodes are homogeneous; the
//! tenant oracle in `mha-conformance` holds that bar).

use crate::buffer::BufKind;
use crate::grid::ProcGrid;
use crate::ids::{NodeId, RankId};
use crate::op::OpKind;
use crate::schedule::Schedule;

/// Why a relocation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelocateError {
    /// The placement's node list length differs from the job grid's node
    /// count.
    NodeCountMismatch {
        /// Nodes the job's grid spans.
        job_nodes: u32,
        /// Nodes the placement provides.
        placed: usize,
    },
    /// A placement entry points outside the cluster grid.
    NodeOutOfRange {
        /// The offending cluster node.
        node: u32,
        /// Nodes in the cluster grid.
        cluster_nodes: u32,
    },
    /// The same cluster node appears twice in one placement.
    DuplicateNode(u32),
    /// The job's ppn differs from the cluster's ppn. Placements are
    /// whole-node: local rank indices (and hence NUMA socket assignments)
    /// must be preserved exactly for relocation to be latency-neutral.
    PpnMismatch {
        /// Processes per node of the job grid.
        job_ppn: u32,
        /// Processes per node of the cluster grid.
        cluster_ppn: u32,
    },
}

impl std::fmt::Display for RelocateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelocateError::NodeCountMismatch { job_nodes, placed } => write!(
                f,
                "placement covers {placed} nodes but the job grid spans {job_nodes}"
            ),
            RelocateError::NodeOutOfRange {
                node,
                cluster_nodes,
            } => write!(
                f,
                "placement node {node} outside the {cluster_nodes}-node cluster"
            ),
            RelocateError::DuplicateNode(n) => {
                write!(f, "placement lists cluster node {n} twice")
            }
            RelocateError::PpnMismatch {
                job_ppn,
                cluster_ppn,
            } => write!(
                f,
                "job ppn {job_ppn} differs from cluster ppn {cluster_ppn} (placements are whole-node)"
            ),
        }
    }
}

impl std::error::Error for RelocateError {}

/// Checks that `nodes` is a valid whole-node placement of a `job` grid
/// onto a `cluster` grid: one distinct in-range cluster node per job node,
/// equal ppn.
pub fn validate_placement(
    job: &ProcGrid,
    cluster: &ProcGrid,
    nodes: &[u32],
) -> Result<(), RelocateError> {
    if job.ppn() != cluster.ppn() {
        return Err(RelocateError::PpnMismatch {
            job_ppn: job.ppn(),
            cluster_ppn: cluster.ppn(),
        });
    }
    if nodes.len() != job.nodes() as usize {
        return Err(RelocateError::NodeCountMismatch {
            job_nodes: job.nodes(),
            placed: nodes.len(),
        });
    }
    let mut seen = vec![false; cluster.nodes() as usize];
    for &n in nodes {
        if n >= cluster.nodes() {
            return Err(RelocateError::NodeOutOfRange {
                node: n,
                cluster_nodes: cluster.nodes(),
            });
        }
        if std::mem::replace(&mut seen[n as usize], true) {
            return Err(RelocateError::DuplicateNode(n));
        }
    }
    Ok(())
}

/// Rewrites `sch` to run on cluster node `nodes[n]` wherever it used its
/// own node `n`, returning a schedule over the `cluster` grid. Rank `r`
/// (job node `n`, local index `l`) becomes cluster rank
/// `nodes[n] * ppn + l`; buffer owners are remapped the same way and
/// everything else — ops, dependencies, lengths, channels, steps, markers,
/// release delays — is carried over unchanged. Op labels are derived from
/// the remapped kinds, so a relocated transfer names its cluster ranks.
pub fn relocate_onto(
    sch: &Schedule,
    cluster: ProcGrid,
    nodes: &[u32],
) -> Result<Schedule, RelocateError> {
    validate_placement(sch.grid(), &cluster, nodes)?;
    let job = *sch.grid();
    let map_node = |n: NodeId| NodeId(nodes[n.index()]);
    let map_rank = |r: RankId| {
        let n = job.node_of(r);
        let l = job.local_index(r);
        cluster.rank_on(map_node(n), l)
    };

    let buffers = sch
        .buffers()
        .iter()
        .map(|b| {
            let mut b = b.clone();
            b.kind = match b.kind {
                BufKind::Private(r) => BufKind::Private(map_rank(r)),
                BufKind::NodeShared(n) => BufKind::NodeShared(map_node(n)),
            };
            b
        })
        .collect();

    let ops = sch
        .ops()
        .iter()
        .map(|op| {
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
                    src_rank: map_rank(src_rank),
                    dst_rank: map_rank(dst_rank),
                    src,
                    dst,
                    len,
                    channel,
                },
                OpKind::Copy {
                    actor,
                    src,
                    dst,
                    len,
                } => OpKind::Copy {
                    actor: map_rank(actor),
                    src,
                    dst,
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
                    actor: map_rank(actor),
                    acc,
                    operand,
                    len,
                    dtype,
                    op,
                },
                OpKind::Compute { actor, flops } => OpKind::Compute {
                    actor: map_rank(actor),
                    flops,
                },
            };
            op
        })
        .collect();

    let release = if sch.has_releases() {
        (0..sch.ops().len())
            .map(|i| sch.release_of(crate::ids::OpId::from(i)))
            .collect()
    } else {
        Vec::new()
    };
    let (dep_off, deps) = sch.dep_lists();

    Ok(Schedule::from_parts(
        cluster,
        buffers,
        ops,
        dep_off.to_vec(),
        deps.to_vec(),
        sch.name().to_string(),
        release,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Loc;
    use crate::builder::ScheduleBuilder;
    use crate::ids::OpId;
    use crate::op::Channel;

    fn job() -> Schedule {
        let grid = ProcGrid::new(2, 2);
        let mut b = ScheduleBuilder::new(grid, "job");
        let s = b.private_buf(RankId(0), 64, "s");
        let d = b.private_buf(RankId(2), 64, "d");
        let shm = b.shared_buf(NodeId(1), 64, "shm");
        let t = b.transfer(
            RankId(0),
            RankId(2),
            Loc::new(s, 0),
            Loc::new(d, 0),
            64,
            Channel::AllRails,
            &[],
            0,
        );
        b.copy(RankId(2), Loc::new(d, 0), Loc::new(shm, 0), 64, &[t], 1);
        b.set_release(OpId(0), 2.5e-6);
        b.finish()
    }

    #[test]
    fn ranks_nodes_and_buffers_are_remapped() {
        let sch = job();
        let cluster = ProcGrid::new(8, 2);
        let out = relocate_onto(&sch, cluster, &[5, 3]).unwrap();
        assert_eq!(out.grid(), &cluster);
        // Job rank 0 (node 0, local 0) -> cluster node 5 -> rank 10;
        // job rank 2 (node 1, local 0) -> cluster node 3 -> rank 6.
        match &out.ops()[0].kind {
            OpKind::Transfer {
                src_rank, dst_rank, ..
            } => {
                assert_eq!(*src_rank, RankId(10));
                assert_eq!(*dst_rank, RankId(6));
            }
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(out.buffers()[0].kind, BufKind::Private(RankId(10)));
        assert_eq!(out.buffers()[1].kind, BufKind::Private(RankId(6)));
        assert_eq!(out.buffers()[2].kind, BufKind::NodeShared(NodeId(3)));
        // Structure is untouched.
        assert_eq!(out.deps(OpId(1)), &[OpId(0)]);
        assert_eq!(out.release_of(OpId(0)), 2.5e-6);
        assert_eq!(out.release_of(OpId(1)), 0.0);
        assert!(crate::validate(&out, Some(2)).is_ok());
    }

    #[test]
    fn relocated_labels_name_cluster_ranks() {
        let sch = job();
        assert_eq!(sch.ops()[0].label().to_string(), "r0->r2");
        assert_eq!(sch.ops()[1].label().to_string(), "copy@r2");
        let out = relocate_onto(&sch, ProcGrid::new(8, 2), &[5, 3]).unwrap();
        assert_eq!(out.ops()[0].label().to_string(), "r10->r6");
        assert_eq!(out.ops()[1].label().to_string(), "copy@r6");
    }

    #[test]
    fn identity_placement_preserves_everything() {
        let sch = job();
        let out = relocate_onto(&sch, *sch.grid(), &[0, 1]).unwrap();
        assert_eq!(format!("{:?}", out.ops()), format!("{:?}", sch.ops()));
        assert_eq!(out.dep_lists(), sch.dep_lists());
        assert_eq!(
            format!("{:?}", out.buffers()),
            format!("{:?}", sch.buffers())
        );
    }

    #[test]
    fn invalid_placements_are_rejected() {
        let sch = job();
        let cluster = ProcGrid::new(4, 2);
        assert_eq!(
            relocate_onto(&sch, cluster, &[0]).unwrap_err(),
            RelocateError::NodeCountMismatch {
                job_nodes: 2,
                placed: 1
            }
        );
        assert_eq!(
            relocate_onto(&sch, cluster, &[0, 4]).unwrap_err(),
            RelocateError::NodeOutOfRange {
                node: 4,
                cluster_nodes: 4
            }
        );
        assert_eq!(
            relocate_onto(&sch, cluster, &[1, 1]).unwrap_err(),
            RelocateError::DuplicateNode(1)
        );
        assert_eq!(
            relocate_onto(&sch, ProcGrid::new(4, 4), &[0, 1]).unwrap_err(),
            RelocateError::PpnMismatch {
                job_ppn: 2,
                cluster_ppn: 4
            }
        );
    }
}
