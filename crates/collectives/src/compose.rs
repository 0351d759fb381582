//! The generic hierarchical composer: one emission engine for every
//! Allgather family, parameterized by a [`Topology`] tree and a per-level
//! algorithm plan.
//!
//! A [`ComposePlan`] assigns one [`LevelAlgo`] per tree level, outermost
//! first. Two plan shapes exist:
//!
//! * **whole-tree** — a single level running one of the classic algorithms
//!   over the flattened grid (flat ring/RD/Bruck/direct-spread, or the
//!   two-level leader baselines, which read the node structure from the
//!   flattened grid);
//! * **hierarchical** — `[Exchange, Import…, Gather]`, one entry per
//!   level: the innermost groups run the offloaded direct-spread gather
//!   (MHA-intra), each intermediate level's leaders import sibling regions
//!   and fan them out (the NUMA inter-socket stage), and the outermost
//!   level runs the striped leader exchange with the overlapped
//!   shared-memory distribute (MHA-inter phases 2+3).
//!
//! The paper's designs are instantiations: MHA-intra is `[Gather]` on a
//! depth-1 tree, MHA-inter is `[Exchange, Gather]` on the two-level tree,
//! and the future-work NUMA design is `[Exchange, Import, Gather]` on the
//! (node × socket × rank) tree — at any deeper nesting the same three
//! roles compose unchanged. Emission depends only on the tree *shape*;
//! link speeds feed models and cache keys.

use mha_sched::{BufId, Channel, GroupId, Loc, OpId, OpKind, RailSet, RankId, Topology};
use mha_simnet::ClusterSpec;

use crate::chunks::chunk_bounds;
use crate::ctx::{BuildError, Built, Ctx};
use crate::mha::{resolve_offload, InterAlgo, Offload};
use crate::{flat, twolevel};

/// The algorithm assigned to one level of a [`ComposePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelAlgo {
    /// Innermost level: offloaded direct-spread gather within each leaf
    /// group (MHA-intra, Section 3.1).
    Gather {
        /// HCA offload policy for the gather's fetches.
        offload: Offload,
    },
    /// Intermediate level: each group leader imports its siblings' regions
    /// once, members pull from their leader (the NUMA inter-socket stage).
    Import {
        /// Import regions via NIC loopback (`true`) or over the
        /// level's link — CMA / the socket interconnect (`false`).
        offload: bool,
    },
    /// Outermost level: leader exchange over the rails plus the overlapped
    /// shared-memory distribute (MHA-inter phases 2+3).
    Exchange {
        /// Ring or Recursive Doubling between the level's leaders.
        inter: InterAlgo,
        /// Whether the distribute overlaps the exchange.
        overlap: bool,
        /// Pipeline granularity in rank-blocks: each exchange step's
        /// region is split into pieces of at most this many blocks, each
        /// forwarded (Ring) or gated (RD) independently — a finer
        /// pipeline than the paper's whole-node-block steps. `None` (and
        /// any value ≥ the step region) emits the block-granular stream
        /// byte-identically.
        chunk: Option<u32>,
    },
    /// Whole-tree flat ring over the flattened grid.
    Ring,
    /// Whole-tree flat recursive doubling (power-of-two ranks).
    RecursiveDoubling,
    /// Whole-tree Bruck.
    Bruck,
    /// Whole-tree direct spread.
    DirectSpread,
    /// Whole-tree single-leader baseline (power-of-two nodes).
    SingleLeader,
    /// Whole-tree multi-leader baseline.
    MultiLeader {
        /// Leader groups per node (must divide ppn).
        groups: u32,
    },
}

/// A per-level algorithm assignment, outermost level first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposePlan {
    /// One entry per tree level for hierarchical plans; exactly one entry
    /// for whole-tree plans.
    pub levels: Vec<LevelAlgo>,
}

impl ComposePlan {
    /// A plan from explicit per-level assignments.
    pub fn new(levels: Vec<LevelAlgo>) -> Self {
        ComposePlan { levels }
    }

    /// Whole-tree flat ring.
    pub fn ring() -> Self {
        ComposePlan::new(vec![LevelAlgo::Ring])
    }

    /// Whole-tree flat recursive doubling.
    pub fn recursive_doubling() -> Self {
        ComposePlan::new(vec![LevelAlgo::RecursiveDoubling])
    }

    /// Whole-tree Bruck.
    pub fn bruck() -> Self {
        ComposePlan::new(vec![LevelAlgo::Bruck])
    }

    /// Whole-tree direct spread.
    pub fn direct_spread() -> Self {
        ComposePlan::new(vec![LevelAlgo::DirectSpread])
    }

    /// Whole-tree single-leader baseline.
    pub fn single_leader() -> Self {
        ComposePlan::new(vec![LevelAlgo::SingleLeader])
    }

    /// Whole-tree multi-leader baseline.
    pub fn multi_leader(groups: u32) -> Self {
        ComposePlan::new(vec![LevelAlgo::MultiLeader { groups }])
    }

    /// MHA-intra as a depth-1 plan.
    pub fn gather(offload: Offload) -> Self {
        ComposePlan::new(vec![LevelAlgo::Gather { offload }])
    }

    /// MHA-inter as the 2-level `[Exchange, Gather]` instantiation.
    pub fn mha_inter(cfg: crate::mha::MhaInterConfig) -> Self {
        ComposePlan::mha_inter_chunked(cfg, None)
    }

    /// [`ComposePlan::mha_inter`] with an explicit Exchange pipeline
    /// chunk (rank-blocks per piece; `None` = whole node blocks).
    pub fn mha_inter_chunked(cfg: crate::mha::MhaInterConfig, chunk: Option<u32>) -> Self {
        ComposePlan::new(vec![
            LevelAlgo::Exchange {
                inter: cfg.inter,
                overlap: cfg.overlap,
                chunk,
            },
            LevelAlgo::Gather {
                offload: cfg.offload,
            },
        ])
    }

    /// The 3-level NUMA design as `[Exchange, Import, Gather]`.
    pub fn numa3(offload_xsocket: bool) -> Self {
        ComposePlan::new(vec![
            LevelAlgo::Exchange {
                inter: InterAlgo::Ring,
                overlap: true,
                chunk: None,
            },
            LevelAlgo::Import {
                offload: offload_xsocket,
            },
            LevelAlgo::Gather {
                offload: Offload::None,
            },
        ])
    }

    /// A hierarchical plan for a tree of `depth` levels: one Exchange,
    /// `depth − 2` Imports, one Gather (or `[Gather]` at depth 1).
    pub fn hierarchical(
        depth: usize,
        inter: InterAlgo,
        overlap: bool,
        import_offload: bool,
        gather: Offload,
    ) -> Self {
        if depth <= 1 {
            return ComposePlan::gather(gather);
        }
        let mut levels = vec![LevelAlgo::Exchange {
            inter,
            overlap,
            chunk: None,
        }];
        levels.extend(std::iter::repeat_n(
            LevelAlgo::Import {
                offload: import_offload,
            },
            depth - 2,
        ));
        levels.push(LevelAlgo::Gather { offload: gather });
        ComposePlan::new(levels)
    }

    /// Short name for schedule labels and reports.
    pub fn name(&self) -> String {
        self.levels
            .iter()
            .map(|l| match l {
                LevelAlgo::Gather { .. } => "gather".to_string(),
                LevelAlgo::Import { offload: true } => "import-hca".to_string(),
                LevelAlgo::Import { offload: false } => "import".to_string(),
                LevelAlgo::Exchange { inter, chunk, .. } => {
                    let base = match inter {
                        InterAlgo::Ring => "xchg-ring",
                        InterAlgo::RecursiveDoubling => "xchg-rd",
                    };
                    match chunk {
                        Some(c) => format!("{base}(c={c})"),
                        None => base.to_string(),
                    }
                }
                LevelAlgo::Ring => "ring".to_string(),
                LevelAlgo::RecursiveDoubling => "rd".to_string(),
                LevelAlgo::Bruck => "bruck".to_string(),
                LevelAlgo::DirectSpread => "direct-spread".to_string(),
                LevelAlgo::SingleLeader => "single-leader".to_string(),
                LevelAlgo::MultiLeader { groups } => format!("multi-leader(g={groups})"),
            })
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// The parsed shape of a plan, after structural validation against a tree.
enum PlanKind {
    /// One whole-tree algorithm over the flattened grid.
    Whole(LevelAlgo),
    /// `[Gather]` on a depth-1 tree.
    GatherOnly(Offload),
    /// `[Exchange, Import…, Gather]`, one entry per level.
    Hier {
        inter: InterAlgo,
        overlap: bool,
        chunk: Option<u32>,
        /// Import offload flags; `imports[dd - 1]` belongs to tree level
        /// `dd` (the level whose groups the stage merges into).
        imports: Vec<bool>,
        gather: Offload,
    },
}

fn plan_kind(plan: &ComposePlan, depth: usize) -> Result<PlanKind, BuildError> {
    match plan.levels.as_slice() {
        [] => Err(BuildError::BadParameter(
            "a compose plan needs at least one level".into(),
        )),
        [LevelAlgo::Gather { offload }] => {
            if depth == 1 {
                Ok(PlanKind::GatherOnly(*offload))
            } else {
                Err(BuildError::BadParameter(format!(
                    "a lone Gather level needs a depth-1 topology, got depth {depth}"
                )))
            }
        }
        [one @ (LevelAlgo::Ring
        | LevelAlgo::RecursiveDoubling
        | LevelAlgo::Bruck
        | LevelAlgo::DirectSpread
        | LevelAlgo::SingleLeader
        | LevelAlgo::MultiLeader { .. })] => Ok(PlanKind::Whole(*one)),
        levels => {
            if levels.len() != depth {
                return Err(BuildError::BadParameter(format!(
                    "plan has {} levels but the topology has {depth}",
                    levels.len()
                )));
            }
            let LevelAlgo::Exchange {
                inter,
                overlap,
                chunk,
            } = levels[0]
            else {
                return Err(BuildError::BadParameter(
                    "a hierarchical plan starts with an Exchange level".into(),
                ));
            };
            let LevelAlgo::Gather { offload: gather } = levels[depth - 1] else {
                return Err(BuildError::BadParameter(
                    "a hierarchical plan ends with a Gather level".into(),
                ));
            };
            let mut imports = Vec::with_capacity(depth - 2);
            for (dd, lvl) in levels.iter().enumerate().take(depth - 1).skip(1) {
                let LevelAlgo::Import { offload } = lvl else {
                    return Err(BuildError::BadParameter(format!(
                        "hierarchical plan level {dd} must be an Import stage"
                    )));
                };
                imports.push(*offload);
            }
            Ok(PlanKind::Hier {
                inter,
                overlap,
                chunk,
                imports,
                gather,
            })
        }
    }
}

/// Emits `plan` over `topo` into an existing context. `spec` is required
/// for hierarchical plans (offload resolution, shm homing, stripe policy);
/// `rails` restricts Exchange traffic to a surviving-rail set (`None` =
/// all rails up).
pub(crate) fn emit_plan(
    ctx: &mut Ctx,
    topo: &Topology,
    plan: &ComposePlan,
    spec: Option<&ClusterSpec>,
    rails: Option<&RailSet>,
) -> Result<(), BuildError> {
    let grid = ctx.grid();
    if !topo.matches(&grid) {
        return Err(BuildError::BadParameter(format!(
            "topology (nranks {}, {} levels) does not flatten onto the {}x{} grid",
            topo.nranks(),
            topo.depth(),
            grid.nodes(),
            grid.ppn()
        )));
    }
    let kind = plan_kind(plan, topo.depth())?;

    // Structural checks come before the degenerate early-out, preserving
    // the historical builders' error precedence (a non-power-of-two RD is
    // rejected even at msg = 0).
    match &kind {
        PlanKind::Whole(LevelAlgo::RecursiveDoubling) if !grid.nranks().is_power_of_two() => {
            return Err(BuildError::RequiresPowerOfTwo {
                what: "ranks",
                got: grid.nranks(),
            });
        }
        PlanKind::Whole(LevelAlgo::SingleLeader) if !grid.nodes().is_power_of_two() => {
            return Err(BuildError::RequiresPowerOfTwo {
                what: "nodes",
                got: grid.nodes(),
            });
        }
        PlanKind::Whole(LevelAlgo::MultiLeader { groups }) => {
            let g = *groups;
            if g == 0 || !grid.ppn().is_multiple_of(g) {
                return Err(BuildError::BadParameter(format!(
                    "{g} groups do not divide {} processes per node",
                    grid.ppn()
                )));
            }
        }
        PlanKind::Hier {
            inter: InterAlgo::RecursiveDoubling,
            ..
        } if !topo.fanout(0).is_power_of_two() => {
            return Err(BuildError::RequiresPowerOfTwo {
                what: "nodes",
                got: topo.fanout(0),
            });
        }
        _ => {}
    }
    if ctx.is_degenerate() {
        ctx.emit_degenerate();
        return Ok(());
    }

    match kind {
        PlanKind::Whole(algo) => {
            match algo {
                LevelAlgo::Ring => flat::emit_ring(ctx),
                LevelAlgo::RecursiveDoubling => flat::emit_recursive_doubling(ctx),
                LevelAlgo::Bruck => flat::emit_bruck(ctx),
                LevelAlgo::DirectSpread => flat::emit_direct_spread(ctx),
                LevelAlgo::SingleLeader => twolevel::emit_single_leader(ctx),
                LevelAlgo::MultiLeader { groups } => twolevel::emit_multi_leader(ctx, groups),
                _ => unreachable!("plan_kind only yields whole-tree variants here"),
            }
            Ok(())
        }
        PlanKind::GatherOnly(offload) => {
            let spec = need_spec(spec)?;
            let d = resolve_offload(offload, spec, topo.group_size(0), ctx.msg);
            let ranks: Vec<RankId> = grid.ranks().collect();
            gather_into(ctx, &ranks, d, 0);
            Ok(())
        }
        PlanKind::Hier {
            inter,
            overlap,
            chunk,
            imports,
            gather,
        } => {
            let spec = need_spec(spec)?;
            let full;
            let rails = match rails {
                Some(r) => r,
                None => {
                    full = RailSet::full(spec.rails);
                    &full
                }
            };
            emit_hier(
                ctx, topo, inter, overlap, chunk, &imports, gather, spec, rails,
            );
            Ok(())
        }
    }
}

fn need_spec(spec: Option<&ClusterSpec>) -> Result<&ClusterSpec, BuildError> {
    spec.ok_or_else(|| BuildError::BadParameter("hierarchical plans need a cluster spec".into()))
}

/// Builds an Allgather for an explicit topology tree and plan. The grid is
/// the tree's flattened form.
///
/// # Errors
///
/// [`BuildError::BadParameter`] if the plan's shape does not fit the tree;
/// [`BuildError::RequiresPowerOfTwo`] for the algorithms that need one.
pub fn build_composed(
    topo: &Topology,
    msg: usize,
    plan: &ComposePlan,
    spec: &ClusterSpec,
) -> Result<Built, BuildError> {
    let grid = topo.flatten();
    let fanouts: Vec<String> = topo.levels().iter().map(|l| l.fanout.to_string()).collect();
    let name = format!("composed({};{})", fanouts.join("x"), plan.name());
    let mut ctx = Ctx::new(grid, msg, name);
    emit_plan(&mut ctx, topo, plan, Some(spec), None)?;
    Ok(ctx.finish())
}

/// Emits the offloaded direct-spread gather among `ranks` (a contiguous
/// same-node block) into the global receive-buffer layout, returning for
/// each member the ops that filled its copy of the group region. `d` of
/// each rank's `len − 1` fetches ride the HCAs with no program-order deps;
/// the rest chain over CMA (Section 3.1, generalized from whole nodes to
/// arbitrary leaf groups).
pub(crate) fn gather_into(
    ctx: &mut Ctx,
    ranks: &[RankId],
    d: u32,
    step_base: u32,
) -> Vec<Vec<OpId>> {
    let msg = ctx.msg;
    let l = ranks.len() as u32;
    let d = d.min(l.saturating_sub(1));
    let mut fills: Vec<Vec<OpId>> = Vec::with_capacity(l as usize);
    for (lr, &me) in ranks.iter().enumerate() {
        let lr = lr as u32;
        let mut ops = Vec::with_capacity(l as usize);
        ops.push(ctx.self_copy(me, step_base));
        for i in 1..l {
            let peer = ranks[((lr + l - i) % l) as usize];
            let (src, dst) = (ctx.send_loc(peer), ctx.recv_block(me, peer.0));
            if i > l - 1 - d {
                // Offloaded to the HCAs: posted immediately (no program-
                // order deps); the NIC moves it while the CPU works through
                // its CMA chain. In Allreduce phase B it additionally waits
                // for the origin's contribution to exist.
                let deps = ctx.ready_deps(peer);
                let t = ctx.b.transfer(
                    peer,
                    me,
                    src,
                    dst,
                    msg,
                    Channel::AllRails,
                    &deps,
                    step_base + i,
                );
                ops.push(t);
            } else {
                // CPU path: CMA fetches chained in the rank's program order.
                let mut deps = ctx.cur.deps_of(me);
                deps.extend(ctx.ready_deps(peer));
                let t = ctx
                    .b
                    .transfer(peer, me, src, dst, msg, Channel::Cma, &deps, step_base + i);
                ctx.cur.advance(me, t);
                ops.push(t);
            }
        }
        fills.push(ops);
    }
    fills
}

/// A chunk that arrived at a group leader during the Exchange level.
struct Arrival {
    /// First global rank-block of the chunk.
    start_block: u32,
    /// Number of rank-blocks.
    nblocks: u32,
    /// The transfer that delivered it.
    op: OpId,
}

/// One Exchange-level leader-to-leader chunk transfer, resolved against the
/// surviving-rail set. With a full set this *is* the fault-oblivious
/// `AllRails` transfer. Degraded, the chunk is re-tiled into per-rail
/// stripes over the survivors (small chunks are pinned round-robin to one
/// survivor, mirroring the pt2pt layer's policy below the stripe
/// threshold), joined by a zero-flop marker at the receiving leader so
/// downstream deps see one op.
#[allow(clippy::too_many_arguments)]
pub(crate) fn leader_chunk_transfer(
    ctx: &mut Ctx,
    rails: &RailSet,
    spec: &ClusterSpec,
    rr: &mut usize,
    lsrc: RankId,
    ldst: RankId,
    src: Loc,
    dst: Loc,
    len: usize,
    deps: &[OpId],
    step: u32,
) -> OpId {
    if rails.is_full() {
        return ctx
            .b
            .transfer(lsrc, ldst, src, dst, len, Channel::AllRails, deps, step);
    }
    let k = rails.len();
    if !spec.stripes(len) {
        let h = rails.rails()[*rr % k];
        *rr += 1;
        return ctx
            .b
            .transfer(lsrc, ldst, src, dst, len, Channel::Rail(h), deps, step);
    }
    let mut parts: Vec<OpId> = Vec::with_capacity(k);
    for (i, &h) in rails.rails().iter().enumerate() {
        let (lo, hi) = chunk_bounds(len, k, i);
        if hi == lo {
            continue;
        }
        let t = ctx.b.transfer(
            lsrc,
            ldst,
            Loc::new(src.buf, src.offset + lo),
            Loc::new(dst.buf, dst.offset + lo),
            hi - lo,
            Channel::Rail(h),
            deps,
            step,
        );
        parts.push(t);
    }
    if parts.len() == 1 {
        return parts[0];
    }
    ctx.b.push(
        OpKind::Compute {
            actor: ldst,
            flops: 0,
        },
        &parts,
        step,
        "stripe-join",
    )
}

/// Splits a step's region of `total_blocks` rank-blocks into pipeline
/// pieces of at most `chunk` blocks as `(start, len)` block offsets.
/// `None`, `0`, and any chunk ≥ the region keep it whole — one piece,
/// whose emission is bit-identical to the unchunked stream.
fn exchange_pieces(total_blocks: u32, chunk: Option<u32>) -> Vec<(u32, u32)> {
    match chunk {
        Some(c) if c > 0 && c < total_blocks => (0..total_blocks)
            .step_by(c as usize)
            .map(|start| (start, c.min(total_blocks - start)))
            .collect(),
        _ => vec![(0, total_blocks)],
    }
}

/// The hierarchical emission engine. Preconditions (checked by
/// [`emit_plan`]): the context is non-degenerate, the tree matches the
/// grid, `depth ≥ 2`, and RD implies a power-of-two outer fanout.
#[allow(clippy::too_many_arguments)]
fn emit_hier(
    ctx: &mut Ctx,
    topo: &Topology,
    inter: InterAlgo,
    overlap: bool,
    chunk: Option<u32>,
    imports: &[bool],
    gather: Offload,
    spec: &ClusterSpec,
    rails: &RailSet,
) {
    let grid = ctx.grid();
    let msg = ctx.msg;
    let depth = topo.depth();
    let n = topo.fanout(0);
    let leaf_size = topo.group_size(depth - 1);
    let d = resolve_offload(gather, spec, leaf_size, msg);

    // ---- Leaf level: gather within the innermost groups ------------------
    // region_done[g]: ops after which group g's *leader* holds the group's
    // full region.
    let nleaf = topo.num_groups(depth - 1);
    let mut region_done: Vec<Vec<OpId>> = Vec::with_capacity(nleaf as usize);
    for g in 0..nleaf {
        let first = topo.leader(depth - 1, GroupId(g));
        let ranks: Vec<RankId> = grid.rank_block(first, leaf_size).collect();
        let fills = gather_into(ctx, &ranks, d, 0);
        region_done.push(fills.into_iter().next().expect("leaf group non-empty"));
    }

    // ---- Import levels (innermost first): leaders merge child regions ----
    // At each level the group leaders import every sibling child's region
    // once (HCA loopback or the level's link), members pull the imported
    // region from their own leader over CMA — so after stage `m` every
    // depth-`dd` group leader holds its group's aggregated region.
    for (m, dd) in (1..depth - 1).rev().enumerate() {
        let offload = imports[dd - 1];
        let children = topo.fanout(dd);
        let child_size = topo.group_size(dd + 1);
        let region_bytes = child_size as usize * msg;
        let step_import = 100 + 200 * m as u32;
        let step_relay = 200 + 200 * m as u32;
        let mut next_done: Vec<Vec<OpId>> = Vec::with_capacity(topo.num_groups(dd) as usize);
        for g in 0..topo.num_groups(dd) {
            let first_child = g * children;
            let mut done = region_done[first_child as usize].clone();
            for c in 0..children {
                let me = RankId((first_child + c) * child_size);
                for other in 0..children {
                    if other == c {
                        continue;
                    }
                    let peer = RankId((first_child + other) * child_size);
                    let first_block = peer.0; // regions are rank-contiguous
                    let channel = if offload {
                        Channel::AllRails // NIC loopback: bypasses the link
                    } else {
                        Channel::Cma // pays the level's interconnect once
                    };
                    let mut deps = region_done[(first_child + other) as usize].clone();
                    deps.extend(ctx.cur.deps_of(me));
                    let import = ctx.b.transfer(
                        peer,
                        me,
                        ctx.recv_block(peer, first_block),
                        ctx.recv_block(me, first_block),
                        region_bytes,
                        channel,
                        &deps,
                        step_import + other,
                    );
                    if channel == Channel::Cma {
                        ctx.cur.advance(me, import);
                    }
                    if c == 0 {
                        done.push(import);
                    }
                    // Members pull the imported region from their leader
                    // (same-group CMA), pipelined per member.
                    for j in 1..child_size {
                        let member = RankId(me.0 + j);
                        let deps = ctx.cur.deps_with(member, &[import]);
                        let t = ctx.b.transfer(
                            me,
                            member,
                            ctx.recv_block(me, first_block),
                            ctx.recv_block(member, first_block),
                            region_bytes,
                            Channel::Cma,
                            &deps,
                            step_relay + other,
                        );
                        ctx.cur.advance(member, t);
                    }
                }
            }
            next_done.push(done);
        }
        region_done = next_done;
    }
    if n == 1 {
        return;
    }

    // ---- Shared-memory segments for the distribute -----------------------
    // Depth ≥ 3: one segment per depth-2 group (socket), homed on its
    // socket so copy-outs never cross the interconnect. Depth 2: one
    // segment per node; the leader first-touches it, so on a NUMA node its
    // pages land on the leader's socket — ranks of other sockets then pay
    // the cross-socket interconnect on their copy-outs. (That NUMA
    // blindness is exactly what the deeper instantiations fix.)
    let gs1 = topo.group_size(1);
    let total = grid.nranks() as usize * msg;
    let shm: Vec<Vec<BufId>> = if depth >= 3 {
        let nseg = topo.fanout(1);
        grid.node_ids()
            .map(|node| {
                (0..nseg)
                    .map(|c| {
                        ctx.b.shared_buf_homed(
                            node,
                            c.min(spec.sockets().saturating_sub(1)),
                            total,
                            format!("shm/{node}/s{c}"),
                        )
                    })
                    .collect()
            })
            .collect()
    } else {
        grid.node_ids()
            .map(|node| {
                let buf = if let Some(numa) = spec.numa.as_ref() {
                    let home = numa.socket_of(&grid, grid.leader_of(node));
                    ctx.b
                        .shared_buf_homed(node, home, total, format!("shm/{node}"))
                } else {
                    ctx.b.shared_buf(node, total, format!("shm/{node}"))
                };
                vec![buf]
            })
            .collect()
    };

    // ---- Exchange level: leader exchange over the rails ------------------
    let leader = |nd: u32| RankId(nd * gs1);
    // Chunk location inside any rank's receive buffer / an shm segment.
    let chunk_loc = |buf: BufId, start_block: u32| Loc::new(buf, start_block as usize * msg);

    let mut arrivals: Vec<Vec<Arrival>> = (0..n).map(|_| Vec::new()).collect();
    let mut rr = 0usize; // round-robin cursor for degraded small chunks

    // final_recv[nd]: ops after which node nd's exchange is complete — the
    // non-overlapped distribute's gate (a single op unchunked; chunked,
    // every piece's last-step transfer).
    let final_recv: Vec<Vec<OpId>>;
    match inter {
        InterAlgo::Ring => {
            // The forwarded unit is a node block; pieces pipeline it.
            let pieces = exchange_pieces(gs1, chunk);
            let np = pieces.len();
            // avail[nd][p]: ops guaranteeing piece p of the block node nd
            // sends this step.
            let mut avail: Vec<Vec<Vec<OpId>>> =
                region_done.into_iter().map(|d| vec![d; np]).collect();
            let mut prev_recv: Vec<Vec<Option<OpId>>> = vec![vec![None; np]; n as usize];
            for s in 0..n - 1 {
                let mut next_avail = Vec::with_capacity(n as usize);
                let mut next_recv = Vec::with_capacity(n as usize);
                for nd in 0..n {
                    let sender = (nd + n - 1) % n;
                    let block_node = (sender + n - s) % n;
                    let (lsrc, ldst) = (leader(sender), leader(nd));
                    let mut nd_avail = Vec::with_capacity(np);
                    let mut nd_recv = Vec::with_capacity(np);
                    for (p, &(pstart, plen)) in pieces.iter().enumerate() {
                        let mut deps = avail[sender as usize][p].clone();
                        deps.extend(prev_recv[nd as usize][p]);
                        let start = block_node * gs1 + pstart;
                        let t = leader_chunk_transfer(
                            ctx,
                            rails,
                            spec,
                            &mut rr,
                            lsrc,
                            ldst,
                            chunk_loc(ctx.recv[lsrc.index()], start),
                            chunk_loc(ctx.recv[ldst.index()], start),
                            plen as usize * msg,
                            &deps,
                            1000 + s,
                        );
                        arrivals[nd as usize].push(Arrival {
                            start_block: start,
                            nblocks: plen,
                            op: t,
                        });
                        nd_avail.push(vec![t]);
                        nd_recv.push(Some(t));
                    }
                    next_avail.push(nd_avail);
                    next_recv.push(nd_recv);
                }
                avail = next_avail;
                prev_recv = next_recv;
            }
            final_recv = prev_recv
                .into_iter()
                .map(|v| v.into_iter().flatten().collect())
                .collect();
        }
        InterAlgo::RecursiveDoubling => {
            // net_cur[nd]: deps representing "node nd's region is current".
            let mut net_cur: Vec<Vec<OpId>> = region_done;
            let steps = n.trailing_zeros();
            for k in 0..steps {
                let dist = 1u32 << k;
                // The exchanged unit doubles each step; pieces split it
                // with whole-region deps (RD's butterfly admits no finer
                // cross-step forwarding).
                let pieces = exchange_pieces(dist * gs1, chunk);
                let mut next_cur = net_cur.clone();
                for nd in 0..n {
                    let partner = nd ^ dist;
                    let pbase = partner & !(dist - 1);
                    let mut deps = net_cur[partner as usize].clone();
                    deps.extend(net_cur[nd as usize].iter().copied());
                    let (lsrc, ldst) = (leader(partner), leader(nd));
                    let mut got = Vec::with_capacity(pieces.len());
                    for &(pstart, plen) in &pieces {
                        let start = pbase * gs1 + pstart;
                        let t = leader_chunk_transfer(
                            ctx,
                            rails,
                            spec,
                            &mut rr,
                            lsrc,
                            ldst,
                            chunk_loc(ctx.recv[lsrc.index()], start),
                            chunk_loc(ctx.recv[ldst.index()], start),
                            plen as usize * msg,
                            &deps,
                            1000 + k,
                        );
                        arrivals[nd as usize].push(Arrival {
                            start_block: start,
                            nblocks: plen,
                            op: t,
                        });
                        got.push(t);
                    }
                    next_cur[nd as usize] = got;
                }
                net_cur = next_cur;
            }
            final_recv = net_cur;
        }
    }

    // ---- Distribute (overlapped with the exchange) -----------------------
    // The first segment's leader (= node leader) publishes each arrived
    // chunk into its segment; each further segment's leader relays it into
    // its own segment (one link crossing per chunk per segment), then all
    // members copy out locally.
    let nseg = if depth >= 3 { topo.fanout(1) } else { 1 };
    let seg_size = if depth >= 3 { topo.group_size(2) } else { gs1 };
    for node in grid.node_ids() {
        let nd = node.index();
        for (idx, arr) in arrivals[nd].iter().enumerate() {
            let gate: &[OpId] = if overlap {
                std::slice::from_ref(&arr.op)
            } else {
                &final_recv[nd]
            };
            let off = arr.start_block as usize * msg;
            let len = arr.nblocks as usize * msg;
            let mut publish: Vec<OpId> = Vec::with_capacity(nseg as usize);
            for c in 0..nseg {
                let actor = RankId(node.0 * gs1 + c * seg_size);
                let (src, dep): (Loc, Vec<OpId>) = if c == 0 {
                    (
                        Loc::new(ctx.recv[actor.index()], off),
                        ctx.cur.deps_with(actor, gate),
                    )
                } else {
                    (
                        Loc::new(shm[nd][0], off),
                        ctx.cur.deps_with(actor, &[publish[0]]),
                    )
                };
                let cin = ctx.b.copy(
                    actor,
                    src,
                    Loc::new(shm[nd][c as usize], off),
                    len,
                    &dep,
                    2000 + idx as u32,
                );
                ctx.cur.advance(actor, cin);
                publish.push(cin);
                // The relayed chunk also completes the relaying leader's
                // own receive buffer.
                if c > 0 {
                    let deps = ctx.cur.deps_with(actor, &[cin]);
                    let own = ctx.b.copy(
                        actor,
                        Loc::new(shm[nd][c as usize], off),
                        Loc::new(ctx.recv[actor.index()], off),
                        len,
                        &deps,
                        3000 + idx as u32,
                    );
                    ctx.cur.advance(actor, own);
                }
                for j in 1..seg_size {
                    let member = RankId(actor.0 + j);
                    let deps = ctx.cur.deps_with(member, &[cin]);
                    let cout = ctx.b.copy(
                        member,
                        Loc::new(shm[nd][c as usize], off),
                        Loc::new(ctx.recv[member.index()], off),
                        len,
                        &deps,
                        3000 + idx as u32,
                    );
                    ctx.cur.advance(member, cout);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::testutil::assert_allgather_correct;
    use crate::mha::MhaInterConfig;
    use mha_sched::ProcGrid;

    fn ops_of(b: &Built) -> String {
        format!("{:?}", b.sched.ops())
    }

    #[test]
    fn composed_two_level_reproduces_mha_inter_bit_for_bit() {
        let spec = ClusterSpec::thor();
        for inter in [InterAlgo::Ring, InterAlgo::RecursiveDoubling] {
            for overlap in [true, false] {
                for (nodes, ppn, msg) in [(4u32, 4u32, 64usize), (2, 8, 4096), (1, 4, 16)] {
                    let cfg = MhaInterConfig {
                        inter,
                        offload: Offload::Auto,
                        overlap,
                    };
                    let via_cfg = crate::build(
                        &crate::AlgoConfig::mha_inter(cfg),
                        ProcGrid::new(nodes, ppn),
                        msg,
                        &spec,
                    )
                    .unwrap();
                    let topo = Topology::two_level(nodes, ppn);
                    let composed =
                        build_composed(&topo, msg, &ComposePlan::mha_inter(cfg), &spec).unwrap();
                    assert_eq!(
                        ops_of(&via_cfg),
                        ops_of(&composed),
                        "{inter:?}/overlap={overlap}/{nodes}x{ppn}/{msg}"
                    );
                    assert_eq!(
                        via_cfg.sched.fingerprint().0,
                        composed.sched.fingerprint().0,
                        "fingerprint drift at {inter:?}/{nodes}x{ppn}/{msg}"
                    );
                }
            }
        }
    }

    #[test]
    fn composed_whole_tree_plans_reproduce_the_flat_builders() {
        let spec = ClusterSpec::thor();
        let grid = ProcGrid::new(2, 4);
        let topo = Topology::from_grid(&grid);
        let msg = 32;
        let pairs: Vec<(Built, ComposePlan)> = vec![
            (crate::flat::build_ring(grid, msg), ComposePlan::ring()),
            (
                crate::flat::build_recursive_doubling(grid, msg).unwrap(),
                ComposePlan::recursive_doubling(),
            ),
            (crate::flat::build_bruck(grid, msg), ComposePlan::bruck()),
            (
                crate::flat::build_direct_spread(grid, msg),
                ComposePlan::direct_spread(),
            ),
            (
                crate::twolevel::build_single_leader(grid, msg).unwrap(),
                ComposePlan::single_leader(),
            ),
            (
                crate::twolevel::build_multi_leader(grid, msg, 2).unwrap(),
                ComposePlan::multi_leader(2),
            ),
        ];
        for (legacy, plan) in pairs {
            let composed = build_composed(&topo, msg, &plan, &spec).unwrap();
            assert_eq!(ops_of(&legacy), ops_of(&composed), "{}", plan.name());
        }
    }

    #[test]
    fn deep_trees_build_correct_allgathers() {
        let spec = ClusterSpec::thor();
        for fanouts in [
            vec![2u32, 2, 2],
            vec![3, 2, 2],
            vec![2, 2, 2, 2],
            vec![4, 1, 2],
            vec![1, 2, 3],
        ] {
            let topo = Topology::from_fanouts(&fanouts);
            let plan =
                ComposePlan::hierarchical(topo.depth(), InterAlgo::Ring, true, true, Offload::None);
            let built = build_composed(&topo, 24, &plan, &spec).unwrap();
            assert_allgather_correct(&built);
        }
    }

    #[test]
    fn mismatched_plans_are_rejected() {
        let spec = ClusterSpec::thor();
        let topo = Topology::from_fanouts(&[2, 2, 2]);
        // Plan depth != tree depth.
        let err = build_composed(
            &topo,
            8,
            &ComposePlan::mha_inter(MhaInterConfig::default()),
            &spec,
        )
        .unwrap_err();
        assert!(matches!(err, BuildError::BadParameter(_)));
        // Lone Gather needs depth 1.
        let err = build_composed(&topo, 8, &ComposePlan::gather(Offload::None), &spec).unwrap_err();
        assert!(matches!(err, BuildError::BadParameter(_)));
        // RD needs a power-of-two outer fanout, even at msg = 0.
        let topo3 = Topology::from_fanouts(&[3, 2, 2]);
        let plan =
            ComposePlan::hierarchical(3, InterAlgo::RecursiveDoubling, true, true, Offload::None);
        for msg in [0usize, 8] {
            let err = build_composed(&topo3, msg, &plan, &spec).unwrap_err();
            assert!(matches!(err, BuildError::RequiresPowerOfTwo { .. }));
        }
    }

    #[test]
    fn zero_message_composes_to_a_degenerate_schedule() {
        let spec = ClusterSpec::thor();
        let topo = Topology::from_fanouts(&[2, 2, 2]);
        let plan = ComposePlan::hierarchical(3, InterAlgo::Ring, true, true, Offload::None);
        let built = build_composed(&topo, 0, &plan, &spec).unwrap();
        assert_eq!(built.sched.ops().len(), 8);
        assert_allgather_correct(&built);
    }

    #[test]
    fn plan_names_are_descriptive() {
        assert_eq!(
            ComposePlan::numa3(true).name(),
            "xchg-ring+import-hca+gather"
        );
        assert_eq!(ComposePlan::multi_leader(4).name(), "multi-leader(g=4)");
    }
}
