//! A deterministic schedule fuzzer with greedy shrinking — a mutation-kill
//! harness for the checker stack itself.
//!
//! The oracle proves the checkers pass on *correct* schedules; this module
//! proves they *fail* on broken ones. Known-good schedules (built by the
//! collective algorithms) are mutated — drop a dependency edge, swap a
//! transfer's endpoints, shrink a copy range, shift a destination offset,
//! aim at a nonexistent rail — and every mutant must be killed by at least
//! one layer of [`mha_sched::validate`], [`mha_sched::check_races`] or
//! [`mha_exec::verify_allgather`]. Killed mutants are greedily shrunk
//! ([`shrink`]) to a minimal op set that still fails, so a checker
//! regression surfaces as a small, readable reproduction.
//!
//! Everything is deterministic: mutants are either enumerated
//! ([`seeded_mutants`]) or drawn from a seeded [`StdRng`] — the random
//! loop is the [`Fuzz`] oracle.

use std::fmt;
use std::sync::OnceLock;

use mha_collectives::{build, AlgoConfig, Built, Family};
use mha_exec::Mode;
use mha_sched::{
    BufId, BufKind, BufferDecl, Channel, OpId, OpKind, ProcGrid, Schedule, ScheduleBuilder,
};
use mha_simnet::ClusterSpec;
use rand::{rngs::StdRng, Rng};

use crate::oracle::THREADS;
use crate::runner::{Oracle, Report};

/// A mutable, rebuildable description of a schedule: the builder's inputs,
/// round-trippable through [`SchedSpec::from_schedule`] / [`SchedSpec::build`].
#[derive(Debug, Clone)]
pub struct SchedSpec {
    grid: ProcGrid,
    name: String,
    bufs: Vec<BufferDecl>,
    /// The op list — public so mutations and assertions can inspect it.
    pub ops: Vec<OpSpec>,
}

/// One op's builder inputs.
#[derive(Debug, Clone)]
pub struct OpSpec {
    /// What the op does.
    pub kind: OpKind,
    /// Backward dependencies.
    pub deps: Vec<OpId>,
    /// Algorithm step (kept for trace fidelity).
    pub step: u32,
    /// Fixed trace name in place of the derived label, if any.
    pub marker: Option<&'static str>,
}

impl SchedSpec {
    /// Decomposes a finished schedule back into builder inputs.
    pub fn from_schedule(sch: &Schedule) -> Self {
        SchedSpec {
            grid: *sch.grid(),
            name: format!("{}+mutant", sch.name()),
            bufs: sch.buffers().to_vec(),
            ops: sch
                .ops()
                .iter()
                .map(|op| OpSpec {
                    kind: op.kind.clone(),
                    deps: sch.deps(op.id).to_vec(),
                    step: op.step,
                    marker: op.marker,
                })
                .collect(),
        }
    }

    /// Rebuilds a [`Schedule`] through the public [`ScheduleBuilder`] API.
    /// Buffer ids are dense creation-order indices, so re-declaring the
    /// buffers in id order reproduces the original ids exactly.
    pub fn build(&self) -> Schedule {
        let mut b = ScheduleBuilder::new(self.grid, self.name.clone());
        for (i, decl) in self.bufs.iter().enumerate() {
            let id = match (decl.kind, decl.home_socket) {
                (BufKind::Private(r), _) => b.private_buf(r, decl.len, decl.label.clone()),
                (BufKind::NodeShared(n), None) => b.shared_buf(n, decl.len, decl.label.clone()),
                (BufKind::NodeShared(n), Some(s)) => {
                    b.shared_buf_homed(n, s, decl.len, decl.label.clone())
                }
            };
            assert_eq!(id.index(), i, "buffer ids must survive the round trip");
        }
        for op in &self.ops {
            b.push(op.kind.clone(), &op.deps, op.step, op.marker);
        }
        b.finish()
    }

    /// Number of ops.
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }
}

/// One schedule mutation. All index fields refer to positions in
/// [`SchedSpec::ops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Remove op `op`'s `dep`-th dependency edge.
    DropEdge {
        /// Target op index.
        op: usize,
        /// Index into that op's dependency list.
        dep: usize,
    },
    /// Swap a transfer's source and destination (ranks and locations).
    SwapEndpoints {
        /// Target op index (must be a transfer between distinct ranks).
        op: usize,
    },
    /// Shorten a transfer/copy by one byte — the classic off-by-one-chunk.
    ShrinkLen {
        /// Target op index.
        op: usize,
    },
    /// Shift a transfer/copy destination offset by one byte.
    ShiftDstOffset {
        /// Target op index.
        op: usize,
    },
    /// Point a rail transfer at a rail the cluster does not have.
    BadRail {
        /// Target op index (must use a rail channel).
        op: usize,
    },
}

/// Applies `m` to `spec`, returning the mutant — or `None` when the
/// mutation does not apply to that op (wrong kind, no deps, length 0, …).
pub fn apply(spec: &SchedSpec, m: Mutation) -> Option<SchedSpec> {
    let mut out = spec.clone();
    match m {
        Mutation::DropEdge { op, dep } => {
            let deps = &mut out.ops.get_mut(op)?.deps;
            if dep >= deps.len() {
                return None;
            }
            deps.remove(dep);
        }
        Mutation::SwapEndpoints { op } => match &mut out.ops.get_mut(op)?.kind {
            OpKind::Transfer {
                src_rank,
                dst_rank,
                src,
                dst,
                ..
            } if src_rank != dst_rank => {
                std::mem::swap(src_rank, dst_rank);
                std::mem::swap(src, dst);
            }
            _ => return None,
        },
        Mutation::ShrinkLen { op } => match &mut out.ops.get_mut(op)?.kind {
            OpKind::Transfer { len, .. } | OpKind::Copy { len, .. } if *len > 1 => *len -= 1,
            _ => return None,
        },
        Mutation::ShiftDstOffset { op } => match &mut out.ops.get_mut(op)?.kind {
            OpKind::Transfer { dst, .. } | OpKind::Copy { dst, .. } => dst.offset += 1,
            _ => return None,
        },
        Mutation::BadRail { op } => match &mut out.ops.get_mut(op)?.kind {
            OpKind::Transfer { channel, .. }
                if matches!(channel, Channel::Rail(_) | Channel::AllRails) =>
            {
                *channel = Channel::Rail(200);
            }
            _ => return None,
        },
    }
    Some(out)
}

/// Which checker layer killed a mutant (or none did).
#[derive(Debug)]
pub enum Verdict {
    /// Structural validation rejected the schedule.
    Validate(String),
    /// The race checker found this many write conflicts.
    Race(usize),
    /// Execution produced non-MPI output.
    Verify(String),
    /// Every checker passed — the mutation was semantically harmless.
    Survived,
}

impl Verdict {
    /// Whether some checker caught the mutant.
    pub fn killed(&self) -> bool {
        !matches!(self, Verdict::Survived)
    }

    /// The checker layer, ignoring the payload — shrinking preserves this.
    fn layer(&self) -> u8 {
        match self {
            Verdict::Validate(_) => 0,
            Verdict::Race(_) => 1,
            Verdict::Verify(_) => 2,
            Verdict::Survived => 3,
        }
    }
}

/// A base schedule plus everything needed to judge its mutants.
#[derive(Debug, Clone)]
pub struct FuzzTarget {
    /// The pristine builder inputs mutations start from.
    pub spec: SchedSpec,
    /// Per-rank send buffers (for verification).
    pub send: Vec<BufId>,
    /// Per-rank receive buffers (for verification).
    pub recv: Vec<BufId>,
    /// Per-rank contribution size in bytes.
    pub msg: usize,
    /// Rail count validation checks against.
    pub rails: u8,
}

impl FuzzTarget {
    /// Wraps a built collective as a fuzz target. The base must itself
    /// survive every checker (asserted), or kills would be meaningless.
    pub fn from_built(built: &Built, rails: u8) -> Self {
        let target = FuzzTarget {
            spec: SchedSpec::from_schedule(&built.sched),
            send: built.send.clone(),
            recv: built.recv.clone(),
            msg: built.msg,
            rails,
        };
        let verdict = judge(&target, &target.spec);
        assert!(
            !verdict.killed(),
            "base schedule must pass all checkers, got {verdict:?}"
        );
        target
    }
}

/// Runs a (possibly mutated) spec through the checker stack in order:
/// structural validation, race detection, then single-threaded execution
/// with byte verification.
pub fn judge(target: &FuzzTarget, spec: &SchedSpec) -> Verdict {
    let sch = spec.build();
    if let Err(e) = mha_sched::validate(&sch, Some(target.rails)) {
        return Verdict::Validate(e.to_string());
    }
    let races = mha_sched::check_races(&sch);
    if !races.is_empty() {
        return Verdict::Race(races.len());
    }
    let frozen = sch.freeze();
    match mha_exec::verify_allgather(
        &frozen,
        &target.send,
        &target.recv,
        target.msg,
        Mode::Single,
    ) {
        Err(e) => Verdict::Verify(format!("{e:?}")),
        Ok(()) => Verdict::Survived,
    }
}

/// Removes op `j`, rewiring its successors onto its dependencies.
fn remove_op(spec: &SchedSpec, j: usize) -> SchedSpec {
    let jdeps = spec.ops[j].deps.clone();
    let remap = |d: OpId| -> OpId {
        if d.index() > j {
            OpId::from(d.index() - 1)
        } else {
            d
        }
    };
    let mut out = spec.clone();
    out.ops = spec
        .ops
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != j)
        .map(|(_, op)| {
            let mut deps: Vec<OpId> = Vec::with_capacity(op.deps.len());
            for &d in &op.deps {
                if d.index() == j {
                    deps.extend(jdeps.iter().copied());
                } else {
                    deps.push(d);
                }
            }
            let mut deps: Vec<OpId> = deps.into_iter().map(remap).collect();
            deps.sort_unstable();
            deps.dedup();
            OpSpec { deps, ..op.clone() }
        })
        .collect();
    out
}

/// Greedily shrinks a killed mutant: repeatedly removes single ops
/// (successors inherit the removed op's dependencies) while the result is
/// still killed *by the same checker layer* — a validation kill must stay
/// a validation kill, a race a race — so the minimal reproduction points
/// at the layer that actually caught the bug. The returned spec is
/// 1-minimal: removing any one more op changes or loses the verdict.
pub fn shrink(target: &FuzzTarget, killed: &SchedSpec) -> SchedSpec {
    let layer = judge(target, killed).layer();
    assert_ne!(
        layer,
        Verdict::Survived.layer(),
        "can only shrink a killed mutant"
    );
    let mut cur = killed.clone();
    loop {
        let mut improved = false;
        let mut j = 0;
        while j < cur.ops.len() {
            let cand = remove_op(&cur, j);
            if judge(target, &cand).layer() == layer {
                cur = cand;
                improved = true;
            } else {
                j += 1;
            }
        }
        if !improved {
            return cur;
        }
    }
}

/// Enumerates one deterministic mutant per mutation class applicable to
/// `spec` (the seeded mutants the kill-rate acceptance bar is measured
/// on). Each entry is `(class name, mutation)`.
pub fn seeded_mutants(spec: &SchedSpec) -> Vec<(&'static str, Mutation)> {
    let mut out = Vec::new();
    let first = |pred: &dyn Fn(&OpSpec) -> bool| spec.ops.iter().position(pred);
    if let Some(op) = first(
        &|o| matches!(&o.kind, OpKind::Transfer { src_rank, dst_rank, .. } if src_rank != dst_rank),
    ) {
        out.push(("swap-endpoints", Mutation::SwapEndpoints { op }));
    }
    if let Some(op) = first(
        &|o| matches!(&o.kind, OpKind::Transfer { len, .. } | OpKind::Copy { len, .. } if *len > 1),
    ) {
        out.push(("shrink-len", Mutation::ShrinkLen { op }));
        out.push(("shift-dst-offset", Mutation::ShiftDstOffset { op }));
    }
    if let Some(op) = first(&|o| {
        matches!(
            &o.kind,
            OpKind::Transfer {
                channel: Channel::Rail(_) | Channel::AllRails,
                ..
            }
        )
    }) {
        out.push(("bad-rail", Mutation::BadRail { op }));
    }
    out
}

/// Finds a dependency edge whose removal is caught by a checker (the
/// orphaned-op seeded mutant: a real algorithm must have at least one
/// load-bearing edge). Returns the mutation, or `None` if every single
/// edge is redundant — which would itself be a red flag for the base.
pub fn find_killable_edge_drop(target: &FuzzTarget) -> Option<Mutation> {
    for (op, spec_op) in target.spec.ops.iter().enumerate() {
        for dep in 0..spec_op.deps.len() {
            let m = Mutation::DropEdge { op, dep };
            if let Some(mutant) = apply(&target.spec, m) {
                if judge(target, &mutant).killed() {
                    return Some(m);
                }
            }
        }
    }
    None
}

/// Draws a random applicable mutation for `spec` (deterministic given the
/// rng state); `None` if the drawn class has no applicable op after a few
/// retries.
pub fn random_mutation(rng: &mut StdRng, spec: &SchedSpec) -> Option<Mutation> {
    for _ in 0..16 {
        let op = rng.gen_range(0..spec.ops.len());
        let m = match rng.gen_range(0..5u32) {
            0 => {
                let n = spec.ops[op].deps.len();
                if n == 0 {
                    continue;
                }
                Mutation::DropEdge {
                    op,
                    dep: rng.gen_range(0..n),
                }
            }
            1 => Mutation::SwapEndpoints { op },
            2 => Mutation::ShrinkLen { op },
            3 => Mutation::ShiftDstOffset { op },
            _ => Mutation::BadRail { op },
        };
        if apply(spec, m).is_some() {
            return Some(m);
        }
    }
    None
}

/// The fuzz targets: flat ring on 2×2, Bruck on one 4-rank node and the
/// default MHA-inter on 2×4, all at 64 B, each with its name. Built once
/// per process.
pub fn fuzz_targets() -> &'static [(String, FuzzTarget)] {
    static TARGETS: OnceLock<Vec<(String, FuzzTarget)>> = OnceLock::new();
    TARGETS.get_or_init(|| {
        let spec = ClusterSpec::thor();
        [
            (AlgoConfig::flat(Family::Ring), ProcGrid::new(2, 2)),
            (AlgoConfig::flat(Family::Bruck), ProcGrid::single_node(4)),
            (AlgoConfig::default(), ProcGrid::new(2, 4)),
        ]
        .into_iter()
        .map(|(cfg, grid)| {
            let built = build(&cfg, grid, 64, &spec).expect("fuzz targets build");
            (
                format!("{} {}x{}", cfg.family.token(), grid.nodes(), grid.ppn()),
                FuzzTarget::from_built(&built, spec.rails),
            )
        })
        .collect()
    })
}

/// The random-fuzzing oracle: each case draws a target and a random
/// mutation of it. A killed mutant is tallied `"killed"`; a survivor must
/// still verify on the thread pool (a genuinely correct schedule) and is
/// tallied `"survived"`; a draw with no applicable mutation is tallied
/// `"inapplicable"`. [`check_kill_rate`] holds the tally to its bars.
pub struct Fuzz;

/// One random draw: a target index and the mutation drawn for it.
#[derive(Debug)]
pub struct FuzzCase {
    target: usize,
    mutation: Option<Mutation>,
}

impl fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "target {} {:?}", self.target, self.mutation)
    }
}

impl Oracle for Fuzz {
    const NAME: &'static str = "fuzz";
    const SEED: u64 = 0xF022;
    const DEFAULT_CASES: usize = 150;
    type Case = FuzzCase;

    fn sample(&self, rng: &mut StdRng, _i: usize) -> FuzzCase {
        let targets = fuzz_targets();
        let target = rng.gen_range(0..targets.len());
        let mutation = random_mutation(rng, &targets[target].1.spec);
        FuzzCase { target, mutation }
    }

    fn check(&self, case: &FuzzCase) -> Result<&'static str, String> {
        let Some(m) = case.mutation else {
            return Ok("inapplicable");
        };
        let (name, target) = &fuzz_targets()[case.target];
        let mutant = apply(&target.spec, m).ok_or("drawn mutation does not apply")?;
        if judge(target, &mutant).killed() {
            return Ok("killed");
        }
        // A survivor claims to still be a correct allgather; hold it to
        // that in the thread-pool mode too.
        let frozen = mutant.build().freeze();
        mha_exec::verify_allgather(
            &frozen,
            &target.send,
            &target.recv,
            target.msg,
            Mode::Threaded(THREADS),
        )
        .map_err(|e| format!("{name}: survivor fails threaded verify: {e:?}"))?;
        Ok("survived")
    }
}

/// The bars over a [`Fuzz`] sweep's tally: at least half the draws apply
/// (else the generator is mostly inapplicable), and at least 30 % of the
/// applied mutants are killed (else the checkers are rotting).
pub fn check_kill_rate(report: &Report) -> Result<(), String> {
    let killed = report.count("killed");
    let applied = killed + report.count("survived");
    if applied < report.cases / 2 {
        return Err(format!(
            "mutation generator mostly inapplicable: {applied} of {} draws applied",
            report.cases
        ));
    }
    if killed * 10 < applied * 3 {
        return Err(format!(
            "kill rate collapsed: {killed}/{applied} — are the checkers rotting?"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_target() -> FuzzTarget {
        fuzz_targets()[0].1.clone()
    }

    #[test]
    fn round_trip_preserves_the_schedule() {
        let target = ring_target();
        let rebuilt = target.spec.build();
        mha_sched::validate(&rebuilt, Some(2)).unwrap();
        let frozen = rebuilt.freeze();
        mha_exec::verify_allgather(&frozen, &target.send, &target.recv, 64, Mode::Single).unwrap();
    }

    #[test]
    fn inapplicable_mutations_return_none() {
        let target = ring_target();
        assert!(apply(&target.spec, Mutation::DropEdge { op: 0, dep: 99 }).is_none());
        let compute_free = target
            .spec
            .ops
            .iter()
            .position(|o| matches!(o.kind, OpKind::Copy { .. }));
        if let Some(op) = compute_free {
            assert!(apply(&target.spec, Mutation::BadRail { op }).is_none());
        }
    }

    #[test]
    fn shrinking_a_bad_rail_mutant_isolates_the_bad_op() {
        let target = ring_target();
        let m = seeded_mutants(&target.spec)
            .into_iter()
            .find(|(name, _)| *name == "bad-rail")
            .expect("ring has rail transfers")
            .1;
        let mutant = apply(&target.spec, m).unwrap();
        assert!(judge(&target, &mutant).killed());
        let minimal = shrink(&target, &mutant);
        // Structural kills shrink all the way down to the offending op.
        assert_eq!(minimal.n_ops(), 1);
        assert!(matches!(judge(&target, &minimal), Verdict::Validate(_)));
    }
}
