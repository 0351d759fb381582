//! Ring Allreduce (Patarasuk & Yuan \[27\]) with a pluggable Allgather phase.
//!
//! Reduce-scatter runs `R − 1` ring steps, leaving rank `r` with the fully
//! reduced chunk `r`; the Allgather phase then distributes the chunks. The
//! paper's Section 5.4 accelerates Allreduce purely by swapping that second
//! phase for the hierarchical MHA Allgather — reproduced here by
//! [`AllgatherPhase`].

use mha_sched::{DType, Loc, ProcGrid, RankId, RedOp};
use mha_simnet::ClusterSpec;

use crate::ctx::{BuildError, Built, Ctx};
use crate::flat::emit_ring;
use crate::mha::{emit_mha_inter, MhaInterConfig};

/// Which Allgather implements the second phase of Ring-Allreduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllgatherPhase {
    /// Flat ring — what the library baselines do.
    FlatRing,
    /// The paper's hierarchical multi-HCA aware Allgather.
    MhaInter(MhaInterConfig),
}

/// Builds a Ring-Allreduce (MPI_SUM over f32) of `elems` elements.
///
/// `Built::send`/`Built::recv` hold the full input/output vectors
/// (`elems * 4` bytes); `Built::msg` is the per-rank chunk size in bytes.
///
/// # Errors
///
/// [`BuildError::IndivisibleVector`] unless `elems` divides evenly by the
/// rank count (callers pad, as DL frameworks do with fusion buffers);
/// plus any error from the chosen Allgather phase.
pub fn build_ring_allreduce(
    grid: ProcGrid,
    elems: usize,
    phase_b: AllgatherPhase,
    spec: &ClusterSpec,
) -> Result<Built, BuildError> {
    let r = grid.nranks();
    if !elems.is_multiple_of(r as usize) {
        return Err(BuildError::IndivisibleVector { elems, ranks: r });
    }
    let chunk_elems = elems / r as usize;
    let chunk = chunk_elems * 4;
    let name = match phase_b {
        AllgatherPhase::FlatRing => "ring-allreduce(flat)",
        AllgatherPhase::MhaInter(_) => "ring-allreduce(mha)",
    };
    let mut ctx = Ctx::for_allreduce(grid, chunk, name);
    if ctx.is_degenerate() {
        // Allreduce over zero elements is a no-op — every rank's (empty)
        // vector is already "reduced".
        return Ok(ctx.finish_degenerate());
    }
    let grid = ctx.grid();

    // Working state lives in recv: start with recv = send.
    let total = r as usize * chunk;
    for rank in grid.ranks() {
        let op = ctx.b.copy(
            rank,
            Loc::new(ctx.send[rank.index()], 0),
            Loc::new(ctx.recv[rank.index()], 0),
            total,
            &[],
            0,
        );
        ctx.cur.advance(rank, op);
    }

    // ---- Reduce-scatter: R − 1 ring steps. ------------------------------
    // Ranks behave like standard ring-reduce-scatter shifted by one, so
    // rank r ends owning chunk r (which the Allgather phase then treats as
    // its contribution at block r).
    if r > 1 {
        // Per-rank staging buffer for the incoming chunk of each step.
        let tmp: Vec<_> = grid
            .ranks()
            .map(|rank| ctx.b.private_buf(rank, chunk, format!("rs-tmp/{rank}")))
            .collect();
        // arrival[rank]: op after which the chunk `rank` sends next is
        // up to date (previous step's reduce, or the initial copy).
        let mut arrival: Vec<mha_sched::OpId> =
            grid.ranks().map(|rk| ctx.cur.last(rk).unwrap()).collect();
        for s in 0..r - 1 {
            let mut this_step = Vec::with_capacity(r as usize);
            for dst in 0..r {
                let src = (dst + r - 1) % r;
                // Chunk travelling into `dst` this step (shifted scheme).
                let chunk_idx = (src + 2 * r - 1 - s) % r;
                let (src_r, dst_r) = (RankId(src), RankId(dst));
                let ch = ctx.channel_between(src_r, dst_r);
                let deps = ctx.cur.deps_with(dst_r, &[arrival[src as usize]]);
                let t = ctx.b.transfer(
                    src_r,
                    dst_r,
                    Loc::new(ctx.recv[src as usize], chunk_idx as usize * chunk),
                    Loc::new(tmp[dst as usize], 0),
                    chunk,
                    ch,
                    &deps,
                    1 + s,
                );
                let red = ctx.b.reduce(
                    dst_r,
                    Loc::new(ctx.recv[dst as usize], chunk_idx as usize * chunk),
                    Loc::new(tmp[dst as usize], 0),
                    chunk,
                    DType::F32,
                    RedOp::Sum,
                    &[t],
                    1 + s,
                );
                this_step.push((dst, red));
            }
            for (dst, red) in this_step {
                ctx.cur.advance(RankId(dst), red);
                arrival[dst as usize] = red;
            }
        }
        // Mark each rank's owned chunk as its Allgather contribution.
        for rank in grid.ranks() {
            ctx.set_ready(rank, arrival[rank.index()]);
        }
    }

    // ---- Allgather phase. ------------------------------------------------
    match phase_b {
        AllgatherPhase::FlatRing => emit_ring(&mut ctx),
        AllgatherPhase::MhaInter(cfg) => emit_mha_inter(&mut ctx, cfg, spec)?,
    }
    Ok(ctx.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mha_exec::{verify_allreduce_sum_f32, Mode};
    use mha_simnet::Simulator;

    fn thor() -> ClusterSpec {
        ClusterSpec::thor()
    }

    fn assert_allreduce_correct(built: &Built, elems: usize) {
        mha_sched::validate(&built.sched, Some(2)).unwrap();
        let races = mha_sched::check_races(&built.sched);
        assert!(races.is_empty(), "races: {races:?}");
        verify_allreduce_sum_f32(&built.sched, &built.send, &built.recv, elems, Mode::Single)
            .unwrap();
        verify_allreduce_sum_f32(
            &built.sched,
            &built.send,
            &built.recv,
            elems,
            Mode::Threaded(4),
        )
        .unwrap();
    }

    #[test]
    fn flat_ring_allreduce_is_correct() {
        for (nodes, ppn) in [(1, 1), (1, 2), (1, 4), (2, 2), (3, 2), (2, 4)] {
            let r = (nodes * ppn) as usize;
            let elems = r * 12;
            let built = build_ring_allreduce(
                ProcGrid::new(nodes, ppn),
                elems,
                AllgatherPhase::FlatRing,
                &thor(),
            )
            .unwrap();
            assert_allreduce_correct(&built, elems);
        }
    }

    #[test]
    fn mha_allreduce_is_correct() {
        for (nodes, ppn) in [(2, 2), (4, 2), (2, 4), (3, 2)] {
            let r = (nodes * ppn) as usize;
            let elems = r * 8;
            let built = build_ring_allreduce(
                ProcGrid::new(nodes, ppn),
                elems,
                AllgatherPhase::MhaInter(MhaInterConfig::default()),
                &thor(),
            )
            .unwrap();
            assert_allreduce_correct(&built, elems);
        }
    }

    #[test]
    fn indivisible_vector_rejected() {
        let err = build_ring_allreduce(ProcGrid::new(2, 2), 10, AllgatherPhase::FlatRing, &thor())
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::IndivisibleVector {
                elems: 10,
                ranks: 4
            }
        );
    }

    #[test]
    fn mha_phase_beats_flat_ring_at_scale() {
        // Section 5.4: swapping the Allgather phase improves Allreduce.
        let spec = thor();
        let sim = Simulator::new(spec.clone()).unwrap();
        let grid = ProcGrid::new(8, 8);
        let elems = (grid.nranks() as usize) * 16 * 1024; // 4 MB vector
        let flat = build_ring_allreduce(grid, elems, AllgatherPhase::FlatRing, &spec).unwrap();
        let mha = build_ring_allreduce(
            grid,
            elems,
            AllgatherPhase::MhaInter(MhaInterConfig::default()),
            &spec,
        )
        .unwrap();
        let t_flat = sim.run(&flat.sched).unwrap().latency_us();
        let t_mha = sim.run(&mha.sched).unwrap().latency_us();
        assert!(t_mha < t_flat, "mha {t_mha} vs flat {t_flat}");
    }

    #[test]
    fn zero_element_allreduce_is_a_valid_no_op() {
        for phase in [
            AllgatherPhase::FlatRing,
            AllgatherPhase::MhaInter(MhaInterConfig::default()),
        ] {
            let built = build_ring_allreduce(ProcGrid::new(2, 2), 0, phase, &thor()).unwrap();
            assert_allreduce_correct(&built, 0);
        }
    }

    #[test]
    fn single_rank_allreduce_is_identity_copy() {
        let built = build_ring_allreduce(ProcGrid::new(1, 1), 8, AllgatherPhase::FlatRing, &thor())
            .unwrap();
        assert_allreduce_correct(&built, 8);
    }
}
