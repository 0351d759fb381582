//! Static byte-coverage check for Allgather schedules.
//!
//! MPI_Allgather semantics fix the destination layout exactly: rank `r`'s
//! receive buffer ends up holding `nranks · msg` bytes, block `k` coming
//! from rank `k`, each byte written *exactly once*. Because the schedule IR
//! names every write range explicitly (transfer destinations, copy
//! destinations, reduce accumulators), that can be checked without running
//! anything: the write ranges into each receive buffer must tile
//! `[0, nranks · msg)` with no gap and no overlap — the static complement
//! to [`mha_exec::verify_allgather`]'s dynamic byte comparison, and the
//! check that catches the off-by-one-chunk striping bugs decomposition
//! designs are prone to.

use std::collections::HashMap;

use mha_collectives::Built;
use mha_sched::OpKind;

/// Checks that the write ops into each rank's receive buffer exactly
/// partition it (no byte missed, no byte written twice).
///
/// Only valid for *plain* Allgather schedules ([`Built`] as produced by
/// [`mha_collectives::build`]); Allreduce schedules
/// legitimately rewrite receive-buffer ranges while reducing.
pub fn check_allgather_coverage(built: &Built) -> Result<(), String> {
    let sch = &built.sched;
    let nranks = sch.grid().nranks() as usize;
    let total = nranks * built.msg;
    let mut recv_rank: HashMap<u32, usize> = HashMap::new();
    for (r, &b) in built.recv.iter().enumerate() {
        recv_rank.insert(b.0, r);
    }

    // Per-rank sorted-by-construction write intervals (ops are scanned in
    // id order; sorting happens below anyway).
    let mut writes: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nranks];
    for op in sch.ops() {
        let (dst, len) = match &op.kind {
            OpKind::Transfer { dst, len, .. } => (dst, len),
            OpKind::Copy { dst, len, .. } => (dst, len),
            OpKind::Reduce { acc, len, .. } => (acc, len),
            OpKind::Compute { .. } => continue,
        };
        if let Some(&r) = recv_rank.get(&dst.buf.0) {
            writes[r].push((dst.offset as usize, dst.offset as usize + *len as usize));
        }
    }

    for (r, mut iv) in writes.into_iter().enumerate() {
        iv.sort_unstable();
        let mut cursor = 0usize;
        for (lo, hi) in iv {
            match lo.cmp(&cursor) {
                std::cmp::Ordering::Greater => {
                    return Err(format!(
                        "rank {r}: recv bytes [{cursor}, {lo}) never written"
                    ));
                }
                std::cmp::Ordering::Less => {
                    return Err(format!(
                        "rank {r}: recv bytes [{lo}, {}) written more than once",
                        cursor.min(hi)
                    ));
                }
                std::cmp::Ordering::Equal => cursor = hi,
            }
        }
        if cursor != total {
            return Err(format!(
                "rank {r}: recv bytes [{cursor}, {total}) never written"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mha_collectives::{build, AlgoConfig, Family};
    use mha_sched::ProcGrid;
    use mha_simnet::ClusterSpec;

    #[test]
    fn every_family_partitions_the_recv_buffers() {
        let spec = ClusterSpec::thor();
        for cfg in [
            AlgoConfig::flat(Family::Ring),
            AlgoConfig::flat(Family::RecursiveDoubling),
            AlgoConfig::flat(Family::Bruck),
            AlgoConfig::flat(Family::DirectSpread),
            AlgoConfig::flat(Family::SingleLeader),
            AlgoConfig::flat(Family::MultiLeader { groups: 2 }),
            AlgoConfig::default(),
        ] {
            let built = build(&cfg, ProcGrid::new(2, 4), 96, &spec).unwrap();
            check_allgather_coverage(&built)
                .unwrap_or_else(|e| panic!("{}: {e}", built.sched.name()));
        }
    }

    #[test]
    fn a_gap_is_reported() {
        let spec = ClusterSpec::thor();
        let ring = AlgoConfig::flat(Family::Ring);
        let mut built = build(&ring, ProcGrid::new(2, 2), 64, &spec).unwrap();
        // Lie about the message size: every rank now "misses" bytes.
        built.msg = 128;
        let err = check_allgather_coverage(&built).unwrap_err();
        assert!(err.contains("never written"), "{err}");
    }
}
