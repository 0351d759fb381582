//! Engine-level checks of the run metrics that [`mha_sched::SummaryProbe`]
//! derives from a simulated run: busy time per op kind and the
//! network/CPU overlap behind Figures 6–7. The metrics themselves live in
//! `mha-sched`; this module holds only their tests over real runs.

#[cfg(test)]
mod tests {
    use crate::{ClusterSpec, Simulator};
    use mha_sched::{Channel, Loc, ProcGrid, RankId, RunSummary, ScheduleBuilder, SummaryProbe};

    /// Summarizes a rail transfer into rank 2 next to a copy on rank
    /// `copier`, issued after the transfer or independent of it.
    fn transfer_and_copy(copier: u32, after_transfer: bool) -> RunSummary {
        let len = 1 << 20;
        let mut b = ScheduleBuilder::new(ProcGrid::new(2, 2), "overlap");
        let s = b.private_buf(RankId(0), len, "s");
        let d = b.private_buf(RankId(2), len, "d");
        let p = b.private_buf(RankId(copier), len, "p");
        let q = b.private_buf(RankId(copier), len, "q");
        let t = b.transfer(
            RankId(0),
            RankId(2),
            Loc::new(s, 0),
            Loc::new(d, 0),
            len,
            Channel::AllRails,
            &[],
            0,
        );
        let deps = if after_transfer { vec![t] } else { vec![] };
        let (p, q) = (Loc::new(p, 0), Loc::new(q, 0));
        b.copy(RankId(copier), p, q, len, &deps, 1);
        let mut sp = SummaryProbe::new();
        let sim = Simulator::new(ClusterSpec::thor()).unwrap();
        sim.run_probed(&b.finish().freeze(), &mut sp).unwrap();
        sp.finish()
    }

    #[test]
    fn breakdown_attributes_kinds() {
        let r = transfer_and_copy(2, true);
        assert!(r.net_busy > 0.0 && r.cpu_busy > 0.0);
        // Sequential dependency → no overlap.
        assert_eq!(r.net_cpu_overlap, 0.0);
        assert_eq!(r.overlap_fraction(), 0.0);
        assert!(r.makespan >= r.net_busy + r.cpu_busy - 1e-12);
    }

    #[test]
    fn independent_ops_overlap() {
        // An independent copy elsewhere hides most of the network time.
        let r = transfer_and_copy(1, false);
        assert!(r.net_cpu_overlap > 0.0);
        assert!(r.overlap_fraction() > 0.5);
    }
}
