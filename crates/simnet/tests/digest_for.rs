//! `ClusterSpec::digest_for` folds the stripe threshold down to what a
//! schedule can observe of it: specs that differ only in the threshold
//! digest equal for `sch` exactly when every `AllRails` transfer of `sch`
//! gets the same `stripes()` answer, and then they simulate `sch` bit for
//! bit alike. `digest()` itself is unchanged.

use mha_sched::{Channel, FrozenSchedule, Loc, OpKind, ProcGrid, RankId, ScheduleBuilder};
use mha_simnet::{ClusterSpec, Simulator};

/// Two nodes trading `AllRails` messages of 4, 16 and 64 KiB, with a
/// concurrent 8 KiB single-rail transfer that no threshold may affect.
fn mixed_schedule() -> FrozenSchedule {
    let grid = ProcGrid::new(2, 1);
    let mut b = ScheduleBuilder::new(grid, "digest-for");
    let (r0, r1) = (RankId(0), RankId(1));
    let s = b.private_buf(r0, 1 << 17, "s");
    let d = b.private_buf(r1, 1 << 17, "d");
    let mut prev = Vec::new();
    for (i, len) in [4096usize, 16 * 1024, 64 * 1024].into_iter().enumerate() {
        let (src, dst, from, to) = if i % 2 == 0 {
            (r0, r1, s, d)
        } else {
            (r1, r0, d, s)
        };
        let t = b.transfer(
            src,
            dst,
            Loc::new(from, 0),
            Loc::new(to, 0),
            len,
            Channel::AllRails,
            &prev,
            0,
        );
        prev = vec![t];
    }
    b.transfer(
        r1,
        r0,
        Loc::new(d, 1 << 16),
        Loc::new(s, 1 << 16),
        8192,
        Channel::Rail(0),
        &[],
        0,
    );
    b.finish().freeze()
}

fn decisions(sch: &FrozenSchedule, spec: &ClusterSpec) -> Vec<bool> {
    sch.ops()
        .iter()
        .filter_map(|op| match op.kind {
            OpKind::Transfer {
                len,
                channel: Channel::AllRails,
                ..
            } => Some(spec.stripes(len as usize)),
            _ => None,
        })
        .collect()
}

/// Makespan, per-op end times and event count, as bits.
fn run_bits(sch: &FrozenSchedule, spec: &ClusterSpec) -> (u64, Vec<u64>, u64) {
    let r = Simulator::new(spec.clone()).unwrap().run(sch).unwrap();
    let ends = r.op_end.iter().map(|t| t.to_bits()).collect();
    (r.makespan.to_bits(), ends, r.events)
}

const THRESHOLDS: [usize; 11] = [
    1,
    4096,
    4097,
    8192,
    9000,
    16 * 1024,
    16 * 1024 + 1,
    64 * 1024,
    64 * 1024 + 1,
    1 << 20,
    usize::MAX,
];

#[test]
fn digest_for_is_equal_iff_the_stripe_decisions_are() {
    let sch = mixed_schedule();
    for base in [ClusterSpec::thor(), ClusterSpec::thor_single_rail()] {
        let specs: Vec<ClusterSpec> = THRESHOLDS
            .iter()
            .map(|&t| ClusterSpec {
                stripe_threshold: t,
                ..base.clone()
            })
            .collect();
        let runs: Vec<_> = specs.iter().map(|s| run_bits(&sch, s)).collect();
        for (i, a) in specs.iter().enumerate() {
            for (j, b) in specs.iter().enumerate() {
                let same = decisions(&sch, a) == decisions(&sch, b);
                let (ta, tb) = (a.stripe_threshold, b.stripe_threshold);
                assert_eq!(
                    a.digest_for(&sch) == b.digest_for(&sch),
                    same,
                    "{} rails, thresholds {ta} and {tb}",
                    base.rails
                );
                if same {
                    assert_eq!(runs[i], runs[j], "thresholds {ta} and {tb}");
                } else {
                    // Every decision the digest tells apart shows in the run.
                    assert_ne!(runs[i].0, runs[j].0, "thresholds {ta} and {tb}");
                }
                assert_eq!(a.digest() == b.digest(), i == j);
            }
        }
        let classes: std::collections::HashSet<u64> =
            specs.iter().map(|s| s.digest_for(&sch)).collect();
        // Four stripe patterns over the three lengths on two rails; a
        // single rail never stripes, so every threshold looks alike.
        assert_eq!(classes.len(), if base.rails > 1 { 4 } else { 1 });
    }
}

#[test]
fn digest_is_unchanged_and_digest_for_agrees_at_an_observed_threshold() {
    let thor = ClusterSpec::thor();
    // The spec header of the shipped tuning table.
    assert_eq!(thor.digest(), 0xb002c88f3b4fdf38);
    // Thor's 16 KiB threshold is itself the smallest striped length.
    assert_eq!(thor.digest_for(&mixed_schedule()), thor.digest());
}
