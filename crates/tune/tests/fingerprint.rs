//! `FrozenSchedule::fingerprint` keys the campaign runner's shared
//! simulations, so on the schedules the tuner really prices it must merge
//! exactly the structurally equal ones: equal fingerprints for schedules
//! with the same grid, buffers, ops, successor rows and release delays,
//! and different fingerprints for any two that differ.

use mha_sched::{FrozenSchedule, OpId};
use mha_simnet::ClusterSpec;
use mha_tune::search::{down_rails, proxy_grid};
use mha_tune::{build, candidates, reduced_points};

/// Everything execution observes about `a` and `b` is equal: what the
/// fingerprint covers, and nothing it leaves out (the schedule name,
/// buffer labels, op markers).
fn same_structure(a: &FrozenSchedule, b: &FrozenSchedule) -> bool {
    let buffer = |d: &mha_sched::BufferDecl| (d.kind, d.len, d.home_socket);
    let release = |s: &FrozenSchedule, i: usize| s.release_of(OpId::from(i)).to_bits();
    a.grid() == b.grid()
        && a.buffers()
            .iter()
            .map(buffer)
            .eq(b.buffers().iter().map(buffer))
        && a.ops()
            .iter()
            .map(|o| (&o.kind, o.step))
            .eq(b.ops().iter().map(|o| (&o.kind, o.step)))
        && (0..a.n_ops()).all(|i| {
            let op = u32::try_from(i).unwrap();
            a.succs(op) == b.succs(op) && release(a, i) == release(b, i)
        })
}

#[test]
fn fingerprints_merge_exactly_the_structurally_equal_candidates() {
    let spec = ClusterSpec::thor();
    for p in reduced_points(&spec) {
        let down = down_rails(p.rails_up, spec.rails);
        for grid in [proxy_grid(p.grid), p.grid] {
            let at = format!("{grid:?} at {} B, {} rails up", p.msg, p.rails_up);
            // One representative per structure seen so far, with its
            // fingerprint; representatives differ pairwise.
            let mut classes: Vec<(u64, FrozenSchedule)> = Vec::new();
            let pool: Vec<_> = candidates(p.grid, &down)
                .into_iter()
                .filter(|c| c.valid_for(grid))
                .collect();
            for c in &pool {
                let s = build(c, grid, p.msg, &c.effective_spec(&spec))
                    .unwrap()
                    .sched;
                let fp = s.fingerprint().0;
                match classes.iter().find(|(_, r)| same_structure(r, &s)) {
                    Some(&(want, _)) => {
                        assert_eq!(fp, want, "{at}: {} splits from its equal", c.to_kv());
                    }
                    None => {
                        assert!(
                            classes.iter().all(|&(f, _)| f != fp),
                            "{at}: {} merges with a different schedule",
                            c.to_kv()
                        );
                        classes.push((fp, s));
                    }
                }
            }
            // Both directions must be exercised: some candidates share a
            // schedule, and some do not.
            assert!(
                1 < classes.len() && classes.len() < pool.len(),
                "{at}: {} structures among {} candidates",
                classes.len(),
                pool.len()
            );
        }
    }
}
