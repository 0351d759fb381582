//! `Sim` jobs that key alike share one simulation.
//!
//! The campaign runner keys each `Sim` job by its schedule's fingerprint,
//! the spec as the schedule sees it and its fault timeline, and simulates
//! each key once. The sharing must not be visible in the report: every row
//! equals, bit for bit, the row of its point priced alone, under its own
//! label, at any pool width and repetition count. Jobs that would simulate
//! differently (another timeline, a stripe override a transfer crosses)
//! must not share, and the report's simulation count must be exact.

use mha_bench::campaign::{run_campaign, CampaignConfig, CampaignPoint, CampaignReport};
use mha_collectives::{build, AlgoConfig};
use mha_sched::{Channel, FrozenSchedule, OpKind, ProcGrid};
use mha_simnet::{ClusterSpec, FaultSpec};

const REPS: u32 = 3;

/// The tuned-default MHA-inter Allgather on 2×4 at `msg` bytes: striped
/// `AllRails` transfers, so a stripe override can move its simulation.
fn schedule(spec: &ClusterSpec, msg: usize) -> FrozenSchedule {
    build(&AlgoConfig::default(), ProcGrid::new(2, 4), msg, spec)
        .unwrap()
        .sched
}

/// The smallest and largest `AllRails` transfer lengths of `sch`.
fn all_rails_span(sch: &FrozenSchedule) -> (usize, usize) {
    let lens = || {
        sch.ops().iter().filter_map(|op| match op.kind {
            OpKind::Transfer {
                len,
                channel: Channel::AllRails,
                ..
            } => Some(len as usize),
            _ => None,
        })
    };
    let min = lens()
        .min()
        .expect("MHA-inter stripes its inter-node transfers");
    (min, lens().max().unwrap())
}

fn point(
    label: &str,
    spec: &ClusterSpec,
    faults: Option<FaultSpec>,
    sched: &FrozenSchedule,
) -> CampaignPoint {
    let sched = sched.clone();
    CampaignPoint::sim_faulty(label, spec.clone(), faults, move || Ok(sched.clone()))
}

/// The campaign, and how many distinct simulations it needs.
fn points() -> (Vec<CampaignPoint>, usize) {
    let thor = ClusterSpec::thor();
    let s = schedule(&thor, 64 * 1024);
    let other = schedule(&thor, 16 * 1024);
    let (smallest, largest) = all_rails_span(&s);
    assert!(thor.stripes(smallest), "every transfer stripes on Thor");
    // One byte above the largest transfer: no transfer stripes, so the
    // engine sees another spec.
    let crossed = ClusterSpec {
        stripe_threshold: largest + 1,
        ..thor.clone()
    };
    assert!(!crossed.stripes(largest));
    // One byte above Thor's threshold, still below every transfer: no
    // decision moves, so the simulation is the same.
    let uncrossed = ClusterSpec {
        stripe_threshold: thor.stripe_threshold + 1,
        ..thor.clone()
    };
    assert!(uncrossed.stripe_threshold <= smallest);
    let rail_down = Some(FaultSpec::rail_down_at(1, 0.0));
    let empty = Some(FaultSpec::new(1e-4));
    let points = vec![
        point("a", &thor, None, &s),
        point("b", &thor, None, &s),
        point("faulty", &thor, rail_down.clone(), &s),
        point("other", &thor, None, &other),
        point("crossed", &crossed, None, &s),
        point("empty-timeline", &thor, empty, &s),
        point("uncrossed", &uncrossed, None, &s),
        point("c", &thor, None, &s),
        point("faulty-again", &thor, rail_down, &s),
    ];
    // {a, b, empty-timeline, uncrossed, c}, {faulty, faulty-again},
    // {other}, {crossed}.
    (points, 4)
}

fn bits(report: &CampaignReport, job: usize) -> Vec<u64> {
    report.results[job].rows[0]
        .values
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn shared_simulations_are_invisible_in_the_report() {
    let (points, distinct) = points();
    let alone: Vec<CampaignReport> = points
        .iter()
        .map(|p| {
            let cfg = CampaignConfig::default().with_workers(1);
            run_campaign(std::slice::from_ref(p), &cfg).unwrap()
        })
        .collect();
    assert!(alone.iter().all(|r| r.simulations == 1));
    let value = |label: &str| {
        let i = points.iter().position(|p| p.label == label).unwrap();
        bits(&alone[i], 0)
    };
    // The variants that must not share do simulate differently.
    assert_ne!(value("a"), value("faulty"), "the rail fault must cost time");
    assert_ne!(
        value("a"),
        value("crossed"),
        "the override must move a stripe"
    );
    assert_ne!(value("a"), value("other"));

    for workers in [1, 2, 8] {
        let cfg = CampaignConfig {
            reps: REPS,
            ..CampaignConfig::default().with_workers(workers)
        };
        let report = run_campaign(&points, &cfg).unwrap();
        assert_eq!(report.simulations, distinct, "{workers} workers");
        assert_eq!(report.results.len(), points.len() * REPS as usize);
        for (job, r) in report.results.iter().enumerate() {
            let p = &points[r.point];
            assert_eq!((r.point, r.rep), (job / REPS as usize, job as u32 % REPS));
            assert_eq!(r.rows.len(), 1);
            assert_eq!(r.rows[0].label, p.label, "{workers} workers");
            assert_eq!(
                bits(&report, job),
                bits(&alone[r.point], 0),
                "{workers} workers: {} rep {}",
                p.label,
                r.rep
            );
        }
    }
}

#[test]
fn a_failing_build_names_its_own_point() {
    // The failing point keys nothing; the points around it share.
    let thor = ClusterSpec::thor();
    let s = schedule(&thor, 4096);
    for workers in [1, 2, 8] {
        let points = vec![
            point("first", &thor, None, &s),
            CampaignPoint::sim("broken", thor.clone(), || Err("no schedule".into())),
            point("second", &thor, None, &s),
        ];
        let cfg = CampaignConfig {
            reps: REPS,
            ..CampaignConfig::default().with_workers(workers)
        };
        let err = run_campaign(&points, &cfg).unwrap_err();
        assert!(
            err.contains("point 1 [broken]") && err.contains("no schedule"),
            "{workers} workers: {err}"
        );
        let ok = [
            point("first", &thor, None, &s),
            point("second", &thor, None, &s),
        ];
        assert_eq!(run_campaign(&ok, &cfg).unwrap().simulations, 1);
    }
}
