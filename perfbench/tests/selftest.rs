//! Self-tests of the harness on test-sized variants of the four workloads.

use mha_bench::campaign::CampaignConfig;
use mha_bench::traffic::TrafficSweep;
use mha_collectives::TunedTable;
use mha_perfbench::exec::Exec;
use mha_perfbench::harness::{per_layer, run, wall_s, Plan};
use mha_perfbench::ring::Ring;
use mha_perfbench::traffic::Traffic;
use mha_perfbench::tune::Tune;
use mha_perfbench::{pins, Output, Workload};
use mha_sched::ProcGrid;
use mha_simnet::ClusterSpec;
use mha_tune::{run_search, TunePoint};

/// A healthy and a degraded tuning point on a small grid.
fn tune_points() -> Vec<TunePoint> {
    let grid = ProcGrid::new(4, 4);
    vec![
        TunePoint {
            grid,
            msg: 1024,
            rails_up: ClusterSpec::thor().rails,
        },
        TunePoint {
            grid,
            msg: 16 * 1024,
            rails_up: 1,
        },
    ]
}

fn small() -> Vec<Box<dyn Workload>> {
    let sweep = TrafficSweep {
        jobs: 6,
        ..TrafficSweep::thor_default()
    };
    vec![
        Box::new(Ring::new(8, 4096).unwrap()),
        Box::new(Traffic::new(sweep, 2.0e4, 7, 3)),
        Box::new(Tune::new(ClusterSpec::thor(), tune_points(), 1, 0)),
        Box::new(Exec::new(ProcGrid::new(2, 4), 256, 2).unwrap()),
    ]
}

fn plan(trace: bool, pin_override: Option<Output>) -> Plan {
    Plan {
        seconds: 0.0,
        trace,
        pin_override,
    }
}

#[test]
fn a_wrong_pinned_reference_fails_every_rep() {
    let wrong = Output {
        makespan_bits: 1,
        digest: 2,
        events: 3,
    };
    for mut w in small() {
        let r = run(&mut w, &plan(false, Some(wrong)));
        assert!(r.attempted >= 3, "{}", w.describe());
        assert_eq!(r.error_rate(), 1.0, "{}: {:?}", w.describe(), r.notes);
        assert!(!r.correct());
    }
}

#[test]
fn unpinned_inputs_are_checked_against_the_traced_recomposition() {
    for mut w in small() {
        let r = run(&mut w, &plan(false, None));
        assert!(r.correct(), "{}: {:?}", w.describe(), r.notes);
        assert_eq!(r.error_rate(), 0.0);
    }
}

#[test]
fn traced_runs_reproduce_untraced_outputs_and_fill_the_split() {
    for mut w in small() {
        let r = run(&mut w, &plan(true, None));
        assert!(r.correct(), "{}: {:?}", w.describe(), r.notes);
        let layers = per_layer(&r);
        let get = |name: &str| layers.iter().find(|l| l.0 == name).map(|l| l.2);
        assert!(get("trace.wall_s").unwrap() > 0.0, "{}", w.describe());
        assert!(get("sched.ops").unwrap() > 0.0, "{}", w.describe());
    }
}

#[test]
fn ring_event_pin_matches_the_recorded_trajectory() {
    // `results/BENCH_waterfill2.json` records this count for the same run.
    assert_eq!(pins::RING_1024.events, 3_144_704);
}

#[test]
fn a_search_split_into_points_tunes_the_whole_table_and_sums_its_parts() {
    let spec = ClusterSpec::thor();
    let points = tune_points();
    let cfg = CampaignConfig {
        workers: 1,
        cache: true,
        reps: 1,
        seed: 0,
    };
    let whole = run_search(&points, &spec, &cfg).unwrap().table;
    let mut joined = TunedTable::new(spec.digest());
    for k in 0..points.len() {
        let part = run_search(&points[k..=k], &spec, &cfg).unwrap().table;
        for (key, c) in part.sorted_entries() {
            joined.insert(key, c.clone());
        }
    }
    assert_eq!(joined.digest(), whole.digest());

    let mut w: Box<dyn Workload> = Box::new(Tune::new(spec, points, 1, 0));
    let r = run(&mut w, &plan(false, None));
    assert!(r.correct(), "{:?}", r.notes);
    let fastest = |k: u64| {
        r.walls
            .iter()
            .filter(|&&(key, _)| key == k)
            .map(|&(_, t)| t)
            .fold(f64::INFINITY, f64::min)
    };
    assert_eq!(wall_s(&r), fastest(0) + fastest(1));

    let r = run(&mut w, &plan(true, None));
    assert!(r.correct(), "{:?}", r.notes);
    let layers = per_layer(&r);
    let get = |name: &str| layers.iter().find(|l| l.0 == name).map(|l| l.2);
    assert_eq!(get("tune.points"), Some(2.0));
}
