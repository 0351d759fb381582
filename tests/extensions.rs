//! Integration tests for the beyond-the-paper extensions: the 3-level
//! NUMA-aware design (Section 7 future work), the hierarchical Broadcast,
//! and the BPMF application.

use mha::collectives::mha::{build_mha_numa3, Numa3Config};
use mha::collectives::{build, build_binomial_bcast, build_mha_bcast, AlgoConfig};
use mha::exec::{verify_allgather, verify_bcast, Mode};
use mha::sched::{ProcGrid, RankId};
use mha::simnet::{ClusterSpec, NumaSpec, Simulator};

#[test]
fn numa3_full_pipeline_and_comparison() {
    let spec = ClusterSpec::thor_numa();
    let sim = Simulator::new(spec.clone()).unwrap();
    let grid = ProcGrid::new(4, 8);
    let msg = 64 * 1024;

    let aware = build_mha_numa3(grid, msg, Numa3Config::default(), &spec).unwrap();
    mha::sched::validate(&aware.sched, Some(spec.rails)).unwrap();
    assert!(mha::sched::check_races(&aware.sched).is_empty());
    verify_allgather(
        &aware.sched,
        &aware.send,
        &aware.recv,
        msg,
        Mode::Threaded(4),
    )
    .unwrap();

    let blind = build(&AlgoConfig::default(), grid, msg, &spec).unwrap();
    let t_aware = sim.run(&aware.sched).unwrap().latency_us();
    let t_blind = sim.run(&blind.sched).unwrap().latency_us();
    assert!(
        t_aware < t_blind,
        "NUMA-aware {t_aware} vs NUMA-blind {t_blind}"
    );
}

#[test]
fn numa_spec_does_not_perturb_non_numa_runs() {
    // The same schedule on thor() vs thor_numa() with all ranks on one
    // socket prices within the per-socket-memory difference only.
    let grid = ProcGrid::new(2, 4); // 2 sockets of 2 ranks per node
    let msg = 16 * 1024;
    let spec_plain = ClusterSpec::thor();
    let built = build(&AlgoConfig::default(), grid, msg, &spec_plain).unwrap();
    let t_plain = Simulator::new(spec_plain)
        .unwrap()
        .run(&built.sched)
        .unwrap()
        .latency_us();
    assert!(t_plain > 0.0);
    // The NUMA run of the *same* schedule is slower or equal — socket
    // memory is scarcer and some hops cross the interconnect.
    let spec_numa = ClusterSpec::thor_numa();
    let built_numa = build(&AlgoConfig::default(), grid, msg, &spec_numa).unwrap();
    let t_numa = Simulator::new(spec_numa)
        .unwrap()
        .run(&built_numa.sched)
        .unwrap()
        .latency_us();
    assert!(t_numa >= t_plain * 0.999, "{t_numa} vs {t_plain}");
}

#[test]
fn custom_numa_layouts_work() {
    // A 4-socket layout still produces correct collectives.
    let mut spec = ClusterSpec::thor_numa();
    spec.numa = Some(NumaSpec {
        sockets: 4,
        xsocket_bw: 5.0e9,
        xsocket_alpha: 0.2e-6,
    });
    let grid = ProcGrid::new(2, 8);
    let built = build_mha_numa3(grid, 1024, Numa3Config::default(), &spec).unwrap();
    verify_allgather(&built.sched, &built.send, &built.recv, 1024, Mode::Single).unwrap();
    Simulator::new(spec).unwrap().run(&built.sched).unwrap();
}

#[test]
fn bcast_full_pipeline_with_overlap_measurement() {
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    let grid = ProcGrid::new(4, 8);
    let msg = 4 << 20;
    let root = RankId(5); // non-leader root exercises the root-node path

    let mha = build_mha_bcast(grid, msg, root, 256 * 1024, &spec).unwrap();
    assert!(mha::sched::check_races(&mha.sched).is_empty());
    verify_bcast(&mha.sched, &mha.bufs, root.index(), msg, Mode::Threaded(4)).unwrap();

    let mut sp = mha::sched::SummaryProbe::new();
    let t_mha = sim.run_probed(&mha.sched, &mut sp).unwrap().latency_us();
    let overlap = sp.finish().overlap_fraction();
    // The segmented pipeline hides most network time under shm copies.
    assert!(overlap > 0.5, "overlap fraction {overlap}");

    let flat = build_binomial_bcast(grid, msg, root);
    verify_bcast(&flat.sched, &flat.bufs, root.index(), msg, Mode::Single).unwrap();
    let t_flat = sim.run(&flat.sched).unwrap().latency_us();
    assert!(t_mha < t_flat, "{t_mha} vs {t_flat}");
}

#[test]
fn bpmf_application_tracks_allgather_quality() {
    use mha::apps::bpmf::{run_bpmf_iteration, BpmfConfig};
    use mha::apps::Contestant;
    use mha::collectives::Library;
    let spec = ClusterSpec::thor();
    let cfg = BpmfConfig::movielens(ProcGrid::new(8, 32));
    let hpcx = run_bpmf_iteration(cfg, Contestant::Library(Library::HpcX), &spec).unwrap();
    let mha = run_bpmf_iteration(cfg, Contestant::MhaTuned, &spec).unwrap();
    assert!(mha.samples_per_sec > hpcx.samples_per_sec);
    assert!(mha.comm_fraction > 0.0 && mha.comm_fraction < 1.0);
}
