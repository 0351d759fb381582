//! The paper's headline claims, asserted against the reproduction stack.
//! Each test names the figure/section it covers; EXPERIMENTS.md records the
//! quantitative comparison.

use mha::apps::Contestant;
use mha::collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha::collectives::{build, select_inter_algo, AlgoConfig, Library};
use mha::sched::ProcGrid;
use mha::simnet::{pt2pt_bandwidth_mbps, pt2pt_latency_us, ClusterSpec, Placement, Simulator};

fn thor() -> ClusterSpec {
    ClusterSpec::thor()
}

/// Figure 1: one HCA ≈ intra-node bandwidth; two HCAs double it.
#[test]
fn fig1_second_hca_doubles_inter_node_bandwidth() {
    let two = Simulator::new(thor()).unwrap();
    let one = Simulator::new(ClusterSpec::thor_single_rail()).unwrap();
    let m = 4 << 20;
    let intra = pt2pt_bandwidth_mbps(&two, Placement::IntraNode, m, 64).unwrap();
    let inter1 = pt2pt_bandwidth_mbps(&one, Placement::InterNode, m, 64).unwrap();
    let inter2 = pt2pt_bandwidth_mbps(&two, Placement::InterNode, m, 64).unwrap();
    assert!(
        (intra / inter1 - 1.0).abs() < 0.2,
        "intra {intra} vs 1HCA {inter1}"
    );
    assert!(inter2 / inter1 > 1.85, "2HCA {inter2} vs 1HCA {inter1}");
}

/// Figure 3: striping halves large-message latency.
#[test]
fn fig3_striping_halves_large_message_latency() {
    let two = Simulator::new(thor()).unwrap();
    let one = Simulator::new(ClusterSpec::thor_single_rail()).unwrap();
    let m = 4 << 20;
    let ratio = pt2pt_latency_us(&one, Placement::InterNode, m).unwrap()
        / pt2pt_latency_us(&two, Placement::InterNode, m).unwrap();
    assert!(ratio > 1.8, "ratio {ratio}");
}

/// Section 5.2 / Figure 11: MHA-intra beats both library surrogates, and
/// the benefit decreases as processes grow (fixed HCA capacity).
#[test]
fn fig11_intra_gains_beat_libraries_and_decay() {
    let spec = thor();
    let msg = 4 << 20;
    let mut prev_gain = f64::INFINITY;
    for ppn in [2u32, 4, 8, 16] {
        let grid = ProcGrid::single_node(ppn);
        let hpcx = Contestant::Library(Library::HpcX)
            .allgather_latency_us(grid, msg, &spec)
            .unwrap();
        let mva = Contestant::Library(Library::Mvapich2X)
            .allgather_latency_us(grid, msg, &spec)
            .unwrap();
        let mha = Contestant::MhaTuned
            .allgather_latency_us(grid, msg, &spec)
            .unwrap();
        assert!(mha < hpcx && mha < mva, "ppn={ppn}");
        let gain = 1.0 - mha / hpcx.min(mva);
        assert!(
            gain <= prev_gain + 0.02,
            "gain should not grow with ppn: {gain} after {prev_gain}"
        );
        prev_gain = gain;
    }
}

/// Section 5.3 / Figures 12–14: MHA wins inter-node at every size, and the
/// margin versus HPC-X grows with node count.
#[test]
fn fig12_14_inter_gains_grow_with_scale() {
    let spec = thor();
    let msg = 16 * 1024;
    let mut prev_gain = 0.0;
    for nodes in [2u32, 4, 8] {
        let grid = ProcGrid::new(nodes, 8);
        let hpcx = Contestant::Library(Library::HpcX)
            .allgather_latency_us(grid, msg, &spec)
            .unwrap();
        let mha = Contestant::MhaTuned
            .allgather_latency_us(grid, msg, &spec)
            .unwrap();
        assert!(mha < hpcx, "nodes={nodes}");
        let gain = 1.0 - mha / hpcx;
        assert!(
            gain >= prev_gain - 0.05,
            "gain should grow with nodes: {gain} after {prev_gain}"
        );
        prev_gain = gain;
    }
    assert!(
        prev_gain > 0.25,
        "headline-scale gain too small: {prev_gain}"
    );
}

/// Figure 8: RD wins phase 2 for small messages, Ring for large; the tuner
/// finds the crossover.
#[test]
fn fig8_ring_rd_crossover_exists() {
    let spec = thor();
    let grid = ProcGrid::new(8, 8);
    let small = select_inter_algo(grid, 64, Offload::Auto, &spec).unwrap();
    assert_eq!(small.algo, InterAlgo::RecursiveDoubling);
    let large = select_inter_algo(grid, 512 * 1024, Offload::Auto, &spec).unwrap();
    assert_eq!(large.algo, InterAlgo::Ring);
}

/// Section 3.2 / Figure 6: overlapping phases 2 and 3 beats running them
/// sequentially (the Kandalla-style behaviour).
#[test]
fn fig6_overlap_beats_sequential_phases() {
    let spec = thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    let grid = ProcGrid::new(8, 8);
    let msg = 128 * 1024;
    let overlapped = build(&AlgoConfig::default(), grid, msg, &spec).unwrap();
    let sequential = build(
        &AlgoConfig::mha_inter(MhaInterConfig {
            overlap: false,
            ..MhaInterConfig::default()
        }),
        grid,
        msg,
        &spec,
    )
    .unwrap();
    let t_o = sim.run(&overlapped.sched).unwrap().latency_us();
    let t_s = sim.run(&sequential.sched).unwrap().latency_us();
    assert!(t_o < t_s * 0.95, "overlap {t_o} vs sequential {t_s}");
}

/// Section 5.4 / Figure 15: the MHA Allgather phase accelerates
/// Ring-Allreduce.
#[test]
fn fig15_allreduce_improves_with_mha_phase() {
    let spec = thor();
    let grid = ProcGrid::new(8, 8);
    let elems = grid.nranks() as usize * 16 * 1024;
    let flat = Contestant::Library(Library::HpcX)
        .allreduce_latency_us(grid, elems, &spec)
        .unwrap();
    let mha = Contestant::MhaTuned
        .allreduce_latency_us(grid, elems, &spec)
        .unwrap();
    assert!(mha < flat, "mha {mha} vs flat {flat}");
}

/// Section 5.5 / Figure 16: matvec GFLOP/s improves under MHA, more so at
/// scale (strong scaling).
#[test]
fn fig16_matvec_speedup_at_scale() {
    use mha::apps::matvec::{run_matvec, MatvecConfig};
    let spec = thor();
    let cfg = MatvecConfig::strong_scaling(ProcGrid::new(8, 32));
    let mha = run_matvec(cfg, Contestant::MhaTuned, &spec).unwrap();
    let hpcx = run_matvec(cfg, Contestant::Library(Library::HpcX), &spec).unwrap();
    let speedup = mha.gflops / hpcx.gflops;
    assert!(speedup > 1.2, "speedup {speedup}");
}

/// Section 5.6 / Figure 17: training throughput improves by a modest
/// percentage that persists across model sizes.
#[test]
fn fig17_dl_improvement_direction() {
    use mha::apps::deep_learning::{run_training_step, DlConfig, RESNET152, RESNET50};
    let spec = thor();
    let grid = ProcGrid::new(8, 16);
    for model in [RESNET50, RESNET152] {
        let cfg = DlConfig {
            grid,
            model,
            batch: 16,
        };
        let mva = run_training_step(cfg, Contestant::Library(Library::Mvapich2X), &spec).unwrap();
        let mha = run_training_step(cfg, Contestant::MhaTuned, &spec).unwrap();
        assert!(mha.images_per_sec > mva.images_per_sec, "{}", model.name);
    }
}

/// Section 4.3 / Figures 9–10: the analytic models track the simulator.
#[test]
fn fig9_10_models_track_measurements() {
    let spec = thor();
    let p = mha::model::calibrate(&spec).unwrap();
    let sizes = mha::simnet::size_sweep(256 * 1024, 4 << 20);
    let intra = mha::model::validate_intra(&spec, &p, 4, &sizes).unwrap();
    assert!(mha::model::mean_rel_error(&intra) < 0.25);
    let sizes = mha::simnet::size_sweep(4096, 256 * 1024);
    let inter = mha::model::validate_inter(&spec, &p, 8, 8, &sizes).unwrap();
    assert!(mha::model::mean_rel_error(&inter) < 0.5);
}
