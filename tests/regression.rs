//! Regression pins: a handful of exact simulated numbers from the
//! committed calibration (`ClusterSpec::thor()`). The simulator is
//! deterministic, so these hold to float precision; if a model change
//! moves them, EXPERIMENTS.md must be regenerated and re-audited.

use mha::collectives::{build, AlgoConfig, Family};
use mha::sched::ProcGrid;
use mha::simnet::{pt2pt_bandwidth_mbps, ClusterSpec, Placement, Simulator};

fn close(actual: f64, pinned: f64) {
    assert!(
        (actual - pinned).abs() <= 1e-6 * pinned.abs(),
        "regression: {actual} vs pinned {pinned}"
    );
}

#[test]
fn pinned_pt2pt_bandwidths() {
    let two = Simulator::new(ClusterSpec::thor()).unwrap();
    let one = Simulator::new(ClusterSpec::thor_single_rail()).unwrap();
    let m = 4 << 20;
    close(
        pt2pt_bandwidth_mbps(&two, Placement::IntraNode, m, 64).unwrap(),
        12999.503850091312,
    );
    close(
        pt2pt_bandwidth_mbps(&one, Placement::InterNode, m, 64).unwrap(),
        11998.067713078756,
    );
    close(
        pt2pt_bandwidth_mbps(&two, Placement::InterNode, m, 64).unwrap(),
        23992.279260593234,
    );
}

#[test]
fn pinned_collective_latencies() {
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();

    // Figure 2's configuration: flat ring, 2 nodes x 2 PPN, 1 MB.
    let ring = build(
        &AlgoConfig::flat(Family::Ring),
        ProcGrid::new(2, 2),
        1 << 20,
        &spec,
    )
    .unwrap();
    close(sim.run(&ring.sched).unwrap().latency_us(), 369.334965034965);

    // The quickstart configuration: MHA-inter ring, 4 nodes x 8 PPN, 64 KB.
    let mha = build(
        &AlgoConfig::default(),
        ProcGrid::new(4, 8),
        64 * 1024,
        &spec,
    )
    .unwrap();
    close(sim.run(&mha.sched).unwrap().latency_us(), 521.4648937728938);
}

#[test]
fn pinned_model_calibration() {
    let spec = ClusterSpec::thor();
    let p = mha::model::calibrate(&spec).unwrap();
    close(p.bw_c, spec.cma_bw);
    close(p.bw_h, spec.rail_bw);
    close(p.bw_l, spec.copy_bw);
    // Eq. 1 decisions are part of the published figures.
    assert_eq!(mha::model::optimal_offload(&p, 4, 4 << 20, false), 1);
    assert_eq!(mha::model::optimal_offload(&p, 8, 1 << 20, false), 1);
}
