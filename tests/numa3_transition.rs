//! Transition pin for the numa3 → composer migration.
//!
//! The legacy hand-written 3-level emitter (`mha/numa3.rs`) was replaced by
//! the generic hierarchical composer. Before deleting it, every config below
//! was built with BOTH emitters and the op streams compared bit-for-bit;
//! the fingerprints here are that captured record. If a composer change
//! breaks one of these constants, the 3-level schedule shape changed — that
//! may be intentional, but it must be a conscious decision, because it also
//! invalidates golden latencies.

use mha::collectives::mha::{build_mha_numa3, Numa3Config};
use mha::collectives::{build_composed, ComposePlan};
use mha::sched::{ProcGrid, Topology};
use mha::simnet::{ClusterSpec, NumaSpec};

/// (nodes, ppn, msg, offload_xsocket) → schedule fingerprint captured from
/// the legacy emitter on `ClusterSpec::thor_numa()` (2 sockets).
const PINNED: &[(u32, u32, usize, bool, u64)] = &[
    (1, 4, 24, true, 0x88b29f4f2aa3a942),
    (1, 8, 65536, true, 0x4e837924494b25a6),
    (2, 4, 24, true, 0x46d1105d3269448c),
    (2, 8, 16, true, 0x3a32fa54f1720734),
    (3, 4, 512, true, 0xced996a5b1a9623a),
    (4, 8, 4096, true, 0xbdbd9374aa81db05),
    (2, 16, 524288, true, 0xb0495c4b47d23919),
    (1, 4, 24, false, 0xfff98f1cdf3b2986),
    (1, 8, 65536, false, 0x332b83311c6f4f22),
    (2, 4, 24, false, 0xcf84306170d51858),
    (2, 8, 16, false, 0x6eaa0cb9ad6a63a8),
    (3, 4, 512, false, 0x444756bf708ac558),
    (4, 8, 4096, false, 0xc5ed48dd2390a135),
    (2, 16, 524288, false, 0x8a42a76f0017ee45),
];

#[test]
fn numa3_wrapper_matches_the_legacy_emitter_fingerprints() {
    let spec = ClusterSpec::thor_numa();
    for &(nodes, ppn, msg, offload, want) in PINNED {
        let built = build_mha_numa3(
            ProcGrid::new(nodes, ppn),
            msg,
            Numa3Config {
                offload_xsocket: offload,
            },
            &spec,
        )
        .unwrap();
        assert_eq!(
            built.sched.fingerprint().0,
            want,
            "fingerprint drift at nodes={nodes} ppn={ppn} msg={msg} offload={offload}"
        );
    }
}

#[test]
fn composed_three_level_matches_the_same_pins() {
    // The wrapper and a direct composer invocation must agree — the wrapper
    // adds nothing but the topology derivation and parameter checks.
    let spec = ClusterSpec::thor_numa();
    let sockets = spec.sockets();
    for &(nodes, ppn, msg, offload, want) in PINNED {
        let topo = Topology::three_level(nodes, sockets, ppn / sockets);
        let built = build_composed(&topo, msg, &ComposePlan::numa3(offload), &spec).unwrap();
        assert_eq!(
            built.sched.fingerprint().0,
            want,
            "composed fingerprint drift at nodes={nodes} ppn={ppn} msg={msg} offload={offload}"
        );
    }
}

#[test]
fn four_socket_custom_spec_pin() {
    // A non-thor layout exercises the socket-count-dependent paths: shm
    // homing, import fan-in width, and the distribute segmentation.
    let spec = ClusterSpec {
        numa: Some(NumaSpec {
            sockets: 4,
            xsocket_bw: 5.0e9,
            xsocket_alpha: 0.2e-6,
        }),
        ..ClusterSpec::thor()
    };
    let built = build_mha_numa3(
        ProcGrid::new(2, 8),
        1024,
        Numa3Config {
            offload_xsocket: true,
        },
        &spec,
    )
    .unwrap();
    assert_eq!(built.sched.fingerprint().0, 0x9683cb958b966de6);
}
