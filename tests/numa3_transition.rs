//! Transition pin for the numa3 → composer migration.
//!
//! The legacy hand-written 3-level emitter (`mha/numa3.rs`) was replaced by
//! the generic hierarchical composer. Before deleting it, every config below
//! was built with BOTH emitters and the op streams compared bit-for-bit;
//! the fingerprints here are that captured record. If a composer change
//! breaks one of these constants, the 3-level schedule shape changed — that
//! may be intentional, but it must be a conscious decision, because it also
//! invalidates golden latencies.
//!
//! The values are `FrozenSchedule::fingerprint`'s word-wise hash. They
//! replaced the byte-wise FNV values of the first capture when the
//! fingerprint changed construction; a copy of the byte-wise function
//! still returned all 15 old values on the same builds, so the schedules
//! themselves did not change.

use mha::collectives::mha::{build_mha_numa3, Numa3Config};
use mha::collectives::{build_composed, ComposePlan};
use mha::sched::{ProcGrid, Topology};
use mha::simnet::{ClusterSpec, NumaSpec};

/// (nodes, ppn, msg, offload_xsocket) → fingerprint of the schedule the
/// legacy emitter built on `ClusterSpec::thor_numa()` (2 sockets).
const PINNED: &[(u32, u32, usize, bool, u64)] = &[
    (1, 4, 24, true, 0x65b70aaca57a166e),
    (1, 8, 65536, true, 0xd149d67029873098),
    (2, 4, 24, true, 0xc495df8eddb33301),
    (2, 8, 16, true, 0xaeaa1ed746db2119),
    (3, 4, 512, true, 0x4d9d5e07538750a7),
    (4, 8, 4096, true, 0x3397d0fdc12246c8),
    (2, 16, 524288, true, 0x279b8a1f7c753b19),
    (1, 4, 24, false, 0x8f2468c4b2356157),
    (1, 8, 65536, false, 0xf9fc8bcf3a69f05c),
    (2, 4, 24, false, 0x46d5f9a4c872a9a7),
    (2, 8, 16, false, 0x1fbb6c602d247a59),
    (3, 4, 512, false, 0x3119469e5deb79c3),
    (4, 8, 4096, false, 0xcabcf04cd88ae4c3),
    (2, 16, 524288, false, 0x2f77f1410e0323ed),
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
    assert_eq!(built.sched.fingerprint().0, 0xf78098d6f313891b);
}
