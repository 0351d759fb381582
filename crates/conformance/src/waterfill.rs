//! The pinned engine oracle: 120 random collective schedules, a third of
//! them under random rail-fault timelines, each simulated once and
//! compared against a committed per-case pin.
//!
//! Each case's observables — makespan, event count, every per-op
//! completion time and every per-resource byte total, as bit patterns, or
//! the error it failed with — fold into one `u64` (`fingerprint`). The
//! `PINS` table was certified at commit 572bd33, the last to carry a
//! second, independent engine (binary-heap queue, every component
//! re-solved, no memo): there both engines produced these exact bits on
//! every case. The sweep is fixed — the four case families in turn from
//! one seeded stream, every third case faulted — so the table pins the
//! engine's whole event loop, including the stall/retry/backoff paths.
//!
//! The pieces the engine is built from are refereed independently: the
//! memoized filler against the reference solver per component (the
//! `mha-simnet` `waterfill_eq` tests) and the calendar queue against a
//! sorted-set model (its unit tests).

use std::fmt;

use mha_simnet::{ClusterSpec, FaultSpec, SimError, SimResult, Simulator};
use rand::{rngs::StdRng, Rng};

use crate::cases::{sample_case, Case, Family};
use crate::runner::Oracle;

/// Per-case `fingerprint`s, in sweep order.
#[rustfmt::skip]
const PINS: [u64; 120] = [
    0x96bc_4137_62ff_3f28, 0x6fbc_3013_54c5_591d, 0x0ed9_1d59_21a5_24dc, 0x95d2_28f0_d1c4_a23b,
    0x96bc_4137_62ff_3f28, 0xc738_0725_a733_514b, 0x5f62_30a0_a0ce_1a23, 0xf89a_6ed4_41f0_9e30,
    0x32d1_c9b3_883e_b6ce, 0x15b3_b899_a5ec_8eb9, 0x640e_70fa_8c67_56e2, 0x5ca8_a760_e7d8_5070,
    0x4a0f_1107_8770_f3f5, 0x2eb5_357a_f08a_c6eb, 0x95d7_a0cf_9142_26e5, 0xcd79_591d_9dba_88b8,
    0xe524_f5dc_04d6_2cc3, 0x9a7c_f74e_f715_d9fe, 0x1812_c5f6_f43e_7eeb, 0xc909_7305_9441_7478,
    0xa5be_969c_c82e_2f79, 0x9651_981c_3ef1_cc43, 0xe592_c012_945b_b08a, 0xc8e4_f81f_90eb_3f44,
    0x938d_848a_2e05_5dd1, 0x2f49_8167_de01_dd81, 0x1058_29b0_4e56_0bbd, 0x4245_ced7_ce55_5f48,
    0x96bc_4137_62ff_3f28, 0x1c47_871f_821e_ac88, 0xde22_43e8_92cc_e4c5, 0x6de3_8da3_aa6c_972e,
    0x8dff_b21c_cbf2_2c88, 0x407e_235c_b323_89d9, 0xd5d2_1b84_25a0_9a55, 0x0dc6_0cff_f4e1_62c2,
    0xb6c6_215b_f665_e981, 0xc090_774f_823e_a339, 0xb0e1_868b_651b_6009, 0x50f8_e1a2_06e8_3990,
    0x7eb8_914d_42ec_ab6b, 0x2888_b9b0_4cdb_e7e3, 0x579d_dbf8_581e_c9c4, 0x6e50_2746_de2a_9573,
    0xa5dd_6510_8bc0_9b49, 0x917b_c717_5902_a4dd, 0x6340_938a_8460_1fe3, 0x7445_8969_5609_c7eb,
    0xe524_f5dc_04d6_2cc3, 0x40bc_0a91_ae8d_ac5c, 0x46d0_2d35_9feb_5ada, 0xe80d_2cdb_1ebe_fc0f,
    0x3e36_eaf7_b440_d431, 0x31f5_2cad_19be_0271, 0xa3c2_6a5c_d137_e007, 0xec00_6043_dc06_46b9,
    0x25f8_3a5a_50cc_6ec2, 0xe2f7_6b6c_3c7b_ba21, 0x8592_a96d_3774_2128, 0x6946_5566_a081_76cb,
    0xc042_7035_1bc3_38a9, 0xa9ea_7838_aa1e_b8a2, 0xa338_8286_9b63_1d35, 0x9e6e_5434_f972_4f1d,
    0xe5ef_f0be_66c5_a340, 0x979d_af6f_2561_7532, 0x47b4_26ef_7e48_ab58, 0xfcbe_59eb_1a7a_7197,
    0x97fb_9db8_22a2_3ffc, 0xd500_25b6_5e9e_fd42, 0x2fa4_14e2_e4fe_ec67, 0xc4c4_43c8_69dc_9c81,
    0x1ff6_92cf_ff15_c5b2, 0x2916_3f25_3189_149f, 0xbf6d_a582_ca4f_23f4, 0x1b2e_e87b_c82d_9fa9,
    0xe409_e55e_09a8_4ef4, 0xd591_ce27_eb68_9e06, 0xef53_97d6_f94a_cbac, 0x1d66_269d_8f42_26eb,
    0xed41_2544_b7c2_3bc3, 0xe399_8431_9157_a281, 0x2dd2_9992_5dda_6746, 0x06c3_43ad_9138_c67c,
    0xcd45_29a3_ecc1_425a, 0x9def_f0fa_6e69_37c9, 0xabda_a19f_9960_8e67, 0x8933_560a_07f5_67d8,
    0x5e3f_56a8_a468_e41e, 0xb479_1758_7872_b7fb, 0xd5d2_1b84_25a0_9a55, 0x5269_ce61_b67c_70e9,
    0xef6f_3678_399b_00a3, 0xf9dd_a47c_745d_f325, 0xb425_3bf6_fd56_cb47, 0x3dfc_92d5_8cb4_91f5,
    0xe32e_cd0f_9ffb_3c29, 0x1ffd_437c_6840_30eb, 0x3c55_201f_401c_90e8, 0xa756_3f7a_51d4_d2f6,
    0x1ca1_cf34_8858_a187, 0xc26e_5006_71de_82de, 0x1812_c5f6_f43e_7eeb, 0x0c15_665f_d3b2_d679,
    0xf8a0_1c32_0580_79a9, 0x6fbc_3013_54c5_591d, 0xd90a_a7f3_0968_9111, 0x8f4d_233e_64e9_58a9,
    0xf570_f4d1_14cf_1d01, 0xfaf9_d8fb_6035_516c, 0x4919_aea1_3012_b2d3, 0x2ebd_ecdf_0210_7087,
    0x9fd4_d99c_f142_e36e, 0x32bc_8760_26da_28ff, 0xf3ea_60f6_1a46_2e7e, 0xaded_beac_3e14_6a1f,
    0x06b4_9456_9055_5a6f, 0x4fde_61ce_e017_8671, 0xeae1_ec13_d9ce_c59f, 0x10f7_cfcf_d2d9_c883,
];

/// The pinned oracle. Its case count is fixed at `PINS.len()` (120) and
/// its stream at seed `0x7A7E2`; passing cases are tallied `"faulted"` or
/// `"fault-free"`.
pub struct Waterfill;

/// One pinned case: a schedule, its fault timeline (every third case) and
/// the fingerprint it must reproduce.
pub struct PinnedCase {
    case: Case,
    faults: Option<FaultSpec>,
    pin: u64,
}

impl fmt::Display for PinnedCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let faulted = if self.faults.is_some() {
            " [faulted]"
        } else {
            ""
        };
        write!(f, "{}{faulted}", self.case)
    }
}

impl Oracle for Waterfill {
    const NAME: &'static str = "waterfill";
    const SEED: u64 = 0x7A7E2;
    const DEFAULT_CASES: usize = PINS.len();
    type Case = PinnedCase;

    /// The four families in turn; every third case also draws a fault
    /// timeline so the stall/retry/backoff machinery is pinned too.
    fn sample(&self, rng: &mut StdRng, i: usize) -> PinnedCase {
        let case = sample_case(rng, Family::ALL[i % Family::ALL.len()]);
        let faults = (i % 3 == 2).then(|| sample_faults(rng, ClusterSpec::thor().rails));
        PinnedCase {
            case,
            faults,
            pin: PINS[i],
        }
    }

    fn check(&self, pc: &PinnedCase) -> Result<&'static str, String> {
        let spec = ClusterSpec::thor();
        let built = pc
            .case
            .build(&spec)
            .map_err(|e| format!("build failed: {e}"))?;
        let (sim, tag) = match &pc.faults {
            Some(f) => (Simulator::with_faults(spec, f.clone()), "faulted"),
            None => (Simulator::new(spec), "fault-free"),
        };
        let sim = sim.map_err(|e| format!("simulator: {e}"))?;
        let got = fingerprint(&sim.run(&built.sched));
        if got != pc.pin {
            return Err(format!("fingerprint {got:#018x}, pinned {:#018x}", pc.pin));
        }
        Ok(tag)
    }
}

/// Folds one run's observables into a word: makespan and event count,
/// then the length and bit pattern of every `op_end` and
/// `resource_bytes` entry (FNV-1a over 64-bit words), or the error's
/// message. Any single changed word changes the fold.
fn fingerprint(run: &Result<SimResult, SimError>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    match run {
        Ok(r) => {
            mix(r.makespan.to_bits());
            mix(r.events);
            mix(r.op_end.len() as u64);
            r.op_end.iter().for_each(|x| mix(x.to_bits()));
            mix(r.resource_bytes.len() as u64);
            r.resource_bytes.iter().for_each(|x| mix(x.to_bits()));
        }
        Err(e) => e.to_string().bytes().for_each(|b| mix(u64::from(b))),
    }
    h
}

/// A random fault timeline against a `rails`-rail cluster: one rail goes
/// down early (sometimes at t = 0) and usually comes back, with a short
/// retry timeout so stall/retry/backoff all fire within the run.
fn sample_faults(rng: &mut StdRng, rails: u8) -> FaultSpec {
    let rail = rng.gen_range(0..rails);
    let t_down = if rng.gen_range(0..3u32) == 0 {
        0.0
    } else {
        rng.gen_range(1.0e-6..50.0e-6)
    };
    let mut faults = if rng.gen_range(0..4u32) == 0 {
        FaultSpec::rail_down_at(rail, t_down) // stays down for the run
    } else {
        FaultSpec::flap(rail, t_down, t_down + rng.gen_range(10.0e-6..200.0e-6))
    };
    faults.retry_timeout = rng.gen_range(5.0e-6..50.0e-6);
    faults
}
