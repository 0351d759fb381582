//! Worker-count and cache-state independence of the campaign runner.
//!
//! Every golden paper-figure workload (the same 14 constants as the root
//! `golden_latencies` suite) goes through [`run_campaign`] at 1, 2 and 8
//! workers, cold- and warm-cache, and must land on the *bit-identical*
//! makespan the serial engine produces — the campaign pool is a pure
//! scheduling layer with zero numeric surface.

use mha_bench::campaign::{
    run_campaign, run_campaign_with, CampaignConfig, CampaignPoint, ConfigKey, ScheduleCache,
};
use mha_collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha_collectives::{build, AlgoConfig, Family};
use mha_sched::ProcGrid;
use mha_simnet::{ClusterSpec, Simulator};

struct Workload {
    name: &'static str,
    golden: f64,
    grid: ProcGrid,
    msg: usize,
    algo: AlgoConfig,
}

/// The `golden_dump` workload list with its captured constants.
fn workloads() -> Vec<Workload> {
    let auto_cfg = |inter| MhaInterConfig {
        inter,
        offload: Offload::Auto,
        overlap: true,
    };
    let w = |name, bits, grid, msg, algo| Workload {
        name,
        golden: f64::from_bits(bits),
        grid,
        msg,
        algo,
    };
    vec![
        w(
            "fig02/ring_2x2_1M",
            0x3f3834699899a5d2,
            ProcGrid::new(2, 2),
            1 << 20,
            AlgoConfig::flat(Family::Ring),
        ),
        w(
            "fig08/ring_16x32_4096",
            0x3f5c48ef52b1f2a9,
            ProcGrid::new(16, 32),
            4096,
            AlgoConfig::mha_inter(auto_cfg(InterAlgo::Ring)),
        ),
        w(
            "fig08/ring_16x32_65536",
            0x3f9bcd308c4d7c52,
            ProcGrid::new(16, 32),
            64 * 1024,
            AlgoConfig::mha_inter(auto_cfg(InterAlgo::Ring)),
        ),
        w(
            "fig08/rd_16x32_4096",
            0x3f5d08bd5a0dc992,
            ProcGrid::new(16, 32),
            4096,
            AlgoConfig::mha_inter(auto_cfg(InterAlgo::RecursiveDoubling)),
        ),
        w(
            "fig08/rd_16x32_65536",
            0x3f9c98ec44950569,
            ProcGrid::new(16, 32),
            64 * 1024,
            AlgoConfig::mha_inter(auto_cfg(InterAlgo::RecursiveDoubling)),
        ),
        w(
            "fig12/ring_8x32_4096",
            0x3f5ca8fab664b88f,
            ProcGrid::new(8, 32),
            4096,
            AlgoConfig::flat(Family::Ring),
        ),
        w(
            "fig12/bruck_8x32_4096",
            0x3f61a542613c5e41,
            ProcGrid::new(8, 32),
            4096,
            AlgoConfig::flat(Family::Bruck),
        ),
        w(
            "fig12/mha_8x32_4096",
            0x3f4e4ff3af34a934,
            ProcGrid::new(8, 32),
            4096,
            AlgoConfig::default(),
        ),
        w(
            "fig11/mha_intra_1x16_262144",
            0x3f67d19a32d7357b,
            ProcGrid::single_node(16),
            256 * 1024,
            AlgoConfig::mha_intra(Offload::Auto),
        ),
        w(
            "fig11/mha_intra_1x16_4194304",
            0x3fa6180840780799,
            ProcGrid::single_node(16),
            4 << 20,
            AlgoConfig::mha_intra(Offload::Auto),
        ),
        w(
            "fig13/ring_16x32_16384",
            0x3f8a2cb47614aa3e,
            ProcGrid::new(16, 32),
            16 * 1024,
            AlgoConfig::flat(Family::Ring),
        ),
        w(
            "fig13/mha_16x32_16384",
            0x3f7bffc5daeef453,
            ProcGrid::new(16, 32),
            16 * 1024,
            AlgoConfig::default(),
        ),
        w(
            "fig14/mha_32x32_4096",
            0x3f6b456d24709764,
            ProcGrid::new(32, 32),
            4096,
            AlgoConfig::default(),
        ),
        w(
            "fig14/mha_32x32_65536",
            0x3faafe1dd5f3f5e9,
            ProcGrid::new(32, 32),
            64 * 1024,
            AlgoConfig::default(),
        ),
    ]
}

fn points(spec: &ClusterSpec) -> Vec<CampaignPoint> {
    workloads()
        .into_iter()
        .map(|w| {
            let spec2 = spec.clone();
            CampaignPoint::sim(
                w.name,
                ConfigKey::new(format!("golden/{}", w.name), w.grid, w.msg, spec),
                spec.clone(),
                move || {
                    build(&w.algo, w.grid, w.msg, &spec2)
                        .map(|b| b.sched)
                        .map_err(|e| format!("{e:?}"))
                },
            )
        })
        .collect()
}

fn assert_report_matches_goldens(report: &mha_bench::campaign::CampaignReport, tag: &str) {
    for (i, w) in workloads().iter().enumerate() {
        let got = report.makespan(i);
        assert_eq!(
            got.to_bits(),
            w.golden.to_bits(),
            "[{tag}] {}: got {:.9} us (0x{:016x}), golden {:.9} us (0x{:016x})",
            w.name,
            got * 1e6,
            got.to_bits(),
            w.golden * 1e6,
            w.golden.to_bits()
        );
    }
}

#[test]
fn golden_workloads_are_bit_identical_through_every_pool_width() {
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();

    // The serial reference: direct build + simulate, no campaign involved.
    for w in workloads() {
        let built = build(&w.algo, w.grid, w.msg, &spec).unwrap();
        let direct = sim.run(&built.sched).unwrap().makespan;
        assert_eq!(
            direct.to_bits(),
            w.golden.to_bits(),
            "[direct] {}: serial engine drifted off the golden constant",
            w.name
        );
    }

    for workers in [1usize, 2, 8] {
        let cfg = CampaignConfig::default().with_workers(workers);
        let report = run_campaign(&points(&spec), &cfg).unwrap();
        assert_report_matches_goldens(&report, &format!("workers={workers}"));
    }
}

#[test]
fn golden_workloads_are_bit_identical_cold_and_warm() {
    let spec = ClusterSpec::thor();
    let cfg = CampaignConfig::default().with_workers(4);
    let cache = ScheduleCache::new(true);

    let cold = run_campaign_with(&points(&spec), &cfg, &cache).unwrap();
    assert_report_matches_goldens(&cold, "cold");
    assert_eq!(cold.cache_misses, workloads().len() as u64);

    // Same cache, second sweep: every schedule is a hit, every makespan
    // still lands on the golden bits.
    let warm = run_campaign_with(&points(&spec), &cfg, &cache).unwrap();
    assert_report_matches_goldens(&warm, "warm");
    assert_eq!(warm.cache_misses, cold.cache_misses);
    assert_eq!(
        warm.cache_hits,
        cold.cache_hits + workloads().len() as u64,
        "warm sweep should have hit the cache once per workload"
    );
}

#[test]
fn cache_off_matches_cache_on() {
    let spec = ClusterSpec::thor();
    let on = run_campaign(&points(&spec), &CampaignConfig::default().with_cache(true)).unwrap();
    let off = run_campaign(&points(&spec), &CampaignConfig::default().with_cache(false)).unwrap();
    for i in 0..workloads().len() {
        assert_eq!(on.makespan(i).to_bits(), off.makespan(i).to_bits());
    }
    // A disabled cache never hits — every lookup builds (and counts as a
    // miss).
    assert_eq!(off.cache_hits, 0);
    assert_eq!(off.cache_misses, workloads().len() as u64);
}
