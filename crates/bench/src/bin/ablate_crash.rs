//! Ablation: the cost of a node crash vs its recovery penalty. One node of
//! a 4×4 MHA-inter Allgather (256 KB) dies at 25% of the fault-free
//! makespan and restarts after a sweep of recovery penalties (expressed as
//! multiples of the fault-free makespan `T0`). The interesting output is
//! the *excess* beyond the analytic floor
//!
//!   `T_floor = t_crash + recovery + (work the dead node still owed)`
//!
//! approximated here as `t_crash + recovery`: a correct engine can never
//! finish before the restart, and a good one should not pay much more than
//! the outage itself — stalled flows resume at full rate, and traffic not
//! touching the dead node keeps flowing during the outage.
//!
//! The per-penalty simulations run as one campaign; the schedule is built
//! once and shared through the campaign cache across every timeline (only
//! the `FaultSpec` varies).

use mha_apps::report::Table;
use mha_bench::campaign::{run_campaign, CampaignConfig, CampaignPoint, ConfigKey};
use mha_collectives::{build, AlgoConfig};
use mha_sched::ProcGrid;
use mha_simnet::{ClusterSpec, FaultSpec, Simulator};

fn main() {
    mha_bench::apply_check_flag();
    let grid = ProcGrid::new(4, 4);
    let msg = 256 * 1024;
    let spec = ClusterSpec::thor();
    let built = build(&AlgoConfig::default(), grid, msg, &spec).unwrap();

    let t0 = Simulator::new(spec.clone())
        .unwrap()
        .run(&built.sched)
        .unwrap()
        .makespan;
    let t_crash = 0.25 * t0;
    let factors = [0.25f64, 0.5, 1.0, 2.0, 4.0, 8.0];

    let mut cells = Vec::new();
    for (i, &f) in factors.iter().enumerate() {
        let faults = FaultSpec::node_crash(1, t_crash, f * t0);
        let key = ConfigKey::new("ablate_crash", grid, msg, &spec).with_salt(i as u64);
        let sched = built.sched.clone();
        cells.push(CampaignPoint::sim_faulty(
            "crash",
            key,
            spec.clone(),
            Some(faults),
            move || Ok(sched.clone()),
        ));
    }
    let report = run_campaign(&cells, &CampaignConfig::from_env()).unwrap();

    let mut table = Table::new(
        "Ablation: node 1 crashes at 0.25 T0 and restarts after R, \
         MHA-inter 4 nodes x 4 PPN, 256 KB (T0 = fault-free makespan)",
        "recovery_over_t0",
        vec![
            "makespan_us".into(),
            "vs_clean".into(),
            "floor_us".into(),
            "excess_over_floor".into(),
        ],
    );
    for (i, &f) in factors.iter().enumerate() {
        let m = report.value(i); // microseconds
        let floor = (t_crash + f * t0) * 1e6;
        table.push(format!("{f}"), vec![m, m / (t0 * 1e6), floor, m / floor]);
    }
    mha_bench::emit(&table, "ablate_crash");
}
