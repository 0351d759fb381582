//! Quickstart: build the paper's hierarchical multi-HCA aware Allgather,
//! prove it correct on real bytes, and price it on the simulated Thor
//! cluster next to the library baselines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mha::collectives::{build, AlgoConfig, Family, Library};
use mha::exec::{verify_allgather, Mode};
use mha::sched::ProcGrid;
use mha::simnet::{ClusterSpec, Simulator};

fn main() {
    // A slice of the Thor cluster: 4 nodes x 8 processes, 64 KB per rank.
    let grid = ProcGrid::new(4, 8);
    let msg = 64 * 1024;
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).expect("valid cluster spec");

    // 1. Compile the collective to a schedule.
    let mha = build(&AlgoConfig::default(), grid, msg, &spec).expect("buildable configuration");
    println!(
        "built `{}`: {} ops, {} buffers",
        mha.sched.name(),
        mha.sched.ops().len(),
        mha.sched.buffers().len()
    );

    // 2. Structural checks: bounds/locality plus race-freedom — the
    //    overlapped chunk pipeline is deterministic by construction.
    mha::sched::validate(&mha.sched, Some(spec.rails)).expect("structurally valid");
    assert!(mha::sched::check_races(&mha.sched).is_empty());

    // 3. Execute with real bytes on a thread pool and check MPI_Allgather
    //    semantics.
    verify_allgather(&mha.sched, &mha.send, &mha.recv, msg, Mode::Threaded(8))
        .expect("correct Allgather semantics");
    println!("threaded execution verified MPI_Allgather semantics");

    // 4. Price it on the simulated cluster, next to the baselines.
    let t_mha = sim.run(&mha.sched).unwrap().latency_us();
    for lib in [Library::HpcX, Library::Mvapich2X] {
        let built = build(&AlgoConfig::flat(Family::Library(lib)), grid, msg, &spec).unwrap();
        let t = sim.run(&built.sched).unwrap().latency_us();
        println!(
            "{:>11}: {:>10.1} us  (algorithm: {})",
            lib.name(),
            t,
            built.sched.name()
        );
    }
    println!("{:>11}: {t_mha:>10.1} us", "MHA");
}
