//! Strong- and weak-scaling of the distributed matrix–vector kernel
//! (paper Section 5.5 / Figure 16), including a real-data numerical check
//! of the distributed algorithm.
//!
//! ```sh
//! cargo run --release --example matvec_scaling
//! ```

use mha::apps::matvec::{run_matvec, verify_matvec, MatvecConfig};
use mha::apps::{paper_contestants, Contestant};
use mha::collectives::{build, AlgoConfig};
use mha::sched::ProcGrid;
use mha::simnet::ClusterSpec;

fn main() {
    let spec = ClusterSpec::thor();

    // Numerical sanity first: the distributed algorithm equals a serial
    // GEMV when run on real bytes.
    let small = MatvecConfig {
        rows: 64,
        cols: 80,
        grid: ProcGrid::new(2, 4),
    };
    let built = build(&AlgoConfig::default(), small.grid, small.seg_bytes(), &spec).unwrap();
    let err = verify_matvec(small, &built).unwrap();
    println!("distributed matvec max |error| vs serial reference: {err:.2e}\n");

    println!("strong scaling, A = 1024 x 32768 (GFLOP/s, higher is better):");
    println!(
        "{:>8} {:>10} {:>12} {:>8}",
        "procs", "HPC-X", "MVAPICH2-X", "MHA"
    );
    for nodes in [2u32, 4, 8] {
        let grid = ProcGrid::new(nodes, 32);
        let cfg = MatvecConfig::strong_scaling(grid);
        let mut vals = Vec::new();
        for c in paper_contestants() {
            vals.push(run_matvec(cfg, c, &spec).unwrap().gflops);
        }
        println!(
            "{:>8} {:>10.2} {:>12.2} {:>8.2}",
            grid.nranks(),
            vals[0],
            vals[1],
            vals[2]
        );
    }

    println!("\ncommunication/compute split for MHA at 256 procs:");
    let cfg = MatvecConfig::strong_scaling(ProcGrid::new(8, 32));
    let r = run_matvec(cfg, Contestant::MhaTuned, &spec).unwrap();
    println!(
        "  comm {:.1} us, compute {:.1} us -> {:.2} GFLOP/s",
        r.comm_us, r.compute_us, r.gflops
    );
}
