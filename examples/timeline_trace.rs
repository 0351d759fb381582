//! Figure 2 in your terminal: the flat Ring Allgather timeline showing
//! inter-node transfers (r) waiting on intra-node CMA hops (c), next to
//! the overlapped MHA-inter pipeline.
//!
//! ```sh
//! cargo run --release --example timeline_trace
//! ```

use mha::collectives::{build, AlgoConfig, Family};
use mha::sched::ProcGrid;
use mha::simnet::{ClusterSpec, Simulator, Trace, TraceBuilder};

fn main() {
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    let grid = ProcGrid::new(2, 2);
    let msg = 1 << 20;
    let trace = |algo: &AlgoConfig| -> Trace {
        let built = build(algo, grid, msg, &spec).unwrap();
        let mut tb = TraceBuilder::new();
        sim.run_probed(&built.sched, &mut tb).unwrap();
        tb.finish(&built.sched)
    };

    let ring = trace(&AlgoConfig::flat(Family::Ring));
    println!("flat Ring Allgather, 2 nodes x 2 PPN, 1 MB (the paper's Figure 2):");
    println!("{}", ring.render_ascii(96));
    let mha = trace(&AlgoConfig::default());
    println!("hierarchical MHA-inter on the same problem:");
    println!("{}", mha.render_ascii(96));
    println!("legend: c = CMA transfer, r = rail transfer, o = memcpy, . = idle");
}
