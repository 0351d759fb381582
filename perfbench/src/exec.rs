//! `exec_fig12`: the threaded executor running MHA-inter on the Fig. 12
//! grid (8 × 32) at 4 KiB per rank, ~276 MB moved per run.
//!
//! The real-bytes backend, which no simulated workload touches. At 1 KiB
//! a run takes ~30 ms, too short to time; at 4 KiB it is memory-bound,
//! with two threads moving about as many bytes per second as `run_single`.

use std::collections::HashSet;

use mha_collectives::{AlgoConfig, Built};
use mha_exec::{rank_pattern, run_single, run_threaded, verify_allgather, BufferStore, Mode};
use mha_sched::{BufId, ProcGrid};
use mha_simnet::ClusterSpec;

use crate::{pins, Digest, Output, Tracer, Workload};

/// The executor workload.
pub struct Exec {
    built: Built,
    store: Option<BufferStore>,
    threads: usize,
    zeros: Vec<u8>,
    pin: Option<Output>,
}

/// A zeroed store with every rank's send buffer holding its
/// `rank_pattern`, the state `verify_allgather` starts from.
fn fresh_store(built: &Built) -> BufferStore {
    let store = BufferStore::new(&built.sched);
    for (r, &buf) in built.send.iter().enumerate() {
        store.fill(buf, 0, &rank_pattern(r, built.msg));
    }
    store
}

impl Exec {
    /// The benchmark configuration, checked against its pinned output.
    pub fn bench() -> Result<Self, String> {
        let mut e = Self::new(ProcGrid::new(8, 32), 4096, crate::threads())?;
        e.pin = Some(pins::EXEC_FIG12);
        Ok(e)
    }

    /// The paper's default MHA-inter on `grid` at `msg` bytes per rank,
    /// run on `threads` threads, unpinned.
    pub fn new(grid: ProcGrid, msg: usize, threads: usize) -> Result<Self, String> {
        let built = mha_collectives::build(&AlgoConfig::default(), grid, msg, &ClusterSpec::thor())
            .map_err(|e| e.to_string())?;
        let longest = built
            .sched
            .buffers()
            .iter()
            .map(|b| b.len)
            .max()
            .unwrap_or(0);
        let store = Some(fresh_store(&built));
        Ok(Exec {
            built,
            store,
            threads,
            zeros: vec![0; longest],
            pin: None,
        })
    }

    fn store(&self) -> Result<&BufferStore, String> {
        self.store
            .as_ref()
            .ok_or_else(|| "the buffer store was released".to_string())
    }
}

impl Workload for Exec {
    fn rep(&mut self, _i: u64) -> Result<(), String> {
        run_threaded(&self.built.sched, self.store()?, self.threads).map_err(|e| e.to_string())
    }

    /// Digests every receive buffer, then zeroes all but the send buffers
    /// so the next rep starts from the set-up state.
    fn output(&mut self) -> Result<Output, String> {
        let store = self.store()?;
        let mut d = Digest::new();
        for &buf in &self.built.recv {
            d.bytes(&store.read_all(buf));
        }
        let send: HashSet<BufId> = self.built.send.iter().copied().collect();
        for b in self.built.sched.buffers() {
            if !send.contains(&b.id) {
                store.fill(b.id, 0, &self.zeros[..b.len]);
            }
        }
        Ok(Output {
            makespan_bits: 0,
            digest: d.finish(),
            events: 0,
        })
    }

    fn traced_rep(&mut self, _i: u64, tr: &mut Tracer) -> Result<(), String> {
        let sched = &self.built.sched;
        tr.add("sched.ops", sched.n_ops() as f64);
        tr.add("sched.edges", sched.n_edges() as f64);
        tr.add("exec.bytes_moved", sched.total_bytes() as f64);
        let store = self.store()?;
        let threads = self.threads;
        tr.span("exec.run", || run_threaded(sched, store, threads))
            .map_err(|e| e.to_string())
    }

    /// A fresh store's set-up, the sequential reference run on it, and
    /// the verification of its output.
    fn traced_aux(&mut self, _i: u64, tr: &mut Tracer) -> Result<Option<Output>, String> {
        self.store = None;
        let built = &self.built;
        self.store = Some(tr.span("exec.store_setup", || fresh_store(built)));
        let store = self.store()?;
        tr.span("exec.single_run", || run_single(&self.built.sched, store))
            .map_err(|e| e.to_string())?;
        tr.span("exec.verify", || self.output()).map(Some)
    }

    /// `verify_allgather` on the executor threads: byte-exact MPI
    /// semantics against each rank's pattern, on a store of its own.
    fn final_check(&mut self) -> Option<Result<(), String>> {
        self.store = None;
        let b = &self.built;
        Some(
            verify_allgather(
                &b.sched,
                &b.send,
                &b.recv,
                b.msg,
                Mode::Threaded(self.threads),
            )
            .map_err(|e| e.to_string()),
        )
    }

    fn pinned(&self, _i: u64) -> Option<Output> {
        self.pin
    }

    fn describe(&self) -> String {
        format!(
            "\"grid\":\"{}x{}\",\"msg\":{},\"threads\":{},\"ops\":{},\"bytes_moved\":{}",
            self.built.sched.grid().nodes(),
            self.built.sched.grid().ppn(),
            self.built.msg,
            self.threads,
            self.built.sched.n_ops(),
            self.built.sched.total_bytes()
        )
    }
}
