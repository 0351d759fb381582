//! The repository benchmark.
//!
//! Four workloads drive the public APIs of the collectives / sched /
//! simnet / traffic / tune / exec layers. An untraced loop times whole
//! reps for the end-to-end metrics; a separate traced run re-composes
//! each rep from its public pieces, records a span around every layer
//! call and counts engine work through the `Probe` seam, which gives the
//! per-layer split. `README.md` beside this crate maps every layer metric
//! to the end-to-end metric and workload it should move.

pub mod exec;
pub mod harness;
#[rustfmt::skip]
pub mod pins;
pub mod ring;
pub mod trace;
pub mod traffic;
pub mod tune;

pub use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "ring_1024",
    "traffic_contended",
    "tune_reduced",
    "exec_fig12",
];

/// What one rep produced, reduced to the bits a correctness check compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Output {
    /// `f64::to_bits` of the simulated makespan (0 where there is none).
    pub makespan_bits: u64,
    /// Digest of the rep's whole output: per-op end times, per-job
    /// arrival and end times, the tuned table, or the receive buffers.
    pub digest: u64,
    /// Engine events processed (0 where nothing is simulated).
    pub events: u64,
}

/// One benchmark workload.
pub trait Workload {
    /// Runs rep `i` untraced. Only this call is timed for `wall_s`.
    fn rep(&mut self, i: u64) -> Result<(), String>;

    /// The output of the rep that just ran. Untimed; it also restores any
    /// state the next rep must find fresh.
    fn output(&mut self) -> Result<Output, String>;

    /// Runs rep `i` re-composed from the public pieces of the untraced
    /// call, with a span around every layer call and the counts taken at
    /// the same boundaries. Must leave the same output as [`Workload::rep`].
    fn traced_rep(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String>;

    /// Layer measurements that are not part of a rep (the executor's
    /// store set-up and sequential reference run). Returns an output to
    /// check against the reference when it produced one.
    fn traced_aux(&mut self, _i: u64, _tr: &mut Tracer) -> Result<Option<Output>, String> {
        Ok(None)
    }

    /// A check run once after the timed reps, if the workload has one.
    fn final_check(&mut self) -> Option<Result<(), String>> {
        None
    }

    /// The reference output pinned for rep `i`, if one is.
    fn pinned(&self, i: u64) -> Option<Output>;

    /// Names rep `i`'s input: reps with equal keys must produce equal
    /// outputs, so an unpinned input is re-composed only once.
    fn input_key(&self, _i: u64) -> u64 {
        0
    }

    /// How many parts one whole rep is split into. Rep `i` then runs
    /// part `i % parts`, which is also its input key, and `wall_s` and
    /// the per-layer metrics sum over the parts instead of taking a median
    /// over inputs.
    fn parts(&self) -> u64 {
        1
    }

    /// Workload facts for the run header, as JSON object members.
    fn describe(&self) -> String;
}

/// A word-at-a-time 64-bit digest, cheap enough to fold the executor's
/// few hundred MB of receive buffers on every rep.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one word.
    pub fn word(&mut self, w: u64) -> &mut Self {
        let h = (self.0 ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 29);
        self
    }

    /// Folds the bit patterns of `xs`.
    pub fn f64s(&mut self, xs: &[f64]) -> &mut Self {
        for x in xs {
            self.word(x.to_bits());
        }
        self
    }

    /// Folds `b` eight bytes at a time, then its length.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        let mut chunks = b.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &x in chunks.remainder() {
            self.word(u64::from(x));
        }
        self.word(b.len() as u64)
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds workload `name` in its benchmark configuration for run seed
/// `seed`; `traffic_contended` takes its streams from `arrival_base`.
pub fn workload(name: &str, seed: u64, arrival_base: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "ring_1024" => Box::new(ring::Ring::bench()?),
        "traffic_contended" => Box::new(traffic::Traffic::bench(seed, arrival_base)),
        "tune_reduced" => Box::new(tune::Tune::bench(seed)),
        "exec_fig12" => Box::new(exec::Exec::bench()?),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    })
}

/// The host's parallelism, as `nproc` reports it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Executor threads: two, capped at [`nproc`].
pub fn threads() -> usize {
    nproc().min(2)
}

/// The untraced output of rep `i`, for pinning.
fn untraced_output(w: &mut dyn Workload, i: u64) -> Result<Output, String> {
    w.rep(i)?;
    w.output()
}

fn pin_literal(o: &Output) -> String {
    format!(
        "Output {{ makespan_bits: {:#018x}, digest: {:#018x}, events: {} }}",
        o.makespan_bits, o.digest, o.events
    )
}

/// Source text of `src/pins.rs` for the code as it stands: the untraced
/// output of every workload's benchmark configuration, and of every
/// arrival seed of `traffic_contended`.
pub fn emit_pins() -> Result<String, String> {
    let ring = untraced_output(&mut ring::Ring::new(1024, 64 * 1024)?, 0)?;
    let mut tune = tune::Tune::bench(0);
    let mut tune_parts = String::new();
    for k in 0..tune.parts() {
        let o = untraced_output(&mut tune, k)?;
        tune_parts.push_str(&format!("    {},\n", pin_literal(&o)));
    }
    let exec = untraced_output(&mut exec::Exec::bench()?, 0)?;
    let mut traffic = traffic::Traffic::bench(0, 0);
    let mut streams = String::new();
    for s in 0..traffic::ARRIVAL_SEEDS {
        traffic.run_stream(s)?;
        let o = traffic.output()?;
        streams.push_str(&format!("    {},\n", pin_literal(&o)));
    }
    Ok(format!(
        "//! Reference outputs, pinned when the benchmark was introduced. A\n\
         //! change that alters results on purpose regenerates this file with\n\
         //! `cargo run --release --manifest-path perfbench/Cargo.toml -- --emit-pins`\n\
         //! and says why.\n\
         \n\
         use crate::Output;\n\
         \n\
         /// `ring_1024`: makespan, per-op end digest, events.\n\
         pub const RING_1024: Output = {};\n\
         \n\
         /// `tune_reduced`, indexed by point: the tuned-table digest.\n\
         pub const TUNE_REDUCED: [Output; {}] = [\n{}];\n\
         \n\
         /// `exec_fig12`: the receive-buffer digest.\n\
         pub const EXEC_FIG12: Output = {};\n\
         \n\
         /// `traffic_contended`, indexed by arrival seed: makespan, per-job\n\
         /// arrival and end digest, events.\n\
         pub const TRAFFIC_CONTENDED: [Output; {}] = [\n{}];\n",
        pin_literal(&ring),
        tune.parts(),
        tune_parts,
        pin_literal(&exec),
        traffic::ARRIVAL_SEEDS,
        streams
    ))
}
