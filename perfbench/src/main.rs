//! `mha-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--arrival-seed <base>]`
//!
//! Prints a header line describing the run, then, as its last line, one
//! JSON object: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end ones untraced, the per-layer ones with `--trace 1`. With
//! `--emit-pins` it prints the source of `src/pins.rs` instead.

use std::path::PathBuf;
use std::time::Instant;

use mha_perfbench::harness::{self, Plan};
use mha_perfbench::{emit_pins, nproc, threads, workload, Output, Tracer, Workload};

/// Set-up batches timed before the first rep, and groups `setup_s` takes
/// its median over.
const SETUPS: usize = 5;

/// Set-ups quicker than this are timed in batches, so that timer
/// resolution and one-off cache misses do not set the figure, and are
/// timed again after every rep; slower ones after the first rep that ends
/// [`SETUP_GAP_S`] after the last set-up (see [`setup_s`]).
const SETUP_BATCH_S: f64 = 1e-3;

/// Least seconds between two set-ups of a workload that is not cheap.
const SETUP_GAP_S: f64 = 1.5;

/// Holds the workload's place while it is set up anew, so that only one
/// set-up is ever resident. Never runs a rep.
struct Vacant;

impl Workload for Vacant {
    fn rep(&mut self, _i: u64) -> Result<(), String> {
        Err("no workload is set up".into())
    }

    fn output(&mut self) -> Result<Output, String> {
        Err("no workload is set up".into())
    }

    fn traced_rep(&mut self, _i: u64, _tr: &mut Tracer) -> Result<(), String> {
        Err("no workload is set up".into())
    }

    fn pinned(&self, _i: u64) -> Option<Output> {
        None
    }

    fn describe(&self) -> String {
        String::new()
    }
}

struct Args {
    workload: String,
    seed: u64,
    arrival_seed: u64,
    seconds: f64,
    trace: bool,
    emit_pins: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        arrival_seed: 0,
        seconds: 10.0,
        trace: false,
        emit_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--arrival-seed" => {
                args.arrival_seed = value()?
                    .parse()
                    .map_err(|e| format!("--arrival-seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--emit-pins" => args.emit_pins = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() && !args.emit_pins {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The process's peak resident set, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The calling thread's time on a CPU and waiting for one, in seconds
/// (`/proc/thread-self/schedstat`): the run-queue wait shows how much a
/// busy host, rather than the code, stretched a run.
fn thread_sched() -> Result<(f64, f64), String> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .map_err(|e| format!("reading /proc/thread-self/schedstat: {e}"))?;
    let mut fields = stat.split_whitespace().map(|f| f.parse::<f64>());
    match (fields.next(), fields.next()) {
        (Some(Ok(cpu)), Some(Ok(wait))) => Ok((cpu * 1e-9, wait * 1e-9)),
        _ => Err(format!("unexpected schedstat {stat:?}")),
    }
}

/// Where the traced run's spans go: beside the build, never in the tree.
fn trace_path(workload: &str, seed: u64) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let dir = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or_else(|| "the binary has no build directory".to_string())?;
    Ok(dir
        .join("perfbench-trace")
        .join(format!("{workload}-seed{seed}.jsonl")))
}

/// Sets `w` up anew at least once and for at least [`SETUP_BATCH_S`];
/// returns the seconds per set-up.
fn time_setups(w: &mut Option<Box<dyn Workload>>, args: &Args) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut n = 0u32;
    while n == 0 || t0.elapsed().as_secs_f64() < SETUP_BATCH_S {
        // Drop the previous set-up first, so only one is ever resident.
        drop(w.take());
        *w = Some(workload(&args.workload, args.seed, args.arrival_seed)?);
        n += 1;
    }
    Ok(t0.elapsed().as_secs_f64() / f64::from(n))
}

/// `setup_s` from the timed set-up batches: dealt in turn into
/// [`SETUPS`] groups, the fastest batch of each group, then the median
/// over groups. Set-up runs at one of two speeds for milliseconds to
/// seconds at a time on a shared host (~1.6× apart for a sub-microsecond
/// set-up, ~1.4× for the executor's store), so batches timed throughout
/// the run and the fastest of each group keep the figure from following
/// whichever speed the run started in.
fn setup_s(batches: &[f64]) -> f64 {
    let groups = (0..SETUPS.min(batches.len()))
        .map(|g| {
            batches
                .iter()
                .skip(g)
                .step_by(SETUPS)
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    harness::median(groups)
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Makes every thread allocate from glibc's main arena. A campaign spawns
/// a fresh worker thread per pricing call; whether it reuses the arena of
/// the worker before it or opens a new one depends on which of the two
/// wins a race at thread exit, and freed memory parked in extra arenas
/// swung `peak_rss_mb` by a third between runs of the same code. Must run
/// before the first thread is spawned.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn one_malloc_arena() -> Result<(), String> {
    extern "C" {
        fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
    }
    const M_ARENA_MAX: std::ffi::c_int = -8;
    // SAFETY: `mallopt` only sets an allocator tunable; no thread other
    // than this one exists yet.
    if unsafe { mallopt(M_ARENA_MAX, 1) } == 1 {
        Ok(())
    } else {
        Err("mallopt(M_ARENA_MAX, 1) failed".into())
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn one_malloc_arena() -> Result<(), String> {
    Ok(())
}

fn run() -> Result<(), String> {
    one_malloc_arena()?;
    let args = parse()?;
    for var in ["MHA_CHECK", "MHA_SCRATCH_FILL"] {
        if std::env::var(var).is_ok_and(|v| !v.is_empty() && v != "0") {
            return Err(format!(
                "{var} changes what the engine does; unset it to benchmark"
            ));
        }
    }
    if args.emit_pins {
        print!("{}", emit_pins()?);
        return Ok(());
    }

    let mut setups = Vec::with_capacity(SETUPS);
    let mut w: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        setups.push(time_setups(&mut w, &args)?);
    }
    let mut w = w.ok_or_else(|| "no set-up ran".to_string())?;
    // The untraced run sets the workload up anew between reps, outside
    // their timing: every rep when set-up is cheap, every
    // `SETUP_GAP_S` otherwise (the executor's ~45 ms buffer store).
    let cheap = harness::median(setups.clone()) < SETUP_BATCH_S;
    let mut last_setup = Instant::now();
    let mut setup_err = None;
    let plan = Plan {
        seconds: args.seconds,
        trace: args.trace,
        pin_override: None,
    };
    let (cpu0, wait0) = thread_sched()?;
    let report = harness::run_with(&mut w, &plan, &mut |live| {
        if args.trace
            || setup_err.is_some()
            || !(cheap || last_setup.elapsed().as_secs_f64() >= SETUP_GAP_S)
        {
            return;
        }
        drop(std::mem::replace(live, Box::new(Vacant)));
        let mut fresh = None;
        match time_setups(&mut fresh, &args) {
            Ok(t) => setups.push(t),
            Err(e) => setup_err = Some(e),
        }
        if let Some(f) = fresh {
            *live = f;
        }
        last_setup = Instant::now();
    });
    let (cpu1, wait1) = thread_sched()?;
    if let Some(e) = setup_err {
        return Err(e);
    }
    let peak_rss = peak_rss_mb()?;
    let setup_s = setup_s(&setups);
    let wall_s = harness::wall_s(&report);
    let walls: Vec<f64> = report.walls.iter().map(|&(_, t)| t).collect();

    let mut trace_file = String::from("null");
    if let Some(tracer) = &report.tracer {
        let path = trace_path(&args.workload, args.seed)?;
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        trace_file = json_str(&path.display().to_string());
    }
    let notes: Vec<String> = report.notes.iter().map(|n| json_str(n)).collect();
    println!(
        "{{\"perfbench\":{{\"schema\":1,\"workload\":{},\"seed\":{},\"arrival_seed\":{},\"trace\":{},\"nproc\":{},\"threads\":{},\"profile\":\"{}\",{},\"setup_batches\":{},\"setup_s\":{setup_s},\"wall_s\":{wall_s},\"rep_s\":{{\"median\":{},\"p90\":{},\"min\":{},\"max\":{},\"n\":{}}},\"peak_rss_mb\":{peak_rss},\"main_thread_cpu_s\":{},\"main_thread_runqueue_wait_s\":{},\"attempted\":{},\"failed\":{},\"error_rate\":{},\"unfaithful\":{},\"trace_file\":{trace_file},\"notes\":[{}]}}}}",
        json_str(&args.workload),
        args.seed,
        args.arrival_seed,
        u8::from(args.trace),
        nproc(),
        threads(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        w.describe(),
        setups.len(),
        harness::median(walls.clone()),
        harness::percentile(walls.clone(), 90.0),
        harness::percentile(walls.clone(), 0.0),
        harness::percentile(walls.clone(), 100.0),
        walls.len(),
        cpu1 - cpu0,
        wait1 - wait0,
        report.attempted,
        report.failed,
        report.error_rate(),
        report.unfaithful,
        notes.join(",")
    );

    let metrics: Vec<String> = if args.trace {
        harness::per_layer(&report)
            .into_iter()
            .map(|(name, unit, v)| metric(name, v, unit))
            .collect()
    } else {
        vec![
            metric("wall_s", wall_s, "s"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", peak_rss, "MB"),
        ]
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("mha-perfbench: {e}");
        std::process::exit(2);
    }
}
