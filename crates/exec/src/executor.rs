//! Schedule executors over real byte buffers.
//!
//! Two interpreters of the frozen IR with identical semantics:
//!
//! * [`run_single`] — deterministic, sequential, in op id order (a
//!   topological order). The reference implementation.
//! * [`run_threaded`] — a dependency-driven worker pool: readiness comes
//!   from the shared [`mha_sched::AtomicReadySet`] driver (the same
//!   indegree-counter runtime the simulator uses); any worker may claim any
//!   ready op. For schedules that pass `mha_sched::check_races` the result
//!   equals the sequential one regardless of interleaving — which the test
//!   suite exercises aggressively.
//!
//! Neither executor models *time*; that is `mha-simnet`'s job. These exist
//! to prove every algorithm's data movement is correct (offsets, chunking,
//! reduction arithmetic, shm hand-offs). [`run_threaded_probed`] narrates
//! wall-clock op spans through a [`Probe`], the same observability seam the
//! simulator emits, so one sink works against both backends.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use crossbeam::channel;

use mha_sched::{AtomicReadySet, DType, FrozenSchedule, OpKind, Probe, RedOp};

use crate::journal::{CompletionJournal, JournalError, JournalSink, KillPlan};
use crate::memory::BufferStore;

/// An execution failure.
#[derive(Debug)]
pub enum ExecError {
    /// The schedule failed structural validation.
    InvalidSchedule(mha_sched::ValidateError),
    /// A worker thread panicked (the panic is contained — it surfaces as
    /// this error instead of aborting the process or hanging the pool).
    WorkerPanicked,
    /// The worker pool drained without completing every op — a broken DAG
    /// or a disconnected worker queue.
    Stalled {
        /// Ops that completed.
        done: usize,
        /// Ops in the schedule.
        total: usize,
    },
    /// Execution was deliberately aborted by a [`KillPlan`] victim (or a
    /// [`run_single_killed`] stop point). The journal holds the completed
    /// prefix; `resume_single` / `resume_threaded` finish the rest.
    Killed {
        /// Ops journaled as retired, including any from previous runs.
        done: usize,
        /// Ops in the schedule.
        total: usize,
    },
    /// The supplied completion journal does not describe a valid partial
    /// execution of this schedule.
    Journal(JournalError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::InvalidSchedule(e) => write!(f, "invalid schedule: {e}"),
            ExecError::WorkerPanicked => write!(f, "a worker thread panicked"),
            ExecError::Stalled { done, total } => {
                write!(f, "threaded execution stalled: {done} of {total} ops ran")
            }
            ExecError::Killed { done, total } => {
                write!(f, "execution killed: {done} of {total} ops journaled")
            }
            ExecError::Journal(e) => write!(f, "bad journal: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<mha_sched::ValidateError> for ExecError {
    fn from(e: mha_sched::ValidateError) -> Self {
        ExecError::InvalidSchedule(e)
    }
}

impl From<JournalError> for ExecError {
    fn from(e: JournalError) -> Self {
        ExecError::Journal(e)
    }
}

fn sum_elem(dtype: DType, acc: &mut [u8], op: &[u8]) {
    match dtype {
        DType::F32 => {
            let x = f32::from_ne_bytes(acc.try_into().unwrap())
                + f32::from_ne_bytes(op.try_into().unwrap());
            acc.copy_from_slice(&x.to_ne_bytes());
        }
        DType::F64 => {
            let x = f64::from_ne_bytes(acc.try_into().unwrap())
                + f64::from_ne_bytes(op.try_into().unwrap());
            acc.copy_from_slice(&x.to_ne_bytes());
        }
    }
}

fn max_elem(dtype: DType, acc: &mut [u8], op: &[u8]) {
    match dtype {
        DType::F32 => {
            let x = f32::from_ne_bytes(acc.try_into().unwrap())
                .max(f32::from_ne_bytes(op.try_into().unwrap()));
            acc.copy_from_slice(&x.to_ne_bytes());
        }
        DType::F64 => {
            let x = f64::from_ne_bytes(acc.try_into().unwrap())
                .max(f64::from_ne_bytes(op.try_into().unwrap()));
            acc.copy_from_slice(&x.to_ne_bytes());
        }
    }
}

fn execute_op(kind: &OpKind, store: &BufferStore) {
    match kind {
        OpKind::Transfer { src, dst, len, .. } | OpKind::Copy { src, dst, len, .. } => {
            store.copy_bytes(*src, *dst, *len);
        }
        OpKind::Reduce {
            acc,
            operand,
            len,
            dtype,
            op,
            ..
        } => {
            let d = *dtype;
            match op {
                RedOp::Sum => {
                    store.combine_bytes(*acc, *operand, *len, d.size(), |a, o| sum_elem(d, a, o))
                }
                RedOp::Max => {
                    store.combine_bytes(*acc, *operand, *len, d.size(), |a, o| max_elem(d, a, o))
                }
            }
        }
        OpKind::Compute { .. } => {
            // Pure time cost; nothing to do for correctness.
        }
    }
}

/// Executes `sch` sequentially in op id order, which is a topological
/// order (dependencies always point backwards).
pub fn run_single(sch: &FrozenSchedule, store: &BufferStore) -> Result<(), ExecError> {
    mha_sched::validate(sch, None)?;
    for op in sch.ops() {
        execute_op(&op.kind, store);
    }
    Ok(())
}

/// Executes the unfinished suffix of `sch` sequentially, skipping ops
/// `journal` already records and appending each newly retired op.
///
/// With an empty journal this is [`run_single`] plus journaling; with a
/// partially filled one it is crash recovery: journaled ops' byte effects
/// are already durable in `store` (ops are journaled only after they fully
/// execute), so only the suffix runs — which is what keeps recovery
/// byte-exact even for non-idempotent `Reduce` ops. Fails with
/// [`ExecError::Journal`] if the journal is not a valid partial execution
/// of `sch`.
pub fn run_single_journaled(
    sch: &FrozenSchedule,
    store: &BufferStore,
    journal: &CompletionJournal,
) -> Result<(), ExecError> {
    run_single_limited(sch, store, journal, usize::MAX)
}

/// Finishes a crashed run from its journal: [`run_single_journaled`] under
/// its recovery name. Safe to call again on an already-complete journal (a
/// no-op), which makes resume idempotent.
pub fn resume_single(
    sch: &FrozenSchedule,
    store: &BufferStore,
    journal: &CompletionJournal,
) -> Result<(), ExecError> {
    run_single_journaled(sch, store, journal)
}

/// [`run_single_journaled`] that deliberately crashes — returns
/// [`ExecError::Killed`] instead of executing further — once `journal`
/// holds `stop_after` entries. The op claimed at the stop point is *not*
/// executed and *not* journaled, exactly like a [`KillPlan`] victim dying
/// in the threaded pool, so the journal length at the kill is precisely
/// `stop_after` (when `stop_after < n_ops`). The deterministic kill used
/// by golden tests.
pub fn run_single_killed(
    sch: &FrozenSchedule,
    store: &BufferStore,
    journal: &CompletionJournal,
    stop_after: usize,
) -> Result<(), ExecError> {
    run_single_limited(sch, store, journal, stop_after)
}

fn run_single_limited(
    sch: &FrozenSchedule,
    store: &BufferStore,
    journal: &CompletionJournal,
    stop_after: usize,
) -> Result<(), ExecError> {
    mha_sched::validate(sch, None)?;
    let entries = journal.validate(sch)?;
    let n = sch.n_ops();
    let mut done = vec![false; n];
    for &c in &entries {
        done[c as usize] = true;
    }
    let mut retired = entries.len();
    let ops = sch.ops();
    for i in 0..n as u32 {
        if done[i as usize] {
            continue;
        }
        if retired >= stop_after {
            return Err(ExecError::Killed {
                done: retired,
                total: n,
            });
        }
        execute_op(&ops[i as usize].kind, store);
        journal.record(i);
        retired += 1;
    }
    Ok(())
}

/// Executes `sch` on `threads` worker threads, honoring only the DAG's
/// dependency edges (any topological interleaving may occur).
pub fn run_threaded(
    sch: &FrozenSchedule,
    store: &BufferStore,
    threads: usize,
) -> Result<(), ExecError> {
    run_threaded_inner(sch, store, threads, None, None, &[], None)
}

/// [`run_threaded`] with per-op completion journaling, resume-aware: ops
/// `journal` already records are pre-released (their successors' indegrees
/// seeded down via [`AtomicReadySet::from_completed`]) and only the
/// unfinished suffix executes. Each op is journaled after its byte effects
/// land and before any successor is released, so the journal is
/// dependency-closed at every instant — including mid-crash.
pub fn run_threaded_journaled(
    sch: &FrozenSchedule,
    store: &BufferStore,
    threads: usize,
    journal: &CompletionJournal,
) -> Result<(), ExecError> {
    let completed = journal.validate(sch)?;
    run_threaded_inner(sch, store, threads, None, Some(journal), &completed, None)
}

/// Finishes a crashed run from its journal on the worker pool:
/// [`run_threaded_journaled`] under its recovery name. Idempotent — on an
/// already-complete journal it is a no-op.
pub fn resume_threaded(
    sch: &FrozenSchedule,
    store: &BufferStore,
    threads: usize,
    journal: &CompletionJournal,
) -> Result<(), ExecError> {
    run_threaded_journaled(sch, store, threads, journal)
}

/// [`run_threaded_journaled`] under a deterministic kill plan: each victim
/// worker dies — via the same contained-panic release machinery as
/// [`ExecError::WorkerPanicked`] — instead of executing the op it just
/// claimed, once the journaled-op count reaches its threshold. The claimed
/// op stays unexecuted and unjournaled, so `resume_threaded` re-runs it
/// exactly once. Returns [`ExecError::Killed`] when a victim fired, or
/// `Ok` when execution finished before any threshold was reached (a late
/// kill point on a fast pool).
pub fn run_threaded_killed(
    sch: &FrozenSchedule,
    store: &BufferStore,
    threads: usize,
    journal: &CompletionJournal,
    plan: &KillPlan,
) -> Result<(), ExecError> {
    let completed = journal.validate(sch)?;
    run_threaded_inner(
        sch,
        store,
        threads,
        None,
        Some(journal),
        &completed,
        Some(plan),
    )
}

/// [`run_threaded`] narrated through `probe` (`backend = "exec-threaded"`).
///
/// Workers record wall-clock per-op timestamps while running; the event
/// stream is replayed into `probe` in time order after the pool joins, so
/// the sink needs no synchronization.
pub fn run_threaded_probed(
    sch: &FrozenSchedule,
    store: &BufferStore,
    threads: usize,
    probe: &mut dyn Probe,
) -> Result<(), ExecError> {
    run_threaded_inner(sch, store, threads, Some(probe), None, &[], None)
}

#[allow(clippy::too_many_arguments)]
fn run_threaded_inner(
    sch: &FrozenSchedule,
    store: &BufferStore,
    threads: usize,
    mut probe: Option<&mut dyn Probe>,
    journal: Option<&dyn JournalSink>,
    completed: &[u32],
    kill: Option<&KillPlan>,
) -> Result<(), ExecError> {
    assert!(threads > 0, "need at least one worker");
    mha_sched::validate(sch, None)?;
    let n = sch.n_ops();
    let base = completed.len();
    let todo = n - base;
    if let Some(p) = probe.as_deref_mut() {
        p.begin_run(sch, "exec-threaded");
    }
    if todo == 0 {
        if let Some(p) = probe {
            p.end_run(0.0);
        }
        return Ok(());
    }
    let (ready, frontier) = if completed.is_empty() {
        (AtomicReadySet::new(sch), sch.roots().to_vec())
    } else {
        AtomicReadySet::from_completed(sch, completed)
    };
    let done = AtomicUsize::new(0);
    let poisoned = std::sync::atomic::AtomicBool::new(false);
    let killed = std::sync::atomic::AtomicBool::new(false);
    let (tx, rx) = channel::unbounded::<usize>();
    for &i in &frontier {
        if let Some(p) = probe.as_deref_mut() {
            p.op_ready(i, 0.0);
        }
        // The local `rx` keeps the channel open; a failed send here means
        // the world is broken in a way the stall check below will report.
        let _ = tx.send(i as usize);
    }

    // Timestamps (nanos + 1; 0 = never ran) are only recorded when a probe
    // is attached, so the unprobed path pays no clock reads.
    let timing = probe.is_some();
    let stamps: Vec<(AtomicU64, AtomicU64)> = if timing {
        (0..n)
            .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
            .collect()
    } else {
        Vec::new()
    };
    let t0 = Instant::now();

    let panicked = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for w in 0..threads {
            let rx = rx.clone();
            let tx = tx.clone();
            let kill_at = kill.and_then(|p| p.threshold(w));
            let (ready, done, poisoned, killed, stamps) =
                (&ready, &done, &poisoned, &killed, &stamps);
            handles.push(scope.spawn(move || {
                while let Ok(i) = rx.recv() {
                    if i == usize::MAX {
                        break;
                    }
                    if let Some(thr) = kill_at {
                        if base + done.load(Ordering::Acquire) >= thr {
                            // Die *before* executing the claimed op: it
                            // stays unexecuted and unjournaled, so resume
                            // re-runs it exactly once — the only safe kill
                            // point for non-idempotent Reduce ops. Release
                            // the surviving workers like the poison path.
                            killed.store(true, Ordering::Release);
                            for _ in 0..threads {
                                let _ = tx.send(usize::MAX);
                            }
                            break;
                        }
                    }
                    if timing {
                        stamps[i].0.store(nanos_since(t0), Ordering::Relaxed);
                    }
                    // Contain op panics: poison the run and release every
                    // worker instead of hanging peers on a queue nobody
                    // will ever feed again.
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        execute_op(&sch.ops()[i].kind, store)
                    }));
                    if r.is_err() {
                        poisoned.store(true, Ordering::Release);
                        for _ in 0..threads {
                            let _ = tx.send(usize::MAX);
                        }
                        break;
                    }
                    if timing {
                        stamps[i].1.store(nanos_since(t0), Ordering::Relaxed);
                    }
                    // Journal after the op's effects are durable and before
                    // any successor can be released: at every instant the
                    // journal is a dependency-closed prefix in retire order.
                    if let Some(j) = journal {
                        j.op_retired(i as u32);
                    }
                    ready.complete(sch, i as u32, |s| {
                        // A send can only fail if the channel somehow died;
                        // the stall check below turns that into an error.
                        let _ = tx.send(s as usize);
                    });
                    if done.fetch_add(1, Ordering::AcqRel) + 1 == todo {
                        // All done: release every worker.
                        for _ in 0..threads {
                            let _ = tx.send(usize::MAX);
                        }
                    }
                }
            }));
        }
        handles.into_iter().any(|h| h.join().is_err())
    });

    if panicked || poisoned.load(Ordering::Acquire) {
        return Err(ExecError::WorkerPanicked);
    }
    let ran = done.load(Ordering::Acquire);
    if killed.load(Ordering::Acquire) && ran != todo {
        return Err(ExecError::Killed {
            done: base + ran,
            total: n,
        });
    }
    if ran != todo {
        return Err(ExecError::Stalled {
            done: base + ran,
            total: n,
        });
    }

    if let Some(p) = probe {
        // Replay the recorded spans in time order (starts before ends at
        // equal timestamps).
        let mut evs: Vec<(u64, bool, u32)> = Vec::with_capacity(2 * n);
        let mut makespan = 0u64;
        for (i, (s, e)) in stamps.iter().enumerate() {
            let (s, e) = (s.load(Ordering::Relaxed), e.load(Ordering::Relaxed));
            if s > 0 {
                let e = e.max(s);
                evs.push((s - 1, false, i as u32));
                evs.push((e - 1, true, i as u32));
                makespan = makespan.max(e - 1);
            }
        }
        evs.sort_unstable();
        for (t, is_end, op) in evs {
            let ts = t as f64 * 1e-9;
            if is_end {
                p.op_end(op, ts);
            } else {
                p.op_start(op, ts);
            }
        }
        p.end_run(makespan as f64 * 1e-9);
    }
    Ok(())
}

/// Nanoseconds since `t0`, offset by 1 so 0 can mean "never recorded".
fn nanos_since(t0: Instant) -> u64 {
    (t0.elapsed().as_nanos() as u64).saturating_add(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mha_sched::{Channel, Loc, ProcGrid, RankId, ScheduleBuilder};

    /// A chain of copies relaying a pattern through several buffers.
    fn relay_schedule(hops: usize) -> FrozenSchedule {
        let grid = ProcGrid::single_node(1);
        let mut b = ScheduleBuilder::new(grid, "relay");
        let bufs: Vec<_> = (0..=hops)
            .map(|i| b.private_buf(RankId(0), 16, format!("b{i}")))
            .collect();
        let mut prev = None;
        for w in bufs.windows(2) {
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(b.copy(
                RankId(0),
                Loc::new(w[0], 0),
                Loc::new(w[1], 0),
                16,
                &deps,
                0,
            ));
        }
        b.finish().freeze()
    }

    #[test]
    fn single_executes_relay() {
        let sch = relay_schedule(5);
        let store = BufferStore::new(&sch);
        let pattern: Vec<u8> = (0..16).collect();
        store.fill(sch.buffers()[0].id, 0, &pattern);
        run_single(&sch, &store).unwrap();
        assert_eq!(store.read_all(sch.buffers()[5].id), pattern);
    }

    #[test]
    fn threaded_matches_single_on_relay() {
        let sch = relay_schedule(20);
        let pattern: Vec<u8> = (0..16).map(|x| x * 3).collect();
        for threads in [1, 2, 8] {
            let store = BufferStore::new(&sch);
            store.fill(sch.buffers()[0].id, 0, &pattern);
            run_threaded(&sch, &store, threads).unwrap();
            assert_eq!(store.read_all(sch.buffers()[20].id), pattern);
        }
    }

    #[test]
    fn panicking_op_surfaces_as_worker_panicked() {
        // Execute a 6-buffer relay against a store built from a 2-buffer
        // schedule: the third hop indexes a buffer the store never
        // allocated and panics inside a worker. The pool must contain
        // that panic and report it — not abort the process, and not hang
        // the remaining workers on a queue nobody will feed again.
        let sch = relay_schedule(5);
        let tiny = relay_schedule(1);
        let store = BufferStore::new(&tiny);
        let err = run_threaded(&sch, &store, 4).unwrap_err();
        assert!(matches!(err, ExecError::WorkerPanicked), "got {err}");
    }

    #[test]
    fn stalled_error_reports_progress() {
        let err = ExecError::Stalled { done: 3, total: 7 };
        assert_eq!(
            err.to_string(),
            "threaded execution stalled: 3 of 7 ops ran"
        );
    }

    #[test]
    fn transfer_moves_bytes_between_ranks() {
        let grid = ProcGrid::new(2, 1);
        let mut b = ScheduleBuilder::new(grid, "x");
        let s = b.private_buf(RankId(0), 8, "s");
        let d = b.private_buf(RankId(1), 8, "d");
        b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            8,
            Channel::AllRails,
            &[],
            0,
        );
        let sch = b.finish().freeze();
        let store = BufferStore::new(&sch);
        store.fill(s, 0, &[5; 8]);
        run_threaded(&sch, &store, 4).unwrap();
        assert_eq!(store.read_all(d), vec![5; 8]);
    }

    #[test]
    fn reduce_sums_f64() {
        let grid = ProcGrid::single_node(1);
        let mut b = ScheduleBuilder::new(grid, "r");
        let acc = b.private_buf(RankId(0), 16, "acc");
        let op = b.private_buf(RankId(0), 16, "op");
        b.reduce(
            RankId(0),
            Loc::new(acc, 0),
            Loc::new(op, 0),
            16,
            DType::F64,
            RedOp::Sum,
            &[],
            0,
        );
        let sch = b.finish().freeze();
        let store = BufferStore::new(&sch);
        let a: Vec<u8> = [1.25f64, -2.0]
            .iter()
            .flat_map(|v| v.to_ne_bytes())
            .collect();
        let o: Vec<u8> = [0.75f64, 7.0]
            .iter()
            .flat_map(|v| v.to_ne_bytes())
            .collect();
        store.fill(acc, 0, &a);
        store.fill(op, 0, &o);
        run_single(&sch, &store).unwrap();
        let out = store.read_all(acc);
        let v0 = f64::from_ne_bytes(out[0..8].try_into().unwrap());
        let v1 = f64::from_ne_bytes(out[8..16].try_into().unwrap());
        assert_eq!((v0, v1), (2.0, 5.0));
    }

    #[test]
    fn reduce_max_f32() {
        let grid = ProcGrid::single_node(1);
        let mut b = ScheduleBuilder::new(grid, "m");
        let acc = b.private_buf(RankId(0), 8, "acc");
        let op = b.private_buf(RankId(0), 8, "op");
        b.reduce(
            RankId(0),
            Loc::new(acc, 0),
            Loc::new(op, 0),
            8,
            DType::F32,
            RedOp::Max,
            &[],
            0,
        );
        let sch = b.finish().freeze();
        let store = BufferStore::new(&sch);
        let a: Vec<u8> = [1.0f32, 9.0].iter().flat_map(|v| v.to_ne_bytes()).collect();
        let o: Vec<u8> = [3.0f32, 2.0].iter().flat_map(|v| v.to_ne_bytes()).collect();
        store.fill(acc, 0, &a);
        store.fill(op, 0, &o);
        run_single(&sch, &store).unwrap();
        let out = store.read_all(acc);
        let v0 = f32::from_ne_bytes(out[0..4].try_into().unwrap());
        let v1 = f32::from_ne_bytes(out[4..8].try_into().unwrap());
        assert_eq!((v0, v1), (3.0, 9.0));
    }

    #[test]
    fn invalid_schedule_rejected_by_both() {
        let grid = ProcGrid::new(2, 1);
        let mut b = ScheduleBuilder::new(grid, "bad");
        let s = b.private_buf(RankId(0), 4, "s");
        let d = b.private_buf(RankId(1), 4, "d");
        b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            4,
            Channel::Cma, // CMA across nodes: invalid
            &[],
            0,
        );
        let sch = b.finish().freeze();
        let store = BufferStore::new(&sch);
        assert!(matches!(
            run_single(&sch, &store),
            Err(ExecError::InvalidSchedule(_))
        ));
        assert!(matches!(
            run_threaded(&sch, &store, 2),
            Err(ExecError::InvalidSchedule(_))
        ));
    }

    #[test]
    fn empty_schedule_is_a_noop() {
        let sch = ScheduleBuilder::new(ProcGrid::single_node(1), "empty")
            .finish()
            .freeze();
        let store = BufferStore::new(&sch);
        run_single(&sch, &store).unwrap();
        run_threaded(&sch, &store, 4).unwrap();
    }

    /// An allreduce-flavored chain: repeated non-idempotent Reduce ops
    /// folding `terms` operand buffers into one accumulator. Any op that
    /// re-executes after a crash corrupts the sum — the sharpest probe of
    /// kill/resume exactness.
    fn reduce_chain(terms: usize) -> (FrozenSchedule, Vec<mha_sched::BufId>) {
        let grid = ProcGrid::single_node(1);
        let mut b = ScheduleBuilder::new(grid, "chain");
        let acc = b.private_buf(RankId(0), 8, "acc");
        let mut bufs = vec![acc];
        let mut prev = None;
        for i in 0..terms {
            let op_buf = b.private_buf(RankId(0), 8, format!("t{i}"));
            bufs.push(op_buf);
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(b.reduce(
                RankId(0),
                Loc::new(acc, 0),
                Loc::new(op_buf, 0),
                8,
                DType::F64,
                RedOp::Sum,
                &deps,
                i as u32,
            ));
        }
        (b.finish().freeze(), bufs)
    }

    fn fill_chain(sch: &FrozenSchedule, bufs: &[mha_sched::BufId]) -> BufferStore {
        let store = BufferStore::new(sch);
        store.fill(bufs[0], 0, &1.0f64.to_ne_bytes());
        for (i, &b) in bufs[1..].iter().enumerate() {
            store.fill(b, 0, &((i + 2) as f64).to_ne_bytes());
        }
        store
    }

    fn acc_value(store: &BufferStore, acc: mha_sched::BufId) -> f64 {
        f64::from_ne_bytes(store.read_all(acc).try_into().unwrap())
    }

    #[test]
    fn single_kill_resume_is_exact_on_reduce_chain() {
        // Sum 1 + 2 + ... + 11 = 66; kill at every possible point.
        let (sch, bufs) = reduce_chain(10);
        for k in 0..sch.n_ops() {
            let store = fill_chain(&sch, &bufs);
            let journal = CompletionJournal::for_schedule(&sch);
            let err = run_single_killed(&sch, &store, &journal, k).unwrap_err();
            assert!(matches!(err, ExecError::Killed { done, total: 10 } if done == k));
            assert_eq!(journal.len(), k);
            resume_single(&sch, &store, &journal).unwrap();
            assert!(journal.is_complete());
            assert_eq!(acc_value(&store, bufs[0]), 66.0, "kill at {k}");
        }
    }

    #[test]
    fn single_kill_past_end_completes() {
        let (sch, bufs) = reduce_chain(4);
        let store = fill_chain(&sch, &bufs);
        let journal = CompletionJournal::for_schedule(&sch);
        run_single_killed(&sch, &store, &journal, 99).unwrap();
        assert!(journal.is_complete());
        assert_eq!(acc_value(&store, bufs[0]), 15.0);
    }

    #[test]
    fn threaded_kill_resume_is_exact() {
        let (sch, bufs) = reduce_chain(12);
        for seed in 0..20u64 {
            let plan = KillPlan::seeded(seed, sch.n_ops(), 4);
            let store = fill_chain(&sch, &bufs);
            let journal = CompletionJournal::for_schedule(&sch);
            match run_threaded_killed(&sch, &store, 4, &journal, &plan) {
                Err(ExecError::Killed { done, total }) => {
                    assert_eq!(done, journal.len());
                    assert_eq!(total, sch.n_ops());
                    assert!(done < total);
                    resume_threaded(&sch, &store, 4, &journal).unwrap();
                }
                Ok(()) => assert!(journal.is_complete()),
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(journal.is_complete());
            assert_eq!(acc_value(&store, bufs[0]), 91.0, "seed {seed}");
        }
    }

    #[test]
    fn resume_is_idempotent() {
        let (sch, bufs) = reduce_chain(8);
        let store = fill_chain(&sch, &bufs);
        let journal = CompletionJournal::for_schedule(&sch);
        let _ = run_single_killed(&sch, &store, &journal, 3);
        resume_single(&sch, &store, &journal).unwrap();
        let after_once = acc_value(&store, bufs[0]);
        resume_single(&sch, &store, &journal).unwrap();
        resume_threaded(&sch, &store, 4, &journal).unwrap();
        assert_eq!(acc_value(&store, bufs[0]), after_once);
        assert_eq!(journal.len(), sch.n_ops());
    }

    #[test]
    fn bad_journal_is_rejected_typed() {
        let (sch, bufs) = reduce_chain(4);
        let store = fill_chain(&sch, &bufs);
        // Claims op 2 complete while its dependency (op 1) is not.
        let journal = CompletionJournal::from_entries(sch.n_ops(), vec![0, 2]);
        let err = run_single_journaled(&sch, &store, &journal).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Journal(JournalError::DepIncomplete { op: 2, dep: 1 })
        ));
        let err = run_threaded_journaled(&sch, &store, 2, &journal).unwrap_err();
        assert!(matches!(err, ExecError::Journal(_)));
    }

    #[test]
    fn single_and_threaded_journals_are_interchangeable() {
        // Crash on the threaded pool, recover on the single executor.
        let (sch, bufs) = reduce_chain(12);
        let plan = KillPlan::kill_all(4, 4);
        let store = fill_chain(&sch, &bufs);
        let journal = CompletionJournal::for_schedule(&sch);
        match run_threaded_killed(&sch, &store, 4, &journal, &plan) {
            Err(ExecError::Killed { .. }) | Ok(()) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
        resume_single(&sch, &store, &journal).unwrap();
        assert_eq!(acc_value(&store, bufs[0]), 91.0);
    }

    #[test]
    fn wide_fanout_executes_fully() {
        // One producer, 64 independent consumers, one joiner.
        let grid = ProcGrid::single_node(1);
        let mut b = ScheduleBuilder::new(grid, "fan");
        let src = b.private_buf(RankId(0), 8, "src");
        let tmp = b.private_buf(RankId(0), 8, "tmp");
        let root = b.copy(RankId(0), Loc::new(src, 0), Loc::new(tmp, 0), 8, &[], 0);
        let mut mids = Vec::new();
        let mut mid_bufs = Vec::new();
        for i in 0..64 {
            let d = b.private_buf(RankId(0), 8, format!("d{i}"));
            mid_bufs.push(d);
            mids.push(b.copy(RankId(0), Loc::new(src, 0), Loc::new(d, 0), 8, &[root], 1));
        }
        let last = b.private_buf(RankId(0), 8, "last");
        b.copy(
            RankId(0),
            Loc::new(mid_bufs[63], 0),
            Loc::new(last, 0),
            8,
            &mids,
            2,
        );
        let sch = b.finish().freeze();
        let store = BufferStore::new(&sch);
        store.fill(src, 0, &[7; 8]);
        run_threaded(&sch, &store, 8).unwrap();
        assert_eq!(store.read_all(last), vec![7; 8]);
    }
}
