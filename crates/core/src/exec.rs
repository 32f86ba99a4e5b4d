//! The parallel experiment execution engine.
//!
//! The paper's headline artifact is a factorial sweep of "over 170000
//! measurements" (Figure 1). Every measurement is fully deterministic and
//! self-contained — per-run seeds derive from the cell's identity, and
//! every run starts from the exact state of a freshly booted system — so
//! the sweep is embarrassingly parallel *provided the output order does
//! not depend on scheduling*.
//!
//! [`run_indexed_with`] is that engine's one worker loop: a
//! dependency-free thread pool built on [`std::thread::scope`] and an
//! atomic work index over `0..total`, where each worker owns one state
//! for the whole call. Every sweep runs on it through
//! [`run_cell_chunked`]: blocks of a cell's repetitions run against a
//! per-block state built from the worker's previous one — a measurement
//! session re-targeted instead of booted, so a worker boots each
//! simulated stack once, not once per cell — and the results come back in
//! flat `cell × repetition` order at any worker count. [`run_indexed`] is
//! its one-repetition, stateless special case.
//!
//! A driver that folds instead of collecting makes the whole cell one work
//! item and folds inside it, so every fold is per cell and bit-identical
//! at any `jobs` value; nothing is ever sharded by worker.
//!
//! Everywhere, the first failure (by index, not by wall clock) is
//! propagated after in-flight work drains. At most one state lives per
//! worker, and none outlives the call that made it (a driver that calls
//! the engine batch after batch may carry them between its own calls with
//! [`run_cell_chunked_from`]).

// Serving path: a panic here kills a countd worker or a whole sweep, so every
// unwrap, expect, index or panic carries an `#[expect]` with its proof.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::{CoreError, Result};

/// A progress observer: called after each completed work item with
/// `(completed, total)`. Invoked concurrently from worker threads, hence
/// the `Sync` bound; completion order is scheduling-dependent even though
/// the returned results are not.
///
/// The contract the daemon's progress streaming relies on (pinned by unit
/// tests in this module):
///
/// * the callback fires **exactly once per completed item** — never for a
///   skipped item, never twice (`run_cell_chunked` counts items through
///   one shared counter and suppresses the inner engine's reporting, so
///   blocks cannot double-report even when `reps % block != 0`);
/// * `done` values over a successful run are exactly the set
///   `1..=total`, each seen once;
/// * with one worker the calls are the exact ascending sequence
///   `(1, total), (2, total), …, (total, total)`;
/// * with multiple workers the *invocation order* may interleave —
///   two workers can fetch ticks `n` and `n+1` and call back in either
///   order — so consumers must treat `done` as a high-water mark, not
///   assume monotone call order;
/// * `total == 0` (or an empty cell/rep dimension) never invokes the
///   callback at all.
pub type ProgressFn<'a> = &'a (dyn Fn(usize, usize) + Sync);

/// Options controlling how a sweep executes.
///
/// The default runs with one worker per available CPU and no progress
/// reporting; [`RunOptions::sequential`] reproduces the historical
/// single-threaded path exactly.
#[derive(Default, Clone, Copy)]
pub struct RunOptions<'a> {
    /// Worker-thread count. `0` (the default) means one worker per
    /// available CPU ([`std::thread::available_parallelism`]); `1` runs
    /// inline on the calling thread without spawning.
    pub jobs: usize,
    /// Optional progress callback.
    pub progress: Option<ProgressFn<'a>>,
}

impl std::fmt::Debug for RunOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("jobs", &self.jobs)
            .field("progress", &self.progress.map(|_| "Fn"))
            .finish()
    }
}

impl<'a> RunOptions<'a> {
    /// Options with an explicit worker count (`0` = auto).
    pub fn with_jobs(jobs: usize) -> Self {
        RunOptions {
            jobs,
            progress: None,
        }
    }

    /// The single-threaded path: no worker threads are spawned and work
    /// items run inline in index order on the calling thread.
    pub fn sequential() -> Self {
        Self::with_jobs(1)
    }

    /// Attaches a progress callback.
    pub fn with_progress(mut self, progress: ProgressFn<'a>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// The worker count this run will actually use for `total` items:
    /// `jobs` resolved against available parallelism and clamped to the
    /// work count (spawning more workers than items is pure overhead).
    ///
    /// When `jobs` is `0` (auto), the `COUNTERLAB_JOBS` environment
    /// variable overrides the CPU count if it parses as a positive
    /// integer. CI runs the whole test suite under a `COUNTERLAB_JOBS`
    /// matrix of 1 and 4 so that any jobs-dependence in default-option
    /// code paths surfaces as a test failure.
    ///
    /// The variable is read only in the auto case, so an explicit worker
    /// count costs the same — no environment lookup, no allocation — in
    /// every environment.
    pub fn effective_jobs(&self, total: usize) -> usize {
        let env = (self.jobs == 0)
            .then(|| std::env::var("COUNTERLAB_JOBS").ok())
            .flatten();
        self.effective_jobs_with_env(total, env.as_deref())
    }

    /// [`RunOptions::effective_jobs`] with the environment override passed
    /// in explicitly — the pure core, unit-testable without mutating the
    /// process environment (which would race with concurrently running
    /// tests and defeat CI's pinned matrix value).
    fn effective_jobs_with_env(&self, total: usize, env_jobs: Option<&str>) -> usize {
        let requested = if self.jobs == 0 {
            env_jobs
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1)
                })
        } else {
            self.jobs
        };
        requested.clamp(1, total.max(1))
    }
}

/// The one worker loop every engine here runs: `work(state, i)` for each
/// `i` in `0..total`, across the configured workers, where each worker
/// owns one state. `init(workers)` builds the states on the calling
/// thread before any work starts, one call per worker in spawn order
/// (`workers` is how many share the run, so a lone worker can size its
/// buffers for all of it). Returns the states **in spawn order**.
///
/// Workers claim indices from a shared atomic counter, so each worker
/// sees its indices in ascending order. On the first failure the pool
/// stops handing out new indices, already-claimed items run to completion
/// (the drain), and the error with the **smallest index** is returned —
/// independent of scheduling, so a failing sweep fails identically at any
/// `jobs` value. With one worker, items run inline on the calling thread.
///
/// # Errors
///
/// The lowest-index error produced by `work`.
pub fn run_indexed_with<'a, S, N, F>(
    total: usize,
    opts: &RunOptions<'a>,
    mut init: N,
    work: F,
) -> Result<Vec<S>>
where
    S: Send,
    N: FnMut(usize) -> S,
    F: Fn(&mut S, usize) -> Result<()> + Sync,
{
    let jobs = opts.effective_jobs(total);
    if jobs <= 1 {
        let mut state = init(1);
        for i in 0..total {
            work(&mut state, i)?;
            if let Some(progress) = opts.progress {
                progress(i + 1, total);
            }
        }
        return Ok(vec![state]);
    }

    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let first_error: Mutex<Option<(usize, CoreError)>> = Mutex::new(None);

    // Each worker claims indices from the shared counter and keeps its
    // state to itself, so no lock is touched on the success path.
    let worker = |mut state: S| {
        loop {
            if stop.load(Ordering::Acquire) {
                break;
            }
            // Relaxed: a unique-index dispenser; only per-index uniqueness
            // matters (any RMW ordering gives it). Results are published by
            // thread join, not by this atomic.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= total {
                break;
            }
            match work(&mut state, i) {
                Ok(()) => {
                    // Relaxed: a monotone progress counter consumed as a
                    // high-water mark; no data is published under it.
                    let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                    if let Some(progress) = opts.progress {
                        progress(done, total);
                    }
                }
                Err(e) => {
                    // Recover a poisoned lock: the slot only ever holds
                    // a complete `Some((index, error))`, so whatever a
                    // panicking peer left behind is still meaningful.
                    let mut guard = first_error
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    if guard.as_ref().is_none_or(|(at, _)| i < *at) {
                        *guard = Some((i, e));
                    }
                    drop(guard);
                    stop.store(true, Ordering::Release);
                }
            }
        }
        state
    };

    // States come back in spawn order, however the scheduler interleaved
    // the joins.
    let worker = &worker;
    let mut states: Vec<S> = (0..jobs).map(|_| init(jobs)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .drain(..)
            .map(|state| scope.spawn(move || worker(state)))
            .collect();
        for handle in handles {
            #[expect(clippy::expect_used, reason = "re-raise a worker panic: the sweep is lost")]
            states.push(handle.join().expect("engine worker panicked"));
        }
    });

    if let Some((_, e)) = first_error
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(e);
    }
    Ok(states)
}

/// Runs `work(0..total)` across the configured workers and returns the
/// results **in index order**, independent of worker count or scheduling:
/// [`run_cell_chunked`] with one-repetition cells and no state.
///
/// # Errors
///
/// The lowest-index error produced by `work`.
pub fn run_indexed<'a, T, F>(total: usize, opts: &RunOptions<'a>, work: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    run_cell_chunked(total, 1, 1, opts, |_, _, _| Ok(()), |(), i| work(i))
}

/// Runs `cells × reps` work items grouped **by cell**: each block of a
/// cell's repetitions is one work item claimed by one worker, which
/// builds the block's state (`state(prev, cell, first_rep)`, typically a
/// measurement session) and then runs the block's repetitions *in
/// repetition order* against it. Results come back flattened in
/// `cell × repetition` order — the order of a flat loop over
/// `0..cells × reps` — at any worker count.
///
/// `prev` is the state the same worker built for its previous block, or
/// `None` for its first: a measurement session re-targets it through
/// [`crate::measure::MeasurementSession::reuse`] instead of booting a new
/// stack. At most one state lives per worker, and none outlives the call.
///
/// Cells may be split into blocks of `block` repetitions (`block = reps`
/// disables splitting): a sweep with few, expensive cells regains
/// parallelism while a whole block still shares one state. Block
/// boundaries never cross a cell.
///
/// Default repetition-block size for [`run_cell_chunked`] callers whose
/// sweeps have few cells: one state (a booted measurement session)
/// serves up to this many repetitions before the next block — and its
/// worker — takes over, balancing state amortization against
/// parallelism. Grid-scale sweeps (thousands of cells) use
/// `block = reps` instead.
pub const SESSION_REP_BLOCK: usize = 32;

/// `state(prev, cell, first_rep)` builds the block's state, where
/// `first_rep` is the first repetition the block will run (so a session
/// can boot directly armed for it). `work(state, i)` receives the
/// **flat** index `i` (cell `i / reps`, repetition `i % reps`), exactly as
/// a flat engine would hand out. With one worker the results go straight
/// into the returned vector.
///
/// # Errors
///
/// The error of the lowest flat index that fails, at any worker count:
/// blocks are claimed monotonically and a failing block stops at its first
/// failing repetition, so the winning error is the same one the flat
/// engine would report.
pub fn run_cell_chunked<'a, T, S, N, F>(
    cells: usize,
    reps: usize,
    block: usize,
    opts: &RunOptions<'a>,
    state: N,
    work: F,
) -> Result<Vec<T>>
where
    T: Send,
    S: Send,
    N: Fn(Option<S>, usize, usize) -> Result<S> + Sync,
    F: Fn(&mut S, usize) -> Result<T> + Sync,
{
    let mut carried = Vec::new();
    run_cell_chunked_from(&mut carried, cells, reps, block, opts, state, work)
}

/// [`run_cell_chunked`] for a driver that calls the engine repeatedly
/// (batch after batch) and keeps its states between the calls: the
/// workers start from the states in `carried` as their `prev`, and
/// `carried` holds the workers' last states afterwards (after a failure,
/// none).
///
/// # Errors
///
/// As [`run_cell_chunked`].
pub fn run_cell_chunked_from<'a, T, S, N, F>(
    carried: &mut Vec<S>,
    cells: usize,
    reps: usize,
    block: usize,
    opts: &RunOptions<'a>,
    state: N,
    work: F,
) -> Result<Vec<T>>
where
    T: Send,
    S: Send,
    N: Fn(Option<S>, usize, usize) -> Result<S> + Sync,
    F: Fn(&mut S, usize) -> Result<T> + Sync,
{
    if cells == 0 || reps == 0 {
        return Ok(Vec::new());
    }
    let block = block.clamp(1, reps);
    let blocks_per_cell = reps.div_ceil(block);
    let blocks = cells * blocks_per_cell;
    let total = cells * reps;
    let block_len = |g: usize| block.min(reps - (g % blocks_per_cell) * block);
    let completed = AtomicUsize::new(0);
    // States the run has no worker for are dropped with the drain.
    let mut prevs = carried.drain(..);
    let mut workers = run_indexed_with(
        blocks,
        &RunOptions {
            jobs: opts.jobs,
            progress: None,
        },
        move |workers| Worker {
            state: prevs.next(),
            values: Vec::with_capacity(if workers == 1 { total } else { 0 }),
            blocks: Vec::new(),
            solo: workers == 1,
        },
        |w: &mut Worker<S, T>, g| {
            let cell = g / blocks_per_cell;
            let first_rep = (g % blocks_per_cell) * block;
            let next = state(w.state.take(), cell, first_rep)?;
            let st = w.state.insert(next);
            for rep in first_rep..first_rep + block_len(g) {
                w.values.push(work(st, cell * reps + rep)?);
                if let Some(progress) = opts.progress {
                    // Relaxed: a monotone progress counter consumed as a
                    // high-water mark; no data is published under it.
                    progress(completed.fetch_add(1, Ordering::Relaxed) + 1, total);
                }
            }
            if !w.solo {
                w.blocks.push(g);
            }
            Ok(())
        },
    )?;
    carried.extend(workers.iter_mut().filter_map(|w| w.state.take()));
    // A lone worker's values are already in flat order.
    if let [w] = workers.as_mut_slice() {
        return Ok(std::mem::take(&mut w.values));
    }
    let mut owner = vec![0usize; blocks];
    for (i, w) in workers.iter().enumerate() {
        for &g in &w.blocks {
            #[expect(clippy::indexing_slicing, reason = "every block g < blocks ran once")]
            let slot = &mut owner[g];
            *slot = i;
        }
    }
    let mut values: Vec<_> = workers.into_iter().map(|w| w.values.into_iter()).collect();
    let mut out = Vec::with_capacity(total);
    for (g, &i) in owner.iter().enumerate() {
        #[expect(clippy::indexing_slicing, reason = "owners are worker indices")]
        out.extend(values[i].by_ref().take(block_len(g)));
    }
    Ok(out)
}

/// One worker's part of a [`run_cell_chunked_from`] call: its current
/// state, the values of the blocks it ran in the order it ran them, and —
/// when it is not the only worker — which blocks those were.
struct Worker<S, T> {
    state: Option<S>,
    values: Vec<T>,
    blocks: Vec<usize>,
    solo: bool,
}

/// Scheduling class of a job submitted to a [`PriorityPool`].
///
/// countd maps small interactive requests to [`Priority::Interactive`]
/// and large sweeps to [`Priority::Bulk`]; because a bulk *request* is
/// split into many per-cell jobs, an interactive arrival overtakes the
/// sweep at the next job boundary — preemption at chunk granularity, no
/// job is ever interrupted mid-flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Served before any queued bulk work.
    Interactive,
    /// Served only when no interactive work is queued.
    Bulk,
}

type PoolJob = Box<dyn FnOnce() + Send + 'static>;

struct PoolQueues {
    interactive: VecDeque<PoolJob>,
    bulk: VecDeque<PoolJob>,
    shutdown: bool,
}

struct PoolShared {
    queues: Mutex<PoolQueues>,
    ready: Condvar,
}

/// A long-lived two-class worker pool: the serving counterpart of the
/// scoped, run-to-completion engines above.
///
/// [`run_indexed`] and friends spawn workers per sweep and join them
/// before returning — perfect for one caller, useless for a daemon that
/// must multiplex many concurrent requests over one set of cores. The
/// pool inverts that: `N` workers live as long as the pool, callers
/// [`PriorityPool::submit`] boxed jobs tagged with a [`Priority`], and
/// workers always drain the interactive queue before touching the bulk
/// queue. Within one class, jobs run in submission order.
///
/// Dropping the pool finishes **all** queued jobs first (both classes),
/// then joins the workers — a submitted job is never silently dropped,
/// so a request handler blocked on a job's result channel cannot hang.
pub struct PriorityPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for PriorityPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PriorityPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl PriorityPool {
    /// A pool with `workers` threads (`0` = one per available CPU).
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            workers
        };
        let shared = Arc::new(PoolShared {
            queues: Mutex::new(PoolQueues {
                interactive: VecDeque::new(),
                bulk: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        #[expect(clippy::expect_used, reason = "startup only: no threads means no serving")]
        let handles = (0..workers)
            .map(|n| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("countd-worker-{n}"))
                    .spawn(move || Self::worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        PriorityPool {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs waiting in the two queues, not yet claimed by a worker.
    /// countd's degraded mode reads this to shed compute-heavy requests
    /// (`BUSY`) instead of queueing unboundedly behind a saturated pool;
    /// the value is advisory — it can change before the caller acts on
    /// it — which is fine for a load-shedding threshold.
    pub fn queued(&self) -> usize {
        let queues = self
            .shared
            .queues
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        queues.interactive.len() + queues.bulk.len()
    }

    /// Queues `job` at `priority`. Returns immediately; results travel
    /// through whatever channel the job closes over.
    pub fn submit<F>(&self, priority: Priority, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        // Recover a poisoned queue lock: jobs are boxed closures pushed
        // and popped whole, so a panicking worker cannot leave a
        // half-queued job behind.
        let mut queues = self
            .shared
            .queues
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match priority {
            Priority::Interactive => queues.interactive.push_back(Box::new(job)),
            Priority::Bulk => queues.bulk.push_back(Box::new(job)),
        }
        drop(queues);
        self.shared.ready.notify_one();
    }

    fn worker_loop(shared: &PoolShared) {
        loop {
            let job = {
                let mut queues = shared
                    .queues
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                loop {
                    // Interactive first — this single pop order *is* the
                    // priority semantics.
                    if let Some(job) = queues.interactive.pop_front() {
                        break Some(job);
                    }
                    if let Some(job) = queues.bulk.pop_front() {
                        break Some(job);
                    }
                    if queues.shutdown {
                        break None;
                    }
                    queues = shared
                        .ready
                        .wait(queues)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            match job {
                Some(job) => job(),
                None => return,
            }
        }
    }
}

impl Drop for PriorityPool {
    fn drop(&mut self) {
        {
            let mut queues = self
                .shared
                .queues
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            queues.shutdown = true;
        }
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_matches_parallel() {
        let square = |i: usize| Ok(i * i);
        let seq = run_indexed(100, &RunOptions::sequential(), square).unwrap();
        for jobs in [0, 2, 4, 7] {
            let par = run_indexed(100, &RunOptions::with_jobs(jobs), square).unwrap();
            assert_eq!(seq, par, "jobs = {jobs}");
        }
    }

    #[test]
    fn empty_and_single_item() {
        let ok = |i: usize| Ok(i);
        assert!(run_indexed(0, &RunOptions::default(), ok).unwrap().is_empty());
        assert_eq!(run_indexed(1, &RunOptions::with_jobs(8), ok).unwrap(), [0]);
    }

    #[test]
    fn lowest_index_error_wins() {
        let work = |i: usize| -> Result<usize> {
            if i % 10 == 7 {
                Err(CoreError::InvalidConfig(format!("boom at {i}")))
            } else {
                Ok(i)
            }
        };
        // Indices are claimed monotonically, so index 7 — the smallest
        // failing one — is always claimed before any later failure can
        // raise the stop flag, always drains, and wins the min-index
        // compare: the reported error is deterministic at any worker
        // count.
        for jobs in [1, 2, 4, 8] {
            let err = run_indexed(100, &RunOptions::with_jobs(jobs), work).unwrap_err();
            assert!(err.to_string().contains("boom at 7"), "jobs = {jobs}: {err}");
        }
    }

    #[test]
    fn progress_reports_every_item() {
        let seen = AtomicUsize::new(0);
        let total_seen = AtomicUsize::new(0);
        let progress = |done: usize, total: usize| {
            seen.fetch_add(1, Ordering::Relaxed);
            total_seen.store(total, Ordering::Relaxed);
            assert!(done >= 1 && done <= total);
        };
        let opts = RunOptions::with_jobs(3).with_progress(&progress);
        run_indexed(25, &opts, Ok).unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 25);
        assert_eq!(total_seen.load(Ordering::Relaxed), 25);
    }

    #[test]
    fn effective_jobs_resolution() {
        assert_eq!(RunOptions::with_jobs(1).effective_jobs(1000), 1);
        assert_eq!(RunOptions::with_jobs(8).effective_jobs(3), 3);
        assert_eq!(RunOptions::with_jobs(8).effective_jobs(0), 1);
        assert!(RunOptions::with_jobs(0).effective_jobs(1000) >= 1);
    }

    #[test]
    fn error_drains_without_deadlock() {
        // Every item fails: the pool must still terminate and report one.
        let work = |i: usize| -> Result<usize> {
            Err(CoreError::InvalidConfig(format!("all fail ({i})")))
        };
        let err = run_indexed(64, &RunOptions::with_jobs(4), work).unwrap_err();
        assert!(err.to_string().contains("all fail"));
    }

    #[test]
    fn cell_chunked_matches_flat_order_at_any_jobs_and_block() {
        let flat: Vec<usize> = (0..60).map(|i| i * 7).collect();
        for jobs in [1, 2, 4, 8] {
            for block in [1, 3, 5, 100] {
                let got = run_cell_chunked(
                    12,
                    5,
                    block,
                    &RunOptions::with_jobs(jobs),
                    |_, cell, _first| Ok(cell * 1000),
                    |state, i| {
                        assert_eq!(*state / 1000, i / 5, "state belongs to the item's cell");
                        Ok(i * 7)
                    },
                )
                .unwrap();
                assert_eq!(got, flat, "jobs={jobs} block={block}");
            }
        }
    }

    #[test]
    fn cell_chunked_state_runs_reps_in_order() {
        // Within a cell, repetitions must hit the state sequentially and
        // in repetition order (that is what lets a session be reused).
        let got = run_cell_chunked(
            4,
            6,
            6,
            &RunOptions::with_jobs(4),
            |_, _c, _first| Ok(Vec::<usize>::new()),
            |seen, i| {
                seen.push(i % 6);
                assert_eq!(seen.len(), i % 6 + 1, "reps in order within the cell");
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(got.len(), 24);
    }

    #[test]
    fn cell_chunked_lowest_flat_index_error_wins() {
        for jobs in [1, 2, 4, 8] {
            let err = run_cell_chunked(
                10,
                4,
                2,
                &RunOptions::with_jobs(jobs),
                |_, _c, _first| Ok(()),
                |(), i| {
                    if i >= 13 {
                        Err(CoreError::InvalidConfig(format!("chunk boom at {i}")))
                    } else {
                        Ok(i)
                    }
                },
            )
            .unwrap_err();
            assert!(
                err.to_string().contains("chunk boom at 13"),
                "jobs={jobs}: {err}"
            );
        }
    }

    /// Each worker's blocks see the state the same worker built for its
    /// previous block (`None` only for a worker's first block), with the
    /// flat output order and the lowest-index error unchanged.
    #[test]
    fn cell_chunked_hands_each_worker_its_previous_state() {
        for jobs in [1, 4] {
            let firsts = AtomicUsize::new(0);
            // A state is the list of blocks its worker has built so far.
            let state = |prev: Option<Vec<usize>>, cell: usize, first: usize| {
                let block = cell * 3 + first / 2;
                let mut built = match prev {
                    Some(built) => built,
                    None => {
                        firsts.fetch_add(1, Ordering::Relaxed);
                        Vec::new()
                    }
                };
                if jobs == 1 {
                    assert_eq!(
                        built,
                        (0..block).collect::<Vec<_>>(),
                        "the previous block's state"
                    );
                }
                // Workers claim blocks in ascending order.
                assert!(
                    built.last().is_none_or(|&b| b < block),
                    "{built:?} then {block}"
                );
                built.push(block);
                Ok(built)
            };
            let got = run_cell_chunked(
                20,
                5,
                2,
                &RunOptions::with_jobs(jobs),
                state,
                |built: &mut Vec<usize>, i| {
                    assert_eq!(built.last(), Some(&((i / 5) * 3 + (i % 5) / 2)));
                    Ok(i)
                },
            )
            .unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>(), "jobs = {jobs}");
            assert!(
                (1..=jobs).contains(&firsts.load(Ordering::Relaxed)),
                "jobs = {jobs}"
            );

            let err = run_cell_chunked(
                20,
                5,
                2,
                &RunOptions::with_jobs(jobs),
                |_, _, _| Ok(()),
                |(), i| {
                    if i == 37 || i == 71 {
                        Err(CoreError::InvalidConfig(format!("reuse boom at {i}")))
                    } else {
                        Ok(i)
                    }
                },
            )
            .unwrap_err();
            assert!(
                err.to_string().contains("reuse boom at 37"),
                "jobs = {jobs}: {err}"
            );
        }
    }

    /// A driver that calls the engine batch after batch keeps its states:
    /// the workers start from the carried states, and the carried list
    /// holds their last states afterwards.
    #[test]
    fn cell_chunked_from_carries_states_between_calls() {
        let mut carried = vec![100usize];
        let got = run_cell_chunked_from(
            &mut carried,
            3,
            2,
            2,
            &RunOptions::sequential(),
            |prev, cell, _| Ok(prev.expect("carried in") + cell),
            |st: &mut usize, i| Ok((*st, i)),
        )
        .unwrap();
        assert_eq!(
            got,
            [(100, 0), (100, 1), (101, 2), (101, 3), (103, 4), (103, 5)]
        );
        assert_eq!(carried, [103]);
        let mut carried = vec![10usize, 20];
        run_cell_chunked_from(
            &mut carried,
            8,
            1,
            1,
            &RunOptions::with_jobs(4),
            |prev: Option<usize>, _, _| Ok(prev.unwrap_or(0) + 1),
            |_, i| Ok(i),
        )
        .unwrap();
        // A worker that claimed no block hands back what it was given.
        assert!(
            (2..=4).contains(&carried.len()),
            "at most one state per worker"
        );
        assert_eq!(
            carried.iter().sum::<usize>(),
            10 + 20 + 8,
            "every block built on its worker's state"
        );
        let failed = run_cell_chunked_from(
            &mut carried,
            2,
            1,
            1,
            &RunOptions::sequential(),
            |prev, _, _| Ok(prev.unwrap_or(0)),
            |_, _| -> Result<()> { Err(CoreError::NoData("boom")) },
        );
        assert!(failed.is_err());
        assert!(carried.is_empty(), "a failed run keeps no state");
    }

    #[test]
    fn cell_chunked_empty_dimensions() {
        let none = run_cell_chunked(
            0,
            5,
            5,
            &RunOptions::default(),
            |_, _, _| Ok(()),
            |(), i| Ok(i),
        )
        .unwrap();
        assert!(none.is_empty());
        let zero_reps = run_cell_chunked(
            5,
            0,
            1,
            &RunOptions::default(),
            |_, _, _| -> Result<()> { panic!("state must not be built for zero reps") },
            |(), i| Ok(i),
        )
        .unwrap();
        assert!(zero_reps.is_empty());
    }

    #[test]
    fn cell_chunked_progress_reports_every_item() {
        let seen = AtomicUsize::new(0);
        let progress = |done: usize, total: usize| {
            seen.fetch_add(1, Ordering::Relaxed);
            assert!(done >= 1 && done <= total);
            assert_eq!(total, 30);
        };
        let opts = RunOptions::with_jobs(3).with_progress(&progress);
        run_cell_chunked(6, 5, 5, &opts, |_, _, _| Ok(()), |(), i| Ok(i)).unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 30);
    }

    /// Satellite audit of the chunked-session progress accounting: with
    /// one worker the callback sequence is *exactly* ascending, even when
    /// `reps % block != 0` — the case where a cell spans a full block
    /// plus a remainder block and a double-report would show up as a
    /// repeated `done` value.
    #[test]
    fn cell_chunked_progress_sequence_pinned_sequential() {
        let calls = Mutex::new(Vec::new());
        let progress = |done: usize, total: usize| {
            calls.lock().unwrap().push((done, total));
        };
        // 3 cells × 7 reps, block 5 → per cell one 5-block + one 2-block.
        let opts = RunOptions::sequential().with_progress(&progress);
        run_cell_chunked(3, 7, 5, &opts, |_, _, _| Ok(()), |(), i| Ok(i)).unwrap();
        let expected: Vec<(usize, usize)> = (1..=21).map(|done| (done, 21)).collect();
        assert_eq!(*calls.lock().unwrap(), expected);
    }

    /// At any worker count the `done` values of a successful run are a
    /// permutation of `1..=total`: exactly once each, no double-reports
    /// from remainder blocks, no missing ticks.
    #[test]
    fn cell_chunked_progress_is_permutation_with_ragged_blocks() {
        for (jobs, cells, reps, block) in
            [(4, 3, 7, 5), (8, 5, 9, 4), (2, 1, 33, SESSION_REP_BLOCK)]
        {
            let total = cells * reps;
            let calls = Mutex::new(Vec::new());
            let progress = |done: usize, reported_total: usize| {
                assert_eq!(reported_total, total);
                calls.lock().unwrap().push(done);
            };
            let opts = RunOptions::with_jobs(jobs).with_progress(&progress);
            run_cell_chunked(cells, reps, block, &opts, |_, _, _| Ok(()), |(), i| Ok(i)).unwrap();
            let mut seen = calls.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(
                seen,
                (1..=total).collect::<Vec<_>>(),
                "jobs={jobs} cells={cells} reps={reps} block={block}"
            );
        }
    }

    /// Empty dimensions must never invoke the callback — a daemon
    /// streaming progress frames would otherwise emit a bogus tick for a
    /// request that has no work.
    #[test]
    fn cell_chunked_progress_silent_when_empty() {
        let progress = |done: usize, total: usize| {
            panic!("progress({done}, {total}) called for empty work");
        };
        for (cells, reps) in [(0, 5), (5, 0), (0, 0)] {
            let opts = RunOptions::with_jobs(4).with_progress(&progress);
            let out =
                run_cell_chunked(cells, reps, 3, &opts, |_, _, _| Ok(()), |(), i| Ok(i)).unwrap();
            assert!(out.is_empty());
        }
        run_indexed(0, &RunOptions::with_jobs(4).with_progress(&progress), Ok).unwrap();
    }

    #[test]
    fn pool_runs_all_jobs_before_drop_returns() {
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = PriorityPool::new(4);
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.submit(Priority::Bulk, move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // joins after draining both queues
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn pool_interactive_preempts_queued_bulk() {
        // One worker, deterministically: a blocker job holds the worker
        // while bulk jobs and then one interactive job queue up behind
        // it. When the gate opens, the interactive job must run before
        // every already-queued bulk job.
        let order = Arc::new(Mutex::new(Vec::new()));
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let pool = PriorityPool::new(1);
        pool.submit(Priority::Bulk, move || {
            gate_rx.recv().expect("gate");
        });
        for n in 0..5 {
            let order = Arc::clone(&order);
            pool.submit(Priority::Bulk, move || {
                order.lock().unwrap().push(format!("bulk-{n}"));
            });
        }
        {
            let order = Arc::clone(&order);
            pool.submit(Priority::Interactive, move || {
                order.lock().unwrap().push("interactive".to_string());
            });
        }
        gate_tx.send(()).expect("open gate");
        drop(pool);
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 6);
        assert_eq!(
            order[0], "interactive",
            "interactive must overtake queued bulk work: {order:?}"
        );
    }

    #[test]
    fn pool_zero_workers_means_auto() {
        let pool = PriorityPool::new(0);
        assert!(pool.workers() >= 1);
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        pool.submit(Priority::Interactive, move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        drop(pool);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn env_var_overrides_auto_jobs() {
        // `jobs = 0` honors COUNTERLAB_JOBS; explicit jobs ignore it.
        // Tested through the pure core so the process environment (which
        // CI pins for its jobs matrix) is never touched.
        let auto = RunOptions::with_jobs(0);
        assert_eq!(auto.effective_jobs_with_env(100, Some("3")), 3);
        assert_eq!(auto.effective_jobs_with_env(2, Some("3")), 2, "clamped to total");
        assert!(auto.effective_jobs_with_env(100, Some("not-a-number")) >= 1);
        assert!(auto.effective_jobs_with_env(100, Some("0")) >= 1);
        assert!(auto.effective_jobs_with_env(100, None) >= 1);
        let explicit = RunOptions::with_jobs(2);
        assert_eq!(explicit.effective_jobs_with_env(100, Some("7")), 2);
    }
}
