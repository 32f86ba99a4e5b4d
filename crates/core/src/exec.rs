//! How sweeps are scheduled: the worker count, and countd's worker pool.
//!
//! The paper's headline artifact is a factorial sweep of "over 170000
//! measurements" (Figure 1). Every measurement is fully deterministic and
//! self-contained — per-run seeds derive from the cell's identity, and
//! every run starts from the exact state of a freshly booted system — so
//! the sweep is embarrassingly parallel *provided the output order does
//! not depend on scheduling*.
//!
//! [`RunOptions`] is how many workers a sweep uses. The sweeps themselves
//! run in [`crate::sweep`], whose runner is private to that module: a
//! [`Plan`](crate::sweep::Plan) is the only way to run measurements in
//! bulk, and its results do not depend on the worker count.
//! [`PriorityPool`] is countd's long-lived two-class pool, which runs
//! requests, not sweeps.

// Serving path: a panic here kills a countd worker, so every unwrap, expect,
// index or panic carries an `#[expect]` with its proof.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Options controlling how a sweep executes.
///
/// The default runs with one worker per available CPU;
/// [`RunOptions::sequential`] reproduces the historical single-threaded
/// path exactly.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunOptions {
    /// Worker-thread count. `0` (the default) means one worker per
    /// available CPU ([`std::thread::available_parallelism`]); `1` runs
    /// inline on the calling thread without spawning.
    pub jobs: usize,
}

impl RunOptions {
    /// Options with an explicit worker count (`0` = auto).
    pub fn with_jobs(jobs: usize) -> Self {
        RunOptions { jobs }
    }

    /// The single-threaded path: no worker threads are spawned and work
    /// items run inline in index order on the calling thread.
    pub fn sequential() -> Self {
        Self::with_jobs(1)
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
/// sweep runner's scoped, run-to-completion workers.
///
/// A [`Plan`](crate::sweep::Plan) spawns workers per sweep and joins them
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn effective_jobs_resolution() {
        assert_eq!(RunOptions::with_jobs(1).effective_jobs(1000), 1);
        assert_eq!(RunOptions::with_jobs(8).effective_jobs(3), 3);
        assert_eq!(RunOptions::with_jobs(8).effective_jobs(0), 1);
        assert!(RunOptions::with_jobs(0).effective_jobs(1000) >= 1);
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
