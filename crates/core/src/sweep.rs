//! The one sweep runner.
//!
//! Every measurement sweep — the factorial grid, the duration, cycle and
//! cache sweeps, the workload zoo — is a [`Plan`]: a cell count, the runs
//! per cell, a run-block size, what each cell measures and the seed of
//! each run. The runner owns the rest: one [`MeasurementSession`] per
//! worker, re-targeted from block to block and armed for each block's
//! first run; the flat-index arithmetic; and the lowest-index error at
//! any worker count. Results come back in one of three shapes: every
//! record in plan order ([`Plan::records`]), one fold per cell
//! ([`Plan::fold`]), or a bounded in-order stream ([`Plan::stream`]).
//!
//! The runner's engine is private to this module, and so is re-targeting
//! a session to another cell, so a plan is the only way to run
//! measurements in bulk. The engine is a dependency-free thread pool on
//! [`std::thread::scope`] and an atomic index over the blocks: each worker
//! claims blocks in ascending order and runs each on the state it built
//! from its previous block's. The values come back in plan order
//! whatever order the cells ran in and however many workers ran them; on
//! the first failure the pool hands out no more blocks, lets the claimed
//! ones drain and returns the error of the lowest index.
//!
//! A session is re-targeted only to a cell on its processor × interface
//! stack, so [`Plan::records`] and [`Plan::fold`] run the blocks in *stack
//! order* — the cells grouped by stack, the stacks in order of first
//! appearance, each stack's cells in plan order — and a worker boots each
//! stack at most once, however the plan interleaves them (on one worker,
//! the zoo sweep, whose interface varies fastest, boots 6 stacks instead
//! of 144). Each result still lands at its plan position, and the seeds
//! are per (cell, rep), so no record changes. [`Plan::stream`] is the
//! exception: it runs in plan order, which its bounded batches depend on.
//!
//! [`Plan::measure`] is the one per-run switch. When it is set, each run
//! goes through that function instead of a session: [`run_measurement`]
//! there is the fresh-boot oracle the session path is checked against, and
//! the error-path tests pass failing functions through the same code.

// Serving path: a panic here kills a countd worker or a whole sweep, so every
// unwrap, expect, index or panic carries an `#[expect]` with its proof.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::benchmark::Benchmark;
use crate::config::MeasurementConfig;
use crate::exec::RunOptions;
use crate::interface::Interface;
use crate::measure::{run_measurement, MeasurementSession, Record};
use crate::{CoreError, Result};
use counterlab_cpu::uarch::Processor;

/// A function that measures one run in place of the worker's session,
/// such as [`run_measurement`] (one fresh boot per run).
pub type Measure<'a> = &'a (dyn Fn(&MeasurementConfig, Benchmark) -> Result<Record> + Sync);

/// Runs per block for sweeps with few cells: one session serves up to
/// this many runs before the next block — and its worker — takes over,
/// balancing boot amortization against parallelism. Grid-scale sweeps
/// (thousands of cells) use `block = reps` instead.
pub const SESSION_REP_BLOCK: usize = 32;

/// Cells per batch of [`Plan::stream`]: memory stays bounded at
/// `STREAM_CELL_BATCH × reps` records while each batch still feeds every
/// worker.
const STREAM_CELL_BATCH: usize = 256;

/// A worker's state: its session, or none when runs go through
/// [`Plan::measure`].
type State = Option<MeasurementSession>;

/// The processor × interface stacks a session can run on.
const STACKS: usize = Processor::ALL.len() * Interface::ALL.len();

/// A plan's `cell` closure: cell index → (configuration, benchmark).
pub trait CellFn: Fn(usize) -> (MeasurementConfig, Benchmark) + Sync {}

impl<F: Fn(usize) -> (MeasurementConfig, Benchmark) + Sync> CellFn for F {}

/// A plan's `seed` closure: (cell index, rep) → seed.
pub trait SeedFn: Fn(usize, usize) -> u64 + Sync {}

impl<F: Fn(usize, usize) -> u64 + Sync> SeedFn for F {}

/// What a sweep measures, and how its runs are grouped.
///
/// Building a plan allocates nothing: `cell` and `seed` are closures over
/// data the producer already holds.
pub struct Plan<'a, C, S> {
    /// Number of cells.
    pub cells: usize,
    /// Runs per cell.
    pub reps: usize,
    /// Runs per block: a block runs in rep order on one worker's session.
    /// `reps` keeps every cell whole; a smaller block regains parallelism
    /// in a sweep with few cells.
    pub block: usize,
    /// Cell `i`'s configuration (its `seed` is ignored) and benchmark.
    pub cell: C,
    /// The seed of run `rep` of cell `cell`: `seed(cell, rep)`.
    pub seed: S,
    /// Runs every measurement through this function instead of the
    /// worker's session. `None`, the default, uses sessions.
    pub measure: Option<Measure<'a>>,
}

impl<C: CellFn, S: SeedFn> Plan<'_, C, S> {
    /// A plan whose runs go through sessions.
    pub fn new(cells: usize, reps: usize, block: usize, cell: C, seed: S) -> Self {
        Plan { cells, reps, block, cell, seed, measure: None }
    }

    /// Every record, in plan order (cell × rep) at any worker count; the
    /// cells run in stack order.
    ///
    /// # Errors
    ///
    /// The failure of the lowest failing run index.
    pub fn records(&self, opts: &RunOptions) -> Result<Vec<Record>> {
        self.in_stack_order(|order| self.run_cells(&mut Vec::new(), order, 0, self.cells, opts))
    }

    /// Folds each cell's records, in rep order, into one accumulator:
    /// `init(cell)`, then `step` per record. A whole cell is one work item,
    /// so every accumulator is bit-identical at any worker count. The
    /// cells run in stack order; the folds come back in plan order.
    ///
    /// # Errors
    ///
    /// The failure of the lowest failing cell; within a cell, the first
    /// failing run aborts it.
    pub fn fold<A, I, F>(&self, opts: &RunOptions, init: I, step: F) -> Result<Vec<A>>
    where
        A: Send,
        I: Fn(usize) -> A + Sync,
        F: Fn(&mut A, &Record) + Sync,
    {
        // One work item per cell: one "repetition" per cell in the engine's
        // terms, which runs all of the cell's runs.
        let session = |prev, cell, _| self.session(prev, cell, 0);
        let fold = |session: &mut State, cell| {
            let mut acc = init(cell);
            for rep in 0..self.reps {
                step(&mut acc, &self.run(session, cell, rep)?);
            }
            Ok(acc)
        };
        self.in_stack_order(|order| {
            run_cell_chunked_from(&mut Vec::new(), order, self.cells, 1, 1, opts, session, fold)
        })
    }

    /// Hands every record to `each` in plan order, holding at most one
    /// batch of `STREAM_CELL_BATCH` (256) cells' records; the workers'
    /// sessions carry over from batch to batch. Unlike [`Plan::records`],
    /// the cells run in plan order. Returns the number of records.
    ///
    /// # Errors
    ///
    /// As [`Plan::records`]; the records before the failing batch have
    /// been handed on.
    pub fn stream(&self, opts: &RunOptions, mut each: impl FnMut(&Record)) -> Result<usize> {
        let opts = RunOptions::with_jobs(opts.effective_jobs(self.cells * self.reps));
        let mut sessions = Vec::new();
        for start in (0..self.cells).step_by(STREAM_CELL_BATCH) {
            let len = STREAM_CELL_BATCH.min(self.cells - start);
            self.run_cells(&mut sessions, None, start, len, &opts)?.iter().for_each(&mut each);
        }
        Ok(self.cells * self.reps)
    }

    /// Runs `run` with the cells in stack order (`None` when plan order
    /// already is one). A failure runs it again in plan order, so that the
    /// error is the lowest plan index's, as the runner promises, and not
    /// the first one stack order met; runs are pure functions of their
    /// configuration, so the second pass fails the same way.
    fn in_stack_order<T>(&self, run: impl Fn(Option<Vec<u32>>) -> Result<T>) -> Result<T> {
        match self.stack_order() {
            Some(order) => run(Some(order)).or_else(|_| run(None)),
            None => run(None),
        }
    }

    /// The cells in stack order: grouped by processor × interface, the
    /// stacks in order of first appearance, each stack's cells in plan
    /// order. `None` when the plan already runs each stack's cells
    /// together (every grid does), or has too many cells for `u32`.
    #[expect(clippy::indexing_slicing, reason = "stacks < STACKS, slots < cells")]
    fn stack_order(&self) -> Option<Vec<u32>> {
        // Per stack: its cell count, then the slot of its next cell.
        let mut slot = [0usize; STACKS];
        let mut firsts = [0usize; STACKS];
        let (mut stacks, mut grouped, mut last) = (0, true, STACKS);
        for cell in 0..self.cells {
            let stack = self.stack(cell);
            if slot[stack] == 0 {
                firsts[stacks] = stack;
                stacks += 1;
            } else if stack != last {
                grouped = false;
            }
            slot[stack] += 1;
            last = stack;
        }
        if grouped || u32::try_from(self.cells).is_err() {
            return None;
        }
        let mut next = 0;
        for &stack in &firsts[..stacks] {
            next += std::mem::replace(&mut slot[stack], next);
        }
        let mut order = vec![0; self.cells];
        for cell in 0..self.cells {
            let stack = self.stack(cell);
            order[slot[stack]] = cell as u32;
            slot[stack] += 1;
        }
        Some(order)
    }

    /// Cell `cell`'s processor × interface stack, below [`STACKS`].
    fn stack(&self, cell: usize) -> usize {
        let (config, _) = (self.cell)(cell);
        config.processor as usize * Interface::ALL.len() + config.interface as usize
    }

    /// Cells `start..start + len`, run in `order` (relative to `start`) if
    /// given, returned in plan order, on the workers' `sessions`.
    fn run_cells(
        &self,
        sessions: &mut Vec<State>,
        order: Option<Vec<u32>>,
        start: usize,
        len: usize,
        opts: &RunOptions,
    ) -> Result<Vec<Record>> {
        run_cell_chunked_from(
            sessions,
            order,
            len,
            self.reps,
            self.block,
            opts,
            |prev, c, first_rep| self.session(prev, start + c, first_rep),
            |session, i| self.run(session, start + i / self.reps, i % self.reps),
        )
    }

    /// The state for a block of `cell` starting at run `rep`: the worker's
    /// previous session re-targeted (or a new boot), armed for that run.
    fn session(&self, prev: Option<State>, cell: usize, rep: usize) -> Result<State> {
        if self.measure.is_some() {
            return Ok(None);
        }
        let (config, benchmark) = self.config(cell, rep);
        MeasurementSession::reuse(prev.flatten(), &config, benchmark).map(Some)
    }

    /// Run `rep` of `cell`, on the session if there is one.
    fn run(&self, session: &mut State, cell: usize, rep: usize) -> Result<Record> {
        if let Some(session) = session {
            return session.run((self.seed)(cell, rep));
        }
        let (config, benchmark) = self.config(cell, rep);
        self.measure.unwrap_or(&run_measurement)(&config, benchmark)
    }

    /// Cell `cell`'s configuration seeded for run `rep`, and its benchmark.
    fn config(&self, cell: usize, rep: usize) -> (MeasurementConfig, Benchmark) {
        let (config, benchmark) = (self.cell)(cell);
        let seed = (self.seed)(cell, rep);
        (MeasurementConfig { seed, ..config }, benchmark)
    }
}

/// Runs `cells × reps` runs grouped **by cell**: each block of up to
/// `block` of a cell's repetitions (`block = reps` keeps a cell whole; no
/// block crosses a cell) is one work item claimed by one worker, which
/// builds the block's state with `state(prev, cell, first_rep)` and then
/// runs the block's repetitions *in repetition order* against it.
/// `work(state, i)` receives the flat index `i` (cell `i / reps`,
/// repetition `i % reps`), and the results come back in that flat
/// `cell × repetition` order at any worker count.
///
/// `prev` is the state the same worker built for its previous block: at a
/// worker's first block, one of the states in `carried`, or `None`.
/// Afterwards `carried` holds the workers' last states (after a failure,
/// none), so that a driver calling the engine batch after batch keeps
/// them. At most one state lives per worker.
///
/// `order`, when given, is the order the cells run in: a permutation of
/// `0..cells`, whose position `p` names the cell that runs `p`-th. The
/// results still come back in flat order, each cell's swapped into place.
///
/// With one worker, the blocks run inline on the calling thread and the
/// results go straight into the returned vector.
///
/// # Errors
///
/// The error of the first failing run in run order at any worker count
/// (the lowest flat index when `order` is `None`): blocks are claimed
/// monotonically and a failing block stops at its first failing
/// repetition.
#[expect(clippy::too_many_arguments, reason = "the engine's one entry point")]
// Kept out of line: inlined into its callers, it measured slower `null_csv`
// set-ups and `zoo_sweep` runs in alternating perfbench pairs.
#[inline(never)]
fn run_cell_chunked_from<T, S, N, F>(
    carried: &mut Vec<S>,
    order: Option<Vec<u32>>,
    cells: usize,
    reps: usize,
    block: usize,
    opts: &RunOptions,
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
    let run_block = |w: &mut Worker<S, T>, g: usize| {
        let at = g / blocks_per_cell;
        #[expect(clippy::indexing_slicing, reason = "`order` is a permutation of the cells")]
        let cell = order.as_ref().map_or(at, |order| order[at] as usize);
        let first_rep = (g % blocks_per_cell) * block;
        let next = state(w.state.take(), cell, first_rep)?;
        let st = w.state.insert(next);
        for rep in first_rep..first_rep + block_len(g) {
            w.values.push(work(st, cell * reps + rep)?);
        }
        Ok(())
    };

    let jobs = opts.effective_jobs(blocks);
    // States the run has no worker for are dropped with the drain.
    let mut prevs = carried.drain(..);
    let mut worker = |values| Worker { state: prevs.next(), values, blocks: Vec::new() };
    let mut workers = if jobs == 1 {
        let mut solo = worker(Vec::with_capacity(total));
        for g in 0..blocks {
            run_block(&mut solo, g)?;
        }
        vec![solo]
    } else {
        let mut workers: Vec<_> = (0..jobs).map(|_| worker(Vec::new())).collect();
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let first_error: Mutex<Option<(usize, CoreError)>> = Mutex::new(None);
        // Each worker claims blocks from the shared counter and keeps its
        // state to itself, so no lock is touched on the success path.
        let work_loop = |mut w: Worker<S, T>| {
            while !stop.load(Ordering::Acquire) {
                // Relaxed: a unique-index dispenser; only per-index
                // uniqueness matters (any RMW ordering gives it). Results
                // are published by thread join, not by this atomic.
                let g = next.fetch_add(1, Ordering::Relaxed);
                if g >= blocks {
                    break;
                }
                match run_block(&mut w, g) {
                    Ok(()) => w.blocks.push(g),
                    Err(e) => {
                        // Recover a poisoned lock: the slot only ever holds
                        // a complete `Some((index, error))`, so whatever a
                        // panicking peer left behind is still meaningful.
                        let mut guard = first_error.lock().unwrap_or_else(PoisonError::into_inner);
                        if guard.as_ref().is_none_or(|(at, _)| g < *at) {
                            *guard = Some((g, e));
                        }
                        drop(guard);
                        stop.store(true, Ordering::Release);
                    }
                }
            }
            w
        };
        let work_loop = &work_loop;
        std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .drain(..)
                .map(|w| scope.spawn(move || work_loop(w)))
                .collect();
            for handle in handles {
                #[expect(clippy::expect_used, reason = "re-raise a worker panic: the sweep is lost")]
                workers.push(handle.join().expect("engine worker panicked"));
            }
        });
        if let Some((_, e)) = first_error.into_inner().unwrap_or_else(PoisonError::into_inner) {
            return Err(e);
        }
        workers
    };
    drop(prevs);
    carried.extend(workers.iter_mut().filter_map(|w| w.state.take()));
    let mut out = run_order_values(workers, blocks, total, block_len);
    if let Some(order) = order {
        unpermute(&mut out, reps, order);
    }
    Ok(out)
}

/// The workers' values in the order their blocks ran.
fn run_order_values<S, T>(
    mut workers: Vec<Worker<S, T>>,
    blocks: usize,
    total: usize,
    block_len: impl Fn(usize) -> usize,
) -> Vec<T> {
    // A lone worker's values are already in run order.
    if let [w] = workers.as_mut_slice() {
        return std::mem::take(&mut w.values);
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
    out
}

/// Puts `values`, whose `p`-th chunk of `reps` holds the results of cell
/// `order[p]`, into cell order in place: each swap moves one chunk to its
/// cell's slot, and `order` tracks what each slot holds.
#[expect(clippy::indexing_slicing, reason = "`order` is a permutation of the chunks")]
fn unpermute<T>(values: &mut [T], reps: usize, mut order: Vec<u32>) {
    for p in 0..order.len() {
        loop {
            let cell = order[p] as usize;
            if cell == p {
                break;
            }
            let (lo, hi) = (p.min(cell), p.max(cell));
            let (head, tail) = values.split_at_mut(hi * reps);
            head[lo * reps..(lo + 1) * reps].swap_with_slice(&mut tail[..reps]);
            order.swap(p, cell);
        }
    }
}

/// One worker's part of a [`run_cell_chunked_from`] call: its current
/// state, the values of the blocks it ran in the order it ran them, and —
/// when it shares the run with other workers — which blocks those were.
struct Worker<S, T> {
    state: Option<S>,
    values: Vec<T>,
    blocks: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{cache, cycles, duration, workload};
    use crate::grid::Grid;
    use crate::interface::{CountingMode, Interface};
    use crate::pattern::Pattern;
    use counterlab_cpu::uarch::Processor;

    /// The engine with one-repetition cells and no state: `work(0..total)`,
    /// results in index order.
    fn run_indexed<T: Send>(
        total: usize,
        opts: &RunOptions,
        work: impl Fn(usize) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        run_cell_chunked(total, 1, 1, opts, |_, _, _| Ok(()), |(), i| work(i))
    }

    /// The engine for one call: no carried states, cells in plan order.
    fn run_cell_chunked<T: Send, S: Send>(
        cells: usize,
        reps: usize,
        block: usize,
        opts: &RunOptions,
        state: impl Fn(Option<S>, usize, usize) -> Result<S> + Sync,
        work: impl Fn(&mut S, usize) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        run_cell_chunked_from(&mut Vec::new(), None, cells, reps, block, opts, state, work)
    }

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
            None,
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
            None,
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
            None,
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

    /// Under an `order`, the blocks run in that order — each worker still
    /// sees its blocks' states in the order it ran them — and the results
    /// come back in flat cell × repetition order at any worker count and
    /// block size, with the first failure in run order reported.
    #[test]
    fn cell_chunked_runs_in_order_and_returns_flat_order() {
        let order: Vec<u32> = vec![3, 0, 5, 1, 4, 2, 6];
        let flat: Vec<usize> = (0..35).collect();
        for jobs in [1, 2, 4, 8] {
            for block in [1, 2, 5] {
                let ran = Mutex::new(Vec::new());
                let got = run_cell_chunked_from(
                    &mut Vec::new(),
                    Some(order.clone()),
                    7,
                    5,
                    block,
                    &RunOptions::with_jobs(jobs),
                    |_, cell, first| {
                        ran.lock().unwrap().push((cell, first));
                        Ok(cell)
                    },
                    |cell: &mut usize, i| {
                        assert_eq!(*cell, i / 5, "state belongs to the item's cell");
                        Ok(i)
                    },
                )
                .unwrap();
                assert_eq!(got, flat, "jobs={jobs} block={block}");
                let mut ran = ran.into_inner().unwrap();
                let mut blocks: Vec<(usize, usize)> = order
                    .iter()
                    .flat_map(|&c| (0..5).step_by(block).map(move |first| (c as usize, first)))
                    .collect();
                if jobs == 1 {
                    assert_eq!(ran, blocks, "block={block}: blocks run in order");
                }
                ran.sort_unstable();
                blocks.sort_unstable();
                assert_eq!(ran, blocks, "jobs={jobs} block={block}: every block ran once");
            }
            let err = run_cell_chunked_from(
                &mut Vec::new(),
                Some(order.clone()),
                7,
                5,
                2,
                &RunOptions::with_jobs(jobs),
                |_, _, _| Ok(()),
                |(), i| {
                    if i == 7 || i == 16 {
                        Err(CoreError::InvalidConfig(format!("order boom at {i}")))
                    } else {
                        Ok(i)
                    }
                },
            )
            .unwrap_err();
            // Cell 3 (flat 15..20) runs first, before cell 1 (flat 5..10).
            assert!(err.to_string().contains("order boom at 16"), "jobs = {jobs}: {err}");
        }
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

    /// The session path gives the plan the records fresh boots give it, at
    /// jobs 1 and 4, and the fold and the stream see those same records.
    fn check<'a, C: CellFn, S: SeedFn>(make: impl Fn() -> Plan<'a, C, S>, what: &str) {
        let plan = make();
        let fresh = Plan {
            measure: Some(&run_measurement),
            ..make()
        };
        for jobs in [1, 4] {
            let opts = RunOptions::with_jobs(jobs);
            let records = plan.records(&opts).unwrap();
            assert_eq!(records.len(), plan.cells * plan.reps, "{what}");
            assert_eq!(records, fresh.records(&opts).unwrap(), "{what}: jobs {jobs}");
            let folded = plan
                .fold(&opts, |_| Vec::new(), |acc, r| acc.push(*r))
                .unwrap();
            assert_eq!(folded.concat(), records, "{what}: fold, jobs {jobs}");
            let mut streamed = Vec::new();
            let n = plan.stream(&opts, |r| streamed.push(*r)).unwrap();
            assert_eq!((n, streamed), (records.len(), records), "{what}: stream, jobs {jobs}");
        }
    }

    #[test]
    fn every_producer_plan_runs_the_same_on_sessions_and_fresh_boots() {
        let mut grid = Grid::new(crate::benchmark::Benchmark::Null);
        grid.interfaces = vec![Interface::Pm, Interface::Pc, Interface::PHpc];
        grid.patterns = Pattern::ALL.to_vec();
        grid.modes = vec![CountingMode::User, CountingMode::UserKernel];
        grid.reps = 3;
        let cells: Vec<_> = grid.cells().collect();
        check(|| grid.plan(&cells), "grid");
        let zoo = workload::cells();
        check(|| workload::plan(&zoo, 2), "workload");
        let sizes = [1_000, 100_000];
        for mode in [CountingMode::UserKernel, CountingMode::User] {
            check(|| duration::slopes_plan(mode, &sizes, 2, 250), "fig7/8");
        }
        let (pc, cd) = (Interface::Pc, Processor::Core2Duo);
        check(|| duration::sweep_plan(pc, cd, CountingMode::UserKernel, &sizes, 3), "sweep");
        let builds = cycles::builds(Interface::Pm);
        let k8 = Processor::AthlonK8;
        check(|| cycles::panel_plan(Interface::Pm, k8, &builds, &sizes, 2), "fig12");
        check(|| cache::plan(k8, 32_000, 4), "ext-cache");
    }

    /// The zoo's interface varies fastest: stack order runs each
    /// interface's cells together, in plan order, the interfaces in order
    /// of first appearance. A grid's cells are grouped already.
    #[test]
    fn stack_order_groups_each_stack_in_plan_order() {
        let zoo = workload::cells();
        let n = Interface::ALL.len();
        let want: Vec<u32> = (0..n)
            .flat_map(|i| (i..zoo.len()).step_by(n))
            .map(|c| c as u32)
            .collect();
        assert_eq!(workload::plan(&zoo, 2).stack_order(), Some(want));
        let mut grid = Grid::new(crate::benchmark::Benchmark::Null);
        grid.processors = Processor::ALL.to_vec();
        grid.interfaces = Interface::ALL.to_vec();
        let cells: Vec<_> = grid.cells().collect();
        assert_eq!(grid.plan(&cells).stack_order(), None);
    }

    /// 40 runs per cell in blocks of 32: each cell's second block is
    /// ragged, and boots armed for run 32.
    #[test]
    fn ragged_blocks_run_the_same_on_sessions_and_fresh_boots() {
        let sizes = [1, 50_000, 100_000];
        let plan = duration::fig9_plan(Processor::Core2Duo, &sizes, 40);
        assert_eq!((plan.reps, plan.block), (40, SESSION_REP_BLOCK));
        check(|| duration::fig9_plan(Processor::Core2Duo, &sizes, 40), "fig9");
    }
}
