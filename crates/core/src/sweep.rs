//! The one sweep runner.
//!
//! Every measurement sweep — the factorial grid, the duration, cycle and
//! cache sweeps, the workload zoo — is a [`Plan`]: a cell count, the runs
//! per cell, a run-block size, what each cell measures and the seed of
//! each run. The runner owns the rest, on
//! [`exec::run_cell_chunked_from`]: one [`MeasurementSession`] per worker,
//! re-targeted from block to block and armed for each block's first run;
//! the flat-index arithmetic; and the lowest-index error at any worker
//! count. Results come back in one of three shapes: every record in plan
//! order ([`Plan::records`]), one fold per cell ([`Plan::fold`]), or a
//! bounded in-order stream ([`Plan::stream`]).
//!
//! [`Plan::measure`] is the one per-run switch. When it is set, each run
//! goes through that function instead of a session: [`run_measurement`]
//! there is the fresh-boot oracle the session path is checked against, and
//! the error-path tests pass failing functions through the same code.

// Serving path: a panic here kills a countd worker or a whole sweep, so every
// unwrap, expect, index or panic carries an `#[expect]` with its proof.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use crate::benchmark::Benchmark;
use crate::config::MeasurementConfig;
use crate::exec::{self, RunOptions};
use crate::measure::{run_measurement, MeasurementSession, Record};
use crate::Result;

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

#[expect(clippy::disallowed_methods, reason = "this is the runner the rule sends sweeps to")]
impl<C: CellFn, S: SeedFn> Plan<'_, C, S> {
    /// A plan whose runs go through sessions.
    pub fn new(cells: usize, reps: usize, block: usize, cell: C, seed: S) -> Self {
        Plan { cells, reps, block, cell, seed, measure: None }
    }

    /// Every record, in plan order (cell × rep) at any worker count.
    ///
    /// # Errors
    ///
    /// The failure of the lowest failing run index.
    pub fn records(&self, opts: &RunOptions) -> Result<Vec<Record>> {
        self.run_cells(&mut Vec::new(), 0, self.cells, opts)
    }

    /// Folds each cell's records, in rep order, into one accumulator:
    /// `init(cell)`, then `step` per record. A whole cell is one work item,
    /// so every accumulator is bit-identical at any worker count.
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
        exec::run_cell_chunked(self.cells, 1, 1, opts, session, |session, cell| {
            let mut acc = init(cell);
            for rep in 0..self.reps {
                step(&mut acc, &self.run(session, cell, rep)?);
            }
            Ok(acc)
        })
    }

    /// Hands every record to `each` in plan order, holding at most one
    /// batch of `STREAM_CELL_BATCH` (256) cells' records; the workers'
    /// sessions carry over from batch to batch. Returns the number of
    /// records.
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
            self.run_cells(&mut sessions, start, len, &opts)?.iter().for_each(&mut each);
        }
        Ok(self.cells * self.reps)
    }

    /// Cells `start..start + len` in plan order, on the workers' `sessions`.
    fn run_cells(
        &self,
        sessions: &mut Vec<State>,
        start: usize,
        len: usize,
        opts: &RunOptions,
    ) -> Result<Vec<Record>> {
        exec::run_cell_chunked_from(
            sessions,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{cache, cycles, duration, workload};
    use crate::grid::Grid;
    use crate::interface::{CountingMode, Interface};
    use crate::pattern::Pattern;
    use counterlab_cpu::uarch::Processor;

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
