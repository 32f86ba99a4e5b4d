//! The experiment grid: the full factorial sweep of §3.
//!
//! The paper's Figure 1 summarizes “over 170000 measurements performed on
//! a large number of different infrastructures and configurations”.
//! [`Grid`] enumerates such factorial spaces, skips impossible cells
//! (high-level PAPI with read-first patterns, more counters than the
//! processor has, TSC-off on non-perfctr stacks) and runs every cell with
//! deterministic per-cell seeds.

// Serving path: a panic here kills a countd worker or a whole sweep, so every
// unwrap, expect, index or panic carries an `#[expect]` with its proof.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use counterlab_cpu::pmu::Event;
use counterlab_cpu::uarch::Processor;
use counterlab_stats::descriptive::Summary;
use counterlab_stats::stream::SummaryAccumulator;

use crate::benchmark::Benchmark;
use crate::config::{MeasurementConfig, OptLevel};
use crate::exec::RunOptions;
use crate::interface::{CountingMode, Interface};
use crate::measure::{run_measurement, Record};
use crate::pattern::Pattern;
use crate::sweep::{CellFn, Measure, Plan, SeedFn};
use crate::Result;

/// A factorial experiment specification.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Processors to sweep.
    pub processors: Vec<Processor>,
    /// Interfaces to sweep.
    pub interfaces: Vec<Interface>,
    /// Patterns to sweep (unsupported combinations are skipped).
    pub patterns: Vec<Pattern>,
    /// Optimization levels to sweep.
    pub opt_levels: Vec<OptLevel>,
    /// Counter counts to sweep (cells exceeding a processor's registers
    /// are skipped).
    pub counter_counts: Vec<usize>,
    /// TSC settings to sweep; `false` is only meaningful for `pc` and is
    /// skipped elsewhere.
    pub tsc_settings: Vec<bool>,
    /// Counting modes to sweep.
    pub modes: Vec<CountingMode>,
    /// Measured event.
    pub event: Event,
    /// Benchmark to run in every cell.
    pub benchmark: Benchmark,
    /// Repetitions per cell (distinct seeds).
    pub reps: usize,
    /// Base seed; per-run seeds derive deterministically from it.
    pub base_seed: u64,
    /// Timer frequency.
    pub hz: u32,
    /// Boot one fresh simulated stack **per run** ([`run_measurement`],
    /// through [`Plan::measure`]) instead of running each worker's cells
    /// on its [`MeasurementSession`](crate::measure::MeasurementSession).
    /// The session path (the default) is bit-identical and much faster;
    /// the fresh-boot path is kept as the equivalence oracle the session
    /// path is verified against, and for `repro bench`'s before/after
    /// comparison.
    pub fresh_boot: bool,
}

impl Grid {
    /// A minimal single-cell grid, to be customized.
    pub fn new(benchmark: Benchmark) -> Self {
        Grid {
            processors: vec![Processor::Core2Duo],
            interfaces: vec![Interface::Pm],
            patterns: vec![Pattern::StartRead],
            opt_levels: vec![OptLevel::O2],
            counter_counts: vec![1],
            tsc_settings: vec![true],
            modes: vec![CountingMode::User],
            event: Event::InstructionsRetired,
            benchmark,
            reps: 1,
            base_seed: 0x6121D,
            hz: 250,
            fresh_boot: false,
        }
    }

    /// The full §3 space on the null benchmark: all processors, all six
    /// interfaces, all patterns, all optimization levels, 1–4 counters,
    /// both modes. `reps` scales the run count.
    pub fn full_null(reps: usize) -> Self {
        Grid {
            processors: Processor::ALL.to_vec(),
            interfaces: Interface::ALL.to_vec(),
            patterns: Pattern::ALL.to_vec(),
            opt_levels: OptLevel::ALL.to_vec(),
            counter_counts: vec![1, 2, 3, 4],
            // TSC off applies to the direct perfctr interface only (the
            // grid skips it elsewhere), matching §4.1's sweep.
            tsc_settings: vec![true, false],
            modes: vec![CountingMode::User, CountingMode::UserKernel],
            event: Event::InstructionsRetired,
            benchmark: Benchmark::Null,
            reps,
            base_seed: 0x6121D,
            hz: 250,
            fresh_boot: false,
        }
    }

    /// Rejects grid specifications that look runnable but can only
    /// mislead. Every run entry point calls this first.
    ///
    /// Today there is one rule: a `0` in [`Grid::counter_counts`] is an
    /// error, not a skip. The cell enumerator used to drop zero-counter
    /// cells silently, so a request for them produced an
    /// empty-but-plausible result set — locally that's a puzzled user,
    /// but over countd's wire it's indistinguishable from a real answer.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::ZeroCounters`].
    pub fn validate(&self) -> Result<()> {
        if self.counter_counts.contains(&0) {
            return Err(crate::CoreError::ZeroCounters);
        }
        Ok(())
    }

    /// Number of cells that will actually run (after skipping impossible
    /// combinations).
    pub fn cell_count(&self) -> usize {
        self.cells().count()
    }

    /// Total number of measurements (`cells × reps`).
    pub fn run_count(&self) -> usize {
        self.cell_count() * self.reps
    }

    /// Iterates the valid cells lazily, in the canonical enumeration
    /// order (processor, interface, pattern, optimization level, counter
    /// count, TSC setting, mode). Nothing is materialized: counting cells
    /// allocates no memory, and callers that need random access (the
    /// execution engine) collect exactly once.
    pub fn cells(&self) -> impl Iterator<Item = MeasurementConfig> + '_ {
        self.processors.iter().flat_map(move |&processor| {
            let avail = processor.uarch().programmable_counters;
            self.interfaces.iter().flat_map(move |&interface| {
                self.patterns
                    .iter()
                    .filter(move |&&pattern| interface.supports(pattern))
                    .flat_map(move |&pattern| {
                        self.opt_levels.iter().flat_map(move |&opt_level| {
                            self.counter_counts
                                .iter()
                                .filter(move |&&counters| counters != 0 && counters <= avail)
                                .flat_map(move |&counters| {
                                    self.tsc_settings
                                        .iter()
                                        .filter(move |&&tsc_on| {
                                            tsc_on || interface == Interface::Pc
                                        })
                                        .flat_map(move |&tsc_on| {
                                            self.modes.iter().map(move |&mode| {
                                                MeasurementConfig {
                                                    processor,
                                                    interface,
                                                    pattern,
                                                    opt_level,
                                                    counters,
                                                    tsc_on,
                                                    mode,
                                                    event: self.event,
                                                    seed: 0, // assigned per rep
                                                    hz: self.hz,
                                                }
                                            })
                                        })
                                })
                        })
                    })
            })
        })
    }

    /// Runs the whole grid through the execution engine with default
    /// options (one worker per available CPU) and returns every record.
    ///
    /// # Errors
    ///
    /// Propagates the first measurement failure (valid cells shouldn't
    /// fail; a failure indicates a bug, not an expected condition).
    pub fn run(&self) -> Result<Vec<Record>> {
        self.run_with(&RunOptions::default())
    }

    /// The grid's sweep plan over `cells`, which should come from
    /// [`Grid::cells`]: each run seeded from [`Grid::base_seed`], the cell
    /// and the repetition; every cell one block, so all its repetitions
    /// run on one worker's
    /// [`MeasurementSession`](crate::measure::MeasurementSession); and,
    /// under [`Grid::fresh_boot`], one [`run_measurement`] boot per run.
    pub fn plan<'a>(
        &'a self,
        cells: &'a [MeasurementConfig],
    ) -> Plan<'a, impl CellFn + 'a, impl SeedFn + 'a> {
        #[expect(clippy::indexing_slicing, reason = "the runner asks for cells < cells.len()")]
        let (cell, seed) = (
            move |c: usize| (cells[c], self.benchmark),
            move |c: usize, rep: usize| per_run_seed(self.base_seed, &cells[c], rep),
        );
        let fresh = self.fresh_boot.then_some(&run_measurement as Measure<'a>);
        Plan { measure: fresh, ..Plan::new(cells.len(), self.reps, self.reps, cell, seed) }
    }

    /// Runs the whole grid with explicit [`RunOptions`].
    ///
    /// Work is distributed **cell-chunked**: all repetitions of a cell run
    /// on one worker against one
    /// [`MeasurementSession`](crate::measure::MeasurementSession), which
    /// the worker re-targets to its next cell when that cell runs on the same
    /// processor × interface (or one fresh boot per run when
    /// [`Grid::fresh_boot`] is set). Records come back in
    /// cell-enumeration × repetition order no matter how many workers run
    /// them: `jobs = 1`, `jobs = N`, [`Grid::run`] and both boot policies
    /// all produce byte-identical record vectors.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::ZeroCounters`] if the specification fails
    /// [`Grid::validate`]; otherwise propagates the lowest-index
    /// measurement failure (see [`Plan::records`]).
    pub fn run_with(&self, opts: &RunOptions) -> Result<Vec<Record>> {
        self.validate()?;
        let cells: Vec<MeasurementConfig> = self.cells().collect();
        let plan = self.plan(&cells);
        plan.records(opts)
    }

    /// Runs **one** cell's repetitions, in repetition order, honoring
    /// [`Grid::fresh_boot`]: a one-cell plan on one worker. The records are
    /// exactly the slice of [`Grid::run_with`]'s output belonging to this
    /// cell — this is the unit of work countd computes and caches per cell
    /// key, and the per-cell/whole-grid identity is pinned by a unit test.
    ///
    /// `cell` should come from [`Grid::cells`] (its `seed` field is
    /// ignored; per-repetition seeds derive from [`Grid::base_seed`]).
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::ZeroCounters`] if the specification fails
    /// [`Grid::validate`] or the cell itself requests zero counters;
    /// otherwise the first failing repetition.
    pub fn run_cell(&self, cell: &MeasurementConfig) -> Result<Vec<Record>> {
        self.validate()?;
        if cell.counters == 0 {
            return Err(crate::CoreError::ZeroCounters);
        }
        self.plan(std::slice::from_ref(cell)).records(&RunOptions::sequential())
    }

    /// Streams the whole grid into **one accumulator per cell** instead of
    /// materializing `cells × reps` records: the streaming engine's main
    /// entry point.
    ///
    /// Each cell is one work item — its repetitions run in rep order on
    /// one worker's session (re-targeted from cell to cell as in
    /// [`Grid::run_with`]) and fold into that cell's accumulator via
    /// `step` — so the result is **bit-identical at any worker count**.
    /// Resident memory is `O(cells × |A|)` regardless of the repetition
    /// count.
    ///
    /// Returns `(cell configuration, accumulator)` pairs in cell
    /// enumeration order; the configuration carries `seed = 0` (the cell's
    /// canonical identity — per-run seeds vary by repetition).
    ///
    /// # Errors
    ///
    /// Propagates the lowest-cell-index measurement failure; within a
    /// cell, the first failing repetition aborts that cell.
    pub fn run_fold<A, I, S>(
        &self,
        opts: &RunOptions,
        init: I,
        step: S,
    ) -> Result<Vec<(MeasurementConfig, A)>>
    where
        A: Send,
        I: Fn(&MeasurementConfig) -> A + Sync,
        S: Fn(&mut A, &Record) + Sync,
    {
        self.validate()?;
        let cells: Vec<MeasurementConfig> = self.cells().collect();
        #[expect(clippy::indexing_slicing, reason = "the runner folds cells < cells.len()")]
        let accs = self.plan(&cells).fold(opts, |c| init(&cells[c]), step)?;
        Ok(cells.into_iter().zip(accs).collect())
    }

    /// Runs the grid and summarizes each cell's error distribution in one
    /// pass: the streaming replacement for collecting records and calling
    /// [`Summary::from_slice`](counterlab_stats::descriptive::Summary::from_slice)
    /// per cell.
    ///
    /// # Errors
    ///
    /// Propagates measurement failures; [`crate::CoreError::NoData`] if
    /// `reps == 0`.
    pub fn run_summaries(&self, opts: &RunOptions) -> Result<Vec<CellSummary>> {
        if self.reps == 0 {
            return Err(crate::CoreError::NoData("grid with zero reps"));
        }
        let folded = self.run_fold(
            opts,
            |_| SummaryAccumulator::new(),
            |acc, record| acc.push(record.error() as f64),
        )?;
        folded
            .into_iter()
            .map(|(config, acc)| {
                Ok(CellSummary {
                    summary: acc.finish().map_err(crate::CoreError::from)?,
                    config,
                    accumulator: acc,
                })
            })
            .collect()
    }

    /// Streams the grid's records straight into CSV lines, in the exact
    /// byte order of
    /// [`records_to_csv`](crate::report::records_to_csv)`(`[`Grid::run_with`]`)`,
    /// holding only a bounded batch of cells' records in memory
    /// ([`Plan::stream`]): `repro csv` writes the whole grid at `O(1)`
    /// memory in the record count. [`Grid::fresh_boot`] runs the same
    /// loop with one boot per run.
    ///
    /// The sink contract: `sink` is called once with
    /// [`CSV_HEADER`](crate::report::CSV_HEADER), then once per record in
    /// flat (cell × repetition) order, each call carrying exactly one
    /// `\n`-terminated line. The record lines are written by
    /// [`write_csv_line`](crate::report::write_csv_line) into one reused
    /// buffer, so the `&str` is only valid for the call. Returns the
    /// number of record lines.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-index measurement failure.
    pub fn run_csv<S>(&self, opts: &RunOptions, mut sink: S) -> Result<usize>
    where
        S: FnMut(&str),
    {
        self.validate()?;
        let cells: Vec<MeasurementConfig> = self.cells().collect();
        sink(crate::report::CSV_HEADER);
        let mut line = String::with_capacity(crate::report::LINE_CAPACITY);
        let plan = self.plan(&cells);
        plan.stream(opts, |record| {
            line.clear();
            crate::report::write_csv_line(&mut line, record);
            sink(&line);
        })
    }
}

/// One cell's streamed error summary: the per-cell output of
/// [`Grid::run_summaries`].
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// The cell's canonical configuration (`seed = 0`).
    pub config: MeasurementConfig,
    /// The closed summary of the cell's `reps` error observations.
    pub summary: Summary,
    /// The still-mergeable accumulator behind the summary (pool cells by
    /// merging these in cell order for deterministic group summaries).
    pub accumulator: SummaryAccumulator,
}

/// Deterministic per-run seed from the base seed, the cell's identity and
/// the repetition index (a [`counterlab_cpu::hash::seed_combine`] chain —
/// the exact sequence is pinned by that module's unit tests and by the
/// golden CSV).
fn per_run_seed(base: u64, cell: &MeasurementConfig, rep: usize) -> u64 {
    use counterlab_cpu::hash::seed_combine;
    let mut h = base ^ 0x9E37_79B9_7F4A_7C15;
    for v in [
        cell.processor as u64,
        cell.interface as u64,
        cell.pattern as u64,
        cell.opt_level as u64,
        cell.counters as u64,
        u64::from(cell.tsc_on),
        cell.mode as u64,
        rep as u64,
    ] {
        h = seed_combine(h, v);
    }
    h
}

/// Filtering and grouping helpers over record sets.
pub trait RecordSet {
    /// Errors of all records, in order.
    fn errors(&self) -> Vec<f64>;
    /// Records matching a predicate.
    fn filtered(&self, pred: impl Fn(&Record) -> bool) -> Vec<Record>;
}

impl RecordSet for [Record] {
    fn errors(&self) -> Vec<f64> {
        self.iter().map(|r| r.error() as f64).collect()
    }

    fn filtered(&self, pred: impl Fn(&Record) -> bool) -> Vec<Record> {
        self.iter().filter(|r| pred(r)).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_skipping_rules() {
        let mut g = Grid::new(Benchmark::Null);
        g.processors = vec![Processor::Core2Duo];
        g.interfaces = vec![Interface::PHpm, Interface::Pc];
        g.patterns = Pattern::ALL.to_vec();
        g.counter_counts = vec![1, 3]; // 3 > CD's 2 → skipped
        g.tsc_settings = vec![true, false]; // false only valid for pc
                                            // PHpm: 2 patterns × 1 counter × 1 tsc = 2 cells
                                            // pc: 4 patterns × 1 counter × 2 tsc = 8 cells
        assert_eq!(g.cell_count(), 10);
    }

    #[test]
    fn run_produces_records() {
        let mut g = Grid::new(Benchmark::Null);
        g.interfaces = vec![Interface::Pm, Interface::Pc];
        g.patterns = vec![Pattern::StartRead, Pattern::ReadRead];
        g.modes = vec![CountingMode::User, CountingMode::UserKernel];
        g.reps = 3;
        g.hz = 0;
        let records = g.run().unwrap();
        assert_eq!(records.len(), g.run_count());
        assert!(records.iter().all(|r| r.error() > 0));
    }

    #[test]
    fn per_run_seeds_differ() {
        let g = Grid::new(Benchmark::Null);
        let cell = g.cells().next().unwrap();
        let s: std::collections::BTreeSet<u64> =
            (0..50).map(|rep| per_run_seed(1, &cell, rep)).collect();
        assert_eq!(s.len(), 50);
    }

    #[test]
    fn reruns_are_identical() {
        let mut g = Grid::new(Benchmark::Null);
        g.reps = 2;
        g.hz = 0;
        let a = g.run().unwrap();
        let b = g.run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn full_null_grid_is_large() {
        let g = Grid::full_null(1);
        // 3 processors × 6 interfaces × patterns × 4 opts × counters × 2
        // modes, minus skips: must be in the thousands.
        assert!(g.cell_count() > 1_000, "cells = {}", g.cell_count());
    }

    #[test]
    fn run_summaries_match_batch_per_cell() {
        let mut g = Grid::new(Benchmark::Null);
        g.interfaces = vec![Interface::Pm, Interface::Pc];
        g.patterns = vec![Pattern::StartRead, Pattern::ReadRead];
        g.reps = 5;
        g.hz = 0;
        let records = g.run().unwrap();
        for jobs in [1, 4] {
            let cells = g.run_summaries(&RunOptions::with_jobs(jobs)).unwrap();
            assert_eq!(cells.len(), g.cell_count());
            for (ci, cell) in cells.iter().enumerate() {
                let batch: Vec<f64> = records[ci * g.reps..(ci + 1) * g.reps]
                    .iter()
                    .map(|r| r.error() as f64)
                    .collect();
                let expected =
                    counterlab_stats::descriptive::Summary::from_slice(&batch).unwrap();
                assert_eq!(cell.summary.n(), g.reps);
                assert_eq!(cell.summary.median(), expected.median(), "cell {ci}");
                assert_eq!(cell.summary.min(), expected.min());
                assert_eq!(cell.summary.max(), expected.max());
            }
        }
    }

    #[test]
    fn run_fold_is_jobs_invariant() {
        let mut g = Grid::new(Benchmark::Null);
        g.interfaces = vec![Interface::Pm, Interface::PLpc];
        g.patterns = Pattern::ALL.to_vec();
        g.reps = 3;
        let fold = |opts: &RunOptions| {
            g.run_fold(opts, |_| Vec::new(), |acc: &mut Vec<i64>, r| acc.push(r.error()))
                .unwrap()
        };
        let seq = fold(&RunOptions::sequential());
        for jobs in [2, 4, 8] {
            let par = fold(&RunOptions::with_jobs(jobs));
            assert_eq!(seq.len(), par.len());
            for ((ca, va), (cb, vb)) in seq.iter().zip(&par) {
                assert_eq!(ca, cb);
                assert_eq!(va, vb, "jobs = {jobs}");
            }
        }
    }

    #[test]
    fn run_csv_matches_batch_bytes() {
        // The sink contract: one newline-terminated line per call (the
        // header, then one per record in flat order), concatenating to
        // the batch CSV, for both boot policies at jobs 1 and 4.
        let mut g = Grid::new(Benchmark::Null);
        g.interfaces = vec![Interface::Pm, Interface::Pc];
        g.patterns = vec![Pattern::StartRead, Pattern::ReadStop];
        g.reps = 4;
        for fresh in [false, true] {
            g.fresh_boot = fresh;
            for jobs in [1, 4] {
                let opts = RunOptions::with_jobs(jobs);
                let batch = crate::report::records_to_csv(&g.run_with(&opts).unwrap());
                let mut calls = Vec::new();
                let n = g
                    .run_csv(&opts, |line| calls.push(line.to_string()))
                    .unwrap();
                assert_eq!(n, g.run_count());
                assert_eq!(calls.len(), n + 1, "fresh_boot = {fresh}, jobs = {jobs}");
                for line in &calls {
                    assert!(line.ends_with('\n'), "{line:?}");
                    assert_eq!(line.matches('\n').count(), 1, "{line:?}");
                }
                assert_eq!(calls.concat(), batch, "fresh_boot = {fresh}, jobs = {jobs}");
            }
        }
    }

    #[test]
    fn session_and_fresh_boot_paths_bit_identical() {
        // The acceptance identity at the grid level: the session engine
        // (default) and the fresh-boot oracle produce the same records,
        // fold results and CSV bytes at jobs 1 and 4.
        let mut g = Grid::new(Benchmark::Null);
        g.interfaces = vec![Interface::Pm, Interface::Pc, Interface::PHpc];
        g.patterns = Pattern::ALL.to_vec();
        g.modes = vec![CountingMode::User, CountingMode::UserKernel];
        g.reps = 3;
        let mut oracle = g.clone();
        oracle.fresh_boot = true;
        for jobs in [1, 4] {
            let opts = RunOptions::with_jobs(jobs);
            assert_eq!(g.run_with(&opts).unwrap(), oracle.run_with(&opts).unwrap());
            let fold =
                |grid: &Grid| grid.run_fold(&opts, |_| Vec::new(), |a: &mut Vec<i64>, r| {
                    a.push(r.error());
                });
            assert_eq!(fold(&g).unwrap(), fold(&oracle).unwrap(), "jobs {jobs}");
            let csv = |grid: &Grid| {
                let mut s = String::new();
                let n = grid.run_csv(&opts, |line| s.push_str(line)).unwrap();
                (n, s)
            };
            assert_eq!(csv(&g), csv(&oracle), "jobs {jobs}");
        }
    }

    #[test]
    fn run_summaries_zero_reps_is_no_data() {
        let mut g = Grid::new(Benchmark::Null);
        g.reps = 0;
        assert!(matches!(
            g.run_summaries(&RunOptions::sequential()),
            Err(crate::CoreError::NoData(_))
        ));
    }

    #[test]
    fn run_cell_concatenation_matches_run_with() {
        // The per-cell unit countd caches must tile the whole-grid output
        // exactly, for both boot policies.
        let mut g = Grid::new(Benchmark::Null);
        g.interfaces = vec![Interface::Pm, Interface::Pc];
        g.patterns = vec![Pattern::StartRead, Pattern::ReadRead];
        g.reps = 3;
        g.hz = 0;
        for fresh in [false, true] {
            g.fresh_boot = fresh;
            let whole = g.run().unwrap();
            let tiled: Vec<Record> = g
                .cells()
                .flat_map(|cell| g.run_cell(&cell).unwrap())
                .collect();
            assert_eq!(tiled, whole, "fresh_boot = {fresh}");
        }
    }

    #[test]
    fn zero_counter_axis_is_rejected_not_skipped() {
        let mut g = Grid::new(Benchmark::Null);
        g.counter_counts = vec![0, 1];
        // The enumerator still skips (pure function), but every run entry
        // point refuses the specification with the typed error.
        assert_eq!(g.cell_count(), 1);
        assert!(matches!(g.validate(), Err(crate::CoreError::ZeroCounters)));
        assert!(matches!(g.run(), Err(crate::CoreError::ZeroCounters)));
        assert!(matches!(
            g.run_fold(&RunOptions::sequential(), |_| 0u64, |_, _| {}),
            Err(crate::CoreError::ZeroCounters)
        ));
        assert!(matches!(
            g.run_csv(&RunOptions::sequential(), |_| {}),
            Err(crate::CoreError::ZeroCounters)
        ));
        let cell = g.cells().next().unwrap();
        let bad = MeasurementConfig { counters: 0, ..cell };
        g.counter_counts = vec![1];
        assert!(matches!(
            g.run_cell(&bad),
            Err(crate::CoreError::ZeroCounters)
        ));
    }

    #[test]
    fn record_set_helpers() {
        let mut g = Grid::new(Benchmark::Null);
        g.reps = 2;
        g.hz = 0;
        let records = g.run().unwrap();
        assert_eq!(records.errors().len(), records.len());
        let only_ar = records.filtered(|r| r.config.pattern == Pattern::StartRead);
        assert_eq!(only_ar.len(), records.len());
    }
}
