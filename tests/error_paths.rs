//! Error-path coverage for the sweep runner's contract: the
//! [`CoreError::CounterWentBackwards`] failure introduced at the measure
//! layer must propagate unchanged through the record path *and* the
//! per-cell fold path, and at any worker count the error that surfaces
//! is the one with the **lowest index** (cell-enumeration × repetition
//! order for records, cell order for folds) — never whichever worker
//! happened to fail first on the wall clock.
//!
//! The injection goes through the runner's one per-run switch,
//! [`Plan::measure`] — the switch [`Grid::fresh_boot`] sets — on the
//! grid's own plan, so the real plumbing — cell enumeration, per-run
//! seeding, the engine's stop flag, drain, and min-index reduction — is
//! what's under test; only the innermost measurement call is replaced.

use counterlab::benchmark::Benchmark;
use counterlab::config::MeasurementConfig;
use counterlab::exec::{self, RunOptions};
use counterlab::grid::Grid;
use counterlab::interface::{CountingMode, Interface};
use counterlab::measure::run_measurement;
use counterlab::pattern::Pattern;
use counterlab::sweep::Plan;
use counterlab::CoreError;
use counterlab_cpu::uarch::Processor;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The synthetic failure: the exact variant the measure layer raises for
/// a backwards counter, tagging the failing index into the `first`
/// reading so the assertions can see *which* failure won.
fn backwards_at(index: usize) -> CoreError {
    CoreError::CounterWentBackwards {
        pattern: "rr",
        first: index as u64,
        second: 0,
    }
}

/// A grid with several hundred runs across interfaces and patterns.
fn test_grid() -> Grid {
    let mut g = Grid::new(Benchmark::Null);
    g.interfaces = vec![Interface::Pm, Interface::Pc, Interface::PLpm];
    g.patterns = vec![Pattern::StartRead, Pattern::ReadRead];
    g.modes = vec![CountingMode::User, CountingMode::UserKernel];
    g.reps = 4;
    g
}

/// Maps a seeded per-run config back to its cell's enumeration index
/// (everything but the seed identifies the cell).
fn cell_index_of(cells: &[MeasurementConfig], cfg: &MeasurementConfig) -> usize {
    cells
        .iter()
        .position(|c| {
            c.processor == cfg.processor
                && c.interface == cfg.interface
                && c.pattern == cfg.pattern
                && c.opt_level == cfg.opt_level
                && c.counters == cfg.counters
                && c.tsc_on == cfg.tsc_on
                && c.mode == cfg.mode
        })
        .expect("config comes from this grid")
}

#[test]
fn backwards_counter_propagates_through_run_with() {
    // Every measurement reports a backwards counter: the grid must
    // surface the variant unchanged (not wrapped, not swallowed) at any
    // worker count.
    let g = test_grid();
    let cells: Vec<MeasurementConfig> = g.cells().collect();
    for jobs in [1, 2, 4, 8] {
        let plan = Plan {
            measure: Some(&|_: &MeasurementConfig, _| Err(backwards_at(0))),
            ..g.plan(&cells)
        };
        let err = plan.records(&RunOptions::with_jobs(jobs)).unwrap_err();
        assert!(
            matches!(err, CoreError::CounterWentBackwards { .. }),
            "jobs = {jobs}: {err}"
        );
    }
}

#[test]
fn lowest_run_index_wins_in_record_path() {
    // Fail every run whose per-cell call order puts it at overall label
    // 23 or later. Labels within a cell are a permutation of that cell's
    // engine indices (reps of one cell may be claimed by racing workers),
    // but the *lowest* failing engine index always lies in the cell that
    // carries label 23, and that cell fails exactly once — with label 23.
    // So the winning error must carry 23 at every worker count.
    let g = test_grid();
    let cells: Vec<MeasurementConfig> = g.cells().collect();
    let reps = g.reps;
    for jobs in [1, 2, 4, 8] {
        let calls_per_cell: Vec<AtomicUsize> =
            (0..cells.len()).map(|_| AtomicUsize::new(0)).collect();
        let measure = |cfg: &MeasurementConfig, benchmark| {
            let record = run_measurement(cfg, benchmark)?;
            let ci = cell_index_of(&cells, cfg);
            let call = calls_per_cell[ci].fetch_add(1, Ordering::Relaxed);
            let label = ci * reps + call;
            if label >= 23 {
                return Err(backwards_at(label));
            }
            Ok(record)
        };
        let plan = Plan {
            measure: Some(&measure),
            ..g.plan(&cells)
        };
        let err = plan.records(&RunOptions::with_jobs(jobs)).unwrap_err();
        match err {
            CoreError::CounterWentBackwards { first, .. } => {
                assert_eq!(first, 23, "jobs = {jobs}: wrong failure won");
            }
            other => panic!("jobs = {jobs}: unexpected error {other}"),
        }
    }
}

#[test]
fn lowest_cell_wins_in_fold_path() {
    let g = test_grid();
    let cells: Vec<MeasurementConfig> = g.cells().collect();
    assert!(cells.len() > 10);
    // Fail every read-read cell; the runner must report the lowest *cell*
    // index's error — the first rr cell in enumeration order, which
    // belongs to the first interface (pm).
    let measure = |cfg: &MeasurementConfig, benchmark| {
        if cfg.pattern == Pattern::ReadRead {
            return Err(CoreError::CounterWentBackwards {
                pattern: cfg.pattern.code(),
                first: cfg.interface as u64,
                second: 0,
            });
        }
        run_measurement(cfg, benchmark)
    };
    for jobs in [1, 2, 4, 8] {
        let plan = Plan {
            measure: Some(&measure),
            ..g.plan(&cells)
        };
        let err = plan
            .fold(&RunOptions::with_jobs(jobs), |_| 0u64, |acc, _| *acc += 1)
            .unwrap_err();
        match err {
            CoreError::CounterWentBackwards { pattern, first, .. } => {
                assert_eq!(pattern, "rr", "jobs = {jobs}");
                assert_eq!(first, Interface::Pm as u64, "jobs = {jobs}");
            }
            other => panic!("jobs = {jobs}: unexpected error {other}"),
        }
    }
}

/// A zoo-style plan: eight workloads × three interfaces, the interface
/// varying fastest, so the runner runs its cells in stack order (every
/// pm cell, then every pc cell, then every PLpm cell). Each run's seed
/// names its cell and rep. Cells 8 (PLpm) and 15 (pm) fail from rep 1 on:
/// stack order meets cell 15 first, but cell 8 has the lower plan index,
/// and its error must win in both the record and the fold path.
#[test]
fn lowest_plan_index_wins_when_stack_order_meets_a_later_failure_first() {
    let benchmarks = Benchmark::zoo(64);
    let interfaces = [Interface::Pm, Interface::Pc, Interface::PLpm];
    assert_eq!(benchmarks.len(), 8);
    let cell = |c: usize| {
        let interface = interfaces[c % interfaces.len()];
        (MeasurementConfig::new(Processor::AthlonK8, interface), benchmarks[c / interfaces.len()])
    };
    let seed = |c: usize, rep: usize| (c * 100 + rep) as u64;
    let measure = |cfg: &MeasurementConfig, benchmark| {
        let (c, rep) = (cfg.seed / 100, cfg.seed % 100);
        if (c == 8 || c == 15) && rep >= 1 {
            return Err(backwards_at(cfg.seed as usize));
        }
        run_measurement(cfg, benchmark)
    };
    for jobs in [1, 2, 4, 8] {
        let opts = RunOptions::with_jobs(jobs);
        let plan = Plan {
            measure: Some(&measure),
            ..Plan::new(benchmarks.len() * interfaces.len(), 3, 2, cell, seed)
        };
        let err = plan.records(&opts).unwrap_err();
        assert!(
            matches!(err, CoreError::CounterWentBackwards { first: 801, .. }),
            "records, jobs = {jobs}: {err}"
        );
        let err = plan.fold(&opts, |_| (), |(), _| ()).unwrap_err();
        assert!(
            matches!(err, CoreError::CounterWentBackwards { first: 801, .. }),
            "fold, jobs = {jobs}: {err}"
        );
    }
}

#[test]
fn fold_aborts_cell_on_first_failing_rep() {
    // Within one cell, rep 2's failure must prevent reps 3 and 4 from
    // running (the cell is one work item; its loop stops at the error).
    let mut g = Grid::new(Benchmark::Null);
    g.reps = 5;
    let cells: Vec<MeasurementConfig> = g.cells().collect();
    let calls = AtomicUsize::new(0);
    let measure = |cfg: &MeasurementConfig, benchmark| {
        let n = calls.fetch_add(1, Ordering::Relaxed);
        if n == 2 {
            return Err(backwards_at(n));
        }
        run_measurement(cfg, benchmark)
    };
    let plan = Plan {
        measure: Some(&measure),
        ..g.plan(&cells)
    };
    let err = plan
        .fold(&RunOptions::sequential(), |_| (), |(), _| ())
        .unwrap_err();
    assert!(matches!(err, CoreError::CounterWentBackwards { .. }));
    assert_eq!(
        calls.load(Ordering::Relaxed),
        3,
        "reps after the failure must not run"
    );
}

#[test]
#[expect(clippy::disallowed_methods, reason = "the engine's own contract, below the runner")]
fn exec_fold_reports_lowest_index_backwards_error() {
    // Pure-engine form of the same guarantee on the one cell engine, with
    // ragged blocks (10 reps in blocks of 3): scattered
    // CounterWentBackwards failures at flat indices 31, 32 and 97 — index
    // 31 wins at every worker count.
    for jobs in [1, 2, 4, 8] {
        let err = exec::run_cell_chunked(
            20,
            10,
            3,
            &RunOptions::with_jobs(jobs),
            |_, _, _| Ok(()),
            |(), i| {
                if i == 31 || i == 32 || i == 97 {
                    return Err(backwards_at(i));
                }
                Ok(i)
            },
        )
        .unwrap_err();
        match err {
            CoreError::CounterWentBackwards { first, .. } => {
                assert_eq!(first, 31, "jobs = {jobs}");
            }
            other => panic!("jobs = {jobs}: unexpected error {other}"),
        }
    }
}

#[test]
fn run_csv_empty_grid_emits_header_only() {
    // A grid whose only cells are skipped (PHpm cannot read-read) is
    // empty: the streaming CSV writer must emit the header and nothing
    // else, not error out.
    let mut g = Grid::new(Benchmark::Null);
    g.interfaces = vec![Interface::PHpm];
    g.patterns = vec![Pattern::ReadRead];
    let mut lines = 0usize;
    let written = g
        .run_csv(&RunOptions::sequential(), |_| lines += 1)
        .unwrap();
    assert_eq!(written, 0);
    assert_eq!(lines, 1, "header only for an empty grid");
}
