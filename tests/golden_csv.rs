//! Golden-file regression for the repro CSV pipeline: a small fixed-seed
//! grid's serialization is pinned byte-for-byte under `tests/golden/`, so
//! an engine refactor that silently perturbs Figure-1 data — a changed
//! enumeration order, a drifted seed derivation, a format change — fails
//! here instead of corrupting every downstream artifact.
//!
//! Regenerate deliberately (after an *intentional* format/semantics
//! change) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_csv
//! ```
//!
//! and review the diff like any other source change.

use counterlab::benchmark::Benchmark;
use counterlab::exec::RunOptions;
use counterlab::experiment::{MemorySink, Sink};
use counterlab::experiments::csv;
use counterlab::grid::Grid;
use counterlab::interface::{CountingMode, Interface};
use counterlab::pattern::Pattern;
use counterlab::report;

const GOLDEN_PATH: &str = "tests/golden/small_grid.csv";
const GOLDEN: &str = include_str!("golden/small_grid.csv");

/// The pinned grid: small enough to diff by eye, rich enough to cover
/// both counting modes, read-first and start-first patterns, a skipped
/// TSC combination and multiple reps of the seed derivation.
fn golden_grid() -> Grid {
    let mut g = Grid::new(Benchmark::Null);
    g.interfaces = vec![Interface::Pm, Interface::Pc, Interface::PHpm];
    g.patterns = vec![Pattern::StartRead, Pattern::ReadRead];
    g.counter_counts = vec![1, 2];
    g.tsc_settings = vec![true, false]; // false survives only for pc
    g.modes = vec![CountingMode::User, CountingMode::UserKernel];
    g.reps = 3;
    g
}

#[test]
fn golden_csv_is_stable_across_jobs_and_stream() {
    let g = golden_grid();

    // Batch engine at one and four workers.
    let jobs1 = report::records_to_csv(&g.run_with(&RunOptions::with_jobs(1)).unwrap());
    let jobs4 = report::records_to_csv(&g.run_with(&RunOptions::with_jobs(4)).unwrap());

    // The streamed CSV writer (bounded memory, `repro csv`'s path).
    let mut streamed = String::new();
    g.run_csv(&RunOptions::with_jobs(4), |line| streamed.push_str(line))
        .unwrap();

    assert_eq!(jobs1, jobs4, "--jobs 4 diverged from --jobs 1");
    assert_eq!(jobs1, streamed, "streamed CSV diverged from --jobs 1");

    // The fresh-boot oracle through the same CSV writer.
    let mut oracle = golden_grid();
    oracle.fresh_boot = true;
    for jobs in [1, 4] {
        let mut fresh = String::new();
        oracle
            .run_csv(&RunOptions::with_jobs(jobs), |line| fresh.push_str(line))
            .unwrap();
        assert_eq!(jobs1, fresh, "fresh-boot CSV at --jobs {jobs} diverged");
    }

    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(GOLDEN_PATH, &jobs1).expect("write golden file");
        eprintln!("regenerated {GOLDEN_PATH}; review the diff");
        return;
    }
    assert_eq!(
        jobs1, GOLDEN,
        "CSV drifted from {GOLDEN_PATH}; if the change is intentional, \
         regenerate with GOLDEN_REGEN=1 and review the diff"
    );
}

/// The same pin through the experiment API: the CSV artifact produced by
/// [`csv::csv_artifact`] and consumed by a [`Sink`] is byte-identical to
/// the seed golden at any worker count — so the registry path cannot
/// silently diverge from the direct grid path it replaced.
#[test]
fn golden_csv_is_stable_through_artifact_sinks() {
    for jobs in [1usize, 4] {
        let mut sink = MemorySink::new();
        let rows = sink
            .consume(csv::csv_artifact(golden_grid(), jobs, false))
            .unwrap()
            .expect("row artifact reports its record count");
        let stored = sink.get(csv::ARTIFACT).unwrap();
        assert_eq!(
            stored.content, GOLDEN,
            "jobs={jobs} diverged from {GOLDEN_PATH}"
        );
        assert_eq!(rows as usize, golden_grid().run_count(), "jobs={jobs}");
    }
}

#[test]
fn golden_file_shape_sanity() {
    // The checked-in artifact itself stays coherent: header plus
    // cells × reps data lines.
    let g = golden_grid();
    let lines: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(lines[0], report::CSV_HEADER.trim_end());
    assert_eq!(lines.len(), 1 + g.run_count());
    // Every data line has the full column count.
    let columns = report::CSV_HEADER.trim_end().split(',').count();
    for line in &lines[1..] {
        assert_eq!(line.split(',').count(), columns, "{line}");
    }
}
