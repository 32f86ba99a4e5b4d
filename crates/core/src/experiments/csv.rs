//! The full null-grid CSV dump — the raw data behind Figure 1, exported
//! for external analysis.
//!
//! Both engines serialize byte-identically (the equivalence is pinned by
//! `tests/golden_csv.rs`); they differ only in how the bytes are
//! produced. Batch materializes the record vector and serializes it in
//! one pass; streaming pushes lines to the sink in index order as
//! bounded chunks complete, `O(1)` memory in the record count.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::exec::RunOptions;
use crate::experiment::{
    Artifact, Capabilities, EngineMode, Experiment, ExperimentCtx, Report,
};
use crate::grid::Grid;
use crate::report;
use crate::Result;

/// The artifact name the dump lands under.
pub const ARTIFACT: &str = "full_grid.csv";

/// Builds the CSV row-stream artifact for an arbitrary grid.
///
/// The producer owns the grid and runs it when the sink drives the
/// artifact, reporting decile progress on stderr when `progress` is set
/// (stdout stays parseable). `jobs` follows [`RunOptions::jobs`]
/// semantics (`0` = one worker per CPU).
pub fn csv_artifact(grid: Grid, mode: EngineMode, jobs: usize, progress: bool) -> Artifact {
    Artifact::rows(
        ARTIFACT,
        Box::new(move |push| {
            let last_decile = AtomicUsize::new(0);
            let report_decile = move |done: usize, total: usize| {
                let decile = done * 10 / total.max(1);
                // Relaxed: a monotone high-water mark gating progress prints
                // only; duplicates or skips cost a log line, never a result.
                if last_decile.fetch_max(decile, Ordering::Relaxed) < decile {
                    eprintln!("csv: {}% ({done}/{total})", decile * 10);
                }
            };
            let mut opts = RunOptions::with_jobs(jobs);
            if progress {
                opts = opts.with_progress(&report_decile);
            }
            match mode {
                EngineMode::Streaming => {
                    let written = grid.run_csv(&opts, |line| push(line))?;
                    Ok(written as u64)
                }
                EngineMode::Batch => {
                    let records = grid.run_with(&opts)?;
                    push(&report::records_to_csv(&records));
                    Ok(records.len() as u64)
                }
            }
        }),
    )
}

/// Registry driver for the `csv` command.
///
/// Unlike the text experiments, the sweep runs when the *sink* drives
/// the row artifact — after `run` has returned and the ctx borrow has
/// ended — so the producer owns its inputs and cannot forward a
/// borrowed [`RunOptions::progress`] callback. It therefore reports its
/// own decile progress on stderr (stdout stays parseable); embedders
/// who need custom progress or silence build the artifact directly via
/// [`csv_artifact`] with `progress = false`.
pub struct CsvDump;

impl Experiment for CsvDump {
    fn id(&self) -> &'static str {
        "csv"
    }

    fn title(&self) -> &'static str {
        "full null grid as CSV (the raw data behind Figure 1)"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::STREAMING
    }

    fn run(&self, ctx: &ExperimentCtx<'_>) -> Result<Report> {
        let grid = Grid::full_null(ctx.scale.grid_reps);
        let mut report = Report::new();
        report.push(csv_artifact(grid, self.engine(ctx), ctx.opts.jobs, true));
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{MemorySink, Scale, Sink};

    /// Both engines produce byte-identical artifacts through the sink
    /// API, and the reported record count matches the data-line count.
    #[test]
    fn batch_and_streaming_artifacts_identical() {
        let mut grids = Vec::new();
        for mode in [EngineMode::Batch, EngineMode::Streaming] {
            let mut g = Grid::new(crate::benchmark::Benchmark::Null);
            g.reps = 2;
            let mut sink = MemorySink::new();
            let rows = sink
                .consume(csv_artifact(g, mode, 2, false))
                .unwrap()
                .unwrap();
            let stored = sink.get(ARTIFACT).unwrap();
            assert_eq!(stored.content.lines().count() as u64, rows + 1, "{mode:?}");
            grids.push(stored.content.clone());
        }
        assert_eq!(grids[0], grids[1]);
    }

    #[test]
    fn experiment_runs_at_quick_scale() {
        let ctx = ExperimentCtx::new(Scale::quick()).with_opts(RunOptions::with_jobs(2));
        let mut sink = MemorySink::new();
        let emitted = CsvDump.run(&ctx).unwrap().emit(&mut sink).unwrap();
        assert_eq!(emitted.len(), 1);
        assert!(emitted[0].rows.unwrap() > 1_000);
        assert!(sink
            .get(ARTIFACT)
            .unwrap()
            .content
            .starts_with(report::CSV_HEADER));
    }
}
