//! The full null-grid CSV dump — the raw data behind Figure 1, exported
//! for external analysis.
//!
//! There is one path: [`Grid::run_csv`] pushes lines to the sink in flat
//! index order as bounded batches of cells complete, `O(1)` memory in the
//! record count. Its bytes are pinned by `tests/golden_csv.rs`.

use crate::exec::RunOptions;
use crate::experiment::{Artifact, Experiment, ExperimentCtx, Report};
use crate::grid::Grid;
use crate::Result;

/// The artifact name the dump lands under.
pub const ARTIFACT: &str = "full_grid.csv";

/// Builds the CSV row-stream artifact for an arbitrary grid.
///
/// The producer owns the grid and runs it when the sink drives the
/// artifact, reporting decile progress on stderr when `progress` is set
/// (stdout stays parseable): it counts the record lines it hands on
/// against [`Grid::run_count`]. `jobs` follows [`RunOptions::jobs`]
/// semantics (`0` = one worker per CPU).
pub fn csv_artifact(grid: Grid, jobs: usize, progress: bool) -> Artifact {
    Artifact::rows(
        ARTIFACT,
        Box::new(move |push| {
            let total = grid.run_count();
            // Lines handed on so far: the header, then one per record, so
            // at a record line it is that record's 1-based number.
            let mut lines = 0usize;
            let mut last_decile = 0;
            let written = grid.run_csv(&RunOptions::with_jobs(jobs), |line| {
                push(line);
                let decile = lines * 10 / total.max(1);
                if progress && decile > last_decile {
                    last_decile = decile;
                    eprintln!("csv: {}% ({lines}/{total})", decile * 10);
                }
                lines += 1;
            })?;
            Ok(written as u64)
        }),
    )
}

/// Registry driver for the `csv` command.
///
/// Unlike the text experiments, the sweep runs when the *sink* drives
/// the row artifact — after `run` has returned — so the producer owns its
/// inputs. It reports its own decile progress on stderr (stdout stays
/// parseable); embedders who need silence build the artifact directly
/// via [`csv_artifact`] with `progress = false`.
pub struct CsvDump;

impl Experiment for CsvDump {
    fn id(&self) -> &'static str {
        "csv"
    }

    fn title(&self) -> &'static str {
        "full null grid as CSV (the raw data behind Figure 1)"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<Report> {
        let grid = Grid::full_null(ctx.scale.grid_reps);
        let mut report = Report::new();
        report.push(csv_artifact(grid, ctx.opts.jobs, true));
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{MemorySink, Scale, Sink};
    use crate::report;

    /// The artifact is the batch records' CSV byte for byte, at any
    /// worker count, and its reported record count matches the data-line
    /// count.
    #[test]
    fn artifact_matches_batch_records() {
        let mut g = Grid::new(crate::benchmark::Benchmark::Null);
        g.reps = 2;
        let batch = report::records_to_csv(&g.run_with(&RunOptions::sequential()).unwrap());
        for jobs in [1, 2] {
            let mut sink = MemorySink::new();
            let rows = sink
                .consume(csv_artifact(g.clone(), jobs, false))
                .unwrap()
                .unwrap();
            let stored = sink.get(ARTIFACT).unwrap();
            assert_eq!(stored.content.lines().count() as u64, rows + 1, "jobs {jobs}");
            assert_eq!(stored.content, batch, "jobs {jobs}");
        }
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
