//! Reproductions of every table and figure in the paper's evaluation.
//!
//! Each submodule builds the workload, runs the parameter sweep, and
//! renders the same rows/series the paper reports:
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`tables`] | Table 1 (processors), Table 2 (patterns), Figure 3 (loop model) |
//! | [`overview`] | Figure 1 (violin plots of all-configuration error) |
//! | [`tsc`] | Figure 4 (perfctr TSC on/off) |
//! | [`registers`] | Figure 5 (error vs number of counters) |
//! | [`infrastructure`] | Figure 6 and Table 3 (error per interface) |
//! | [`duration`] | Figures 7, 8, 9 (error vs benchmark duration) |
//! | [`cycles`] | Figures 10, 11, 12 (cycle-count perturbation) |
//! | [`anova`] | §4.3 (n-way ANOVA of the error factors) |
//! | [`cache`] | extension: d-cache miss accuracy (Korn-style) |
//! | [`multiplexing`] | extension: multiplexed counting accuracy |
//! | [`workload`] | extension: counter accuracy vs. workload class |
//! | [`csv`] | the full null grid as CSV (Figure 1's raw data) |
//!
//! Every submodule registers its drivers as [`crate::experiment::Experiment`]
//! impls in [`crate::experiment::registry`] — the one public API for
//! running reproductions. A driver's context carries the repetition scale,
//! the execution-engine options and any enabled ablations; each figure has
//! exactly one driver and one statistics path. The null-grid summaries
//! (fig1, table3/fig6, anova) fold every cell into its exact error sample
//! (`error_samples`) instead of materializing records. The typed `*_with`
//! functions remain underneath for tests and benches that sweep custom
//! sizes.

use crate::config::MeasurementConfig;
use crate::exec::RunOptions;
use crate::grid::Grid;
use crate::Result;

pub mod anova;
pub mod cache;
pub mod csv;
pub mod cycles;
pub mod duration;
pub mod infrastructure;
pub mod multiplexing;
pub mod overview;
pub mod registers;
pub mod tables;
pub mod tsc;
pub mod workload;

/// Runs `grid` and returns every cell's exact error sample
/// ([`Record::error`](crate::measure::Record::error), in repetition
/// order), in cell-enumeration order.
///
/// Cell order then repetition order is exactly the order of
/// [`Grid::run_with`]'s records, so a pool built by concatenating these
/// samples in cell order feeds every statistic the same values in the
/// same order as the filtered records would: the f64 sums, and with them
/// the output bytes, cannot drift. Only the `i64` errors are held, never a
/// whole record.
///
/// # Errors
///
/// As [`Grid::run_fold`].
pub(crate) fn error_samples(
    grid: &Grid,
    opts: &RunOptions,
) -> Result<Vec<(MeasurementConfig, Vec<i64>)>> {
    grid.run_fold(
        opts,
        |_| Vec::with_capacity(grid.reps),
        |sample: &mut Vec<i64>, record| sample.push(record.error()),
    )
}
