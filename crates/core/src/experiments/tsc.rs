//! Figure 4: “Using TSC Reduces Error on Perfctr”.
//!
//! Matrix of box plots — two counting modes × four access patterns × TSC
//! off/on — for perfctr on the Core 2 Duo. Each box summarizes runs across
//! compiler optimization levels and counter-register selections.

use counterlab_cpu::pmu::Event;
use counterlab_cpu::uarch::Processor;
use counterlab_stats::boxplot::BoxPlot;
use counterlab_stats::quantile::median;

use crate::benchmark::Benchmark;
use crate::config::OptLevel;
use crate::exec::RunOptions;
use crate::experiment::{Experiment, ExperimentCtx, Report};
use crate::grid::{Grid, RecordSet};
use crate::interface::{CountingMode, Interface};
use crate::pattern::Pattern;
use crate::report;
use crate::{CoreError, Result};

/// One cell of the Figure 4 matrix.
#[derive(Debug, Clone)]
pub struct TscCell {
    /// The access pattern.
    pub pattern: Pattern,
    /// The counting mode.
    pub mode: CountingMode,
    /// Whether the TSC was enabled.
    pub tsc_on: bool,
    /// Box-plot summary of the errors.
    pub boxplot: BoxPlot,
}

/// The Figure 4 data.
#[derive(Debug, Clone)]
pub struct TscFigure {
    /// All 16 cells (4 patterns × 2 modes × 2 TSC settings).
    pub cells: Vec<TscCell>,
    /// Processor used (CD in the paper).
    pub processor: Processor,
}

/// Registry driver for Figure 4. The paper runs this on the Core 2 Duo;
/// that processor choice lives here, not in the CLI.
pub struct Fig4;

impl Experiment for Fig4 {
    fn id(&self) -> &'static str {
        "fig4"
    }

    fn title(&self) -> &'static str {
        "Figure 4: using the TSC reduces error on perfctr (CD)"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<Report> {
        let fig = run_with(Processor::Core2Duo, ctx.scale.grid_reps, &ctx.opts)?;
        Ok(Report::text("fig4.txt", fig.render()))
    }
}

/// Runs the Figure 4 experiment on the given processor (the paper uses
/// the Core 2 Duo) with `reps` repetitions per (pattern, optimization
/// level, counter-selection) combination.
///
/// # Errors
///
/// Propagates grid and statistics failures.
pub fn run_with(processor: Processor, reps: usize, opts: &RunOptions) -> Result<TscFigure> {
    let max_ctrs = processor.uarch().programmable_counters.min(4);
    let mut grid = Grid::new(Benchmark::Null);
    grid.processors = vec![processor];
    grid.interfaces = vec![Interface::Pc];
    grid.patterns = Pattern::ALL.to_vec();
    grid.opt_levels = OptLevel::ALL.to_vec();
    grid.counter_counts = (1..=max_ctrs).collect();
    grid.tsc_settings = vec![false, true];
    grid.modes = vec![CountingMode::UserKernel, CountingMode::User];
    grid.event = Event::InstructionsRetired;
    grid.reps = reps.max(1);
    let records = grid.run_with(opts)?;

    let mut cells = Vec::new();
    for &mode in &[CountingMode::UserKernel, CountingMode::User] {
        for &pattern in &Pattern::ALL {
            for &tsc_on in &[false, true] {
                let errors = records
                    .filtered(|r| {
                        r.config.mode == mode
                            && r.config.pattern == pattern
                            && r.config.tsc_on == tsc_on
                    })
                    .errors();
                if errors.is_empty() {
                    return Err(CoreError::NoData("fig4 cell"));
                }
                cells.push(TscCell {
                    pattern,
                    mode,
                    tsc_on,
                    boxplot: BoxPlot::from_slice(&errors)?,
                });
            }
        }
    }
    Ok(TscFigure { cells, processor })
}

impl TscFigure {
    /// The cell for a given pattern/mode/TSC combination.
    pub fn cell(&self, pattern: Pattern, mode: CountingMode, tsc_on: bool) -> Option<&TscCell> {
        self.cells
            .iter()
            .find(|c| c.pattern == pattern && c.mode == mode && c.tsc_on == tsc_on)
    }

    /// The median error reduction factor from enabling the TSC for a
    /// pattern/mode (paper: read-read drops from 1698 to 109.5 — a ~15×
    /// reduction).
    pub fn reduction_factor(&self, pattern: Pattern, mode: CountingMode) -> Option<f64> {
        let off = self.cell(pattern, mode, false)?.boxplot.median();
        let on = self.cell(pattern, mode, true)?.boxplot.median();
        if on > 0.0 {
            Some(off / on)
        } else {
            None
        }
    }

    /// Renders the figure as a table of box statistics.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 4: Using TSC Reduces Error on Perfctr ({}, pc)\n\n",
            self.processor
        );
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.mode.to_string(),
                    c.pattern.name().to_string(),
                    if c.tsc_on { "on" } else { "off" }.to_string(),
                    format!("{:.1}", c.boxplot.median()),
                    format!("{:.1}", c.boxplot.q1()),
                    format!("{:.1}", c.boxplot.q3()),
                    format!("{}", c.boxplot.n()),
                ]
            })
            .collect();
        out.push_str(&report::table(
            &["mode", "pattern", "TSC", "median", "q1", "q3", "n"],
            &rows,
        ));
        out
    }
}

/// Convenience: the median read-read error pair (TSC off, TSC on) in
/// user+kernel mode — the paper's 1698 → 109.5 headline.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn read_read_medians(processor: Processor, reps: usize) -> Result<(f64, f64)> {
    let fig = run_with(processor, reps, &RunOptions::default())?;
    let get = |tsc: bool| -> Result<f64> {
        let errors: Vec<f64> = fig
            .cell(Pattern::ReadRead, CountingMode::UserKernel, tsc)
            .map(|c| vec![c.boxplot.median()])
            .unwrap_or_default();
        median(&errors).map_err(CoreError::from)
    };
    Ok((get(false)?, get(true)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsc_on_reduces_read_patterns() {
        let fig = run_with(Processor::Core2Duo, 2, &RunOptions::default()).unwrap();
        // Patterns that include a read benefit drastically (Fig 4).
        for pattern in [Pattern::ReadRead, Pattern::ReadStop] {
            let f = fig
                .reduction_factor(pattern, CountingMode::UserKernel)
                .unwrap();
            assert!(f > 4.0, "{pattern}: factor = {f}");
        }
        // start-stop (no read at all) is unaffected.
        let ss = fig
            .reduction_factor(Pattern::StartStop, CountingMode::UserKernel)
            .unwrap();
        assert!((0.5..2.0).contains(&ss), "start-stop factor = {ss}");
    }

    #[test]
    fn start_read_less_affected_than_read_read() {
        let fig = run_with(Processor::Core2Duo, 2, &RunOptions::default()).unwrap();
        let rr = fig
            .reduction_factor(Pattern::ReadRead, CountingMode::UserKernel)
            .unwrap();
        let ar = fig
            .reduction_factor(Pattern::StartRead, CountingMode::UserKernel)
            .unwrap();
        assert!(rr > ar, "rr {rr} should exceed ar {ar}");
    }

    #[test]
    fn headline_medians_roughly_match_paper() {
        // Paper: read-read u+k on CD drops from 1698 to 109.5.
        let (off, on) = read_read_medians(Processor::Core2Duo, 2).unwrap();
        assert!((1_300.0..=2_200.0).contains(&off), "off = {off}");
        assert!((90.0..=160.0).contains(&on), "on = {on}");
    }

    #[test]
    fn render_has_all_cells() {
        let fig = run_with(Processor::Core2Duo, 1, &RunOptions::default()).unwrap();
        assert_eq!(fig.cells.len(), 16);
        let text = fig.render();
        assert!(text.contains("read-read"));
        assert!(text.contains("on"));
        assert!(text.contains("off"));
    }
}
