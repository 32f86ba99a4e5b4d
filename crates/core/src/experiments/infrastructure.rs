//! Figure 6 and Table 3: “Error Depends on Infrastructure”.
//!
//! For each of the six interfaces and each counting mode: the error
//! distribution using the *best* access pattern for that interface, with
//! one counter register and the TSC enabled, pooled across all processors
//! and optimization levels.

use std::collections::BTreeMap;

use counterlab_cpu::pmu::Event;
use counterlab_cpu::uarch::Processor;
use counterlab_stats::boxplot::BoxPlot;

use crate::benchmark::Benchmark;
use crate::config::OptLevel;
use crate::exec::RunOptions;
use crate::experiment::{Experiment, ExperimentCtx, Report};
use crate::grid::Grid;
use crate::interface::{CountingMode, Interface};
use crate::pattern::Pattern;
use crate::report;
use crate::{CoreError, Result};

/// One Table 3 row: the best pattern for an interface/mode with its error
/// statistics.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Counting mode.
    pub mode: CountingMode,
    /// The interface.
    pub interface: Interface,
    /// The pattern with the lowest median error.
    pub best_pattern: Pattern,
    /// Error box plot for the best pattern.
    pub boxplot: BoxPlot,
    /// The raw errors behind the box plot (for resampling).
    pub errors: Vec<f64>,
}

impl Table3Row {
    /// Median error (Table 3's “Median” column).
    pub fn median(&self) -> f64 {
        self.boxplot.median()
    }

    /// Minimum error (Table 3's “Min” column). Whisker minimum equals the
    /// data minimum when there are no low outliers.
    pub fn min(&self) -> f64 {
        self.boxplot
            .outliers()
            .first()
            .copied()
            .map(|o| o.min(self.boxplot.lower_whisker()))
            .unwrap_or_else(|| self.boxplot.lower_whisker())
    }

    /// A seeded bootstrap confidence interval for the median — the
    /// uncertainty the paper's Table 3 doesn't report.
    ///
    /// # Errors
    ///
    /// Propagates bootstrap failures.
    pub fn median_ci(&self, level: f64) -> Result<counterlab_stats::bootstrap::ConfidenceInterval> {
        counterlab_stats::bootstrap::median_ci(&self.errors, 400, level, 0x7AB1E3)
            .map_err(crate::CoreError::from)
    }
}

/// The Figure 6 / Table 3 data.
#[derive(Debug, Clone)]
pub struct InfrastructureFigure {
    /// One row per (mode, interface).
    pub rows: Vec<Table3Row>,
}

/// Registry driver for Table 3.
pub struct Table3;

impl Experiment for Table3 {
    fn id(&self) -> &'static str {
        "table3"
    }

    fn title(&self) -> &'static str {
        "Table 3: error depends on infrastructure (best pattern per tool)"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<Report> {
        let text = run_with(ctx.scale.grid_reps, &ctx.opts)?.render_table3();
        Ok(Report::text("table3.txt", text))
    }
}

/// Registry driver for Figure 6: the box plots of the rows Table 3 lists.
///
/// Requesting both `table3` and `fig6` runs the shared sweep once per
/// driver: the sweep is deterministic (identical per-run seeds), so both
/// see the same rows, but `repro all` pays for it twice. At paper scale
/// that repeat is a large share of `repro all`'s time; ROADMAP item 3
/// (one pass over the null-grid cells for every experiment that reads
/// them) is where it goes.
pub struct Fig6;

impl Experiment for Fig6 {
    fn id(&self) -> &'static str {
        "fig6"
    }

    fn title(&self) -> &'static str {
        "Figure 6: error per interface as box plots"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<Report> {
        let fig = run_with(ctx.scale.grid_reps, &ctx.opts)?;
        Ok(Report::text("fig6.txt", fig.render_fig6()))
    }
}

/// Runs the Figure 6 / Table 3 experiment.
///
/// # Errors
///
/// Propagates grid and statistics failures.
pub fn run_with(reps: usize, opts: &RunOptions) -> Result<InfrastructureFigure> {
    let mut grid = Grid::new(Benchmark::Null);
    grid.processors = Processor::ALL.to_vec();
    grid.interfaces = Interface::ALL.to_vec();
    grid.patterns = Pattern::ALL.to_vec();
    grid.opt_levels = OptLevel::ALL.to_vec();
    grid.counter_counts = vec![1]; // one register, as §4.2 specifies
    grid.tsc_settings = vec![true]; // TSC enabled for perfctr's benefit
    grid.modes = vec![CountingMode::UserKernel, CountingMode::User];
    grid.event = Event::InstructionsRetired;
    grid.reps = reps.max(1);

    // Pool the cells' exact samples per (mode, interface, pattern) in cell
    // order: the records' order, filtered.
    let mut pools: BTreeMap<(CountingMode, Interface, Pattern), Vec<f64>> = BTreeMap::new();
    for (config, sample) in super::error_samples(&grid, opts)? {
        pools
            .entry((config.mode, config.interface, config.pattern))
            .or_default()
            .extend(sample.iter().map(|&e| e as f64));
    }

    let mut rows = Vec::new();
    for &mode in &[CountingMode::UserKernel, CountingMode::User] {
        for &interface in &Interface::ALL {
            let mut best: Option<(Pattern, BoxPlot, Vec<f64>)> = None;
            for pattern in interface.supported_patterns() {
                let Some(errors) = pools.remove(&(mode, interface, pattern)) else {
                    continue;
                };
                let bp = BoxPlot::from_slice(&errors)?;
                let better = match &best {
                    None => true,
                    Some((_, b, _)) => bp.median() < b.median(),
                };
                if better {
                    best = Some((pattern, bp, errors));
                }
            }
            let (best_pattern, boxplot, errors) =
                best.ok_or(CoreError::NoData("table3 row"))?;
            rows.push(Table3Row {
                mode,
                interface,
                best_pattern,
                boxplot,
                errors,
            });
        }
    }
    Ok(InfrastructureFigure { rows })
}

impl InfrastructureFigure {
    /// The row for an interface/mode.
    pub fn row(&self, interface: Interface, mode: CountingMode) -> Option<&Table3Row> {
        self.rows
            .iter()
            .find(|r| r.interface == interface && r.mode == mode)
    }

    /// Renders Table 3, extended with a 95% bootstrap CI for the median
    /// (the uncertainty column the paper omits).
    pub fn render_table3(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let ci = r
                    .median_ci(0.95)
                    .map(|ci| format!("[{:.0}, {:.0}]", ci.lo, ci.hi))
                    .unwrap_or_else(|_| "-".to_string());
                vec![
                    r.mode.to_string(),
                    r.interface.to_string(),
                    r.best_pattern.name().to_string(),
                    format!("{:.0}", r.median()),
                    ci,
                    format!("{:.0}", r.min()),
                ]
            })
            .collect();
        format!(
            "Table 3: Error Depends on Infrastructure\n\n{}",
            report::table(
                &["Mode", "Tool", "Best Pattern", "Median", "95% CI", "Min"],
                &rows
            )
        )
    }

    /// Renders Figure 6 (box plots per interface, one panel per mode).
    pub fn render_fig6(&self) -> String {
        let mut out = String::from("Figure 6: Error Depends on Infrastructure\n");
        for &mode in &[CountingMode::UserKernel, CountingMode::User] {
            out.push_str(&format!("\n[{mode} mode, best pattern, 1 register]\n"));
            let panel: Vec<&Table3Row> = self.rows.iter().filter(|r| r.mode == mode).collect();
            let hi = panel
                .iter()
                .map(|r| r.boxplot.upper_whisker())
                .fold(1.0f64, f64::max);
            for row in panel {
                out.push_str(&report::boxplot_line(
                    &format!("{} ({})", row.interface, row.best_pattern.code()),
                    &row.boxplot,
                    0.0,
                    hi * 1.05,
                    60,
                ));
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> InfrastructureFigure {
        run_with(2, &RunOptions::default()).unwrap()
    }

    #[test]
    fn user_mode_ordering_matches_table3() {
        // Table 3 user mode: pm 37 < pc 67 < PLpm 134 < PLpc 152 < PHpm ≈
        // PHpc 236.
        let f = fig();
        let med = |i: Interface| f.row(i, CountingMode::User).unwrap().median();
        assert!(med(Interface::Pm) < med(Interface::Pc));
        assert!(med(Interface::Pc) < med(Interface::PLpm));
        assert!(med(Interface::PLpm) < med(Interface::PLpc));
        assert!(med(Interface::PLpc) < med(Interface::PHpm) + 1.0);
        assert!(med(Interface::PLpc) < med(Interface::PHpc));
    }

    #[test]
    fn user_kernel_ordering_matches_table3() {
        // Table 3 u+k: pc 163 < PLpc 251 < PHpc 339 < pm 726-ish chain.
        let f = fig();
        let med = |i: Interface| f.row(i, CountingMode::UserKernel).unwrap().median();
        assert!(med(Interface::Pc) < med(Interface::PLpc));
        assert!(med(Interface::PLpc) < med(Interface::PHpc));
        assert!(med(Interface::PHpc) < med(Interface::Pm));
        assert!(med(Interface::Pm) < med(Interface::PHpm));
    }

    #[test]
    fn perfmon_wins_user_perfctr_wins_user_kernel() {
        // §4.2's guideline.
        let f = fig();
        let pm_user = f.row(Interface::Pm, CountingMode::User).unwrap().median();
        let pc_user = f.row(Interface::Pc, CountingMode::User).unwrap().median();
        assert!(pm_user < pc_user);
        let pm_uk = f
            .row(Interface::Pm, CountingMode::UserKernel)
            .unwrap()
            .median();
        let pc_uk = f
            .row(Interface::Pc, CountingMode::UserKernel)
            .unwrap()
            .median();
        assert!(pc_uk < pm_uk);
        // Paper: using perfctr reduces the u+k median by ~77%.
        let reduction = 1.0 - pc_uk / pm_uk;
        assert!((0.55..=0.9).contains(&reduction), "reduction = {reduction}");
    }

    #[test]
    fn absolute_medians_near_paper() {
        let f = fig();
        let med = |i: Interface, m: CountingMode| f.row(i, m).unwrap().median();
        // User mode (Table 3): pm 37, pc 67, PLpm 134, PHpm 236 — ±25%.
        assert!((30.0..=48.0).contains(&med(Interface::Pm, CountingMode::User)));
        assert!((50.0..=90.0).contains(&med(Interface::Pc, CountingMode::User)));
        assert!((100.0..=170.0).contains(&med(Interface::PLpm, CountingMode::User)));
        assert!((180.0..=300.0).contains(&med(Interface::PHpm, CountingMode::User)));
        // User+kernel: paper lists pc/start-read at 163 but its own
        // Figure 5 shows pc/read-read around 84–125; our best-pattern
        // search finds read-read, so the accepted band starts lower.
        assert!((90.0..=220.0).contains(&med(Interface::Pc, CountingMode::UserKernel)));
        assert!((540.0..=900.0).contains(&med(Interface::Pm, CountingMode::UserKernel)));
    }

    #[test]
    fn best_patterns_are_plausible() {
        let f = fig();
        // perfctr's best u+k pattern is start-read (Table 3) or the
        // nearly-equal read-read; never the stop patterns.
        let pc = f.row(Interface::Pc, CountingMode::UserKernel).unwrap();
        assert!(
            matches!(pc.best_pattern, Pattern::StartRead | Pattern::ReadRead),
            "pc best = {}",
            pc.best_pattern
        );
        // High-level PAPI can only use the start patterns.
        let ph = f.row(Interface::PHpm, CountingMode::User).unwrap();
        assert!(!ph.best_pattern.begins_with_read());
    }

    #[test]
    fn rendering() {
        let f = fig();
        let t3 = f.render_table3();
        assert!(t3.contains("Best Pattern"));
        assert!(t3.contains("pm"));
        let f6 = f.render_fig6();
        assert!(f6.contains("user+os mode"));
        assert!(f6.contains('['));
    }
}
