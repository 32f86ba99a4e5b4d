//! Figure 5: “Error Depends on Number of Counters”.
//!
//! For the Athlon (K8), perfmon and perfctr, both counting modes: the
//! error as a function of how many counter registers are measured
//! concurrently (1–4).

use counterlab_cpu::pmu::Event;
use counterlab_cpu::uarch::Processor;
use counterlab_stats::boxplot::BoxPlot;

use crate::benchmark::Benchmark;
use crate::config::OptLevel;
use crate::exec::RunOptions;
use crate::experiment::{Experiment, ExperimentCtx, Report};
use crate::grid::{Grid, RecordSet};
use crate::interface::{CountingMode, Interface};
use crate::pattern::Pattern;
use crate::report;
use crate::{CoreError, Result};

/// One cell: (interface, mode, pattern, register count) → error summary.
#[derive(Debug, Clone)]
pub struct RegisterCell {
    /// The interface (`pm` or `pc`).
    pub interface: Interface,
    /// The counting mode.
    pub mode: CountingMode,
    /// The access pattern.
    pub pattern: Pattern,
    /// Number of registers measured.
    pub registers: usize,
    /// Error summary.
    pub boxplot: BoxPlot,
}

/// The Figure 5 data.
#[derive(Debug, Clone)]
pub struct RegisterFigure {
    /// All cells.
    pub cells: Vec<RegisterCell>,
    /// Processor used (K8 in the paper).
    pub processor: Processor,
}

/// Registry driver for Figure 5. The paper runs this on the Athlon K8;
/// that processor choice lives here, not in the CLI.
pub struct Fig5;

impl Experiment for Fig5 {
    fn id(&self) -> &'static str {
        "fig5"
    }

    fn title(&self) -> &'static str {
        "Figure 5: error depends on number of counters (K8)"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<Report> {
        let fig = run_with(Processor::AthlonK8, ctx.scale.grid_reps, &ctx.opts)?;
        Ok(Report::text("fig5.txt", fig.render()))
    }
}

/// Runs the Figure 5 experiment (`pm` and `pc` with 1..=4 registers).
///
/// # Errors
///
/// Propagates grid and statistics failures.
pub fn run_with(
    processor: Processor,
    reps: usize,
    opts: &RunOptions,
) -> Result<RegisterFigure> {
    let max_ctrs = processor.uarch().programmable_counters.min(4);
    let mut grid = Grid::new(Benchmark::Null);
    grid.processors = vec![processor];
    grid.interfaces = vec![Interface::Pm, Interface::Pc];
    grid.patterns = Pattern::ALL.to_vec();
    grid.opt_levels = OptLevel::ALL.to_vec();
    grid.counter_counts = (1..=max_ctrs).collect();
    grid.tsc_settings = vec![true]; // TSC on (the §4.1 recommendation)
    grid.modes = vec![CountingMode::UserKernel, CountingMode::User];
    grid.event = Event::InstructionsRetired;
    grid.reps = reps.max(1);
    let records = grid.run_with(opts)?;

    let mut cells = Vec::new();
    for &interface in &[Interface::Pm, Interface::Pc] {
        for &mode in &[CountingMode::UserKernel, CountingMode::User] {
            for &pattern in &Pattern::ALL {
                for registers in 1..=max_ctrs {
                    let errors = records
                        .filtered(|r| {
                            r.config.interface == interface
                                && r.config.mode == mode
                                && r.config.pattern == pattern
                                && r.config.counters == registers
                        })
                        .errors();
                    if errors.is_empty() {
                        return Err(CoreError::NoData("fig5 cell"));
                    }
                    cells.push(RegisterCell {
                        interface,
                        mode,
                        pattern,
                        registers,
                        boxplot: BoxPlot::from_slice(&errors)?,
                    });
                }
            }
        }
    }
    Ok(RegisterFigure { cells, processor })
}

impl RegisterFigure {
    /// Looks up a cell.
    pub fn cell(
        &self,
        interface: Interface,
        mode: CountingMode,
        pattern: Pattern,
        registers: usize,
    ) -> Option<&RegisterCell> {
        self.cells.iter().find(|c| {
            c.interface == interface
                && c.mode == mode
                && c.pattern == pattern
                && c.registers == registers
        })
    }

    /// Median error growth from 1 to `n` registers for a cell family.
    pub fn growth(
        &self,
        interface: Interface,
        mode: CountingMode,
        pattern: Pattern,
        n: usize,
    ) -> Option<f64> {
        let one = self.cell(interface, mode, pattern, 1)?.boxplot.median();
        let many = self.cell(interface, mode, pattern, n)?.boxplot.median();
        Some(many - one)
    }

    /// Renders the figure as a median table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 5: Error Depends on Number of Counters ({})\n\n",
            self.processor
        );
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.interface.to_string(),
                    c.mode.to_string(),
                    c.pattern.name().to_string(),
                    c.registers.to_string(),
                    format!("{:.1}", c.boxplot.median()),
                    format!("{:.1}", c.boxplot.iqr()),
                ]
            })
            .collect();
        out.push_str(&report::table(
            &["tool", "mode", "pattern", "#regs", "median", "IQR"],
            &rows,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> RegisterFigure {
        run_with(Processor::AthlonK8, 2, &RunOptions::default()).unwrap()
    }

    #[test]
    fn pm_read_read_grows_100_per_register() {
        // Paper: 573 → 909 over 1→4 registers (u+k on K8).
        let f = fig();
        let growth = f
            .growth(
                Interface::Pm,
                CountingMode::UserKernel,
                Pattern::ReadRead,
                4,
            )
            .unwrap();
        assert!((250.0..=420.0).contains(&growth), "growth = {growth}");
    }

    #[test]
    fn pm_user_mode_flat() {
        // Paper (Fig 5 top right): pm user error independent of registers.
        let f = fig();
        let growth = f
            .growth(Interface::Pm, CountingMode::User, Pattern::ReadRead, 4)
            .unwrap();
        assert!(growth.abs() < 15.0, "growth = {growth}");
    }

    #[test]
    fn pm_start_stop_can_shrink() {
        // Paper: “when using start-stop, adding a counter can slightly
        // reduce the error”.
        let f = fig();
        let growth = f
            .growth(
                Interface::Pm,
                CountingMode::UserKernel,
                Pattern::StartStop,
                4,
            )
            .unwrap();
        assert!(growth <= 5.0, "growth = {growth}");
    }

    #[test]
    fn pc_read_read_marginal_growth() {
        // Paper: perfctr's read-read grows from 84 to 125 (1→4 regs).
        let f = fig();
        let one = f
            .cell(Interface::Pc, CountingMode::User, Pattern::ReadRead, 1)
            .unwrap()
            .boxplot
            .median();
        let four = f
            .cell(Interface::Pc, CountingMode::User, Pattern::ReadRead, 4)
            .unwrap()
            .boxplot
            .median();
        assert!((70.0..=100.0).contains(&one), "one = {one}");
        assert!((105.0..=150.0).contains(&four), "four = {four}");
    }

    #[test]
    fn pc_read_read_same_user_and_user_kernel() {
        // “Perfctr's read-read pattern causes the same errors in
        // user+kernel mode as it does in user mode” (TSC on → no kernel
        // entry).
        let f = fig();
        for regs in [1usize, 4] {
            let u = f
                .cell(Interface::Pc, CountingMode::User, Pattern::ReadRead, regs)
                .unwrap()
                .boxplot
                .median();
            let uk = f
                .cell(
                    Interface::Pc,
                    CountingMode::UserKernel,
                    Pattern::ReadRead,
                    regs,
                )
                .unwrap()
                .boxplot
                .median();
            assert!(
                (u - uk).abs() < 20.0,
                "regs={regs}: user {u} vs user+kernel {uk}"
            );
        }
    }

    #[test]
    fn render_lists_cells() {
        let f = fig();
        assert_eq!(f.cells.len(), 2 * 2 * 4 * 4);
        let text = f.render();
        assert!(text.contains("pm"));
        assert!(text.contains("#regs"));
    }
}
