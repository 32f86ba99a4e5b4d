//! §4.3: “Factors Affecting Accuracy” — the n-way analysis of variance.
//!
//! The paper: “We used the processor, measurement infrastructure, access
//! pattern, compiler optimization level, and the number of used counter
//! registers as factors and the instruction count as the response
//! variable. We have found that all factors but the optimization level are
//! statistically significant (Pr(>F) < 2·10⁻¹⁶).”

use counterlab_cpu::pmu::Event;
use counterlab_cpu::uarch::Processor;
use counterlab_stats::anova::{Anova, AnovaTable, Factor};
use counterlab_stats::stream::Welford;

use crate::benchmark::Benchmark;
use crate::config::OptLevel;
use crate::exec::RunOptions;
use crate::experiment::{Capabilities, EngineMode, Experiment, ExperimentCtx, Report};
use crate::grid::Grid;
use crate::interface::{CountingMode, Interface};
use crate::pattern::Pattern;
use crate::Result;

/// The ANOVA experiment result.
#[derive(Debug, Clone)]
pub struct AnovaExperiment {
    /// The fitted table.
    pub table: AnovaTable,
    /// Number of measurements analyzed.
    pub measurements: usize,
}

/// Factor names in the order they are declared.
pub const FACTORS: [&str; 5] = [
    "processor",
    "infrastructure",
    "pattern",
    "opt_level",
    "registers",
];

/// Registry driver for the §4.3 analysis of variance.
///
/// The F test needs within-cell replication, so this driver floors the
/// scale's grid repetitions at three — the invariant lives here, with
/// the experiment, not in the CLI.
pub struct AnovaFigure;

impl AnovaFigure {
    /// Minimum replicate runs per cell for a stable five-factor F test.
    pub const MIN_REPS: usize = 3;
}

impl Experiment for AnovaFigure {
    fn id(&self) -> &'static str {
        "anova"
    }

    fn title(&self) -> &'static str {
        "§4.3: n-way ANOVA of the error factors"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::STREAMING
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<Report> {
        let reps = ctx.scale.grid_reps.max(Self::MIN_REPS);
        let exp = match self.engine(ctx) {
            EngineMode::Streaming => run_streaming_with(reps, &ctx.opts)?,
            EngineMode::Batch => run_with(reps, &ctx.opts)?,
        };
        Ok(Report::text("anova.txt", exp.render()))
    }
}

/// The §4.3 grid: null benchmark, all five factors swept, user+kernel
/// instruction error as the response.
fn anova_grid(reps: usize) -> Grid {
    let mut grid = Grid::new(Benchmark::Null);
    grid.processors = Processor::ALL.to_vec();
    grid.interfaces = Interface::ALL.to_vec();
    grid.patterns = Pattern::ALL.to_vec();
    grid.opt_levels = OptLevel::ALL.to_vec();
    grid.counter_counts = vec![1, 2, 3, 4];
    grid.tsc_settings = vec![true];
    grid.modes = vec![CountingMode::UserKernel];
    grid.event = Event::InstructionsRetired;
    grid.reps = reps.max(2);
    grid
}

/// The empty five-factor accumulator with the paper's factor declaration.
fn anova_skeleton() -> Anova {
    Anova::new(vec![
        Factor::new(FACTORS[0], Processor::ALL.iter().map(|p| p.code())),
        Factor::new(FACTORS[1], Interface::ALL.iter().map(|i| i.code())),
        Factor::new(FACTORS[2], Pattern::ALL.iter().map(|p| p.code())),
        Factor::new(FACTORS[3], OptLevel::ALL.iter().map(|o| o.flag())),
        Factor::new(FACTORS[4], ["1", "2", "3", "4"]),
    ])
}

/// The five factor-level indices of a cell.
fn levels_of(config: &crate::config::MeasurementConfig) -> [usize; 5] {
    [
        Processor::ALL
            .iter()
            .position(|p| *p == config.processor)
            .expect("known processor"),
        Interface::ALL
            .iter()
            .position(|i| *i == config.interface)
            .expect("known interface"),
        Pattern::ALL
            .iter()
            .position(|p| *p == config.pattern)
            .expect("known pattern"),
        OptLevel::ALL
            .iter()
            .position(|o| *o == config.opt_level)
            .expect("known level"),
        config.counters - 1,
    ]
}

/// Runs the §4.3 ANOVA on the null benchmark's user+kernel instruction
/// error with `reps` replicate runs per cell.
///
/// # Errors
///
/// Propagates grid and ANOVA failures.
pub fn run_with(reps: usize, opts: &RunOptions) -> Result<AnovaExperiment> {
    let records = anova_grid(reps).run_with(opts)?;
    let mut anova = anova_skeleton();
    for r in &records {
        anova.add(&levels_of(&r.config), r.error() as f64)?;
    }
    let table = anova.run()?;
    Ok(AnovaExperiment {
        table,
        measurements: records.len(),
    })
}

/// [`run_with`] on the streaming engine: each grid cell folds its repetitions
/// into one [`Welford`] accumulator, and the cells feed
/// [`Anova::add_group`] in enumeration order — no record vector is ever
/// materialized, and the result is deterministic at any worker count (the
/// per-cell fold is exact; see [`crate::grid::Grid::run_fold`]).
///
/// # Errors
///
/// Propagates grid and ANOVA failures.
pub fn run_streaming_with(reps: usize, opts: &RunOptions) -> Result<AnovaExperiment> {
    let cells = anova_grid(reps).run_fold(
        opts,
        |_| Welford::new(),
        |acc, record| acc.push(record.error() as f64),
    )?;
    let mut anova = anova_skeleton();
    let mut measurements = 0usize;
    for (config, group) in &cells {
        measurements += group.count() as usize;
        anova.add_group(&levels_of(config), group)?;
    }
    let table = anova.run()?;
    Ok(AnovaExperiment {
        table,
        measurements,
    })
}

impl AnovaExperiment {
    /// Whether the experiment reproduces the paper's conclusion: all
    /// factors but the optimization level significant.
    pub fn matches_paper(&self, alpha: f64) -> bool {
        let significant = |name: &str| {
            self.table
                .row(name)
                .map(|r| r.significant_at(alpha))
                .unwrap_or(false)
        };
        significant("processor")
            && significant("infrastructure")
            && significant("pattern")
            && significant("registers")
            && !significant("opt_level")
    }

    /// Renders the ANOVA table.
    pub fn render(&self) -> String {
        format!(
            "Section 4.3: n-way ANOVA of the user+kernel instruction error\n\
             ({} measurements)\n\n{}\n\
             paper's conclusion (all factors but -O significant): {}\n",
            self.measurements,
            self.table,
            if self.matches_paper(0.001) {
                "REPRODUCED"
            } else {
                "NOT reproduced"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_factors_but_opt_level_significant() {
        let exp = run_with(3, &RunOptions::default()).unwrap();
        for name in ["processor", "infrastructure", "pattern", "registers"] {
            let row = exp.table.row(name).unwrap();
            assert!(
                row.p_value < 1e-12,
                "{name}: Pr(>F) = {} should be < 2e-16-ish",
                row.p_value
            );
        }
        let opt = exp.table.row("opt_level").unwrap();
        assert!(
            opt.p_value > 0.01,
            "opt_level: Pr(>F) = {} should be insignificant",
            opt.p_value
        );
        assert!(exp.matches_paper(0.001));
    }

    #[test]
    fn render_mentions_verdict() {
        let exp = run_with(2, &RunOptions::default()).unwrap();
        let text = exp.render();
        assert!(text.contains("ANOVA"));
        assert!(text.contains("REPRODUCED"));
    }

    #[test]
    fn streaming_matches_batch_table() {
        let batch = run_with(2, &RunOptions::default()).unwrap();
        let stream = run_streaming_with(2, &RunOptions::default()).unwrap();
        assert_eq!(stream.measurements, batch.measurements);
        assert_eq!(stream.table.n(), batch.table.n());
        for row in batch.table.rows() {
            let s = stream.table.row(&row.factor).unwrap();
            assert_eq!(s.df, row.df, "{}", row.factor);
            // Grouped sums differ from per-record sums only by
            // float-summation rounding.
            let tol = 1e-9 * row.sum_sq.abs().max(1.0);
            assert!(
                (s.sum_sq - row.sum_sq).abs() <= tol,
                "{}: {} vs {}",
                row.factor,
                s.sum_sq,
                row.sum_sq
            );
        }
        assert_eq!(stream.matches_paper(0.001), batch.matches_paper(0.001));
    }
}
