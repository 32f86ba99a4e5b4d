//! Figures 7–9: “Error Depends on Duration” (§5).
//!
//! The loop benchmark is run at increasing iteration counts; the error
//! `i∆ = im − ie` (measured minus the `1 + 3l` model) is regressed against
//! `l`. The slope is the per-iteration error:
//!
//! * Figure 7 — user+kernel mode: positive slopes (~0.001–0.003
//!   instructions/iteration) caused by timer-interrupt handlers;
//! * Figure 8 — user mode: slopes several orders of magnitude smaller,
//!   positive or negative (boundary skid);
//! * Figure 9 — kernel-only counts for perfctr on the Core 2 Duo,
//!   distribution by loop size, cross-checking the 0.002 slope.

use counterlab_cpu::uarch::Processor;
use counterlab_stats::boxplot::BoxPlot;
use counterlab_stats::regression::LinearFit;

use crate::benchmark::Benchmark;
use crate::config::MeasurementConfig;
use crate::exec::RunOptions;
use crate::experiment::{Ablation, Capabilities, Experiment, ExperimentCtx, Report};
use crate::interface::{CountingMode, Interface};
use crate::measure::Record;
use crate::report;
use crate::sweep::{CellFn, Plan, SeedFn, SESSION_REP_BLOCK};
use crate::{CoreError, Result};

/// Default loop sizes for the slope experiments. The paper's figures show
/// up to one million iterations; it verified loops up to one billion
/// change nothing, so we extend to five million for tighter slope
/// estimates (several timer ticks per run).
pub const DEFAULT_SIZES: [u64; 8] = [
    1_000, 10_000, 100_000, 250_000, 500_000, 1_000_000, 2_000_000, 5_000_000,
];

/// Loop sizes of Figure 9's x axis.
pub const FIG9_SIZES: [u64; 9] = [
    1, 25_000, 50_000, 75_000, 100_000, 250_000, 500_000, 750_000, 1_000_000,
];

/// One bar of Figure 7/8: the regression slope for an (interface,
/// processor) pair.
#[derive(Debug, Clone)]
pub struct SlopeCell {
    /// The interface.
    pub interface: Interface,
    /// The processor.
    pub processor: Processor,
    /// Error-per-iteration slope of the regression line.
    pub slope: f64,
    /// Intercept (absorbs the fixed access cost of §4).
    pub intercept: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Number of (loop size, error) points fitted.
    pub points: usize,
}

/// The Figure 7 or Figure 8 data (distinguished by `mode`).
#[derive(Debug, Clone)]
pub struct DurationFigure {
    /// Counting mode (user+kernel → Figure 7, user → Figure 8).
    pub mode: CountingMode,
    /// One cell per (interface, processor).
    pub cells: Vec<SlopeCell>,
}

/// The timer-interrupt rate of every duration experiment (the paper's
/// kernels ran at HZ=250); the `--no-timer` ablation sets it to zero.
pub const DEFAULT_HZ: u32 = 250;

/// Registry driver for Figure 7 (user+kernel slopes). Owns the
/// `--no-timer` ablation: with the timer interrupt disabled the
/// duration-dependent error disappears, confirming its cause.
pub struct Fig7;

/// The `--no-timer` ablation flag.
pub const NO_TIMER: Ablation = Ablation {
    flag: "--no-timer",
    effect: "disable the timer interrupt (slopes -> 0)",
};

impl Experiment for Fig7 {
    fn id(&self) -> &'static str {
        "fig7"
    }

    fn title(&self) -> &'static str {
        "Figure 7: user+kernel error grows with benchmark duration"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            ablations: &[NO_TIMER],
        }
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<Report> {
        let hz = if ctx.ablated(NO_TIMER.flag) {
            0
        } else {
            DEFAULT_HZ
        };
        let fig = slopes_for_ctx(ctx, CountingMode::UserKernel, hz)?;
        Ok(Report::text("fig7.txt", fig.render()))
    }
}

/// Registry driver for Figure 8 (user-mode slopes).
pub struct Fig8;

impl Experiment for Fig8 {
    fn id(&self) -> &'static str {
        "fig8"
    }

    fn title(&self) -> &'static str {
        "Figure 8: user-mode error nearly duration-independent"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<Report> {
        let fig = slopes_for_ctx(ctx, CountingMode::User, DEFAULT_HZ)?;
        Ok(Report::text("fig8.txt", fig.render()))
    }
}

/// The shared Figure 7/8 body: the [`DEFAULT_SIZES`] sweep at the ctx's
/// duration reps.
fn slopes_for_ctx(ctx: &ExperimentCtx, mode: CountingMode, hz: u32) -> Result<DurationFigure> {
    run_slopes_with(mode, &DEFAULT_SIZES, ctx.scale.duration_reps, hz, &ctx.opts)
}

/// Registry driver for Figure 9. The paper measures perfctr on the
/// Core 2 Duo; that choice lives here, not in the CLI.
pub struct Fig9Experiment;

impl Experiment for Fig9Experiment {
    fn id(&self) -> &'static str {
        "fig9"
    }

    fn title(&self) -> &'static str {
        "Figure 9: kernel-mode instructions by loop size (pc on CD)"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<Report> {
        let fig = run_fig9_with(
            Processor::Core2Duo,
            &FIG9_SIZES,
            ctx.scale.fig9_reps,
            &ctx.opts,
        )?;
        Ok(Report::text("fig9.txt", fig.render()))
    }
}

/// A loop-size sweep: one cell per (group, loop size), group-major, `reps`
/// runs each. Group `g`'s cells measure `config(g)` on the loop benchmark;
/// run `rep` at loop size `size` in group `g` is seeded
/// `seed(g, size, rep)`. Figures 7–9 and 10–12 are all such sweeps.
pub(crate) fn loop_size_plan<'a>(
    groups: usize,
    sizes: &'a [u64],
    reps: usize,
    config: impl Fn(usize) -> MeasurementConfig + Sync + 'a,
    seed: impl Fn(usize, u64, usize) -> u64 + Sync + 'a,
) -> Plan<'a, impl CellFn + 'a, impl SeedFn + 'a> {
    let n = sizes.len();
    let cell = move |c: usize| (config(c / n), Benchmark::Loop { iters: sizes[c % n] });
    let seed = move |c: usize, rep: usize| seed(c / n, sizes[c % n], rep);
    Plan::new(groups * n, reps, SESSION_REP_BLOCK, cell, seed)
}

/// The (interface, processor) pairs of Figures 7 and 8.
const PAIRS: usize = Interface::ALL.len() * Processor::ALL.len();

/// Pair `p`, interface-major.
fn pair(p: usize) -> (Interface, Processor) {
    (Interface::ALL[p / Processor::ALL.len()], Processor::ALL[p % Processor::ALL.len()])
}

/// The Figure 7/8 sweep: one group per (interface, processor) pair.
pub(crate) fn slopes_plan(
    mode: CountingMode,
    sizes: &[u64],
    reps: usize,
    hz: u32,
) -> Plan<'_, impl CellFn + '_, impl SeedFn + '_> {
    let config = move |p| {
        let (interface, processor) = pair(p);
        MeasurementConfig::new(processor, interface)
            .with_mode(mode)
            .with_hz(hz)
    };
    // Per-cell seed decorrelation: every (interface, processor, size,
    // rep) run gets an independent timer phase, as every paper run was
    // a fresh process.
    let seed = |p, size: u64, rep: usize| {
        let (interface, processor) = pair(p);
        0xD0_0D
            ^ size.wrapping_mul(0x9E37_79B9)
            ^ ((rep as u64) << 17)
            ^ ((interface as u64) << 40)
            ^ ((processor as u64) << 47)
    };
    loop_size_plan(PAIRS, sizes, reps.max(1), config, seed)
}

/// Runs the loop benchmark over `sizes` with `reps` repetitions per size
/// for every (interface × processor), fitting the error-vs-iterations
/// regression per pair. The flattened
/// (interface × processor × size × rep) sweep runs through the engine in
/// enumeration order, so the fitted slopes are identical at any worker
/// count.
///
/// # Errors
///
/// Propagates measurement and regression failures.
pub fn run_slopes_with(
    mode: CountingMode,
    sizes: &[u64],
    reps: usize,
    hz: u32,
    opts: &RunOptions,
) -> Result<DurationFigure> {
    let plan = slopes_plan(mode, sizes, reps, hz);
    let per_pair = sizes.len() * plan.reps;
    let records = plan.records(opts)?;
    let mut cells = Vec::new();
    for p in 0..PAIRS {
        let slice = &records[p * per_pair..(p + 1) * per_pair];
        let xs: Vec<f64> = slice.iter().map(|r| r.benchmark.iterations() as f64).collect();
        let ys: Vec<f64> = slice.iter().map(|r| r.error() as f64).collect();
        let fit = LinearFit::fit(&xs, &ys)?;
        let (interface, processor) = pair(p);
        cells.push(SlopeCell {
            interface,
            processor,
            slope: fit.slope(),
            intercept: fit.intercept(),
            r_squared: fit.r_squared(),
            points: xs.len(),
        });
    }
    Ok(DurationFigure { mode, cells })
}

impl DurationFigure {
    /// The cell for an (interface, processor) pair.
    pub fn cell(&self, interface: Interface, processor: Processor) -> Option<&SlopeCell> {
        self.cells
            .iter()
            .find(|c| c.interface == interface && c.processor == processor)
    }

    /// Renders the figure as a slope table (the bar heights of Fig 7/8).
    pub fn render(&self) -> String {
        let title = match self.mode {
            CountingMode::UserKernel => "Figure 7: User+Kernel Mode Errors",
            CountingMode::User => "Figure 8: User Mode Errors",
            CountingMode::Kernel => "Kernel Mode Error Slopes",
        };
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.interface.to_string(),
                    c.processor.to_string(),
                    format!("{:+.7}", c.slope),
                    format!("{:.1}", c.intercept),
                    format!("{:.3}", c.r_squared),
                ]
            })
            .collect();
        format!(
            "{title}\n(extra instructions per loop iteration)\n\n{}",
            report::table(
                &["infrastructure", "cpu", "slope", "intercept", "R^2"],
                &rows
            )
        )
    }
}

/// One box of Figure 9: the kernel-instruction distribution for a loop
/// size.
#[derive(Debug, Clone)]
pub struct Fig9Box {
    /// Loop size.
    pub size: u64,
    /// Kernel-instruction count distribution.
    pub boxplot: BoxPlot,
    /// Mean (the small square in the paper's figure).
    pub mean: f64,
}

/// The Figure 9 data.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// One box per loop size.
    pub boxes: Vec<Fig9Box>,
    /// Regression slope through all (size, kernel instructions) points —
    /// the paper reports 0.00204 for pc on CD.
    pub slope: f64,
    /// Processor used.
    pub processor: Processor,
}

/// The Figure 9 sweep: kernel-mode counts of `pc` on `processor`.
pub(crate) fn fig9_plan(
    processor: Processor,
    sizes: &[u64],
    reps: usize,
) -> Plan<'_, impl CellFn + '_, impl SeedFn + '_> {
    let config = move |_| {
        MeasurementConfig::new(processor, Interface::Pc).with_mode(CountingMode::Kernel)
    };
    loop_size_plan(1, sizes, reps.max(2), config, |_, size, rep| {
        0xF169 ^ size.wrapping_mul(1_000_003) ^ (rep as u64) << 20
    })
}

/// Runs Figure 9: kernel-mode instruction counts by loop size for perfctr
/// (`pc`) on the given processor, `reps` runs per size.
///
/// # Errors
///
/// Propagates measurement and statistics failures.
pub fn run_fig9_with(
    processor: Processor,
    sizes: &[u64],
    reps: usize,
    opts: &RunOptions,
) -> Result<Fig9> {
    let plan = fig9_plan(processor, sizes, reps);
    let records = plan.records(opts)?;
    if records.is_empty() {
        return Err(CoreError::NoData("fig9"));
    }
    let xs: Vec<f64> = records.iter().map(|r| r.benchmark.iterations() as f64).collect();
    let errors: Vec<f64> = records.iter().map(|r| r.error() as f64).collect();
    let boxes = sizes
        .iter()
        .zip(errors.chunks(plan.reps))
        .map(|(&size, errors)| {
            let boxplot = BoxPlot::from_slice(errors)?;
            Ok(Fig9Box { size, mean: boxplot.mean(), boxplot })
        })
        .collect::<Result<_>>()?;
    let fit = LinearFit::fit(&xs, &errors)?;
    Ok(Fig9 { boxes, slope: fit.slope(), processor })
}

impl Fig9 {
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 9: Kernel Mode Instructions by Loop Size (pc on {})\n\
             regression slope: {:.5} kernel instructions/iteration\n\n",
            self.processor, self.slope
        );
        let rows: Vec<Vec<String>> = self
            .boxes
            .iter()
            .map(|b| {
                vec![
                    b.size.to_string(),
                    format!("{:.0}", b.mean),
                    format!("{:.0}", b.boxplot.median()),
                    format!("{:.0}", b.boxplot.q1()),
                    format!("{:.0}", b.boxplot.q3()),
                ]
            })
            .collect();
        out.push_str(&report::table(
            &["loop size", "mean", "median", "q1", "q3"],
            &rows,
        ));
        out
    }
}

/// The sweep behind [`sweep_records_with`].
pub(crate) fn sweep_plan(
    interface: Interface,
    processor: Processor,
    mode: CountingMode,
    sizes: &[u64],
    reps: usize,
) -> Plan<'_, impl CellFn + '_, impl SeedFn + '_> {
    let config = move |_| MeasurementConfig::new(processor, interface).with_mode(mode);
    let seed = |_, size: u64, rep: usize| 0x517A_u64 ^ size ^ ((rep as u64) << 32);
    loop_size_plan(1, sizes, reps.max(1), config, seed)
}

/// Collects the raw records of a duration sweep (used by the CSV export
/// and the benches).
///
/// # Errors
///
/// Propagates measurement failures.
pub fn sweep_records_with(
    interface: Interface,
    processor: Processor,
    mode: CountingMode,
    sizes: &[u64],
    reps: usize,
    opts: &RunOptions,
) -> Result<Vec<Record>> {
    sweep_plan(interface, processor, mode, sizes, reps).records(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Long loops for slope tests: several timer ticks land in every run,
    /// so the regression is low-variance. The paper verified that loops
    /// beyond one million iterations “do not affect our conclusions”.
    const LONG_SIZES: [u64; 4] = [2_000_000, 5_000_000, 10_000_000, 20_000_000];

    #[test]
    fn fig7_slopes_positive_and_in_range() {
        let fig = run_slopes_with(CountingMode::UserKernel, &LONG_SIZES, 4, 250, &RunOptions::default()).unwrap();
        assert_eq!(fig.cells.len(), 18);
        for c in &fig.cells {
            assert!(
                c.slope > 0.0003,
                "{}/{}: slope {} should be positive",
                c.interface,
                c.processor,
                c.slope
            );
            assert!(
                c.slope < 0.006,
                "{}/{}: slope {} too large",
                c.interface,
                c.processor,
                c.slope
            );
        }
    }

    #[test]
    fn fig7_papi_level_does_not_matter() {
        // “the error does not depend on whether we use the high level or
        // low level infrastructure” (§5).
        let fig = run_slopes_with(CountingMode::UserKernel, &LONG_SIZES, 4, 250, &RunOptions::default()).unwrap();
        for p in Processor::ALL {
            let pm = fig.cell(Interface::Pm, p).unwrap().slope;
            let plpm = fig.cell(Interface::PLpm, p).unwrap().slope;
            let phpm = fig.cell(Interface::PHpm, p).unwrap().slope;
            let spread = (pm - plpm).abs().max((pm - phpm).abs());
            assert!(
                spread < 0.5 * pm.max(1e-9),
                "{p}: pm {pm} PLpm {plpm} PHpm {phpm}"
            );
        }
    }

    #[test]
    fn fig8_slopes_tiny() {
        let fig = run_slopes_with(CountingMode::User, &LONG_SIZES, 2, 250, &RunOptions::default()).unwrap();
        for c in &fig.cells {
            assert!(
                c.slope.abs() < 1e-4,
                "{}/{}: user slope {} should be ~0",
                c.interface,
                c.processor,
                c.slope
            );
        }
    }

    #[test]
    fn fig8_orders_of_magnitude_below_fig7() {
        let f7 = run_slopes_with(CountingMode::UserKernel, &LONG_SIZES, 2, 250, &RunOptions::default()).unwrap();
        let f8 = run_slopes_with(CountingMode::User, &LONG_SIZES, 2, 250, &RunOptions::default()).unwrap();
        let avg7: f64 = f7.cells.iter().map(|c| c.slope.abs()).sum::<f64>() / f7.cells.len() as f64;
        let avg8: f64 = f8.cells.iter().map(|c| c.slope.abs()).sum::<f64>() / f8.cells.len() as f64;
        assert!(
            avg8 * 50.0 < avg7,
            "user slopes ({avg8}) must be orders below u+k ({avg7})"
        );
    }

    #[test]
    fn no_timer_ablation_kills_slope() {
        let fig = run_slopes_with(CountingMode::UserKernel, &DEFAULT_SIZES, 2, 0, &RunOptions::default()).unwrap();
        for c in &fig.cells {
            assert!(
                c.slope.abs() < 1e-5,
                "{}/{}: slope {} with HZ=0",
                c.interface,
                c.processor,
                c.slope
            );
        }
    }

    #[test]
    fn fig9_slope_near_paper() {
        // Paper: 0.00204 kernel instructions per iteration (pc on CD).
        let fig = run_fig9_with(Processor::Core2Duo, &FIG9_SIZES, 120, &RunOptions::default()).unwrap();
        assert!(
            (0.0008..=0.0045).contains(&fig.slope),
            "slope = {}",
            fig.slope
        );
        // Mean kernel instructions grow with loop size.
        let first = fig.boxes.first().unwrap().mean;
        let last = fig.boxes.last().unwrap().mean;
        assert!(last > first + 500.0, "first {first} last {last}");
        // Order of the paper's ~2500 kernel instructions at 1M iterations.
        assert!((800.0..=4_500.0).contains(&last), "mean at 1M = {last}");
    }

    #[test]
    fn sweep_records_shape() {
        let recs = sweep_records_with(
            Interface::Pc,
            Processor::Core2Duo,
            CountingMode::UserKernel,
            &[1_000, 100_000],
            3,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(recs.len(), 6);
        assert!(recs.iter().all(|r| r.config.interface == Interface::Pc));
        assert!(recs.iter().any(|r| r.benchmark.iterations() == 100_000));
    }

    #[test]
    fn renders() {
        let fig = run_slopes_with(CountingMode::UserKernel, &[1_000, 100_000], 1, 250, &RunOptions::default()).unwrap();
        let text = fig.render();
        assert!(text.contains("Figure 7"));
        assert!(text.contains("slope"));
        let f9 = run_fig9_with(Processor::Core2Duo, &[1, 500_000], 3, &RunOptions::default()).unwrap();
        assert!(f9.render().contains("Figure 9"));
    }
}
