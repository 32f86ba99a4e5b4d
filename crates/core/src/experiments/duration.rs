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
use counterlab_stats::stream::{Covariance, SummaryAccumulator};

use crate::benchmark::Benchmark;
use crate::config::MeasurementConfig;
use crate::exec::{self, RunOptions};
use crate::experiment::{
    Ablation, Capabilities, EngineMode, Experiment, ExperimentCtx, Report,
};
use crate::interface::{CountingMode, Interface};
use crate::measure::{run_measurement, MeasurementSession, Record};
use crate::pattern::Pattern;
use crate::report;
use crate::exec::SESSION_REP_BLOCK;
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
            streaming: true,
            ablations: &[NO_TIMER],
        }
    }

    fn run(&self, ctx: &ExperimentCtx<'_>) -> Result<Report> {
        let hz = if ctx.ablated(NO_TIMER.flag) {
            0
        } else {
            DEFAULT_HZ
        };
        let fig = slopes_for_ctx(self, ctx, CountingMode::UserKernel, hz)?;
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

    fn capabilities(&self) -> Capabilities {
        Capabilities::STREAMING
    }

    fn run(&self, ctx: &ExperimentCtx<'_>) -> Result<Report> {
        let fig = slopes_for_ctx(self, ctx, CountingMode::User, DEFAULT_HZ)?;
        Ok(Report::text("fig8.txt", fig.render()))
    }
}

/// The shared Figure 7/8 body: the [`DEFAULT_SIZES`] sweep at the ctx's
/// duration reps, on whichever engine the ctx resolves to.
fn slopes_for_ctx(
    exp: &dyn Experiment,
    ctx: &ExperimentCtx<'_>,
    mode: CountingMode,
    hz: u32,
) -> Result<DurationFigure> {
    let reps = ctx.scale.duration_reps;
    match exp.engine(ctx) {
        EngineMode::Streaming => {
            run_slopes_streaming_with(mode, &DEFAULT_SIZES, reps, hz, &ctx.opts)
        }
        EngineMode::Batch => run_slopes_with(mode, &DEFAULT_SIZES, reps, hz, &ctx.opts),
    }
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

    fn capabilities(&self) -> Capabilities {
        Capabilities::STREAMING
    }

    fn run(&self, ctx: &ExperimentCtx<'_>) -> Result<Report> {
        let reps = ctx.scale.fig9_reps;
        let text = match self.engine(ctx) {
            EngineMode::Streaming => run_fig9_streaming_with(
                Processor::Core2Duo,
                &FIG9_SIZES,
                reps,
                &ctx.opts,
            )?
            .render(),
            EngineMode::Batch => {
                run_fig9_with(Processor::Core2Duo, &FIG9_SIZES, reps, &ctx.opts)?.render()
            }
        };
        Ok(Report::text("fig9.txt", text))
    }
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
    opts: &RunOptions<'_>,
) -> Result<DurationFigure> {
    let reps = reps.max(1);
    let per_pair = sizes.len() * reps;
    let pairs: Vec<(Interface, Processor)> = Interface::ALL
        .iter()
        .flat_map(|&i| Processor::ALL.iter().map(move |&p| (i, p)))
        .collect();
    // Per-cell seed decorrelation: every (interface, processor, size,
    // rep) run gets an independent timer phase, as every paper run was a
    // fresh process.
    let seed_for = |interface: Interface, processor: Processor, size: u64, rep: usize| {
        0xD0_0D
            ^ size.wrapping_mul(0x9E37_79B9)
            ^ ((rep as u64) << 17)
            ^ ((interface as u64) << 40)
            ^ ((processor as u64) << 47)
    };
    // One cell per (pair, size); a session boots once per repetition
    // block and is reseeded per run — bit-identical to fresh boots.
    let records = exec::run_cell_chunked(
        pairs.len() * sizes.len(),
        reps,
        SESSION_REP_BLOCK,
        opts,
        |prev, cell, first_rep| {
            let (interface, processor) = pairs[cell / sizes.len()];
            let size = sizes[cell % sizes.len()];
            let cfg = MeasurementConfig::new(processor, interface)
                .with_pattern(Pattern::StartRead)
                .with_mode(mode)
                .with_hz(hz)
                .with_seed(seed_for(interface, processor, size, first_rep));
            MeasurementSession::reuse(prev, &cfg, Benchmark::Loop { iters: size })
        },
        |session, idx| {
            let (interface, processor) = pairs[idx / per_pair];
            let size = sizes[(idx % per_pair) / reps];
            let rep = idx % reps;
            session.run(seed_for(interface, processor, size, rep))
        },
    )?;

    let mut cells = Vec::new();
    for (pair_idx, &(interface, processor)) in pairs.iter().enumerate() {
        let slice = &records[pair_idx * per_pair..(pair_idx + 1) * per_pair];
        let xs: Vec<f64> = slice
            .iter()
            .map(|r| r.benchmark.iterations() as f64)
            .collect();
        let ys: Vec<f64> = slice.iter().map(|r| r.error() as f64).collect();
        let fit = LinearFit::fit(&xs, &ys)?;
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

/// [`run_slopes_with`] on the streaming engine: the same sweep (same per-run
/// seeds, hence the same simulated measurements), but every `(loop size,
/// error)` point folds straight into a per-pair [`Covariance`]
/// accumulator on the worker that produced it — nothing is materialized.
/// Worker shards merge lowest-worker-first, so the fitted slopes agree
/// with the batch path to float-summation rounding (≤ 1e-9 relative; the
/// equivalence suite locks this in).
///
/// # Errors
///
/// Propagates measurement and regression failures.
pub fn run_slopes_streaming_with(
    mode: CountingMode,
    sizes: &[u64],
    reps: usize,
    hz: u32,
    opts: &RunOptions<'_>,
) -> Result<DurationFigure> {
    let reps = reps.max(1);
    let per_pair = sizes.len() * reps;
    let pairs: Vec<(Interface, Processor)> = Interface::ALL
        .iter()
        .flat_map(|&i| Processor::ALL.iter().map(move |&p| (i, p)))
        .collect();
    let fits = exec::run_indexed_fold(
        pairs.len() * per_pair,
        opts,
        || vec![Covariance::new(); pairs.len()],
        |idx, shard| {
            let (interface, processor) = pairs[idx / per_pair];
            let size = sizes[(idx % per_pair) / reps];
            let rep = idx % reps;
            // Identical seed derivation to `run_slopes_with`: the two
            // engines measure the same simulated runs.
            let seed = 0xD0_0D
                ^ size.wrapping_mul(0x9E37_79B9)
                ^ ((rep as u64) << 17)
                ^ ((interface as u64) << 40)
                ^ ((processor as u64) << 47);
            let cfg = MeasurementConfig::new(processor, interface)
                .with_pattern(Pattern::StartRead)
                .with_mode(mode)
                .with_hz(hz)
                .with_seed(seed);
            let rec = run_measurement(&cfg, Benchmark::Loop { iters: size })?;
            shard[idx / per_pair].push(size as f64, rec.error() as f64);
            Ok(())
        },
        counterlab_stats::stream::merge_zip,
    )?;

    let mut cells = Vec::new();
    for (pair_idx, &(interface, processor)) in pairs.iter().enumerate() {
        let fit = &fits[pair_idx];
        cells.push(SlopeCell {
            interface,
            processor,
            slope: fit.slope().map_err(crate::CoreError::from)?,
            intercept: fit.intercept().map_err(crate::CoreError::from)?,
            r_squared: fit.r_squared().map_err(crate::CoreError::from)?,
            points: fit.count() as usize,
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
    opts: &RunOptions<'_>,
) -> Result<Fig9> {
    let reps = reps.max(2);
    let seed_for = |size: u64, rep: usize| {
        0xF169 ^ size.wrapping_mul(1_000_003) ^ (rep as u64) << 20
    };
    let cfg_for = |size: u64, rep: usize| {
        MeasurementConfig::new(processor, Interface::Pc)
            .with_pattern(Pattern::StartRead)
            .with_mode(CountingMode::Kernel)
            .with_seed(seed_for(size, rep))
    };
    let records = exec::run_cell_chunked(
        sizes.len(),
        reps,
        SESSION_REP_BLOCK,
        opts,
        |prev, cell, first_rep| {
            let size = sizes[cell];
            let cfg = cfg_for(size, first_rep);
            MeasurementSession::reuse(prev, &cfg, Benchmark::Loop { iters: size })
        },
        |session, idx| {
            let size = sizes[idx / reps];
            session.run(seed_for(size, idx % reps))
        },
    )?;

    let mut boxes = Vec::new();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let errors: Vec<f64> = records[i * reps..(i + 1) * reps]
            .iter()
            .map(|r| r.error() as f64)
            .collect();
        xs.extend(std::iter::repeat_n(size as f64, errors.len()));
        ys.extend_from_slice(&errors);
        let boxplot = BoxPlot::from_slice(&errors)?;
        let mean = boxplot.mean();
        boxes.push(Fig9Box {
            size,
            boxplot,
            mean,
        });
    }
    if xs.is_empty() {
        return Err(CoreError::NoData("fig9"));
    }
    let fit = LinearFit::fit(&xs, &ys)?;
    Ok(Fig9 {
        boxes,
        slope: fit.slope(),
        processor,
    })
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

/// One row of the streaming Figure 9: a loop size's kernel-instruction
/// summary (quartiles instead of the batch path's whisker/outlier box).
#[derive(Debug, Clone)]
pub struct StreamingFig9Row {
    /// Loop size.
    pub size: u64,
    /// Kernel-instruction error summary for this size.
    pub summary: counterlab_stats::descriptive::Summary,
}

/// The Figure 9 data on the streaming engine.
#[derive(Debug, Clone)]
pub struct StreamingFig9 {
    /// One row per loop size.
    pub rows: Vec<StreamingFig9Row>,
    /// Regression slope through all (size, kernel instructions) points.
    pub slope: f64,
    /// Processor used.
    pub processor: Processor,
}

/// [`run_fig9_with`] on the streaming engine: per-size
/// [`SummaryAccumulator`]s plus one [`Covariance`] for the slope, folded
/// on the workers; memory is `O(sizes)` however many repetitions run.
///
/// # Errors
///
/// Propagates measurement and statistics failures.
pub fn run_fig9_streaming_with(
    processor: Processor,
    sizes: &[u64],
    reps: usize,
    opts: &RunOptions<'_>,
) -> Result<StreamingFig9> {
    let reps = reps.max(2);
    let (accs, cov) = exec::run_indexed_fold(
        sizes.len() * reps,
        opts,
        || {
            (
                vec![SummaryAccumulator::new(); sizes.len()],
                Covariance::new(),
            )
        },
        |idx, (accs, cov)| {
            let size = sizes[idx / reps];
            let rep = idx % reps;
            // Identical seed derivation to `run_fig9_with`.
            let cfg = MeasurementConfig::new(processor, Interface::Pc)
                .with_pattern(Pattern::StartRead)
                .with_mode(CountingMode::Kernel)
                .with_seed(0xF169 ^ size.wrapping_mul(1_000_003) ^ (rep as u64) << 20);
            let rec = run_measurement(&cfg, Benchmark::Loop { iters: size })?;
            let error = rec.error() as f64;
            accs[idx / reps].push(error);
            cov.push(size as f64, error);
            Ok(())
        },
        |(a, mut c), (b, d)| {
            c.merge(d);
            (counterlab_stats::stream::merge_zip(a, b), c)
        },
    )?;

    let rows = sizes
        .iter()
        .zip(accs)
        .map(|(&size, acc)| {
            Ok(StreamingFig9Row {
                size,
                summary: acc.finish().map_err(crate::CoreError::from)?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(StreamingFig9 {
        rows,
        slope: cov.slope().map_err(crate::CoreError::from)?,
        processor,
    })
}

impl StreamingFig9 {
    /// Renders the figure from the streamed summaries.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 9: Kernel Mode Instructions by Loop Size (pc on {}, streaming)\n\
             regression slope: {:.5} kernel instructions/iteration\n\n",
            self.processor, self.slope
        );
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.size.to_string(),
                    format!("{:.0}", r.summary.mean()),
                    format!("{:.0}", r.summary.median()),
                    format!("{:.0}", r.summary.q1()),
                    format!("{:.0}", r.summary.q3()),
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
    opts: &RunOptions<'_>,
) -> Result<Vec<Record>> {
    let reps = reps.max(1);
    let seed_for = |size: u64, rep: usize| 0x517A_u64 ^ size ^ ((rep as u64) << 32);
    let cfg_for = |size: u64, rep: usize| {
        MeasurementConfig::new(processor, interface)
            .with_pattern(Pattern::StartRead)
            .with_mode(mode)
            .with_seed(seed_for(size, rep))
    };
    exec::run_cell_chunked(
        sizes.len(),
        reps,
        SESSION_REP_BLOCK,
        opts,
        |prev, cell, first_rep| {
            let size = sizes[cell];
            let cfg = cfg_for(size, first_rep);
            MeasurementSession::reuse(prev, &cfg, Benchmark::Loop { iters: size })
        },
        |session, idx| {
            let size = sizes[idx / reps];
            session.run(seed_for(size, idx % reps))
        },
    )
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
    fn streaming_slopes_match_batch() {
        let sizes = [500_000u64, 2_000_000, 5_000_000];
        let batch = run_slopes_with(CountingMode::UserKernel, &sizes, 3, 250, &RunOptions::default()).unwrap();
        let stream = run_slopes_streaming_with(
            CountingMode::UserKernel,
            &sizes,
            3,
            250,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(stream.cells.len(), batch.cells.len());
        for b in &batch.cells {
            let s = stream.cell(b.interface, b.processor).unwrap();
            assert_eq!(s.points, b.points);
            // Same simulated runs, different summation order: equal to
            // float rounding.
            assert!(
                (s.slope - b.slope).abs() <= 1e-9 * b.slope.abs().max(1e-12),
                "{}/{}: {} vs {}",
                b.interface,
                b.processor,
                s.slope,
                b.slope
            );
            assert!((s.intercept - b.intercept).abs() <= 1e-6 * b.intercept.abs().max(1.0));
            assert!((s.r_squared - b.r_squared).abs() <= 1e-9);
        }
    }

    #[test]
    fn streaming_fig9_matches_batch() {
        let fig = run_fig9_with(Processor::Core2Duo, &[1, 250_000, 1_000_000], 30, &RunOptions::default()).unwrap();
        let stream = run_fig9_streaming_with(
            Processor::Core2Duo,
            &[1, 250_000, 1_000_000],
            30,
            &RunOptions::default(),
        )
        .unwrap();
        assert!((stream.slope - fig.slope).abs() <= 1e-9 * fig.slope.abs().max(1e-12));
        for (s, b) in stream.rows.iter().zip(&fig.boxes) {
            assert_eq!(s.size, b.size);
            // 30 reps stay inside the exact window: medians are equal.
            assert_eq!(s.summary.median(), b.boxplot.median());
            assert!((s.summary.mean() - b.mean).abs() <= 1e-9 * b.mean.abs().max(1.0));
        }
        assert!(stream.render().contains("streaming"));
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
