//! Figures 10–12: “Accuracy of Cycle Counts” (§6).
//!
//! Cycle counts have no analytical ground truth; the paper shows they are
//! dominated by *code placement*: every (pattern × optimization level)
//! combination builds a different executable, placing the loop at a
//! different address, which selects a different cycles-per-iteration
//! class. The scatter of measured cycles against loop size is therefore
//! bi/multi-modal (Figures 10/11), and splitting the K8/pm panel by
//! pattern and optimization level isolates clean lines with different
//! slopes (Figure 12).

use counterlab_cpu::pmu::Event;
use counterlab_cpu::uarch::Processor;
use counterlab_stats::regression::LinearFit;

use crate::config::{MeasurementConfig, OptLevel};
use crate::exec::RunOptions;
use crate::experiment::{Ablation, Capabilities, Experiment, ExperimentCtx, Report};
use crate::experiments::duration::loop_size_plan;
use crate::interface::{CountingMode, Interface};
use crate::pattern::Pattern;
use crate::report;
use crate::sweep::{CellFn, Plan, SeedFn};
use crate::{CoreError, Result};

/// Default loop sizes of the cycle scatter plots.
pub const CYCLE_SIZES: [u64; 8] = [
    50_000, 100_000, 200_000, 400_000, 600_000, 800_000, 900_000, 1_000_000,
];

/// One measured point of a cycle scatter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CyclePoint {
    /// Loop iterations.
    pub iters: u64,
    /// Measured user+kernel cycles.
    pub cycles: u64,
    /// The pattern of the build that produced the point.
    pub pattern: Pattern,
    /// The optimization level of the build.
    pub opt_level: OptLevel,
}

impl CyclePoint {
    /// Cycles per iteration.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.iters as f64
    }
}

/// One panel of Figure 10: an (interface, processor) scatter.
#[derive(Debug, Clone)]
pub struct CyclePanel {
    /// The interface (`pm` or `pc`).
    pub interface: Interface,
    /// The processor.
    pub processor: Processor,
    /// The measured points.
    pub points: Vec<CyclePoint>,
}

impl CyclePanel {
    /// The observed cycles-per-iteration range — e.g. 1.5–4 on the
    /// Pentium D (“anywhere between 1.5 and 4 million cycles for a loop
    /// with 1 million iterations”).
    pub fn cpi_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for p in &self.points {
            lo = lo.min(p.cpi());
            hi = hi.max(p.cpi());
        }
        (lo, hi)
    }
}

/// The Figure 10 data: six panels (pm/pc × PD/CD/K8).
#[derive(Debug, Clone)]
pub struct CycleFigure {
    /// All panels.
    pub panels: Vec<CyclePanel>,
}

/// Registry driver for Figure 10.
pub struct Fig10;

impl Experiment for Fig10 {
    fn id(&self) -> &'static str {
        "fig10"
    }

    fn title(&self) -> &'static str {
        "Figure 10: cycle counts scatter by loop size"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<Report> {
        let fig = run_fig10_with(&CYCLE_SIZES, ctx.scale.cycle_reps, &ctx.opts)?;
        Ok(Report::text("fig10.txt", fig.render()))
    }
}

/// Registry driver for Figure 11. Owns the `--single-build` ablation:
/// restricted to one (pattern, -O) build the bimodality collapses,
/// confirming code placement as the cause.
pub struct Fig11Experiment;

/// The `--single-build` ablation flag.
pub const SINGLE_BUILD: Ablation = Ablation {
    flag: "--single-build",
    effect: "restrict to one build (bimodality collapses)",
};

impl Experiment for Fig11Experiment {
    fn id(&self) -> &'static str {
        "fig11"
    }

    fn title(&self) -> &'static str {
        "Figure 11: the two cycles/iteration groups on K8/pm"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            ablations: &[SINGLE_BUILD],
        }
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<Report> {
        let fig = run_fig11_with(&CYCLE_SIZES, ctx.scale.cycle_reps, &ctx.opts)?;
        let mut text = fig.render();
        if ctx.ablated(SINGLE_BUILD.flag) {
            text.push_str(&fig.single_build_note());
        }
        Ok(Report::text("fig11.txt", text))
    }
}

/// Registry driver for Figure 12.
pub struct Fig12Experiment;

impl Experiment for Fig12Experiment {
    fn id(&self) -> &'static str {
        "fig12"
    }

    fn title(&self) -> &'static str {
        "Figure 12: one clean line per (pattern, -O) build on K8/pm"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<Report> {
        let fig = run_fig12_with(&CYCLE_SIZES, ctx.scale.cycle_reps, &ctx.opts)?;
        Ok(Report::text("fig12.txt", fig.render()))
    }
}

/// Runs the Figure 10 experiment: user+kernel cycle counts for the loop
/// benchmark at the given iteration counts (the CLI uses
/// [`CYCLE_SIZES`]), across all (pattern × optimization level) builds,
/// `reps` runs each.
///
/// # Errors
///
/// Propagates measurement failures.
pub fn run_fig10_with(sizes: &[u64], reps: usize, opts: &RunOptions) -> Result<CycleFigure> {
    let mut panels = Vec::new();
    for &interface in &[Interface::Pm, Interface::Pc] {
        for &processor in &Processor::ALL {
            panels.push(panel_with(interface, processor, sizes, reps, opts)?);
        }
    }
    Ok(CycleFigure { panels })
}

/// The (pattern × optimization level) builds an interface supports.
pub(crate) fn builds(interface: Interface) -> Vec<(Pattern, OptLevel)> {
    Pattern::ALL
        .iter()
        .filter(|&&pattern| interface.supports(pattern))
        .flat_map(|&pattern| OptLevel::ALL.iter().map(move |&opt| (pattern, opt)))
        .collect()
}

/// One panel's sweep: one group per (pattern × optimization level) build.
pub(crate) fn panel_plan<'a>(
    interface: Interface,
    processor: Processor,
    builds: &'a [(Pattern, OptLevel)],
    sizes: &'a [u64],
    reps: usize,
) -> Plan<'a, impl CellFn + 'a, impl SeedFn + 'a> {
    let config = move |b: usize| {
        let (pattern, opt_level) = builds[b];
        MeasurementConfig::new(processor, interface)
            .with_pattern(pattern)
            .with_opt_level(opt_level)
            .with_mode(CountingMode::UserKernel)
            .with_event(Event::CoreCycles)
    };
    let seed = |_, iters: u64, rep: usize| 0xCC_1E5 ^ iters.wrapping_mul(7) ^ ((rep as u64) << 24);
    loop_size_plan(builds.len(), sizes, reps.max(1), config, seed)
}

/// Runs one (interface, processor) panel (Figure 11 uses the K8/pm
/// one): the (pattern × optimization level × size × rep) sweep runs
/// through the engine in enumeration order.
///
/// # Errors
///
/// Propagates measurement failures.
pub fn panel_with(
    interface: Interface,
    processor: Processor,
    sizes: &[u64],
    reps: usize,
    opts: &RunOptions,
) -> Result<CyclePanel> {
    let builds = builds(interface);
    let records = panel_plan(interface, processor, &builds, sizes, reps).records(opts)?;
    if records.is_empty() {
        return Err(CoreError::NoData("cycle panel"));
    }
    let points = records
        .iter()
        .map(|r| CyclePoint {
            iters: r.benchmark.iterations(),
            cycles: r.measured,
            pattern: r.config.pattern,
            opt_level: r.config.opt_level,
        })
        .collect();
    Ok(CyclePanel { interface, processor, points })
}

impl CycleFigure {
    /// The panel for an (interface, processor) pair.
    pub fn panel(&self, interface: Interface, processor: Processor) -> Option<&CyclePanel> {
        self.panels
            .iter()
            .find(|p| p.interface == interface && p.processor == processor)
    }

    /// Renders all panels as scatter sketches.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 10: Cycles by Loop Size\n");
        for p in &self.panels {
            let (lo, hi) = p.cpi_range();
            out.push_str(&format!(
                "\n[{} on {}] cycles/iteration range: {:.2} .. {:.2}\n",
                p.interface, p.processor, lo, hi
            ));
            let pts: Vec<(f64, f64)> = p
                .points
                .iter()
                .map(|q| (q.iters as f64, q.cycles as f64))
                .collect();
            out.push_str(&report::scatter_text(&pts, 64, 12));
        }
        out
    }
}

/// The Figure 11 analysis of the K8/pm panel: the measurements split into
/// groups bounded below by the `c = 2i` and `c = 3i` lines.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// Points with cycles/iteration below 2.5 (the `c = 2i` group).
    pub group_2i: Vec<CyclePoint>,
    /// Points at or above 2.5 (the `c = 3i` group).
    pub group_3i: Vec<CyclePoint>,
}

/// Runs Figure 11 (the K8 `pm` panel of Figure 10, split into its two
/// groups).
///
/// # Errors
///
/// Propagates measurement failures.
pub fn run_fig11_with(sizes: &[u64], reps: usize, opts: &RunOptions) -> Result<Fig11> {
    let p = panel_with(Interface::Pm, Processor::AthlonK8, sizes, reps, opts)?;
    let (group_2i, group_3i): (Vec<CyclePoint>, Vec<CyclePoint>) =
        p.points.into_iter().partition(|q| q.cpi() < 2.5);
    Ok(Fig11 { group_2i, group_3i })
}

impl Fig11 {
    /// Whether every measurement respects its group's lower-bound line
    /// (“in each group, a measurement is as big as the line or bigger”).
    pub fn bounds_hold(&self) -> bool {
        self.group_2i.iter().all(|p| p.cycles >= 2 * p.iters)
            && self.group_3i.iter().all(|p| p.cycles >= 3 * p.iters)
    }

    /// Renders the figure summary.
    pub fn render(&self) -> String {
        format!(
            "Figure 11: Cycles by Loop Size with pm on K8\n\n\
             group near c = 2i: {} points\n\
             group near c = 3i: {} points\n\
             lower bounds hold: {}\n",
            self.group_2i.len(),
            self.group_3i.len(),
            self.bounds_hold()
        )
    }

    /// The `--single-build` ablation paragraph: restricted to one
    /// (pattern, -O) build the cycles/iteration range collapses to one
    /// class.
    pub fn single_build_note(&self) -> String {
        let cpis: Vec<f64> = self
            .group_2i
            .iter()
            .chain(self.group_3i.iter())
            .filter(|p| p.pattern == Pattern::StartRead && p.opt_level == OptLevel::O2)
            .map(CyclePoint::cpi)
            .collect();
        let lo = cpis.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = cpis.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        format!(
            "\nAblation (single build start-read/-O2): cycles/iteration \
             range {lo:.3}..{hi:.3} — one class, no bimodality.\n"
        )
    }
}

/// One panel of Figure 12: the line fitted through one
/// (pattern × optimization level) build's points.
#[derive(Debug, Clone)]
pub struct Fig12Panel {
    /// Pattern of the build.
    pub pattern: Pattern,
    /// Optimization level of the build.
    pub opt_level: OptLevel,
    /// Slope of cycles vs iterations — the build's cycles/iteration class.
    pub slope: f64,
    /// Fit quality (essentially 1: within one build the relation is a
    /// clean line).
    pub r_squared: f64,
}

/// The Figure 12 data.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// 16 panels (4 patterns × 4 levels).
    pub panels: Vec<Fig12Panel>,
}

/// Runs Figure 12: the K8/pm data split by pattern and optimization
/// level, one regression per panel.
///
/// # Errors
///
/// Propagates measurement and regression failures.
pub fn run_fig12_with(sizes: &[u64], reps: usize, opts: &RunOptions) -> Result<Fig12> {
    let p = panel_with(Interface::Pm, Processor::AthlonK8, sizes, reps, opts)?;
    let mut panels = Vec::new();
    for &pattern in &Pattern::ALL {
        for &opt_level in &OptLevel::ALL {
            let pts: Vec<&CyclePoint> = p
                .points
                .iter()
                .filter(|q| q.pattern == pattern && q.opt_level == opt_level)
                .collect();
            if pts.is_empty() {
                continue;
            }
            let xs: Vec<f64> = pts.iter().map(|q| q.iters as f64).collect();
            let ys: Vec<f64> = pts.iter().map(|q| q.cycles as f64).collect();
            let fit = LinearFit::fit(&xs, &ys)?;
            panels.push(Fig12Panel {
                pattern,
                opt_level,
                slope: fit.slope(),
                r_squared: fit.r_squared(),
            });
        }
    }
    Ok(Fig12 { panels })
}

impl Fig12 {
    /// The panel for (pattern, level).
    pub fn panel(&self, pattern: Pattern, opt: OptLevel) -> Option<&Fig12Panel> {
        self.panels
            .iter()
            .find(|p| p.pattern == pattern && p.opt_level == opt)
    }

    /// The distinct slope classes (rounded to 0.25).
    pub fn slope_classes(&self) -> Vec<f64> {
        let mut classes: Vec<f64> = self
            .panels
            .iter()
            .map(|p| (p.slope * 4.0).round() / 4.0)
            .collect();
        classes.sort_by(|a, b| a.partial_cmp(b).expect("slopes finite"));
        classes.dedup();
        classes
    }

    /// Renders the 16-panel summary.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .panels
            .iter()
            .map(|p| {
                vec![
                    p.pattern.name().to_string(),
                    p.opt_level.to_string(),
                    format!("{:.3}", p.slope),
                    format!("{:.4}", p.r_squared),
                ]
            })
            .collect();
        format!(
            "Figure 12: Cycles by Loop Size with pm on K8 (by pattern and -O level)\n\n{}",
            report::table(&["pattern", "opt", "cycles/iter slope", "R^2"], &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL_SIZES: [u64; 4] = [100_000, 400_000, 700_000, 1_000_000];

    #[test]
    fn fig10_pd_range_wider_than_cd() {
        let fig = run_fig10_with(&SMALL_SIZES, 1, &RunOptions::default()).unwrap();
        let (pd_lo, pd_hi) = fig
            .panel(Interface::Pm, Processor::PentiumD)
            .unwrap()
            .cpi_range();
        // Paper: PD between ~1.5 and ~4 cycles/iteration.
        assert!((1.4..2.0).contains(&pd_lo), "pd_lo = {pd_lo}");
        assert!(pd_hi > 2.0 && pd_hi <= 4.6, "pd_hi = {pd_hi}");
        let (k8_lo, k8_hi) = fig
            .panel(Interface::Pm, Processor::AthlonK8)
            .unwrap()
            .cpi_range();
        assert!(k8_lo >= 2.0 && k8_hi <= 4.2, "k8 = {k8_lo}..{k8_hi}");
    }

    #[test]
    fn fig11_two_groups_with_bounds() {
        let fig = run_fig11_with(&SMALL_SIZES, 1, &RunOptions::default()).unwrap();
        assert!(!fig.group_2i.is_empty(), "2i group empty");
        assert!(!fig.group_3i.is_empty(), "3i group empty");
        assert!(fig.bounds_hold());
    }

    #[test]
    fn fig12_slopes_form_classes() {
        let fig = run_fig12_with(&SMALL_SIZES, 1, &RunOptions::default()).unwrap();
        assert_eq!(fig.panels.len(), 16);
        // Each panel is an excellent linear fit (one build = one line).
        for p in &fig.panels {
            assert!(
                p.r_squared > 0.999,
                "{}/{}: R² = {}",
                p.pattern,
                p.opt_level,
                p.r_squared
            );
            assert!((1.9..=4.1).contains(&p.slope), "slope = {}", p.slope);
        }
        // The combination of pattern and opt level yields at least two
        // distinct slope classes (the paper's 2 vs 3 cycles/iteration).
        let classes = fig.slope_classes();
        assert!(classes.len() >= 2, "classes = {classes:?}");
    }

    #[test]
    fn fig12_neither_factor_alone_determines_slope() {
        // “neither the optimization level nor the measurement pattern
        // determines the slope, only the combination” — verify that at
        // least one pattern has differing slopes across opt levels.
        let fig = run_fig12_with(&SMALL_SIZES, 1, &RunOptions::default()).unwrap();
        let mut pattern_with_spread = false;
        for &pattern in &Pattern::ALL {
            let slopes: Vec<f64> = OptLevel::ALL
                .iter()
                .filter_map(|&o| fig.panel(pattern, o))
                .map(|p| p.slope)
                .collect();
            let lo = slopes.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = slopes.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            if hi - lo > 0.5 {
                pattern_with_spread = true;
            }
        }
        assert!(pattern_with_spread, "some pattern must span slope classes");
    }

    #[test]
    fn renders() {
        let fig10 = run_fig10_with(&[200_000, 1_000_000], 1, &RunOptions::default()).unwrap();
        assert!(fig10.render().contains("Figure 10"));
        let fig11 = run_fig11_with(&[200_000, 1_000_000], 1, &RunOptions::default()).unwrap();
        assert!(fig11.render().contains("c = 2i"));
        let fig12 = run_fig12_with(&[200_000, 1_000_000], 1, &RunOptions::default()).unwrap();
        assert!(fig12.render().contains("-O0"));
    }
}
