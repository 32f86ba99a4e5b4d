//! Extension experiment: accuracy of *cache-miss* measurements.
//!
//! The paper stops at instruction and cycle counts and flags per-event
//! perturbation as future work (§7), citing Korn et al.'s array-walk
//! micro-benchmarks. This experiment implements that direction: the
//! [`Benchmark::ArrayWalk`] loop touches one new element per iteration,
//! so its true L1 d-cache miss count is analytically known
//! (`iterations / 16` with 64-byte lines and 4-byte elements), and the
//! measured excess is the infrastructure's own cache pollution —
//! exactly the effect Dongarra et al. describe but never quantified.

use counterlab_cpu::pmu::Event;
use counterlab_cpu::uarch::Processor;
use counterlab_stats::boxplot::BoxPlot;

use crate::benchmark::Benchmark;
use crate::config::MeasurementConfig;
use crate::exec::{self, RunOptions};
use crate::experiment::{Experiment, ExperimentCtx, Report};
use crate::interface::{CountingMode, Interface};
use crate::measure::MeasurementSession;
use crate::pattern::Pattern;
use crate::report;
use crate::{CoreError, Result};

/// The analytically expected d-cache misses of an array walk.
pub fn expected_misses(iters: u64) -> u64 {
    iters / counterlab_cpu::machine::Machine::SEQUENTIAL_WALK_MISS_PERIOD
}

/// The per-run seed of the cache sweep — one definition shared by the
/// runs and the session boot (so the first repetition's run consumes the
/// boot state directly).
fn cache_seed(interface: Interface, rep: usize) -> u64 {
    0xCAC4E ^ (rep as u64) << 8 ^ (interface as u64)
}

/// One row: an interface's d-cache-miss measurement error distribution.
#[derive(Debug, Clone)]
pub struct CacheRow {
    /// The interface.
    pub interface: Interface,
    /// Error distribution (measured − expected misses).
    pub boxplot: BoxPlot,
}

/// The cache-accuracy experiment result.
#[derive(Debug, Clone)]
pub struct CacheFigure {
    /// One row per interface.
    pub rows: Vec<CacheRow>,
    /// Iterations of the array walk used.
    pub iters: u64,
    /// The analytical miss count.
    pub expected: u64,
}

/// Registry driver for the d-cache extension. The Korn-style array walk
/// runs on the Athlon K8 at [`ExtCache::ITERS`] iterations, and the
/// quartiles need a few replicates, so the driver floors the scale's
/// grid repetitions at [`ExtCache::MIN_REPS`] — experiment invariants
/// live here, not in the CLI.
pub struct ExtCache;

impl ExtCache {
    /// Array-walk iterations (100k true misses at the 16-element line
    /// period).
    pub const ITERS: u64 = 1_600_000;
    /// Minimum replicates per interface for stable quartiles.
    pub const MIN_REPS: usize = 4;
}

impl Experiment for ExtCache {
    fn id(&self) -> &'static str {
        "ext-cache"
    }

    fn title(&self) -> &'static str {
        "extension: d-cache miss accuracy (Korn-style array walk, K8)"
    }

    fn run(&self, ctx: &ExperimentCtx<'_>) -> Result<Report> {
        let reps = ctx.scale.grid_reps.max(Self::MIN_REPS);
        let fig = run_with(Processor::AthlonK8, Self::ITERS, reps, &ctx.opts)?;
        Ok(Report::text("ext-cache.txt", fig.render()))
    }
}

/// Runs the experiment: `reps` array-walk measurements of
/// `PAPI_L1_DCM`-equivalent counts per interface on the given processor.
///
/// # Errors
///
/// Propagates measurement and statistics failures.
pub fn run_with(
    processor: Processor,
    iters: u64,
    reps: usize,
    opts: &RunOptions<'_>,
) -> Result<CacheFigure> {
    let expected = expected_misses(iters);
    let reps = reps.max(2);
    let cfg_for = |interface: Interface, rep: usize| {
        MeasurementConfig::new(processor, interface)
            .with_pattern(Pattern::StartRead)
            .with_event(Event::DCacheMisses)
            .with_mode(CountingMode::UserKernel)
            .with_hz(0)
            .with_seed(cache_seed(interface, rep))
    };
    let excess = exec::run_cell_chunked(
        Interface::ALL.len(),
        reps,
        exec::SESSION_REP_BLOCK,
        opts,
        |prev, cell, first_rep| {
            MeasurementSession::reuse(
                prev,
                &cfg_for(Interface::ALL[cell], first_rep),
                Benchmark::ArrayWalk { iters },
            )
        },
        |session, idx| {
            let interface = Interface::ALL[idx / reps];
            let rec = session.run(cache_seed(interface, idx % reps))?;
            Ok(rec.measured as f64 - expected as f64)
        },
    )?;

    let mut rows = Vec::new();
    for (i, &interface) in Interface::ALL.iter().enumerate() {
        let errors = &excess[i * reps..(i + 1) * reps];
        if errors.is_empty() {
            return Err(CoreError::NoData("cache row"));
        }
        rows.push(CacheRow {
            interface,
            boxplot: BoxPlot::from_slice(errors)?,
        });
    }
    Ok(CacheFigure {
        rows,
        iters,
        expected,
    })
}

impl CacheFigure {
    /// The row for an interface.
    pub fn row(&self, interface: Interface) -> Option<&CacheRow> {
        self.rows.iter().find(|r| r.interface == interface)
    }

    /// Renders the experiment.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Extension: Accuracy of d-cache miss measurements\n\
             (array walk, {} iterations, {} true misses)\n\n",
            self.iters, self.expected
        );
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.interface.to_string(),
                    format!("{:.0}", r.boxplot.median()),
                    format!(
                        "{:.3}%",
                        100.0 * r.boxplot.median() / self.expected.max(1) as f64
                    ),
                ]
            })
            .collect();
        out.push_str(&report::table(
            &["tool", "median excess misses", "relative"],
            &rows,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_model() {
        assert_eq!(expected_misses(16_000), 1_000);
        assert_eq!(expected_misses(15), 0);
    }

    #[test]
    fn pollution_positive_and_small() {
        let fig = run_with(Processor::AthlonK8, 160_000, 4, &RunOptions::default()).unwrap();
        for row in &fig.rows {
            let med = row.boxplot.median();
            // The infrastructure's own loads add misses…
            assert!(med >= 0.0, "{}: {med}", row.interface);
            // …but only a tiny fraction of the benchmark's true count.
            assert!(
                med < 0.05 * fig.expected as f64,
                "{}: {med} vs expected {}",
                row.interface,
                fig.expected
            );
        }
    }

    #[test]
    fn syscall_interfaces_pollute_more() {
        // perfmon's kernel read path executes far more loads than
        // perfctr's user-mode read.
        let fig = run_with(Processor::AthlonK8, 160_000, 4, &RunOptions::default()).unwrap();
        let pm = fig.row(Interface::Pm).unwrap().boxplot.median();
        let pc = fig.row(Interface::Pc).unwrap().boxplot.median();
        assert!(pm > pc, "pm {pm} should exceed pc {pc}");
    }

    #[test]
    fn renders() {
        let fig = run_with(Processor::Core2Duo, 32_000, 2, &RunOptions::default()).unwrap();
        let text = fig.render();
        assert!(text.contains("d-cache"));
        assert!(text.contains("pm"));
    }
}
