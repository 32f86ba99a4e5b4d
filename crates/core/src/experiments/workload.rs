//! Extension experiment: counter accuracy vs. *workload class*.
//!
//! The paper's grid varies the measurement infrastructure over
//! trivially predictable code; this sweep varies the *workload* — every
//! kernel of the [`Benchmark`] zoo, each with a per-event true-count
//! oracle — and asks how measurement error depends on what the code
//! under measurement does. Each cell of the sweep is one
//! (workload, event, interface) triple on the Athlon K8; the error of a
//! run is `measured − expected_counts(event)`, which the oracle
//! conformance suite guarantees is pure infrastructure perturbation,
//! never model slack.
//!
//! The sweep runs on measurement sessions; its fresh-boot oracle
//! ([`run_streaming_with`]) hands the same plan to the same runner, with
//! one boot per run instead. The rendered table and the raw-record CSV
//! are byte-identical across the two and any job count (pinned by
//! `tests/golden_workload_csv.rs`).

use counterlab_cpu::hash::seed_combine;
use counterlab_cpu::pmu::Event;
use counterlab_cpu::uarch::Processor;
use counterlab_stats::descriptive::Summary;

use crate::benchmark::Benchmark;
use crate::config::MeasurementConfig;
use crate::exec::RunOptions;
use crate::experiment::{Artifact, Experiment, ExperimentCtx, Report};
use crate::interface::{CountingMode, Interface};
use crate::measure::{run_measurement, Record};
use crate::report;
use crate::sweep::{CellFn, Measure, Plan, SeedFn, SESSION_REP_BLOCK};
use crate::Result;

/// The CSV artifact name (raw records, one per run, flat cell order).
pub const CSV_ARTIFACT: &str = "workload_accuracy.csv";

/// The rendered-table artifact name.
pub const TEXT_ARTIFACT: &str = "workload_accuracy.txt";

/// The events swept: exactly the classes for which *every* zoo kernel
/// has a closed-form user-mode oracle (`Some(_)` across the board), so
/// each cell's error is fully attributable to the infrastructure.
pub const EVENTS: [Event; 3] = [
    Event::InstructionsRetired,
    Event::BranchesRetired,
    Event::DCacheMisses,
];

/// Registry driver for the workload-class sweep.
pub struct WorkloadAccuracy;

impl WorkloadAccuracy {
    /// Zoo size parameter: the looping kernels run this many iterations
    /// (the heavyweight kernels run `ITERS / 8` — see
    /// [`Benchmark::zoo`]).
    pub const ITERS: u64 = 4096;
    /// Minimum replicates per cell for a stable median.
    pub const MIN_REPS: usize = 4;
}

/// The sweep's cells in canonical flat order:
/// workload-major, then event, then interface.
pub fn cells() -> Vec<(Benchmark, Event, Interface)> {
    let mut out = Vec::new();
    for bench in Benchmark::zoo(WorkloadAccuracy::ITERS) {
        for event in EVENTS {
            for interface in Interface::ALL {
                out.push((bench, event, interface));
            }
        }
    }
    out
}

/// The per-run seed.
fn wa_seed(cell: usize, rep: usize) -> u64 {
    seed_combine(seed_combine(0x20_AC00, cell as u64), rep as u64)
}

/// The sweep over `cells` (from [`cells`]), `reps` runs each.
pub(crate) fn plan(
    cells: &[(Benchmark, Event, Interface)],
    reps: usize,
) -> Plan<'_, impl CellFn + '_, impl SeedFn> {
    let cell = move |c: usize| {
        let (benchmark, event, interface) = cells[c];
        let cfg = MeasurementConfig::new(Processor::AthlonK8, interface)
            .with_event(event)
            .with_mode(CountingMode::User);
        (cfg, benchmark)
    };
    Plan::new(cells.len(), reps.max(2), SESSION_REP_BLOCK, cell, wa_seed)
}

/// One rendered row: a (workload, event) class's error distribution,
/// pooled across interfaces and repetitions.
#[derive(Debug, Clone)]
pub struct WorkloadRow {
    /// The workload's stable name.
    pub benchmark: &'static str,
    /// The event measured.
    pub event: Event,
    /// Error summary (measured − true count).
    pub summary: Summary,
}

/// The workload-accuracy result: the rendered rows plus the raw records
/// behind them (flat cell order), ready for CSV export.
#[derive(Debug, Clone)]
pub struct WorkloadFigure {
    /// One row per workload × event, zoo order.
    pub rows: Vec<WorkloadRow>,
    /// Every record of the sweep in flat (cell-major) order.
    pub records: Vec<Record>,
}

/// Summarizes the flat record sequence per (workload, event) class. The
/// interface varies fastest in [`cells`], so each class is one contiguous
/// run of `reps × interfaces` records, pooled in record order.
fn aggregate(records: &[Record], reps: usize) -> Result<Vec<WorkloadRow>> {
    let per_class = reps * Interface::ALL.len();
    let mut pool = Vec::with_capacity(per_class);
    records
        .chunks(per_class)
        .zip(cells().into_iter().step_by(Interface::ALL.len()))
        .map(|(class, (bench, event, _))| {
            pool.clear();
            pool.extend(class.iter().map(|rec| rec.measured as f64 - rec.expected as f64));
            Ok(WorkloadRow {
                benchmark: bench.name(),
                event,
                summary: Summary::from_slice(&pool)?,
            })
        })
        .collect()
}

/// Runs the sweep: per-cell measurement sessions (one boot per stack per
/// worker, re-targeted from block to block), records materialized in flat
/// order.
///
/// # Errors
///
/// Propagates measurement and statistics failures.
pub fn run_with(reps: usize, opts: &RunOptions) -> Result<WorkloadFigure> {
    figure(reps, opts, None)
}

/// The fresh-boot oracle of [`run_with`]: the same plan (same cells, same
/// per-run seeds, same runner) with one freshly booted stack per run
/// instead of a session. The session ≡ fresh-boot bit-identity invariant
/// makes the records equal. Nothing here streams: the name predates the
/// single statistics path and is kept because perfbench's `zoo_sweep`
/// set-up and `repro bench` call the oracle by it.
///
/// # Errors
///
/// Propagates measurement and statistics failures.
pub fn run_streaming_with(reps: usize, opts: &RunOptions) -> Result<WorkloadFigure> {
    figure(reps, opts, Some(&run_measurement))
}

/// [`run_with`] with its runs going through `measure`, if given.
fn figure(reps: usize, opts: &RunOptions, measure: Option<Measure<'_>>) -> Result<WorkloadFigure> {
    let cells = cells();
    let plan = Plan { measure, ..plan(&cells, reps) };
    let records = plan.records(opts)?;
    let rows = aggregate(&records, plan.reps)?;
    Ok(WorkloadFigure { rows, records })
}

impl WorkloadFigure {
    /// The row for a (workload, event) class.
    pub fn row(&self, benchmark: &str, event: Event) -> Option<&WorkloadRow> {
        self.rows
            .iter()
            .find(|r| r.benchmark == benchmark && r.event == event)
    }

    /// Renders the per-class error table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Extension: counter accuracy vs. workload class\n\
             (Athlon K8, user mode, error = measured - true count)\n\n",
        );
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.to_string(),
                    r.event.name().to_string(),
                    r.summary.n().to_string(),
                    format!("{:.0}", r.summary.median()),
                    format!("{:.0}", r.summary.max()),
                ]
            })
            .collect();
        out.push_str(&report::table(
            &["workload", "event", "n", "median error", "max error"],
            &rows,
        ));
        out
    }

    /// The raw records as a CSV row artifact ([`CSV_ARTIFACT`]).
    pub fn csv_artifact(self) -> Artifact {
        Artifact::rows(
            CSV_ARTIFACT,
            Box::new(move |push| {
                push(report::CSV_HEADER);
                let mut line = String::new();
                for rec in &self.records {
                    line.clear();
                    report::write_csv_line(&mut line, rec);
                    push(&line);
                }
                Ok(self.records.len() as u64)
            }),
        )
    }
}

impl Experiment for WorkloadAccuracy {
    fn id(&self) -> &'static str {
        "workload-accuracy"
    }

    fn title(&self) -> &'static str {
        "extension: counter accuracy vs. workload class (zoo sweep, K8)"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<Report> {
        let reps = ctx.scale.grid_reps.max(Self::MIN_REPS);
        let figure = run_with(reps, &ctx.opts)?;
        let mut report = Report::text(TEXT_ARTIFACT, figure.render());
        report.push(figure.csv_artifact());
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{MemorySink, Scale};

    #[test]
    fn cell_order_is_workload_major() {
        let cells = cells();
        assert_eq!(
            cells.len(),
            Benchmark::zoo(WorkloadAccuracy::ITERS).len()
                * EVENTS.len()
                * Interface::ALL.len()
        );
        assert_eq!(cells[0].0, Benchmark::Null);
        assert_eq!(cells[0].1, Event::InstructionsRetired);
        // Interface varies fastest, workload slowest.
        assert_eq!(cells[1].0, Benchmark::Null);
        assert_ne!(cells[1].2, cells[0].2);
        assert_eq!(cells.last().unwrap().1, Event::DCacheMisses);
    }

    #[test]
    fn every_swept_event_has_a_full_oracle_column() {
        // The sweep's premise: all-Some user oracles for every cell.
        for (bench, event, _) in cells() {
            assert!(
                bench.expected_counts(event).is_some(),
                "{bench} lacks a closed form for {event:?}"
            );
        }
    }

    #[test]
    fn fresh_boot_oracle_matches_sessions_bit_for_bit() {
        let batch = run_with(2, &RunOptions::default()).unwrap();
        let fresh = run_streaming_with(2, &RunOptions::with_jobs(3)).unwrap();
        assert_eq!(batch.records, fresh.records);
        assert_eq!(batch.render(), fresh.render());
    }

    #[test]
    fn errors_are_small_relative_to_true_counts() {
        let fig = run_with(2, &RunOptions::default()).unwrap();
        for rec in &fig.records {
            let err = rec.measured as i64 - rec.expected as i64;
            // User-mode counting: the infrastructure perturbs by at most
            // a few thousand events, never by a benchmark-sized amount.
            assert!(
                (0..=5_000).contains(&err),
                "{}/{:?}: err = {err}",
                rec.benchmark,
                rec.config.event
            );
        }
    }

    #[test]
    fn experiment_emits_table_and_csv() {
        let ctx = ExperimentCtx::new(Scale::quick());
        let mut sink = MemorySink::new();
        let emitted = WorkloadAccuracy.run(&ctx).unwrap().emit(&mut sink).unwrap();
        assert_eq!(emitted.len(), 2);
        let text = &sink.get(TEXT_ARTIFACT).unwrap().content;
        assert!(text.contains("workload"));
        assert!(text.contains("syscallheavy"));
        let csv = &sink.get(CSV_ARTIFACT).unwrap().content;
        assert!(csv.starts_with(report::CSV_HEADER));
        assert_eq!(
            csv.lines().count() as u64,
            emitted[1].rows.unwrap() + 1
        );
    }
}
