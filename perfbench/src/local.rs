//! The two local workloads: `null_csv` (the `repro csv` path) and
//! `zoo_sweep` (the `workload-accuracy` batch driver). Both run on one
//! thread (`RunOptions::sequential()`), so their figures do not depend
//! on how many CPUs the host happens to lend them.

use counterlab::exec::RunOptions;
use counterlab::experiments::workload;
use counterlab::grid::Grid;
use counterlab::measure::Record;
use std::hash::{DefaultHasher, Hasher};

use crate::clock::Stopwatch;
use crate::{alloc, describe, Args, Outcome, REPS};

/// Operations every timed loop completes, however short `--seconds` is.
const MIN_OPS: usize = 3;

/// Timed operations between two set-ups in the window.
const OPS_PER_SETUP: usize = 4;

/// Operations a run has room to record without allocating: about fifteen
/// times what `zoo_sweep`, the faster workload, completes in a 60 s run.
const BOOKKEEPING: usize = 1 << 16;

/// The full §3 null grid at [`REPS`] repetitions under `base_seed`.
pub fn null_grid(base_seed: u64) -> Grid {
    let mut grid = Grid::full_null(REPS);
    grid.base_seed = base_seed;
    grid
}

/// One timed operation: its duration, heap allocations, records and
/// output (for the identity checks).
pub struct OpRun<T> {
    pub ns: f64,
    pub allocs: u64,
    pub records: usize,
    pub output: T,
}

impl<T> OpRun<T> {
    pub fn ns_per_record(&self) -> f64 {
        self.ns / self.records as f64
    }
}

fn timed<T>(op: impl FnOnce() -> Result<(usize, T), String>) -> Result<OpRun<T>, String> {
    let a0 = alloc::allocations();
    let t0 = Stopwatch::start();
    let (records, output) = op()?;
    let ns = t0.ns();
    Ok(OpRun {
        ns,
        allocs: alloc::allocations() - a0,
        records,
        output,
    })
}

/// `Grid::run_csv` into a hashing sink; the output is the hash.
pub fn export_csv(grid: &Grid) -> Result<OpRun<u64>, String> {
    let mut h = DefaultHasher::new();
    let run = timed(|| {
        let n = grid
            .run_csv(&RunOptions::sequential(), |line| h.write(line.as_bytes()))
            .map_err(|e| e.to_string())?;
        Ok((n, ()))
    })?;
    Ok(OpRun {
        ns: run.ns,
        allocs: run.allocs,
        records: run.records,
        output: h.finish(),
    })
}

/// One `workload-accuracy` batch sweep at [`REPS`] repetitions; the
/// output is its records.
pub fn zoo_op() -> Result<OpRun<Vec<Record>>, String> {
    timed(|| {
        let figure =
            workload::run_with(REPS, &RunOptions::sequential()).map_err(|e| e.to_string())?;
        Ok((figure.records.len(), figure.records))
    })
}

/// What a closed loop observed.
struct Loop {
    latencies_ms: Vec<f64>,
    /// (allocations, records) per operation: must repeat exactly.
    allocs: Vec<(u64, usize)>,
    /// Seconds each set-up took.
    setups: Vec<f64>,
    peak_heap_mb: f64,
}

/// The closed loop both local workloads share.
///
/// `setup` builds the inputs and computes, on the fresh-boot oracle path,
/// the output every timed operation must reproduce. It runs once before
/// the window and again after every [`OPS_PER_SETUP`] operations in it,
/// outside the operation timings, so that set-up time is sampled across
/// the whole run, as operation latency is.
fn closed_loop<F, T: PartialEq>(
    args: &Args,
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<(F, T), String>,
    mut op: impl FnMut(&F) -> Result<OpRun<T>, String>,
) -> Result<Loop, String> {
    // The bookkeeping is allocated up front, so that it never grows
    // inside the window, and is live before it opens, so that the peak
    // (taken above what is live then) counts none of it and stays exact
    // however many operations a run completes.
    let mut setups = Vec::with_capacity(BOOKKEEPING);
    let mut latencies_ms = Vec::with_capacity(BOOKKEEPING);
    let mut allocs = Vec::with_capacity(BOOKKEEPING);
    let t0 = Stopwatch::start();
    let (mut fixture, reference) = setup()?;
    setups.push(t0.secs());
    let live_before = alloc::reset_peak();
    let t0 = Stopwatch::start();
    let mut n = 0usize;
    while n < MIN_OPS || t0.secs() < args.seconds {
        if n > 0 && n.is_multiple_of(OPS_PER_SETUP) {
            let s0 = Stopwatch::start();
            let (again, again_reference) = setup()?;
            setups.push(s0.secs());
            if again_reference != reference {
                out.fail("a repeated set-up produced different output");
            }
            fixture = again;
        }
        n += 1;
        out.attempted += 1;
        match op(&fixture) {
            Ok(run) => {
                if run.output != reference {
                    out.failed += 1;
                    out.fail("an operation's output differs from the fresh-boot oracle's");
                }
                latencies_ms.push(run.ns / 1e6);
                allocs.push((run.allocs, run.records));
            }
            Err(e) => {
                out.failed += 1;
                out.fail(e);
            }
        }
    }
    Ok(Loop {
        latencies_ms,
        allocs,
        setups,
        peak_heap_mb: alloc::peak_mib_above(live_before),
    })
}

/// The fastest of `values`: the time the work took in the host's quietest
/// moment.
///
/// Every operation of a local workload does the same work, and so does
/// every set-up, and a busy host only adds time to them. On a host whose
/// cores are shared with other tenants, a run can be slowed for most of
/// its length, which moves its median and even its 5th percentile by up
/// to a third between runs of the same code; its minimum, by about a
/// tenth.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn report(out: &mut Outcome, what: &str, l: &Loop) {
    let (allocs, records) =
        exact_count(out, &format!("{what} allocations per operation"), &l.allocs);
    describe(what, &l.latencies_ms);
    let setup_ms: Vec<f64> = l.setups.iter().map(|s| s * 1e3).collect();
    describe(&format!("{what} set-ups"), &setup_ms);
    let op_ms = fastest(&l.latencies_ms);
    out.metric("runs_per_s", records as f64 / (op_ms / 1e3), "runs/s");
    out.metric("allocs_per_run", allocs as f64 / records as f64, "count");
    out.metric("setup_s", fastest(&l.setups), "s");
    out.metric("peak_heap_mb", l.peak_heap_mb, "MiB");
}

/// `null_csv`: closed loop of whole-grid CSV exports. Set-up builds the
/// grid and hashes the CSV of its fresh-boot oracle
/// (`Grid::fresh_boot = true`); every session export must produce the
/// same bytes.
pub fn null_csv(args: &Args) -> Result<Outcome, String> {
    let base_seed = args.stream(1);
    let mut out = Outcome::default();
    let l = closed_loop(
        args,
        &mut out,
        || {
            let grid = null_grid(base_seed);
            let mut oracle = grid.clone();
            oracle.fresh_boot = true;
            let hash = export_csv(&oracle)?.output;
            Ok((grid, hash))
        },
        export_csv,
    )?;
    report(&mut out, "null_csv exports", &l);
    Ok(out)
}

/// `zoo_sweep`: closed loop of whole zoo sweeps. Set-up runs the
/// fresh-boot streaming driver (`workload::run_streaming_with`); every
/// batch sweep must produce the same records.
///
/// The driver derives its per-run seeds internally and takes none, so
/// this workload's inputs are the same for every `--seed`.
pub fn zoo_sweep(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let l = closed_loop(
        args,
        &mut out,
        || {
            let oracle = workload::run_streaming_with(REPS, &RunOptions::sequential())
                .map_err(|e| e.to_string())?;
            Ok(((), oracle.records))
        },
        |()| zoo_op(),
    )?;
    report(&mut out, "zoo_sweep sweeps", &l);
    Ok(out)
}

/// Checks that a count repeats exactly across a run's operations (a
/// count that a later change may claim on must not drift) and returns it.
pub fn exact_count<T: PartialEq + Copy + Default + std::fmt::Debug>(
    out: &mut Outcome,
    what: &str,
    values: &[T],
) -> T {
    let Some(&first) = values.first() else {
        out.fail(format!("{what}: nothing was counted"));
        return T::default();
    };
    if let Some(other) = values.iter().find(|v| **v != first) {
        out.fail(format!("{what} is not exact: {first:?} then {other:?}"));
    }
    first
}
