//! `streaming_vs_batch`: the streaming statistics engine against the
//! record-materializing batch path, on the full §3 null grid at rising
//! repetition counts.
//!
//! What the numbers demonstrate:
//!
//! * **Wall clock** — the simulated measurement dominates both engines,
//!   so `stream_*` tracks `batch_*` within measurement noise: at low rep
//!   counts the per-cell accumulator setup costs a few percent, and the
//!   gap closes as `reps` rises (exactly where the batch path's record
//!   vector gets expensive). Equal-or-better is the expectation at high
//!   rep counts.
//! * **Memory** — the batch path's resident set grows as
//!   `O(cells × reps)` records, the streaming path's as `O(cells)`
//!   accumulators: raising `reps` leaves the streaming side's allocation
//!   profile flat while the batch side's vector grows linearly. (The
//!   criterion shim measures time only; the memory claim is enforced
//!   structurally — `Grid::run_fold` simply never holds more than one
//!   accumulator per cell plus one in-flight record per worker.)

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use counterlab::exec::RunOptions;
use counterlab::grid::Grid;
use counterlab_stats::descriptive::Summary;

/// Batch reference: materialize every record, then summarize each cell
/// with the sort-based batch API.
fn batch_cell_summaries(grid: &Grid, opts: &RunOptions) -> Vec<Summary> {
    let records = grid.run_with(opts).expect("grid");
    records
        .chunks(grid.reps)
        .map(|cell| {
            let errors: Vec<f64> = cell.iter().map(|r| r.error() as f64).collect();
            Summary::from_slice(&errors).expect("summary")
        })
        .collect()
}

/// Streaming: one `SummaryAccumulator` per cell, no record vector.
fn stream_cell_summaries(grid: &Grid, opts: &RunOptions) -> Vec<Summary> {
    grid.run_summaries(opts)
        .expect("grid")
        .into_iter()
        .map(|c| c.summary)
        .collect()
}

fn bench_streaming_vs_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("streaming_vs_batch");
    g.sample_size(10);
    let opts = RunOptions::with_jobs(4);
    for reps in [1usize, 4, 16] {
        let grid = Grid::full_null(reps);
        g.bench_function(format!("batch_full_null_reps{reps}"), |b| {
            b.iter(|| batch_cell_summaries(black_box(&grid), &opts))
        });
        g.bench_function(format!("stream_full_null_reps{reps}"), |b| {
            b.iter(|| stream_cell_summaries(black_box(&grid), &opts))
        });
    }
    // The byte-identical CSV pair: batch serialization of the record
    // vector vs the bounded-chunk streaming writer.
    let grid = Grid::full_null(2);
    g.bench_function("batch_csv", |b| {
        b.iter(|| {
            let records = grid.run_with(black_box(&opts)).expect("grid");
            counterlab::report::records_to_csv(&records).len()
        })
    });
    g.bench_function("stream_csv", |b| {
        b.iter(|| {
            let mut bytes = 0usize;
            grid.run_csv(black_box(&opts), |line| bytes += line.len())
                .expect("grid");
            bytes
        })
    });
    g.finish();
}

/// Sanity check run by `cargo bench` itself: the two engines agree on
/// every cell (exact medians at these rep counts — inside the exact
/// window), so the speedup is not bought with wrong numbers.
fn bench_equivalence_guard(c: &mut Criterion) {
    let mut g = c.benchmark_group("streaming_vs_batch_guard");
    g.sample_size(10);
    let grid = Grid::full_null(2);
    let opts = RunOptions::with_jobs(4);
    let batch = batch_cell_summaries(&grid, &opts);
    let stream = stream_cell_summaries(&grid, &opts);
    assert_eq!(batch.len(), stream.len());
    for (b, s) in batch.iter().zip(&stream) {
        assert_eq!(b.median(), s.median());
        assert_eq!(b.min(), s.min());
        assert_eq!(b.max(), s.max());
    }
    g.bench_function("noop_guard", |b| b.iter(|| black_box(batch.len())));
    g.finish();
}

criterion_group!(benches, bench_streaming_vs_batch, bench_equivalence_guard);
criterion_main!(benches);
