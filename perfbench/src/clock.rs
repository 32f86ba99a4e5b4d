//! The benchmark's one clock. Every timing the benchmark takes starts a
//! [`Stopwatch`]; no measured record depends on it.

// countlint: allow(wall-clock-in-core) -- a benchmark's timings are wall-clock reads by definition
use std::time::Instant;

/// A running stopwatch.
#[derive(Clone, Copy)]
pub struct Stopwatch(
    // countlint: allow(wall-clock-in-core) -- as above: the stopwatch's start
    Instant,
);

impl Stopwatch {
    pub fn start() -> Self {
        // countlint: allow(wall-clock-in-core) -- as above: starting a timing
        Stopwatch(Instant::now())
    }

    /// Seconds since the start.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds since the start.
    pub fn ns(&self) -> f64 {
        self.secs() * 1e9
    }

    /// Whole nanoseconds since the start (span timestamps).
    pub fn nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}
