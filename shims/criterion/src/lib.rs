//! Offline stand-in for the subset of the `criterion` benchmark harness
//! that counterlab's `benches/` use: `criterion_group!`/`criterion_main!`,
//! `Criterion::benchmark_group`, `BenchmarkGroup::{sample_size,
//! bench_function, finish}`, `Bencher::iter` and `black_box`.
//!
//! Timing methodology is intentionally simple — geometric ramp-up until a
//! wall-clock floor is reached, then a mean ns/iter over that run —
//! because the numbers only need to be *comparable between commits on the
//! same machine*, not statistically rigorous. `cargo bench` finishes in
//! seconds rather than minutes, and `cargo bench --no-run` (the CI gate)
//! only needs the API surface to compile.

#![forbid(unsafe_code)]
#![expect(clippy::disallowed_methods, reason = "a benchmark harness reads the wall clock")]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Wall-clock floor per benchmark; keeps full `cargo bench` runs fast.
const TARGET_PER_BENCH: Duration = Duration::from_millis(60);

/// Harness entry point handed to each `criterion_group!` target.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            _criterion: self,
        }
    }

    /// Ungrouped single benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one("", &id.into(), f);
        self
    }
}

/// A named collection of benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim is time-bounded instead of
    /// sample-count-bounded, so the value is not used.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; the shim's floor is fixed.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&self.name, &id.into(), f);
        self
    }

    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(group: &str, id: &str, mut f: F) {
    let mut bencher = Bencher {
        ns_per_iter: 0.0,
        iters: 0,
    };
    f(&mut bencher);
    let label = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    if bencher.iters == 0 {
        println!("bench {label:<40} (no iterations recorded)");
    } else {
        println!(
            "bench {label:<40} {:>14.1} ns/iter ({} iters)",
            bencher.ns_per_iter, bencher.iters,
        );
    }
}

/// Passed to the closure given to `bench_function`.
#[derive(Debug)]
pub struct Bencher {
    ns_per_iter: f64,
    iters: u64,
}

impl Bencher {
    /// Time `routine`, ramping the iteration count geometrically until the
    /// wall-clock floor is met so that very fast routines still get a
    /// stable per-iteration figure.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up: one untimed call (page-in, lazy init).
        black_box(routine());
        let mut n: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..n {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= TARGET_PER_BENCH || n >= 1 << 24 {
                self.ns_per_iter = elapsed.as_nanos() as f64 / n as f64;
                self.iters = n;
                return;
            }
            // Jump straight towards the target based on what we observed.
            let observed_ns = elapsed.as_nanos().max(1);
            let needed = (TARGET_PER_BENCH.as_nanos() / observed_ns).max(2) as u64;
            n = n.saturating_mul(needed).min(1 << 24);
        }
    }
}

/// `criterion_group!(name, target_a, target_b, ...)` — the plain form; the
/// `config = ...` form is not used in-tree.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// `criterion_main!(group_a, group_b, ...)`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` forwards harness arguments (e.g. --bench, a
            // filter, --no-run is handled by cargo itself); the shim runs
            // everything and only needs to not choke on them.
            $($group();)+
        }
    };
}
