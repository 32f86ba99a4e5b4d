//! The repository benchmark: end-to-end workloads over the counterlab
//! stack, and a traced run that splits measurement runs across the
//! layers they cross, countd's included.
//!
//! ```text
//! perfbench --workload <null_csv|zoo_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the named workload for `--seconds` and reports its
//! end-to-end metrics. `--trace 1` runs the layer profile instead (see
//! `trace.rs`); it is the same profile for every workload name, seeded
//! by `--seed`. The last line of standard output is one JSON object with
//! exactly the keys `correct`, `attempted`, `failed` and `metrics`;
//! progress and detail go to standard error.

mod alloc;
mod clock;
mod countd;
mod local;
mod trace;

use std::hash::{DefaultHasher, Hasher};
use std::process::ExitCode;

use counterlab::cpu::hash::seed_combine;

/// Repetitions per cell in every workload: the standard scale's grid
/// repetition count.
pub const REPS: usize = 10;

/// One named measurement with its unit.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a run reports: the output check verdict, the operation counts
/// and the metrics.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<Metric>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Marks the run incorrect and says why on standard error.
    pub fn fail(&mut self, why: impl std::fmt::Display) {
        eprintln!("perfbench: CHECK FAILED: {why}");
        self.correct = false;
    }

    fn json(&self) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Command-line arguments, all required.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err(format!("--seconds {s} out of range (0, 120]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// A sub-seed for one input stream, derived from `--seed`.
    pub fn stream(&self, tag: u64) -> u64 {
        seed_combine(seed_combine(0x00BE_4C11, self.seed), tag)
    }
}

const WORKLOADS: [&str; 2] = ["null_csv", "zoo_sweep"];

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let started = clock::Stopwatch::start();
    let outcome = if args.trace {
        trace::run(&args)
    } else {
        match args.workload.as_str() {
            "null_csv" => local::null_csv(&args),
            _ => local::zoo_sweep(&args),
        }
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!("perfbench: finished in {:.1} s", started.secs());
    for m in &outcome.metrics {
        eprintln!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    match outcome.json() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Median of `values` (the mean of the two middle values for an even
/// count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `(0, 1]` of `values`; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Prints a latency sample's size, p10, p50 and p99 to standard error,
/// with how many samples lie beyond the p99.
pub fn describe(what: &str, latencies_ms: &[f64]) {
    let p99 = quantile(latencies_ms, 0.99);
    let beyond = latencies_ms.iter().filter(|&&v| v > p99).count();
    eprintln!(
        "perfbench: {what}: {} samples, p10 {:.4} ms, p50 {:.4} ms, p99 {p99:.4} ms ({beyond} beyond)",
        latencies_ms.len(),
        quantile(latencies_ms, 0.1),
        median(latencies_ms),
    );
}

/// Hash of a byte string, for output identity checks without keeping
/// the bytes. `DefaultHasher::new()` uses fixed keys, so equal strings
/// hash equal within one build.
pub fn hash_str(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(s.as_bytes());
    h.finish()
}
