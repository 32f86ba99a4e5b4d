//! Measurement-error compensation (an implementation of the idea the
//! paper's §9 attributes to Najafzadeh & Chaiken: estimate the cost of
//! reading out counters with *null probes* and subtract it).
//!
//! The fixed access cost of §4 is highly repeatable for a given
//! configuration (same interface, pattern, counter set, processor), so a
//! calibration pass over the null benchmark yields a correction that
//! removes most of it. What cannot be compensated is the *variable* part:
//! per-call jitter, interrupt hits inside the window, and the
//! duration-dependent kernel-mode error of §5.
//!
//! # Examples
//!
//! ```
//! use counterlab::compensation::Compensator;
//! use counterlab::prelude::*;
//!
//! # fn main() -> Result<(), counterlab::CoreError> {
//! let config = MeasurementConfig::new(Processor::AthlonK8, Interface::Pm)
//!     .with_mode(CountingMode::User)
//!     .with_hz(0);
//! let comp = Compensator::calibrate(&config, 15)?;
//! let raw = run_measurement(&config, Benchmark::Loop { iters: 1000 })?;
//! let corrected = comp.corrected(&raw);
//! // The corrected count is within a few instructions of the true 3001.
//! assert!((corrected - 3001).abs() < 10, "corrected = {corrected}");
//! # Ok(()) }
//! ```

use counterlab_stats::quantile::median;

use crate::benchmark::Benchmark;
use crate::config::MeasurementConfig;
use crate::measure::{run_measurement, Record};
use crate::{CoreError, Result};

/// A calibrated fixed-cost correction for one measurement configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Compensator {
    config: MeasurementConfig,
    fixed_cost: f64,
    spread: f64,
    probes: usize,
}

impl Compensator {
    /// Calibrates by running `probes` null-benchmark measurements with the
    /// given configuration (distinct seeds derived from the config's) and
    /// taking the median error as the fixed cost.
    ///
    /// # Errors
    ///
    /// Propagates measurement failures; [`CoreError::InvalidConfig`] when
    /// `probes == 0`.
    pub fn calibrate(config: &MeasurementConfig, probes: usize) -> Result<Self> {
        if probes == 0 {
            return Err(CoreError::InvalidConfig(
                "compensation needs at least one probe".to_string(),
            ));
        }
        let mut errors = Vec::with_capacity(probes);
        for i in 0..probes {
            let cfg = config.with_seed(config.seed ^ (0xC0_1D_u64 << 16) ^ i as u64);
            let rec = run_measurement(&cfg, Benchmark::Null)?;
            errors.push(rec.error() as f64);
        }
        let fixed_cost = median(&errors)?;
        let spread = errors.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - errors.iter().cloned().fold(f64::INFINITY, f64::min);
        Ok(Compensator {
            config: *config,
            fixed_cost,
            spread,
            probes,
        })
    }

    /// The estimated fixed access cost (instructions inside the window).
    pub fn fixed_cost(&self) -> f64 {
        self.fixed_cost
    }

    /// The spread (max − min) observed across probes — a bound on how well
    /// compensation can possibly do.
    pub fn spread(&self) -> f64 {
        self.spread
    }

    /// Number of calibration probes used.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// The corrected event count for a measurement taken with the same
    /// configuration: `measured − fixed_cost`, rounded.
    pub fn corrected(&self, record: &Record) -> i64 {
        (record.measured as f64 - self.fixed_cost).round() as i64
    }

    /// The residual error after compensation: `corrected − expected`.
    pub fn residual(&self, record: &Record) -> i64 {
        self.corrected(record) - record.expected as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::{CountingMode, Interface};
    use counterlab_cpu::uarch::Processor;

    fn base() -> MeasurementConfig {
        MeasurementConfig::new(Processor::Core2Duo, Interface::Pm)
            .with_mode(CountingMode::User)
            .with_hz(0)
    }

    #[test]
    fn compensation_removes_most_fixed_cost() {
        let cfg = base();
        let comp = Compensator::calibrate(&cfg, 20).unwrap();
        // Fixed cost ≈ the Table 3 pm/user value.
        assert!(
            (30.0..=50.0).contains(&comp.fixed_cost()),
            "{}",
            comp.fixed_cost()
        );
        let raw = run_measurement(&cfg, Benchmark::Loop { iters: 5_000 }).unwrap();
        assert!(raw.error() > 30);
        let residual = comp.residual(&raw);
        assert!(residual.abs() <= 6, "residual = {residual}");
    }

    #[test]
    fn compensation_works_for_every_interface() {
        for interface in Interface::ALL {
            let cfg = MeasurementConfig::new(Processor::AthlonK8, interface)
                .with_mode(CountingMode::UserKernel)
                .with_hz(0);
            let comp = Compensator::calibrate(&cfg, 15).unwrap();
            let raw = run_measurement(&cfg, Benchmark::Loop { iters: 100 }).unwrap();
            let residual = comp.residual(&raw);
            // Jitter-bound residual, vs. raw errors of tens to hundreds.
            assert!(
                residual.abs() < 40,
                "{interface}: residual {residual} (raw {})",
                raw.error()
            );
            assert!(raw.error() > residual.abs());
        }
    }

    #[test]
    fn cannot_compensate_duration_error() {
        // With the timer on, long loops accrue kernel instructions the
        // null calibration can't see.
        let cfg = MeasurementConfig::new(Processor::Core2Duo, Interface::Pm)
            .with_mode(CountingMode::UserKernel);
        let comp = Compensator::calibrate(&cfg, 10).unwrap();
        let long = run_measurement(&cfg, Benchmark::Loop { iters: 40_000_000 }).unwrap();
        let residual = comp.residual(&long);
        assert!(
            residual > 3_000,
            "duration error must survive compensation: {residual}"
        );
    }

    #[test]
    fn zero_probes_rejected() {
        assert!(Compensator::calibrate(&base(), 0).is_err());
    }

    #[test]
    fn spread_is_nonnegative_and_small() {
        let comp = Compensator::calibrate(&base(), 25).unwrap();
        assert!(comp.spread() >= 0.0);
        assert!(comp.spread() < 20.0, "spread = {}", comp.spread());
        assert_eq!(comp.probes(), 25);
    }
}
