//! Bootstrap confidence intervals.
//!
//! The paper reports point medians (Table 3) without uncertainty. When
//! comparing infrastructures whose medians differ by tens of
//! instructions, knowing the sampling error of those medians matters —
//! this module provides seeded percentile-bootstrap intervals for any
//! statistic, used by the reproduction's reports.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::check_sample;
use crate::{Result, StatsError};

/// A two-sided confidence interval for a statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// The statistic on the original sample.
    pub point: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level (e.g. 0.95).
    pub level: f64,
}

impl ConfidenceInterval {
    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether the interval contains `v`.
    pub fn contains(&self, v: f64) -> bool {
        (self.lo..=self.hi).contains(&v)
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3} [{:.3}, {:.3}] @{:.0}%",
            self.point,
            self.lo,
            self.hi,
            self.level * 100.0
        )
    }
}

/// Percentile-bootstrap confidence interval for an arbitrary statistic.
///
/// Resamples `xs` with replacement `resamples` times (seeded — fully
/// deterministic), evaluates `statistic` on each resample, and takes the
/// `(1±level)/2` percentiles of the bootstrap distribution.
///
/// # Errors
///
/// * sample-validity errors as elsewhere in this crate;
/// * [`StatsError::InvalidParameter`] unless `0 < level < 1` and
///   `resamples >= 10`;
/// * errors from `statistic` propagate.
///
/// # Examples
///
/// ```
/// use counterlab_stats::bootstrap::bootstrap_ci;
/// use counterlab_stats::quantile::median;
///
/// let data: Vec<f64> = (0..100).map(|i| (i % 13) as f64).collect();
/// let ci = bootstrap_ci(&data, median, 200, 0.95, 42).unwrap();
/// assert!(ci.contains(ci.point));
/// assert!(ci.width() < 5.0);
/// ```
pub fn bootstrap_ci(
    xs: &[f64],
    statistic: impl Fn(&[f64]) -> Result<f64>,
    resamples: usize,
    level: f64,
    seed: u64,
) -> Result<ConfidenceInterval> {
    check_sample(xs)?;
    if !(0.0..1.0).contains(&level) || level <= 0.0 {
        return Err(StatsError::InvalidParameter(
            "confidence level must be in (0, 1)",
        ));
    }
    if resamples < 10 {
        return Err(StatsError::InvalidParameter(
            "bootstrap needs at least 10 resamples",
        ));
    }
    let point = statistic(xs)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = Vec::with_capacity(resamples);
    let mut resample = vec![0.0; xs.len()];
    for _ in 0..resamples {
        for slot in resample.iter_mut() {
            *slot = xs[rng.gen_range(0..xs.len())];
        }
        stats.push(statistic(&resample)?);
    }
    let alpha = (1.0 - level) / 2.0;
    let lo = crate::quantile::quantile(&stats, alpha, crate::quantile::QuantileMethod::Linear)?;
    let hi =
        crate::quantile::quantile(&stats, 1.0 - alpha, crate::quantile::QuantileMethod::Linear)?;
    Ok(ConfidenceInterval {
        point,
        lo,
        hi,
        level,
    })
}

/// Convenience: bootstrap CI of the median.
///
/// # Errors
///
/// As [`bootstrap_ci`].
pub fn median_ci(xs: &[f64], resamples: usize, level: f64, seed: u64) -> Result<ConfidenceInterval> {
    bootstrap_ci(xs, crate::quantile::median, resamples, level, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::mean;

    fn spread_sample() -> Vec<f64> {
        (0..200).map(|i| ((i * 7919) % 100) as f64).collect()
    }

    #[test]
    fn interval_brackets_point() {
        let ci = median_ci(&spread_sample(), 300, 0.95, 7).unwrap();
        assert!(ci.lo <= ci.point);
        assert!(ci.point <= ci.hi);
        assert!(ci.contains(ci.point));
    }

    #[test]
    fn constant_sample_zero_width() {
        let ci = median_ci(&[5.0; 50], 100, 0.95, 7).unwrap();
        assert_eq!(ci.point, 5.0);
        assert_eq!(ci.width(), 0.0);
    }

    #[test]
    fn wider_level_wider_interval() {
        let xs = spread_sample();
        let narrow = bootstrap_ci(&xs, mean, 400, 0.80, 7).unwrap();
        let wide = bootstrap_ci(&xs, mean, 400, 0.99, 7).unwrap();
        assert!(wide.width() >= narrow.width());
    }

    #[test]
    fn more_data_tighter_interval() {
        let small: Vec<f64> = (0..20).map(|i| ((i * 7919) % 100) as f64).collect();
        let large: Vec<f64> = (0..2000).map(|i| ((i * 7919) % 100) as f64).collect();
        let ci_small = bootstrap_ci(&small, mean, 400, 0.95, 7).unwrap();
        let ci_large = bootstrap_ci(&large, mean, 400, 0.95, 7).unwrap();
        assert!(ci_large.width() < ci_small.width());
    }

    #[test]
    fn deterministic_given_seed() {
        let xs = spread_sample();
        let a = median_ci(&xs, 200, 0.95, 3).unwrap();
        let b = median_ci(&xs, 200, 0.95, 3).unwrap();
        assert_eq!(a, b);
        let c = median_ci(&xs, 200, 0.95, 4).unwrap();
        // Different seed: same point, probably different bounds.
        assert_eq!(a.point, c.point);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let xs = [1.0, 2.0];
        assert!(median_ci(&xs, 5, 0.95, 1).is_err());
        assert!(median_ci(&xs, 100, 0.0, 1).is_err());
        assert!(median_ci(&xs, 100, 1.0, 1).is_err());
        assert!(median_ci(&[], 100, 0.9, 1).is_err());
    }

    #[test]
    fn display_format() {
        let ci = median_ci(&[1.0, 2.0, 3.0], 50, 0.9, 1).unwrap();
        let s = ci.to_string();
        assert!(s.contains("@90%"), "{s}");
        assert!(s.contains('['), "{s}");
    }
}
