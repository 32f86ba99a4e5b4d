//! Descriptive statistics: means, variances, and whole-sample summaries.

use crate::error::check_sample;
use crate::quantile::{self, QuantileMethod};
use crate::{Result, StatsError};

/// Arithmetic mean of a sample.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice and
/// [`StatsError::NonFinite`] if any value is NaN or infinite.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), counterlab_stats::StatsError> {
/// let m = counterlab_stats::descriptive::mean(&[1.0, 2.0, 3.0])?;
/// assert_eq!(m, 2.0);
/// # Ok(()) }
/// ```
pub fn mean(xs: &[f64]) -> Result<f64> {
    check_sample(xs)?;
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Sample variance (the unbiased, `n - 1` denominator estimator).
///
/// Uses Welford's online algorithm for numerical stability.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice,
/// [`StatsError::NonFinite`] for non-finite input, and
/// [`StatsError::InvalidParameter`] if the sample has fewer than two points.
///
/// Note the singleton convention: this strict estimator rejects `n = 1`,
/// while [`Summary::from_slice`] reports a standard deviation of `0.0`
/// for a singleton.
pub fn variance(xs: &[f64]) -> Result<f64> {
    check_sample(xs)?;
    if xs.len() < 2 {
        return Err(StatsError::InvalidParameter(
            "variance requires at least two observations",
        ));
    }
    let mut mean = 0.0f64;
    let mut m2 = 0.0f64;
    for (i, &x) in xs.iter().enumerate() {
        let delta = x - mean;
        mean += delta / (i as f64 + 1.0);
        m2 += delta * (x - mean);
    }
    Ok(m2 / (xs.len() as f64 - 1.0))
}

/// Sample standard deviation (square root of [`variance`]).
///
/// # Errors
///
/// Same conditions as [`variance`].
pub fn std_dev(xs: &[f64]) -> Result<f64> {
    variance(xs).map(f64::sqrt)
}

/// Minimum of a sample.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] / [`StatsError::NonFinite`] as in
/// [`mean`].
pub fn min(xs: &[f64]) -> Result<f64> {
    check_sample(xs)?;
    Ok(xs.iter().cloned().fold(f64::INFINITY, f64::min))
}

/// Maximum of a sample.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] / [`StatsError::NonFinite`] as in
/// [`mean`].
pub fn max(xs: &[f64]) -> Result<f64> {
    check_sample(xs)?;
    Ok(xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
}

/// A whole-sample descriptive summary: the numbers the paper reports in its
/// tables (median, min) plus the usual supporting moments and quartiles.
///
/// # Examples
///
/// ```
/// use counterlab_stats::descriptive::Summary;
///
/// let s = Summary::from_slice(&[4.0, 1.0, 3.0, 2.0]).unwrap();
/// assert_eq!(s.n(), 4);
/// assert_eq!(s.median(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    n: usize,
    mean: f64,
    std_dev: f64,
    min: f64,
    q1: f64,
    median: f64,
    q3: f64,
    max: f64,
}

impl Summary {
    /// Computes a summary of `xs`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty slice and
    /// [`StatsError::NonFinite`] for non-finite input.
    pub fn from_slice(xs: &[f64]) -> Result<Self> {
        check_sample(xs)?;
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("values checked finite"));
        let q = |p: f64| quantile::quantile_sorted(&sorted, p, QuantileMethod::Linear);
        Ok(Summary {
            n: xs.len(),
            mean: mean(xs)?,
            std_dev: if xs.len() >= 2 { std_dev(xs)? } else { 0.0 },
            min: sorted[0],
            q1: q(0.25)?,
            median: q(0.5)?,
            q3: q(0.75)?,
            max: sorted[sorted.len() - 1],
        })
    }

    /// Number of observations.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (0 for singleton samples).
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// First quartile (25th percentile, R type-7 interpolation).
    pub fn q1(&self) -> f64 {
        self.q1
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.median
    }

    /// Third quartile (75th percentile).
    pub fn q3(&self) -> f64 {
        self.q3
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Inter-quartile range `q3 - q1` — the spread statistic the paper quotes
    /// for Figure 1 (“the inter-quartile range amounts to about 1500
    /// user-level instructions”).
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Range `max - min`.
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} q1={:.3} med={:.3} q3={:.3} max={:.3}",
            self.n, self.mean, self.std_dev, self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_constants() {
        assert_eq!(mean(&[5.0; 10]).unwrap(), 5.0);
    }

    #[test]
    fn mean_empty_errors() {
        assert_eq!(mean(&[]), Err(StatsError::EmptyInput));
    }

    #[test]
    fn variance_matches_hand_computation() {
        // var([1,2,3,4]) with n-1 denominator = (2.25+0.25+0.25+2.25)/3
        let v = variance(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((v - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn variance_single_point_errors() {
        assert!(matches!(
            variance(&[1.0]),
            Err(StatsError::InvalidParameter(_))
        ));
    }

    #[test]
    fn variance_is_shift_invariant() {
        let a = [1.0, 2.0, 3.0, 9.0];
        let b: Vec<f64> = a.iter().map(|x| x + 1e6).collect();
        let va = variance(&a).unwrap();
        let vb = variance(&b).unwrap();
        assert!((va - vb).abs() < 1e-6, "Welford should keep precision");
    }

    #[test]
    fn min_max() {
        let xs = [3.0, -1.0, 7.0];
        assert_eq!(min(&xs).unwrap(), -1.0);
        assert_eq!(max(&xs).unwrap(), 7.0);
    }

    #[test]
    fn summary_quartiles_type7() {
        // R: quantile(c(1,2,3,4), 0.25) = 1.75 with type 7.
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((s.q1() - 1.75).abs() < 1e-12);
        assert!((s.q3() - 3.25).abs() < 1e-12);
        assert!((s.iqr() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn summary_singleton() {
        let s = Summary::from_slice(&[42.0]).unwrap();
        assert_eq!(s.median(), 42.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.range(), 0.0);
    }

    #[test]
    fn empty_and_nonfinite_samples_are_rejected() {
        assert_eq!(variance(&[]), Err(StatsError::EmptyInput));
        assert_eq!(Summary::from_slice(&[]), Err(StatsError::EmptyInput));
        let poisoned = [1.0, f64::NAN, 2.0];
        assert_eq!(mean(&poisoned), Err(StatsError::NonFinite));
        assert_eq!(Summary::from_slice(&poisoned), Err(StatsError::NonFinite));
    }

    #[test]
    fn summary_display_mentions_all_fields() {
        let s = Summary::from_slice(&[1.0, 2.0]).unwrap();
        let text = s.to_string();
        for key in ["n=", "mean=", "med=", "max="] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }
}
