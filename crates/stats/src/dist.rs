//! Probability distributions needed by the analysis code: the F distribution
//! (for ANOVA p-values, §4.3 of the paper) and the normal distribution.

use crate::special::{erf, incomplete_beta};
use crate::{Result, StatsError};

/// Fisher–Snedecor F distribution with `(d1, d2)` degrees of freedom.
///
/// # Examples
///
/// ```
/// use counterlab_stats::dist::FDistribution;
///
/// let f = FDistribution::new(3.0, 20.0).unwrap();
/// let p = f.sf(4.94).unwrap(); // Pr(F > 4.94)
/// assert!(p < 0.05 && p > 0.001);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FDistribution {
    d1: f64,
    d2: f64,
}

impl FDistribution {
    /// Creates an F distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless both degrees of
    /// freedom are positive and finite.
    pub fn new(d1: f64, d2: f64) -> Result<Self> {
        if !(d1.is_finite() && d2.is_finite()) || d1 <= 0.0 || d2 <= 0.0 {
            return Err(StatsError::InvalidParameter(
                "F distribution requires positive degrees of freedom",
            ));
        }
        Ok(FDistribution { d1, d2 })
    }

    /// Numerator degrees of freedom.
    pub fn d1(&self) -> f64 {
        self.d1
    }

    /// Denominator degrees of freedom.
    pub fn d2(&self) -> f64 {
        self.d2
    }

    /// Cumulative distribution function `Pr(F <= x)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for negative or non-finite
    /// `x`.
    pub fn cdf(&self, x: f64) -> Result<f64> {
        if !x.is_finite() || x < 0.0 {
            return Err(StatsError::InvalidParameter("F cdf requires x >= 0"));
        }
        let z = self.d1 * x / (self.d1 * x + self.d2);
        incomplete_beta(z, self.d1 / 2.0, self.d2 / 2.0)
    }

    /// Survival function `Pr(F > x)` — this is R's `Pr(>F)` column in an
    /// ANOVA table.
    ///
    /// # Errors
    ///
    /// As [`FDistribution::cdf`].
    pub fn sf(&self, x: f64) -> Result<f64> {
        Ok(1.0 - self.cdf(x)?)
    }
}

/// Normal (Gaussian) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalDistribution {
    mean: f64,
    sd: f64,
}

impl NormalDistribution {
    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `sd > 0` and both
    /// parameters are finite.
    pub fn new(mean: f64, sd: f64) -> Result<Self> {
        if !(mean.is_finite() && sd.is_finite()) || sd <= 0.0 {
            return Err(StatsError::InvalidParameter(
                "normal distribution requires finite mean and sd > 0",
            ));
        }
        Ok(NormalDistribution { mean, sd })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        NormalDistribution { mean: 0.0, sd: 1.0 }
    }

    /// Mean parameter.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation parameter.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.sd * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f_cdf_monotone_and_bounded() {
        let f = FDistribution::new(4.0, 30.0).unwrap();
        let mut prev = 0.0;
        for i in 0..100 {
            let x = i as f64 * 0.2;
            let c = f.cdf(x).unwrap();
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev - 1e-12);
            prev = c;
        }
        assert!(prev > 0.99);
    }

    #[test]
    fn f_known_quantile() {
        // F(1, 10): Pr(F > 4.965) ≈ 0.05 (standard table value).
        let f = FDistribution::new(1.0, 10.0).unwrap();
        let p = f.sf(4.965).unwrap();
        assert!((p - 0.05).abs() < 2e-3, "p = {p}");
    }

    #[test]
    fn f_rejects_bad_params() {
        assert!(FDistribution::new(0.0, 5.0).is_err());
        assert!(FDistribution::new(5.0, -1.0).is_err());
        assert!(FDistribution::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn normal_cdf_landmarks() {
        let n = NormalDistribution::standard();
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((n.cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((n.cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn normal_rejects_bad_sd() {
        assert!(NormalDistribution::new(0.0, 0.0).is_err());
        assert!(NormalDistribution::new(0.0, -2.0).is_err());
    }
}
