//! Probability distributions needed by the analysis code: the F distribution
//! (for ANOVA p-values, §4.3 of the paper), Student's t (for regression
//! slope confidence), the normal distribution and the chi-squared
//! distribution.

use crate::special::{erf, incomplete_beta, incomplete_gamma_lower};
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

/// Student's t distribution with `df` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TDistribution {
    df: f64,
}

impl TDistribution {
    /// Creates a t distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `df > 0` and finite.
    pub fn new(df: f64) -> Result<Self> {
        if !df.is_finite() || df <= 0.0 {
            return Err(StatsError::InvalidParameter(
                "t distribution requires df > 0",
            ));
        }
        Ok(TDistribution { df })
    }

    /// Degrees of freedom.
    pub fn df(&self) -> f64 {
        self.df
    }

    /// Cumulative distribution function `Pr(T <= x)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for non-finite `x`.
    pub fn cdf(&self, x: f64) -> Result<f64> {
        if !x.is_finite() {
            return Err(StatsError::InvalidParameter("t cdf requires finite x"));
        }
        let z = self.df / (self.df + x * x);
        let tail = 0.5 * incomplete_beta(z, self.df / 2.0, 0.5)?;
        Ok(if x >= 0.0 { 1.0 - tail } else { tail })
    }

    /// Two-sided p-value `Pr(|T| > |x|)`.
    ///
    /// # Errors
    ///
    /// As [`TDistribution::cdf`].
    pub fn two_sided_p(&self, x: f64) -> Result<f64> {
        let z = self.df / (self.df + x * x);
        incomplete_beta(z, self.df / 2.0, 0.5)
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

/// Chi-squared distribution with `k` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquared {
    k: f64,
}

impl ChiSquared {
    /// Creates a chi-squared distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `k > 0` and finite.
    pub fn new(k: f64) -> Result<Self> {
        if !k.is_finite() || k <= 0.0 {
            return Err(StatsError::InvalidParameter("chi-squared requires k > 0"));
        }
        Ok(ChiSquared { k })
    }

    /// Degrees of freedom.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Cumulative distribution function.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for `x < 0`.
    pub fn cdf(&self, x: f64) -> Result<f64> {
        incomplete_gamma_lower(self.k / 2.0, x / 2.0)
    }

    /// Survival function `Pr(X > x)`.
    ///
    /// # Errors
    ///
    /// As [`ChiSquared::cdf`].
    pub fn sf(&self, x: f64) -> Result<f64> {
        Ok(1.0 - self.cdf(x)?)
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
    fn f_equals_t_squared() {
        // If T ~ t(df), then T² ~ F(1, df): two-sided t p-value == F sf.
        let t = TDistribution::new(12.0).unwrap();
        let f = FDistribution::new(1.0, 12.0).unwrap();
        for &x in &[0.5, 1.0, 2.0, 3.0] {
            let p_t = t.two_sided_p(x).unwrap();
            let p_f = f.sf(x * x).unwrap();
            assert!((p_t - p_f).abs() < 1e-9, "x={x}: {p_t} vs {p_f}");
        }
    }

    #[test]
    fn f_rejects_bad_params() {
        assert!(FDistribution::new(0.0, 5.0).is_err());
        assert!(FDistribution::new(5.0, -1.0).is_err());
        assert!(FDistribution::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn t_cdf_symmetry() {
        let t = TDistribution::new(7.0).unwrap();
        for &x in &[0.3, 1.1, 2.6] {
            let lo = t.cdf(-x).unwrap();
            let hi = t.cdf(x).unwrap();
            assert!((lo + hi - 1.0).abs() < 1e-10);
        }
        assert!((t.cdf(0.0).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn t_known_quantile() {
        // t(10): Pr(|T| > 2.228) ≈ 0.05
        let t = TDistribution::new(10.0).unwrap();
        let p = t.two_sided_p(2.228).unwrap();
        assert!((p - 0.05).abs() < 2e-3, "p = {p}");
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

    #[test]
    fn chi_squared_known_value() {
        // χ²(2): CDF(x) = 1 - e^{-x/2}
        let c = ChiSquared::new(2.0).unwrap();
        for &x in &[0.5, 2.0, 6.0] {
            let got = c.cdf(x).unwrap();
            let want = 1.0 - (-x / 2.0).exp();
            assert!((got - want).abs() < 1e-10, "x={x}");
        }
    }

    #[test]
    fn chi_squared_sf_complements_cdf() {
        let c = ChiSquared::new(5.0).unwrap();
        let x = 3.3;
        assert!((c.cdf(x).unwrap() + c.sf(x).unwrap() - 1.0).abs() < 1e-12);
    }
}
