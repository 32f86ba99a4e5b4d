//! Ordinary least squares simple linear regression.
//!
//! Section 5 of the paper determines how the measurement error grows with
//! benchmark duration by fitting a regression line through `(loop
//! iterations, error)` points and reporting its slope (Figures 7 and 8), and
//! cross-checks a slope of 0.00204 kernel instructions per iteration for
//! Figure 9. [`LinearFit`] provides those slopes, with the intercept and
//! R².

use crate::{Result, StatsError};

/// Result of fitting `y = intercept + slope * x` by ordinary least squares.
///
/// # Examples
///
/// ```
/// use counterlab_stats::regression::LinearFit;
///
/// let x = [0.0, 1.0, 2.0, 3.0];
/// let y = [1.0, 3.0, 5.0, 7.0];
/// let fit = LinearFit::fit(&x, &y).unwrap();
/// assert!((fit.slope() - 2.0).abs() < 1e-12);
/// assert!((fit.intercept() - 1.0).abs() < 1e-12);
/// assert!((fit.r_squared() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearFit {
    slope: f64,
    intercept: f64,
    r_squared: f64,
    n: usize,
}

impl LinearFit {
    /// Fits a line through the points `(x[i], y[i])`.
    ///
    /// # Errors
    ///
    /// * [`StatsError::LengthMismatch`] if `x` and `y` differ in length;
    /// * [`StatsError::EmptyInput`] / [`StatsError::NonFinite`] for unusable
    ///   samples;
    /// * [`StatsError::InvalidParameter`] if fewer than two points are given;
    /// * [`StatsError::Degenerate`] if all `x` are identical (vertical line).
    pub fn fit(x: &[f64], y: &[f64]) -> Result<Self> {
        if x.len() != y.len() {
            return Err(StatsError::LengthMismatch {
                left: x.len(),
                right: y.len(),
            });
        }
        crate::error::check_sample(x)?;
        crate::error::check_sample(y)?;
        if x.len() < 2 {
            return Err(StatsError::InvalidParameter(
                "regression requires at least two points",
            ));
        }
        let n = x.len() as f64;
        let mean_x = x.iter().sum::<f64>() / n;
        let mean_y = y.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for (&xi, &yi) in x.iter().zip(y) {
            let dx = xi - mean_x;
            let dy = yi - mean_y;
            sxx += dx * dx;
            sxy += dx * dy;
            syy += dy * dy;
        }
        if sxx == 0.0 {
            return Err(StatsError::Degenerate("all x values are identical"));
        }
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        // Residual sum of squares; guard against tiny negative values from
        // floating point cancellation.
        let ss_res = (syy - slope * sxy).max(0.0);
        let r_squared = if syy == 0.0 { 1.0 } else { 1.0 - ss_res / syy };
        Ok(LinearFit {
            slope,
            intercept,
            r_squared,
            n: x.len(),
        })
    }

    /// Estimated slope — for Figure 7 this is the number of extra
    /// instructions per loop iteration.
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Estimated intercept — for Figure 7 this absorbs the fixed access
    /// cost studied in §4.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Coefficient of determination R².
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Number of points fitted.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl std::fmt::Display for LinearFit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "y = {:.6} + {:.6}·x (R²={:.4}, n={})",
            self.intercept, self.slope, self.r_squared, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 1.0).collect();
        let fit = LinearFit::fit(&x, &y).unwrap();
        assert!((fit.slope() - 3.0).abs() < 1e-12);
        assert!((fit.intercept() + 1.0).abs() < 1e-12);
        assert!((fit.r_squared() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_recovers_slope() {
        // Deterministic "noise" alternating ±0.5 around y = 2x.
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 2.0 * v + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let fit = LinearFit::fit(&x, &y).unwrap();
        assert!((fit.slope() - 2.0).abs() < 1e-3);
        assert!(fit.r_squared() > 0.999);
    }

    #[test]
    fn flat_data_zero_slope() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [5.0, 5.0, 5.0, 5.0];
        let fit = LinearFit::fit(&x, &y).unwrap();
        assert_eq!(fit.slope(), 0.0);
        assert_eq!(fit.intercept(), 5.0);
        // syy == 0 → define R² = 1 (line explains everything trivially).
        assert_eq!(fit.r_squared(), 1.0);
    }

    #[test]
    fn vertical_data_rejected() {
        let x = [2.0, 2.0, 2.0];
        let y = [1.0, 2.0, 3.0];
        assert!(matches!(
            LinearFit::fit(&x, &y),
            Err(StatsError::Degenerate(_))
        ));
    }

    #[test]
    fn length_mismatch_rejected() {
        assert!(matches!(
            LinearFit::fit(&[1.0, 2.0], &[1.0]),
            Err(StatsError::LengthMismatch { left: 2, right: 1 })
        ));
    }

    #[test]
    fn display_format() {
        let fit = LinearFit::fit(&[0.0, 1.0], &[0.0, 2.0]).unwrap();
        assert!(fit.to_string().contains("R²"));
    }
}
