//! Special functions: log-gamma, regularized incomplete beta, and the error
//! function. These are the numerical bedrock under the F distribution used
//! by the paper's ANOVA (§4.3).
//!
//! All implementations are classical, dependency-free algorithms:
//! Lanczos approximation for `ln Γ`, Lentz's continued fraction for the
//! incomplete beta, and Abramowitz & Stegun 7.1.26 for `erf`.

use crate::{Result, StatsError};

/// Lanczos coefficients (g = 7, n = 9), good to ~15 significant digits.
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for `x <= 0` or non-finite `x`.
///
/// # Examples
///
/// ```
/// use counterlab_stats::special::ln_gamma;
/// // Γ(5) = 24
/// assert!((ln_gamma(5.0).unwrap() - 24f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_gamma(x: f64) -> Result<f64> {
    if !x.is_finite() || x <= 0.0 {
        return Err(StatsError::InvalidParameter("ln_gamma requires x > 0"));
    }
    // Reflection is unnecessary since we restrict to x > 0; use the Lanczos
    // series directly.
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    Ok(0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln())
}

/// The gamma function `Γ(x)` for `x > 0`.
///
/// # Errors
///
/// As [`ln_gamma`].
pub fn gamma(x: f64) -> Result<f64> {
    ln_gamma(x).map(f64::exp)
}

/// Natural logarithm of the beta function `B(a, b)`.
///
/// # Errors
///
/// As [`ln_gamma`] for either argument.
pub fn ln_beta(a: f64, b: f64) -> Result<f64> {
    Ok(ln_gamma(a)? + ln_gamma(b)? - ln_gamma(a + b)?)
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Computed with the continued-fraction expansion (Numerical Recipes
/// `betacf`), using the symmetry `I_x(a,b) = 1 - I_{1-x}(b,a)` to keep the
/// fraction in its rapidly-converging region.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] when `a <= 0`, `b <= 0`, or
/// `x ∉ [0, 1]`.
///
/// # Examples
///
/// ```
/// use counterlab_stats::special::incomplete_beta;
/// // I_x(1, 1) is the identity.
/// assert!((incomplete_beta(0.3, 1.0, 1.0).unwrap() - 0.3).abs() < 1e-12);
/// ```
pub fn incomplete_beta(x: f64, a: f64, b: f64) -> Result<f64> {
    if !(0.0..=1.0).contains(&x) {
        return Err(StatsError::InvalidParameter(
            "incomplete_beta requires x in [0, 1]",
        ));
    }
    if a <= 0.0 || b <= 0.0 {
        return Err(StatsError::InvalidParameter(
            "incomplete_beta requires a > 0 and b > 0",
        ));
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x == 1.0 {
        return Ok(1.0);
    }
    let front = (x.ln() * a + (1.0 - x).ln() * b - ln_beta(a, b)?).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        Ok(front * beta_cf(x, a, b) / a)
    } else {
        Ok(1.0
            - (x.ln() * a + (1.0 - x).ln() * b - ln_beta(a, b)?).exp() * beta_cf(1.0 - x, b, a) / b)
        .map(|v: f64| v.clamp(0.0, 1.0))
    }
}

/// Continued fraction for the incomplete beta (modified Lentz).
fn beta_cf(x: f64, a: f64, b: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0f64;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Error function `erf(x)`, via Abramowitz & Stegun formula 7.1.26
/// (|error| < 1.5e-7, which is ample for p-value reporting).
///
/// # Examples
///
/// ```
/// use counterlab_stats::special::erf;
/// assert!(erf(0.0).abs() < 1e-12);
/// assert!((erf(1.0) - 0.8427).abs() < 1e-3);
/// ```
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Complementary error function `erfc(x) = 1 - erf(x)`.
pub fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_integer_factorials() {
        // Γ(n) = (n-1)!
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (i, &f) in facts.iter().enumerate() {
            let lg = ln_gamma((i + 1) as f64).unwrap();
            assert!(
                (lg - f64::ln(f)).abs() < 1e-10,
                "Γ({}) mismatch: {lg} vs {}",
                i + 1,
                f64::ln(f)
            );
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(π)
        let lg = ln_gamma(0.5).unwrap();
        assert!((lg - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_rejects_nonpositive() {
        assert!(ln_gamma(0.0).is_err());
        assert!(ln_gamma(-1.0).is_err());
        assert!(ln_gamma(f64::NAN).is_err());
    }

    #[test]
    fn gamma_recurrence() {
        // Γ(x+1) = x Γ(x)
        for &x in &[0.5, 1.3, 2.7, 5.5] {
            let lhs = gamma(x + 1.0).unwrap();
            let rhs = x * gamma(x).unwrap();
            assert!((lhs - rhs).abs() / rhs < 1e-12, "x={x}");
        }
    }

    #[test]
    fn incomplete_beta_identity_cases() {
        assert_eq!(incomplete_beta(0.0, 2.0, 3.0).unwrap(), 0.0);
        assert_eq!(incomplete_beta(1.0, 2.0, 3.0).unwrap(), 1.0);
        // I_x(1,1) = x
        for &x in &[0.1, 0.5, 0.9] {
            assert!((incomplete_beta(x, 1.0, 1.0).unwrap() - x).abs() < 1e-12);
        }
    }

    #[test]
    fn incomplete_beta_symmetry() {
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        for &(x, a, b) in &[(0.3, 2.0, 5.0), (0.7, 4.5, 1.5), (0.5, 3.0, 3.0)] {
            let lhs = incomplete_beta(x, a, b).unwrap();
            let rhs = 1.0 - incomplete_beta(1.0 - x, b, a).unwrap();
            assert!((lhs - rhs).abs() < 1e-10, "x={x} a={a} b={b}");
        }
    }

    #[test]
    fn incomplete_beta_known_value() {
        // I_{0.5}(2, 2) = 0.5 by symmetry.
        assert!((incomplete_beta(0.5, 2.0, 2.0).unwrap() - 0.5).abs() < 1e-12);
        // R: pbeta(0.4, 2, 5) = 0.76672
        assert!((incomplete_beta(0.4, 2.0, 5.0).unwrap() - 0.76672).abs() < 1e-4);
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.5) - 0.5205).abs() < 1e-3);
        assert!((erf(2.0) - 0.9953).abs() < 1e-3);
        assert!((erf(-1.0) + erf(1.0)).abs() < 1e-12, "erf is odd");
        assert!((erfc(0.0) - 1.0).abs() < 1e-12);
    }
}
