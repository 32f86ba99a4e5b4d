//! N-way analysis of variance (main effects).
//!
//! Section 4.3 of the paper runs an n-way ANOVA with processor, measurement
//! infrastructure, access pattern, compiler optimization level, and number of
//! used counter registers as factors and the instruction count as the
//! response, finding every factor except the optimization level significant
//! with `Pr(>F) < 2e-16`.
//!
//! [`Anova`] implements the main-effects decomposition used for such
//! (approximately balanced) full-factorial designs: each factor's sum of
//! squares is computed from its level means, the residual takes whatever is
//! left, and p-values come from the F distribution in [`crate::dist`].

use crate::dist::FDistribution;
use crate::{Result, StatsError};
use std::collections::BTreeMap;

/// An experimental factor: a name plus its discrete levels.
///
/// # Examples
///
/// ```
/// use counterlab_stats::anova::Factor;
///
/// let f = Factor::new("processor", ["PD", "CD", "K8"]);
/// assert_eq!(f.level_count(), 3);
/// assert_eq!(f.level_name(1), Some("CD"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Factor {
    name: String,
    levels: Vec<String>,
}

impl Factor {
    /// Creates a factor from a name and an ordered list of level labels.
    pub fn new<N, L, I>(name: N, levels: I) -> Self
    where
        N: Into<String>,
        L: Into<String>,
        I: IntoIterator<Item = L>,
    {
        Factor {
            name: name.into(),
            levels: levels.into_iter().map(Into::into).collect(),
        }
    }

    /// Factor name (e.g. `"pattern"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of levels.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Label of level `i`, if it exists.
    pub fn level_name(&self, i: usize) -> Option<&str> {
        self.levels.get(i).map(String::as_str)
    }
}

/// One row of an ANOVA table: a factor's contribution to the variance.
#[derive(Debug, Clone, PartialEq)]
pub struct AnovaRow {
    /// Factor name.
    pub factor: String,
    /// Degrees of freedom (levels − 1).
    pub df: f64,
    /// Sum of squares attributed to the factor.
    pub sum_sq: f64,
    /// Mean square (`sum_sq / df`).
    pub mean_sq: f64,
    /// F statistic against the residual mean square.
    pub f_value: f64,
    /// `Pr(>F)` — probability of an F this large under the null hypothesis
    /// that the factor has no effect.
    pub p_value: f64,
}

impl AnovaRow {
    /// Whether the factor is significant at the given level (e.g. `0.05`).
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// A complete ANOVA table: one row per factor plus the residual line.
#[derive(Debug, Clone, PartialEq)]
pub struct AnovaTable {
    rows: Vec<AnovaRow>,
    residual_df: f64,
    residual_sum_sq: f64,
    total_sum_sq: f64,
    n: usize,
}

impl AnovaTable {
    /// Per-factor rows in the order the factors were declared.
    pub fn rows(&self) -> &[AnovaRow] {
        &self.rows
    }

    /// Looks up the row for a factor by name.
    pub fn row(&self, factor: &str) -> Option<&AnovaRow> {
        self.rows.iter().find(|r| r.factor == factor)
    }

    /// Residual degrees of freedom.
    pub fn residual_df(&self) -> f64 {
        self.residual_df
    }

    /// Residual sum of squares.
    pub fn residual_sum_sq(&self) -> f64 {
        self.residual_sum_sq
    }

    /// Total sum of squares of the response.
    pub fn total_sum_sq(&self) -> f64 {
        self.total_sum_sq
    }

    /// Number of observations analyzed.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl std::fmt::Display for AnovaTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<16} {:>6} {:>14} {:>14} {:>10} {:>12}",
            "factor", "df", "sum sq", "mean sq", "F", "Pr(>F)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<16} {:>6.0} {:>14.3} {:>14.3} {:>10.2} {:>12.3e}",
                r.factor, r.df, r.sum_sq, r.mean_sq, r.f_value, r.p_value
            )?;
        }
        writeln!(
            f,
            "{:<16} {:>6.0} {:>14.3}",
            "residuals", self.residual_df, self.residual_sum_sq
        )
    }
}

/// Builder/runner for an n-way main-effects ANOVA.
///
/// # Examples
///
/// ```
/// use counterlab_stats::anova::{Anova, Factor};
///
/// let mut anova = Anova::new(vec![
///     Factor::new("tool", ["pm", "pc"]),
///     Factor::new("mode", ["user", "os"]),
/// ]);
/// // A strong "tool" effect, no "mode" effect.
/// for rep in 0..20 {
///     let noise = if rep % 2 == 0 { 0.1 } else { -0.1 };
///     anova.add(&[0, 0], 10.0 + noise).unwrap();
///     anova.add(&[0, 1], 10.0 - noise).unwrap();
///     anova.add(&[1, 0], 50.0 + noise).unwrap();
///     anova.add(&[1, 1], 50.0 - noise).unwrap();
/// }
/// let table = anova.run().unwrap();
/// assert!(table.row("tool").unwrap().p_value < 1e-10);
/// assert!(table.row("mode").unwrap().p_value > 0.05);
/// ```
/// Internally `Anova` keeps only the grand moments (Welford's update)
/// and per-factor level sums — constant memory in the observation count —
/// so the experiment drivers feed it observation by observation without
/// materializing the response vector.
#[derive(Debug, Clone)]
pub struct Anova {
    factors: Vec<Factor>,
    /// Grand response moments: count, mean and centered sum of squares
    /// (the total SS), updated per observation by Welford's algorithm.
    n: u64,
    mean: f64,
    m2: f64,
    /// Per factor: level → (response sum, count).
    level_sums: Vec<BTreeMap<usize, (f64, u64)>>,
}

impl Anova {
    /// Creates an ANOVA over the given factors.
    pub fn new(factors: Vec<Factor>) -> Self {
        let level_sums = factors.iter().map(|_| BTreeMap::new()).collect();
        Anova {
            factors,
            n: 0,
            mean: 0.0,
            m2: 0.0,
            level_sums,
        }
    }

    /// The declared factors.
    pub fn factors(&self) -> &[Factor] {
        &self.factors
    }

    /// Number of observations added so far.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Whether no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Validates a level vector against the declared factors.
    fn check_levels(&self, levels: &[usize]) -> Result<()> {
        if levels.len() != self.factors.len() {
            return Err(StatsError::LengthMismatch {
                left: levels.len(),
                right: self.factors.len(),
            });
        }
        for (l, f) in levels.iter().zip(&self.factors) {
            if *l >= f.level_count() {
                return Err(StatsError::InvalidParameter("factor level out of range"));
            }
        }
        Ok(())
    }

    /// Adds one observation: its level index for every factor, and the
    /// response value.
    ///
    /// # Errors
    ///
    /// * [`StatsError::LengthMismatch`] if `levels` doesn't have one entry
    ///   per factor;
    /// * [`StatsError::InvalidParameter`] if a level index is out of range;
    /// * [`StatsError::NonFinite`] if the response is NaN or infinite.
    pub fn add(&mut self, levels: &[usize], response: f64) -> Result<()> {
        self.check_levels(levels)?;
        if !response.is_finite() {
            return Err(StatsError::NonFinite);
        }
        self.n += 1;
        let delta = response - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (response - self.mean);
        for (fi, &l) in levels.iter().enumerate() {
            let e = self.level_sums[fi].entry(l).or_insert((0.0, 0));
            e.0 += response;
            e.1 += 1;
        }
        Ok(())
    }

    /// Runs the analysis and produces the ANOVA table.
    ///
    /// # Errors
    ///
    /// * [`StatsError::EmptyInput`] if no observations were added;
    /// * [`StatsError::Degenerate`] if there are no residual degrees of
    ///   freedom (too few observations for the number of factor levels).
    pub fn run(&self) -> Result<AnovaTable> {
        if self.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let n = self.len();
        let grand_mean = self.mean;
        // Welford's centered second moment *is* the total sum of squares
        // (kept as population variance times n, bit for bit).
        let total_sum_sq = self.m2 / n as f64 * n as f64;

        let mut rows = Vec::with_capacity(self.factors.len());
        let mut factor_ss_sum = 0.0;
        let mut factor_df_sum = 0.0;
        for (fi, factor) in self.factors.iter().enumerate() {
            let sums = &self.level_sums[fi];
            let ss: f64 = sums
                .values()
                .map(|(sum, count)| {
                    let mean = sum / *count as f64;
                    *count as f64 * (mean - grand_mean) * (mean - grand_mean)
                })
                .sum();
            // Degrees of freedom use the number of levels actually observed.
            let df = (sums.len() as f64 - 1.0).max(0.0);
            factor_ss_sum += ss;
            factor_df_sum += df;
            rows.push((factor.name.clone(), df, ss));
        }

        let residual_df = n as f64 - 1.0 - factor_df_sum;
        if residual_df <= 0.0 {
            return Err(StatsError::Degenerate(
                "no residual degrees of freedom; add replicate observations",
            ));
        }
        // The main-effects decomposition can overshoot the total in
        // unbalanced designs; clamp the residual at a tiny positive value so
        // F stays finite and large.
        let residual_sum_sq = (total_sum_sq - factor_ss_sum).max(f64::MIN_POSITIVE);
        let residual_mean_sq = residual_sum_sq / residual_df;

        let rows = rows
            .into_iter()
            .map(|(name, df, ss)| {
                let (mean_sq, f_value, p_value) = if df > 0.0 {
                    let ms = ss / df;
                    let f = ms / residual_mean_sq;
                    let p = FDistribution::new(df, residual_df)
                        .and_then(|d| d.sf(f))
                        .unwrap_or(f64::NAN);
                    (ms, f, p)
                } else {
                    (0.0, 0.0, 1.0)
                };
                AnovaRow {
                    factor: name,
                    df,
                    sum_sq: ss,
                    mean_sq,
                    f_value,
                    p_value,
                }
            })
            .collect();

        Ok(AnovaTable {
            rows,
            residual_df,
            residual_sum_sq,
            total_sum_sq,
            n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_factor_data() -> Anova {
        let mut a = Anova::new(vec![
            Factor::new("infra", ["pm", "pc", "papi"]),
            Factor::new("opt", ["O0", "O1"]),
        ]);
        // infra has a big effect (0/100/200); opt has none. Replicated with
        // deterministic jitter.
        for rep in 0..10 {
            let j = (rep as f64 - 4.5) * 0.2;
            for (ii, base) in [(0usize, 0.0), (1, 100.0), (2, 200.0)] {
                for oi in 0..2usize {
                    a.add(&[ii, oi], base + j).unwrap();
                }
            }
        }
        a
    }

    #[test]
    fn detects_strong_factor_only() {
        let table = two_factor_data().run().unwrap();
        let infra = table.row("infra").unwrap();
        let opt = table.row("opt").unwrap();
        assert!(infra.p_value < 1e-15, "infra p = {}", infra.p_value);
        assert!(opt.p_value > 0.5, "opt p = {}", opt.p_value);
        assert!(infra.significant_at(0.001));
        assert!(!opt.significant_at(0.05));
    }

    #[test]
    fn degrees_of_freedom_accounting() {
        let table = two_factor_data().run().unwrap();
        let total_df: f64 = table.rows().iter().map(|r| r.df).sum::<f64>() + table.residual_df();
        assert_eq!(total_df, table.n() as f64 - 1.0);
        assert_eq!(table.row("infra").unwrap().df, 2.0);
        assert_eq!(table.row("opt").unwrap().df, 1.0);
    }

    #[test]
    fn sums_of_squares_partition() {
        // In a balanced design, factor SS + residual SS == total SS.
        let table = two_factor_data().run().unwrap();
        let ss: f64 = table.rows().iter().map(|r| r.sum_sq).sum::<f64>() + table.residual_sum_sq();
        assert!((ss - table.total_sum_sq()).abs() < 1e-6 * table.total_sum_sq().max(1.0));
    }

    #[test]
    fn empty_rejected() {
        let a = Anova::new(vec![Factor::new("f", ["a", "b"])]);
        assert!(matches!(a.run(), Err(StatsError::EmptyInput)));
    }

    #[test]
    fn level_out_of_range_rejected() {
        let mut a = Anova::new(vec![Factor::new("f", ["a", "b"])]);
        assert!(a.add(&[2], 1.0).is_err());
        assert!(a.add(&[0, 0], 1.0).is_err());
        assert!(a.add(&[0], f64::NAN).is_err());
    }

    #[test]
    fn no_residual_df_rejected() {
        let mut a = Anova::new(vec![Factor::new("f", ["a", "b"])]);
        a.add(&[0], 1.0).unwrap();
        a.add(&[1], 2.0).unwrap();
        assert!(matches!(a.run(), Err(StatsError::Degenerate(_))));
    }

    #[test]
    fn single_factor_matches_classic_one_way() {
        // Classic one-way ANOVA example: three groups.
        let mut a = Anova::new(vec![Factor::new("g", ["a", "b", "c"])]);
        for &y in &[6.0, 8.0, 4.0, 5.0, 3.0, 4.0] {
            a.add(&[0], y).unwrap();
        }
        for &y in &[8.0, 12.0, 9.0, 11.0, 6.0, 8.0] {
            a.add(&[1], y).unwrap();
        }
        for &y in &[13.0, 9.0, 11.0, 8.0, 7.0, 12.0] {
            a.add(&[2], y).unwrap();
        }
        let table = a.run().unwrap();
        let row = table.row("g").unwrap();
        // Hand-computed: SSB = 84, SSW = 68, F = (84/2)/(68/15) ≈ 9.26
        assert!((row.sum_sq - 84.0).abs() < 1e-9, "SSB = {}", row.sum_sq);
        assert!((table.residual_sum_sq() - 68.0).abs() < 1e-9);
        assert!((row.f_value - 9.264_705_88).abs() < 1e-6);
        assert!(row.p_value < 0.01 && row.p_value > 0.0001);
    }

    #[test]
    fn factor_lookup_helpers() {
        let f = Factor::new("pattern", ["ar", "ao", "rr", "ro"]);
        assert_eq!(f.name(), "pattern");
        assert_eq!(f.level_name(3), Some("ro"));
        assert_eq!(f.level_name(4), None);
    }

    #[test]
    fn table_display_renders() {
        let table = two_factor_data().run().unwrap();
        let text = table.to_string();
        assert!(text.contains("Pr(>F)"));
        assert!(text.contains("residuals"));
        assert!(text.contains("infra"));
    }
}
