//! One-pass (streaming) statistics accumulators.
//!
//! The paper's error analysis (§3–§5) only ever needs per-cell *summaries*
//! — means, variances, quantiles, outlier proportions — yet the batch API
//! ([`crate::descriptive::Summary::from_slice`] and friends) requires the
//! full sample to be resident. This module provides constant-memory
//! accumulators with a uniform contract:
//!
//! * `push(f64)` — fold one observation in, O(1) amortized;
//! * `merge(Self)` — combine two accumulators built over disjoint shards
//!   of one sample (drivers pool per-cell accumulators in cell order);
//! * `finish()` — produce the summary, with the **same error contract as
//!   the batch routine it mirrors** (see each type's docs).
//!
//! | accumulator | batch equivalent | exactness |
//! |-------------|------------------|-----------|
//! | [`Welford`] | [`crate::descriptive::mean`] / [`crate::descriptive::variance`] / min / max | exact counts/extremes; mean and variance to ~1 ulp per merge |
//! | [`P2Quantile`] | [`crate::quantile::quantile`] | exact up to its window, then P² (see caveat) |
//! | [`SummaryAccumulator`] | [`crate::descriptive::Summary::from_slice`] | exact up to its window, then P² quartiles |
//! | [`StreamingHistogram`] | [`crate::histogram::Histogram::from_slice`] | exact up to its window, then rebinned |
//! //!
//! # The P² accuracy caveat
//!
//! Exact streaming quantiles are impossible in constant memory, so
//! [`P2Quantile`] (and the quartiles inside [`SummaryAccumulator`]) keep an
//! **exact sorted window** of the first observations (64 by default for
//! `P2Quantile`, 512 for `SummaryAccumulator`) and fall back to the P²
//! estimator of Jain & Chlamtac (CACM 1985) once the window overflows.
//! Within the window, results are bit-identical to
//! [`crate::quantile::quantile_sorted`]. Beyond it the estimate is
//! approximate: at the **default window sizes** (which seed the P² markers
//! from a full window of exact order statistics before any approximation
//! starts) the error stays under **5 % of the sample range** for the
//! unimodal, not-too-heavy-tailed data measured here, and that is the
//! tolerance the equivalence suite (`tests/streaming_equivalence.rs`)
//! locks in for n ≥ 50. Shrinking the window below the default trades
//! that accuracy for memory — the sketch then converges from only a
//! handful of seed points. Merging two accumulators
//! that have *both* overflowed their windows is a further heuristic
//! (weighted interpolation of the marker CDFs) — accurate enough for
//! figure-level medians, not for tail quantiles of adversarial data. When
//! exactness matters, size the window above the sample (or use the batch
//! API).
//!
//! # Examples
//!
//! ```
//! use counterlab_stats::stream::SummaryAccumulator;
//!
//! let mut acc = SummaryAccumulator::new();
//! for x in [4.0, 1.0, 3.0, 2.0] {
//!     acc.push(x);
//! }
//! let s = acc.finish().unwrap();
//! assert_eq!(s.n(), 4);
//! assert_eq!(s.median(), 2.5);
//! assert_eq!(s.min(), 1.0);
//! ```

use crate::descriptive::Summary;
use crate::histogram::Histogram;
use crate::quantile::{quantile_sorted, QuantileMethod};
use crate::{Result, StatsError};

/// Default exact-window size of a standalone [`P2Quantile`].
pub const P2_DEFAULT_EXACT_WINDOW: usize = 64;

/// Default exact-window size of a [`SummaryAccumulator`].
pub const SUMMARY_DEFAULT_EXACT_WINDOW: usize = 512;

/// Streaming mean / variance / min / max (Welford's online algorithm with
/// Chan's parallel merge).
///
/// Mirrors [`crate::descriptive::mean`] and
/// [`crate::descriptive::variance`] with the **identical error contract**
/// (documented there as the shared batch/streaming contract):
///
/// * `n = 0` → [`StatsError::EmptyInput`] from every statistic;
/// * any non-finite observation → [`StatsError::NonFinite`] from every
///   statistic (the accumulator is poisoned, exactly as the batch
///   functions reject the whole sample);
/// * `n = 1` → [`Welford::variance`] returns
///   [`StatsError::InvalidParameter`], while [`Welford::finish`] reports a
///   standard deviation of `0.0` (the [`Summary::from_slice`] singleton
///   convention).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    nonfinite: bool,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            nonfinite: false,
        }
    }

    /// Folds one observation in. A non-finite value poisons the
    /// accumulator: every subsequent statistic returns
    /// [`StatsError::NonFinite`], matching the batch functions' whole-sample
    /// rejection.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.nonfinite = true;
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator built over a disjoint shard of the same
    /// sample (Chan et al.'s pairwise update). Counts and extremes merge
    /// exactly; mean and variance to within ~1 ulp per merge, so any merge
    /// tree over the same observations agrees to ≤ 1e-9 relative error.
    pub fn merge(&mut self, other: Self) {
        self.nonfinite |= other.nonfinite;
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = Welford {
                nonfinite: self.nonfinite,
                ..other
            };
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.n += other.n;
    }

    /// Number of finite observations folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Whether no observation has been pushed.
    pub fn is_empty(&self) -> bool {
        self.n == 0 && !self.nonfinite
    }

    fn check(&self) -> Result<()> {
        if self.nonfinite {
            return Err(StatsError::NonFinite);
        }
        if self.n == 0 {
            return Err(StatsError::EmptyInput);
        }
        Ok(())
    }

    /// Arithmetic mean; same contract as [`crate::descriptive::mean`].
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyInput`] / [`StatsError::NonFinite`].
    pub fn mean(&self) -> Result<f64> {
        self.check()?;
        Ok(self.mean)
    }

    /// Unbiased (`n − 1`) sample variance; same contract as
    /// [`crate::descriptive::variance`].
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyInput`] / [`StatsError::NonFinite`], and
    /// [`StatsError::InvalidParameter`] for `n = 1`.
    pub fn variance(&self) -> Result<f64> {
        self.check()?;
        if self.n < 2 {
            return Err(StatsError::InvalidParameter(
                "variance requires at least two observations",
            ));
        }
        Ok(self.m2 / (self.n as f64 - 1.0))
    }

    /// Population (`n`) variance; same contract as
    /// [`crate::descriptive::population_variance`].
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyInput`] / [`StatsError::NonFinite`].
    pub fn population_variance(&self) -> Result<f64> {
        self.check()?;
        Ok(self.m2 / self.n as f64)
    }

    /// Sample standard deviation.
    ///
    /// # Errors
    ///
    /// As [`Welford::variance`].
    pub fn std_dev(&self) -> Result<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest observation.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyInput`] / [`StatsError::NonFinite`].
    pub fn min(&self) -> Result<f64> {
        self.check()?;
        Ok(self.min)
    }

    /// Largest observation.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyInput`] / [`StatsError::NonFinite`].
    pub fn max(&self) -> Result<f64> {
        self.check()?;
        Ok(self.max)
    }

    /// Closes the accumulator into a [`Moments`] summary. Uses the
    /// [`Summary::from_slice`] singleton convention: `n = 1` reports a
    /// standard deviation of `0.0` rather than an error.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyInput`] / [`StatsError::NonFinite`].
    pub fn finish(&self) -> Result<Moments> {
        self.check()?;
        Ok(Moments {
            n: self.n,
            mean: self.mean,
            std_dev: if self.n >= 2 {
                (self.m2 / (self.n as f64 - 1.0)).sqrt()
            } else {
                0.0
            },
            min: self.min,
            max: self.max,
        })
    }
}

/// The closed-out summary of a [`Welford`] accumulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// Number of observations.
    pub n: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (`0.0` for a singleton, as in
    /// [`Summary::from_slice`]).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

/// The five-marker core of the P² quantile estimator (Jain & Chlamtac,
/// CACM 1985). Always holds ≥ 5 observations.
#[derive(Debug, Clone, PartialEq)]
struct P2Core {
    p: f64,
    /// Marker heights (estimates of the 0, p/2, p, (1+p)/2, 1 quantiles).
    q: [f64; 5],
    /// Actual marker positions (1-based observation ranks).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    count: u64,
}

impl P2Core {
    /// The ideal cumulative fractions of the five markers.
    fn fractions(p: f64) -> [f64; 5] {
        [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
    }

    /// Initializes the markers from an exact sorted window: heights are the
    /// window's own type-7 quantiles, positions their ideal ranks.
    fn from_sorted(sorted: &[f64], p: f64) -> Self {
        debug_assert!(sorted.len() >= 5);
        let count = sorted.len() as u64;
        let fs = Self::fractions(p);
        let mut q = [0.0; 5];
        let mut n = [0.0; 5];
        let mut np = [0.0; 5];
        for (i, &f) in fs.iter().enumerate() {
            q[i] = quantile_sorted(sorted, f, QuantileMethod::Linear)
                .expect("window is non-empty and finite");
            np[i] = 1.0 + (count as f64 - 1.0) * f;
            n[i] = np[i].round();
        }
        // Ranks must stay strictly increasing for the parabolic update.
        for i in 1..5 {
            if n[i] <= n[i - 1] {
                n[i] = n[i - 1] + 1.0;
            }
        }
        n[4] = count as f64;
        P2Core { p, q, n, np, count }
    }

    fn push(&mut self, x: f64) {
        self.count += 1;
        // Locate the cell and adjust the extreme markers.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            let mut k = 0;
            while k < 3 && x >= self.q[k + 1] {
                k += 1;
            }
            k
        };
        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        let fs = Self::fractions(self.p);
        for (i, &f) in fs.iter().enumerate() {
            self.np[i] = 1.0 + (self.count as f64 - 1.0) * f;
        }
        // Adjust the interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let qp = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    /// The piecewise-parabolic (P²) height update.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (q, n) = (&self.q, &self.n);
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// The current estimate of the `p` quantile: the middle marker, except
    /// at the extremes, where the outer markers are exact (the marker
    /// fractions degenerate for `p ∈ {0, 1}`).
    fn estimate(&self) -> f64 {
        if self.p == 0.0 {
            self.q[0]
        } else if self.p == 1.0 {
            self.q[4]
        } else {
            self.q[2]
        }
    }

    /// Interpolated estimate of an arbitrary cumulative fraction from the
    /// marker CDF (used by the merge heuristic).
    fn quantile_at(&self, f: f64) -> f64 {
        if self.count <= 1 {
            return self.q[2];
        }
        let rank = 1.0 + (self.count as f64 - 1.0) * f;
        if rank <= self.n[0] {
            return self.q[0];
        }
        for i in 0..4 {
            if rank <= self.n[i + 1] {
                let span = self.n[i + 1] - self.n[i];
                let t = if span > 0.0 { (rank - self.n[i]) / span } else { 0.0 };
                return self.q[i] + t * (self.q[i + 1] - self.q[i]);
            }
        }
        self.q[4]
    }

    /// Heuristic merge: each marker of the result is the count-weighted
    /// blend of the two inputs' estimates at that marker's cumulative
    /// fraction; the extremes take the true min/max. Approximate — see the
    /// module-level P² caveat.
    fn merge(&mut self, other: &P2Core) {
        let total = self.count + other.count;
        let wa = self.count as f64 / total as f64;
        let wb = 1.0 - wa;
        let fs = Self::fractions(self.p);
        let mut q = [0.0; 5];
        for (i, &f) in fs.iter().enumerate() {
            q[i] = wa * self.quantile_at(f) + wb * other.quantile_at(f);
        }
        q[0] = self.q[0].min(other.q[0]);
        q[4] = self.q[4].max(other.q[4]);
        // Re-sort defensively: the blend cannot invert interior markers for
        // monotone inputs, but the extremes snap outward.
        for i in 1..5 {
            if q[i] < q[i - 1] {
                q[i] = q[i - 1];
            }
        }
        let mut n = [0.0; 5];
        let mut np = [0.0; 5];
        for (i, &f) in fs.iter().enumerate() {
            np[i] = 1.0 + (total as f64 - 1.0) * f;
            n[i] = np[i].round();
        }
        for i in 1..5 {
            if n[i] <= n[i - 1] {
                n[i] = n[i - 1] + 1.0;
            }
        }
        n[4] = n[4].max(total as f64);
        self.q = q;
        self.n = n;
        self.np = np;
        self.count = total;
    }
}

/// How a quantile accumulator currently stores its observations.
#[derive(Debug, Clone, PartialEq)]
enum QuantState {
    /// Exact sorted window (bit-identical to the batch quantile).
    Exact(Vec<f64>),
    /// Spilled to the constant-memory P² sketch.
    Sketch(P2Core),
}

/// Streaming estimator of an arbitrary `p`-quantile: exact up to a
/// configurable window, then the P² algorithm (see the module-level
/// accuracy caveat).
///
/// # Examples
///
/// ```
/// use counterlab_stats::stream::P2Quantile;
///
/// let mut med = P2Quantile::new(0.5).unwrap();
/// for x in [5.0, 1.0, 4.0, 2.0, 3.0] {
///     med.push(x);
/// }
/// assert_eq!(med.finish().unwrap(), 3.0); // still inside the exact window
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    p: f64,
    window: usize,
    state: QuantState,
    nonfinite: bool,
}

impl P2Quantile {
    /// An estimator for the `p`-quantile with the default exact window
    /// ([`P2_DEFAULT_EXACT_WINDOW`]).
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] unless `p ∈ [0, 1]`.
    pub fn new(p: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&p) {
            return Err(StatsError::InvalidParameter("quantile p must be in [0, 1]"));
        }
        Ok(P2Quantile {
            p,
            window: P2_DEFAULT_EXACT_WINDOW,
            state: QuantState::Exact(Vec::new()),
            nonfinite: false,
        })
    }

    /// Overrides the exact-window size (clamped to ≥ 5, the P² marker
    /// count). Results are bit-identical to the batch quantile while the
    /// observation count stays within the window.
    pub fn with_exact_window(mut self, window: usize) -> Self {
        self.window = window.max(5);
        self
    }

    /// The target cumulative probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Number of finite observations folded in.
    pub fn count(&self) -> u64 {
        match &self.state {
            QuantState::Exact(buf) => buf.len() as u64,
            QuantState::Sketch(core) => core.count,
        }
    }

    /// Folds one observation in. Non-finite values poison the estimator
    /// (matching the batch functions' whole-sample rejection).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.nonfinite = true;
            return;
        }
        match &mut self.state {
            QuantState::Exact(buf) => {
                let at = buf.partition_point(|&v| v < x);
                buf.insert(at, x);
                if buf.len() > self.window {
                    self.state = QuantState::Sketch(P2Core::from_sorted(buf, self.p));
                }
            }
            QuantState::Sketch(core) => core.push(x),
        }
    }

    /// Merges another estimator for the **same** `p` built over a disjoint
    /// shard. Exact while the union fits either window; heuristic once both
    /// sides have spilled (module-level caveat).
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] if the two estimators target
    /// different quantiles.
    pub fn merge(&mut self, other: Self) -> Result<()> {
        if self.p != other.p {
            return Err(StatsError::InvalidParameter(
                "cannot merge estimators of different quantiles",
            ));
        }
        self.nonfinite |= other.nonfinite;
        match (&mut self.state, other.state) {
            (QuantState::Exact(_), QuantState::Exact(buf)) => {
                for x in buf {
                    self.push(x);
                }
            }
            (QuantState::Sketch(core), QuantState::Exact(buf)) => {
                // The exact side replays in sorted order: deterministic.
                for x in buf {
                    core.push(x);
                }
            }
            (QuantState::Exact(buf), QuantState::Sketch(mut core)) => {
                for &x in buf.iter() {
                    core.push(x);
                }
                self.state = QuantState::Sketch(core);
            }
            (QuantState::Sketch(core), QuantState::Sketch(other_core)) => {
                core.merge(&other_core);
            }
        }
        Ok(())
    }

    /// The current quantile estimate.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyInput`] / [`StatsError::NonFinite`], matching
    /// [`crate::quantile::quantile`].
    pub fn finish(&self) -> Result<f64> {
        if self.nonfinite {
            return Err(StatsError::NonFinite);
        }
        match &self.state {
            QuantState::Exact(buf) => quantile_sorted(buf, self.p, QuantileMethod::Linear),
            QuantState::Sketch(core) => Ok(core.estimate()),
        }
    }
}

/// How a [`SummaryAccumulator`] currently stores order statistics.
#[derive(Debug, Clone, PartialEq)]
enum SummaryState {
    /// One shared exact sorted window for all three quartiles.
    Exact(Vec<f64>),
    /// Spilled: three P² sketches (q1, median, q3).
    Sketch(Box<[P2Core; 3]>),
}

/// Streaming mirror of [`Summary::from_slice`]: one pass, constant memory,
/// same eight summary numbers.
///
/// Moments and extremes come from [`Welford`] (exact contract); the
/// quartiles share one exact sorted window
/// ([`SUMMARY_DEFAULT_EXACT_WINDOW`] observations by default) and degrade
/// to three P² sketches beyond it (module-level caveat). `finish` has the
/// **same error contract** as [`Summary::from_slice`]: empty →
/// [`StatsError::EmptyInput`], any non-finite observation →
/// [`StatsError::NonFinite`], singleton → standard deviation `0.0`.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryAccumulator {
    welford: Welford,
    window: usize,
    state: SummaryState,
}

impl Default for SummaryAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl SummaryAccumulator {
    /// An empty accumulator with the default exact window.
    pub fn new() -> Self {
        SummaryAccumulator {
            welford: Welford::new(),
            window: SUMMARY_DEFAULT_EXACT_WINDOW,
            state: SummaryState::Exact(Vec::new()),
        }
    }

    /// Overrides the exact-window size (clamped to ≥ 5). While the
    /// observation count stays within the window, `finish()` is equal to
    /// [`Summary::from_slice`] up to float-summation rounding (≤ 1e-9
    /// relative).
    pub fn with_exact_window(mut self, window: usize) -> Self {
        self.window = window.max(5);
        self
    }

    /// Number of finite observations folded in.
    pub fn count(&self) -> u64 {
        self.welford.count()
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.welford.is_empty()
    }

    /// The streaming moments accumulator backing this summary.
    pub fn moments(&self) -> &Welford {
        &self.welford
    }

    /// Folds one observation in.
    pub fn push(&mut self, x: f64) {
        self.welford.push(x);
        if x.is_finite() {
            self.push_order_stat(x);
        }
    }

    /// Merges another accumulator built over a disjoint shard of the same
    /// sample. Exact (up to ≤ 1e-9 relative float rounding) while the union
    /// fits either window; heuristic quartiles once both sides have spilled
    /// (module-level caveat).
    pub fn merge(&mut self, other: Self) {
        self.welford.merge(other.welford);
        match (&mut self.state, other.state) {
            (SummaryState::Exact(_), SummaryState::Exact(buf)) => {
                for x in buf {
                    self.push_order_stat(x);
                }
            }
            (SummaryState::Sketch(cores), SummaryState::Exact(buf)) => {
                for x in buf {
                    for core in cores.iter_mut() {
                        core.push(x);
                    }
                }
            }
            (SummaryState::Exact(buf), SummaryState::Sketch(mut cores)) => {
                for &x in buf.iter() {
                    for core in cores.iter_mut() {
                        core.push(x);
                    }
                }
                self.state = SummaryState::Sketch(cores);
            }
            (SummaryState::Sketch(cores), SummaryState::Sketch(other_cores)) => {
                for (core, other_core) in cores.iter_mut().zip(other_cores.iter()) {
                    core.merge(other_core);
                }
            }
        }
    }

    /// Order-statistic-only push (the moments were already merged).
    fn push_order_stat(&mut self, x: f64) {
        match &mut self.state {
            SummaryState::Exact(buf) => {
                let at = buf.partition_point(|&v| v < x);
                buf.insert(at, x);
                if buf.len() > self.window {
                    self.state = SummaryState::Sketch(Box::new([
                        P2Core::from_sorted(buf, 0.25),
                        P2Core::from_sorted(buf, 0.5),
                        P2Core::from_sorted(buf, 0.75),
                    ]));
                }
            }
            SummaryState::Sketch(cores) => {
                for core in cores.iter_mut() {
                    core.push(x);
                }
            }
        }
    }

    /// Closes the accumulator into a [`Summary`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Summary::from_slice`]:
    /// [`StatsError::EmptyInput`] for no observations,
    /// [`StatsError::NonFinite`] if any pushed value was NaN or infinite.
    pub fn finish(&self) -> Result<Summary> {
        let m = self.welford.finish()?;
        let (q1, median, q3) = match &self.state {
            SummaryState::Exact(buf) => (
                quantile_sorted(buf, 0.25, QuantileMethod::Linear)?,
                quantile_sorted(buf, 0.5, QuantileMethod::Linear)?,
                quantile_sorted(buf, 0.75, QuantileMethod::Linear)?,
            ),
            SummaryState::Sketch(cores) => (
                cores[0].estimate(),
                cores[1].estimate(),
                cores[2].estimate(),
            ),
        };
        Ok(Summary::from_parts(
            m.n as usize,
            m.mean,
            m.std_dev,
            m.min,
            q1,
            median,
            q3,
            m.max,
        ))
    }
}

/// How a [`StreamingHistogram`] currently stores observations.
#[derive(Debug, Clone, PartialEq)]
enum HistState {
    /// Exact values, range not yet fixed.
    Exact(Vec<f64>),
    /// Fixed-bin counts over `[lo, hi]`.
    Binned { lo: f64, hi: f64, counts: Vec<u64> },
}

/// A histogram that needs no a-priori range: it buffers exactly until its
/// window fills, fixes its range from the data seen, and thereafter grows
/// by doubling its span (merging bin pairs) whenever a value falls
/// outside. Bin boundaries therefore depend on arrival order — the sketch
/// is for *rendering* distribution shapes, not for exact counts per
/// interval (use [`Histogram`] when the range is known).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingHistogram {
    bins: usize,
    window: usize,
    state: HistState,
    /// ±∞ observations, kept out of the finite range (NaN is dropped, as
    /// in [`Histogram::add`]).
    below: u64,
    above: u64,
}

impl StreamingHistogram {
    /// A histogram with `bins` bins (window = `4 × bins` exact values).
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] if `bins == 0`.
    pub fn new(bins: usize) -> Result<Self> {
        if bins == 0 {
            return Err(StatsError::InvalidParameter("histogram requires bins >= 1"));
        }
        Ok(StreamingHistogram {
            bins,
            window: bins * 4,
            state: HistState::Exact(Vec::new()),
            below: 0,
            above: 0,
        })
    }

    /// Number of finite observations folded in.
    pub fn count(&self) -> u64 {
        match &self.state {
            HistState::Exact(buf) => buf.len() as u64,
            HistState::Binned { counts, .. } => counts.iter().sum(),
        }
    }

    /// Folds one observation in: NaN is dropped, ±∞ is tallied separately,
    /// finite values always land in a bin (the range grows to cover them).
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        if x == f64::NEG_INFINITY {
            self.below += 1;
            return;
        }
        if x == f64::INFINITY {
            self.above += 1;
            return;
        }
        match &mut self.state {
            HistState::Exact(buf) => {
                buf.push(x);
                if buf.len() > self.window {
                    self.spill();
                }
            }
            HistState::Binned { .. } => {
                self.grow_to_cover(x);
                if let HistState::Binned { lo, hi, counts } = &mut self.state {
                    let bins = counts.len();
                    let idx = (((x - *lo) / (*hi - *lo)) * bins as f64) as usize;
                    counts[idx.min(bins - 1)] += 1;
                }
            }
        }
    }

    /// Fixes the range from the exact window and bins its contents.
    fn spill(&mut self) {
        let HistState::Exact(buf) = &self.state else {
            return;
        };
        let lo = buf.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = buf.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let (lo, hi) = if lo == hi { (lo - 0.5, hi + 0.5) } else { (lo, hi) };
        let mut counts = vec![0u64; self.bins];
        for &x in buf {
            let idx = (((x - lo) / (hi - lo)) * self.bins as f64) as usize;
            counts[idx.min(self.bins - 1)] += 1;
        }
        self.state = HistState::Binned { lo, hi, counts };
    }

    /// Doubles the span (merging adjacent bin pairs) until `x` is covered.
    fn grow_to_cover(&mut self, x: f64) {
        let HistState::Binned { lo, hi, counts } = &mut self.state else {
            return;
        };
        while x < *lo || x > *hi {
            let width = *hi - *lo;
            let bins = counts.len();
            let mut merged = vec![0u64; bins];
            for (i, &c) in counts.iter().enumerate() {
                merged[i / 2] += c;
            }
            if x < *lo {
                // Extend downward: old counts occupy the upper half.
                let half = bins / 2;
                let mut shifted = vec![0u64; bins];
                shifted[half..].copy_from_slice(&merged[..bins - half]);
                *counts = shifted;
                *lo -= width;
            } else {
                *counts = merged;
                *hi += width;
            }
        }
    }

    /// Merges another histogram built over a disjoint shard. Bin counts
    /// are remapped by bin midpoint when ranges differ — approximate, like
    /// every post-binning operation.
    pub fn merge(&mut self, other: Self) {
        self.below += other.below;
        self.above += other.above;
        match other.state {
            HistState::Exact(buf) => {
                for x in buf {
                    self.push(x);
                }
            }
            HistState::Binned { lo, hi, counts } => {
                // Ensure self is binned and covers the other's range.
                if let HistState::Exact(_) = self.state {
                    self.spill_or_init(lo, hi);
                }
                self.grow_to_cover(lo);
                self.grow_to_cover(hi);
                let bins = counts.len();
                let width = (hi - lo) / bins as f64;
                for (i, &c) in counts.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    let mid = lo + (i as f64 + 0.5) * width;
                    if let HistState::Binned { lo, hi, counts } = &mut self.state {
                        let b = counts.len();
                        let idx = (((mid - *lo) / (*hi - *lo)) * b as f64) as usize;
                        counts[idx.min(b - 1)] += c;
                    }
                }
            }
        }
    }

    /// Forces the exact window into bins, seeding the range from the
    /// window if it has data or from the given bounds otherwise.
    fn spill_or_init(&mut self, lo: f64, hi: f64) {
        if let HistState::Exact(buf) = &self.state {
            if buf.is_empty() {
                let (lo, hi) = if lo == hi { (lo - 0.5, hi + 0.5) } else { (lo, hi) };
                self.state = HistState::Binned {
                    lo,
                    hi,
                    counts: vec![0; self.bins],
                };
            } else {
                self.spill();
            }
        }
    }

    /// Closes the sketch into a concrete [`Histogram`].
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyInput`] if no finite value was pushed.
    pub fn finish(&self) -> Result<Histogram> {
        match &self.state {
            HistState::Exact(buf) => {
                if buf.is_empty() {
                    return Err(StatsError::EmptyInput);
                }
                Histogram::from_slice(buf, self.bins)
            }
            HistState::Binned { lo, hi, counts } => Ok(Histogram::from_parts(
                *lo,
                *hi,
                counts.clone(),
                self.below,
                self.above,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive;

    fn sample(n: usize) -> Vec<f64> {
        // Deterministic, irregular, positive-and-negative sample.
        (0..n)
            .map(|i| ((i * 2654435761) % 10_000) as f64 / 7.0 - 500.0)
            .collect()
    }

    #[test]
    fn welford_matches_batch() {
        let xs = sample(1000);
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = descriptive::mean(&xs).unwrap();
        let var = descriptive::variance(&xs).unwrap();
        assert!((w.mean().unwrap() - mean).abs() <= 1e-9 * mean.abs().max(1.0));
        assert!((w.variance().unwrap() - var).abs() <= 1e-9 * var);
        assert_eq!(w.min().unwrap(), descriptive::min(&xs).unwrap());
        assert_eq!(w.max().unwrap(), descriptive::max(&xs).unwrap());
        assert_eq!(w.count(), 1000);
    }

    #[test]
    fn welford_empty_and_singleton_contract() {
        let w = Welford::new();
        assert_eq!(w.mean(), Err(StatsError::EmptyInput));
        assert_eq!(w.variance(), Err(StatsError::EmptyInput));
        assert_eq!(w.finish().unwrap_err(), StatsError::EmptyInput);
        let mut w = Welford::new();
        w.push(42.0);
        assert_eq!(w.mean().unwrap(), 42.0);
        assert!(matches!(w.variance(), Err(StatsError::InvalidParameter(_))));
        let m = w.finish().unwrap();
        assert_eq!(m.std_dev, 0.0);
        assert_eq!((m.min, m.max), (42.0, 42.0));
    }

    #[test]
    fn welford_poisoned_by_nonfinite() {
        let mut w = Welford::new();
        w.push(1.0);
        w.push(f64::NAN);
        w.push(2.0);
        assert_eq!(w.mean(), Err(StatsError::NonFinite));
        assert_eq!(w.finish().unwrap_err(), StatsError::NonFinite);
        // Matches the batch contract.
        assert_eq!(
            descriptive::mean(&[1.0, f64::NAN, 2.0]),
            Err(StatsError::NonFinite)
        );
    }

    #[test]
    fn welford_merge_matches_single_stream() {
        let xs = sample(997);
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        for shards in [2, 4, 7] {
            let mut parts: Vec<Welford> = (0..shards).map(|_| Welford::new()).collect();
            for (i, &x) in xs.iter().enumerate() {
                parts[i % shards].push(x);
            }
            let mut merged = parts.remove(0);
            for p in parts {
                merged.merge(p);
            }
            assert_eq!(merged.count(), whole.count());
            assert_eq!(merged.min().unwrap(), whole.min().unwrap());
            assert_eq!(merged.max().unwrap(), whole.max().unwrap());
            let (ma, mb) = (merged.mean().unwrap(), whole.mean().unwrap());
            assert!((ma - mb).abs() <= 1e-9 * mb.abs().max(1.0), "{shards} shards");
            let (va, vb) = (merged.variance().unwrap(), whole.variance().unwrap());
            assert!((va - vb).abs() <= 1e-9 * vb, "{shards} shards");
        }
    }

    #[test]
    fn welford_merge_with_empty_is_identity() {
        let mut w = Welford::new();
        w.push(3.0);
        w.push(5.0);
        let before = w;
        w.merge(Welford::new());
        assert_eq!(w, before);
        let mut e = Welford::new();
        e.merge(before);
        assert_eq!(e, before);
    }

    #[test]
    fn p2_exact_within_window() {
        let xs = sample(60);
        let mut q = P2Quantile::new(0.5).unwrap().with_exact_window(64);
        for &x in &xs {
            q.push(x);
        }
        assert_eq!(
            q.finish().unwrap(),
            crate::quantile::median(&xs).unwrap(),
            "window not exceeded, must be bit-exact"
        );
    }

    #[test]
    fn p2_sketch_tracks_batch_quantiles() {
        let xs = sample(5000);
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let range = sorted[sorted.len() - 1] - sorted[0];
        for p in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let mut q = P2Quantile::new(p).unwrap();
            for &x in &xs {
                q.push(x);
            }
            let exact = quantile_sorted(&sorted, p, QuantileMethod::Linear).unwrap();
            let est = q.finish().unwrap();
            assert!(
                (est - exact).abs() <= 0.05 * range,
                "p={p}: est {est} vs exact {exact} (range {range})"
            );
        }
    }

    #[test]
    fn p2_extremes_are_exact() {
        let xs = sample(3000);
        let mut lo = P2Quantile::new(0.0).unwrap();
        let mut hi = P2Quantile::new(1.0).unwrap();
        for &x in &xs {
            lo.push(x);
            hi.push(x);
        }
        assert_eq!(lo.finish().unwrap(), descriptive::min(&xs).unwrap());
        assert_eq!(hi.finish().unwrap(), descriptive::max(&xs).unwrap());
    }

    #[test]
    fn p2_invalid_p_and_merge_mismatch() {
        assert!(P2Quantile::new(1.5).is_err());
        assert!(P2Quantile::new(-0.1).is_err());
        let a = P2Quantile::new(0.5).unwrap();
        let b = P2Quantile::new(0.25).unwrap();
        let mut a2 = a.clone();
        assert!(a2.merge(b).is_err());
    }

    #[test]
    fn p2_empty_and_nonfinite() {
        let q = P2Quantile::new(0.5).unwrap();
        assert_eq!(q.finish(), Err(StatsError::EmptyInput));
        let mut q = P2Quantile::new(0.5).unwrap();
        q.push(f64::INFINITY);
        q.push(1.0);
        assert_eq!(q.finish(), Err(StatsError::NonFinite));
    }

    #[test]
    fn summary_accumulator_matches_from_slice_in_window() {
        let xs = sample(300);
        let mut acc = SummaryAccumulator::new();
        for &x in &xs {
            acc.push(x);
        }
        let s = acc.finish().unwrap();
        let b = Summary::from_slice(&xs).unwrap();
        assert_eq!(s.n(), b.n());
        assert_eq!(s.min(), b.min());
        assert_eq!(s.max(), b.max());
        assert_eq!(s.q1(), b.q1());
        assert_eq!(s.median(), b.median());
        assert_eq!(s.q3(), b.q3());
        assert!((s.mean() - b.mean()).abs() <= 1e-9 * b.mean().abs().max(1.0));
        assert!((s.std_dev() - b.std_dev()).abs() <= 1e-9 * b.std_dev().max(1.0));
    }

    #[test]
    fn summary_accumulator_sketch_mode_close() {
        let xs = sample(4000);
        let mut acc = SummaryAccumulator::new().with_exact_window(64);
        for &x in &xs {
            acc.push(x);
        }
        let s = acc.finish().unwrap();
        let b = Summary::from_slice(&xs).unwrap();
        let range = b.range();
        for (got, want, name) in [
            (s.q1(), b.q1(), "q1"),
            (s.median(), b.median(), "median"),
            (s.q3(), b.q3(), "q3"),
        ] {
            assert!(
                (got - want).abs() <= 0.05 * range,
                "{name}: {got} vs {want}"
            );
        }
        assert_eq!(s.min(), b.min());
        assert_eq!(s.max(), b.max());
    }

    #[test]
    fn summary_accumulator_error_contract() {
        let acc = SummaryAccumulator::new();
        assert_eq!(acc.finish().unwrap_err(), StatsError::EmptyInput);
        assert_eq!(
            Summary::from_slice(&[]).unwrap_err(),
            StatsError::EmptyInput
        );
        let mut acc = SummaryAccumulator::new();
        acc.push(1.0);
        acc.push(f64::NAN);
        assert_eq!(acc.finish().unwrap_err(), StatsError::NonFinite);
        let mut one = SummaryAccumulator::new();
        one.push(7.0);
        let s = one.finish().unwrap();
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.median(), 7.0);
    }

    #[test]
    fn summary_merge_exact_shards() {
        let xs = sample(200);
        let mut whole = SummaryAccumulator::new();
        for &x in &xs {
            whole.push(x);
        }
        for shards in [2usize, 4] {
            let mut parts: Vec<SummaryAccumulator> =
                (0..shards).map(|_| SummaryAccumulator::new()).collect();
            for (i, &x) in xs.iter().enumerate() {
                parts[i % shards].push(x);
            }
            let mut merged = parts.remove(0);
            for p in parts {
                merged.merge(p);
            }
            let (a, b) = (merged.finish().unwrap(), whole.finish().unwrap());
            assert_eq!(a.median(), b.median(), "{shards} shards");
            assert_eq!(a.q1(), b.q1());
            assert_eq!(a.q3(), b.q3());
            assert_eq!((a.min(), a.max()), (b.min(), b.max()));
        }
    }

    #[test]
    fn streaming_histogram_exact_window_matches_batch() {
        let xs = sample(100);
        let mut sh = StreamingHistogram::new(32).unwrap();
        for &x in &xs {
            sh.push(x);
        }
        let h = sh.finish().unwrap();
        let b = Histogram::from_slice(&xs, 32).unwrap();
        assert_eq!(h, b);
    }

    #[test]
    fn streaming_histogram_grows_and_keeps_total() {
        let mut sh = StreamingHistogram::new(8).unwrap();
        for i in 0..1000 {
            sh.push((i * i % 7919) as f64);
        }
        // Far outside the seeded range: must grow, not drop.
        sh.push(1e6);
        sh.push(-1e6);
        let h = sh.finish().unwrap();
        assert_eq!(h.total(), 1002);
        assert_eq!(h.underflow() + h.overflow(), 0);
    }

    #[test]
    fn streaming_histogram_nan_and_inf() {
        let mut sh = StreamingHistogram::new(4).unwrap();
        sh.push(f64::NAN);
        sh.push(f64::INFINITY);
        sh.push(1.0);
        assert_eq!(sh.count(), 1);
        for i in 0..100 {
            sh.push(i as f64);
        }
        let h = sh.finish().unwrap();
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 101);
    }

    #[test]
    fn streaming_histogram_merge_totals() {
        let xs = sample(600);
        let mut a = StreamingHistogram::new(16).unwrap();
        let mut b = StreamingHistogram::new(16).unwrap();
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(b);
        assert_eq!(a.count(), 600);
        assert_eq!(a.finish().unwrap().total(), 600);
    }
}
