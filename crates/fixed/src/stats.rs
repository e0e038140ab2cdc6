//! Running statistics for range and error monitoring.
//!
//! [`RangeStats`] backs the paper's *statistic-based* MSB estimation
//! ("keeping track of the signal range during simulation", Section 4.1).
//! [`ErrorStats`] backs the LSB-side *error monitoring* (Section 4.2): the
//! mean error `m̄`, standard deviation `σ` and maximum absolute error
//! `|e|max` of the float-vs-fixed difference, accumulated with Welford's
//! numerically stable online algorithm.

use std::fmt;

/// Minimum/maximum/count of observed signal values.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RangeStats {
    min: f64,
    max: f64,
    count: u64,
}

impl RangeStats {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        RangeStats {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            count: 0,
        }
    }

    /// Records one observation. NaN observations are counted but do not
    /// move the extremes.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x.is_nan() {
            return;
        }
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations (assignments / accesses).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether any non-NaN value was recorded.
    pub fn is_empty(&self) -> bool {
        self.min > self.max
    }

    /// Smallest observed value.
    ///
    /// # Panics
    ///
    /// Panics when no value was recorded; use [`RangeStats::try_min`] for a
    /// non-panicking variant.
    pub fn min(&self) -> f64 {
        self.try_min().expect("no values recorded")
    }

    /// Largest observed value.
    ///
    /// # Panics
    ///
    /// Panics when no value was recorded; use [`RangeStats::try_max`] for a
    /// non-panicking variant.
    pub fn max(&self) -> f64 {
        self.try_max().expect("no values recorded")
    }

    /// Smallest observed value, or `None` if nothing was recorded.
    pub fn try_min(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest observed value, or `None` if nothing was recorded.
    pub fn try_max(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.max)
        }
    }

    /// The observed range as an interval, or `None` if nothing was recorded.
    pub fn interval(&self) -> Option<crate::Interval> {
        if self.is_empty() {
            None
        } else {
            Some(crate::Interval::new(self.min, self.max))
        }
    }

    /// Merges another recorder into this one.
    pub fn merge(&mut self, other: &RangeStats) {
        self.count += other.count;
        if !other.is_empty() {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Resets to the empty state.
    pub fn reset(&mut self) {
        *self = RangeStats::new();
    }

    /// Raw `(min, max, count)` fields for bit-exact serialization.
    ///
    /// An empty recorder reports `(+inf, -inf, 0)`. Pair with
    /// [`RangeStats::from_raw`]; the round-trip is the identity.
    pub fn to_raw(&self) -> (f64, f64, u64) {
        (self.min, self.max, self.count)
    }

    /// Rebuilds a recorder from raw fields produced by
    /// [`RangeStats::to_raw`]. No validation is performed: this exists so
    /// checkpoint files can restore monitor state bit-identically.
    pub fn from_raw(min: f64, max: f64, count: u64) -> Self {
        RangeStats { min, max, count }
    }
}

impl fmt::Display for RangeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "range: (none, {} samples)", self.count)
        } else {
            write!(
                f,
                "range: [{}, {}] over {} samples",
                self.min, self.max, self.count
            )
        }
    }
}

/// Mean / standard deviation / maximum-absolute statistics of an error
/// sequence, via Welford's online algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorStats {
    count: u64,
    mean: f64,
    m2: f64,
    max_abs: f64,
}

impl ErrorStats {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        ErrorStats::default()
    }

    /// Records one error observation. NaN observations are ignored (they
    /// arise only from NaN quantization inputs, which are flagged
    /// separately as overflows).
    #[inline]
    pub fn record(&mut self, e: f64) {
        if e.is_nan() {
            return;
        }
        self.count += 1;
        let delta = e - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (e - self.mean);
        let a = e.abs();
        if a > self.max_abs {
            self.max_abs = a;
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean error `m̄` (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation `σ` (0 when fewer than 2 samples).
    pub fn std(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0).sqrt()
        }
    }

    /// Population variance `σ²`.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Maximum absolute error `|e|max`.
    pub fn max_abs(&self) -> f64 {
        self.max_abs
    }

    /// Root-mean-square of the error, `sqrt(mean² + σ²)` — the quantity
    /// that actually drives SQNR.
    pub fn rms(&self) -> f64 {
        (self.mean * self.mean + self.variance()).sqrt()
    }

    /// Whether every recorded error was exactly zero (an exactly
    /// representable signal — e.g. the ±1 slicer output).
    pub fn is_exact(&self) -> bool {
        self.max_abs == 0.0
    }

    /// Merges another recorder into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &ErrorStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.count += other.count;
        self.max_abs = self.max_abs.max(other.max_abs);
    }

    /// Resets to the empty state.
    pub fn reset(&mut self) {
        *self = ErrorStats::new();
    }

    /// Raw `(count, mean, m2, max_abs)` Welford accumulator fields for
    /// bit-exact serialization. Pair with [`ErrorStats::from_raw`]; the
    /// round-trip is the identity.
    pub fn to_raw(&self) -> (u64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.max_abs)
    }

    /// Rebuilds a recorder from raw fields produced by
    /// [`ErrorStats::to_raw`]. No validation is performed: this exists so
    /// checkpoint files can restore monitor state bit-identically.
    pub fn from_raw(count: u64, mean: f64, m2: f64, max_abs: f64) -> Self {
        ErrorStats {
            count,
            mean,
            m2,
            max_abs,
        }
    }
}

impl fmt::Display for ErrorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "err: max|e|={:.3e} mean={:.3e} std={:.3e} ({} samples)",
            self.max_abs,
            self.mean,
            self.std(),
            self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_records_extremes() {
        let mut r = RangeStats::new();
        assert!(r.is_empty());
        assert_eq!(r.try_min(), None);
        for x in [0.5, -1.25, 3.0, 2.9] {
            r.record(x);
        }
        assert_eq!(r.count(), 4);
        assert_eq!(r.min(), -1.25);
        assert_eq!(r.max(), 3.0);
        assert_eq!(r.interval().unwrap(), crate::Interval::new(-1.25, 3.0));
    }

    #[test]
    fn range_ignores_nan_for_extremes() {
        let mut r = RangeStats::new();
        r.record(1.0);
        r.record(f64::NAN);
        assert_eq!(r.count(), 2);
        assert_eq!(r.min(), 1.0);
        assert_eq!(r.max(), 1.0);
    }

    #[test]
    #[should_panic(expected = "no values recorded")]
    fn range_min_panics_when_empty() {
        let _ = RangeStats::new().min();
    }

    #[test]
    fn range_merge_and_reset() {
        let mut a = RangeStats::new();
        a.record(1.0);
        let mut b = RangeStats::new();
        b.record(-5.0);
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), -5.0);
        assert_eq!(a.max(), 2.0);
        a.merge(&RangeStats::new());
        assert_eq!(a.count(), 3);
        a.reset();
        assert!(a.is_empty());
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn error_stats_known_sequence() {
        let mut e = ErrorStats::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            e.record(x);
        }
        assert_eq!(e.count(), 4);
        assert!((e.mean() - 2.5).abs() < 1e-12);
        // population variance of 1,2,3,4 is 1.25
        assert!((e.variance() - 1.25).abs() < 1e-12);
        assert!((e.std() - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(e.max_abs(), 4.0);
        assert!((e.rms() - (2.5f64 * 2.5 + 1.25).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn error_stats_zero_and_single() {
        let mut e = ErrorStats::new();
        assert_eq!(e.std(), 0.0);
        assert_eq!(e.mean(), 0.0);
        assert!(e.is_exact());
        e.record(0.5);
        assert_eq!(e.std(), 0.0); // < 2 samples
        assert_eq!(e.mean(), 0.5);
        assert!(!e.is_exact());
    }

    #[test]
    fn error_stats_exactness_tracks_zero_errors() {
        let mut e = ErrorStats::new();
        for _ in 0..100 {
            e.record(0.0);
        }
        assert!(e.is_exact());
        assert_eq!(e.std(), 0.0);
    }

    #[test]
    fn error_stats_nan_ignored() {
        let mut e = ErrorStats::new();
        e.record(1.0);
        e.record(f64::NAN);
        assert_eq!(e.count(), 1);
        assert_eq!(e.mean(), 1.0);
    }

    #[test]
    fn welford_matches_two_pass_reference() {
        // Deterministic pseudo-random-ish sequence.
        let xs: Vec<f64> = (0..1000)
            .map(|i| ((i * 2654435761u64 % 1000) as f64 / 500.0 - 1.0) * 0.01)
            .collect();
        let mut e = ErrorStats::new();
        for &x in &xs {
            e.record(x);
        }
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((e.mean() - mean).abs() < 1e-12);
        assert!((e.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).sin()).collect();
        let mut whole = ErrorStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = ErrorStats::new();
        let mut b = ErrorStats::new();
        for &x in &xs[..200] {
            a.record(x);
        }
        for &x in &xs[200..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.std() - whole.std()).abs() < 1e-10);
        assert_eq!(a.max_abs(), whole.max_abs());

        // Merging into empty copies; merging empty is a no-op.
        let mut empty = ErrorStats::new();
        empty.merge(&whole);
        assert_eq!(empty.count(), whole.count());
        whole.merge(&ErrorStats::new());
        assert_eq!(whole.count(), 500);
    }

    #[test]
    fn display_formats() {
        let mut r = RangeStats::new();
        assert!(r.to_string().contains("none"));
        r.record(1.0);
        assert!(r.to_string().contains("[1, 1]"));
        let mut e = ErrorStats::new();
        e.record(0.25);
        assert!(e.to_string().contains("samples"));
    }

    #[test]
    fn raw_round_trip_is_identity() {
        let mut r = RangeStats::new();
        for x in [0.1, -3.5, f64::NAN, 7.25] {
            r.record(x);
        }
        let (min, max, count) = r.to_raw();
        assert_eq!(RangeStats::from_raw(min, max, count), r);
        // Empty recorder keeps its inverted-infinity sentinel through the trip.
        let (min, max, count) = RangeStats::new().to_raw();
        assert_eq!(min, f64::INFINITY);
        assert_eq!(max, f64::NEG_INFINITY);
        assert!(RangeStats::from_raw(min, max, count).is_empty());

        let mut e = ErrorStats::new();
        for x in [0.125, -0.5, 0.33] {
            e.record(x);
        }
        let (count, mean, m2, max_abs) = e.to_raw();
        assert_eq!(ErrorStats::from_raw(count, mean, m2, max_abs), e);
    }

    #[test]
    fn uniform_error_std_matches_theory() {
        // U(-q/2, q/2) has std q/sqrt(12); check the recorder converges.
        let q = 0.03125; // 2^-5
        let n = 20000;
        let mut e = ErrorStats::new();
        for i in 0..n {
            // low-discrepancy fill of the interval
            let u = (i as f64 + 0.5) / n as f64;
            e.record((u - 0.5) * q);
        }
        let expected = q / 12f64.sqrt();
        assert!((e.std() - expected).abs() / expected < 1e-3);
        assert!(e.mean().abs() < 1e-12);
    }
}
