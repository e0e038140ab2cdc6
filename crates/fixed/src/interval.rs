//! Interval (range) arithmetic.
//!
//! This is the machinery behind the paper's *quasi-analytical* MSB
//! estimation (Section 4.1): every overloaded arithmetic operator also
//! propagates a worst-case value range, and the propagation table of the
//! paper —
//!
//! ```text
//! a + b   min = a.min + b.min
//! a - b   min = a.min - b.max
//! a * b   min = MIN(a.min*b.min, a.min*b.max, a.max*b.min, a.max*b.max)
//! c = a   c.min = MIN(c.min, a.min)
//! ```
//!
//! — is exactly [`Interval`]'s `Add`/`Sub`/`Mul` impls plus
//! [`Interval::union`]. The same arithmetic also drives the *analytical*
//! fixpoint propagation over the extracted signal-flow graph.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::dtype::DType;
use crate::error::FixError;

/// A closed interval `[lo, hi]` over `f64`.
///
/// The empty interval is represented by [`Interval::EMPTY`]
/// (`lo = +inf, hi = -inf`), which is the identity for [`Interval::union`].
/// Unbounded intervals (infinite endpoints) arise naturally from range
/// explosion on feedback paths and are detected with
/// [`Interval::is_exploded`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// The empty interval: union identity, contains nothing.
    pub const EMPTY: Interval = Interval {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
    };

    /// The full real line (used as "unknown range").
    pub const UNBOUNDED: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` (use [`Interval::EMPTY`] for the empty interval)
    /// or either bound is NaN.
    #[inline]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "interval bound is NaN");
        assert!(
            lo <= hi,
            "interval lower bound {lo} exceeds upper bound {hi}"
        );
        Interval { lo, hi }
    }

    /// Fallible counterpart of [`Interval::new`] for bounds that arrive
    /// from user input (annotation files, CLI arguments): returns
    /// [`FixError::InvalidRange`] instead of panicking on inverted or NaN
    /// bounds.
    ///
    /// # Errors
    ///
    /// [`FixError::InvalidRange`] when `lo > hi` or either bound is NaN.
    pub fn try_new(lo: f64, hi: f64) -> Result<Self, FixError> {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            Err(FixError::InvalidRange { lo, hi })
        } else {
            Ok(Interval { lo, hi })
        }
    }

    /// The degenerate interval `[x, x]`.
    #[inline]
    pub fn point(x: f64) -> Self {
        Interval::new(x, x)
    }

    /// The symmetric interval `[-a, a]`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is negative or NaN.
    pub fn symmetric(a: f64) -> Self {
        Interval::new(-a, a)
    }

    /// The representable range of a fixed-point type.
    #[inline]
    pub fn from_dtype(dtype: &DType) -> Self {
        Interval::new(dtype.min_value(), dtype.max_value())
    }

    /// Whether the interval contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Whether either bound is infinite — the "explosion of the MSB" the
    /// paper warns about for feedback signals, in its limit form.
    pub fn is_exploded(&self) -> bool {
        !self.is_empty() && (self.lo.is_infinite() || self.hi.is_infinite())
    }

    /// Whether both bounds are finite and the interval is non-empty.
    pub fn is_bounded(&self) -> bool {
        !self.is_empty() && self.lo.is_finite() && self.hi.is_finite()
    }

    /// `hi - lo`, or 0 for the empty interval.
    pub fn width(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.hi - self.lo
        }
    }

    /// The largest absolute value in the interval (0 for empty).
    pub fn max_abs(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.lo.abs().max(self.hi.abs())
        }
    }

    /// Whether `x` lies in the interval.
    pub fn contains(&self, x: f64) -> bool {
        !self.is_empty() && self.lo <= x && x <= self.hi
    }

    /// Whether `other` lies entirely within `self`.
    pub fn contains_interval(&self, other: &Interval) -> bool {
        other.is_empty() || (!self.is_empty() && self.lo <= other.lo && other.hi <= self.hi)
    }

    /// Smallest interval covering both operands (the paper's
    /// `c.min = MIN(c.min, a.min)` assignment rule, on both ends).
    #[inline]
    pub fn union(&self, other: &Interval) -> Interval {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Largest interval covered by both operands (possibly empty).
    pub fn intersect(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo > hi {
            Interval::EMPTY
        } else {
            Interval { lo, hi }
        }
    }

    /// Extends the interval to include `x`.
    pub fn include(&self, x: f64) -> Interval {
        self.union(&Interval::point(x))
    }

    /// Interval absolute value.
    pub fn abs(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        if self.lo >= 0.0 {
            *self
        } else if self.hi <= 0.0 {
            Interval::new(-self.hi, -self.lo)
        } else {
            Interval::new(0.0, self.max_abs())
        }
    }

    /// Elementwise minimum: `[min(a.lo,b.lo), min(a.hi,b.hi)]`.
    pub fn min(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new(self.lo.min(other.lo), self.hi.min(other.hi))
    }

    /// Elementwise maximum: `[max(a.lo,b.lo), max(a.hi,b.hi)]`.
    pub fn max(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new(self.lo.max(other.lo), self.hi.max(other.hi))
    }

    /// Multiplication by the exact power of two `2^k` (hardware shift).
    pub fn shift(&self, k: i32) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        let s = (k as f64).exp2();
        Interval::new(self.lo * s, self.hi * s)
    }

    /// Clamps the interval into `[lo, hi]` — the effect of a saturating
    /// assignment on the propagated range. Unlike [`Interval::intersect`],
    /// a range lying entirely outside `bounds` collapses onto the nearer
    /// boundary (saturation maps every out-of-range value to the rail),
    /// never to the empty interval.
    #[inline]
    pub fn clamp_to(&self, bounds: &Interval) -> Interval {
        if self.is_empty() || bounds.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new(
            self.lo.clamp(bounds.lo, bounds.hi),
            self.hi.clamp(bounds.lo, bounds.hi),
        )
    }
}

impl Default for Interval {
    fn default() -> Self {
        Interval::EMPTY
    }
}

impl From<f64> for Interval {
    fn from(x: f64) -> Self {
        Interval::point(x)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            f.write_str("[]")
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// `∞ − ∞` (opposing infinite bounds, which arise when exploded feedback
/// ranges meet in `Add`/`Sub`) yields NaN under IEEE-754. A NaN bound is
/// poison: it later panics in `Interval::new` via `abs`/`min`/`max`. Map
/// each NaN bound to the conservative infinity of its side instead — the
/// result stays "exploded", which is what range propagation reports anyway.
#[inline]
fn denan(lo: f64, hi: f64) -> Interval {
    Interval {
        lo: if lo.is_nan() { f64::NEG_INFINITY } else { lo },
        hi: if hi.is_nan() { f64::INFINITY } else { hi },
    }
}

impl Add for Interval {
    type Output = Interval;
    #[inline]
    fn add(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        denan(self.lo + rhs.lo, self.hi + rhs.hi)
    }
}

impl Sub for Interval {
    type Output = Interval;
    #[inline]
    fn sub(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        denan(self.lo - rhs.hi, self.hi - rhs.lo)
    }
}

impl Mul for Interval {
    type Output = Interval;
    #[inline]
    fn mul(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for a in [self.lo, self.hi] {
            for b in [rhs.lo, rhs.hi] {
                // 0 * inf produces NaN; treat as 0 (the finite factor wins).
                let p = a * b;
                let p = if p.is_nan() { 0.0 } else { p };
                lo = lo.min(p);
                hi = hi.max(p);
            }
        }
        Interval { lo, hi }
    }
}

impl Div for Interval {
    type Output = Interval;
    /// Interval division. A divisor interval containing zero yields
    /// [`Interval::UNBOUNDED`] — range propagation then reports explosion
    /// rather than silently producing a wrong bound.
    fn div(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        if rhs.contains(0.0) {
            return Interval::UNBOUNDED;
        }
        let inv = Interval::new(
            (1.0 / rhs.hi).min(1.0 / rhs.lo),
            (1.0 / rhs.hi).max(1.0 / rhs.lo),
        );
        self * inv
    }
}

impl Neg for Interval {
    type Output = Interval;
    #[inline]
    fn neg(self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        Interval {
            lo: -self.hi,
            hi: -self.lo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let i = Interval::new(-1.5, 2.0);
        assert_eq!(i.lo, -1.5);
        assert_eq!(i.hi, 2.0);
        assert_eq!(i.width(), 3.5);
        assert_eq!(i.max_abs(), 2.0);
        assert!(i.contains(0.0));
        assert!(!i.contains(2.1));
        assert!(i.is_bounded());
        assert!(!i.is_exploded());
    }

    #[test]
    #[should_panic(expected = "exceeds upper bound")]
    fn reversed_bounds_panic() {
        let _ = Interval::new(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_bound_panics() {
        let _ = Interval::new(f64::NAN, 0.0);
    }

    #[test]
    fn empty_interval_behaviour() {
        let e = Interval::EMPTY;
        assert!(e.is_empty());
        assert!(!e.contains(0.0));
        assert_eq!(e.width(), 0.0);
        assert_eq!(e.max_abs(), 0.0);
        assert_eq!(e.union(&Interval::point(3.0)), Interval::point(3.0));
        assert!((e + Interval::point(1.0)).is_empty());
        assert!((e * Interval::point(1.0)).is_empty());
        assert!((-e).is_empty());
        assert_eq!(Interval::default(), Interval::EMPTY);
    }

    #[test]
    fn union_and_intersect() {
        let a = Interval::new(-1.0, 1.0);
        let b = Interval::new(0.5, 3.0);
        assert_eq!(a.union(&b), Interval::new(-1.0, 3.0));
        assert_eq!(a.intersect(&b), Interval::new(0.5, 1.0));
        let c = Interval::new(5.0, 6.0);
        assert!(a.intersect(&c).is_empty());
        assert!(a.contains_interval(&Interval::new(-0.5, 0.5)));
        assert!(!a.contains_interval(&b));
        assert!(a.contains_interval(&Interval::EMPTY));
    }

    #[test]
    fn include_grows_monotonically() {
        let mut i = Interval::EMPTY;
        for x in [0.3, -1.2, 0.9, -1.2] {
            i = i.include(x);
            assert!(i.contains(x));
        }
        assert_eq!(i, Interval::new(-1.2, 0.9));
    }

    #[test]
    fn paper_propagation_table_add_sub() {
        let a = Interval::new(-1.0, 2.0);
        let b = Interval::new(-3.0, 0.5);
        assert_eq!(a + b, Interval::new(-4.0, 2.5));
        assert_eq!(a - b, Interval::new(-1.5, 5.0));
    }

    #[test]
    fn paper_propagation_table_mul() {
        let a = Interval::new(-1.0, 2.0);
        let b = Interval::new(-3.0, 0.5);
        // candidates: 3, -0.5, -6, 1 -> [-6, 3]
        assert_eq!(a * b, Interval::new(-6.0, 3.0));
        // sign-definite operands
        assert_eq!(
            Interval::new(2.0, 3.0) * Interval::new(4.0, 5.0),
            Interval::new(8.0, 15.0)
        );
        assert_eq!(
            Interval::new(-3.0, -2.0) * Interval::new(4.0, 5.0),
            Interval::new(-15.0, -8.0)
        );
    }

    #[test]
    fn mul_with_infinite_and_zero() {
        let z = Interval::point(0.0);
        let u = Interval::UNBOUNDED;
        // 0 * [-inf, inf] must not poison with NaN.
        let p = z * u;
        assert!(!p.lo.is_nan() && !p.hi.is_nan());
        assert!(p.contains(0.0));
    }

    #[test]
    fn division() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(2.0, 4.0);
        assert_eq!(a / b, Interval::new(0.25, 1.0));
        assert_eq!(a / Interval::new(-4.0, -2.0), Interval::new(-1.0, -0.25));
        assert_eq!(a / Interval::new(-1.0, 1.0), Interval::UNBOUNDED);
        assert!((a / Interval::new(-1.0, 1.0)).is_exploded());
    }

    #[test]
    fn neg_abs_min_max() {
        let a = Interval::new(-1.0, 3.0);
        assert_eq!(-a, Interval::new(-3.0, 1.0));
        assert_eq!(a.abs(), Interval::new(0.0, 3.0));
        assert_eq!(Interval::new(-4.0, -1.0).abs(), Interval::new(1.0, 4.0));
        assert_eq!(Interval::new(1.0, 4.0).abs(), Interval::new(1.0, 4.0));
        let b = Interval::new(0.0, 2.0);
        assert_eq!(a.min(&b), Interval::new(-1.0, 2.0));
        assert_eq!(a.max(&b), Interval::new(0.0, 3.0));
    }

    #[test]
    fn shift_scales_by_power_of_two() {
        let a = Interval::new(-1.0, 3.0);
        assert_eq!(a.shift(2), Interval::new(-4.0, 12.0));
        assert_eq!(a.shift(-1), Interval::new(-0.5, 1.5));
        assert_eq!(a.shift(0), a);
    }

    #[test]
    fn from_dtype_matches_type_range() {
        let t = DType::tc("t", 7, 5).unwrap();
        let i = Interval::from_dtype(&t);
        assert_eq!(i.lo, t.min_value());
        assert_eq!(i.hi, t.max_value());
    }

    #[test]
    fn clamp_to_models_saturation() {
        let grown = Interval::new(-10.0, 40.0);
        let sat = grown.clamp_to(&Interval::new(-0.2, 0.2));
        assert_eq!(sat, Interval::new(-0.2, 0.2));
        // Clamping an already-tight range is a no-op.
        let tight = Interval::new(-0.1, 0.05);
        assert_eq!(tight.clamp_to(&Interval::new(-0.2, 0.2)), tight);
        // A range entirely outside the bounds saturates onto the rail —
        // it must NOT vanish into the empty interval like intersect.
        let outside = Interval::new(5.0, 8.0);
        let railed = outside.clamp_to(&Interval::new(-0.2, 0.2));
        assert_eq!(railed, Interval::point(0.2));
        assert!(outside.intersect(&Interval::new(-0.2, 0.2)).is_empty());
        // Empty operands stay empty.
        assert!(Interval::EMPTY
            .clamp_to(&Interval::new(-1.0, 1.0))
            .is_empty());
        assert!(outside.clamp_to(&Interval::EMPTY).is_empty());
    }

    #[test]
    fn try_new_rejects_bad_bounds_without_panicking() {
        assert_eq!(Interval::try_new(-1.0, 2.0), Ok(Interval::new(-1.0, 2.0)));
        assert_eq!(
            Interval::try_new(1.0, 0.0),
            Err(FixError::InvalidRange { lo: 1.0, hi: 0.0 })
        );
        assert!(Interval::try_new(f64::NAN, 0.0).is_err());
        assert!(Interval::try_new(0.0, f64::NAN).is_err());
        // Infinite (exploded) bounds are legal — explosion is a state the
        // flow handles, not an input error.
        assert!(Interval::try_new(f64::NEG_INFINITY, f64::INFINITY).is_ok());
    }

    #[test]
    fn opposing_infinities_explode_instead_of_poisoning() {
        // Regression: UNBOUNDED - UNBOUNDED used to produce [NaN, NaN],
        // which then panicked inside abs()/min()/max() via Interval::new.
        let u = Interval::UNBOUNDED;
        let d = u - u;
        assert!(!d.lo.is_nan() && !d.hi.is_nan());
        assert!(d.is_exploded());
        let s = u + u;
        assert!(!s.lo.is_nan() && !s.hi.is_nan());
        // The previously-panicking downstream operations now stay total.
        assert!(d.abs().hi.is_infinite());
        assert!(!d.min(&Interval::point(1.0)).lo.is_nan());
        assert!(!d.max(&Interval::point(1.0)).hi.is_nan());
        // Half-exploded operands too: [0, inf] - [0, inf] hits inf - inf
        // on both ends.
        let h = Interval::new(0.0, f64::INFINITY);
        let hd = h - h;
        assert!(!hd.lo.is_nan() && !hd.hi.is_nan());
        assert!(hd.contains(0.0));
    }

    #[test]
    fn explosion_detection() {
        assert!(Interval::UNBOUNDED.is_exploded());
        assert!(Interval::new(0.0, f64::INFINITY).is_exploded());
        assert!(!Interval::new(-1e300, 1e300).is_exploded());
        assert!(!Interval::EMPTY.is_exploded());
    }

    #[test]
    fn display() {
        assert_eq!(Interval::new(-1.0, 2.5).to_string(), "[-1, 2.5]");
        assert_eq!(Interval::EMPTY.to_string(), "[]");
    }

    #[test]
    fn feedback_accumulation_explodes_monotonically() {
        // Model of the paper's accumulator explosion: v = v + d*c iterated.
        let d = Interval::new(-2.0, 2.0);
        let c = Interval::new(-0.11, 1.2);
        let mut v = Interval::point(0.0);
        let mut prev_width = 0.0;
        for _ in 0..10 {
            v = v.union(&(v + d * c));
            assert!(v.width() >= prev_width);
            prev_width = v.width();
        }
        assert!(v.width() > 20.0, "accumulator range must keep growing");
    }
}
