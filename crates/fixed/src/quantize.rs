//! The assignment-time quantization kernel.
//!
//! In the paper's environment "all operations are performed with floating
//! point arithmetic. Only when assigning a signal, the quantization is
//! performed" (Section 2.2). [`quantize`] is that single point of
//! quantization: it scales the value by `2^f`, applies the LSB rounding
//! mode, then applies the MSB overflow mode, and reports what happened so
//! the monitors can collect statistics.

use crate::dtype::{pow2, DType, OverflowMode, RoundingMode, Signedness};
use crate::error::OverflowError;

/// The result of quantizing one value through a [`DType`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantized {
    /// The representable value after rounding and overflow handling.
    pub value: f64,
    /// The scaled integer mantissa of `value` (i.e. `value / 2^lsb`).
    pub mantissa: i64,
    /// Whether the rounded value fell outside the representable range
    /// (regardless of overflow mode).
    pub overflowed: bool,
    /// The rounding error `value_after_rounding - input` *before* overflow
    /// handling; useful for precision diagnostics.
    pub rounding_error: f64,
}

impl Quantized {
    /// Converts to a `Result`, failing with [`OverflowError`] when the value
    /// overflowed — the contract of [`OverflowMode::Error`].
    ///
    /// # Errors
    ///
    /// Returns [`OverflowError`] when [`Quantized::overflowed`] is true.
    pub fn into_checked(self, dtype: &DType) -> Result<f64, OverflowError> {
        if self.overflowed {
            Err(OverflowError {
                value: self.value,
                min: dtype.min_value(),
                max: dtype.max_value(),
                dtype: dtype.name().to_string(),
            })
        } else {
            Ok(self.value)
        }
    }
}

/// Quantizes `x` through `dtype`.
///
/// The pipeline is: scale by `2^f` → round per [`RoundingMode`] → handle
/// overflow per [`OverflowMode`] → rescale. Non-finite inputs saturate to
/// the nearest representable extreme (NaN maps to 0) and are flagged as
/// overflow.
///
/// Note that [`OverflowMode::Error`] *saturates* the returned value after
/// flagging, so a simulation can continue while the event is recorded; use
/// [`Quantized::into_checked`] to turn the flag into an error.
///
/// # Example
///
/// ```
/// use fixref_fixed::{quantize, DType};
///
/// # fn main() -> Result<(), fixref_fixed::DTypeError> {
/// let t = DType::tc("t", 7, 5)?;
/// let q = quantize(0.70, &t);
/// assert_eq!(q.mantissa, 22);            // round(0.70 * 32) = round(22.4) = 22
/// let q = quantize(0.71, &t);            // round(22.72) = 23
/// assert!((q.value - 23.0 / 32.0).abs() < 1e-12);
/// assert!(!q.overflowed);
/// let q = quantize(5.0, &t);             // saturates at 2 - 2^-5
/// assert!(q.overflowed);
/// assert!((q.value - (2.0 - 1.0 / 32.0)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[inline]
pub fn quantize(x: f64, dtype: &DType) -> Quantized {
    let step = dtype.resolution();
    let min_m = dtype.min_mantissa();
    let max_m = dtype.max_mantissa();

    if x.is_nan() {
        let m = 0i64.clamp(min_m, max_m);
        return Quantized {
            value: m as f64 * step,
            mantissa: m,
            overflowed: true,
            rounding_error: f64::NAN,
        };
    }
    if x.is_infinite() {
        let m = if x > 0.0 { max_m } else { min_m };
        return Quantized {
            value: m as f64 * step,
            mantissa: m,
            overflowed: true,
            rounding_error: f64::INFINITY,
        };
    }

    // `x · 2^f` and `x / 2^-f` round the same real number, since both
    // powers are exact: the product is the quotient, bit for bit.
    let scaled = x * pow2(dtype.f());
    let rounded = match dtype.rounding() {
        RoundingMode::Round => round_half_up(scaled),
        RoundingMode::Floor => scaled.floor(),
    };
    let rounding_error = rounded * step - x;

    // Mantissa may exceed i64 for extreme inputs; clamp through f64 first.
    let in_range = rounded >= min_m as f64 && rounded <= max_m as f64;
    let mantissa = if in_range {
        rounded as i64
    } else {
        match dtype.overflow() {
            OverflowMode::Saturate | OverflowMode::Error => {
                if rounded > max_m as f64 {
                    max_m
                } else {
                    min_m
                }
            }
            OverflowMode::Wrap => wrap_mantissa(rounded, dtype),
        }
    };

    Quantized {
        value: mantissa as f64 * step,
        mantissa,
        overflowed: !in_range,
        rounding_error,
    }
}

/// `floor(s + 0.5)` taken exactly: ties round up, toward +∞.
///
/// Adding the half in `f64` first rounds the sum: `0.5 - 2^-54` would
/// reach 1, and above 2^52 an odd `s` would tie to its even neighbour.
/// The remainder `s - floor(s)` decides instead. It is exact unless
/// `-0.5 < s < 0`, where it lies above 0.5 and rounds to no less.
#[inline]
fn round_half_up(s: f64) -> f64 {
    let floor = s.floor();
    if s - floor >= 0.5 {
        floor + 1.0
    } else {
        floor
    }
}

/// Two's-complement / unsigned wrap of an out-of-range scaled value into the
/// `n`-bit mantissa range.
fn wrap_mantissa(rounded: f64, dtype: &DType) -> i64 {
    let n = dtype.n();
    let modulus = pow2(n);
    // Euclidean remainder in f64 is exact for |rounded| < 2^52, which covers
    // every mantissa a 63-bit type can produce from finite inputs after
    // scaling; fall back to clamping for pathological magnitudes.
    if rounded.abs() >= pow2(52) {
        return if rounded > 0.0 {
            dtype.max_mantissa()
        } else {
            dtype.min_mantissa()
        };
    }
    let mut r = rounded.rem_euclid(modulus);
    if dtype.signedness() == Signedness::TwosComplement && r >= modulus / 2.0 {
        r -= modulus;
    }
    r as i64
}

/// Computes the MSB position required to hold the range `[min, max]` — the
/// paper's Section 5.1 function `C(min, max)`.
///
/// For two's complement the result is the smallest `m` with
/// `-2^m <= min` and `max < 2^m`; for unsigned it is the smallest `m` with
/// `max < 2^(m+1)` (and `min` must be non-negative to be representable at
/// all — a negative `min` falls back to the two's-complement answer so the
/// caller can detect the signedness mismatch by comparison).
///
/// Returns `None` for an empty or all-zero range (any MSB works) and for
/// non-finite bounds (range explosion; the caller reports it as such).
///
/// # Example
///
/// ```
/// use fixref_fixed::{msb_for_range, Signedness};
///
/// assert_eq!(msb_for_range(-1.5, 1.5, Signedness::TwosComplement), Some(1));
/// assert_eq!(msb_for_range(-2.0, 1.0, Signedness::TwosComplement), Some(1));
/// assert_eq!(msb_for_range(-0.11, 1.2, Signedness::TwosComplement), Some(1));
/// assert_eq!(msb_for_range(0.0, 0.9, Signedness::Unsigned), Some(-1));
/// assert_eq!(msb_for_range(0.0, 0.0, Signedness::TwosComplement), None);
/// ```
pub fn msb_for_range(min: f64, max: f64, signedness: Signedness) -> Option<i32> {
    if !min.is_finite() || !max.is_finite() || min > max {
        return None;
    }
    if min == 0.0 && max == 0.0 {
        return None;
    }
    match signedness {
        Signedness::TwosComplement => {
            // Smallest m with -2^m <= min and max < 2^m. Using strict
            // max < 2^m is the conservative reading of `max <= 2^m - 2^lsb`.
            let mut m = msb_candidate(min.abs().max(max.abs()));
            while !(-((m as f64).exp2()) <= min && max < (m as f64).exp2()) {
                m += 1;
            }
            // Tighten: the candidate may be one too large when min is
            // exactly a negative power of two and dominates.
            while m > i32::MIN + 1
                && -(((m - 1) as f64).exp2()) <= min
                && max < ((m - 1) as f64).exp2()
            {
                m -= 1;
            }
            Some(m)
        }
        Signedness::Unsigned => {
            if min < 0.0 {
                return msb_for_range(min, max, Signedness::TwosComplement);
            }
            let mut m = msb_candidate(max) - 1;
            while max >= ((m + 1) as f64).exp2() {
                m += 1;
            }
            while max < (m as f64).exp2() {
                m -= 1;
            }
            Some(m)
        }
    }
}

/// Initial MSB guess for magnitude `a > 0`: `ceil(log2(a))`.
fn msb_candidate(a: f64) -> i32 {
    debug_assert!(a > 0.0);
    a.log2().ceil() as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::{OverflowMode, RoundingMode, Signedness};

    fn t(n: i32, f: i32, o: OverflowMode, r: RoundingMode) -> DType {
        DType::new("t", n, f, Signedness::TwosComplement, o, r).unwrap()
    }

    #[test]
    fn rounding_round_half_up() {
        let ty = t(8, 3, OverflowMode::Saturate, RoundingMode::Round);
        // step = 0.125; 0.4375 scaled = 3.5 -> rounds to 4 (half up).
        let q = quantize(0.4375, &ty);
        assert_eq!(q.mantissa, 4);
        assert_eq!(q.value, 0.5);
        // -0.4375 scaled = -3.5 -> floor(-3.0) = -3 (half-up toward +inf).
        let q = quantize(-0.4375, &ty);
        assert_eq!(q.mantissa, -3);
    }

    #[test]
    fn rounding_is_exact_where_adding_half_in_f64_would_round() {
        // 0.5 - 2^-54 plus 0.5 rounds to 1.0 in f64; floor(x + 0.5) is 0.
        let ty = t(8, 0, OverflowMode::Saturate, RoundingMode::Round);
        let q = quantize(0.49999999999999994, &ty);
        assert_eq!(q.mantissa, 0);
        assert_eq!(q.rounding_error, -0.49999999999999994);
        // Above 2^52 every f64 is an integer, so an odd one must pass
        // through; adding 0.5 in f64 ties it to the even neighbour.
        let ty = t(63, 0, OverflowMode::Saturate, RoundingMode::Round);
        let q = quantize(4503599627370497.0, &ty);
        assert_eq!(q.mantissa, 4503599627370497);
        assert_eq!(q.rounding_error, 0.0);
    }

    #[test]
    fn rounding_floor_truncates_down() {
        let ty = t(8, 3, OverflowMode::Saturate, RoundingMode::Floor);
        assert_eq!(quantize(0.49, &ty).mantissa, 3); // 3.92 -> 3
        assert_eq!(quantize(-0.49, &ty).mantissa, -4); // -3.92 -> -4
    }

    #[test]
    fn rounding_error_reported() {
        let ty = t(8, 3, OverflowMode::Saturate, RoundingMode::Floor);
        let q = quantize(0.49, &ty);
        assert!((q.rounding_error - (0.375 - 0.49)).abs() < 1e-15);
        assert!(!q.overflowed);
    }

    #[test]
    fn saturation_clamps_and_flags() {
        let ty = t(7, 5, OverflowMode::Saturate, RoundingMode::Round);
        let q = quantize(10.0, &ty);
        assert!(q.overflowed);
        assert_eq!(q.mantissa, 63);
        let q = quantize(-10.0, &ty);
        assert!(q.overflowed);
        assert_eq!(q.mantissa, -64);
    }

    #[test]
    fn error_mode_flags_and_saturates() {
        let ty = t(7, 5, OverflowMode::Error, RoundingMode::Round);
        let q = quantize(3.0, &ty);
        assert!(q.overflowed);
        assert_eq!(q.mantissa, 63);
        assert!(q.into_checked(&ty).is_err());
        let q = quantize(0.5, &ty);
        assert_eq!(q.into_checked(&ty).unwrap(), 0.5);
    }

    #[test]
    fn wrap_mode_two_complement() {
        // n=4, f=0: range [-8, 7], modulus 16.
        let ty = t(4, 0, OverflowMode::Wrap, RoundingMode::Round);
        assert_eq!(quantize(8.0, &ty).mantissa, -8);
        assert_eq!(quantize(9.0, &ty).mantissa, -7);
        assert_eq!(quantize(-9.0, &ty).mantissa, 7);
        assert_eq!(quantize(16.0, &ty).mantissa, 0);
        assert_eq!(quantize(23.0, &ty).mantissa, 7);
        assert!(quantize(8.0, &ty).overflowed);
        assert!(!quantize(7.0, &ty).overflowed);
    }

    #[test]
    fn wrap_mode_unsigned() {
        let ty = DType::new(
            "u",
            4,
            0,
            Signedness::Unsigned,
            OverflowMode::Wrap,
            RoundingMode::Floor,
        )
        .unwrap();
        assert_eq!(quantize(16.0, &ty).mantissa, 0);
        assert_eq!(quantize(17.0, &ty).mantissa, 1);
        assert_eq!(quantize(-1.0, &ty).mantissa, 15);
    }

    #[test]
    fn exact_values_pass_through() {
        let ty = t(7, 5, OverflowMode::Error, RoundingMode::Round);
        for m in -64..=63i64 {
            let x = m as f64 / 32.0;
            let q = quantize(x, &ty);
            assert_eq!(q.mantissa, m);
            assert_eq!(q.value, x);
            assert!(!q.overflowed);
            assert_eq!(q.rounding_error, 0.0);
        }
    }

    #[test]
    fn non_finite_inputs() {
        let ty = t(7, 5, OverflowMode::Saturate, RoundingMode::Round);
        let q = quantize(f64::NAN, &ty);
        assert!(q.overflowed);
        assert_eq!(q.mantissa, 0);
        let q = quantize(f64::INFINITY, &ty);
        assert_eq!(q.mantissa, 63);
        let q = quantize(f64::NEG_INFINITY, &ty);
        assert_eq!(q.mantissa, -64);
    }

    #[test]
    fn huge_magnitude_wrap_falls_back_to_clamp() {
        let ty = t(8, -200, OverflowMode::Wrap, RoundingMode::Round);
        let q = quantize(f64::MAX, &ty);
        assert!(q.overflowed);
        assert!(q.mantissa == ty.max_mantissa() || q.mantissa == ty.min_mantissa());
    }

    #[test]
    fn msb_for_range_tc_cases() {
        use Signedness::TwosComplement as Tc;
        assert_eq!(msb_for_range(-1.0, 0.999, Tc), Some(0));
        assert_eq!(msb_for_range(-1.0, 1.0, Tc), Some(1)); // max == 2^0 not allowed
        assert_eq!(msb_for_range(-2.0, 0.0, Tc), Some(1));
        assert_eq!(msb_for_range(-0.2, 0.2, Tc), Some(-2));
        assert_eq!(msb_for_range(-0.11, 0.11, Tc), Some(-3));
        assert_eq!(msb_for_range(0.0, 3.3, Tc), Some(2));
        assert_eq!(msb_for_range(-100.0, 7.0, Tc), Some(7));
    }

    #[test]
    fn msb_for_range_unsigned_cases() {
        use Signedness::Unsigned as Ns;
        assert_eq!(msb_for_range(0.0, 0.5, Ns), Some(-1)); // 0.5 < 2^0
        assert_eq!(msb_for_range(0.0, 1.0, Ns), Some(0));
        assert_eq!(msb_for_range(0.0, 3.9, Ns), Some(1));
        assert_eq!(msb_for_range(0.0, 4.0, Ns), Some(2));
        // negative min falls back to tc answer
        assert_eq!(
            msb_for_range(-1.0, 4.0, Ns),
            msb_for_range(-1.0, 4.0, Signedness::TwosComplement)
        );
    }

    #[test]
    fn msb_for_range_degenerate() {
        use Signedness::TwosComplement as Tc;
        assert_eq!(msb_for_range(0.0, 0.0, Tc), None);
        assert_eq!(msb_for_range(1.0, 0.0, Tc), None);
        assert_eq!(msb_for_range(f64::NEG_INFINITY, 1.0, Tc), None);
        assert_eq!(msb_for_range(0.0, f64::NAN, Tc), None);
    }

    #[test]
    fn msb_covers_range_invariant() {
        // The decided MSB must produce a dtype whose range covers [min,max].
        let cases = [
            (-1.5, 1.5),
            (-0.001, 0.002),
            (-1024.0, 3.0),
            (0.25, 0.26),
            (-0.5, 0.0),
        ];
        for (lo, hi) in cases {
            let m = msb_for_range(lo, hi, Signedness::TwosComplement).unwrap();
            let pow = (m as f64).exp2();
            assert!(-pow <= lo && hi < pow, "msb {m} fails for [{lo},{hi}]");
            // And m-1 must NOT cover (minimality).
            let pow1 = ((m - 1) as f64).exp2();
            assert!(
                !(-pow1 <= lo && hi < pow1),
                "msb {m} not minimal for [{lo},{hi}]"
            );
        }
    }
}
