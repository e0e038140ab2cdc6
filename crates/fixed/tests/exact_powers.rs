//! The quantizer builds its powers of two from exponent bits and scales by
//! multiplying with `2^f`. These tests pin that both are bit-identical to
//! the libm formulas and the division they replace, over every valid type
//! and a seeded spread of inputs that reaches subnormal results, overflow
//! to infinity, signed zeros and exact ties.

use fixref_fixed::{quantize, DType, OverflowMode, Quantized, Rng64, RoundingMode, Signedness};

const SIGNEDNESS: [Signedness; 2] = [Signedness::TwosComplement, Signedness::Unsigned];
const OVERFLOW: [OverflowMode; 3] = [
    OverflowMode::Wrap,
    OverflowMode::Saturate,
    OverflowMode::Error,
];
const ROUNDING: [RoundingMode; 2] = [RoundingMode::Round, RoundingMode::Floor];

fn exp2(k: i32) -> f64 {
    (k as f64).exp2()
}

/// `DType::resolution`, `min_value` and `max_value` as libm formulas.
fn reference_constants(dt: &DType) -> [f64; 3] {
    let (msb, lsb) = (dt.msb(), dt.lsb());
    let step = exp2(lsb);
    match dt.signedness() {
        Signedness::TwosComplement => [step, -exp2(msb), exp2(msb) - step],
        Signedness::Unsigned => [step, 0.0, exp2(msb + 1) - step],
    }
}

#[test]
fn dtype_constants_equal_the_exp2_formulas_bitwise() {
    let mut checked = 0;
    for n in 1..=63 {
        for f in -256..=256 {
            for signedness in SIGNEDNESS {
                let dt = DType::new(
                    "t",
                    n,
                    f,
                    signedness,
                    OverflowMode::Saturate,
                    RoundingMode::Round,
                )
                .expect("valid dtype");
                let got = [dt.resolution(), dt.min_value(), dt.max_value()];
                let want = reference_constants(&dt);
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{dt}: {got:?} != {want:?}"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 63 * 513 * 2);
}

/// `floor(s + 0.5)` in exact arithmetic, by a different route than the
/// quantizer's: `f64::round` is exact but takes ties away from zero, so
/// an exact tie goes to `ceil` instead.
fn reference_round(s: f64) -> f64 {
    if s - s.floor() == 0.5 {
        s.ceil()
    } else {
        s.round()
    }
}

/// A reference quantizer that scales by dividing through `exp2(-f)`,
/// wraps with an `exp2` modulus and rounds by [`reference_round`].
fn reference_quantize(x: f64, dt: &DType) -> Quantized {
    let step = exp2(-dt.f());
    let (min_m, max_m) = (dt.min_mantissa(), dt.max_mantissa());
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
    let scaled = x / step;
    let rounded = match dt.rounding() {
        RoundingMode::Round => reference_round(scaled),
        RoundingMode::Floor => scaled.floor(),
    };
    let rounding_error = rounded * step - x;
    let in_range = rounded >= min_m as f64 && rounded <= max_m as f64;
    let mantissa = if in_range {
        rounded as i64
    } else {
        match dt.overflow() {
            OverflowMode::Saturate | OverflowMode::Error => {
                if rounded > max_m as f64 {
                    max_m
                } else {
                    min_m
                }
            }
            OverflowMode::Wrap => {
                let modulus = exp2(dt.n());
                if rounded.abs() >= 2f64.powi(52) {
                    if rounded > 0.0 {
                        max_m
                    } else {
                        min_m
                    }
                } else {
                    let mut r = rounded.rem_euclid(modulus);
                    if dt.signedness() == Signedness::TwosComplement && r >= modulus / 2.0 {
                        r -= modulus;
                    }
                    r as i64
                }
            }
        }
    };
    Quantized {
        value: mantissa as f64 * step,
        mantissa,
        overflowed: !in_range,
        rounding_error,
    }
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// A random finite input for type `<n, f>`, drawn from one of several
/// shapes so the rare corners get visited as often as the common ones.
fn pick_input(rng: &mut Rng64, n: i32, f: i32) -> f64 {
    let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
    let x = match rng.below(8) {
        // Any finite bit pattern: every exponent, subnormals included.
        0 => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
        // Inside or just around the type's range.
        1 => rng.uniform(-2.0, 2.0) * exp2(n - f),
        // Near f64::MAX, where `x · 2^f` overflows for f > 0.
        2 => f64::MAX * rng.uniform(0.5, 1.0),
        // Signed zero.
        3 => 0.0,
        // An exact tie `(m + 1/2) · 2^-f`.
        4 => ((rng.below(1 << 20) as f64) + 0.5) * exp2(-f),
        // Just below a tie, where adding 0.5 in f64 would round up.
        5 => {
            let below_half = f64::from_bits(0.5f64.to_bits() - 1 - rng.below(4));
            (rng.below(1 << 20) as f64 + below_half) * exp2(-f)
        }
        // Odd integers past 2^52, where `s + 0.5` ties to even.
        6 => ((1u64 << 52) + 2 * rng.below(1 << 40) + 1) as f64 * exp2(-f),
        // A scaled value in the subnormal range, `s = u · 2^e`, e < -1022.
        _ => {
            let e = -1074 + rng.below(53) as i32;
            let u = rng.uniform(1.0, 2.0);
            let k = e - f;
            if k < -1022 {
                u * exp2(-1022) * exp2(k + 1022)
            } else {
                u * exp2(k)
            }
        }
    };
    sign * x
}

#[test]
fn quantize_matches_a_dividing_reference_bitwise() {
    let mut rng = Rng64::seed_from_u64(0xE4AC_7002);
    for case in 0..40_000 {
        let n = 1 + rng.below(63) as i32;
        let f = -256 + rng.below(513) as i32;
        let signedness = SIGNEDNESS[rng.below(2) as usize];
        let x = pick_input(&mut rng, n, f);
        for overflow in OVERFLOW {
            for rounding in ROUNDING {
                let dt =
                    DType::new("t", n, f, signedness, overflow, rounding).expect("valid dtype");
                let got = quantize(x, &dt);
                let want = reference_quantize(x, &dt);
                assert!(
                    same_bits(got.value, want.value)
                        && got.mantissa == want.mantissa
                        && got.overflowed == want.overflowed
                        && same_bits(got.rounding_error, want.rounding_error),
                    "case {case}: quantize({x:e}, {dt}) = {got:?}, reference {want:?}"
                );
            }
        }
    }
}
