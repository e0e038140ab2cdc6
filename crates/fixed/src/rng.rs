//! A small, deterministic PRNG for reproducible stimuli and error
//! injection.
//!
//! The design environment needs randomness in exactly three places: the
//! `error()` injection of `fixref_sim`'s dual simulation (paper §4.2),
//! the AWGN channel models of the evaluation workloads, and randomized
//! tests. All of them require *reproducibility per seed* — the refinement
//! flow re-runs the same stimulus across iterations and must see the same
//! noise — and none requires cryptographic quality. This module provides a
//! dependency-free xoshiro256++ generator (Blackman & Vigna) seeded
//! through SplitMix64, the conventional pairing.
//!
//! # Example
//!
//! ```
//! use fixref_fixed::Rng64;
//!
//! let mut a = Rng64::seed_from_u64(42);
//! let mut b = Rng64::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let u = a.next_f64();
//! assert!((0.0..1.0).contains(&u));
//! ```

/// A deterministic xoshiro256++ pseudo-random generator.
///
/// Not cryptographically secure; intended for simulation noise and
/// randomized tests. Identical seeds produce identical streams on every
/// platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed, expanding it through
    /// SplitMix64 so that similar seeds yield uncorrelated states.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // SplitMix64 never emits four zeros in a row, so the state is
        // always valid for xoshiro.
        Rng64 {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "invalid uniform range [{lo}, {hi})"
        );
        lo + self.next_f64() * (hi - lo)
    }

    /// A uniform `f64` in the closed interval `[-half, half]` — the shape
    /// the `error()` injection draws from (`U(-σ√3, σ√3)`).
    ///
    /// # Panics
    ///
    /// Panics if `half` is negative or non-finite.
    pub fn symmetric(&mut self, half: f64) -> f64 {
        assert!(
            half >= 0.0 && half.is_finite(),
            "invalid symmetric half-width {half}"
        );
        if half == 0.0 {
            return 0.0;
        }
        // next_f64 is half-open; mapping [0,1) onto [-half, half) loses
        // only the single endpoint, irrelevant for a continuous draw.
        -half + self.next_f64() * 2.0 * half
    }

    /// A uniform integer in `[0, bound)` by rejection-free multiply-shift.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift; the tiny modulo bias is irrelevant for
        // simulation workloads.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng64::seed_from_u64(7);
        let mut b = Rng64::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng64::seed_from_u64(0);
        assert_ne!(r.next_u64(), 0u64.wrapping_add(r.next_u64()));
    }

    #[test]
    fn f64_in_unit_interval_with_reasonable_moments() {
        let mut r = Rng64::seed_from_u64(0xDEAD);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
            sumsq += u * u;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.01, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = Rng64::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = r.uniform(-2.5, 0.75);
            assert!((-2.5..0.75).contains(&v));
        }
    }

    #[test]
    fn symmetric_respects_half_width() {
        let mut r = Rng64::seed_from_u64(4);
        for _ in 0..10_000 {
            let v = r.symmetric(0.125);
            assert!(v.abs() <= 0.125);
        }
        assert_eq!(r.symmetric(0.0), 0.0);
    }

    #[test]
    fn below_covers_small_ranges() {
        let mut r = Rng64::seed_from_u64(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "invalid uniform range")]
    fn uniform_rejects_inverted_bounds() {
        let mut r = Rng64::seed_from_u64(6);
        let _ = r.uniform(1.0, -1.0);
    }
}
