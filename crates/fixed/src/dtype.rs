//! Fixed-point type descriptors.
//!
//! [`DType`] mirrors the paper's `dtype(name, n, f, vtype, msbspec,
//! lsbspec)` constructor: a name, total wordlength `n`, fractional bit count
//! `f`, signedness, overflow behaviour and rounding behaviour.

use std::fmt;
use std::str::FromStr;

use crate::error::{DTypeError, ParseDTypeError};
use crate::quantize::{quantize, Quantized};

/// Signal representation: two's complement or unsigned
/// (the paper's `vtype`, tokens `tc` / `ns`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Signedness {
    /// Two's complement (`tc`).
    #[default]
    TwosComplement,
    /// Unsigned ("not signed", `ns`).
    Unsigned,
}

impl Signedness {
    /// Canonical two-letter token used in the textual dtype form.
    pub fn token(self) -> &'static str {
        match self {
            Signedness::TwosComplement => "tc",
            Signedness::Unsigned => "ns",
        }
    }

    /// The value whose [`Signedness::token`] is `token`.
    pub fn from_token(token: &str) -> Option<Self> {
        [Signedness::TwosComplement, Signedness::Unsigned]
            .into_iter()
            .find(|v| v.token() == token)
    }
}

impl fmt::Display for Signedness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// MSB-side overflow behaviour (the paper's `msbspec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverflowMode {
    /// Wrap-around (`wp`): keep the low-order bits, two's-complement style.
    Wrap,
    /// Saturation (`st`): clamp to the representable extremes.
    Saturate,
    /// Error (`er`): flag an overflow during simulation — "an indication for
    /// the designer to increase the wordlength or to select another MSB
    /// mode" (paper, Section 2.1). The quantized value itself saturates so
    /// the simulation can proceed after recording the event.
    #[default]
    Error,
}

impl OverflowMode {
    /// Canonical two-letter token used in the textual dtype form.
    pub fn token(self) -> &'static str {
        match self {
            OverflowMode::Wrap => "wp",
            OverflowMode::Saturate => "st",
            OverflowMode::Error => "er",
        }
    }

    /// The value whose [`OverflowMode::token`] is `token`.
    pub fn from_token(token: &str) -> Option<Self> {
        [
            OverflowMode::Wrap,
            OverflowMode::Saturate,
            OverflowMode::Error,
        ]
        .into_iter()
        .find(|v| v.token() == token)
    }
}

impl fmt::Display for OverflowMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// LSB-side rounding behaviour (the paper's `lsbspec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoundingMode {
    /// Round-off (`rd`): round to nearest with ties rounding up, toward
    /// +∞, i.e. `floor(x + 0.5)` on the scaled mantissa, taken exactly —
    /// the classic DSP rounder, which adds half an LSB and truncates.
    #[default]
    Round,
    /// Floor (`fl`): truncate toward negative infinity — cheaper hardware,
    /// but shifts the error mean by half an LSB (paper, Section 5.2).
    Floor,
}

impl RoundingMode {
    /// Canonical two-letter token used in the textual dtype form.
    pub fn token(self) -> &'static str {
        match self {
            RoundingMode::Round => "rd",
            RoundingMode::Floor => "fl",
        }
    }

    /// The value whose [`RoundingMode::token`] is `token`.
    pub fn from_token(token: &str) -> Option<Self> {
        [RoundingMode::Round, RoundingMode::Floor]
            .into_iter()
            .find(|v| v.token() == token)
    }
}

impl fmt::Display for RoundingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// The exact power of two `2^k`, built from its IEEE-754 exponent bits.
///
/// Every exponent a [`DType`] produces is normal: `1 <= n <= 63` and
/// `-256 <= f <= 256` keep `lsb`, `msb` and `msb + 1` within
/// `-256..=319`, far inside `-1022..=1023`. The bits are the same as
/// `(k as f64).exp2()`, without the libm call.
#[inline]
pub(crate) fn pow2(k: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&k), "2^{k} is not a normal f64");
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// A fixed-point type descriptor.
///
/// `n` is the total wordlength (including the sign bit for two's
/// complement), `f` the number of fractional bits. `f` may be negative or
/// exceed `n`, which simply shifts the represented window relative to the
/// binary point.
///
/// # Example
///
/// ```
/// use fixref_fixed::DType;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let t: DType = "<8,5,tc,st,rd>".parse()?;
/// assert_eq!(t.n(), 8);
/// assert_eq!(t.f(), 5);
/// assert_eq!(t.min_value(), -4.0);
/// assert!((t.max_value() - (4.0 - 0.03125)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DType {
    name: String,
    n: i32,
    f: i32,
    signedness: Signedness,
    overflow: OverflowMode,
    rounding: RoundingMode,
}

impl DType {
    /// Creates a new type descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`DTypeError::InvalidWordlength`] unless `1 <= n <= 63`
    /// (the bit-true mantissa must fit an `i64`), and
    /// [`DTypeError::InvalidFraction`] unless `-256 <= f <= 256`.
    pub fn new(
        name: impl Into<String>,
        n: i32,
        f: i32,
        signedness: Signedness,
        overflow: OverflowMode,
        rounding: RoundingMode,
    ) -> Result<Self, DTypeError> {
        if !(1..=63).contains(&n) {
            return Err(DTypeError::InvalidWordlength { n });
        }
        if !(-256..=256).contains(&f) {
            return Err(DTypeError::InvalidFraction { f });
        }
        Ok(DType {
            name: name.into(),
            n,
            f,
            signedness,
            overflow,
            rounding,
        })
    }

    /// Creates a two's-complement, saturating, rounding type — the most
    /// common configuration in the paper's examples.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DType::new`].
    pub fn tc(name: impl Into<String>, n: i32, f: i32) -> Result<Self, DTypeError> {
        DType::new(
            name,
            n,
            f,
            Signedness::TwosComplement,
            OverflowMode::Saturate,
            RoundingMode::Round,
        )
    }

    /// Creates a type from absolute MSB/LSB positions instead of `(n, f)`.
    ///
    /// For two's complement the MSB position is the sign-weight position:
    /// `n = msb - lsb + 1`. For unsigned the MSB is the highest magnitude
    /// weight, giving the same wordlength relation.
    ///
    /// # Errors
    ///
    /// Returns an error when the implied `(n, f)` pair is invalid, e.g.
    /// `msb < lsb`.
    pub fn from_positions(
        name: impl Into<String>,
        msb: i32,
        lsb: i32,
        signedness: Signedness,
        overflow: OverflowMode,
        rounding: RoundingMode,
    ) -> Result<Self, DTypeError> {
        let n = msb - lsb + 1;
        let f = -lsb;
        DType::new(name, n, f, signedness, overflow, rounding)
    }

    /// Starts a builder pre-populated with two's complement / saturate /
    /// round defaults.
    pub fn builder(name: impl Into<String>) -> DTypeBuilder {
        DTypeBuilder::new(name)
    }

    /// The type's name (used in reports and generated VHDL).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total wordlength in bits, including the sign bit for two's complement.
    #[inline]
    pub fn n(&self) -> i32 {
        self.n
    }

    /// Number of fractional bits.
    #[inline]
    pub fn f(&self) -> i32 {
        self.f
    }

    /// Signal representation.
    #[inline]
    pub fn signedness(&self) -> Signedness {
        self.signedness
    }

    /// Overflow behaviour on the MSB side.
    #[inline]
    pub fn overflow(&self) -> OverflowMode {
        self.overflow
    }

    /// Rounding behaviour on the LSB side.
    #[inline]
    pub fn rounding(&self) -> RoundingMode {
        self.rounding
    }

    /// Returns a copy with a different overflow mode.
    pub fn with_overflow(&self, overflow: OverflowMode) -> Self {
        DType {
            overflow,
            ..self.clone()
        }
    }

    /// Returns a copy with a different rounding mode.
    pub fn with_rounding(&self, rounding: RoundingMode) -> Self {
        DType {
            rounding,
            ..self.clone()
        }
    }

    /// Returns a copy with a different name.
    pub fn with_name(&self, name: impl Into<String>) -> Self {
        DType {
            name: name.into(),
            ..self.clone()
        }
    }

    /// Absolute MSB position with respect to the binary point:
    /// `msb = n - f - 1`.
    #[inline]
    pub fn msb(&self) -> i32 {
        self.n - self.f - 1
    }

    /// Absolute LSB position with respect to the binary point: `lsb = -f`.
    #[inline]
    pub fn lsb(&self) -> i32 {
        -self.f
    }

    /// The quantization step `2^lsb = 2^-f`.
    #[inline]
    pub fn resolution(&self) -> f64 {
        pow2(self.lsb())
    }

    /// Smallest representable value:
    /// `-2^msb` for two's complement, `0` for unsigned.
    #[inline]
    pub fn min_value(&self) -> f64 {
        match self.signedness {
            Signedness::TwosComplement => -pow2(self.msb()),
            Signedness::Unsigned => 0.0,
        }
    }

    /// Largest representable value:
    /// `2^msb - 2^lsb` (tc) or `2^(msb+1) - 2^lsb` (unsigned).
    #[inline]
    pub fn max_value(&self) -> f64 {
        let lsb = self.resolution();
        match self.signedness {
            Signedness::TwosComplement => pow2(self.msb()) - lsb,
            Signedness::Unsigned => pow2(self.msb() + 1) - lsb,
        }
    }

    /// Smallest mantissa (scaled integer) value.
    #[inline]
    pub fn min_mantissa(&self) -> i64 {
        match self.signedness {
            Signedness::TwosComplement => -(1i64 << (self.n - 1)),
            Signedness::Unsigned => 0,
        }
    }

    /// Largest mantissa (scaled integer) value.
    #[inline]
    pub fn max_mantissa(&self) -> i64 {
        match self.signedness {
            Signedness::TwosComplement => (1i64 << (self.n - 1)) - 1,
            Signedness::Unsigned => {
                if self.n == 63 {
                    i64::MAX
                } else {
                    (1i64 << self.n) - 1
                }
            }
        }
    }

    /// Quantizes a value through this type
    /// (convenience for [`quantize`]).
    pub fn quantize(&self, x: f64) -> Quantized {
        quantize(x, self)
    }

    /// Whether `x` is exactly representable in this type.
    pub fn is_representable(&self, x: f64) -> bool {
        if !(self.min_value()..=self.max_value()).contains(&x) {
            return false;
        }
        let scaled = x / self.resolution();
        scaled == scaled.round()
    }

    /// The number of values representable by this type (`2^n`).
    pub fn cardinality(&self) -> u64 {
        1u64 << self.n
    }
}

impl fmt::Display for DType {
    /// Formats as the paper's constructor notation, e.g. `<7,5,tc,st,rd>`.
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            fm,
            "<{},{},{},{},{}>",
            self.n, self.f, self.signedness, self.overflow, self.rounding
        )
    }
}

impl FromStr for DType {
    type Err = ParseDTypeError;

    /// Parses the paper's notation `<n,f,vtype[,msbspec[,lsbspec]]>`.
    ///
    /// Omitted `msbspec` defaults to error mode, omitted `lsbspec` to
    /// round-off, matching the environment's conservative defaults.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let body = s
            .trim()
            .strip_prefix('<')
            .and_then(|t| t.strip_suffix('>'))
            .ok_or_else(|| ParseDTypeError::Malformed(s.to_string()))?;
        let fields: Vec<&str> = body.split(',').map(str::trim).collect();
        if !(3..=5).contains(&fields.len()) {
            return Err(ParseDTypeError::Malformed(s.to_string()));
        }
        let n: i32 = fields[0]
            .parse()
            .map_err(|_| ParseDTypeError::BadNumber(fields[0].to_string()))?;
        let f: i32 = fields[1]
            .parse()
            .map_err(|_| ParseDTypeError::BadNumber(fields[1].to_string()))?;
        let signedness = Signedness::from_token(fields[2])
            .ok_or_else(|| ParseDTypeError::BadSignedness(fields[2].to_string()))?;
        let overflow = match fields.get(3) {
            None => OverflowMode::Error,
            Some(t) => OverflowMode::from_token(t)
                .ok_or_else(|| ParseDTypeError::BadOverflow(t.to_string()))?,
        };
        let rounding = match fields.get(4) {
            None => RoundingMode::Round,
            Some(t) => RoundingMode::from_token(t)
                .ok_or_else(|| ParseDTypeError::BadRounding(t.to_string()))?,
        };
        Ok(DType::new(
            s.to_string(),
            n,
            f,
            signedness,
            overflow,
            rounding,
        )?)
    }
}

/// Builder for [`DType`] (C-BUILDER): starts from two's complement,
/// saturating, rounding defaults.
///
/// # Example
///
/// ```
/// use fixref_fixed::{DType, OverflowMode};
///
/// # fn main() -> Result<(), fixref_fixed::DTypeError> {
/// let t = DType::builder("acc")
///     .wordlength(16)
///     .fractional(12)
///     .overflow(OverflowMode::Wrap)
///     .build()?;
/// assert_eq!(t.msb(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DTypeBuilder {
    name: String,
    n: i32,
    f: i32,
    signedness: Signedness,
    overflow: OverflowMode,
    rounding: RoundingMode,
}

impl DTypeBuilder {
    /// Starts a builder with 16 total bits, 8 fractional, two's complement,
    /// saturation and round-off.
    pub fn new(name: impl Into<String>) -> Self {
        DTypeBuilder {
            name: name.into(),
            n: 16,
            f: 8,
            signedness: Signedness::TwosComplement,
            overflow: OverflowMode::Saturate,
            rounding: RoundingMode::Round,
        }
    }

    /// Sets the total wordlength.
    pub fn wordlength(mut self, n: i32) -> Self {
        self.n = n;
        self
    }

    /// Sets the fractional bit count.
    pub fn fractional(mut self, f: i32) -> Self {
        self.f = f;
        self
    }

    /// Sets the signedness.
    pub fn signedness(mut self, s: Signedness) -> Self {
        self.signedness = s;
        self
    }

    /// Sets the overflow mode.
    pub fn overflow(mut self, o: OverflowMode) -> Self {
        self.overflow = o;
        self
    }

    /// Sets the rounding mode.
    pub fn rounding(mut self, r: RoundingMode) -> Self {
        self.rounding = r;
        self
    }

    /// Builds the descriptor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DType::new`].
    pub fn build(self) -> Result<DType, DTypeError> {
        DType::new(
            self.name,
            self.n,
            self.f,
            self.signedness,
            self.overflow,
            self.rounding,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_and_ranges_tc() {
        let t = DType::tc("t", 7, 5).unwrap();
        assert_eq!(t.msb(), 1);
        assert_eq!(t.lsb(), -5);
        assert_eq!(t.min_value(), -2.0);
        assert!((t.max_value() - (2.0 - 0.03125)).abs() < 1e-15);
        assert_eq!(t.min_mantissa(), -64);
        assert_eq!(t.max_mantissa(), 63);
        assert_eq!(t.cardinality(), 128);
    }

    #[test]
    fn positions_and_ranges_unsigned() {
        let t = DType::new(
            "u",
            4,
            2,
            Signedness::Unsigned,
            OverflowMode::Wrap,
            RoundingMode::Floor,
        )
        .unwrap();
        assert_eq!(t.msb(), 1);
        assert_eq!(t.lsb(), -2);
        assert_eq!(t.min_value(), 0.0);
        assert!((t.max_value() - 3.75).abs() < 1e-15);
        assert_eq!(t.min_mantissa(), 0);
        assert_eq!(t.max_mantissa(), 15);
    }

    #[test]
    fn negative_fractional_bits_shift_window() {
        // n=4, f=-2: values are multiples of 4 in [-32, 28].
        let t = DType::tc("t", 4, -2).unwrap();
        assert_eq!(t.resolution(), 4.0);
        assert_eq!(t.min_value(), -32.0);
        assert_eq!(t.max_value(), 28.0);
    }

    #[test]
    fn fraction_larger_than_wordlength() {
        // n=4, f=6: pure sub-LSB window around zero.
        let t = DType::tc("t", 4, 6).unwrap();
        assert_eq!(t.msb(), -3);
        assert_eq!(t.min_value(), -0.125);
        assert!(t.max_value() < 0.125);
    }

    #[test]
    fn from_positions_roundtrip() {
        let t = DType::from_positions(
            "p",
            3,
            -8,
            Signedness::TwosComplement,
            OverflowMode::Saturate,
            RoundingMode::Round,
        )
        .unwrap();
        assert_eq!(t.n(), 12);
        assert_eq!(t.f(), 8);
        assert_eq!(t.msb(), 3);
        assert_eq!(t.lsb(), -8);
    }

    #[test]
    fn invalid_construction_rejected() {
        assert_eq!(
            DType::tc("t", 0, 0).unwrap_err(),
            DTypeError::InvalidWordlength { n: 0 }
        );
        assert_eq!(
            DType::tc("t", 64, 0).unwrap_err(),
            DTypeError::InvalidWordlength { n: 64 }
        );
        assert_eq!(
            DType::tc("t", 8, 300).unwrap_err(),
            DTypeError::InvalidFraction { f: 300 }
        );
        // msb < lsb gives non-positive wordlength.
        assert!(DType::from_positions(
            "t",
            -3,
            0,
            Signedness::TwosComplement,
            OverflowMode::Wrap,
            RoundingMode::Floor
        )
        .is_err());
    }

    #[test]
    fn display_matches_paper_notation() {
        let t = DType::new(
            "T1",
            8,
            5,
            Signedness::Unsigned,
            OverflowMode::Saturate,
            RoundingMode::Round,
        )
        .unwrap();
        assert_eq!(t.to_string(), "<8,5,ns,st,rd>");
    }

    #[test]
    fn parse_full_and_defaults() {
        let t: DType = "<7,5,tc,st,rd>".parse().unwrap();
        assert_eq!(t.n(), 7);
        assert_eq!(t.overflow(), OverflowMode::Saturate);

        let t: DType = "<7,5,tc>".parse().unwrap();
        assert_eq!(t.overflow(), OverflowMode::Error);
        assert_eq!(t.rounding(), RoundingMode::Round);

        let t: DType = " <16, 8, ns, wp> ".parse().unwrap();
        assert_eq!(t.signedness(), Signedness::Unsigned);
        assert_eq!(t.overflow(), OverflowMode::Wrap);
        assert_eq!(t.rounding(), RoundingMode::Round);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            "7,5,tc".parse::<DType>(),
            Err(ParseDTypeError::Malformed(_))
        ));
        assert!(matches!(
            "<7,5>".parse::<DType>(),
            Err(ParseDTypeError::Malformed(_))
        ));
        assert!(matches!(
            "<x,5,tc>".parse::<DType>(),
            Err(ParseDTypeError::BadNumber(_))
        ));
        assert!(matches!(
            "<7,5,zz>".parse::<DType>(),
            Err(ParseDTypeError::BadSignedness(_))
        ));
        assert!(matches!(
            "<7,5,tc,xx>".parse::<DType>(),
            Err(ParseDTypeError::BadOverflow(_))
        ));
        assert!(matches!(
            "<7,5,tc,st,xx>".parse::<DType>(),
            Err(ParseDTypeError::BadRounding(_))
        ));
        assert!(matches!(
            "<64,5,tc>".parse::<DType>(),
            Err(ParseDTypeError::Invalid(_))
        ));
    }

    #[test]
    fn display_parse_roundtrip() {
        for s in ["<7,5,tc,st,rd>", "<16,0,ns,wp,fl>", "<12,-3,tc,er,rd>"] {
            let t: DType = s.parse().unwrap();
            assert_eq!(t.to_string(), s);
        }
    }

    #[test]
    fn is_representable() {
        let t = DType::tc("t", 7, 5).unwrap();
        assert!(t.is_representable(0.71875));
        assert!(t.is_representable(-2.0));
        assert!(!t.is_representable(2.0)); // max is 2 - 2^-5
        assert!(!t.is_representable(0.7));
        assert!(!t.is_representable(0.015)); // not a multiple of 2^-5
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let t = DType::builder("b").build().unwrap();
        assert_eq!(t.n(), 16);
        assert_eq!(t.f(), 8);
        assert_eq!(t.signedness(), Signedness::TwosComplement);

        let t = DType::builder("b")
            .wordlength(10)
            .fractional(-1)
            .signedness(Signedness::Unsigned)
            .overflow(OverflowMode::Error)
            .rounding(RoundingMode::Floor)
            .build()
            .unwrap();
        assert_eq!((t.n(), t.f()), (10, -1));
        assert_eq!(t.overflow(), OverflowMode::Error);
        assert_eq!(t.rounding(), RoundingMode::Floor);
    }

    #[test]
    fn with_modifiers_preserve_rest() {
        let t = DType::tc("t", 8, 4).unwrap();
        let w = t.with_overflow(OverflowMode::Wrap);
        assert_eq!(w.overflow(), OverflowMode::Wrap);
        assert_eq!(w.n(), 8);
        let r = t.with_rounding(RoundingMode::Floor);
        assert_eq!(r.rounding(), RoundingMode::Floor);
        let n = t.with_name("other");
        assert_eq!(n.name(), "other");
        assert_eq!(n.f(), 4);
    }

    #[test]
    fn max_mantissa_unsigned_63_bits() {
        let t = DType::new(
            "big",
            63,
            0,
            Signedness::Unsigned,
            OverflowMode::Saturate,
            RoundingMode::Floor,
        )
        .unwrap();
        assert_eq!(t.max_mantissa(), i64::MAX);
    }
}
