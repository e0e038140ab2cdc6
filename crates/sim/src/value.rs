//! The dual-path expression value.
//!
//! [`Value`] is what [`Sig::get`](crate::Sig::get) returns and what the
//! overloaded operators combine. It carries, side by side (paper Fig. 2/3):
//!
//! * `flt` — the floating-point reference value;
//! * `fix` — the fixed-point path value (still an `f64`: per the paper
//!   "all operations are performed with floating point arithmetic. Only
//!   when assigning a signal, the quantization is performed");
//! * `itv` — the propagated worst-case range (quasi-analytical method);
//! * `trace` — while the design records its signal-flow graph, the value's
//!   node in the recording (see [`crate::graph`]). An operator on traced
//!   values interns its node there at once, one table probe. Untraced
//!   values (`None`) never touch the recording, so the dual simulation
//!   allocates nothing per operation.
//!
//! Relational decisions are evaluated **uniformly on the fixed-point
//! path** ([`Value::is_positive`], [`Value::gt`] …) so that the float
//! reference takes the same control decisions — the paper's key trick to
//! keep error statistics meaningful through data-dependent control.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

use fixref_fixed::{quantize, DType, FixError, Interval, OverflowError, OverflowMode};

use crate::graph::{self, Op, OpRef, TracedNode};

/// The trace of `op` applied to `operands`, each a `(trace, fixed value)`
/// pair. The node is recorded as long as *any* operand is traced; a value
/// built purely from literals stays untraced, and then no recording is
/// looked up and no operator (`op`) is built. An untraced operand enters a
/// traced node as a constant of its fixed value, so literals mixed into
/// recorded expressions (`x * 0.5`) appear as `Const` leaves.
#[inline]
fn trace<'a, const N: usize>(
    op: impl FnOnce() -> OpRef<'a>,
    operands: [(Option<TracedNode>, f64); N],
) -> Option<TracedNode> {
    if operands.iter().all(|(t, _)| t.is_none()) {
        return None;
    }
    graph::trace_op(op(), operands)
}

/// A dual-path (float + fixed + range) expression value.
///
/// Produced by [`Sig::get`](crate::Sig::get) and literals
/// (`Value::from(1.5)`), combined by the arithmetic operators, consumed by
/// [`Sig::set`](crate::Sig::set).
///
/// # Example
///
/// ```
/// use fixref_sim::Value;
///
/// let a = Value::from(0.5);
/// let b = Value::from(-2.0);
/// let c = a * b + Value::from(1.0);
/// assert_eq!(c.flt(), 0.0);
/// assert_eq!(c.fix(), 0.0);
/// assert!(!c.is_positive());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Value {
    flt: f64,
    fix: f64,
    itv: Interval,
    trace: Option<TracedNode>,
}

impl Value {
    /// Builds a value with explicit float and fixed components (used by the
    /// design when reading signals; mostly useful in tests).
    #[inline]
    pub fn with_paths(flt: f64, fix: f64, itv: Interval) -> Self {
        Value {
            flt,
            fix,
            itv,
            trace: None,
        }
    }

    /// A signal's value as read, traced while its design records.
    pub(crate) fn from_signal(
        flt: f64,
        fix: f64,
        itv: Interval,
        trace: Option<TracedNode>,
    ) -> Self {
        Value {
            flt,
            fix,
            itv,
            trace,
        }
    }

    pub(crate) fn trace(&self) -> Option<TracedNode> {
        self.trace
    }

    /// The floating-point reference value.
    #[inline]
    pub fn flt(&self) -> f64 {
        self.flt
    }

    /// The fixed-point path value.
    #[inline]
    pub fn fix(&self) -> f64 {
        self.fix
    }

    /// The propagated worst-case range.
    #[inline]
    pub fn interval(&self) -> Interval {
        self.itv
    }

    /// The current float-vs-fixed difference carried by this value.
    pub fn error(&self) -> f64 {
        self.flt - self.fix
    }

    /// Intermediate quantization — the paper's explicit `cast` operator for
    /// results that are quantized *before* being assigned (§2.2).
    ///
    /// Only the fixed path is quantized; the float reference flows on
    /// unchanged. A saturating cast also clamps the propagated range.
    pub fn cast(self, dtype: &DType) -> Value {
        let q = quantize(self.fix, dtype);
        let itv = if self.itv.is_empty() {
            self.itv
        } else {
            match dtype.overflow() {
                fixref_fixed::OverflowMode::Saturate => {
                    self.itv.clamp_to(&Interval::from_dtype(dtype))
                }
                _ => self.itv,
            }
        };
        let fix_in = self.fix;
        Value {
            flt: self.flt,
            fix: q.value,
            itv,
            trace: trace(|| OpRef::Cast(dtype), [(self.trace, fix_in)]),
        }
    }

    /// Fallible form of [`Value::cast`] for types in
    /// [`OverflowMode::Error`]: instead of silently clamping and letting
    /// the monitoring layer count the overflow, it returns
    /// [`FixError::Overflow`] so the caller can reject bad user input at
    /// the expression level. Types in wrap or saturate mode never fail.
    pub fn try_cast(self, dtype: &DType) -> Result<Value, FixError> {
        if dtype.overflow() == OverflowMode::Error {
            let q = quantize(self.fix, dtype);
            if q.overflowed {
                return Err(FixError::Overflow(OverflowError {
                    value: self.fix,
                    min: dtype.min_value(),
                    max: dtype.max_value(),
                    dtype: dtype.name().to_string(),
                }));
            }
        }
        Ok(self.cast(dtype))
    }

    /// Absolute value on both paths.
    pub fn abs(self) -> Value {
        Value {
            flt: self.flt.abs(),
            fix: self.fix.abs(),
            itv: self.itv.abs(),
            trace: trace(|| OpRef::Owned(Op::Abs), [(self.trace, self.fix)]),
        }
    }

    /// Elementwise minimum on both paths.
    pub fn min(self, rhs: Value) -> Value {
        Value {
            flt: self.flt.min(rhs.flt),
            fix: self.fix.min(rhs.fix),
            itv: self.itv.min(&rhs.itv),
            trace: trace(
                || OpRef::Owned(Op::Min),
                [(self.trace, self.fix), (rhs.trace, rhs.fix)],
            ),
        }
    }

    /// Elementwise maximum on both paths.
    pub fn max(self, rhs: Value) -> Value {
        Value {
            flt: self.flt.max(rhs.flt),
            fix: self.fix.max(rhs.fix),
            itv: self.itv.max(&rhs.itv),
            trace: trace(
                || OpRef::Owned(Op::Max),
                [(self.trace, self.fix), (rhs.trace, rhs.fix)],
            ),
        }
    }

    /// Fixed-path-steered selection: returns `then_v` when the **fixed**
    /// value of `self` is strictly positive, else `else_v` — on *both*
    /// paths, so the float reference takes the same branch (paper §4.2).
    ///
    /// The propagated range is the union of both branches and the
    /// recorded `Select` node keeps both, so the analytical method covers
    /// whichever branch the stimuli did not trigger.
    #[inline]
    pub fn select_positive(self, then_v: Value, else_v: Value) -> Value {
        let take_then = self.fix > 0.0;
        Value {
            flt: if take_then { then_v.flt } else { else_v.flt },
            fix: if take_then { then_v.fix } else { else_v.fix },
            itv: then_v.itv.union(&else_v.itv),
            trace: trace(
                || OpRef::Owned(Op::Select),
                [
                    (self.trace, self.fix),
                    (then_v.trace, then_v.fix),
                    (else_v.trace, else_v.fix),
                ],
            ),
        }
    }

    /// Whether the fixed-path value is strictly positive — the uniform
    /// relational decision for both simulations.
    pub fn is_positive(&self) -> bool {
        self.fix > 0.0
    }

    /// Whether the fixed-path value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.fix < 0.0
    }

    /// Fixed-path `>` comparison.
    pub fn gt(&self, rhs: &Value) -> bool {
        self.fix > rhs.fix
    }

    /// Fixed-path `>=` comparison.
    pub fn ge(&self, rhs: &Value) -> bool {
        self.fix >= rhs.fix
    }

    /// Fixed-path `<` comparison.
    pub fn lt(&self, rhs: &Value) -> bool {
        self.fix < rhs.fix
    }

    /// Fixed-path `<=` comparison.
    pub fn le(&self, rhs: &Value) -> bool {
        self.fix <= rhs.fix
    }
}

impl From<f64> for Value {
    /// A constant: both paths carry `c`, range is the point `[c, c]`.
    #[inline]
    fn from(c: f64) -> Self {
        Value::with_paths(c, c, Interval::point(c))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flt={} fix={} itv={}", self.flt, self.fix, self.itv)
    }
}

macro_rules! binop {
    ($trait:ident, $method:ident, $op:tt, $exprop:expr, $itv:expr) => {
        impl $trait for Value {
            type Output = Value;
            #[inline]
            fn $method(self, rhs: Value) -> Value {
                let itv: fn(Interval, Interval) -> Interval = $itv;
                Value {
                    flt: self.flt $op rhs.flt,
                    fix: self.fix $op rhs.fix,
                    itv: itv(self.itv, rhs.itv),
                    trace: trace(
                        || OpRef::Owned($exprop),
                        [(self.trace, self.fix), (rhs.trace, rhs.fix)],
                    ),
                }
            }
        }

        impl $trait<f64> for Value {
            type Output = Value;
            #[inline]
            fn $method(self, rhs: f64) -> Value {
                self $op Value::from(rhs)
            }
        }

        impl $trait<Value> for f64 {
            type Output = Value;
            #[inline]
            fn $method(self, rhs: Value) -> Value {
                Value::from(self) $op rhs
            }
        }
    };
}

binop!(Add, add, +, Op::Add, |a, b| a + b);
binop!(Sub, sub, -, Op::Sub, |a, b| a - b);
binop!(Mul, mul, *, Op::Mul, |a, b| a * b);
binop!(Div, div, /, Op::Div, |a, b| a / b);

impl Neg for Value {
    type Output = Value;
    #[inline]
    fn neg(self) -> Value {
        Value {
            flt: -self.flt,
            fix: -self.fix,
            itv: -self.itv,
            trace: trace(|| OpRef::Owned(Op::Neg), [(self.trace, self.fix)]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_fixed::{OverflowMode, RoundingMode, Signedness};

    fn v(flt: f64, fix: f64) -> Value {
        Value::with_paths(flt, fix, Interval::new(flt.min(fix), flt.max(fix)))
    }

    #[test]
    fn constants_have_point_intervals() {
        let c = Value::from(1.5);
        assert_eq!(c.flt(), 1.5);
        assert_eq!(c.fix(), 1.5);
        assert_eq!(c.interval(), Interval::point(1.5));
        assert_eq!(c.error(), 0.0);
    }

    #[test]
    fn arithmetic_tracks_both_paths_independently() {
        let a = v(1.0, 0.9);
        let b = v(2.0, 2.1);
        let s = a.clone() + b.clone();
        assert_eq!(s.flt(), 3.0);
        assert!((s.fix() - 3.0).abs() < 0.2);
        assert_eq!(s.fix(), 0.9 + 2.1);

        let d = a.clone() - b.clone();
        assert_eq!(d.flt(), -1.0);
        assert!((d.fix() - (0.9 - 2.1)).abs() < 1e-15);

        let p = a.clone() * b.clone();
        assert_eq!(p.flt(), 2.0);
        assert!((p.fix() - 0.9 * 2.1).abs() < 1e-15);

        let q = a / b;
        assert_eq!(q.flt(), 0.5);
        assert!((q.fix() - 0.9 / 2.1).abs() < 1e-15);
    }

    #[test]
    fn scalar_mixed_operands() {
        let a = v(1.0, 0.9);
        assert_eq!((a.clone() + 1.0).flt(), 2.0);
        assert_eq!((1.0 + a.clone()).fix(), 1.9);
        assert_eq!((a.clone() * 2.0).flt(), 2.0);
        assert_eq!((2.0 * a.clone()).fix(), 1.8);
        assert_eq!((a.clone() - 0.5).flt(), 0.5);
        assert_eq!((3.0 - a.clone()).fix(), 2.1);
        assert_eq!((a.clone() / 2.0).flt(), 0.5);
        assert_eq!((1.8 / a).fix(), 2.0);
    }

    #[test]
    fn interval_propagates_through_ops() {
        let a = Value::with_paths(0.0, 0.0, Interval::new(-1.0, 2.0));
        let b = Value::with_paths(0.0, 0.0, Interval::new(-3.0, 0.5));
        assert_eq!((a.clone() + b.clone()).interval(), Interval::new(-4.0, 2.5));
        assert_eq!((a.clone() - b.clone()).interval(), Interval::new(-1.5, 5.0));
        assert_eq!((a.clone() * b).interval(), Interval::new(-6.0, 3.0));
        assert_eq!((-a).interval(), Interval::new(-2.0, 1.0));
    }

    #[test]
    fn error_is_float_minus_fixed() {
        let a = v(1.0, 0.9375);
        assert!((a.error() - 0.0625).abs() < 1e-15);
        let s = a + v(0.0, 0.0);
        assert!((s.error() - 0.0625).abs() < 1e-15);
    }

    #[test]
    fn comparisons_use_fixed_path() {
        // flt says positive, fix says negative: fixed path must win.
        let a = v(0.1, -0.1);
        assert!(!a.is_positive());
        assert!(a.is_negative());
        let b = v(-5.0, 0.0);
        assert!(a.lt(&b));
        assert!(b.gt(&a));
        assert!(b.ge(&b));
        assert!(a.le(&a));
    }

    #[test]
    fn select_positive_steers_both_paths_by_fixed() {
        let cond = v(1.0, -1.0); // float positive, fixed negative
        let then_v = v(10.0, 10.0);
        let else_v = v(-10.0, -10.0);
        let out = cond.select_positive(then_v, else_v);
        // Fixed path is negative, so BOTH paths take the else branch.
        assert_eq!(out.flt(), -10.0);
        assert_eq!(out.fix(), -10.0);
        // Range covers both branches regardless.
        assert!(out.interval().contains(10.0));
        assert!(out.interval().contains(-10.0));
    }

    #[test]
    fn abs_min_max() {
        let a = v(-2.0, -2.5);
        assert_eq!(a.clone().abs().flt(), 2.0);
        assert_eq!(a.clone().abs().fix(), 2.5);
        let b = v(1.0, 1.0);
        assert_eq!(a.clone().min(b.clone()).flt(), -2.0);
        assert_eq!(a.clone().max(b.clone()).fix(), 1.0);
    }

    #[test]
    fn cast_quantizes_only_fixed_path() {
        let t = DType::tc("t", 7, 5).unwrap();
        let a = v(0.7, 0.7);
        let c = a.cast(&t);
        assert_eq!(c.flt(), 0.7);
        assert_eq!(c.fix(), 22.0 / 32.0);
    }

    #[test]
    fn try_cast_rejects_overflow_in_error_mode() {
        let t = DType::new(
            "t_err",
            4,
            2,
            Signedness::TwosComplement,
            OverflowMode::Error,
            RoundingMode::Round,
        )
        .unwrap();
        // In range: behaves exactly like cast.
        let ok = v(0.5, 0.5).try_cast(&t).unwrap();
        assert_eq!(ok.fix(), 0.5);
        // Out of range: a FixError instead of a silent clamp.
        let err = v(100.0, 100.0).try_cast(&t).unwrap_err();
        match err {
            fixref_fixed::FixError::Overflow(o) => {
                assert_eq!(o.value, 100.0);
                assert_eq!(o.dtype, "t_err");
            }
            other => panic!("expected overflow, got {other}"),
        }
        // Saturate mode never fails, even far out of range.
        let sat = t.with_overflow(OverflowMode::Saturate);
        assert!(v(100.0, 100.0).try_cast(&sat).is_ok());
    }

    #[test]
    fn exploded_interval_arithmetic_does_not_poison_values() {
        // Regression: subtracting two range-exploded values produces the
        // indeterminate ∞−∞ on both interval bounds; that used to panic
        // deep in Interval::new. It must instead stay conservatively
        // unbounded so range explosion is reported, not crashed on.
        let a = Value::with_paths(1.0, 1.0, Interval::UNBOUNDED);
        let b = Value::with_paths(2.0, 2.0, Interval::UNBOUNDED);
        let d = a - b;
        assert_eq!(d.interval(), Interval::UNBOUNDED);
        assert!(d.interval().abs().hi.is_infinite());
    }

    #[test]
    fn saturating_cast_clamps_interval() {
        let t = DType::new(
            "t",
            7,
            5,
            Signedness::TwosComplement,
            OverflowMode::Saturate,
            RoundingMode::Round,
        )
        .unwrap();
        let wide = Value::with_paths(0.0, 0.0, Interval::new(-40.0, 40.0));
        let c = wide.cast(&t);
        assert!(c.interval().hi <= t.max_value());
        assert!(c.interval().lo >= t.min_value());
        // Wrap cast does not clamp.
        let t_wrap = t.with_overflow(OverflowMode::Wrap);
        let wide = Value::with_paths(0.0, 0.0, Interval::new(-40.0, 40.0));
        assert_eq!(wide.cast(&t_wrap).interval(), Interval::new(-40.0, 40.0));
    }

    #[test]
    fn literal_arithmetic_stays_untraced() {
        let a = Value::from(1.0);
        let b = Value::from(2.0);
        let c = a * b + 3.0;
        assert_eq!(c.trace(), None);
    }

    #[test]
    fn traced_operators_intern_their_nodes_in_the_recording() {
        use crate::design::SignalId;
        use crate::graph::{self, Graph};

        let rec = graph::begin_recording();
        let read = |i| {
            let trace = graph::trace_read(rec, SignalId::from_raw(i));
            Value::from_signal(1.0, 1.0, Interval::point(1.0), trace)
        };
        let product = read(0) * read(1);
        assert!(product.trace().is_some());
        // The same structure is the same node.
        assert_eq!((read(0) * read(1)).trace(), product.trace());
        // Mixing with a scalar keeps the result traced.
        let sum = product + 0.5;
        assert!(sum.trace().is_some());

        let mut g = Graph::new();
        let root = graph::record_root(rec, sum.trace(), &mut g).expect("traced");
        let ops: Vec<Op> = g.iter().map(|(_, n)| n.op.clone()).collect();
        let (r0, r1) = (SignalId::from_raw(0), SignalId::from_raw(1));
        assert_eq!(
            ops,
            [Op::Read(r0), Op::Read(r1), Op::Mul, Op::Const(0.5), Op::Add]
        );
        assert_eq!(g.node(root).op, Op::Add);

        // Once the recording ends, its values resolve to no node and new
        // arithmetic on them is untraced.
        graph::end_recording(rec);
        assert_eq!(graph::record_root(rec, sum.trace(), &mut g), None);
        assert_eq!((sum * 2.0).trace(), None);
    }

    #[test]
    fn default_value_is_zeroish() {
        let v = Value::default();
        assert_eq!(v.flt(), 0.0);
        assert_eq!(v.fix(), 0.0);
        assert!(v.interval().is_empty());
    }

    #[test]
    fn display_mentions_both_paths() {
        let s = v(1.0, 0.5).to_string();
        assert!(s.contains("flt=1"));
        assert!(s.contains("fix=0.5"));
    }
}
