//! Expression emission: signal-flow-graph nodes to VHDL `signed`
//! expressions with tracked formats.

use std::error::Error;
use std::fmt;

use fixref_fixed::{DType, OverflowMode, RoundingMode};
use fixref_sim::{Design, Graph, NodeId, Op, SignalId};

use crate::format::Fmt;

/// Errors the code generator can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// A signal in the dataflow has no decided fixed-point type; run the
    /// refinement flow (or assign types manually) before generating.
    UntypedSignal {
        /// The offending signal's name.
        name: String,
    },
    /// A requested output signal has no recorded definition.
    MissingDefinition {
        /// The offending signal's name.
        name: String,
    },
    /// A signal has several structurally different definitions; the
    /// generator cannot infer the selection condition. Rewrite the model
    /// so each signal is assigned once per cycle (using
    /// `select_positive` for conditionals).
    MultipleDefinitions {
        /// The offending signal's name.
        name: String,
    },
    /// An operator has no hardware mapping (currently: division by a
    /// non-constant).
    UnsupportedOp {
        /// Description of the unsupported construct.
        what: String,
    },
    /// The combinational wires form a dependency cycle, so no evaluation
    /// order exists. Break the loop with a register.
    CombinationalCycle {
        /// A signal on the cycle.
        name: String,
    },
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::UntypedSignal { name } => {
                write!(f, "signal {name} has no fixed-point type; refine it first")
            }
            CodegenError::MissingDefinition { name } => {
                write!(f, "signal {name} has no recorded definition")
            }
            CodegenError::MultipleDefinitions { name } => write!(
                f,
                "signal {name} has multiple definitions; restructure with select_positive"
            ),
            CodegenError::UnsupportedOp { what } => {
                write!(f, "unsupported construct for hardware mapping: {what}")
            }
            CodegenError::CombinationalCycle { name } => write!(
                f,
                "combinational cycle through signal {name}; break the loop with a register"
            ),
        }
    }
}

impl Error for CodegenError {}

/// Sanitizes a simulation signal name into a VHDL identifier
/// (`v[3]` → `v_3`).
pub(crate) fn vhdl_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' => out.push(c),
            _ => {
                if !out.ends_with('_') && !out.is_empty() {
                    out.push('_');
                }
            }
        }
    }
    let out = out.trim_end_matches('_').to_string();
    if out.is_empty() || out.starts_with(|c: char| c.is_ascii_digit()) {
        format!("s_{out}")
    } else {
        out
    }
}

/// Emits graph expressions against a design's decided types.
pub(crate) struct ExprGen<'a> {
    pub design: &'a Design,
    pub graph: &'a Graph,
    /// Resolution used for literal constants.
    pub const_lsb: i32,
}

impl ExprGen<'_> {
    /// The decided format of a signal.
    pub fn signal_fmt(&self, id: SignalId) -> Result<(String, Fmt, DType), CodegenError> {
        let dtype = self
            .design
            .dtype_of(id)
            .ok_or_else(|| CodegenError::UntypedSignal {
                name: self.design.name_of(id),
            })?;
        Ok((
            vhdl_name(&self.design.name_of(id)),
            Fmt::from_dtype(&dtype),
            dtype,
        ))
    }

    /// Emits the expression rooted at `node`, returning VHDL code and its
    /// exact format.
    ///
    /// # Errors
    ///
    /// Propagates type and operator mapping failures.
    pub fn emit(&self, node: NodeId) -> Result<(String, Fmt), CodegenError> {
        let n = self.graph.node(node);
        match &n.op {
            Op::Const(c) => Ok(self.emit_const(*c, self.const_lsb)),
            Op::Read(s) => {
                let (name, fmt, _) = self.signal_fmt(*s)?;
                Ok((name, fmt))
            }
            Op::Add | Op::Sub => {
                let (a, fa) = self.emit(n.args[0])?;
                let (b, fb) = self.emit(n.args[1])?;
                let target = fa.add(&fb);
                let a = self.align(&a, fa, target);
                let b = self.align(&b, fb, target);
                let op = if matches!(n.op, Op::Add) { "+" } else { "-" };
                Ok((format!("({a} {op} {b})"), target))
            }
            Op::Mul => {
                let (a, fa) = self.emit(n.args[0])?;
                let (b, fb) = self.emit(n.args[1])?;
                // numeric_std "*" yields exactly wa + wb bits = our format.
                Ok((format!("({a} * {b})"), fa.mul(&fb)))
            }
            Op::Div => {
                // Division by a constant folds into multiplication by the
                // reciprocal (quantized at the literal resolution); general
                // division has no combinational mapping here.
                if let Op::Const(c) = self.graph.node(n.args[1]).op {
                    if c != 0.0 {
                        let (a, fa) = self.emit(n.args[0])?;
                        let (r, fr) = self.emit_const(1.0 / c, self.const_lsb);
                        return Ok((format!("({a} * {r})"), fa.mul(&fr)));
                    }
                }
                Err(CodegenError::UnsupportedOp {
                    what: "division by a non-constant".to_string(),
                })
            }
            Op::Neg => {
                let (a, fa) = self.emit(n.args[0])?;
                let target = fa.neg();
                Ok((format!("(-resize({a}, {}))", target.width()), target))
            }
            Op::Abs => {
                let (a, fa) = self.emit(n.args[0])?;
                let target = fa.neg();
                Ok((format!("abs(resize({a}, {}))", target.width()), target))
            }
            Op::Min | Op::Max => {
                let (a, fa) = self.emit(n.args[0])?;
                let (b, fb) = self.emit(n.args[1])?;
                let target = fa.union(&fb);
                let a = self.align(&a, fa, target);
                let b = self.align(&b, fb, target);
                let f = if matches!(n.op, Op::Min) {
                    "f_min"
                } else {
                    "f_max"
                };
                Ok((format!("{f}({a}, {b})"), target))
            }
            Op::Select => {
                let (c, fc) = self.emit(n.args[0])?;
                let (a, fa) = self.emit(n.args[1])?;
                let (b, fb) = self.emit(n.args[2])?;
                let target = fa.union(&fb);
                let a = self.align(&a, fa, target);
                let b = self.align(&b, fb, target);
                Ok((
                    format!("f_sel({c} > to_signed(0, {}), {a}, {b})", fc.width()),
                    target,
                ))
            }
            Op::Cast(dt) => {
                let (a, fa) = self.emit(n.args[0])?;
                let target = Fmt::from_dtype(dt);
                Ok((self.quantize(&a, fa, target, dt), target))
            }
        }
    }

    /// A literal constant at the generator's resolution, shrunk to its
    /// minimal format.
    fn emit_const(&self, c: f64, lsb: i32) -> (String, Fmt) {
        let fmt = Fmt::for_const(c, lsb);
        let mant = (c * (-(lsb as f64)).exp2()).round() as i64;
        (format!("to_signed({mant}, {})", fmt.width()), fmt)
    }

    /// Aligns `code` of format `from` into format `to`, which must cover
    /// it (`to.lsb <= from.lsb`, `to.msb >= from.msb`): exact, no
    /// information loss.
    pub fn align(&self, code: &str, from: Fmt, to: Fmt) -> String {
        debug_assert!(to.lsb <= from.lsb && to.msb >= from.msb);
        let shift = (from.lsb - to.lsb) as u32;
        if shift == 0 && from.width() == to.width() {
            code.to_string()
        } else if shift == 0 {
            format!("resize({code}, {})", to.width())
        } else {
            format!("shift_left(resize({code}, {}), {shift})", to.width())
        }
    }

    /// Quantizes `code` of format `from` into the (possibly narrower,
    /// coarser) `to` per the dtype's rounding and overflow modes, via the
    /// emitted `f_quant` helper.
    pub fn quantize(&self, code: &str, from: Fmt, to: Fmt, dtype: &DType) -> String {
        // First ensure the expression's LSB is at or below the target's.
        let (code, from) = if from.lsb > to.lsb {
            let widened = Fmt::new(from.msb, to.lsb);
            (self.align(code, from, widened), widened)
        } else {
            (code.to_string(), from)
        };
        let sh = (to.lsb - from.lsb) as u32;
        let sat = dtype.overflow() == OverflowMode::Saturate;
        let rnd = dtype.rounding() == RoundingMode::Round;
        if sh == 0 && from.width() <= to.width() {
            // Pure widening (or same width): a resize suffices.
            return format!("resize({code}, {})", to.width());
        }
        format!("f_quant({code}, {sh}, {}, {sat}, {rnd})", to.width())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(vhdl_name("v[3]"), "v_3");
        assert_eq!(vhdl_name("c[0]"), "c_0");
        assert_eq!(vhdl_name("plain"), "plain");
        assert_eq!(vhdl_name("a b-c"), "a_b_c");
        assert_eq!(vhdl_name("3x"), "s_3x");
        assert_eq!(vhdl_name("_"), "s_");
    }

    fn gen_env() -> (Design, std::rc::Rc<Graph>) {
        let d = Design::new();
        let t: DType = "<8,5,tc,st,rd>".parse().unwrap();
        let x = d.sig_typed("x", t.clone());
        let y = d.sig_typed("y", t);
        d.record_graph(true);
        x.set(0.25);
        y.set(x.get() * 0.5 + 0.125);
        (d.clone(), d.graph())
    }

    #[test]
    fn read_and_const_emission() {
        let (d, g) = gen_env();
        let gen = ExprGen {
            design: &d,
            graph: &g,
            const_lsb: -10,
        };
        let xid = d.find("x").unwrap();
        let (code, fmt) = gen.signal_fmt(xid).map(|(c, f, _)| (c, f)).unwrap();
        assert_eq!(code, "x");
        assert_eq!(fmt, Fmt::new(2, -5));
    }

    #[test]
    fn full_expression_emits_mul_add_chain() {
        let (d, g) = gen_env();
        let gen = ExprGen {
            design: &d,
            graph: &g,
            const_lsb: -10,
        };
        let yid = d.find("y").unwrap();
        let defs = g.defs(yid);
        assert_eq!(defs.len(), 1);
        let (code, fmt) = gen.emit(defs[0]).unwrap();
        assert!(code.contains("(x * to_signed(512, 11))"), "{code}");
        assert!(code.contains('+'), "{code}");
        // x<2,-5> * 0.5<-1..-10 span> -> msb 2 + (-1) + 1 = 2, lsb -15;
        // + 0.125 grows one guard bit.
        assert_eq!(fmt.lsb, -15);
        assert!(fmt.msb >= 2);
    }

    #[test]
    fn untyped_signal_is_an_error() {
        let d = Design::new();
        let x = d.sig("x"); // floating
        let y = d.sig_typed("y", "<8,5,tc,st,rd>".parse().unwrap());
        d.record_graph(true);
        x.set(0.5);
        y.set(x.get() + 1.0);
        let g = d.graph();
        let gen = ExprGen {
            design: &d,
            graph: &g,
            const_lsb: -10,
        };
        let yid = d.find("y").unwrap();
        let err = gen.emit(g.defs(yid)[0]).unwrap_err();
        assert_eq!(
            err,
            CodegenError::UntypedSignal {
                name: "x".to_string()
            }
        );
        assert!(err.to_string().contains("x"));
    }

    #[test]
    fn division_by_constant_folds() {
        let d = Design::new();
        let t: DType = "<8,5,tc,st,rd>".parse().unwrap();
        let x = d.sig_typed("x", t.clone());
        let y = d.sig_typed("y", t);
        d.record_graph(true);
        x.set(0.5);
        y.set(x.get() / 4.0);
        let g = d.graph();
        let gen = ExprGen {
            design: &d,
            graph: &g,
            const_lsb: -10,
        };
        let (code, _) = gen.emit(g.defs(d.find("y").unwrap())[0]).unwrap();
        // 1/4 at lsb -10 is mantissa 256.
        assert!(code.contains("to_signed(256,"), "{code}");
        assert!(code.contains('*'), "{code}");
    }

    #[test]
    fn division_by_signal_rejected() {
        let d = Design::new();
        let t: DType = "<8,5,tc,st,rd>".parse().unwrap();
        let x = d.sig_typed("x", t.clone());
        let z = d.sig_typed("z", t.clone());
        let y = d.sig_typed("y", t);
        d.record_graph(true);
        x.set(0.5);
        z.set(0.25);
        y.set(x.get() / z.get());
        let g = d.graph();
        let gen = ExprGen {
            design: &d,
            graph: &g,
            const_lsb: -10,
        };
        let err = gen.emit(g.defs(d.find("y").unwrap())[0]).unwrap_err();
        assert!(matches!(err, CodegenError::UnsupportedOp { .. }));
    }

    #[test]
    fn quantize_emits_helper_with_modes() {
        let (d, g) = gen_env();
        let gen = ExprGen {
            design: &d,
            graph: &g,
            const_lsb: -10,
        };
        let sat: DType = "<8,5,tc,st,rd>".parse().unwrap();
        let q = gen.quantize("expr", Fmt::new(4, -15), Fmt::from_dtype(&sat), &sat);
        assert_eq!(q, "f_quant(expr, 10, 8, true, true)");
        let wrap: DType = "<8,5,tc,wp,fl>".parse().unwrap();
        let q = gen.quantize("expr", Fmt::new(4, -15), Fmt::from_dtype(&wrap), &wrap);
        assert_eq!(q, "f_quant(expr, 10, 8, false, false)");
        // Pure widening needs only a resize.
        let q = gen.quantize("expr", Fmt::new(1, -5), Fmt::from_dtype(&sat), &sat);
        assert_eq!(q, "resize(expr, 8)");
    }
}
