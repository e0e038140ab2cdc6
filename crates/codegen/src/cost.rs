//! Hardware cost estimation for refined designs.
//!
//! The refinement rules trade bits for safety (rule *c*), saturation
//! logic for wordlength (rule *b*) and rounding adders for error-mean
//! shifts (round vs floor). This module puts rough gate-equivalent
//! numbers on those trades so ablations can quantify them: every
//! recorded dataflow operator is costed from the exact operand widths the
//! decided types imply — the same width algebra the VHDL generator uses.
//!
//! The weights are deliberately coarse (ripple adders, array multipliers,
//! flip-flops at 4 gates/bit); the point is *relative* comparison between
//! policies, not area prediction.

use fixref_fixed::{OverflowMode, RoundingMode};
use fixref_sim::{Design, Graph, NodeId, Op, Role, SignalId};

use crate::format::Fmt;

/// Gate-equivalent cost breakdown of a refined design's datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostEstimate {
    /// Total adder/subtractor result bits.
    pub adder_bits: u64,
    /// Total multiplier partial-product bits (`w_a × w_b` per multiply).
    pub multiplier_bits: u64,
    /// Total register bits.
    pub register_bits: u64,
    /// Total 2:1-mux bits (min/max/select).
    pub mux_bits: u64,
    /// Total saturation-logic bits (comparators + clamps on saturating
    /// assignments and casts).
    pub saturator_bits: u64,
    /// Total rounding-adder bits (round-off assignments; floor is free).
    pub rounder_bits: u64,
    /// Signals that contributed (typed wires, registers and
    /// conditionally written signals).
    pub costed_signals: usize,
    /// Signals skipped (input ports, unused or untyped signals).
    pub skipped_signals: usize,
}

impl CostEstimate {
    /// A single scalar gate-equivalent score:
    /// `1·add + 1·mult + 4·reg + 0.5·mux + 2·sat + 1·round`.
    pub fn gate_score(&self) -> f64 {
        self.adder_bits as f64
            + self.multiplier_bits as f64
            + 4.0 * self.register_bits as f64
            + 0.5 * self.mux_bits as f64
            + 2.0 * self.saturator_bits as f64
            + self.rounder_bits as f64
    }
}

/// Estimates the datapath cost of every typed signal in the design, from
/// the recorded signal-flow graph.
///
/// Each signal is costed by its netlist [`Role`]: a wire or register by
/// its definition, a [`Role::Conditional`] signal by all of its
/// definitions plus the mux that selects between them. Input ports,
/// unused signals and untyped signals cost nothing and are counted in
/// [`CostEstimate::skipped_signals`], so the estimate is usable on
/// partially refined designs.
pub fn estimate_cost(design: &Design, graph: &Graph) -> CostEstimate {
    crate::observed(design, "codegen.estimate_cost", || {
        estimate_cost_impl(design, graph)
    })
}

fn estimate_cost_impl(design: &Design, graph: &Graph) -> CostEstimate {
    let mut est = CostEstimate::default();
    for (i, role) in Role::all(design, graph).into_iter().enumerate() {
        let id = SignalId::from_raw(i as u32);
        let (Some(dtype), Role::Wire(_) | Role::Register(_) | Role::Conditional) =
            (design.dtype_of(id), role)
        else {
            est.skipped_signals += 1;
            continue;
        };
        est.costed_signals += 1;
        let target = Fmt::from_dtype(&dtype);

        if matches!(role, Role::Register(_)) {
            est.register_bits += target.width() as u64;
        }
        // Several recorded defs (conditional writes) share the target via
        // an implicit mux.
        let defs = graph.defs(id);
        if defs.len() > 1 {
            est.mux_bits += target.width() as u64 * (defs.len() as u64 - 1);
        }

        let mut widest = target;
        for &def in defs {
            let fmt = cost_node(graph, design, def, &mut est);
            widest = widest.union(&fmt);
        }
        // The assignment quantizer: saturation comparators and/or the
        // rounding half-LSB adder, sized by the incoming width.
        if dtype.overflow() == OverflowMode::Saturate {
            est.saturator_bits += widest.width() as u64;
        }
        if dtype.rounding() == RoundingMode::Round && widest.lsb < target.lsb {
            est.rounder_bits += widest.width() as u64;
        }
    }
    est
}

/// Recursively costs one definition tree, returning its exact format.
fn cost_node(graph: &Graph, design: &Design, node: NodeId, est: &mut CostEstimate) -> Fmt {
    let n = graph.node(node);
    match &n.op {
        Op::Const(c) => Fmt::for_const(*c, -14),
        Op::Read(s) => design
            .dtype_of(*s)
            .map(|t| Fmt::from_dtype(&t))
            // Untyped operand: assume a generous working format.
            .unwrap_or(Fmt::new(7, -24)),
        Op::Add | Op::Sub => {
            let a = cost_node(graph, design, n.args[0], est);
            let b = cost_node(graph, design, n.args[1], est);
            let r = a.add(&b);
            est.adder_bits += r.width() as u64;
            r
        }
        Op::Mul | Op::Div => {
            let a = cost_node(graph, design, n.args[0], est);
            let b = cost_node(graph, design, n.args[1], est);
            est.multiplier_bits += a.width() as u64 * b.width() as u64;
            a.mul(&b)
        }
        Op::Neg | Op::Abs => {
            let a = cost_node(graph, design, n.args[0], est);
            let r = a.neg();
            est.adder_bits += r.width() as u64; // two's-complement negate
            r
        }
        Op::Min | Op::Max => {
            let a = cost_node(graph, design, n.args[0], est);
            let b = cost_node(graph, design, n.args[1], est);
            let r = a.union(&b);
            est.mux_bits += r.width() as u64;
            est.adder_bits += r.width() as u64; // the comparator
            r
        }
        Op::Select => {
            let _c = cost_node(graph, design, n.args[0], est);
            let a = cost_node(graph, design, n.args[1], est);
            let b = cost_node(graph, design, n.args[2], est);
            let r = a.union(&b);
            est.mux_bits += r.width() as u64;
            r
        }
        Op::Cast(dt) => {
            let a = cost_node(graph, design, n.args[0], est);
            let target = Fmt::from_dtype(dt);
            if dt.overflow() == OverflowMode::Saturate {
                est.saturator_bits += a.width() as u64;
            }
            if dt.rounding() == RoundingMode::Round && a.lsb < target.lsb {
                est.rounder_bits += a.width() as u64;
            }
            target
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_fixed::DType;
    use fixref_sim::Design;

    fn tc(n: i32, f: i32) -> DType {
        DType::tc("t", n, f).expect("valid")
    }

    /// y = x * k + c with everything typed: one multiplier, one adder,
    /// one saturating/rounding quantizer.
    #[test]
    fn straight_line_costs() {
        let d = Design::new();
        let x = d.sig_typed("x", tc(8, 6));
        let y = d.sig_typed("y", tc(8, 6));
        d.record_graph(true);
        x.set(0.5);
        y.set(x.get() * 0.25 + 0.125);
        let est = estimate_cost(&d, &d.graph());
        assert_eq!(est.costed_signals, 2); // x (a constant wire) and y
        assert!(est.multiplier_bits > 0);
        assert!(est.adder_bits > 0);
        assert!(est.saturator_bits > 0, "saturating type needs a clamp");
        assert!(est.rounder_bits > 0, "round mode needs the half-LSB adder");
        assert_eq!(est.register_bits, 0);
        assert!(est.gate_score() > 0.0);
    }

    #[test]
    fn registers_add_flipflop_bits() {
        let d = Design::new();
        let x = d.sig_typed("x", tc(8, 6));
        let r = d.reg_typed("r", tc(10, 6));
        d.record_graph(true);
        x.set(0.5);
        r.set(x.get());
        d.tick();
        let est = estimate_cost(&d, &d.graph());
        assert_eq!(est.register_bits, 10);
    }

    #[test]
    fn floor_mode_skips_the_rounder() {
        let build = |rounding| {
            let d = Design::new();
            let t = DType::new(
                "t",
                8,
                6,
                fixref_fixed::Signedness::TwosComplement,
                fixref_fixed::OverflowMode::Wrap,
                rounding,
            )
            .expect("valid");
            let x = d.sig_typed("x", t.clone().with_name("xt"));
            let y = d.sig_typed("y", t);
            d.record_graph(true);
            x.set(0.5);
            y.set(x.get() * 0.25);
            estimate_cost(&d, &d.graph())
        };
        let round = build(RoundingMode::Round);
        let floor = build(RoundingMode::Floor);
        assert!(round.rounder_bits > 0);
        assert_eq!(floor.rounder_bits, 0);
        assert!(floor.gate_score() < round.gate_score());
    }

    #[test]
    fn wider_types_cost_more() {
        let build = |f: i32| {
            let d = Design::new();
            let x = d.sig_typed("x", tc(4 + f, f));
            let y = d.sig_typed("y", tc(4 + f, f));
            d.record_graph(true);
            x.set(0.5);
            y.set(x.get() * 0.25 + x.get());
            estimate_cost(&d, &d.graph())
        };
        let narrow = build(4);
        let wide = build(12);
        assert!(wide.gate_score() > narrow.gate_score());
        assert!(wide.multiplier_bits > narrow.multiplier_bits);
    }

    #[test]
    fn conditional_defs_cost_a_mux() {
        let d = Design::new();
        let x = d.sig_typed("x", tc(8, 6));
        let r = d.reg_typed("r", tc(8, 6));
        d.record_graph(true);
        for i in 0..4 {
            x.set(i as f64 * 0.3 - 0.5);
            if x.get().is_positive() {
                r.set(r.get() + x.get());
            } else {
                r.set(r.get() - x.get());
            }
            d.tick();
        }
        let est = estimate_cost(&d, &d.graph());
        assert!(est.mux_bits >= 8, "two defs imply a mux: {est:?}");
    }

    #[test]
    fn stimulus_inputs_are_ports_not_muxes() {
        let d = Design::new();
        let x = d.sig_typed("x", tc(8, 6));
        let y = d.sig_typed("y", tc(8, 6));
        d.record_graph(true);
        for i in 0..16 {
            x.set(i as f64 * 0.05); // one constant definition per sample
            y.set(x.get() * 0.5);
        }
        let est = estimate_cost(&d, &d.graph());
        assert_eq!(est.mux_bits, 0, "{est:?}");
        assert_eq!((est.costed_signals, est.skipped_signals), (1, 1));
    }

    #[test]
    fn untyped_and_undefined_signals_are_skipped() {
        let d = Design::new();
        let _dead = d.sig("dead");
        let float = d.sig("float");
        d.record_graph(true);
        float.set(1.0);
        let est = estimate_cost(&d, &d.graph());
        assert_eq!(est.costed_signals, 0);
        assert_eq!(est.skipped_signals, 2);
        assert_eq!(est.gate_score(), 0.0);
    }
}
