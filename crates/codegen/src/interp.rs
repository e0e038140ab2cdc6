//! A bit-true RTL interpreter over the recorded signal-flow graph.
//!
//! The VHDL generator's correctness rests on one claim: the recorded graph
//! plus the decided types reproduce the simulation's fixed-point behavior.
//! [`RtlInterpreter`] checks that claim executably — it evaluates the
//! graph cycle by cycle with exactly the quantization semantics the
//! emitted VHDL implements, so a model can be cross-checked
//! bit-for-bit against its own [`Design`] simulation (see the
//! `rtl_interpreter_matches_simulation` integration test) without an
//! external VHDL simulator.
//!
//! Signal roles, the wire evaluation order and the bit-true evaluation of
//! each definition come from the [`fixref_sim::netlist`] the model checker
//! shares. Register reads are state, not combinational dependencies —
//! registers evaluate after the wires and latch at
//! [`RtlInterpreter::tick`]. A genuine combinational cycle (wires feeding
//! each other with no register in the loop) has no valid order and is
//! rejected with [`CodegenError::CombinationalCycle`].

use fixref_fixed::{quantize, DType};
use fixref_sim::{Design, Graph, Netlist, Role, SignalId};

use crate::expr::CodegenError;

#[derive(Debug, Clone)]
struct SigInfo {
    name: String,
    dtype: DType,
    is_input: bool,
}

/// Cycle-accurate interpreter of a refined design's dataflow.
///
/// # Example
///
/// ```
/// use fixref_codegen::RtlInterpreter;
/// use fixref_fixed::DType;
/// use fixref_sim::{Design, SignalRef};
///
/// # fn main() -> Result<(), fixref_codegen::CodegenError> {
/// let d = Design::new();
/// let t: DType = "<8,6,tc,st,rd>".parse().expect("valid");
/// let x = d.sig_typed("x", t.clone());
/// let y = d.sig_typed("y", t);
/// d.record_graph(true);
/// for i in 0..4 {
///     x.set(0.2 * i as f64);
///     y.set(x.get() * 0.5 + 0.25);
/// }
///
/// let mut rtl = RtlInterpreter::new(&d, &d.graph())?;
/// rtl.set_input(x.id(), 0.6);
/// rtl.step();
/// assert_eq!(rtl.value(y.id()), y.get().fix());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RtlInterpreter {
    netlist: Netlist,
    /// Per value slot of the netlist.
    signals: Vec<SigInfo>,
    /// Current on-grid values, per value slot.
    values: Vec<f64>,
    /// Pending register values, per netlist register, committed at
    /// `tick`.
    next: Vec<Option<f64>>,
    /// Intermediate results of the definition being evaluated.
    temps: Vec<f64>,
}

impl RtlInterpreter {
    /// Builds an interpreter from a design's decided types and recorded
    /// graph, over every signal whose [`Role`] is not `Unused`.
    ///
    /// # Errors
    ///
    /// * [`CodegenError::MultipleDefinitions`] — a signal's role is
    ///   [`Role::Conditional`];
    /// * [`CodegenError::UntypedSignal`] — a participating signal has no
    ///   decided type;
    /// * [`CodegenError::CombinationalCycle`] — the wires form a
    ///   dependency cycle with no register in the loop.
    pub fn new(design: &Design, graph: &Graph) -> Result<Self, CodegenError> {
        let mut members = Vec::new();
        let mut signals = Vec::new();
        for (i, role) in Role::all(design, graph).into_iter().enumerate() {
            let id = SignalId::from_raw(i as u32);
            match role {
                Role::Unused => continue,
                Role::Conditional => {
                    return Err(CodegenError::MultipleDefinitions {
                        name: design.name_of(id),
                    })
                }
                Role::Input | Role::Wire(_) | Role::Register(_) => {}
            }
            let dtype = design
                .dtype_of(id)
                .ok_or_else(|| CodegenError::UntypedSignal {
                    name: design.name_of(id),
                })?;
            members.push((id, role));
            signals.push(SigInfo {
                name: design.name_of(id),
                dtype,
                is_input: role == Role::Input,
            });
        }
        let netlist =
            Netlist::new(graph, &members).map_err(|wire| CodegenError::CombinationalCycle {
                name: design.name_of(wire),
            })?;
        Ok(RtlInterpreter {
            values: vec![0.0; signals.len()],
            next: vec![None; netlist.registers().len()],
            netlist,
            signals,
            temps: Vec::new(),
        })
    }

    /// The ids of the inferred input signals.
    pub fn inputs(&self) -> Vec<SignalId> {
        self.netlist
            .signals()
            .iter()
            .zip(&self.signals)
            .filter(|(_, s)| s.is_input)
            .map(|(&id, _)| id)
            .collect()
    }

    /// The value slot of a participating signal.
    fn slot(&self, id: SignalId) -> usize {
        self.netlist
            .slot(id)
            .unwrap_or_else(|| panic!("{id} does not participate in the dataflow"))
    }

    /// Drives an input signal; the value is quantized through the input's
    /// type exactly like a simulation assignment.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not one of the interpreter's input signals.
    pub fn set_input(&mut self, id: SignalId, value: f64) {
        let slot = self.slot(id);
        let signal = &self.signals[slot];
        assert!(signal.is_input, "{} is not an input", signal.name);
        self.values[slot] = quantize(value, &signal.dtype).value;
    }

    /// Evaluates one combinational cycle: every wire in the netlist's
    /// evaluation order, then every register's next value. Call
    /// [`RtlInterpreter::tick`] to latch the registers.
    pub fn step(&mut self) {
        for wire in self.netlist.wires() {
            let raw = wire.eval(&self.values, &mut self.temps);
            self.values[wire.slot] = quantize(raw, &self.signals[wire.slot].dtype).value;
        }
        for (next, reg) in self.next.iter_mut().zip(self.netlist.registers()) {
            let raw = reg.eval(&self.values, &mut self.temps);
            *next = Some(quantize(raw, &self.signals[reg.slot].dtype).value);
        }
    }

    /// Commits the registers (the clock edge).
    pub fn tick(&mut self) {
        for (next, reg) in self.next.iter_mut().zip(self.netlist.registers()) {
            if let Some(x) = next.take() {
                self.values[reg.slot] = x;
            }
        }
    }

    /// The current value of a signal.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not participate in the dataflow.
    pub fn value(&self, id: SignalId) -> f64 {
        self.values[self.slot(id)]
    }

    /// The wires in evaluation order, for tests.
    #[cfg(test)]
    fn order_names(&self) -> Vec<String> {
        self.netlist
            .wires()
            .iter()
            .map(|w| self.signals[w.slot].name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_sim::SignalRef;

    fn tc(n: i32, f: i32) -> DType {
        DType::tc("t", n, f).expect("valid")
    }

    #[test]
    fn combinational_chain_matches_simulation() {
        let d = Design::new();
        let x = d.sig_typed("x", tc(8, 6));
        let y = d.sig_typed("y", tc(8, 6));
        let z = d.sig_typed("z", tc(10, 8));
        d.record_graph(true);
        // Two distinct input values so x classifies as an input.
        for v in [0.1, -0.3] {
            x.set(v);
            y.set(x.get() * 0.5 + 0.25);
            z.set(y.get() - x.get());
        }
        let mut rtl = RtlInterpreter::new(&d, &d.graph()).expect("builds");
        assert_eq!(rtl.inputs(), vec![x.id()]);
        for v in [0.7, -0.9, 0.33, -1.0] {
            x.set(v);
            y.set(x.get() * 0.5 + 0.25);
            z.set(y.get() - x.get());

            rtl.set_input(x.id(), v);
            rtl.step();
            assert_eq!(rtl.value(y.id()), y.get().fix(), "y at {v}");
            assert_eq!(rtl.value(z.id()), z.get().fix(), "z at {v}");
        }
    }

    #[test]
    fn registers_latch_on_tick() {
        let d = Design::new();
        let x = d.sig_typed("x", tc(8, 6));
        let r = d.reg_typed("r", tc(8, 6));
        d.record_graph(true);
        x.set(0.25);
        x.set(0.5);
        r.set(x.get());
        let mut rtl = RtlInterpreter::new(&d, &d.graph()).expect("builds");
        rtl.set_input(x.id(), 0.75);
        rtl.step();
        assert_eq!(rtl.value(r.id()), 0.0, "pre-tick");
        rtl.tick();
        assert_eq!(rtl.value(r.id()), 0.75, "post-tick");
    }

    #[test]
    fn accumulator_with_saturation_matches_simulation() {
        let d = Design::new();
        let sat = tc(6, 4); // range [-2, 1.9375], saturating
        let x = d.sig_typed("x", tc(8, 6));
        let acc = d.reg_typed("acc", sat);
        d.record_graph(true);
        let drive = |v: f64| {
            x.set(v);
            acc.set(acc.get() + x.get());
            d.tick();
        };
        drive(0.3);
        drive(0.4);

        let mut rtl = RtlInterpreter::new(&d, &d.graph()).expect("builds");
        // Replay from reset on both sides.
        d.reset_state();
        for i in 0..40 {
            let v = 0.3 + 0.01 * (i % 5) as f64; // pushes acc into saturation
            x.set(v);
            acc.set(acc.get() + x.get());
            d.tick();

            rtl.set_input(x.id(), v);
            rtl.step();
            rtl.tick();
            assert_eq!(rtl.value(acc.id()), acc.get().fix(), "cycle {i}");
        }
        // Saturation actually engaged.
        assert!((rtl.value(acc.id()) - 1.9375).abs() < 1e-12);
    }

    #[test]
    fn select_and_cast_semantics() {
        let d = Design::new();
        let t = tc(8, 6);
        let x = d.sig_typed("x", t.clone());
        let y = d.sig_typed("y", tc(2, 0));
        d.record_graph(true);
        for v in [0.4, -0.4] {
            x.set(v);
            y.set(
                x.get()
                    .cast(&tc(4, 2))
                    .select_positive(1.0.into(), (-1.0).into()),
            );
        }
        let mut rtl = RtlInterpreter::new(&d, &d.graph()).expect("builds");
        for v in [0.9, -0.9, 0.1, -0.1, 0.0] {
            x.set(v);
            y.set(
                x.get()
                    .cast(&tc(4, 2))
                    .select_positive(1.0.into(), (-1.0).into()),
            );
            rtl.set_input(x.id(), v);
            rtl.step();
            assert_eq!(rtl.value(y.id()), y.get().fix(), "at {v}");
        }
    }

    /// Wires declared in the *reverse* of their dependency order must
    /// still evaluate like the simulation (regression: the interpreter
    /// used to walk declaration order and silently disagreed).
    #[test]
    fn out_of_declaration_order_wires_match_simulation() {
        let d = Design::new();
        // Declaration order: z, y, x — but dataflow is x -> y -> z.
        let z = d.sig_typed("z", tc(12, 8));
        let y = d.sig_typed("y", tc(10, 8));
        let x = d.sig_typed("x", tc(8, 6));
        d.record_graph(true);
        let drive = |v: f64| {
            x.set(v);
            y.set(x.get() * 0.5 + 0.25);
            z.set(y.get() + x.get());
        };
        drive(0.1);
        drive(-0.3);
        let mut rtl = RtlInterpreter::new(&d, &d.graph()).expect("builds");
        assert_eq!(rtl.order_names(), vec!["y", "z"], "dependency order");
        for v in [0.7, -0.9, 0.33, -1.0] {
            drive(v);
            rtl.set_input(x.id(), v);
            rtl.step();
            assert_eq!(rtl.value(y.id()), y.get().fix(), "y at {v}");
            assert_eq!(rtl.value(z.id()), z.get().fix(), "z at {v}");
        }
    }

    /// A register in the loop breaks the cycle; pure wire loops error.
    #[test]
    fn combinational_cycle_rejected_register_loop_accepted() {
        let d = Design::new();
        let a = d.sig_typed("a", tc(8, 6));
        let b = d.sig_typed("b", tc(8, 6));
        d.record_graph(true);
        // a and b feed each other combinationally.
        a.set(b.get() + 0.25);
        b.set(a.get() * 0.5);
        let err = RtlInterpreter::new(&d, &d.graph()).unwrap_err();
        assert!(matches!(err, CodegenError::CombinationalCycle { .. }));

        let d2 = Design::new();
        let w = d2.sig_typed("w", tc(8, 6));
        let r = d2.reg_typed("r", tc(8, 6));
        d2.record_graph(true);
        // Same loop, but through a register: valid.
        w.set(r.get() + 0.25);
        r.set(w.get() * 0.5);
        assert!(RtlInterpreter::new(&d2, &d2.graph()).is_ok());
    }

    #[test]
    fn untyped_signal_rejected() {
        let d = Design::new();
        let x = d.sig("x");
        let y = d.sig_typed("y", tc(8, 6));
        d.record_graph(true);
        x.set(0.1);
        x.set(0.2);
        y.set(x.get());
        let err = RtlInterpreter::new(&d, &d.graph()).unwrap_err();
        assert!(matches!(err, CodegenError::UntypedSignal { .. }));
    }

    #[test]
    #[should_panic(expected = "is not an input")]
    fn driving_a_wire_panics() {
        let d = Design::new();
        let x = d.sig_typed("x", tc(8, 6));
        let y = d.sig_typed("y", tc(8, 6));
        d.record_graph(true);
        x.set(0.1);
        x.set(0.2);
        y.set(x.get() + 0.1);
        let mut rtl = RtlInterpreter::new(&d, &d.graph()).expect("builds");
        rtl.set_input(y.id(), 1.0);
    }
}
