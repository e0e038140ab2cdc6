//! The recorded signal-flow graph read as clocked hardware.
//!
//! The RTL interpreter, the model checker, the VHDL generator and the
//! cost estimate all read the same [`Graph`] as a netlist. This module
//! owns the three decisions they share, so they agree by construction:
//!
//! * a signal's [`Role`]: input port, wire, register, conditionally
//!   written or unused ([`Role::of`]);
//! * the order wires evaluate in: Kahn's algorithm over the wires each
//!   definition reads, smallest signal id first ([`Netlist::new`]);
//! * the bit-true value of a definition ([`Assignment::eval`]): float
//!   arithmetic between quantization points, `cast` quantizes, `select`
//!   takes the then-branch for a strictly positive condition — the
//!   simulator's fixed path.
//!
//! Each client keeps its own scope and checks: which signals it takes,
//! which must be typed, and what a [`Role::Conditional`] signal means (an
//! error for the interpreter, the model checker and VHDL; a mux for the
//! cost estimate).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fixref_fixed::quantize;

use crate::design::{Design, SignalId, SignalKind};
use crate::graph::{Graph, NodeId, Op};

/// What a signal is in the hardware the graph describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Driven from outside: read but never assigned, or assigned only
    /// constants from several program points (a stimulus loop records one
    /// `Const` definition per sample).
    Input,
    /// Combinational, with its one definition. A single `Const`
    /// definition makes a constant wire (a coefficient, not a port).
    Wire(NodeId),
    /// Clocked, with its one definition.
    Register(NodeId),
    /// Assigned from several program points, not all of them constants:
    /// Rust control flow the graph cannot see.
    Conditional,
    /// Neither assigned nor read.
    Unused,
}

impl Role {
    /// The role of `signal`, a `kind` signal, in `graph`; `read` says
    /// whether any node of the graph reads it.
    pub fn of(graph: &Graph, signal: SignalId, kind: SignalKind, read: bool) -> Role {
        match graph.defs(signal) {
            [] if read => Role::Input,
            [] => Role::Unused,
            &[def] => match kind {
                SignalKind::Wire => Role::Wire(def),
                SignalKind::Register => Role::Register(def),
            },
            defs if defs
                .iter()
                .all(|&d| matches!(graph.node(d).op, Op::Const(_))) =>
            {
                Role::Input
            }
            _ => Role::Conditional,
        }
    }

    /// The role of every signal of `design` in `graph`, indexed by raw
    /// signal id.
    pub fn all(design: &Design, graph: &Graph) -> Vec<Role> {
        let mut read = vec![false; design.num_signals()];
        for (_, node) in graph.iter() {
            if let Op::Read(s) = node.op {
                if let Some(r) = read.get_mut(s.raw() as usize) {
                    *r = true;
                }
            }
        }
        read.into_iter()
            .enumerate()
            .map(|(i, read)| {
                let id = SignalId::from_raw(i as u32);
                Role::of(graph, id, design.report_by_id(id).kind, read)
            })
            .collect()
    }
}

/// A read of a signal the netlist has no slot for; it reads as the reset
/// value 0.
const NO_SLOT: u32 = u32::MAX;

/// One definition compiled for bit-true evaluation against a
/// [`Netlist`]'s value slots.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// The assigned signal.
    pub signal: SignalId,
    /// The assigned signal's value slot.
    pub slot: usize,
    /// The definition's distinct nodes in post-order, each operator with
    /// its operands' positions in this list; a read holds its signal's
    /// slot in the first position instead.
    steps: Vec<(Op, [u32; 3])>,
}

impl Assignment {
    fn compile(
        graph: &Graph,
        signal: SignalId,
        slot: usize,
        root: NodeId,
        slot_of: impl Fn(SignalId) -> Option<usize>,
    ) -> Assignment {
        let order = graph.post_order(root);
        let steps = order
            .iter()
            .map(|&id| {
                let node = graph.node(id);
                let mut args = [0; 3];
                if let Op::Read(s) = node.op {
                    args[0] = slot_of(s).map_or(NO_SLOT, |p| p as u32);
                }
                for (pos, arg) in args.iter_mut().zip(&node.args) {
                    *pos = order.partition_point(|n| n < arg) as u32;
                }
                (node.op.clone(), args)
            })
            .collect();
        Assignment {
            signal,
            slot,
            steps,
        }
    }

    /// The definition's bit-true value, reading signals from `values`
    /// (indexed by slot) and using `temps` for intermediate results.
    pub fn eval(&self, values: &[f64], temps: &mut Vec<f64>) -> f64 {
        temps.clear();
        let mut value = 0.0;
        for (op, args) in &self.steps {
            let arg = |i: usize| temps[args[i] as usize];
            value = match op {
                Op::Const(c) => *c,
                Op::Read(_) => values.get(args[0] as usize).copied().unwrap_or(0.0),
                Op::Add => arg(0) + arg(1),
                Op::Sub => arg(0) - arg(1),
                Op::Mul => arg(0) * arg(1),
                Op::Div => arg(0) / arg(1),
                Op::Neg => -arg(0),
                Op::Abs => arg(0).abs(),
                Op::Min => arg(0).min(arg(1)),
                Op::Max => arg(0).max(arg(1)),
                Op::Cast(dt) => quantize(arg(0), dt).value,
                Op::Select => {
                    if arg(0) > 0.0 {
                        arg(1)
                    } else {
                        arg(2)
                    }
                }
            };
            temps.push(value);
        }
        value
    }
}

/// A set of signals as hardware: one value slot per signal, the wires in
/// evaluation order and the registers, each with its compiled definition.
#[derive(Debug, Clone)]
pub struct Netlist {
    /// Slot `i` holds `signals[i]`; ascending.
    signals: Vec<SignalId>,
    wires: Vec<Assignment>,
    registers: Vec<Assignment>,
}

impl Netlist {
    /// Builds the netlist of `signals`, given as `(signal, role)` pairs.
    /// Every signal gets a value slot, in ascending signal order; wires
    /// and registers also get their compiled definition. Reads of signals
    /// outside the list evaluate to 0.
    ///
    /// # Errors
    ///
    /// The smallest-id wire left without an evaluation order when wires
    /// read each other (or themselves) with no register in the loop: a
    /// combinational cycle.
    pub fn new(graph: &Graph, signals: &[(SignalId, Role)]) -> Result<Netlist, SignalId> {
        let mut signals = signals.to_vec();
        signals.sort_by_key(|&(s, _)| s);
        let ids: Vec<SignalId> = signals.iter().map(|&(s, _)| s).collect();
        let slot_of = |s: SignalId| ids.binary_search(&s).ok();
        let mut wires = Vec::new();
        let mut registers = Vec::new();
        for (slot, &(signal, role)) in signals.iter().enumerate() {
            match role {
                Role::Wire(def) => {
                    wires.push(Assignment::compile(graph, signal, slot, def, slot_of));
                }
                Role::Register(def) => {
                    registers.push(Assignment::compile(graph, signal, slot, def, slot_of));
                }
                Role::Input | Role::Conditional | Role::Unused => {}
            }
        }
        let order = wire_order(&wires, ids.len())?;
        let mut wires: Vec<Option<Assignment>> = wires.into_iter().map(Some).collect();
        Ok(Netlist {
            signals: ids,
            wires: order.into_iter().filter_map(|k| wires[k].take()).collect(),
            registers,
        })
    }

    /// The signal in each value slot.
    pub fn signals(&self) -> &[SignalId] {
        &self.signals
    }

    /// The value slot of `signal`, if it belongs to the netlist.
    pub fn slot(&self, signal: SignalId) -> Option<usize> {
        self.signals.binary_search(&signal).ok()
    }

    /// The wires, in evaluation order: each after every wire it reads.
    pub fn wires(&self) -> &[Assignment] {
        &self.wires
    }

    /// The registers, in signal order. Evaluate them after the wires; they
    /// latch at the clock edge.
    pub fn registers(&self) -> &[Assignment] {
        &self.registers
    }
}

/// Kahn's algorithm over the wire-to-wire reads of `wires` (in signal
/// order), smallest signal id first. Register and input reads are state,
/// not dependencies.
fn wire_order(wires: &[Assignment], slots: usize) -> Result<Vec<usize>, SignalId> {
    let mut wire_at = vec![None; slots];
    for (k, w) in wires.iter().enumerate() {
        wire_at[w.slot] = Some(k);
    }
    let mut users: Vec<Vec<usize>> = vec![Vec::new(); wires.len()];
    let mut waiting = vec![0usize; wires.len()];
    for (k, w) in wires.iter().enumerate() {
        let mut deps: Vec<usize> = w
            .steps
            .iter()
            .filter(|(op, _)| matches!(op, Op::Read(_)))
            .filter_map(|(_, args)| wire_at.get(args[0] as usize).copied().flatten())
            .collect();
        deps.sort_unstable();
        deps.dedup();
        waiting[k] = deps.len();
        for d in deps {
            users[d].push(k);
        }
    }
    let mut ready: BinaryHeap<Reverse<usize>> = (0..wires.len())
        .filter(|&k| waiting[k] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::with_capacity(wires.len());
    while let Some(Reverse(k)) = ready.pop() {
        order.push(k);
        for &u in &users[k] {
            waiting[u] -= 1;
            if waiting[u] == 0 {
                ready.push(Reverse(u));
            }
        }
    }
    match waiting.iter().position(|&w| w > 0) {
        Some(k) => Err(wires[k].signal),
        None => Ok(order),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_fixed::DType;

    fn sid(i: u32) -> SignalId {
        SignalId::from_raw(i)
    }

    #[test]
    fn roles_follow_definitions_and_reads() {
        let mut g = Graph::new();
        let read_in = g.add(Op::Read(sid(0)), vec![]);
        let c1 = g.add(Op::Const(0.25), vec![]);
        let c2 = g.add(Op::Const(-0.5), vec![]);
        let sum = g.add(Op::Add, vec![read_in, c1]);
        g.record_def(sid(1), c1); // stimulus: several constants
        g.record_def(sid(1), c2);
        g.record_def(sid(2), c1); // one constant: a constant wire
        g.record_def(sid(3), sum);
        g.record_def(sid(4), sum); // conditional: a constant and an add
        g.record_def(sid(4), c2);
        let wire = SignalKind::Wire;
        assert_eq!(Role::of(&g, sid(0), wire, true), Role::Input);
        assert_eq!(Role::of(&g, sid(0), wire, false), Role::Unused);
        assert_eq!(Role::of(&g, sid(1), wire, false), Role::Input);
        assert_eq!(Role::of(&g, sid(2), wire, false), Role::Wire(c1));
        assert_eq!(
            Role::of(&g, sid(3), SignalKind::Register, true),
            Role::Register(sum)
        );
        assert_eq!(Role::of(&g, sid(4), wire, false), Role::Conditional);
    }

    /// Wires `a`(0), `b`(1), `c`(2) where `a` reads `b`: Kahn's order,
    /// smallest id first, is `[b, a, c]`, whatever order they come in.
    #[test]
    fn wires_evaluate_after_the_wires_they_read_smallest_id_first() {
        let mut g = Graph::new();
        let rb = g.add(Op::Read(sid(1)), vec![]);
        let one = g.add(Op::Const(1.0), vec![]);
        let a = g.add(Op::Add, vec![rb, one]);
        let two = g.add(Op::Const(2.0), vec![]);
        let signals = [
            (sid(2), Role::Wire(two)),
            (sid(0), Role::Wire(a)),
            (sid(1), Role::Wire(one)),
        ];
        let net = Netlist::new(&g, &signals).expect("acyclic");
        let order: Vec<SignalId> = net.wires().iter().map(|w| w.signal).collect();
        assert_eq!(order, vec![sid(1), sid(0), sid(2)]);
    }

    #[test]
    fn combinational_cycles_name_the_smallest_unplaced_wire() {
        // w0 reads w2, w2 reads w0; w1 depends on the loop; w3 is free.
        let mut g = Graph::new();
        let r0 = g.add(Op::Read(sid(0)), vec![]);
        let r2 = g.add(Op::Read(sid(2)), vec![]);
        let n0 = g.add(Op::Neg, vec![r2]);
        let n1 = g.add(Op::Abs, vec![r0]);
        let n2 = g.add(Op::Neg, vec![r0]);
        let c = g.add(Op::Const(1.0), vec![]);
        let signals = [
            (sid(0), Role::Wire(n0)),
            (sid(1), Role::Wire(n1)),
            (sid(2), Role::Wire(n2)),
            (sid(3), Role::Wire(c)),
        ];
        assert_eq!(Netlist::new(&g, &signals).unwrap_err(), sid(0));
        // A wire reading itself is a loop too; a register breaks it.
        let self_loop = [(sid(0), Role::Wire(n1))];
        assert_eq!(Netlist::new(&g, &self_loop).unwrap_err(), sid(0));
        assert!(Netlist::new(&g, &[(sid(0), Role::Register(n1))]).is_ok());
    }

    #[test]
    fn evaluation_is_bit_true_and_shares_subexpressions() {
        let t = DType::tc("t", 4, 1).expect("valid");
        let mut g = Graph::new();
        let x = g.add(Op::Read(sid(0)), vec![]);
        let sq = g.add(Op::Mul, vec![x, x]);
        let cast = g.add(Op::Cast(t), vec![sq]);
        let half = g.add(Op::Const(0.5), vec![]);
        let neg = g.add(Op::Neg, vec![half]);
        let sel = g.add(Op::Select, vec![cast, half, neg]);
        let y = g.add(Op::Add, vec![sel, sq]);
        let outside = g.add(Op::Read(sid(7)), vec![]);
        let z = g.add(Op::Add, vec![y, outside]);
        let signals = [(sid(0), Role::Input), (sid(1), Role::Wire(z))];
        let net = Netlist::new(&g, &signals).expect("acyclic");
        let wire = &net.wires()[0];
        assert_eq!(wire.steps.len(), 9, "x and x*x are evaluated once");
        let mut temps = Vec::new();
        // 0.3^2 = 0.09 casts to 0 (not positive): -0.5 + 0.09.
        assert_eq!(wire.eval(&[0.3, 0.0], &mut temps), -0.5 + 0.3 * 0.3);
        // 0.6^2 = 0.36 rounds to 0.5: 0.5 + 0.36.
        assert_eq!(wire.eval(&[0.6, 0.0], &mut temps), 0.5 + 0.6 * 0.6);
    }
}
