//! Lowering captured execution traces to compiled op tapes.
//!
//! The recorded signal-flow graph says *what* each assignment computes;
//! the captured [`ExecTrace`] says *in which order* assignments and ticks
//! executed. Lowering combines the two into a [`CompiledProgram`] (a
//! stack-machine tape per deduplicated cycle shape) plus a [`BoundTrace`]
//! (the schedule, input stream and verification expectations of this
//! particular run), which [`Design::replay_compiled`] then executes
//! bit-identically to the interpreter — without walking host code,
//! `Value` expression allocation, or per-assignment registry lookups.
//!
//! Lowering rules:
//!
//! * an assignment whose recorded root is a **constant** is a stimulus
//!   input (or a pre-recording initialization) — it lowers to
//!   [`Instr::StoreInput`] and its captured incoming value is replayed
//!   verbatim (and re-quantized through the signal's *current* type);
//! * any other assignment lowers to a postorder walk of its expression
//!   tree (`Const`/`Read` leaves, operator interior nodes, `Cast` via a
//!   deduplicated type table) followed by [`Instr::Store`];
//! * each tick closes a cycle; structurally identical cycles share one
//!   deduplicated [`CycleKind`], so a 4000-sample
//!   stimulus loop typically lowers to a handful of kinds;
//! * shared subexpressions (the graph interns them) are re-expanded as
//!   trees; an instruction budget bounds pathological expansion and
//!   rejects the design back to the interpreted backend instead of
//!   compiling an enormous tape.
//!
//! Lowering is *optimistic*: host control flow that breaks the static
//! schedule contract (stale reads through locals, Rust-level branches)
//! produces a tape that does not reproduce the capture. Callers must
//! therefore prove every `(program, trace)` pair with
//! [`Design::verify_compiled`] before trusting it.
//!
//! [`Design::replay_compiled`]: fixref_sim::Design::replay_compiled
//! [`Design::verify_compiled`]: fixref_sim::Design::verify_compiled

use std::collections::HashMap;

use fixref_sim::tape::{BoundTrace, CompiledProgram, CycleKind, InputSample, Instr, Segment};
use fixref_sim::{Design, ExecTrace, Graph, NodeId, Op, TraceStep};

use crate::expr::CodegenError;

/// Upper bound on emitted instructions (sum over deduplicated cycle
/// kinds, and also per single cycle). The graph interns shared
/// subexpressions but the tape re-expands them as trees, so a
/// pathologically deep reuse chain could blow up exponentially; beyond
/// this budget the design is rejected back to the interpreted backend.
const INSTRUCTION_BUDGET: usize = 2_000_000;

/// Lowers one captured run of `design` to a compiled program and its
/// run binding. The trace must have been captured on this design (its
/// node ids index the currently recorded graph).
///
/// # Errors
///
/// [`CodegenError::UnsupportedOp`] when the tape would exceed the
/// instruction budget or the `Cast` type table overflows its index
/// width — conditions under which the caller should stay interpreted.
pub fn lower_trace(
    design: &Design,
    trace: &ExecTrace,
) -> Result<(CompiledProgram, BoundTrace), CodegenError> {
    let graph = design.graph();
    let mut lo = Lowerer {
        graph: &graph,
        kinds: Vec::new(),
        kind_index: HashMap::new(),
        dtypes: Vec::new(),
        total_instrs: 0,
        cycle: Vec::new(),
        depth: 0,
        max_depth: 0,
        schedule: Vec::new(),
        inputs: Vec::new(),
        expected: Vec::new(),
    };

    for step in &trace.steps {
        match step {
            TraceStep::Assign {
                sig,
                root,
                flt,
                fix,
                itv,
            } => {
                if matches!(lo.graph.node(*root).op, Op::Const(_)) {
                    lo.push(Instr::StoreInput(*sig))?;
                    lo.inputs.push(InputSample {
                        flt: *flt,
                        fix: *fix,
                        itv: *itv,
                    });
                } else {
                    lo.lower_expr(*root)?;
                    lo.push(Instr::Store(*sig))?;
                    lo.expected.push((*flt, *fix));
                }
            }
            TraceStep::Tick => lo.close_cycle(true),
        }
    }
    if !lo.cycle.is_empty() {
        lo.close_cycle(false);
    }

    let program = CompiledProgram {
        kinds: lo.kinds,
        dtypes: lo.dtypes,
    };
    let bound = BoundTrace {
        start: trace.start.clone(),
        schedule: lo.schedule,
        inputs: lo.inputs,
        expected: lo.expected,
        reads: trace.reads.clone(),
        cycles: trace.cycles,
    };
    Ok((program, bound))
}

struct Lowerer<'g> {
    graph: &'g Graph,
    kinds: Vec<CycleKind>,
    /// Instruction-encoding -> kind index, for cycle deduplication.
    kind_index: HashMap<Vec<u64>, u32>,
    dtypes: Vec<fixref_fixed::DType>,
    total_instrs: usize,
    /// Instructions of the cycle currently being built.
    cycle: Vec<Instr>,
    depth: isize,
    max_depth: isize,
    schedule: Vec<Segment>,
    inputs: Vec<InputSample>,
    expected: Vec<(f64, f64)>,
}

impl Lowerer<'_> {
    fn push(&mut self, instr: Instr) -> Result<(), CodegenError> {
        self.total_instrs += 1;
        if self.total_instrs > INSTRUCTION_BUDGET || self.cycle.len() >= INSTRUCTION_BUDGET {
            return Err(CodegenError::UnsupportedOp {
                what: format!(
                    "compiled tape exceeds the {INSTRUCTION_BUDGET}-instruction budget \
                     (shared subexpressions re-expand as trees); use the interpreted backend"
                ),
            });
        }
        self.depth += instr.stack_effect();
        self.max_depth = self.max_depth.max(self.depth);
        self.cycle.push(instr);
        Ok(())
    }

    /// Emits a postorder walk of the expression tree rooted at `root`.
    fn lower_expr(&mut self, root: NodeId) -> Result<(), CodegenError> {
        enum Walk {
            Enter(NodeId),
            Emit(NodeId),
        }
        let mut work = vec![Walk::Enter(root)];
        while let Some(w) = work.pop() {
            match w {
                Walk::Enter(id) => {
                    work.push(Walk::Emit(id));
                    for &arg in self.graph.node(id).args.iter().rev() {
                        work.push(Walk::Enter(arg));
                    }
                }
                Walk::Emit(id) => {
                    let instr = match &self.graph.node(id).op {
                        Op::Const(c) => Instr::Const(*c),
                        Op::Read(sig) => Instr::Read(*sig),
                        Op::Add => Instr::Add,
                        Op::Sub => Instr::Sub,
                        Op::Mul => Instr::Mul,
                        Op::Div => Instr::Div,
                        Op::Neg => Instr::Neg,
                        Op::Abs => Instr::Abs,
                        Op::Min => Instr::Min,
                        Op::Max => Instr::Max,
                        Op::Cast(dt) => Instr::Cast(self.dtype_index(dt)?),
                        Op::Select => Instr::Select,
                    };
                    self.push(instr)?;
                }
            }
        }
        Ok(())
    }

    fn dtype_index(&mut self, dt: &fixref_fixed::DType) -> Result<u16, CodegenError> {
        if let Some(i) = self.dtypes.iter().position(|d| d == dt) {
            return Ok(i as u16);
        }
        if self.dtypes.len() > usize::from(u16::MAX) {
            return Err(CodegenError::UnsupportedOp {
                what: "compiled tape cast-type table exceeds 65536 entries".to_string(),
            });
        }
        self.dtypes.push(dt.clone());
        Ok((self.dtypes.len() - 1) as u16)
    }

    /// Closes the cycle under construction: deduplicates its instruction
    /// sequence into a kind and appends a schedule segment.
    fn close_cycle(&mut self, tick_after: bool) {
        let instrs = std::mem::take(&mut self.cycle);
        let max_stack = usize::try_from(self.max_depth).unwrap_or(0);
        self.depth = 0;
        self.max_depth = 0;

        let mut key = Vec::with_capacity(instrs.len() * 2);
        for instr in &instrs {
            instr.encode(&mut key);
        }
        let kind = match self.kind_index.get(&key) {
            Some(&k) => {
                // The duplicate's instructions do not count against the
                // budget: only unique kinds are stored.
                self.total_instrs -= instrs.len();
                k
            }
            None => {
                let k = self.kinds.len() as u32;
                self.kinds.push(CycleKind { instrs, max_stack });
                self.kind_index.insert(key, k);
                k
            }
        };
        self.schedule.push(Segment { kind, tick_after });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_fixed::DType;

    /// Captures a two-cycle run and checks the lowered shape: cycle
    /// deduplication, input vs computed stores, and a verification
    /// replay + compiled replay that match the interpreter bitwise.
    #[test]
    fn lowers_and_replays_a_simple_pipeline() {
        let t: DType = "<8,6,tc,st,rd>".parse().expect("dtype");
        let build = || {
            let d = Design::new();
            let x = d.sig_typed("x", t.clone());
            let y = d.reg_typed("y", t.clone());
            (d, x, y)
        };
        let run = |d: &Design, x: &fixref_sim::Sig, y: &fixref_sim::Reg| {
            for i in 0..8 {
                x.set(0.25 * f64::from(i));
                y.set(x.get() * 0.5 + y.get());
                d.tick();
            }
        };

        // Interpreted capture run.
        let (d, x, y) = build();
        d.record_graph(true);
        d.begin_capture();
        run(&d, &x, &y);
        let trace = d.end_capture().expect("capture active");
        d.record_graph(false);
        let (program, bound) = lower_trace(&d, &trace).expect("lowerable");

        // 8 identical cycles -> one kind; x is an input, y is computed.
        assert_eq!(program.kinds.len(), 1);
        assert_eq!(bound.schedule.len(), 8);
        assert_eq!(bound.inputs.len(), 8);
        assert_eq!(bound.expected.len(), 8);
        assert!(d.verify_compiled(&program, &bound), "tape must verify");

        // Replay on a fresh design matches the interpreter bitwise.
        let (d2, x2, y2) = build();
        run(&d2, &x2, &y2);
        let (d3, _x3, _y3) = build();
        let cycles = d3.replay_compiled(&program, &bound);
        assert_eq!(cycles, 8);
        let a = d2.report_for(&y2);
        let b = d3
            .find("y")
            .map(|id| d3.report_by_id(id))
            .expect("y exists");
        assert_eq!(a.stat.min().to_bits(), b.stat.min().to_bits());
        assert_eq!(a.stat.max().to_bits(), b.stat.max().to_bits());
        assert_eq!(a.produced.std().to_bits(), b.produced.std().to_bits());
        assert_eq!(a.writes, b.writes);
        assert_eq!(a.reads, b.reads);
    }

    /// A stale read (host keeps a local across a reassignment) must be
    /// caught by the verification replay, not silently miscompiled.
    #[test]
    fn verify_rejects_stale_reads() {
        let d = Design::new();
        let a = d.sig("a");
        let b = d.sig("b");
        d.record_graph(true);
        d.begin_capture();
        let stale = a.get(); // reads a == 0.0
        a.set(1.0);
        b.set(stale + 0.0); // tape sees Read(a) == 1.0, capture saw 0.0
        let trace = d.end_capture().expect("capture active");
        let (program, bound) = lower_trace(&d, &trace).expect("lowerable");
        assert!(!d.verify_compiled(&program, &bound));
    }
}
