//! Straight-line bytecode programs for compiled re-simulation.
//!
//! The interpreted simulator executes a design by running its host-side
//! description — every assignment walks [`Value`](crate::Value) operator
//! overloads and pays a registry lookup per monitor. For designs whose
//! per-cycle behavior is *static* (the FXL001 static-schedule contract),
//! one monitored capture run fixes the whole execution: the sequence of
//! assignments, the expression tree behind each one, and the stimulus
//! values fed in from outside. This module holds the plain-data result of
//! lowering such a capture to a flat op tape:
//!
//! - [`ExecTrace`] — what [`Design::begin_capture`](crate::Design::begin_capture)
//!   records during one interpreted run: one [`TraceStep`] per assignment
//!   (with its signal-flow-graph root and incoming value) or tick, plus
//!   final read counts and the cycle total;
//! - [`Instr`] / [`CycleKind`] / [`CompiledProgram`] — the bytecode: a
//!   stack machine over [`Value`](crate::Value) operands whose `Store` ops feed the
//!   same monitored assignment pipeline the interpreter uses;
//! - [`BoundTrace`] — one design-run binding of a program: the cycle
//!   schedule, the captured input stream consumed by `StoreInput`, the
//!   expected values used by the post-compile verification replay, and
//!   the read-count totals spliced in after a replay.
//!
//! Lowering (graph + trace → program) lives in `fixref-codegen`; the
//! replay executor lives on [`Design`](crate::Design) because it drives
//! the private assignment pipeline. Everything here is `Send` plain data,
//! so scenario-sweep workers can compile in parallel and hand programs
//! across threads.

use fixref_fixed::{DType, Interval};

use crate::design::SignalId;
use crate::graph::NodeId;

/// One captured step of an interpreted run.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceStep {
    /// An executed assignment: the target signal, the root of its
    /// recorded expression in the signal-flow graph, and the incoming
    /// value *before* quantization (float path, fixed path, propagated
    /// interval).
    Assign {
        /// The assigned signal.
        sig: SignalId,
        /// The interned root of the assignment's expression tree.
        root: NodeId,
        /// Incoming float-path value.
        flt: f64,
        /// Incoming fixed-path value (pre-quantization).
        fix: f64,
        /// Incoming propagated range.
        itv: Interval,
    },
    /// A clock tick ([`Design::tick`](crate::Design::tick)).
    Tick,
}

/// The raw capture of one interpreted run: every assignment and tick in
/// execution order, plus the per-signal read-count totals and the cycle
/// count at the end of the run.
#[derive(Debug, Clone, Default)]
pub struct ExecTrace {
    /// Per-signal `(flt, fix)` state at
    /// [`Design::begin_capture`](crate::Design::begin_capture)
    /// (raw-id indexed) — the state a verification replay starts from.
    pub start: Vec<(f64, f64)>,
    /// Assignments and ticks in execution order.
    pub steps: Vec<TraceStep>,
    /// Final per-signal read counts, indexed by raw signal id. Host code
    /// may read a signal into a local and reuse it, so read counts are
    /// not recoverable from the expression trees — they are captured and
    /// spliced back in after a replay.
    pub reads: Vec<u64>,
    /// Clock ticks during the capture.
    pub cycles: u64,
}

/// One stack-machine instruction. Operands are full dual-path
/// [`Value`](crate::Value)s, so replayed arithmetic (float path, fixed
/// path, interval rules) is executed by the exact same operator code as
/// the interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Push a literal: both paths carry the constant, point interval.
    Const(f64),
    /// Push the current value of a signal (same interval rule as a
    /// monitored read; the read *count* is spliced from the trace).
    Read(SignalId),
    /// Pop two, push their sum.
    Add,
    /// Pop two, push their difference.
    Sub,
    /// Pop two, push their product.
    Mul,
    /// Pop two, push their quotient.
    Div,
    /// Pop one, push its negation.
    Neg,
    /// Pop one, push its absolute value.
    Abs,
    /// Pop two, push the elementwise minimum.
    Min,
    /// Pop two, push the elementwise maximum.
    Max,
    /// Pop one, push it cast through the indexed type (index into
    /// [`CompiledProgram::dtypes`]).
    Cast(u16),
    /// Pop `[condition, then, else]` (pushed in that order), push the
    /// fixed-path-steered selection.
    Select,
    /// Pop one and run the full monitored assignment pipeline on it.
    Store(SignalId),
    /// Consume the next captured input sample from the bound trace and
    /// run the full monitored assignment pipeline on it.
    StoreInput(SignalId),
}

impl Instr {
    /// Appends a stable word encoding of the instruction to `out` — the
    /// key used for cycle-kind deduplication.
    pub fn encode(&self, out: &mut Vec<u64>) {
        match self {
            Instr::Const(c) => out.extend([0, c.to_bits()]),
            Instr::Read(s) => out.extend([1, u64::from(s.raw())]),
            Instr::Add => out.push(2),
            Instr::Sub => out.push(3),
            Instr::Mul => out.push(4),
            Instr::Div => out.push(5),
            Instr::Neg => out.push(6),
            Instr::Abs => out.push(7),
            Instr::Min => out.push(8),
            Instr::Max => out.push(9),
            Instr::Cast(k) => out.extend([10, u64::from(*k)]),
            Instr::Select => out.push(11),
            Instr::Store(s) => out.extend([12, u64::from(s.raw())]),
            Instr::StoreInput(s) => out.extend([13, u64::from(s.raw())]),
        }
    }

    /// Net change this instruction applies to the operand stack depth.
    pub fn stack_effect(&self) -> isize {
        match self {
            Instr::Const(_) | Instr::Read(_) => 1,
            // `StoreInput` feeds from the bound input stream, not the stack.
            Instr::Neg | Instr::Abs | Instr::Cast(_) | Instr::StoreInput(_) => 0,
            Instr::Add
            | Instr::Sub
            | Instr::Mul
            | Instr::Div
            | Instr::Min
            | Instr::Max
            | Instr::Store(_) => -1,
            Instr::Select => -2,
        }
    }
}

/// The deduplicated instruction sequence of one cycle shape. Identical
/// cycles (same assignments, same expression structure) share one kind,
/// so a 4000-sample loop typically lowers to a handful of kinds.
#[derive(Debug, Clone, Default)]
pub struct CycleKind {
    /// The instruction tape for one execution of this cycle shape.
    pub instrs: Vec<Instr>,
    /// Peak operand-stack depth while executing `instrs`.
    pub max_stack: usize,
}

/// A lowered program: the cycle kinds plus the type table `Cast` indexes
/// into. Plain data.
#[derive(Debug, Clone, Default)]
pub struct CompiledProgram {
    /// Deduplicated cycle shapes.
    pub kinds: Vec<CycleKind>,
    /// Types referenced by [`Instr::Cast`].
    pub dtypes: Vec<DType>,
}

impl CompiledProgram {
    /// Total instruction count across all kinds.
    pub fn instruction_count(&self) -> usize {
        self.kinds.iter().map(|k| k.instrs.len()).sum()
    }

    /// Peak operand-stack depth across all kinds.
    pub fn max_stack(&self) -> usize {
        self.kinds.iter().map(|k| k.max_stack).max().unwrap_or(0)
    }
}

/// One scheduled segment of a replay: which cycle kind to execute and
/// whether a clock tick follows it (the final segment of a run may be
/// unticked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Index into [`CompiledProgram::kinds`].
    pub kind: u32,
    /// Whether a tick commits registers after this segment.
    pub tick_after: bool,
}

/// One captured input sample consumed by [`Instr::StoreInput`] —
/// the incoming value of a stimulus assignment, replayed verbatim and
/// re-quantized through the signal's *current* type at assign time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputSample {
    /// Float-path value.
    pub flt: f64,
    /// Fixed-path value (pre-quantization).
    pub fix: f64,
    /// Propagated range of the incoming value.
    pub itv: Interval,
}

/// The per-run binding of a [`CompiledProgram`]: schedule, input stream,
/// verification expectations, and the read/cycle totals to splice.
#[derive(Debug, Clone, Default)]
pub struct BoundTrace {
    /// Per-signal `(flt, fix)` state at capture start (raw-id indexed),
    /// used by [`Design::verify_compiled`](crate::Design::verify_compiled)
    /// as the scratch starting state.
    pub start: Vec<(f64, f64)>,
    /// Cycle-kind schedule in execution order.
    pub schedule: Vec<Segment>,
    /// Input samples in `StoreInput` encounter order.
    pub inputs: Vec<InputSample>,
    /// Expected incoming `(flt, fix)` of every computed (non-input)
    /// `Store`, in encounter order — consumed once by
    /// [`Design::verify_compiled`](crate::Design::verify_compiled) to
    /// prove the tape reproduces the capture before it is trusted.
    pub expected: Vec<(f64, f64)>,
    /// Per-signal read-count totals (raw-id indexed) spliced in after a
    /// replay.
    pub reads: Vec<u64>,
    /// Clock ticks of the captured run.
    pub cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_effects_are_consistent_with_arity() {
        assert_eq!(Instr::Const(1.0).stack_effect(), 1);
        assert_eq!(Instr::Add.stack_effect(), -1);
        assert_eq!(Instr::Select.stack_effect(), -2);
        assert_eq!(Instr::Store(SignalId::from_raw(0)).stack_effect(), -1);
    }
}
