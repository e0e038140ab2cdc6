//! Captured runs and their compiled replay.
//!
//! The interpreted simulator executes a design by running its host-side
//! description — every assignment walks [`Value`] operator overloads and
//! pays a registry lookup per monitor. For designs whose per-cycle
//! behavior is *static* (the FXL001 static-schedule contract), one
//! monitored capture run fixes the whole execution: the sequence of
//! assignments, the recorded definition behind each one, and the stimulus
//! values fed in from outside. This module holds the plain-data forms of
//! that capture:
//!
//! - [`ExecTrace`] — what [`Design::begin_capture`](crate::Design::begin_capture)
//!   records during one interpreted run: one [`TraceStep`] per assignment
//!   (with its signal-flow-graph root and incoming value) or tick, plus
//!   final read counts and the cycle total;
//! - [`Replay`] — the capture compiled against the recorded graph: each
//!   distinct definition it executed, compiled once into the post-order
//!   form of [`Assignment`], and a step stream of definition indices,
//!   captured input samples and ticks.
//!
//! [`Design::verify_replay`](crate::Design::verify_replay) proves a
//! replay against its capture and [`Design::replay`](crate::Design::replay)
//! runs it; both live on the design because they drive its private
//! assignment pipeline. Everything here is `Send` plain data, so
//! scenario-sweep workers can compile in parallel and hand replays across
//! threads.

use fixref_fixed::Interval;

use crate::design::SignalId;
use crate::graph::{Graph, NodeId, Op, WordMap};
use crate::netlist::Assignment;
use crate::value::Value;

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

/// One step of a [`Replay`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Evaluate the indexed definition and assign it to its signal.
    Compute(u32),
    /// Assign the next captured input sample to the signal.
    Input(SignalId),
    /// A clock tick.
    Tick,
}

/// A captured run compiled for replay: the definitions it executed and
/// the order it executed them in.
///
/// An assignment whose recorded root is a constant is a stimulus input
/// (or a pre-recording initialization): its captured incoming value is
/// replayed verbatim and re-quantized through the signal's *current* type.
/// Every other assignment evaluates its definition on the live signal
/// values. Each distinct `(signal, root)` pair is compiled once, in the
/// post-order form [`Assignment`] uses for bit-true evaluation, so shared
/// subexpressions are evaluated once per assignment.
///
/// Compiling is *optimistic*: host control flow that breaks the static
/// schedule contract (stale reads through locals, Rust-level branches)
/// yields a replay that does not reproduce the capture. A replay is
/// therefore only trusted once
/// [`Design::verify_replay`](crate::Design::verify_replay) has proved it
/// against the capture; the capture can be dropped after that.
#[derive(Debug, Clone)]
pub struct Replay {
    pub(crate) defs: Vec<Assignment>,
    /// One step per step of the capture, in the same order.
    pub(crate) steps: Vec<Step>,
    pub(crate) inputs: Vec<Value>,
    pub(crate) reads: Vec<u64>,
    cycles: u64,
}

impl Replay {
    /// Compiles `trace` against `graph`, the signal-flow graph recorded
    /// during the capture (its node ids are the trace's roots).
    pub fn compile(graph: &Graph, trace: &ExecTrace) -> Replay {
        let mut index: WordMap<(SignalId, NodeId), u32> = WordMap::default();
        let mut defs = Vec::new();
        let mut steps = Vec::with_capacity(trace.steps.len());
        let mut inputs = Vec::new();
        for step in &trace.steps {
            match *step {
                TraceStep::Assign {
                    sig,
                    root,
                    flt,
                    fix,
                    itv,
                } => {
                    if matches!(graph.node(root).op, Op::Const(_)) {
                        steps.push(Step::Input(sig));
                        inputs.push(Value::with_paths(flt, fix, itv));
                    } else {
                        let def = *index.entry((sig, root)).or_insert_with(|| {
                            defs.push(Assignment::compile(
                                graph,
                                sig,
                                sig.raw() as usize,
                                root,
                                |s| Some(s.raw() as usize),
                            ));
                            (defs.len() - 1) as u32
                        });
                        steps.push(Step::Compute(def));
                    }
                }
                TraceStep::Tick => steps.push(Step::Tick),
            }
        }
        Replay {
            defs,
            steps,
            inputs,
            reads: trace.reads.clone(),
            cycles: trace.cycles,
        }
    }

    /// Distinct definitions the replay evaluates.
    pub fn definitions(&self) -> usize {
        self.defs.len()
    }

    /// Steps per replay: assignments plus ticks.
    pub fn steps(&self) -> usize {
        self.steps.len()
    }

    /// Clock cycles per replay.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;
    use crate::{Reg, Sig};
    use fixref_fixed::DType;

    /// Captures an eight-cycle run and checks the compiled shape: one
    /// definition per computed signal, input vs computed steps, and a
    /// verification replay plus a replay that match the interpreter
    /// bitwise.
    #[test]
    fn lowers_and_replays_a_simple_pipeline() {
        let t: DType = "<8,6,tc,st,rd>".parse().expect("dtype");
        let build = || {
            let d = Design::new();
            let x = d.sig_typed("x", t.clone());
            let y = d.reg_typed("y", t.clone());
            (d, x, y)
        };
        let run = |d: &Design, x: &Sig, y: &Reg| {
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
        let replay = Replay::compile(&d.graph(), &trace);

        // x is an input every cycle; y's one definition runs 8 times.
        assert_eq!(replay.definitions(), 1);
        assert_eq!(replay.steps(), 8 * 3);
        assert_eq!(replay.cycles(), 8);
        assert_eq!(replay.inputs.len(), 8);
        assert!(d.verify_replay(&replay, &trace), "the replay must verify");

        // A replay on a fresh design matches the interpreter bitwise.
        let (d2, x2, y2) = build();
        run(&d2, &x2, &y2);
        let (d3, _x3, _y3) = build();
        assert_eq!(d3.replay(&replay), 8);
        assert_eq!(d2.export_stats(), d3.export_stats());
        let a = d2.report_for(&y2);
        let b = d3.report_by_id(d3.find("y").expect("y exists"));
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
        b.set(stale + 0.0); // the definition reads a == 1.0, the capture saw 0.0
        let trace = d.end_capture().expect("capture active");
        let replay = Replay::compile(&d.graph(), &trace);
        assert_eq!(replay.definitions(), 1);
        assert!(!d.verify_replay(&replay, &trace));
    }
}
