//! The lint passes.
//!
//! Each pass is a pure function from a [`LintInput`] snapshot to a list
//! of diagnostics; [`Linter`] runs the configured set and assembles the
//! sorted [`LintReport`]. Passes iterate signals in id order and sort
//! every derived collection, so a report is a pure function of the
//! snapshot — bit-identical across runs, worker-pool shapes and
//! `FIXREF_TEST_SHARDS` values.

use fixref_fixed::{OverflowMode, RoundingMode};
use fixref_sim::{Design, Op, SignalId};

use crate::analysis::{feedback_cycles, non_const_defs, schedule_mismatch, unclamped_cycles};
use crate::diagnostic::{fmt_range, Action, Code, Diagnostic, LintConfig, LintReport, Severity};
use crate::input::LintInput;

/// `FXL001` — static-schedule verification.
///
/// The paper's hybrid methodology assumes every signal is assigned once
/// per clock cycle by one dataflow expression; the
/// [`declare_static_schedule`](Design::declare_static_schedule) call is
/// the author asserting that assumption. This pass checks it against the
/// recorded execution:
///
/// * **multiple definitions** — a signal with two or more distinct
///   non-constant dataflow definitions is steered by Rust-level control
///   flow the graph cannot see;
/// * **rate divergence** — a signal written substantially less (or more)
///   often than the signals it reads is gated by a strobe, so its
///   producers and consumers run on different schedules.
///
/// Constant definitions are exempt (stimulus and coefficient loads record
/// one `Const` per distinct value), as are producers whose definitions
/// are all constants. A signal whose *every* definition is a constant can
/// still hide a data-dependent strobe flag — a known limitation;
/// the strobe is still caught through the expressions it gates.
///
/// Severity is [`Severity::Error`] when a static schedule was declared
/// (the contract is broken) and [`Severity::Warning`] otherwise (the
/// design simply is not statically schedulable).
pub(crate) fn pass_static_schedule(input: &LintInput) -> Vec<Diagnostic> {
    let severity = if input.static_schedule {
        Severity::Error
    } else {
        Severity::Warning
    };
    let mut out = Vec::new();
    for sig in input.defined_signals() {
        let defs = non_const_defs(input, sig);
        if defs == 0 {
            continue;
        }
        let info = input.signal(sig);
        if defs >= 2 {
            out.push(Diagnostic {
                code: Code::StaticSchedule,
                severity,
                signal: info.name.clone(),
                message: format!(
                    "{defs} distinct non-constant definitions; a statically \
                     scheduled signal has exactly one dataflow expression"
                ),
                related: vec![],
                verdict: None,
            });
        }
        let mut mismatched: Vec<&str> = Vec::new();
        let mut detail = String::new();
        for producer in input.graph.fan_in(sig) {
            if producer == sig || non_const_defs(input, producer) == 0 {
                continue;
            }
            let pinfo = input.signal(producer);
            if schedule_mismatch(info.writes, pinfo.writes) {
                mismatched.push(&pinfo.name);
                if !detail.is_empty() {
                    detail.push_str(", ");
                }
                detail.push_str(&format!("{} ({} writes)", pinfo.name, pinfo.writes));
            }
        }
        if !mismatched.is_empty() {
            out.push(Diagnostic {
                code: Code::StaticSchedule,
                severity,
                signal: info.name.clone(),
                message: format!(
                    "written {} times but runs on a different schedule than \
                     its producers: {detail}",
                    info.writes
                ),
                related: mismatched.iter().map(|s| s.to_string()).collect(),
                verdict: None,
            });
        }
    }
    out
}

/// `FXL002` — feedback cycles with no saturating or clamping node.
///
/// Analytical (interval) range propagation diverges on any cycle whose
/// gain cannot be bounded — the paper's Table 1 shows exactly this on the
/// LMS coefficient loop (`b`, `w`). A cycle is fine if *some* member
/// bounds the values flowing through it: an explicit `range()`
/// annotation, a saturating fixed-point type, or a clamp/slicer
/// expression. Cycles with no such member are reported once each,
/// anchored at the lexicographically first member.
pub(crate) fn pass_unclamped_feedback(input: &LintInput) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for cycle in unclamped_cycles(input) {
        let mut names: Vec<String> = cycle.iter().map(|&s| input.name(s).to_string()).collect();
        names.sort();
        let anchor = names[0].clone();
        out.push(Diagnostic {
            code: Code::UnclampedFeedback,
            severity: Severity::Warning,
            signal: anchor,
            message: format!(
                "feedback cycle of {} signal(s) with no saturating, clamped \
                 or range()-annotated member; analytical range propagation \
                 diverges here — bound one member or rely on statistics",
                names.len()
            ),
            related: names,
            verdict: None,
        });
    }
    out
}

/// `FXL003` — wrap-mode signals steering control decisions.
///
/// A wrap-mode (`wp`) overflow is silent: a value one LSB past the range
/// edge reappears at the far end of the range with its *sign flipped*. A
/// signal quantized that way feeding the condition of a `select` (the
/// recorded form of every data-dependent decision) flips the decision for
/// exactly the overflowing inputs — the hardest class of refinement bug
/// to find by simulation, because it needs an overflowing stimulus.
pub(crate) fn pass_wrap_control(input: &LintInput) -> Vec<Diagnostic> {
    // Collect every signal read (transitively) inside a select condition.
    let mut in_condition: Vec<SignalId> = Vec::new();
    for (_, node) in input.graph.iter() {
        if !matches!(node.op, Op::Select) {
            continue;
        }
        let mut stack = vec![node.args[0]];
        while let Some(n) = stack.pop() {
            let n = input.graph.node(n);
            if let Op::Read(s) = n.op {
                if !in_condition.contains(&s) {
                    in_condition.push(s);
                }
            }
            stack.extend(n.args.iter().copied());
        }
    }
    in_condition.sort();
    let mut out = Vec::new();
    for sig in in_condition {
        let Some(info) = input.signals.get(sig.raw() as usize) else {
            continue;
        };
        let Some(dt) = &info.dtype else { continue };
        if dt.overflow() != OverflowMode::Wrap {
            continue;
        }
        out.push(Diagnostic {
            code: Code::WrapControl,
            severity: Severity::Warning,
            signal: info.name.clone(),
            message: format!(
                "wrap-mode signal ({dt}) feeds a select condition; an \
                 overflow flips the decision silently — saturate it or \
                 prove the range"
            ),
            related: vec![],
            verdict: None,
        });
    }
    out
}

/// `FXL004` — wrap-mode signal declared narrower than its propagated
/// range.
///
/// Section 5.1's MSB rule: a wrap-mode assignment is only correct when
/// the destination range contains the true range of the expression. When
/// the propagated interval already escapes the declared `range()` (or,
/// absent one, the dtype's representable interval), values *will* alias
/// — this is a definite corruption, reported as an error.
pub(crate) fn pass_wrap_narrower(input: &LintInput) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for info in &input.signals {
        let Some(dt) = &info.dtype else { continue };
        if dt.overflow() != OverflowMode::Wrap {
            continue;
        }
        // With a range() annotation the propagated interval is pinned to
        // the override, so the observed (statistic) range is the only
        // independent evidence; without one, the propagated union is.
        let declared = info
            .range_override
            .unwrap_or_else(|| fixref_fixed::Interval::from_dtype(dt));
        let evidence = if info.range_override.is_some() {
            match info.stat {
                Some(stat) => stat,
                None => continue,
            }
        } else {
            info.prop
        };
        if evidence.is_empty() || declared.contains_interval(&evidence) {
            continue;
        }
        out.push(Diagnostic {
            code: Code::WrapNarrowerThanPropagated,
            severity: Severity::Error,
            signal: info.name.clone(),
            message: format!(
                "declared range {} cannot hold the propagated range {} and \
                 the overflow mode is wrap: values alias (MSB rule, \
                 Section 5.1)",
                fmt_range(declared.lo, declared.hi),
                fmt_range(evidence.lo, evidence.hi),
            ),
            related: vec![],
            verdict: None,
        });
    }
    out
}

/// `FXL005` — truncating rounding inside a feedback cycle.
///
/// Floor rounding shifts the quantization-error mean by half an LSB
/// (Section 5.2). In feed-forward paths that is a fixed DC offset; inside
/// a feedback cycle the offset re-enters the loop and *integrates*,
/// drifting the state. Every cycle member with a `fl` type is flagged —
/// whether or not the cycle is clamped (clamping bounds the range, not
/// the bias).
pub(crate) fn pass_truncation_in_feedback(input: &LintInput) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for cycle in feedback_cycles(input) {
        for &sig in &cycle {
            let info = input.signal(sig);
            let Some(dt) = &info.dtype else { continue };
            if dt.rounding() != RoundingMode::Floor {
                continue;
            }
            let mut names: Vec<String> = cycle.iter().map(|&s| input.name(s).to_string()).collect();
            names.sort();
            out.push(Diagnostic {
                code: Code::TruncationInFeedback,
                severity: Severity::Warning,
                signal: info.name.clone(),
                message: format!(
                    "floor-rounded type ({dt}) inside a feedback cycle: the \
                     half-LSB truncation bias accumulates as DC drift \
                     (Section 5.2) — use rd rounding here"
                ),
                related: names,
                verdict: None,
            });
        }
    }
    out
}

/// `FXL006` — dead and multiply-defined signals.
///
/// Informational inventory: a signal written but never read is dead
/// weight in the refined netlist, and a signal with several distinct
/// dataflow definitions will surprise anyone reading the generated HDL
/// (each definition becomes a mux arm). Neither is an error — probes and
/// staged rewrites produce both legitimately.
pub(crate) fn pass_dead_or_multiply_defined(input: &LintInput) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for info in &input.signals {
        if info.writes > 0 && info.reads == 0 {
            out.push(Diagnostic {
                code: Code::DeadOrMultiplyDefined,
                severity: Severity::Info,
                signal: info.name.clone(),
                message: format!(
                    "written {} time(s) but never read (dead signal or probe)",
                    info.writes
                ),
                related: vec![],
                verdict: None,
            });
        }
        let defs = non_const_defs(input, info.id);
        if defs >= 2 {
            out.push(Diagnostic {
                code: Code::DeadOrMultiplyDefined,
                severity: Severity::Info,
                signal: info.name.clone(),
                message: format!(
                    "{defs} distinct non-constant definitions (each becomes \
                     a mux arm in generated HDL)"
                ),
                related: vec![],
                verdict: None,
            });
        }
    }
    out
}

fn run_pass(code: Code, input: &LintInput) -> Vec<Diagnostic> {
    match code {
        Code::StaticSchedule => pass_static_schedule(input),
        Code::UnclampedFeedback => pass_unclamped_feedback(input),
        Code::WrapControl => pass_wrap_control(input),
        Code::WrapNarrowerThanPropagated => pass_wrap_narrower(input),
        Code::TruncationInFeedback => pass_truncation_in_feedback(input),
        Code::DeadOrMultiplyDefined => pass_dead_or_multiply_defined(input),
    }
}

/// The diagnostics engine: runs every non-`Allow`ed pass over a design
/// snapshot and returns the sorted report.
#[derive(Debug, Clone, Default)]
pub struct Linter {
    config: LintConfig,
}

impl Linter {
    /// A linter with the all-warn default configuration.
    pub fn new() -> Self {
        Linter::default()
    }

    /// A linter with an explicit per-code configuration.
    pub fn with_config(config: LintConfig) -> Self {
        Linter { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &LintConfig {
        &self.config
    }

    /// Lints a design: snapshots it and runs the passes. The design
    /// should have been simulated with
    /// [`record_graph`](Design::record_graph) enabled — with an empty
    /// graph only the monitor-counter passes can see anything.
    pub fn run(&self, design: &Design) -> LintReport {
        self.run_input(&LintInput::from_design(design))
    }

    /// Lints a pre-built snapshot.
    pub fn run_input(&self, input: &LintInput) -> LintReport {
        let mut report = LintReport::default();
        for code in Code::ALL {
            if self.config.action(code) == Action::Allow {
                continue;
            }
            report.diagnostics.extend(run_pass(code, input));
        }
        report.sort();
        report
    }
}

/// Runs only the `FXL001` static-schedule pass over a design — the
/// narrow entry point the compiled backend uses to decide whether a
/// captured run may be compiled into a replay. Returns the (sorted)
/// violations; empty means the schedule is static.
pub fn check_static_schedule(design: &Design) -> Vec<Diagnostic> {
    let input = LintInput::from_design(design);
    let mut diags = pass_static_schedule(&input);
    diags.sort_by(|a, b| (&a.signal, &a.message).cmp(&(&b.signal, &b.message)));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_sim::{SignalRef, Value};

    /// A leaky accumulator with a slicer: one unclamped cycle (`acc`),
    /// one slicer-clamped signal (`y`), stimulus `x`.
    fn slicer_design() -> Design {
        let d = Design::new();
        let x = d.sig("x");
        let acc = d.reg("acc");
        let y = d.sig("y");
        d.record_graph(true);
        for i in 0..64 {
            x.set((i as f64 * 0.37).sin());
            acc.set(acc.get() * 0.99 + x.get());
            y.set(
                acc.get()
                    .select_positive(Value::from(1.0), Value::from(-1.0)),
            );
            d.tick();
        }
        d.record_graph(false);
        d
    }

    #[test]
    fn clean_static_schedule_produces_no_fxl001() {
        let d = slicer_design();
        assert!(check_static_schedule(&d).is_empty());
    }

    #[test]
    fn strobed_signal_breaks_declared_schedule_as_error() {
        let d = Design::new();
        d.declare_static_schedule();
        let x = d.sig("x");
        let xs = d.sig("xs");
        let slow = d.sig("slow");
        d.record_graph(true);
        for i in 0..64 {
            x.set(i as f64 * 0.01);
            xs.set(x.get() * 0.5);
            // Strobe: slow runs at half the rate of its producer xs.
            if i % 2 == 0 {
                slow.set(xs.get() + 1.0);
            }
            d.tick();
        }
        d.record_graph(false);
        let diags = check_static_schedule(&d);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].signal, "slow");
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].related, vec!["xs".to_string()]);
    }

    #[test]
    fn data_dependent_definitions_flagged_as_warning_when_undeclared() {
        let d = Design::new();
        let x = d.sig("x");
        let y = d.sig("y");
        d.record_graph(true);
        for i in 0..64 {
            x.set(i as f64 * 0.01 - 0.3);
            // Rust-level branch: two distinct dataflow definitions of y.
            if d.peek(x.id()).0 > 0.0 {
                y.set(x.get() * 2.0);
            } else {
                y.set(-x.get());
            }
            d.tick();
        }
        d.record_graph(false);
        let diags = check_static_schedule(&d);
        let multi: Vec<_> = diags.iter().filter(|d| d.signal == "y").collect();
        assert_eq!(multi.len(), 1, "{diags:?}");
        assert_eq!(multi[0].severity, Severity::Warning);
        assert!(multi[0].message.contains("2 distinct non-constant"));
    }

    #[test]
    fn unclamped_cycle_reported_once_with_members() {
        let report = Linter::new().run(&slicer_design());
        let fxl002 = report.with_code(Code::UnclampedFeedback);
        assert_eq!(fxl002.len(), 1, "{report:?}");
        assert_eq!(fxl002[0].signal, "acc");
        assert_eq!(fxl002[0].related, vec!["acc".to_string()]);
        // The slicer-clamped y is not part of any unclamped cycle.
        assert!(report.with_code(Code::StaticSchedule).is_empty());
    }

    #[test]
    fn wrap_signal_in_select_condition_is_flagged() {
        let d = Design::new();
        let x = d.sig_typed("x", "<8,6,tc,wp,rd>".parse().expect("valid"));
        let y = d.sig("y");
        d.record_graph(true);
        for i in 0..32 {
            x.set(i as f64 * 0.05 - 0.8);
            y.set(x.get().select_positive(Value::from(1.0), Value::from(0.0)));
            d.tick();
        }
        d.record_graph(false);
        let report = Linter::new().run(&d);
        let fxl003 = report.with_code(Code::WrapControl);
        assert_eq!(fxl003.len(), 1, "{report:?}");
        assert_eq!(fxl003[0].signal, "x");
        // The same design with saturation is quiet on FXL003.
        let d2 = Design::new();
        let x2 = d2.sig_typed("x", "<8,6,tc,st,rd>".parse().expect("valid"));
        let y2 = d2.sig("y");
        d2.record_graph(true);
        for i in 0..32 {
            x2.set(i as f64 * 0.05 - 0.8);
            y2.set(x2.get().select_positive(Value::from(1.0), Value::from(0.0)));
            d2.tick();
        }
        d2.record_graph(false);
        assert!(Linter::new()
            .run(&d2)
            .with_code(Code::WrapControl)
            .is_empty());
    }

    #[test]
    fn an_unassigned_select_on_a_wrap_signal_is_not_flagged() {
        // The select steered by wrap-mode `x` is computed every cycle but
        // never assigned: it is no part of the recorded design.
        let d = Design::new();
        let x = d.sig_typed("x", "<8,6,tc,wp,rd>".parse().expect("valid"));
        let y = d.sig("y");
        d.record_graph(true);
        for i in 0..32 {
            x.set(i as f64 * 0.05 - 0.8);
            let decision = x.get().select_positive(Value::from(1.0), Value::from(0.0));
            assert!(decision.fix() >= 0.0);
            y.set(x.get() * 0.5);
            d.tick();
        }
        d.record_graph(false);
        let report = Linter::new().run(&d);
        assert!(report.with_code(Code::WrapControl).is_empty(), "{report:?}");
        assert!(d.graph().iter().all(|(_, n)| n.op != Op::Select));
    }

    #[test]
    fn wrap_type_narrower_than_propagated_is_an_error() {
        let d = Design::new();
        let x = d.sig("x");
        x.range(-2.0, 2.0);
        // <4,2,tc,wp,rd> represents [-2, 1.75): narrower than y's
        // propagated range x + x = [-4, 4].
        let y = d.sig_typed("y", "<4,2,tc,wp,rd>".parse().expect("valid"));
        d.record_graph(true);
        for i in 0..32 {
            x.set(i as f64 * 0.1 - 1.5);
            y.set(x.get() + x.get());
            d.tick();
        }
        d.record_graph(false);
        let report = Linter::new().run(&d);
        let fxl004 = report.with_code(Code::WrapNarrowerThanPropagated);
        assert_eq!(fxl004.len(), 1, "{report:?}");
        assert_eq!(fxl004[0].signal, "y");
        assert_eq!(fxl004[0].severity, Severity::Error);
        assert!(fxl004[0].message.contains("values alias"));
    }

    #[test]
    fn floor_rounding_in_feedback_is_flagged_even_when_clamped() {
        let d = Design::new();
        let x = d.sig("x");
        let acc = d.reg_typed("acc", "<12,10,tc,st,fl>".parse().expect("valid"));
        d.record_graph(true);
        for i in 0..32 {
            x.set(i as f64 * 0.01);
            acc.set(acc.get() * 0.9 + x.get());
            d.tick();
        }
        d.record_graph(false);
        let report = Linter::new().run(&d);
        let fxl005 = report.with_code(Code::TruncationInFeedback);
        assert_eq!(fxl005.len(), 1, "{report:?}");
        assert_eq!(fxl005[0].signal, "acc");
        // Saturating type, so FXL002 stays quiet: the hazard is the
        // rounding bias, not the range.
        assert!(report.with_code(Code::UnclampedFeedback).is_empty());
    }

    #[test]
    fn dead_and_multiply_defined_signals_are_informational() {
        let d = Design::new();
        let x = d.sig("x");
        let probe = d.sig("probe");
        d.record_graph(true);
        for i in 0..16 {
            x.set(i as f64 * 0.1);
            probe.set(x.get() * 3.0);
            d.tick();
        }
        d.record_graph(false);
        let report = Linter::new().run(&d);
        let fxl006 = report.with_code(Code::DeadOrMultiplyDefined);
        assert_eq!(fxl006.len(), 1, "{report:?}");
        assert_eq!(fxl006[0].signal, "probe");
        assert_eq!(fxl006[0].severity, Severity::Info);
        assert!(fxl006[0].message.contains("never read"));
    }

    #[test]
    fn allow_suppresses_a_code_entirely() {
        let d = slicer_design();
        let quiet = Linter::with_config(
            LintConfig::new()
                .allow(Code::UnclampedFeedback)
                .allow(Code::DeadOrMultiplyDefined),
        )
        .run(&d);
        assert!(quiet.is_clean(), "{quiet:?}");
    }

    #[test]
    fn report_is_deterministic_across_runs() {
        let a = Linter::new().run(&slicer_design()).render_jsonl();
        let b = Linter::new().run(&slicer_design()).render_jsonl();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
