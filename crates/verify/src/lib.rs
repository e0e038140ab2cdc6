//! `fixref-verify` — formal verification of lint findings.
//!
//! The lint passes (`fixref-lint`) are heuristic pattern matchers: an
//! unclamped feedback cycle *might* overflow, a floor-rounded loop
//! *might* sustain a limit cycle. For small-state designs this crate
//! settles the question with a bounded model checker: an explicit-state
//! reachability engine whose transition relation is bit-exact against the
//! simulator's fixed-point semantics (every typed assignment runs the
//! same [`fixref_fixed::quantize()`] pipeline, wires evaluate in the
//! netlist order the RTL interpreter shares, registers latch at the
//! tick).
//!
//! Three verdicts are possible, attached to each checked diagnostic:
//!
//! * [`Verdict::Proved`] — the reachable set closed without the hazard;
//!   the warning is discharged by proof.
//! * [`Verdict::CounterexampleFound`] — a concrete stimulus triggers the
//!   hazard; the [`Witness`] carries the input streams and register
//!   trace, and lowers to a [`fixref_sim::ScenarioSet`] so the sweep
//!   engine replays it bit-identically.
//! * [`Verdict::Unknown`] — the cone does not extract to a finite model
//!   (untyped state, wide inputs) or the exploration budget ran out; the
//!   reason is reported honestly.
//!
//! # Which diagnostics are checked
//!
//! | Code | Property |
//! |------|----------|
//! | `FXL002` | no reachable overflow on any typed cycle member |
//! | `FXL004` | no reachable overflow on the flagged signal |
//! | `FXL005` | no zero-input limit cycle through nonzero state |
//!
//! # Example
//!
//! ```
//! use fixref_fixed::{DType, OverflowMode};
//! use fixref_lint::{Linter, Verdict};
//! use fixref_sim::Design;
//! use fixref_verify::Verifier;
//!
//! // A leaky wrap-mode accumulator: lint flags the cycle (FXL002), the
//! // checker proves the flag spurious — |y| never leaves the range.
//! let t_in = DType::tc("in", 3, 2).unwrap().with_overflow(OverflowMode::Wrap);
//! let t_acc = DType::tc("acc", 4, 2).unwrap().with_overflow(OverflowMode::Wrap);
//! let d = Design::new();
//! let x = d.sig_typed("x", t_in);
//! let y = d.reg_typed("y", t_acc);
//! d.record_graph(true);
//! for i in 0..16 {
//!     x.set(((i % 7) as f64 - 3.0) * 0.25);
//!     y.set(y.get() * 0.5 + x.get());
//!     d.tick();
//! }
//! d.record_graph(false);
//!
//! let report = Linter::new().run(&d);
//! let verified = Verifier::new().verify_design(&d, &report, None);
//! let y_diag = &verified.report.diagnostics[0];
//! assert_eq!(y_diag.verdict, Some(Verdict::Proved));
//! ```
//!
//! Determinism: exploration is breadth-first with lexicographic input
//! enumeration over id-sorted inputs, so verdicts, state counts, depths
//! and witnesses are bit-identical on every run, platform and
//! `FIXREF_TEST_SHARDS` value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bmc;
mod model;

pub use bmc::{CheckLimits, CheckResult, Hazard, Witness};
pub use model::{InputVar, Model, ModelError, ModelLimits, RegVar, StepOutput, WireVar};

use fixref_lint::{Code, Diagnostic, LintInput, LintReport, Verdict};
use fixref_obs::{Event, Recorder};
use fixref_sim::{Design, SignalId};

/// Budget knobs for the verifier.
#[derive(Debug, Clone, Copy)]
pub struct VerifyOptions {
    /// Maximum distinct reachable states per check.
    pub max_states: usize,
    /// Maximum exploration depth (ticks) per check.
    pub max_depth: usize,
    /// Maximum representable values per free input.
    pub max_alphabet: u64,
    /// Maximum product of input alphabet sizes (per-state branching).
    pub max_branching: u64,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            max_states: 1 << 16,
            max_depth: 1 << 12,
            max_alphabet: 64,
            max_branching: 4096,
        }
    }
}

/// The outcome of checking one diagnostic.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The diagnostic's code.
    pub code: Code,
    /// The diagnostic's anchor signal.
    pub signal: String,
    /// The formal verdict.
    pub verdict: Verdict,
    /// Distinct states explored (0 when extraction failed).
    pub states: usize,
    /// Deepest tick explored, or witness length for a counterexample.
    pub depth: usize,
    /// The counterexample, for [`Verdict::CounterexampleFound`].
    pub witness: Option<Witness>,
}

impl Outcome {
    /// One-line rendering (`verify: FXL002 b proved (states=34, depth=5)`).
    pub fn render(&self) -> String {
        match &self.verdict {
            Verdict::Proved => format!(
                "verify: {} {} proved (states={}, depth={})",
                self.code, self.signal, self.states, self.depth
            ),
            Verdict::CounterexampleFound => {
                let hazard = self
                    .witness
                    .as_ref()
                    .map(|w| w.hazard.describe())
                    .unwrap_or_else(|| "hazard".to_string());
                format!(
                    "verify: {} {} counterexample ({} in {} tick(s))",
                    self.code, self.signal, hazard, self.depth
                )
            }
            Verdict::Unknown { reason } => {
                format!("verify: {} {} unknown({reason})", self.code, self.signal)
            }
        }
    }
}

/// A lint report with formal verdicts attached, plus per-check detail.
#[derive(Debug, Clone)]
pub struct VerifiedReport {
    /// The input report with [`Diagnostic::verdict`] filled in on every
    /// checked diagnostic (unchecked diagnostics keep `None`).
    pub report: LintReport,
    /// One entry per checked diagnostic, in report order.
    pub outcomes: Vec<Outcome>,
}

impl VerifiedReport {
    /// Outcomes that found a counterexample.
    pub fn counterexamples(&self) -> impl Iterator<Item = &Outcome> {
        self.outcomes
            .iter()
            .filter(|o| o.verdict == Verdict::CounterexampleFound)
    }

    /// Number of outcomes with a given verdict class.
    fn tally(&self) -> (usize, usize, usize) {
        let mut proved = 0;
        let mut refuted = 0;
        let mut unknown = 0;
        for o in &self.outcomes {
            match o.verdict {
                Verdict::Proved => proved += 1,
                Verdict::CounterexampleFound => refuted += 1,
                Verdict::Unknown { .. } => unknown += 1,
            }
        }
        (proved, refuted, unknown)
    }

    /// Deterministic human rendering: the verdict-annotated lint report,
    /// one line per check, and a tally line.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.report.render_text();
        for o in &self.outcomes {
            let _ = writeln!(out, "{}", o.render());
        }
        let (proved, refuted, unknown) = self.tally();
        let _ = writeln!(
            out,
            "{proved} proved, {refuted} refuted, {unknown} undecided"
        );
        out
    }
}

/// The verification driver: walks a lint report, model-checks every
/// checkable diagnostic and attaches verdicts.
#[derive(Debug, Clone, Default)]
pub struct Verifier {
    options: VerifyOptions,
}

impl Verifier {
    /// A verifier with default budgets.
    pub fn new() -> Self {
        Verifier::default()
    }

    /// A verifier with explicit budgets.
    pub fn with_options(options: VerifyOptions) -> Self {
        Verifier { options }
    }

    /// Convenience: snapshot `design` and verify `report` against it.
    pub fn verify_design(
        &self,
        design: &Design,
        report: &LintReport,
        recorder: Option<&dyn Recorder>,
    ) -> VerifiedReport {
        self.verify(&LintInput::from_design(design), report, recorder)
    }

    /// Verifies every checkable diagnostic of `report` against the
    /// snapshot it was produced from, returning the annotated report.
    pub fn verify(
        &self,
        input: &LintInput,
        report: &LintReport,
        recorder: Option<&dyn Recorder>,
    ) -> VerifiedReport {
        let mut annotated = report.clone();
        let mut outcomes = Vec::new();
        for diag in &mut annotated.diagnostics {
            let Some(outcome) = self.check_diagnostic(input, diag, recorder) else {
                continue;
            };
            diag.verdict = Some(outcome.verdict.clone());
            outcomes.push(outcome);
        }
        VerifiedReport {
            report: annotated,
            outcomes,
        }
    }

    /// Runs the property check matching one diagnostic; `None` when the
    /// code has no formal property.
    fn check_diagnostic(
        &self,
        input: &LintInput,
        diag: &Diagnostic,
        recorder: Option<&dyn Recorder>,
    ) -> Option<Outcome> {
        let property = match diag.code {
            Code::UnclampedFeedback | Code::WrapNarrowerThanPropagated => Property::Overflow,
            Code::TruncationInFeedback => Property::LimitCycle,
            _ => return None,
        };
        // Scope: the anchor signal plus every related signal (cycle
        // members for FXL002/FXL005); the model adds the full fan-in cone.
        let mut names: Vec<&str> = vec![diag.signal.as_str()];
        names.extend(diag.related.iter().map(String::as_str));
        let scope: Vec<SignalId> = input
            .signals
            .iter()
            .filter(|s| names.contains(&s.name.as_str()))
            .map(|s| s.id)
            .collect();

        let limits = ModelLimits {
            max_alphabet: self.options.max_alphabet,
            max_branching: self.options.max_branching,
        };
        let model = match Model::extract(input, &scope, &limits) {
            Ok(m) => m,
            Err(e) => {
                let reason = e.reason();
                if let Some(rec) = recorder {
                    rec.inc("verify.checks", 1);
                    rec.inc("verify.unknown", 1);
                    rec.record_event(Event::VerifyBoundExhausted {
                        code: diag.code.as_str().to_string(),
                        signal: diag.signal.clone(),
                        reason: reason.clone(),
                        states: 0,
                    });
                }
                return Some(Outcome {
                    code: diag.code,
                    signal: diag.signal.clone(),
                    verdict: Verdict::Unknown { reason },
                    states: 0,
                    depth: 0,
                    witness: None,
                });
            }
        };

        if let Some(rec) = recorder {
            rec.inc("verify.checks", 1);
            rec.record_event(Event::VerifyStarted {
                code: diag.code.as_str().to_string(),
                signal: diag.signal.clone(),
                registers: model.registers.len(),
            });
        }

        let check_limits = CheckLimits {
            max_states: self.options.max_states,
            max_depth: self.options.max_depth,
        };
        let result = match property {
            Property::Overflow => {
                // Watch every typed signal in scope: the hazard is any
                // cycle member aliasing, not just the anchor.
                let watch: Vec<String> = names.iter().map(|n| n.to_string()).collect();
                bmc::check_overflow(&model, &watch, &check_limits)
            }
            Property::LimitCycle => bmc::check_limit_cycle(&model, &check_limits),
        };

        if let Some(rec) = recorder {
            rec.inc("verify.states", result.states as u64);
            match &result.verdict {
                Verdict::Proved => {
                    rec.inc("verify.proved", 1);
                    rec.record_event(Event::VerifyProved {
                        code: diag.code.as_str().to_string(),
                        signal: diag.signal.clone(),
                        states: result.states,
                        depth: result.depth,
                    });
                }
                Verdict::CounterexampleFound => {
                    rec.inc("verify.counterexamples", 1);
                    rec.record_event(Event::VerifyCounterexample {
                        code: diag.code.as_str().to_string(),
                        signal: diag.signal.clone(),
                        steps: result.depth,
                    });
                }
                Verdict::Unknown { reason } => {
                    rec.inc("verify.unknown", 1);
                    rec.record_event(Event::VerifyBoundExhausted {
                        code: diag.code.as_str().to_string(),
                        signal: diag.signal.clone(),
                        reason: reason.clone(),
                        states: result.states,
                    });
                }
            }
        }

        Some(Outcome {
            code: diag.code,
            signal: diag.signal.clone(),
            verdict: result.verdict,
            states: result.states,
            depth: result.depth,
            witness: result.witness,
        })
    }
}

enum Property {
    Overflow,
    LimitCycle,
}
