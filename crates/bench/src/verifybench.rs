//! Formal-verification runs over six example designs
//! (`cargo run -p fixref-bench --bin verify`, `BENCH_verify.json`).
//!
//! Each example is a small typed design chosen so the bounded model
//! checker exercises one verdict path end to end:
//!
//! | example | expected outcome |
//! |---|---|
//! | `quickstart` | FXL002 on the leaky wrap accumulator *proved* safe |
//! | `lms_equalizer` | FXL002 on the `{b, w}` adaptation loop *proved* safe |
//! | `timing_recovery` | FXL002 honestly `unknown(state_too_large)` (untyped loop state) |
//! | `iir_refinement` | FXL002/FXL004 *refuted*: a stimulus wraps the under-ranged recursion |
//! | `cic_decimator` | FXL005 *proved*: the unsigned floor integrator has no limit cycle |
//! | `qam_ffe` | FXL004 *proved*: decorrelated interval propagation over-warned |
//!
//! The text renderings are pinned by `tests/golden/verify_*.txt`
//! (deterministic: the checker explores breadth-first in sorted order, so
//! state counts and witnesses never vary); the JSON artifact additionally
//! carries wall-clock time and BMC states/second, which are *not* golden.

use std::time::Instant;

use fixref_fixed::{DType, OverflowMode, RoundingMode};
use fixref_lint::{Linter, Verdict};
use fixref_sim::Design;
use fixref_verify::{VerifiedReport, Verifier};

use crate::report::{ms, BenchReport, Metric};

/// One example's verification outcome.
#[derive(Debug, Clone)]
pub struct ExampleVerify {
    /// The example's name.
    pub name: &'static str,
    /// The verdict-annotated report plus per-check outcomes.
    pub verified: VerifiedReport,
    /// Total states explored across all checks.
    pub states: usize,
    /// Wall-clock time of lint + verification, nanoseconds.
    pub wall_ns: u128,
}

impl ExampleVerify {
    /// Explored states per second of wall time (0 when too fast to
    /// measure).
    pub fn states_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.states as f64 / (self.wall_ns as f64 * 1e-9)
    }
}

fn wrap(spec: &str) -> DType {
    spec.parse::<DType>()
        .expect("literal is valid")
        .with_overflow(OverflowMode::Wrap)
}

/// The quickstart accumulator, wrap-typed: `y = q(0.5*y + x)`. The
/// contraction keeps y inside `<4,2>`, so the FXL002 flag is spurious —
/// and with only 16 mantissas of state the checker proves it.
fn verify_quickstart() -> Design {
    let d = Design::new();
    let x = d.sig_typed("x", wrap("<3,2,tc,st,rd>"));
    let y = d.reg_typed("y", wrap("<4,2,tc,st,rd>"));
    d.record_graph(true);
    for i in 0..64 {
        x.set(((i % 7) as f64 - 3.0) * 0.25);
        y.set(y.get() * 0.5 + x.get());
        d.tick();
    }
    d.record_graph(false);
    d
}

/// A decision-directed LMS tap in wrap arithmetic — the paper's Table 1
/// `b`/`w` pair. Interval propagation explodes on the multiplicative
/// feedback (hence FXL002 *and* FXL004), but the bit-exact recursion
/// `b' = 0.9375*b + 0.0625*(s*x - s*y)` is a contraction that never
/// leaves `<6,4>`: the checker closes the reachable set and discharges
/// both warnings with a proof.
fn verify_lms_equalizer() -> Design {
    let d = Design::new();
    let x = d.sig_typed("x", wrap("<3,2,tc,st,rd>"));
    let w = d.sig_typed("w", wrap("<6,3,tc,st,rd>"));
    let y = d.sig("y");
    let b = d.reg_typed("b", wrap("<6,4,tc,st,rd>"));
    let s = d.reg_typed("s", wrap("<3,1,tc,st,rd>"));
    d.record_graph(true);
    for i in 0..128 {
        x.set(((i % 7) as f64 - 3.0) * 0.25);
        w.set(x.get() - b.get() * s.get());
        y.set(w.get().select_positive(1.0.into(), (-1.0).into()));
        b.set(b.get() + 0.0625 * (s.get() * (w.get() - y.get())));
        s.set(y.get());
        d.tick();
    }
    d.record_graph(false);
    d
}

/// A timing loop whose accumulators are still floating point: the state
/// is a continuum, so the checker must answer `unknown(state_too_large)`
/// instead of sampling and guessing.
fn verify_timing_recovery() -> Design {
    let d = Design::new();
    let x = d.sig_typed("x", wrap("<3,2,tc,st,rd>"));
    let err = d.sig("err");
    let mu = d.reg("mu");
    let phase = d.reg("phase");
    d.record_graph(true);
    for i in 0..64 {
        x.set(((i % 5) as f64 - 2.0) * 0.25);
        err.set(x.get() * phase.get());
        mu.set(mu.get() + 0.01 * err.get());
        phase.set(phase.get() + mu.get());
        d.tick();
    }
    d.record_graph(false);
    d
}

/// A deliberately under-ranged recursion in wrap mode:
/// `y1 = q(0.9*y1 + x)` with `y1` in `<4,2>` but a true envelope near
/// ±10. The checker finds a short stimulus that wraps `y1` and attaches
/// it as a replayable witness.
fn verify_iir_refinement() -> Design {
    let d = Design::new();
    let x = d.sig_typed("x", wrap("<3,2,tc,st,rd>"));
    let y1 = d.reg_typed("y1", wrap("<4,2,tc,st,rd>"));
    d.record_graph(true);
    for i in 0..64 {
        x.set(((i % 5) as f64 - 2.0) * 0.25);
        y1.set(y1.get() * 0.9 + x.get());
        d.tick();
    }
    d.record_graph(false);
    d
}

/// An unsigned, floor-rounded leaky integrator (one CIC-style stage with
/// leak). Floor rounding in feedback trips FXL005, but unsigned state
/// only truncates toward zero, so the zero-input trajectory of every
/// reachable state drains to silence: no limit cycle, proved.
fn verify_cic_decimator() -> Design {
    let t_in = DType::new(
        "cic_in",
        3,
        3,
        fixref_fixed::Signedness::Unsigned,
        OverflowMode::Saturate,
        RoundingMode::Floor,
    )
    .expect("literal is valid");
    let t_acc = DType::new(
        "cic_acc",
        5,
        3,
        fixref_fixed::Signedness::Unsigned,
        OverflowMode::Saturate,
        RoundingMode::Floor,
    )
    .expect("literal is valid");
    let d = Design::new();
    let x = d.sig_typed("x", t_in);
    let acc = d.reg_typed("acc", t_acc);
    d.record_graph(true);
    for i in 0..64 {
        x.set((i % 8) as f64 * 0.125);
        acc.set(acc.get() * 0.5 + x.get() * 0.5);
        d.tick();
    }
    d.record_graph(false);
    d
}

/// A feedforward slice `y = q(x - 0.5*x)`: decorrelated interval
/// propagation widens the envelope past `<4,3>` and flags FXL004, but the
/// correlated true range is four times narrower. No state at all — the
/// checker closes a one-state space and discharges the warning.
fn verify_qam_ffe() -> Design {
    let d = Design::new();
    let x = d.sig_typed("x", wrap("<3,2,tc,st,rd>"));
    let y = d.sig_typed("y", wrap("<4,3,tc,st,rd>"));
    d.record_graph(true);
    for i in 0..64 {
        x.set(((i % 7) as f64 - 3.0) * 0.25);
        y.set(x.get() - x.get() * 0.5);
        d.tick();
    }
    d.record_graph(false);
    d
}

/// Lints and verifies one design, timing the whole check.
fn run_one(name: &'static str, design: Design) -> ExampleVerify {
    let start = Instant::now();
    let report = Linter::new().run(&design);
    let verified = Verifier::new().verify_design(&design, &report, None);
    let wall_ns = start.elapsed().as_nanos();
    let states = verified.outcomes.iter().map(|o| o.states).sum();
    ExampleVerify {
        name,
        verified,
        states,
        wall_ns,
    }
}

/// Verifies every example design, in a fixed order.
pub fn verify_example_designs() -> Vec<ExampleVerify> {
    vec![
        run_one("quickstart", verify_quickstart()),
        run_one("lms_equalizer", verify_lms_equalizer()),
        run_one("timing_recovery", verify_timing_recovery()),
        run_one("iir_refinement", verify_iir_refinement()),
        run_one("cic_decimator", verify_cic_decimator()),
        run_one("qam_ffe", verify_qam_ffe()),
    ]
}

/// The `BENCH_verify.json` report of one verification run, measured
/// once: per example, its checks and their verdict tallies, the states
/// explored, and the wall time and states per second that the goldens
/// deliberately exclude.
pub fn verify_bench_report(examples: &[ExampleVerify]) -> BenchReport {
    let mut report = BenchReport::new("verify", 1);
    for ex in examples {
        let tally = |verdict: fn(&Verdict) -> bool| {
            let n = ex.verified.outcomes.iter().filter(|o| verdict(&o.verdict));
            Metric::once("count", n.count() as f64)
        };
        let name = |what: &str| format!("{}.{what}", ex.name);
        report = report
            .metric(
                &name("checks"),
                Metric::once("count", ex.verified.outcomes.len() as f64),
            )
            .metric(&name("proved"), tally(|v| matches!(v, Verdict::Proved)))
            .metric(
                &name("refuted"),
                tally(|v| matches!(v, Verdict::CounterexampleFound)),
            )
            .metric(
                &name("unknown"),
                tally(|v| matches!(v, Verdict::Unknown { .. })),
            )
            .metric(&name("states"), Metric::once("count", ex.states as f64))
            .metric(&name("ms"), Metric::once("ms", ms(ex.wall_ns)))
            .metric(
                &name("states_per_sec"),
                Metric::once("1/s", ex.states_per_sec()),
            );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_lint::{Code, Verdict};

    #[test]
    fn the_six_examples_cover_all_three_verdicts() {
        let examples = verify_example_designs();
        let by_name = |n: &str| {
            examples
                .iter()
                .find(|e| e.name == n)
                .unwrap_or_else(|| panic!("missing example {n}"))
        };

        // LMS: the paper's b/w loop is discharged by proof.
        let lms = by_name("lms_equalizer");
        let fxl002 = lms
            .verified
            .report
            .with_code(Code::UnclampedFeedback)
            .into_iter()
            .next()
            .expect("LMS FXL002 fires");
        assert_eq!(
            fxl002.verdict,
            Some(Verdict::Proved),
            "{}",
            lms.verified.render_text()
        );

        // IIR: the under-ranged recursion is refuted with a witness.
        let iir = by_name("iir_refinement");
        assert!(
            iir.verified.counterexamples().next().is_some(),
            "{}",
            iir.verified.render_text()
        );

        // Timing: continuum state is reported unknown, not guessed.
        let timing = by_name("timing_recovery");
        assert!(
            timing.verified.outcomes.iter().any(|o| matches!(
                &o.verdict,
                Verdict::Unknown { reason } if reason == "state_too_large"
            )),
            "{}",
            timing.verified.render_text()
        );

        // CIC: floor feedback proved limit-cycle free.
        let cic = by_name("cic_decimator");
        let fxl005 = cic
            .verified
            .report
            .with_code(Code::TruncationInFeedback)
            .into_iter()
            .next()
            .expect("CIC FXL005 fires");
        assert_eq!(fxl005.verdict, Some(Verdict::Proved));

        // FFE: the decorrelation false alarm (FXL004) proved spurious.
        let ffe = by_name("qam_ffe");
        let fxl004 = ffe
            .verified
            .report
            .with_code(Code::WrapNarrowerThanPropagated)
            .into_iter()
            .next()
            .expect("FFE FXL004 fires");
        assert_eq!(fxl004.verdict, Some(Verdict::Proved));
    }

    #[test]
    fn the_report_tallies_every_example_verdict() {
        let report = verify_bench_report(&verify_example_designs());
        assert_eq!(report.bench, "verify");
        let median = |name: &str| report.get(name).map(|m| m.median);
        assert_eq!(median("lms_equalizer.proved"), Some(3.0));
        assert_eq!(median("iir_refinement.refuted"), Some(2.0));
        assert_eq!(median("timing_recovery.unknown"), Some(1.0));
        assert_eq!(report.metrics.len(), 6 * 7);
    }
}
