//! Conformance suite for the `fixref-lint` diagnostics engine.
//!
//! Pins the lint report of every example design against the golden
//! baselines in `tests/golden/lint_*.txt`, and proves the headline
//! static-schedule claims: the LMS equalizer verifies FXL001-clean under
//! its declared schedule, and the timing-recovery loop's strobe-gated
//! signals are caught.
//!
//! CI runs this suite under several `FIXREF_TEST_SHARDS` values; every
//! assertion here compares against checked-in bytes, so any worker-count
//! dependence in the lint pipeline shows up as a golden diff.
//!
//! To regenerate after an intentional diagnostics change:
//!
//! ```text
//! cargo run --release -p fixref-bench --bin lint
//! # then split each `=== name ===` section into tests/golden/lint_<name>.txt
//! ```

use fixref::lint::{Code, Linter, Severity};
use fixref::sim::Design;
use fixref_bench::lint_example_designs;

/// Diffs `actual` against a golden file with a line-numbered report.
fn assert_matches_golden(actual: &str, golden_path: &str) {
    let path = format!("{}/tests/golden/{golden_path}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden file {path} unreadable: {e}"));
    if actual == expected {
        return;
    }
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "first divergence at {golden_path}:{}", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "line-count mismatch against {golden_path}"
    );
    panic!("whitespace-only divergence against {golden_path}");
}

#[test]
fn every_example_report_matches_its_golden_baseline() {
    let examples = lint_example_designs();
    assert_eq!(examples.len(), 6, "example inventory drifted");
    for example in &examples {
        assert_matches_golden(
            &example.report.render_text(),
            &format!("lint_{}.txt", example.name),
        );
    }
}

#[test]
fn lms_equalizer_verifies_clean_under_its_declared_static_schedule() {
    let examples = lint_example_designs();
    let lms = examples
        .iter()
        .find(|e| e.name == "lms_equalizer")
        .expect("lms example present");
    // The paper's Table 1 datapath is statically scheduled: every signal
    // is written exactly once per sample. FXL001 must stay silent.
    assert!(
        lms.report.with_code(Code::StaticSchedule).is_empty(),
        "LMS must be FXL001-clean:\n{}",
        lms.report.render_text()
    );
    // Its only finding is the paper's unclamped {w, b} adaptation loop.
    assert_eq!(lms.report.diagnostics.len(), 1);
    let cycle = &lms.report.with_code(Code::UnclampedFeedback)[0];
    assert_eq!(cycle.related, vec!["b".to_string(), "w".to_string()]);
}

#[test]
fn timing_recovery_strobe_gated_signals_are_caught_by_fxl001() {
    let examples = lint_example_designs();
    let timing = examples
        .iter()
        .find(|e| e.name == "timing_recovery")
        .expect("timing example present");
    let schedule = timing.report.with_code(Code::StaticSchedule);
    let flagged: Vec<&str> = schedule.iter().map(|d| d.signal.as_str()).collect();
    // The loop-filter side of the timing loop only runs when the strobe
    // fires (~every other sample), so every signal crossing that clock
    // boundary must carry an FXL001 diagnostic.
    for expected in ["mu", "phase", "step", "fc[0]", "fc[1]", "fc[2]", "fc[3]"] {
        assert!(
            flagged.contains(&expected),
            "{expected} missing from FXL001 findings: {flagged:?}"
        );
    }
    // The example never calls declare_static_schedule(), so these are
    // warnings (advice), not errors (a broken declaration).
    assert!(schedule.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn known_clean_design_produces_zero_diagnostics() {
    // Feedforward, saturating, range-annotated, single-definition, every
    // signal read: nothing for any of the six passes to object to.
    let design = Design::new();
    let x = design.sig_typed("x", "<8,6,tc,st,rd>".parse().expect("valid dtype"));
    let y = design.sig_typed("y", "<10,6,tc,st,rd>".parse().expect("valid dtype"));
    let z = design.sig_typed("z", "<12,6,tc,st,rd>".parse().expect("valid dtype"));
    design.declare_static_schedule();
    design.record_graph(true);
    for i in 0..256 {
        x.set((i as f64 * 0.1).sin());
        y.set(x.get() * 0.5 + 0.25);
        z.set(y.get() - x.get());
        let _ = z.get();
        design.tick();
    }
    design.record_graph(false);
    let report = Linter::new().run(&design);
    assert!(
        report.is_clean(),
        "expected a clean report, got:\n{}",
        report.render_text()
    );
}

#[test]
fn jsonl_rendering_is_bit_identical_across_runs() {
    // The linter must be a pure function of the recorded graph and the
    // merged monitor counters: two full passes over the example designs
    // (fresh simulations each) render byte-identical JSONL.
    let first: Vec<String> = lint_example_designs()
        .iter()
        .map(|e| e.report.render_jsonl())
        .collect();
    let second: Vec<String> = lint_example_designs()
        .iter()
        .map(|e| e.report.render_jsonl())
        .collect();
    assert_eq!(first, second);
    // Every line is valid single-line JSON with the stable field order.
    for jsonl in &first {
        for line in jsonl.lines() {
            assert!(line.starts_with("{\"code\":\"FXL"), "bad line: {line}");
            assert!(line.ends_with('}'), "bad line: {line}");
        }
    }
}
