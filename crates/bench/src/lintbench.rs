//! Lint runs over every example design.
//!
//! Builds the same datapaths the `examples/` programs refine, simulates
//! each once with graph recording enabled (the linter's input is the
//! recorded signal-flow graph plus monitor counters — no refinement
//! iteration is needed), and runs the full diagnostics engine. The
//! `lint` bin renders these reports; `tests/lint_conformance.rs` pins
//! them against the golden baselines in `tests/golden/`.
//!
//! Stimulus lengths are fixed constants: `FXL001` messages quote write
//! counts, so the reports are only reproducible for a pinned stimulus.

use fixref_dsp::lms::equalizer_stimulus;
use fixref_dsp::qam::{qam_stimulus, FfeConfig, QamFfe};
use fixref_dsp::source::ShapedPamSource;
use fixref_dsp::{
    Awgn, Biquad, CicDecimator, LmsConfig, LmsEqualizer, TimingConfig, TimingRecovery,
};
use fixref_lint::{LintReport, Linter};
use fixref_sim::Design;

/// One example's lint outcome.
#[derive(Debug, Clone)]
pub struct ExampleLint {
    /// The example's name (matches the file under `examples/`).
    pub name: &'static str,
    /// The sorted diagnostic report.
    pub report: LintReport,
}

/// Samples driven through the LMS equalizer before linting.
pub const LINT_LMS_SAMPLES: usize = 4000;
/// Samples driven through the timing-recovery loop before linting.
pub const LINT_TIMING_SAMPLES: usize = 12000;

fn lint_quickstart() -> LintReport {
    let design = Design::new();
    let x = design.sig_typed("x", "<8,6,tc,st,rd>".parse().expect("literal is valid"));
    let scaled = design.sig("scaled");
    let acc = design.reg("acc");
    let y = design.sig("y");
    design.declare_static_schedule();
    design.record_graph(true);
    for i in 0..2000 {
        x.set((i as f64 * 0.05).sin() * 0.9);
        scaled.set(x.get() * 0.75);
        acc.set(acc.get() * 0.9 + scaled.get());
        y.set(acc.get() + scaled.get());
        design.tick();
    }
    design.record_graph(false);
    Linter::new().run(&design)
}

fn lint_lms_equalizer() -> LintReport {
    let design = Design::with_seed(fixref_dsp::lms::DESIGN_SEED);
    let config = LmsConfig {
        input_dtype: Some("<7,5,tc,st,rd>".parse().expect("literal is valid")),
        ..LmsConfig::default()
    };
    let eq = LmsEqualizer::new(&design, &config);
    design.record_graph(true);
    eq.init();
    for &x in &equalizer_stimulus(7, 28.0, LINT_LMS_SAMPLES) {
        eq.step(x);
    }
    design.record_graph(false);
    Linter::new().run(&design)
}

fn lint_timing_recovery() -> LintReport {
    let design = Design::with_seed(fixref_dsp::timing_loop::DESIGN_SEED);
    let config = TimingConfig {
        input_dtype: Some("<7,5,tc,st,rd>".parse().expect("literal is valid")),
        input_range: None,
        ..TimingConfig::default()
    };
    let rx = TimingRecovery::new(&design, &config);
    design.record_graph(true);
    rx.init();
    let mut src = ShapedPamSource::new(31, 0.35, 2, 0.3, 100.0);
    let mut noise = Awgn::from_snr_db(9, 20.0, 1.0);
    for _ in 0..LINT_TIMING_SAMPLES {
        rx.step(noise.add(src.next_sample()).clamp(-1.9, 1.9));
    }
    design.record_graph(false);
    Linter::new().run(&design)
}

fn lint_iir_refinement() -> LintReport {
    let proto = Biquad::lowpass(0.05, 0.707);
    let [b0, b1, b2] = proto.b;
    let [a1, a2] = proto.a;
    let design = Design::new();
    let x = design.sig_typed("x", "<10,8,tc,st,rd>".parse().expect("literal is valid"));
    let x1 = design.reg("x1");
    let x2 = design.reg("x2");
    let y1 = design.reg("y1");
    let y2 = design.reg("y2");
    let y = design.sig("y");
    design.declare_static_schedule();
    design.record_graph(true);
    for i in 0..4000 {
        let t = i as f64;
        x.set(0.45 * (0.05 * t).sin() + 0.45 * (2.4 * t).sin());
        y.set(b0 * x.get() + b1 * x1.get() + b2 * x2.get() - a1 * y1.get() - a2 * y2.get());
        x2.set(x1.get());
        x1.set(x.get());
        y2.set(y1.get());
        y1.set(y.get());
        design.tick();
    }
    design.record_graph(false);
    Linter::new().run(&design)
}

fn lint_cic_decimator() -> LintReport {
    let design = Design::new();
    let mut cic = CicDecimator::new(&design, 3, 8, 1, 8, 6);
    design.record_graph(true);
    for i in 0..4096u32 {
        let x =
            0.015625 * (((i.wrapping_mul(2654435761).wrapping_add(i) >> 7) % 128) as f64 - 64.0);
        cic.push(x);
    }
    design.record_graph(false);
    Linter::new().run(&design)
}

fn lint_qam_ffe() -> LintReport {
    let design = Design::with_seed(0x0A11_CAFE);
    let config = FfeConfig {
        input_dtype: Some("<9,7,tc,st,rd>".parse().expect("literal is valid")),
        input_range: None,
        ..FfeConfig::default()
    };
    let ffe = QamFfe::new(&design, &config);
    design.record_graph(true);
    ffe.init();
    for &x in &qam_stimulus(3, 26.0, 2000) {
        ffe.step(x);
    }
    design.record_graph(false);
    Linter::new().run(&design)
}

/// Lints every example design, in a fixed order.
pub fn lint_example_designs() -> Vec<ExampleLint> {
    vec![
        ExampleLint {
            name: "quickstart",
            report: lint_quickstart(),
        },
        ExampleLint {
            name: "lms_equalizer",
            report: lint_lms_equalizer(),
        },
        ExampleLint {
            name: "timing_recovery",
            report: lint_timing_recovery(),
        },
        ExampleLint {
            name: "iir_refinement",
            report: lint_iir_refinement(),
        },
        ExampleLint {
            name: "cic_decimator",
            report: lint_cic_decimator(),
        },
        ExampleLint {
            name: "qam_ffe",
            report: lint_qam_ffe(),
        },
    ]
}
