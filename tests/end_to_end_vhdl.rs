//! End-to-end: describe → refine → generate VHDL, across all five crates.

use fixref::codegen::{generate_vhdl, VhdlOptions};
use fixref::dsp::lms::equalizer_stimulus;
use fixref::dsp::{LmsConfig, LmsEqualizer};
use fixref::refine::{RefinePolicy, RefinementFlow};
use fixref::sim::{Design, SignalRef};

fn refined_equalizer() -> (Design, LmsEqualizer) {
    let design = Design::with_seed(0xE2E);
    let config = LmsConfig {
        input_dtype: Some("<7,5,tc,st,rd>".parse().expect("valid")),
        ..LmsConfig::default()
    };
    let eq = LmsEqualizer::new(&design, &config);
    let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
    let eq_for_flow = eq.clone();
    flow.run(move |_, _| {
        eq_for_flow.init();
        for &x in &equalizer_stimulus(11, 28.0, 2000) {
            eq_for_flow.step(x);
        }
    })
    .expect("flow converges");
    (design, eq)
}

#[test]
fn refined_lms_generates_structural_vhdl() {
    let (design, eq) = refined_equalizer();
    let vhdl = generate_vhdl(
        &design,
        &[eq.y().id(), eq.w().id()],
        &VhdlOptions::named("lms_equalizer").with_input(eq.x().id()),
    )
    .expect("every signal typed after refinement");

    // Entity and architecture present and closed.
    assert!(vhdl.contains("entity lms_equalizer is"));
    assert!(vhdl.contains("end architecture rtl;"));
    // Clocked design: the delay line and feedback are registers.
    assert!(vhdl.contains("rising_edge(clk)"));
    // Input port for x; output ports for w and y.
    assert!(vhdl.contains("x : in  signed(6 downto 0)"), "{vhdl}");
    assert!(vhdl.contains("y_o : out signed"));
    assert!(vhdl.contains("w_o : out signed"));
    // The slicer lowers to f_sel, assignments quantize through f_quant.
    assert!(vhdl.contains("f_sel("));
    assert!(vhdl.contains("f_quant("));
    // Every equalizer signal appears declared (inputs excepted).
    for name in ["d_0", "d_1", "d_2", "v_1", "v_2", "v_3", "w", "b", "s"] {
        assert!(
            vhdl.contains(&format!("signal {name} :")),
            "{name} not declared\n{vhdl}"
        );
    }
    // Coefficients become constant drives, not ports.
    assert!(vhdl.contains("c_0 <= "));
    assert!(!vhdl.contains("c_0 : in"));
    // Balanced parentheses — a cheap structural well-formedness check.
    assert_eq!(
        vhdl.chars().filter(|&c| c == '(').count(),
        vhdl.chars().filter(|&c| c == ')').count()
    );
}

#[test]
fn vhdl_generation_is_deterministic_across_runs() {
    let make = || {
        let (design, eq) = refined_equalizer();
        generate_vhdl(
            &design,
            &[eq.y().id()],
            &VhdlOptions::named("lms_equalizer").with_input(eq.x().id()),
        )
        .expect("generates")
    };
    assert_eq!(make(), make());
}

#[test]
fn refined_design_still_simulates_bit_true() {
    // After refinement the same handles drive a fixed-point simulation
    // whose fixed path stays on each type's grid.
    let (design, eq) = refined_equalizer();
    design.reset_stats();
    design.reset_state();
    eq.init();
    for &x in &equalizer_stimulus(13, 28.0, 200) {
        eq.step(x);
        let w = eq.w().get();
        let t = design.dtype_of(eq.w().id()).expect("w typed");
        assert!(
            t.is_representable(w.fix()),
            "w fix {} off the {} grid",
            w.fix(),
            t
        );
    }
    // Decisions remain binary ±1 on the fixed path too.
    let y = eq.y().get();
    assert!(y.fix() == 1.0 || y.fix() == -1.0);
}

#[test]
fn conditionally_written_designs_are_rejected_with_guidance() {
    // The timing-recovery loop writes several signals only on strobes
    // (two structurally different definitions per signal); the generator
    // must reject it with the restructuring hint rather than emit
    // multi-driver VHDL.
    use fixref::codegen::CodegenError;
    use fixref::dsp::source::ShapedPamSource;
    use fixref::dsp::{TimingConfig, TimingRecovery};

    let design = Design::new();
    let config = TimingConfig {
        input_dtype: Some("<7,5,tc,st,rd>".parse().expect("valid")),
        input_range: None,
        ..TimingConfig::default()
    };
    let rx = TimingRecovery::new(&design, &config);
    // Type everything crudely so the only failure is the multi-def.
    for id in rx.signal_ids() {
        if design.dtype_of(id).is_none() {
            design.set_dtype(id, Some("<16,10,tc,st,rd>".parse().expect("valid")));
        }
    }
    design.record_graph(true);
    rx.init();
    let mut src = ShapedPamSource::new(31, 0.35, 2, 0.3, 0.0);
    for _ in 0..64 {
        rx.step(src.next_sample());
    }
    let err = generate_vhdl(&design, &[rx.y().id()], &VhdlOptions::named("timing")).unwrap_err();
    match err {
        CodegenError::MultipleDefinitions { name } => {
            assert!(!name.is_empty());
        }
        other => panic!("expected MultipleDefinitions, got {other}"),
    }
}

#[test]
fn stimulus_length_does_not_change_the_cost_estimate() {
    // The stimulus input records one constant definition per sample. It
    // is an input port, not a mux over its samples, so the datapath
    // estimate must not grow with the stimulus.
    use fixref::codegen::estimate_cost;

    let (design, eq) = refined_equalizer();
    let estimate = |samples: usize| {
        design.reset_state();
        design.clear_graph();
        design.record_graph(true);
        eq.init();
        for &x in &equalizer_stimulus(11, 28.0, samples) {
            eq.step(x);
        }
        design.record_graph(false);
        estimate_cost(&design, &design.graph())
    };
    let short = estimate(500);
    let long = estimate(3000);
    assert_eq!(short, long);
    assert!(short.gate_score() > 0.0);
}
