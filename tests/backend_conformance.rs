//! Differential conformance suite for the evaluation backends.
//!
//! The contract under test: selecting [`SimBackend::Compiled`] on a sweep
//! changes only wall-clock time — the refined types, per-signal
//! statistics, overflow events, journal and counters are bit-identical
//! to the interpreted backend (modulo the `backend.*` bookkeeping the
//! compiled backend adds, which this suite strips before comparing).
//!
//! Coverage: direct capture→compile→verify→replay equality on all six
//! example designs, plus swept flow-level comparisons for the LMS
//! equalizer (cache off and on) and the timing-recovery loop. The swept
//! worker count comes from `FIXREF_TEST_SHARDS` (the CI matrix sets 1, 2
//! and 8), defaulting to 2.

use std::sync::Arc;

use fixref::dsp::lms::equalizer_stimulus;
use fixref::dsp::qam::{qam_stimulus, FfeConfig, QamFfe};
use fixref::dsp::source::ShapedPamSource;
use fixref::dsp::{
    Awgn, Biquad, CicDecimator, LmsConfig, LmsEqualizer, TimingConfig, TimingRecovery,
};
use fixref::obs::{DefaultRecorder, Event, HistogramSummary};
use fixref::refine::{RefinePolicy, RefinementFlow, SimBackend, SweepDriver};
use fixref::sim::{shard_count_from_env, Design, OverflowEvent, Replay, ScenarioSet, SignalStats};
use fixref_bench::{
    lms_seed_grid, lms_shard_builder, paper_input_type, timing_shard_builder, LMS_SNR_DB,
    TIMING_SNR_DB,
};

const LMS_SAMPLES: usize = 1200;
const TIMING_SAMPLES: usize = 4000;

// ---------------------------------------------------------------------
// Direct replay conformance on the six example designs.
// ---------------------------------------------------------------------

/// Captures one recorded run of `drive` and tries to compile it, applying
/// the same gates as the sweep's compiled backend: FXL001 static schedule
/// and the verification replay. `None` means the backend would fall back
/// to the interpreter for this design.
fn try_compile_example(design: &Design, drive: &mut dyn FnMut()) -> Option<Replay> {
    design.reset_stats();
    design.reset_state();
    design.clear_graph();
    design.record_graph(true);
    design.begin_capture();
    drive();
    design.record_graph(false);
    let schedule_ok = fixref::lint::check_static_schedule(design).is_empty();
    let trace = design.end_capture().expect("capture begun above");
    if !schedule_ok {
        return None;
    }
    let replay = Replay::compile(&design.graph(), &trace);
    design.verify_replay(&replay, &trace).then_some(replay)
}

/// Everything a single simulation run is judged by.
fn run_snapshot(
    design: &Design,
    run: impl FnOnce(),
) -> (Vec<SignalStats>, u64, Vec<OverflowEvent>) {
    design.reset_stats();
    design.reset_state();
    run();
    (
        design.export_stats(),
        design.cycle(),
        design.peek_overflow_events(),
    )
}

/// Asserts the compiled backend is bit-identical to the interpreter on
/// this design: either the capture compiles and its replay reproduces the
/// interpreted run on every monitored quantity, or the design is refused
/// (the backend's journaled fallback) and re-interpretation is
/// deterministic — which is what the fallback's bit-identity rests on.
/// `expect_compiled` pins which of the two paths the design must take,
/// so a compile regression cannot silently demote a design to fallback.
fn assert_replay_conformance(
    name: &str,
    design: &Design,
    drive: &mut dyn FnMut(),
    expect_compiled: bool,
) {
    let interpreted = match try_compile_example(design, drive) {
        Some(replay) => {
            assert!(expect_compiled, "{name}: expected fallback but compiled");
            let interpreted = run_snapshot(design, &mut *drive);
            let replayed = run_snapshot(design, || {
                design.replay(&replay);
            });
            assert_eq!(interpreted, replayed, "{name}: compiled replay diverged");
            interpreted
        }
        None => {
            assert!(
                !expect_compiled,
                "{name}: expected to compile but was refused"
            );
            run_snapshot(design, &mut *drive)
        }
    };
    let again = run_snapshot(design, drive);
    assert_eq!(
        interpreted, again,
        "{name}: interpreter is not deterministic"
    );
}

#[test]
fn quickstart_replay_is_bit_identical() {
    let design = Design::new();
    let x = design.sig_typed("x", "<8,6,tc,st,rd>".parse().expect("valid"));
    let scaled = design.sig("scaled");
    let acc = design.reg("acc");
    let y = design.sig("y");
    design.declare_static_schedule();
    let d = design.clone();
    let mut drive = move || {
        for i in 0..2000 {
            x.set((i as f64 * 0.05).sin() * 0.9);
            scaled.set(x.get() * 0.75);
            acc.set(acc.get() * 0.9 + scaled.get());
            y.set(acc.get() + scaled.get());
            d.tick();
        }
    };
    assert_replay_conformance("quickstart", &design, &mut drive, true);
}

#[test]
fn lms_equalizer_replay_is_bit_identical() {
    let design = Design::with_seed(0xDA7E_1999);
    let config = LmsConfig {
        input_dtype: Some(paper_input_type()),
        ..LmsConfig::default()
    };
    let eq = LmsEqualizer::new(&design, &config);
    let mut drive = move || {
        eq.init();
        for &x in &equalizer_stimulus(7, LMS_SNR_DB, LMS_SAMPLES) {
            eq.step(x);
        }
    };
    assert_replay_conformance("lms_equalizer", &design, &mut drive, true);
}

#[test]
fn timing_recovery_replay_is_bit_identical() {
    let design = Design::with_seed(0x0DEC_7BA5);
    let config = TimingConfig {
        input_dtype: Some("<7,5,tc,st,rd>".parse().expect("valid")),
        input_range: None,
        ..TimingConfig::default()
    };
    let rx = TimingRecovery::new(&design, &config);
    let mut drive = move || {
        rx.init();
        let mut src = ShapedPamSource::new(31, 0.35, 2, 0.3, 100.0);
        let mut noise = Awgn::from_snr_db(9, TIMING_SNR_DB, 1.0);
        for _ in 0..TIMING_SAMPLES {
            rx.step(noise.add(src.next_sample()).clamp(-1.9, 1.9));
        }
    };
    assert_replay_conformance("timing_recovery", &design, &mut drive, false);
}

#[test]
fn iir_refinement_replay_is_bit_identical() {
    let proto = Biquad::lowpass(0.05, 0.707);
    let [b0, b1, b2] = proto.b;
    let [a1, a2] = proto.a;
    let design = Design::new();
    let x = design.sig_typed("x", "<10,8,tc,st,rd>".parse().expect("valid"));
    let x1 = design.reg("x1");
    let x2 = design.reg("x2");
    let y1 = design.reg("y1");
    let y2 = design.reg("y2");
    let y = design.sig("y");
    design.declare_static_schedule();
    let d = design.clone();
    let mut drive = move || {
        for i in 0..2000 {
            let t = i as f64;
            x.set(0.45 * (0.05 * t).sin() + 0.45 * (2.4 * t).sin());
            y.set(b0 * x.get() + b1 * x1.get() + b2 * x2.get() - a1 * y1.get() - a2 * y2.get());
            x2.set(x1.get());
            x1.set(x.get());
            y2.set(y1.get());
            y1.set(y.get());
            d.tick();
        }
    };
    assert_replay_conformance("iir_refinement", &design, &mut drive, true);
}

#[test]
fn cic_decimator_replay_is_bit_identical() {
    let design = Design::new();
    let mut cic = CicDecimator::new(&design, 3, 8, 1, 8, 6);
    let mut drive = move || {
        for i in 0..2048u32 {
            let x = 0.015625
                * (((i.wrapping_mul(2654435761).wrapping_add(i) >> 7) % 128) as f64 - 64.0);
            cic.push(x);
        }
    };
    assert_replay_conformance("cic_decimator", &design, &mut drive, false);
}

#[test]
fn qam_ffe_replay_is_bit_identical() {
    let design = Design::with_seed(0x0A11_CAFE);
    let config = FfeConfig {
        input_dtype: Some("<9,7,tc,st,rd>".parse().expect("valid")),
        input_range: None,
        ..FfeConfig::default()
    };
    let ffe = QamFfe::new(&design, &config);
    let mut drive = move || {
        ffe.init();
        for &x in &qam_stimulus(3, 26.0, 1500) {
            ffe.step(x);
        }
    };
    assert_replay_conformance("qam_ffe", &design, &mut drive, true);
}

// ---------------------------------------------------------------------
// Flow-level conformance: backends through SweepDriver.
// ---------------------------------------------------------------------

/// Everything the outcome of a refinement run is judged by, with the
/// backends' own `backend.*` bookkeeping stripped out.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    types: Vec<(String, String)>,
    msb_iterations: usize,
    lsb_iterations: usize,
    stats: Vec<SignalStats>,
    overflow_events: Vec<OverflowEvent>,
    journal: Vec<Event>,
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, HistogramSummary)>,
}

fn is_backend_event(e: &Event) -> bool {
    matches!(
        e,
        Event::BackendCompiled { .. } | Event::BackendFallback { .. }
    )
}

fn fingerprint(
    design: &Design,
    recorder: &Arc<DefaultRecorder>,
    outcome: &fixref::refine::FlowOutcome,
) -> Fingerprint {
    let mut types: Vec<(String, String)> = outcome
        .types
        .iter()
        .map(|(id, t)| (design.name_of(*id), t.to_string()))
        .collect();
    types.sort();
    Fingerprint {
        types,
        msb_iterations: outcome.msb_iterations,
        lsb_iterations: outcome.lsb_iterations,
        stats: design.export_stats(),
        overflow_events: design.peek_overflow_events(),
        journal: recorder
            .events()
            .into_iter()
            .filter(|e| !is_backend_event(e))
            .collect(),
        counters: recorder
            .counters()
            .into_iter()
            .filter(|(name, _)| !name.starts_with("backend."))
            .collect(),
        histograms: recorder.histograms(),
    }
}

fn lms_config() -> LmsConfig {
    LmsConfig {
        input_dtype: Some(paper_input_type()),
        ..LmsConfig::default()
    }
}

fn timing_config() -> TimingConfig {
    TimingConfig {
        input_dtype: Some("<7,5,tc,st,rd>".parse().expect("valid")),
        input_range: None,
        ..TimingConfig::default()
    }
}

/// Runs the full swept flow under the given driver backend, with the
/// driver's evaluation cache on when `cache` is set (a cached run must
/// score hits). `expect_compiled` pins whether the sweep must actually
/// compile its scenario captures (designs that refuse the FXL001 gate,
/// like the timing loop, run the journaled fallback instead and must NOT
/// compile).
fn run_swept(
    builder: Box<fixref::refine::ShardBuilder>,
    force_saturate: &[&str],
    scenarios: &ScenarioSet,
    workers: usize,
    backend: SimBackend,
    cache: bool,
    expect_compiled: bool,
) -> Fingerprint {
    let master = builder(&scenarios.as_slice()[0]).design;
    let mut flow = RefinementFlow::new(master.clone(), RefinePolicy::default());
    for name in force_saturate {
        flow.force_saturate(master.find(name).expect("declared"));
    }
    let mut sweep = SweepDriver::new(scenarios.clone(), workers, builder);
    sweep.set_backend(backend);
    if cache {
        sweep.enable_cache();
    }
    let outcome = flow.run_swept(&mut sweep).expect("swept flow converges");
    if backend != SimBackend::Interpreted {
        assert_eq!(
            sweep.has_compiled_program(),
            expect_compiled,
            "sweep compiled-replay state disagrees with what this design must do"
        );
    }
    if cache {
        assert!(
            flow.recorder().counter("cache.hits") > 0,
            "the cached sweep never replayed its cache"
        );
    }
    fingerprint(&master, flow.recorder(), &outcome)
}

#[test]
fn lms_swept_backends_match_interpreted() {
    let set = lms_seed_grid(3, LMS_SAMPLES);
    let workers = shard_count_from_env(2);
    let interpreted = run_swept(
        lms_shard_builder(lms_config()),
        &[],
        &set,
        workers,
        SimBackend::Interpreted,
        false,
        false,
    );
    let compiled = run_swept(
        lms_shard_builder(lms_config()),
        &[],
        &set,
        workers,
        SimBackend::Compiled,
        false,
        true,
    );
    assert_eq!(interpreted, compiled);
    assert!(!interpreted.types.is_empty(), "refinement decided types");
}

#[test]
fn lms_swept_compiled_matches_interpreted_with_cache() {
    let set = lms_seed_grid(3, LMS_SAMPLES);
    let workers = shard_count_from_env(2);
    let interpreted = run_swept(
        lms_shard_builder(lms_config()),
        &[],
        &set,
        workers,
        SimBackend::Interpreted,
        true,
        false,
    );
    let compiled = run_swept(
        lms_shard_builder(lms_config()),
        &[],
        &set,
        workers,
        SimBackend::Compiled,
        true,
        true,
    );
    assert_eq!(interpreted, compiled);
}

#[test]
fn timing_swept_compiled_falls_back_and_matches_interpreted() {
    let saturate = ["terr", "lp", "lferr", "step", "mu"];
    let set = ScenarioSet::grid(&[31, 32], &[TIMING_SNR_DB], &[], &[TIMING_SAMPLES]);
    let workers = shard_count_from_env(2);
    let interpreted = run_swept(
        timing_shard_builder(timing_config()),
        &saturate,
        &set,
        workers,
        SimBackend::Interpreted,
        false,
        false,
    );
    let compiled = run_swept(
        timing_shard_builder(timing_config()),
        &saturate,
        &set,
        workers,
        SimBackend::Compiled,
        false,
        false,
    );
    assert_eq!(interpreted, compiled);
}

#[test]
fn compiled_sweep_is_invariant_under_shard_count() {
    let set = lms_seed_grid(3, LMS_SAMPLES);
    let one = run_swept(
        lms_shard_builder(lms_config()),
        &[],
        &set,
        1,
        SimBackend::Compiled,
        false,
        true,
    );
    let many = run_swept(
        lms_shard_builder(lms_config()),
        &[],
        &set,
        shard_count_from_env(2),
        SimBackend::Compiled,
        false,
        true,
    );
    assert_eq!(one, many);
}
