//! Experiment harness regenerating every table and figure of the DATE'99
//! evaluation (paper §6).
//!
//! Each experiment is a library function returning structured results, so
//! the `src/bin/*` printers, the integration tests and `EXPERIMENTS.md`
//! all report the same numbers:
//!
//! | paper artifact | function | printer |
//! |---|---|---|
//! | Table 1 (MSB analysis, 2 iterations) | [`run_table1`] | `cargo run -p fixref-bench --bin table1` |
//! | Table 2 (LSB analysis, `k = 1`) | [`run_table2`] | `--bin table2` |
//! | §6 SQNR check (39.8 → 39.1 dB) | [`run_sqnr`] | `--bin sqnr` |
//! | §6.1 complex example (61 signals) | [`run_complex`] | `--bin complex_example` |
//! | §1/§7 strategy claims | [`run_baselines`] | `--bin baselines` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cachebench;
pub mod compilebench;
pub mod faultbench;
pub mod lintbench;
pub mod microbench;
pub mod report;
pub mod servebench;
pub mod sweep;
pub mod verifybench;

use std::collections::HashMap;

use fixref_core::baseline::{
    analytic_refine, sim_search_refine, AnalyticOptions, SimSearchOptions,
};
use fixref_core::compare::StrategyResult;
use fixref_core::{
    render_lsb_table, render_msb_table, FlowError, FlowOutcome, LsbAnalysis, MsbAnalysis,
    RefinePolicy, RefinementFlow,
};
use fixref_dsp::lms::equalizer_stimulus;
use fixref_dsp::source::ShapedPamSource;
use fixref_dsp::{Awgn, LmsConfig, LmsEqualizer, TimingConfig, TimingRecovery};
use fixref_fixed::{DType, Interval, SqnrMeter};
use fixref_obs::MetricsReport;
use fixref_sim::{Design, SignalRef};

pub use cachebench::run_cache_bench;
pub use compilebench::run_compile_bench;
pub use faultbench::{best_run_overhead_pct, run_fault_bench};
pub use lintbench::{lint_example_designs, ExampleLint};
pub use report::{BenchArgs, BenchReport, Machine, Metric};
pub use servebench::run_serve_bench;
pub use sweep::{
    lms_paper_scenario, lms_scenario_stimulus, lms_seed_grid, lms_shard_builder, run_sweep_bench,
    run_table1_swept, run_table2_swept, timing_shard_builder,
};
pub use verifybench::{verify_bench_report, verify_example_designs, ExampleVerify};

/// The types a flow decided, by signal name and sorted: what two runs
/// of the same refinement are compared by.
pub(crate) fn decided_types(design: &Design, outcome: &FlowOutcome) -> Vec<(String, String)> {
    let mut types: Vec<(String, String)> = outcome
        .types
        .iter()
        .map(|(id, t)| (design.name_of(*id), t.to_string()))
        .collect();
    types.sort();
    types
}

/// The paper's input type `<7,5,tc>` with saturation and rounding.
pub fn paper_input_type() -> DType {
    "<7,5,tc,st,rd>".parse().expect("literal is valid")
}

/// Default stimulus length for the equalizer experiments.
pub const LMS_SAMPLES: usize = 4000;
/// Default stimulus length for the timing-loop experiment.
pub const TIMING_SAMPLES: usize = 60000;
/// Stimulus SNR for the equalizer experiments (dB).
pub const LMS_SNR_DB: f64 = 28.0;
/// Stimulus SNR for the timing-loop experiment (dB). Moderate channel
/// noise makes the float and fixed paths occasionally slip cycles against
/// each other — the divergence mechanism of the paper's NCO signal.
pub const TIMING_SNR_DB: f64 = 20.0;

/// Builds an equalizer + flow and returns (design, model).
pub(crate) fn lms_setup(config: &LmsConfig) -> (Design, LmsEqualizer) {
    let d = Design::with_seed(fixref_dsp::lms::DESIGN_SEED);
    let eq = LmsEqualizer::new(&d, config);
    (d, eq)
}

/// The stimulus closure driving the equalizer for the flow phases.
fn lms_stimulus(eq: &LmsEqualizer, samples: usize) -> impl FnMut(&Design, usize) + '_ {
    move |_d: &Design, _iter: usize| {
        eq.init();
        for &x in &equalizer_stimulus(7, LMS_SNR_DB, samples) {
            eq.step(x);
        }
    }
}

/// Table 1: per-iteration MSB analyses of the Fig. 1 equalizer (floating
/// input with `x.range(-1.5, 1.5)`).
///
/// # Errors
///
/// Propagates [`FlowError`] if the MSB phase cannot converge (does not
/// happen with the default policy).
pub fn run_table1(samples: usize) -> Result<(Vec<Vec<MsbAnalysis>>, Vec<String>), FlowError> {
    let (history, interventions, _) = run_table1_report(samples)?;
    Ok((history, interventions))
}

/// [`run_table1`] plus the flow's [`MetricsReport`] (span timings, event
/// counts, simulation counters) for `--json` output.
///
/// # Errors
///
/// Propagates [`FlowError`] if the MSB phase cannot converge.
#[allow(clippy::type_complexity)]
pub fn run_table1_report(
    samples: usize,
) -> Result<(Vec<Vec<MsbAnalysis>>, Vec<String>, MetricsReport), FlowError> {
    let (d, eq) = lms_setup(&LmsConfig::default());
    let mut flow = RefinementFlow::new(d, RefinePolicy::default());
    let (history, interventions) = flow.run_msb(lms_stimulus(&eq, samples))?;
    let report = MetricsReport::from_recorder("table1", flow.recorder());
    Ok((
        history,
        interventions.iter().map(|i| i.to_string()).collect(),
        report,
    ))
}

/// Table 2: LSB analyses with the input quantized `<7,5,tc>` and the default rule constant (`k = 1`).
///
/// # Errors
///
/// Propagates [`FlowError`] if the LSB phase cannot converge.
pub fn run_table2(samples: usize) -> Result<Vec<Vec<LsbAnalysis>>, FlowError> {
    let (history, _) = run_table2_report(samples)?;
    Ok(history)
}

/// [`run_table2`] plus the flow's [`MetricsReport`] for `--json` output.
///
/// # Errors
///
/// Propagates [`FlowError`] if the LSB phase cannot converge.
pub fn run_table2_report(
    samples: usize,
) -> Result<(Vec<Vec<LsbAnalysis>>, MetricsReport), FlowError> {
    let config = LmsConfig {
        input_dtype: Some(paper_input_type()),
        ..LmsConfig::default()
    };
    let (d, eq) = lms_setup(&config);
    let mut flow = RefinementFlow::new(d, RefinePolicy::default());
    let (history, _) = flow.run_lsb(lms_stimulus(&eq, samples))?;
    let report = MetricsReport::from_recorder("table2", flow.recorder());
    Ok((history, report))
}

/// One complete refinement flow (MSB + LSB + verification) of the paper
/// equalizer, returning the outcome plus the flow's [`MetricsReport`]
/// named `flow` — the document behind `BENCH_flow.json` (`--bin flow`).
///
/// # Errors
///
/// Propagates [`FlowError`] if either phase cannot converge.
pub fn run_flow_report(samples: usize) -> Result<(FlowOutcome, MetricsReport), FlowError> {
    let config = LmsConfig {
        input_dtype: Some(paper_input_type()),
        ..LmsConfig::default()
    };
    let (d, eq) = lms_setup(&config);
    let mut flow = RefinementFlow::new(d, RefinePolicy::default());
    let outcome = flow.run(lms_stimulus(&eq, samples))?;
    let report = MetricsReport::from_recorder("flow", flow.recorder());
    Ok((outcome, report))
}

/// Renders the Table 1 report exactly as `--bin table1` prints it, so the
/// binary, the swept runs and the golden-file tests share one formatter.
pub fn table1_text(history: &[Vec<MsbAnalysis>], interventions: &[String]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 — MSB analysis of the LMS equalizer (paper Fig. 1)"
    );
    let _ = writeln!(
        out,
        "==========================================================="
    );
    for (i, analyses) in history.iter().enumerate() {
        let _ = writeln!(out);
        let _ = writeln!(out, "--- iteration {} ---", i + 1);
        let _ = write!(out, "{}", render_msb_table(analyses));
        let exploded: Vec<&str> = analyses
            .iter()
            .filter(|a| a.exploded)
            .map(|a| a.name.as_str())
            .collect();
        let no_info: Vec<&str> = analyses
            .iter()
            .filter(|a| !a.exploded && !a.decision.is_resolved())
            .map(|a| a.name.as_str())
            .collect();
        if exploded.is_empty() {
            let _ = writeln!(out, "no range explosions left");
        } else {
            let _ = writeln!(out, "range explosion: {}", exploded.join(", "));
        }
        if !no_info.is_empty() {
            let _ = writeln!(
                out,
                "no range information (constant zero, left floating): {}",
                no_info.join(", ")
            );
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "automatic interventions (the paper's manual range() step):"
    );
    for iv in interventions {
        let _ = writeln!(out, "  {iv}");
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "iterations to resolve all MSB weights: {} (paper: 2)",
        history.len()
    );
    out
}

/// Renders the Table 2 report exactly as `--bin table2` prints it.
pub fn table2_text(history: &[Vec<LsbAnalysis>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2 — LSB analysis of the LMS equalizer (input <7,5,tc>, k = 1)"
    );
    let _ = writeln!(
        out,
        "===================================================================="
    );
    for (i, analyses) in history.iter().enumerate() {
        let _ = writeln!(out);
        let _ = writeln!(out, "--- iteration {} ---", i + 1);
        let _ = write!(out, "{}", render_lsb_table(analyses));
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "iterations to resolve all LSB weights: {} (paper: 1)",
        history.len()
    );
    out
}

/// The §6 SQNR observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SqnrResult {
    /// SQNR of `w` with only the input quantized (paper: 39.8 dB).
    pub before_db: f64,
    /// SQNR of `w` after refining every signal (paper: 39.1 dB).
    pub after_db: f64,
}

impl SqnrResult {
    /// The refinement cost in dB (paper: 0.7 dB).
    pub fn cost_db(&self) -> f64 {
        self.before_db - self.after_db
    }
}

/// Measures the equalizer's `w` SQNR before LSB refinement (input-only
/// quantization) and after the full MSB+LSB refinement.
///
/// # Errors
///
/// Propagates [`FlowError`] from the refinement run.
pub fn run_sqnr(samples: usize) -> Result<(SqnrResult, FlowOutcome), FlowError> {
    let config = LmsConfig {
        input_dtype: Some(paper_input_type()),
        ..LmsConfig::default()
    };

    // Stage A: input-only quantization.
    let (d, eq) = lms_setup(&config);
    let before_db = lms_quality(&d, &eq, samples);

    // Stage B: full refinement on a fresh design, then re-measure.
    let (d2, eq2) = lms_setup(&config);
    let mut flow = RefinementFlow::new(d2.clone(), RefinePolicy::default());
    let outcome = flow.run(lms_stimulus(&eq2, samples))?;
    let after_db = lms_quality(&d2, &eq2, samples);

    Ok((
        SqnrResult {
            before_db,
            after_db,
        },
        outcome,
    ))
}

/// The §6.1 complex-example summary.
#[derive(Debug, Clone)]
pub struct ComplexResult {
    /// Total monitored signals (paper: 61).
    pub signals: usize,
    /// Saturations forced by MSB explosion (paper: 2).
    pub forced_saturations: usize,
    /// Knowledge-based saturations (paper: 5).
    pub knowledge_saturations: usize,
    /// Signals left non-saturated (paper: 54).
    pub nonsaturated: usize,
    /// Mean MSB overhead of the non-saturated signals versus the pure
    /// statistic estimate (paper: 0.22 bits/signal).
    pub msb_overhead_bits: f64,
    /// MSB iterations (paper: 2).
    pub msb_iterations: usize,
    /// LSB-divergent feedback signals (paper: 1 — inside the NCO).
    pub lsb_divergent: Vec<String>,
    /// LSB iterations after stabilizing the divergent signal (paper: 1
    /// further iteration, i.e. 2 runs total).
    pub lsb_iterations: usize,
    /// §5.2 consumed/produced precision checks from the verification run.
    pub precision: Vec<fixref_core::PrecisionCheck>,
    /// The full flow outcome for drill-down.
    pub outcome: FlowOutcome,
}

/// Runs the full refinement flow on the Fig. 5 timing-recovery loop.
///
/// The five knowledge-based saturation choices are the control-path
/// signals a designer knows to be bounded: the TED error, both loop-filter
/// terms, its output, and the NCO step.
///
/// # Errors
///
/// Propagates [`FlowError`] from either phase.
pub fn run_complex(samples: usize) -> Result<ComplexResult, FlowError> {
    let d = Design::with_seed(fixref_dsp::timing_loop::DESIGN_SEED);
    let config = TimingConfig {
        input_dtype: Some(DType::tc("T_in", 7, 5).expect("valid")),
        input_range: None, // the input type supplies the declared range
        ..TimingConfig::default()
    };
    let loopm = TimingRecovery::new(&d, &config);
    let signals = loopm.signal_ids().len();

    let mut flow = RefinementFlow::new(d.clone(), RefinePolicy::default());
    for name in ["terr", "lp", "lferr", "step", "mu"] {
        flow.force_saturate(d.find(name).expect("declared"));
    }

    let stim = |_d: &Design, _iter: usize| {
        loopm.init();
        let mut src = ShapedPamSource::new(31, 0.35, 2, 0.3, 100.0);
        let mut noise = Awgn::from_snr_db(9, TIMING_SNR_DB, 1.0);
        for _ in 0..samples {
            loopm.step(noise.add(src.next_sample()).clamp(-1.9, 1.9));
        }
    };

    let outcome = flow.run(stim)?;

    let (forced, other) = outcome.saturation_counts();
    let resolved_nonsat = outcome
        .msb()
        .iter()
        .filter(|a| a.decision.is_resolved() && !a.decision.is_saturated())
        .count();
    let lsb_divergent: Vec<String> = outcome
        .interventions
        .iter()
        .filter_map(|iv| match iv {
            fixref_core::Intervention::AutoError { name, .. } => Some(name.clone()),
            _ => None,
        })
        .collect();

    // The verification run's statistics are still on the design; run the
    // §5.2 precision classification over them.
    let precision = fixref_core::precision::analyze_precision_all(&d.reports());

    Ok(ComplexResult {
        signals,
        forced_saturations: forced,
        knowledge_saturations: other,
        nonsaturated: resolved_nonsat,
        msb_overhead_bits: outcome.mean_msb_overhead().unwrap_or(0.0),
        msb_iterations: outcome.msb_iterations,
        lsb_divergent,
        lsb_iterations: outcome.lsb_iterations,
        precision,
        outcome,
    })
}

/// Measures the equalizer output SQNR under whatever types the design
/// currently carries.
fn lms_quality(d: &Design, eq: &LmsEqualizer, samples: usize) -> f64 {
    d.reset_stats();
    d.reset_state();
    eq.init();
    let mut meter = SqnrMeter::new();
    for &x in &equalizer_stimulus(7, LMS_SNR_DB, samples) {
        eq.step(x);
        let v = eq.w().get();
        meter.record(v.flt(), v.fix());
    }
    meter.sqnr_db()
}

/// Races the three strategies on the equalizer at a common quality target
/// and returns one [`StrategyResult`] row each (hybrid, simulation-based,
/// analytical).
///
/// # Errors
///
/// Propagates [`FlowError`] from the hybrid flow.
pub fn run_baselines(samples: usize, target_db: f64) -> Result<Vec<StrategyResult>, FlowError> {
    let config = LmsConfig {
        input_dtype: Some(paper_input_type()),
        ..LmsConfig::default()
    };

    // --- Hybrid (the paper's method). ---
    let (d, eq) = lms_setup(&config);
    let mut flow = RefinementFlow::new(d.clone(), RefinePolicy::default());
    let outcome = flow.run(lms_stimulus(&eq, samples))?;
    // Cost: msb iterations + lsb iterations + the verification run.
    let hybrid_sims = outcome.msb_iterations + outcome.lsb_iterations + 1;
    let hybrid_quality = lms_quality(&d, &eq, samples);
    let hybrid = StrategyResult::from_types("hybrid", hybrid_sims, &outcome.types)
        .with_quality(hybrid_quality)
        .with_notes(format!("{} auto-annotations", outcome.interventions.len()));

    // --- Pure simulation-based search (Sung & Kum). ---
    let (d2, eq2) = lms_setup(&config);
    let refine_ids: Vec<_> = eq2
        .signal_ids()
        .into_iter()
        .filter(|&id| d2.dtype_of(id).is_none())
        .collect();
    let mut eval = |d: &Design| {
        let _ = d;
        lms_quality(&d2, &eq2, samples)
    };
    let search = sim_search_refine(
        &d2,
        &refine_ids,
        &mut eval,
        target_db,
        &SimSearchOptions::default(),
    );
    let simulation = StrategyResult::from_types("simulation", search.probes, &search.types)
        .with_quality(search.final_quality)
        .with_notes(format!("{} signals skipped", search.skipped.len()));

    // --- Pure analytical (Willems et al.). ---
    let (d3, eq3) = lms_setup(&config);
    d3.record_graph(true);
    eq3.init();
    for &x in &equalizer_stimulus(7, LMS_SNR_DB, 64) {
        eq3.step(x); // one short pass extracts the structure
    }
    d3.record_graph(false);
    let graph = d3.graph();
    let mut seeds = HashMap::new();
    seeds.insert(eq3.x().id(), Interval::new(-1.5, 1.5));
    // The analytical method cannot bound the adaptive feedback: declare
    // the same range the designer gives the hybrid flow.
    seeds.insert(eq3.b().id(), Interval::new(-0.2, 0.2));
    // Worst-case |e| budget equivalent to the SQNR target on unit power.
    let budget = 10f64.powf(-target_db / 20.0) * 12f64.sqrt();
    let analytic = analytic_refine(
        &graph,
        &seeds,
        &[eq3.w().id()],
        budget,
        &AnalyticOptions::default(),
    );
    // Apply and measure.
    for (id, t) in &analytic.types {
        d3.set_dtype(*id, Some(t.clone()));
    }
    let analytic_quality = lms_quality(&d3, &eq3, samples);
    let analytical = StrategyResult::from_types("analytical", 1, &analytic.types)
        .with_quality(analytic_quality)
        .with_notes(format!(
            "{} signals need declared ranges",
            analytic.needs_annotation.len()
        ));

    Ok(vec![hybrid, simulation, analytical])
}

/// The QAM case-study summary (extension beyond the paper's two published
/// designs: its production systems were QAM cable modems).
#[derive(Debug, Clone)]
pub struct CaseStudyResult {
    /// Monitored signals (38 at the default 5 complex taps).
    pub signals: usize,
    /// MSB / LSB iteration counts.
    pub msb_iterations: usize,
    /// LSB iterations.
    pub lsb_iterations: usize,
    /// Adaptive coefficients pinned after range explosion.
    pub forced_saturations: usize,
    /// Equalized-output SQNR with every decided type applied (dB).
    pub sqnr_db: f64,
    /// Symbol decisions that differ between the fixed and float paths
    /// during the measurement run.
    pub decision_mismatches: u64,
    /// Estimated datapath cost (gate equivalents).
    pub gates: f64,
    /// The full flow outcome for drill-down.
    pub outcome: FlowOutcome,
}

/// Refines the complex QAM FFE end to end and measures the result.
///
/// # Errors
///
/// Propagates [`FlowError`] from the refinement phases.
pub fn run_case_study(samples: usize) -> Result<CaseStudyResult, FlowError> {
    use fixref_dsp::qam::{qam_stimulus, FfeConfig, QamFfe};

    let d = Design::with_seed(0x0A11_CAFE);
    let config = FfeConfig {
        input_dtype: Some(DType::tc("T_in", 9, 7).expect("valid")),
        input_range: None,
        ..FfeConfig::default()
    };
    let ffe = QamFfe::new(&d, &config);
    let signals = ffe.signal_ids().len();

    let mut flow = RefinementFlow::new(d.clone(), RefinePolicy::default());
    let ffe_for_flow = ffe.clone();
    let outcome = flow.run(move |dd: &Design, _| {
        dd.reset_state();
        ffe_for_flow.init();
        for &x in &qam_stimulus(3, 26.0, samples) {
            ffe_for_flow.step(x);
        }
    })?;

    // Measure with the decided types, recording the graph for costing.
    d.reset_stats();
    d.reset_state();
    d.clear_graph();
    d.record_graph(true);
    ffe.init();
    let mut meter = SqnrMeter::new();
    let mut mismatches = 0;
    for &x in &qam_stimulus(3, 26.0, samples) {
        ffe.step(x);
        let (or_, oi) = ffe.outputs();
        let (vr, vi) = (or_.get(), oi.get());
        meter.record(vr.flt(), vr.fix());
        meter.record(vi.flt(), vi.fix());
        let (yr, yi) = (d.find("yr").expect("yr"), d.find("yi").expect("yi"));
        let (yrf, yrx) = d.peek(yr);
        let (yif, yix) = d.peek(yi);
        if yrf != yrx || yif != yix {
            mismatches += 1;
        }
    }
    d.record_graph(false);
    let gates = fixref_codegen::estimate_cost(&d, &d.graph()).gate_score();

    let (forced, _) = outcome.saturation_counts();
    Ok(CaseStudyResult {
        signals,
        msb_iterations: outcome.msb_iterations,
        lsb_iterations: outcome.lsb_iterations,
        forced_saturations: forced,
        sqnr_db: meter.sqnr_db(),
        decision_mismatches: mismatches,
        gates,
        outcome,
    })
}

/// One row of the iteration-count scaling comparison.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Workload name.
    pub workload: String,
    /// Refinable signal count.
    pub signals: usize,
    /// Full simulations the hybrid flow needed.
    pub hybrid_sims: usize,
    /// Full simulations the Sung-&-Kum search needed.
    pub search_sims: usize,
}

/// Measures how the two stimulus-driven strategies' simulation counts
/// scale with design size: the 14-signal equalizer versus the 38-signal
/// complex FFE. The paper's pitch is exactly this curve — the hybrid stays
/// at a handful of runs while the search grows with the signal count.
///
/// # Errors
///
/// Propagates [`FlowError`] from the hybrid flows.
pub fn run_scaling(samples: usize, target_db: f64) -> Result<Vec<ScalingRow>, FlowError> {
    use fixref_dsp::qam::{qam_stimulus, FfeConfig, QamFfe};

    // --- LMS equalizer (14 signals). ---
    let config = LmsConfig {
        input_dtype: Some(paper_input_type()),
        ..LmsConfig::default()
    };
    let (d, eq) = lms_setup(&config);
    let mut flow = RefinementFlow::new(d.clone(), RefinePolicy::default());
    let outcome = flow.run(lms_stimulus(&eq, samples))?;
    let lms_hybrid = outcome.msb_iterations + outcome.lsb_iterations + 1;

    let (d2, eq2) = lms_setup(&config);
    let refine_ids: Vec<_> = eq2
        .signal_ids()
        .into_iter()
        .filter(|&id| d2.dtype_of(id).is_none())
        .collect();
    let lms_signals = refine_ids.len() + 1;
    let mut eval = |_d: &Design| lms_quality(&d2, &eq2, samples);
    let search = sim_search_refine(
        &d2,
        &refine_ids,
        &mut eval,
        target_db,
        &SimSearchOptions::default(),
    );
    let lms_search = search.probes;

    // --- QAM FFE (38 signals). ---
    let ffe_config = FfeConfig {
        input_dtype: Some(DType::tc("T_in", 9, 7).expect("valid")),
        input_range: None,
        ..FfeConfig::default()
    };
    let d3 = Design::with_seed(0x5CA1E);
    let ffe = QamFfe::new(&d3, &ffe_config);
    let ffe_signals = ffe.signal_ids().len();
    let mut flow = RefinementFlow::new(d3.clone(), RefinePolicy::default());
    let ffe_for_flow = ffe.clone();
    let outcome = flow.run(move |dd: &Design, _| {
        dd.reset_state();
        ffe_for_flow.init();
        for &x in &qam_stimulus(3, 26.0, samples) {
            ffe_for_flow.step(x);
        }
    })?;
    let ffe_hybrid = outcome.msb_iterations + outcome.lsb_iterations + 1;

    let d4 = Design::with_seed(0x5CA1E);
    let ffe2 = QamFfe::new(&d4, &ffe_config);
    let refine_ids: Vec<_> = ffe2
        .signal_ids()
        .into_iter()
        .filter(|&id| d4.dtype_of(id).is_none())
        .collect();
    let mut eval = |d: &Design| {
        d.reset_state();
        ffe2.init();
        let mut meter = SqnrMeter::new();
        for &x in &qam_stimulus(3, 26.0, samples) {
            ffe2.step(x);
            let (or_, oi) = ffe2.outputs();
            let (vr, vi) = (or_.get(), oi.get());
            meter.record(vr.flt(), vr.fix());
            meter.record(vi.flt(), vi.fix());
        }
        meter.sqnr_db()
    };
    let search = sim_search_refine(
        &d4,
        &refine_ids,
        &mut eval,
        target_db,
        &SimSearchOptions::default(),
    );

    Ok(vec![
        ScalingRow {
            workload: "LMS equalizer".to_string(),
            signals: lms_signals,
            hybrid_sims: lms_hybrid,
            search_sims: lms_search,
        },
        ScalingRow {
            workload: "QAM FFE".to_string(),
            signals: ffe_signals,
            hybrid_sims: ffe_hybrid,
            search_sims: search.probes,
        },
    ])
}
