//! Scenario-sweep experiments: the two reference designs' shard builders
//! (re-exported from `fixref-dsp`), swept variants of the Table 1/2 runs,
//! and the parallel-shard
//! benchmark behind `cargo run -p fixref-bench --bin sweep`
//! (`BENCH_parallel.json`).
//!
//! The swept table runs exist to witness the sweep engine's conformance
//! contract: driven with [`lms_paper_scenario`] they must reproduce
//! [`crate::run_table1`] / [`crate::run_table2`] bit-identically at any
//! worker count, because a single scenario always folds through the
//! identity merge.

use std::time::Instant;

use fixref_core::{
    render_msb_table, FlowError, LsbAnalysis, MsbAnalysis, RefinePolicy, RefinementFlow,
    SweepDriver,
};
use fixref_dsp::LmsConfig;
use fixref_obs::MetricsReport;
use fixref_sim::ScenarioSet;

use crate::report::{ms, BenchReport, Metric};
use crate::{lms_setup, LMS_SNR_DB};

/// The stimulus of one equalizer scenario. With empty `channel_taps` it
/// reproduces [`fixref_dsp::lms::equalizer_stimulus`] sample-for-sample,
/// which is what keeps the single-scenario sweep bit-identical to the
/// sequential table runs.
pub use fixref_dsp::lms::scenario_stimulus as lms_scenario_stimulus;
/// Shard builder for the Fig. 1 LMS equalizer.
pub use fixref_dsp::lms::shard_builder as lms_shard_builder;
/// Shard builder for the Fig. 5 timing-recovery loop of the §6.1 complex
/// example.
pub use fixref_dsp::timing_loop::shard_builder as timing_shard_builder;

/// The single scenario reproducing the sequential Table 1/2 stimulus:
/// seed 7 at [`LMS_SNR_DB`] over the paper's mild-ISI channel.
pub fn lms_paper_scenario(samples: usize) -> ScenarioSet {
    ScenarioSet::single(7, LMS_SNR_DB, samples)
}

/// A seed sweep around the paper's operating point: `scenarios`
/// consecutive seeds starting at the table seed, all at [`LMS_SNR_DB`]
/// over the mild-ISI channel.
pub fn lms_seed_grid(scenarios: usize, samples: usize) -> ScenarioSet {
    let seeds: Vec<u64> = (0..scenarios.max(1) as u64).map(|i| 7 + i).collect();
    ScenarioSet::grid(&seeds, &[LMS_SNR_DB], &[], &[samples])
}

/// [`crate::run_table1_report`] driven through the scenario-sweep engine.
///
/// # Errors
///
/// Propagates [`FlowError`] if the MSB phase cannot converge.
#[allow(clippy::type_complexity)]
pub fn run_table1_swept(
    scenarios: &ScenarioSet,
    workers: usize,
) -> Result<(Vec<Vec<MsbAnalysis>>, Vec<String>, MetricsReport), FlowError> {
    let (design, _eq) = lms_setup(&LmsConfig::default());
    let mut flow = RefinementFlow::new(design, RefinePolicy::default());
    let mut driver = SweepDriver::new(
        scenarios.clone(),
        workers,
        lms_shard_builder(LmsConfig::default()),
    );
    let (history, interventions) = flow.run_msb_with(&mut driver)?;
    let report = MetricsReport::from_recorder("table1", flow.recorder());
    Ok((
        history,
        interventions.iter().map(|i| i.to_string()).collect(),
        report,
    ))
}

/// [`crate::run_table2_report`] driven through the scenario-sweep engine.
///
/// # Errors
///
/// Propagates [`FlowError`] if the LSB phase cannot converge.
pub fn run_table2_swept(
    scenarios: &ScenarioSet,
    workers: usize,
) -> Result<(Vec<Vec<LsbAnalysis>>, MetricsReport), FlowError> {
    let config = LmsConfig {
        input_dtype: Some(crate::paper_input_type()),
        ..LmsConfig::default()
    };
    let (design, _eq) = lms_setup(&config);
    let mut flow = RefinementFlow::new(design, RefinePolicy::default());
    let mut driver = SweepDriver::new(scenarios.clone(), workers, lms_shard_builder(config));
    let (history, _) = flow.run_lsb_with(&mut driver)?;
    let report = MetricsReport::from_recorder("table2", flow.recorder());
    Ok((history, report))
}

/// One timed MSB refinement over `set`.
struct MsbSweep {
    /// The final rendered MSB table.
    table: String,
    iterations: usize,
    /// Each shard's wall time in the last iteration, ms.
    shard_ms: Vec<f64>,
    /// Each shard's ticked cycles in the last iteration.
    shard_cycles: Vec<f64>,
    wall_ms: f64,
}

/// Runs the MSB refinement of `run_msb_with` over `set` with `workers`
/// threads.
fn timed_msb_sweep(set: &ScenarioSet, workers: usize) -> Result<MsbSweep, FlowError> {
    let (design, _eq) = lms_setup(&LmsConfig::default());
    let mut flow = RefinementFlow::new(design, RefinePolicy::default());
    let mut driver = SweepDriver::new(
        set.clone(),
        workers,
        lms_shard_builder(LmsConfig::default()),
    );
    let start = Instant::now();
    let (history, _interventions) = flow.run_msb_with(&mut driver)?;
    let wall_ms = ms(start.elapsed().as_nanos());
    let shards = driver.shard_summaries();
    Ok(MsbSweep {
        table: history
            .last()
            .map(|a| render_msb_table(a))
            .unwrap_or_default(),
        iterations: history.len(),
        shard_ms: shards.iter().map(|s| ms(s.wall_ns)).collect(),
        shard_cycles: shards.iter().map(|s| s.cycles as f64).collect(),
        wall_ms,
    })
}

/// The parallel-sweep benchmark behind `BENCH_parallel.json`: refines
/// the equalizer's MSB side over a `scenarios`-seed grid sequentially
/// (one worker) and with `workers` threads, once each, and checks that
/// the two runs agree. The shard metrics spread over the parallel run's
/// shards in its last iteration.
///
/// The speedup is only meaningful when the machine's
/// `available_parallelism` actually offers `workers` hardware threads.
///
/// # Errors
///
/// Propagates [`FlowError`] if either refinement fails to converge.
pub fn run_sweep_bench(
    scenarios: usize,
    samples: usize,
    workers: usize,
) -> Result<BenchReport, FlowError> {
    let set = lms_seed_grid(scenarios, samples);
    let seq = timed_msb_sweep(&set, 1)?;
    let par = timed_msb_sweep(&set, workers)?;
    let count = |n: usize| Metric::once("count", n as f64);

    Ok(BenchReport::new("parallel", 1)
        .metric("scenarios", count(set.len()))
        .metric("samples", count(samples))
        .metric("workers", count(workers))
        .metric("sequential_ms", Metric::once("ms", seq.wall_ms))
        .metric("parallel_ms", Metric::once("ms", par.wall_ms))
        .metric(
            "speedup",
            Metric::once("x", seq.wall_ms / par.wall_ms.max(1e-6)),
        )
        .metric("msb_iterations", count(seq.iterations.max(par.iterations)))
        .metric("shard_ms", Metric::over("ms", &par.shard_ms))
        .metric("shard_cycles", Metric::over("count", &par.shard_cycles))
        .check(
            "outcomes_match",
            seq.table == par.table && seq.iterations == par.iterations,
        ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: usize = 600;

    #[test]
    fn scenario_stimulus_with_empty_taps_matches_equalizer_stimulus() {
        let set = lms_paper_scenario(SAMPLES);
        let swept = lms_scenario_stimulus(&set.as_slice()[0]);
        let sequential = fixref_dsp::lms::equalizer_stimulus(7, LMS_SNR_DB, SAMPLES);
        assert_eq!(swept, sequential);
    }

    #[test]
    fn scenario_stimulus_honours_custom_channel_taps() {
        let set = lms_paper_scenario(SAMPLES);
        let mut scenario = set.as_slice()[0].clone();
        scenario.channel_taps = vec![0.3, 1.0];
        let custom = lms_scenario_stimulus(&scenario);
        let default = lms_scenario_stimulus(&set.as_slice()[0]);
        assert_ne!(custom, default);
    }

    #[test]
    fn swept_table1_is_bit_identical_to_sequential_table1() {
        let (seq_history, seq_iv) = crate::run_table1(SAMPLES).expect("sequential converges");
        for workers in [1, 4] {
            let (history, iv, _report) =
                run_table1_swept(&lms_paper_scenario(SAMPLES), workers).expect("swept converges");
            assert_eq!(history, seq_history, "workers={workers}");
            assert_eq!(iv, seq_iv, "workers={workers}");
        }
    }

    #[test]
    fn swept_table2_is_bit_identical_to_sequential_table2() {
        let seq_history = crate::run_table2(SAMPLES).expect("sequential converges");
        for workers in [1, 4] {
            let (history, _report) =
                run_table2_swept(&lms_paper_scenario(SAMPLES), workers).expect("swept converges");
            assert_eq!(history, seq_history, "workers={workers}");
        }
    }

    #[test]
    fn sweep_bench_agrees_across_worker_counts() {
        let report = run_sweep_bench(3, SAMPLES, 2).expect("bench converges");
        assert!(report.passed());
        assert_eq!(report.bench, "parallel");
        let median = |name: &str| report.get(name).map(|m| m.median);
        assert_eq!(median("scenarios"), Some(3.0));
        assert!(median("speedup") > Some(0.0));
        assert_eq!(median("shard_cycles"), Some(SAMPLES as f64));
    }

    #[test]
    fn timing_shard_builder_builds_independent_conforming_shards() {
        use fixref_dsp::TimingConfig;

        let config = TimingConfig {
            input_dtype: Some(fixref_fixed::DType::tc("T_in", 7, 5).expect("valid")),
            input_range: None,
            ..TimingConfig::default()
        };
        let builder = timing_shard_builder(config);
        let set = ScenarioSet::single(31, crate::TIMING_SNR_DB, 400);
        let mut a = builder(&set.as_slice()[0]);
        let mut b = builder(&set.as_slice()[0]);
        (a.stimulus)(&a.design, 1);
        (b.stimulus)(&b.design, 1);
        let (sa, sb) = (a.design.export_stats(), b.design.export_stats());
        assert_eq!(sa, sb, "same scenario twice must be deterministic");
        assert!(sa.iter().any(|s| s.stat.count() > 0));
    }
}
