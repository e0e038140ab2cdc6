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
use fixref_obs::json::{escape, fmt_f64};
use fixref_obs::MetricsReport;
use fixref_sim::ScenarioSet;

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

/// One shard row of a [`SweepBenchResult`], taken from the parallel run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRow {
    /// Scenario index within the set.
    pub index: usize,
    /// Stimulus seed.
    pub seed: u64,
    /// Stimulus SNR (dB).
    pub snr_db: f64,
    /// Stimulus length.
    pub samples: usize,
    /// Clock cycles the shard's design ticked in the last iteration.
    pub cycles: u64,
    /// Wall-clock nanoseconds the shard spent on its worker thread in the
    /// last iteration.
    pub wall_ns: u128,
}

/// Outcome of the parallel scenario-sweep benchmark: the same MSB
/// refinement of the LMS equalizer over a seed grid, once with one worker
/// and once with `workers`.
#[derive(Debug, Clone)]
pub struct SweepBenchResult {
    /// Scenario count in the grid.
    pub scenarios: usize,
    /// Stimulus length per scenario.
    pub samples: usize,
    /// Worker threads of the parallel run.
    pub workers: usize,
    /// `std::thread::available_parallelism()` on the benchmarking host —
    /// read this before trusting the speedup number.
    pub available_parallelism: usize,
    /// Wall time of the one-worker (sequential) refinement, nanoseconds.
    pub sequential_ns: u128,
    /// Wall time of the `workers`-thread refinement, nanoseconds.
    pub parallel_ns: u128,
    /// `sequential_ns / parallel_ns`.
    pub speedup: f64,
    /// MSB iterations both runs took (they must agree).
    pub msb_iterations: usize,
    /// Whether the sequential and parallel runs produced the same final
    /// MSB table — the conformance check riding along with the timing.
    pub outcomes_match: bool,
    /// Per-shard statistics from the last parallel iteration.
    pub shards: Vec<ShardRow>,
}

impl SweepBenchResult {
    /// Renders the result as the `BENCH_parallel.json` document.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"parallel\",\n");
        out.push_str(&format!("  \"scenarios\": {},\n", self.scenarios));
        out.push_str(&format!("  \"samples\": {},\n", self.samples));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!(
            "  \"available_parallelism\": {},\n",
            self.available_parallelism
        ));
        out.push_str(&format!("  \"sequential_ns\": {},\n", self.sequential_ns));
        out.push_str(&format!("  \"parallel_ns\": {},\n", self.parallel_ns));
        out.push_str(&format!("  \"speedup\": {},\n", fmt_f64(self.speedup)));
        out.push_str(&format!("  \"msb_iterations\": {},\n", self.msb_iterations));
        out.push_str(&format!("  \"outcomes_match\": {},\n", self.outcomes_match));
        out.push_str("  \"shards\": [\n");
        for (i, s) in self.shards.iter().enumerate() {
            let comma = if i + 1 < self.shards.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"index\": {}, \"label\": \"{}\", \"seed\": {}, \"snr_db\": {}, \
                 \"samples\": {}, \"cycles\": {}, \"wall_ns\": {}}}{comma}\n",
                s.index,
                escape(&format!(
                    "s{} seed={} snr={}dB n={}",
                    s.index, s.seed, s.snr_db, s.samples
                )),
                s.seed,
                fmt_f64(s.snr_db),
                s.samples,
                s.cycles,
                s.wall_ns,
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Runs the MSB refinement of `run_msb_with` over `set` and returns the
/// final rendered MSB table, the iteration count, the per-shard rows of
/// the last iteration, and the wall time.
fn timed_msb_sweep(
    set: &ScenarioSet,
    workers: usize,
) -> Result<(String, usize, Vec<ShardRow>, u128), FlowError> {
    let (design, _eq) = lms_setup(&LmsConfig::default());
    let mut flow = RefinementFlow::new(design, RefinePolicy::default());
    let mut driver = SweepDriver::new(
        set.clone(),
        workers,
        lms_shard_builder(LmsConfig::default()),
    );
    let start = Instant::now();
    let (history, _interventions) = flow.run_msb_with(&mut driver)?;
    let wall_ns = start.elapsed().as_nanos();
    let table = history
        .last()
        .map(|a| render_msb_table(a))
        .unwrap_or_default();
    let shards = driver
        .shard_summaries()
        .iter()
        .map(|s| ShardRow {
            index: s.scenario.index,
            seed: s.scenario.seed,
            snr_db: s.scenario.snr_db,
            samples: s.scenario.samples,
            cycles: s.cycles,
            wall_ns: s.wall_ns,
        })
        .collect();
    Ok((table, history.len(), shards, wall_ns))
}

/// The parallel-sweep benchmark: refines the equalizer's MSB side over a
/// `scenarios`-seed grid sequentially (one worker) and with `workers`
/// threads, verifying the two runs agree and reporting the timing.
///
/// The speedup is only meaningful when `available_parallelism` actually
/// offers `workers` hardware threads; the JSON carries the host's count
/// so downstream tooling can judge.
///
/// # Errors
///
/// Propagates [`FlowError`] if either refinement fails to converge.
pub fn run_sweep_bench(
    scenarios: usize,
    samples: usize,
    workers: usize,
) -> Result<SweepBenchResult, FlowError> {
    let set = lms_seed_grid(scenarios, samples);
    let (seq_table, seq_iters, _seq_shards, sequential_ns) = timed_msb_sweep(&set, 1)?;
    let (par_table, par_iters, shards, parallel_ns) = timed_msb_sweep(&set, workers)?;

    Ok(SweepBenchResult {
        scenarios: set.len(),
        samples,
        workers,
        available_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        sequential_ns,
        parallel_ns,
        speedup: sequential_ns as f64 / parallel_ns.max(1) as f64,
        msb_iterations: seq_iters.max(par_iters),
        outcomes_match: seq_table == par_table && seq_iters == par_iters,
        shards,
    })
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
    fn sweep_bench_agrees_across_worker_counts_and_renders_json() {
        let result = run_sweep_bench(3, SAMPLES, 2).expect("bench converges");
        assert!(result.outcomes_match);
        assert_eq!(result.scenarios, 3);
        assert_eq!(result.shards.len(), 3);
        assert!(result.speedup > 0.0);
        let json = result.render_json();
        let parsed = fixref_obs::Json::parse(&json).expect("well-formed JSON");
        assert_eq!(
            parsed.get("bench").and_then(fixref_obs::Json::as_str),
            Some("parallel")
        );
        assert_eq!(
            parsed.get("scenarios").and_then(fixref_obs::Json::as_u64),
            Some(3)
        );
        assert_eq!(
            parsed
                .get("shards")
                .and_then(fixref_obs::Json::as_arr)
                .map(<[fixref_obs::Json]>::len),
            Some(3)
        );
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
