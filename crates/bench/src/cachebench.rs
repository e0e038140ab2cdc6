//! Incremental evaluation-cache benchmark behind
//! `cargo run -p fixref-bench --bin cache` (`BENCH_cache.json`).
//!
//! Two measurements on the Fig. 1 LMS equalizer:
//!
//! * **driver level** — one cold [`SequentialDriver`] simulation versus
//!   one warm *replay* of the same iteration (nothing dirty: the cached
//!   monitors are spliced back and the stimulus is skipped). This is the
//!   per-iteration saving the cache offers a refinement loop whenever an
//!   iteration changes no annotations — e.g. the first LSB iteration.
//! * **flow level** — the complete refinement flow (MSB + LSB + apply +
//!   verify) with the cache off and on, checked to decide bit-identical
//!   types. Most flow iterations *do* change annotations and so run
//!   cold; only the annotation-free ones (on LMS, the first LSB
//!   iteration) replay. The driver numbers isolate the cache's ceiling.

use std::sync::Arc;
use std::time::Instant;

use fixref_core::{FlowError, RefinePolicy, RefinementFlow, SequentialDriver, SimDriver};
use fixref_dsp::LmsConfig;
use fixref_obs::json::fmt_f64;
use fixref_obs::DefaultRecorder;
use fixref_sim::Design;

use crate::paper_input_type;
use crate::sweep::{lms_paper_scenario, lms_shard_builder};

/// Outcome of the evaluation-cache benchmark.
#[derive(Debug, Clone)]
pub struct CacheBenchResult {
    /// Stimulus length.
    pub samples: usize,
    /// Wall time of the cold driver simulation, nanoseconds.
    pub cold_ns: u128,
    /// Wall time of the warm (replay) simulation, nanoseconds.
    pub warm_ns: u128,
    /// `cold_ns / warm_ns`.
    pub warm_speedup: f64,
    /// Cycles both driver runs reported (they must agree).
    pub cycles: u64,
    /// Per-signal cache hits / misses of the driver pair.
    pub driver_hits: u64,
    /// Per-signal live simulations of the driver pair.
    pub driver_misses: u64,
    /// Wall time of the full flow with the cache off, nanoseconds.
    pub flow_uncached_ns: u128,
    /// Wall time of the full flow with the cache on, nanoseconds.
    pub flow_cached_ns: u128,
    /// `flow_uncached_ns / flow_cached_ns`.
    pub flow_speedup: f64,
    /// `cache.hits` counter of the cached flow's recorder.
    pub flow_hits: u64,
    /// `cache.misses` counter of the cached flow's recorder.
    pub flow_misses: u64,
    /// Whether the cached and uncached flows decided bit-identical types
    /// in the same number of iterations — the conformance check riding
    /// along with the timing.
    pub outcomes_match: bool,
}

impl CacheBenchResult {
    /// Renders the result as the `BENCH_cache.json` document.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"cache\",\n");
        out.push_str("  \"design\": \"lms\",\n");
        out.push_str(&format!("  \"samples\": {},\n", self.samples));
        out.push_str(&format!("  \"cold_ns\": {},\n", self.cold_ns));
        out.push_str(&format!("  \"warm_ns\": {},\n", self.warm_ns));
        out.push_str(&format!(
            "  \"warm_speedup\": {},\n",
            fmt_f64(self.warm_speedup)
        ));
        out.push_str(&format!("  \"cycles\": {},\n", self.cycles));
        out.push_str(&format!("  \"driver_hits\": {},\n", self.driver_hits));
        out.push_str(&format!("  \"driver_misses\": {},\n", self.driver_misses));
        out.push_str(&format!(
            "  \"flow_uncached_ns\": {},\n",
            self.flow_uncached_ns
        ));
        out.push_str(&format!("  \"flow_cached_ns\": {},\n", self.flow_cached_ns));
        out.push_str(&format!(
            "  \"flow_speedup\": {},\n",
            fmt_f64(self.flow_speedup)
        ));
        out.push_str(&format!("  \"flow_hits\": {},\n", self.flow_hits));
        out.push_str(&format!("  \"flow_misses\": {},\n", self.flow_misses));
        out.push_str(&format!("  \"outcomes_match\": {}\n", self.outcomes_match));
        out.push_str("}\n");
        out
    }
}

fn decided_types(design: &Design, outcome: &fixref_core::FlowOutcome) -> Vec<(String, String)> {
    let mut types: Vec<(String, String)> = outcome
        .types
        .iter()
        .map(|(id, t)| (design.name_of(*id), t.to_string()))
        .collect();
    types.sort();
    types
}

/// The evaluation-cache benchmark: cold-versus-replay driver timing plus
/// cached-versus-uncached full-flow timing on the LMS equalizer over the
/// paper scenario.
///
/// # Errors
///
/// Propagates [`FlowError`] if either flow fails to converge.
pub fn run_cache_bench(samples: usize) -> Result<CacheBenchResult, FlowError> {
    let config = || LmsConfig {
        input_dtype: Some(paper_input_type()),
        ..LmsConfig::default()
    };
    let set = lms_paper_scenario(samples);
    let scenario = &set.as_slice()[0];

    // Driver level: one cold run, one warm replay of the same iteration.
    let shard = lms_shard_builder(config())(scenario);
    let design = shard.design;
    let mut stimulus = shard.stimulus;
    let mut driver = SequentialDriver::with_cache(move |d: &Design, i: usize| stimulus(d, i));
    let recorder = Arc::new(DefaultRecorder::new());

    let start = Instant::now();
    let cold_cycles =
        driver
            .simulate(&design, &recorder, 0, true)
            .map_err(|f| FlowError::ShardFailed {
                shard: f.shard,
                scenario: f.scenario,
                cause: f.cause,
            })?;
    let cold_ns = start.elapsed().as_nanos();

    let start = Instant::now();
    let warm_cycles =
        driver
            .simulate(&design, &recorder, 1, false)
            .map_err(|f| FlowError::ShardFailed {
                shard: f.shard,
                scenario: f.scenario,
                cause: f.cause,
            })?;
    let warm_ns = start.elapsed().as_nanos();

    let (driver_hits, driver_misses) = driver
        .cache()
        .map(|c| (c.hits(), c.misses()))
        .unwrap_or((0, 0));

    // Flow level: the complete refinement, cache off then on.
    let shard = lms_shard_builder(config())(scenario);
    let plain_design = shard.design;
    let mut plain_stimulus = shard.stimulus;
    let mut plain_flow = RefinementFlow::new(plain_design.clone(), RefinePolicy::default());
    let start = Instant::now();
    let plain_outcome = plain_flow.run(move |d: &Design, i: usize| plain_stimulus(d, i))?;
    let flow_uncached_ns = start.elapsed().as_nanos();

    let shard = lms_shard_builder(config())(scenario);
    let cached_design = shard.design;
    let mut cached_stimulus = shard.stimulus;
    let mut cached_flow = RefinementFlow::new(cached_design.clone(), RefinePolicy::default());
    cached_flow.enable_cache();
    let start = Instant::now();
    let cached_outcome = cached_flow.run(move |d: &Design, i: usize| cached_stimulus(d, i))?;
    let flow_cached_ns = start.elapsed().as_nanos();

    let outcomes_match = decided_types(&plain_design, &plain_outcome)
        == decided_types(&cached_design, &cached_outcome)
        && plain_outcome.msb_iterations == cached_outcome.msb_iterations
        && plain_outcome.lsb_iterations == cached_outcome.lsb_iterations
        && cold_cycles == warm_cycles;

    Ok(CacheBenchResult {
        samples,
        cold_ns,
        warm_ns,
        warm_speedup: cold_ns as f64 / warm_ns.max(1) as f64,
        cycles: cold_cycles,
        driver_hits,
        driver_misses,
        flow_uncached_ns,
        flow_cached_ns,
        flow_speedup: flow_uncached_ns as f64 / flow_cached_ns.max(1) as f64,
        flow_hits: cached_flow.recorder().counter("cache.hits"),
        flow_misses: cached_flow.recorder().counter("cache.misses"),
        outcomes_match,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_bench_replays_faster_and_decides_identical_types() {
        let result = run_cache_bench(600).expect("flows converge");
        assert!(result.outcomes_match, "cached flow diverged from plain");
        assert!(
            result.warm_speedup >= 1.5,
            "replay should dominate a live run, got {}x",
            result.warm_speedup
        );
        assert!(result.driver_hits > 0);
        assert!(result.flow_hits > 0, "the cached flow never hit its cache");
        let json = result.render_json();
        let parsed = fixref_obs::Json::parse(&json).expect("well-formed JSON");
        assert_eq!(
            parsed.get("bench").and_then(fixref_obs::Json::as_str),
            Some("cache")
        );
        assert!(matches!(
            parsed.get("outcomes_match"),
            Some(fixref_obs::Json::Bool(true))
        ));
    }
}
