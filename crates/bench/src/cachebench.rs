//! Incremental evaluation-cache benchmark behind
//! `cargo run -p fixref-bench --bin cache` (`BENCH_cache.json`).
//!
//! Two measurements on the Fig. 1 LMS equalizer:
//!
//! * **driver level** — one cold [`SequentialDriver`] simulation versus
//!   one warm *replay* of the same iteration (nothing dirty: the cached
//!   monitors are put back and the stimulus is skipped). This is the
//!   per-iteration saving the cache offers a refinement loop whenever an
//!   iteration changes no annotations — e.g. the first LSB iteration.
//! * **flow level** — the complete refinement flow (MSB + LSB + apply +
//!   verify) with the cache off and on, checked to decide bit-identical
//!   types. Most flow iterations *do* change annotations and so run
//!   cold; only the annotation-free ones (on LMS, the first LSB
//!   iteration) replay. The driver numbers isolate the cache's ceiling.

use std::sync::Arc;
use std::time::Instant;

use fixref_core::{FlowError, RefinePolicy, RefinementFlow, SequentialDriver, SimDriver, SimFault};
use fixref_dsp::LmsConfig;
use fixref_obs::DefaultRecorder;
use fixref_sim::Design;

use crate::report::{ms, BenchReport, Metric};
use crate::sweep::{lms_paper_scenario, lms_shard_builder};
use crate::{decided_types, paper_input_type};

/// The evaluation-cache benchmark: cold-versus-replay driver timing plus
/// cached-versus-uncached full-flow timing on the LMS equalizer over the
/// paper scenario, each measured once. Checks that both flows decide the
/// same types and that the replay beats a cold run by the 1.5x floor.
///
/// # Errors
///
/// Propagates [`FlowError`] if either flow fails to converge.
pub fn run_cache_bench(samples: usize) -> Result<BenchReport, FlowError> {
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
    let failed = |f: SimFault| FlowError::ShardFailed {
        shard: f.shard,
        scenario: f.scenario,
        cause: f.cause,
    };

    let start = Instant::now();
    let cold_cycles = driver
        .simulate(&design, &recorder, 0, true)
        .map_err(failed)?;
    let cold_ns = start.elapsed().as_nanos();

    let start = Instant::now();
    let warm_cycles = driver
        .simulate(&design, &recorder, 1, false)
        .map_err(failed)?;
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
    let warm_speedup = cold_ns as f64 / warm_ns.max(1) as f64;
    let count = |n: u64| Metric::once("count", n as f64);

    Ok(BenchReport::new("cache", 1)
        .metric("samples", count(samples as u64))
        .metric("cold_ms", Metric::once("ms", ms(cold_ns)))
        .metric("warm_ms", Metric::once("ms", ms(warm_ns)))
        .metric("warm_speedup", Metric::once("x", warm_speedup))
        .metric("cycles", count(cold_cycles))
        .metric("driver_hits", count(driver_hits))
        .metric("driver_misses", count(driver_misses))
        .metric("flow_uncached_ms", Metric::once("ms", ms(flow_uncached_ns)))
        .metric("flow_cached_ms", Metric::once("ms", ms(flow_cached_ns)))
        .metric(
            "flow_speedup",
            Metric::once("x", flow_uncached_ns as f64 / flow_cached_ns.max(1) as f64),
        )
        .metric(
            "flow_hits",
            count(cached_flow.recorder().counter("cache.hits")),
        )
        .metric(
            "flow_misses",
            count(cached_flow.recorder().counter("cache.misses")),
        )
        .check("outcomes_match", outcomes_match)
        .check("warm_speedup_at_least_1.5x", warm_speedup >= 1.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_bench_replays_faster_and_decides_identical_types() {
        let report = run_cache_bench(600).expect("flows converge");
        assert!(report.passed(), "{}", report.render_text());
        let median = |name: &str| report.get(name).map(|m| m.median);
        assert!(median("warm_speedup") >= Some(1.5));
        assert!(median("driver_hits") > Some(0.0));
        assert!(
            median("flow_hits") > Some(0.0),
            "the cached flow never hit its cache"
        );
        assert_eq!(report.bench, "cache");
    }
}
