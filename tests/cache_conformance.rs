//! Differential conformance suite for the incremental evaluation cache.
//!
//! The contract under test: enabling the evaluation cache — monitor
//! replay on iterations that changed no annotation — changes *nothing*
//! about the refinement outcome. Decided types, the `type_applied` journal,
//! iteration counts and the merged per-signal monitors must be bitwise
//! identical with the cache on, off, and across the sweep's worker
//! counts (the CI matrix sets `FIXREF_TEST_SHARDS` to 1, 2 and 8).
//!
//! Deliberately *outside* the fingerprint: recorder counters
//! (`cache.hits`, and `sim.*` — a replay skips the simulation that would
//! count them) and the cache's own journal events, which legitimately
//! differ between cached and uncached runs.

use std::collections::BTreeSet;

use fixref::obs::Event;
use fixref::refine::{RefinePolicy, RefinementFlow, SweepDriver};
use fixref::sim::{shard_count_from_env, Design, ScenarioSet, SignalStats};
use fixref_bench::{
    lms_paper_scenario, lms_shard_builder, paper_input_type, timing_shard_builder, TIMING_SNR_DB,
};
use fixref_dsp::{LmsConfig, TimingConfig};
use fixref_fixed::DType;

/// Everything the outcome of a refinement run is judged by.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    /// Decided types by signal name.
    types: Vec<(String, String)>,
    /// The `type_applied` journal events, as a set.
    type_applied: BTreeSet<(String, String)>,
    /// Iteration counts.
    msb_iterations: usize,
    lsb_iterations: usize,
    /// The master design's merged per-signal monitors after verification
    /// (bitwise: exact min/max, error moments, counters).
    stats: Vec<SignalStats>,
}

/// A fingerprint plus the cache accounting needed to prove the cached
/// run actually reused monitors rather than silently running cold.
struct CachedRun {
    fingerprint: Fingerprint,
    cache_hits: u64,
    invalidations: usize,
}

fn fingerprint(
    design: &Design,
    flow: &RefinementFlow,
    outcome: &fixref::refine::FlowOutcome,
) -> Fingerprint {
    let mut types: Vec<(String, String)> = outcome
        .types
        .iter()
        .map(|(id, t)| (design.name_of(*id), t.to_string()))
        .collect();
    types.sort();
    let type_applied = flow
        .recorder()
        .events()
        .into_iter()
        .filter_map(|e| match e {
            Event::TypeApplied { signal, dtype } => Some((signal, dtype)),
            _ => None,
        })
        .collect();
    Fingerprint {
        types,
        type_applied,
        msb_iterations: outcome.msb_iterations,
        lsb_iterations: outcome.lsb_iterations,
        stats: design.export_stats(),
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
        input_dtype: Some(DType::tc("T_in", 7, 5).expect("valid")),
        input_range: None,
        ..TimingConfig::default()
    }
}

/// Runs the plain sequential flow on the shard the builder makes for the
/// set's single scenario, with or without the evaluation cache.
fn run_sequential(
    builder: Box<fixref::refine::ShardBuilder>,
    force_saturate: &[&str],
    scenarios: &ScenarioSet,
    cached: bool,
) -> CachedRun {
    assert_eq!(scenarios.len(), 1, "sequential baseline is one scenario");
    let shard = builder(&scenarios.as_slice()[0]);
    let design = shard.design;
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
    if cached {
        flow.enable_cache();
    }
    for name in force_saturate {
        flow.force_saturate(design.find(name).expect("declared"));
    }
    let outcome = flow
        .run(move |d: &Design, i: usize| stimulus(d, i))
        .expect("sequential flow converges");
    CachedRun {
        fingerprint: fingerprint(&design, &flow, &outcome),
        cache_hits: flow.recorder().counter("cache.hits"),
        invalidations: flow
            .recorder()
            .events()
            .iter()
            .filter(|e| matches!(e, Event::CacheInvalidated { .. }))
            .count(),
    }
}

/// Runs the full flow over `scenarios` with `workers` threads, with or
/// without the sweep's evaluation cache.
fn run_swept(
    builder: Box<fixref::refine::ShardBuilder>,
    force_saturate: &[&str],
    scenarios: &ScenarioSet,
    workers: usize,
    cached: bool,
) -> CachedRun {
    let master = builder(&scenarios.as_slice()[0]).design;
    let mut flow = RefinementFlow::new(master.clone(), RefinePolicy::default());
    for name in force_saturate {
        flow.force_saturate(master.find(name).expect("declared"));
    }
    let mut sweep = SweepDriver::new(scenarios.clone(), workers, builder);
    if cached {
        sweep.enable_cache();
    }
    let outcome = flow.run_swept(&mut sweep).expect("swept flow converges");
    let (hits, _misses) = sweep.cache_stats();
    CachedRun {
        fingerprint: fingerprint(&master, &flow, &outcome),
        cache_hits: hits,
        invalidations: flow
            .recorder()
            .events()
            .iter()
            .filter(|e| matches!(e, Event::CacheInvalidated { .. }))
            .count(),
    }
}

const LMS_SAMPLES: usize = 1200;
const TIMING_SAMPLES: usize = 4000;
const TIMING_SATURATE: [&str; 5] = ["terr", "lp", "lferr", "step", "mu"];

#[test]
fn lms_cached_sequential_flow_is_bit_identical_to_uncached() {
    let set = lms_paper_scenario(LMS_SAMPLES);
    let plain = run_sequential(lms_shard_builder(lms_config()), &[], &set, false);
    let cached = run_sequential(lms_shard_builder(lms_config()), &[], &set, true);
    assert_eq!(plain.fingerprint, cached.fingerprint);
    // The cached run really replayed monitors ...
    assert!(cached.cache_hits > 0, "cache never hit");
    // ... and annotation changes invalidated it along the way.
    assert!(cached.invalidations > 0, "no invalidation was journaled");
    // The uncached run kept no cache at all.
    assert_eq!(plain.cache_hits, 0);
}

#[test]
fn timing_loop_cached_sequential_flow_is_bit_identical_to_uncached() {
    // The timing loop does NOT declare a static schedule (its strobe
    // steers data-dependent control flow); the cache replays its
    // fully-clean iterations all the same. The outcome must still match
    // bitwise.
    let set = ScenarioSet::single(31, TIMING_SNR_DB, TIMING_SAMPLES);
    let plain = run_sequential(
        timing_shard_builder(timing_config()),
        &TIMING_SATURATE,
        &set,
        false,
    );
    let cached = run_sequential(
        timing_shard_builder(timing_config()),
        &TIMING_SATURATE,
        &set,
        true,
    );
    assert_eq!(plain.fingerprint, cached.fingerprint);
    assert!(cached.cache_hits > 0, "replay never happened");
}

#[test]
fn lms_cached_sweep_is_bit_identical_to_uncached_across_shard_counts() {
    let workers = shard_count_from_env(2);
    let set = lms_paper_scenario(LMS_SAMPLES);
    let plain = run_swept(lms_shard_builder(lms_config()), &[], &set, workers, false);
    let cached = run_swept(lms_shard_builder(lms_config()), &[], &set, workers, true);
    assert_eq!(plain.fingerprint, cached.fingerprint);
    assert!(cached.cache_hits > 0, "sweep cache never hit");
    // The cached sweep also matches the cached sequential flow (one
    // scenario: the sweep merge is the identity).
    let sequential = run_sequential(lms_shard_builder(lms_config()), &[], &set, true);
    assert_eq!(sequential.fingerprint, cached.fingerprint);
}

#[test]
fn timing_loop_cached_sweep_is_bit_identical_to_uncached_across_shard_counts() {
    let workers = shard_count_from_env(2);
    let set = ScenarioSet::grid(&[31, 32], &[TIMING_SNR_DB], &[], &[TIMING_SAMPLES]);
    let plain = run_swept(
        timing_shard_builder(timing_config()),
        &TIMING_SATURATE,
        &set,
        workers,
        false,
    );
    let cached = run_swept(
        timing_shard_builder(timing_config()),
        &TIMING_SATURATE,
        &set,
        workers,
        true,
    );
    assert_eq!(plain.fingerprint, cached.fingerprint);
    assert!(cached.cache_hits > 0, "sweep cache never hit");
}
