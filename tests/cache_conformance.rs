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
//!
//! The flow itself reuses its last simulation for an iteration whose
//! annotations did not change (the first LSB iteration), unless the
//! driver's own cache serves it. Each case also runs the flow phase by
//! phase twice: once reusing, and once with one signal marked dirty
//! between the phases, which forces the first LSB iteration to simulate
//! again. Both must decide the same fingerprint, and the reusing path
//! must reproduce `run()`'s outcome and journal.

use std::collections::BTreeSet;
use std::sync::Arc;

use fixref::obs::{DefaultRecorder, Event};
use fixref::refine::{
    FlowOutcome, FlowStatus, RefinePolicy, RefinementFlow, SequentialDriver, ShardBuilder,
    SimDriver, SimFault, SweepCoverage, SweepDriver,
};
use fixref::sim::{shard_count_from_env, Design, OverflowEvent, ScenarioSet, SignalStats};
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
    /// The outcome, rendered, and the journal.
    outcome: String,
    journal: Vec<Event>,
    /// `flow.reused_simulations`.
    reused: u64,
}

/// A driver that counts the simulations it is asked for and forwards
/// every call to the driver it wraps.
struct Counted<D> {
    inner: D,
    simulations: usize,
}

impl<D: SimDriver> SimDriver for Counted<D> {
    fn simulate(
        &mut self,
        design: &Design,
        recorder: &Arc<DefaultRecorder>,
        iteration: usize,
        record_graph: bool,
    ) -> Result<u64, SimFault> {
        self.simulations += 1;
        self.inner
            .simulate(design, recorder, iteration, record_graph)
    }

    fn coverage(&self) -> Option<SweepCoverage> {
        self.inner.coverage()
    }

    fn cache_is_warm(&self) -> bool {
        self.inner.cache_is_warm()
    }

    fn cache_snapshot(&self) -> Option<(Vec<SignalStats>, Vec<OverflowEvent>, u64)> {
        self.inner.cache_snapshot()
    }

    fn resume_invalidation(&mut self, dirty: usize) {
        self.inner.resume_invalidation(dirty);
    }
}

/// A flow run phase by phase (`run_msb_with` → `run_lsb_with` →
/// `apply_types` → `verify_with`) through a counted driver.
struct PhasedRun {
    fingerprint: Fingerprint,
    outcome: String,
    journal: Vec<Event>,
    /// Simulations the driver was asked for.
    simulations: usize,
    /// `flow.reused_simulations`.
    reused: u64,
}

/// Runs the flow over `master` phase by phase through `driver`. With
/// `resimulate`, one signal is marked dirty between the phases, with no
/// annotation changed, so the first LSB iteration simulates again.
fn run_phased(
    master: &Design,
    force_saturate: &[&str],
    driver: impl SimDriver,
    resimulate: bool,
) -> PhasedRun {
    let mut flow = RefinementFlow::new(master.clone(), RefinePolicy::default());
    for name in force_saturate {
        flow.force_saturate(master.find(name).expect("declared"));
    }
    let mut driver = Counted {
        inner: driver,
        simulations: 0,
    };
    let (msb_history, mut interventions) =
        flow.run_msb_with(&mut driver).expect("MSB phase converges");
    if resimulate {
        master.mark_dirty(&[master.reports()[0].id]);
    }
    let (lsb_history, lsb_interventions) =
        flow.run_lsb_with(&mut driver).expect("LSB phase converges");
    interventions.extend(lsb_interventions);
    let (types, unrefined) = flow.apply_types(
        msb_history.last().map_or(&[][..], Vec::as_slice),
        lsb_history.last().map_or(&[][..], Vec::as_slice),
    );
    let verify = flow.verify_with(&mut driver).expect("verification runs");
    let outcome = FlowOutcome {
        msb_iterations: msb_history.len(),
        lsb_iterations: lsb_history.len(),
        msb_history,
        lsb_history,
        interventions,
        types,
        unrefined,
        verify,
        status: FlowStatus::Complete,
        coverage: driver.coverage(),
    };
    PhasedRun {
        fingerprint: fingerprint(master, &flow, &outcome),
        outcome: format!("{outcome:?}"),
        journal: flow.journal(),
        simulations: driver.simulations,
        reused: flow.recorder().counter("flow.reused_simulations"),
    }
}

/// The sequential phased pair (reusing, re-simulating) on the set's
/// single scenario.
fn phased_sequential(
    make: fn() -> Box<ShardBuilder>,
    force_saturate: &[&str],
    scenarios: &ScenarioSet,
) -> (PhasedRun, PhasedRun) {
    let run = |resimulate| {
        let shard = make()(&scenarios.as_slice()[0]);
        let mut stimulus = shard.stimulus;
        let driver = SequentialDriver::new(move |d: &Design, i: usize| stimulus(d, i));
        run_phased(&shard.design, force_saturate, driver, resimulate)
    };
    (run(false), run(true))
}

/// The swept phased pair (reusing, re-simulating) over `scenarios`,
/// without the sweep's cache.
fn phased_swept(
    make: fn() -> Box<ShardBuilder>,
    force_saturate: &[&str],
    scenarios: &ScenarioSet,
    workers: usize,
) -> (PhasedRun, PhasedRun) {
    let run = |resimulate| {
        let master = make()(&scenarios.as_slice()[0]).design;
        let driver = SweepDriver::new(scenarios.clone(), workers, make());
        run_phased(&master, force_saturate, driver, resimulate)
    };
    (run(false), run(true))
}

/// What the flow's reuse must guarantee: `plain` (`run()` with no driver
/// cache) reused exactly one simulation, the phased run reproduced its
/// outcome and journal with one simulation fewer than the re-simulating
/// run, and all three decided the same fingerprint.
fn assert_reuse_conforms(plain: &CachedRun, reusing: &PhasedRun, resimulated: &PhasedRun) {
    assert_eq!(plain.reused, 1, "run() reused the first LSB iteration");
    assert_eq!(reusing.reused, 1);
    assert_eq!(resimulated.reused, 0, "a dirty mark forces a simulation");
    assert_eq!(reusing.simulations + 1, resimulated.simulations);
    assert_eq!(resimulated.fingerprint, reusing.fingerprint);
    assert_eq!(reusing.fingerprint, plain.fingerprint);
    assert_eq!(reusing.outcome, plain.outcome, "phased outcome differs");
    assert_eq!(reusing.journal, plain.journal, "phased journal differs");
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
    let cache_hits = flow.recorder().counter("cache.hits");
    cached_run(&design, &flow, &outcome, cache_hits)
}

fn cached_run(
    design: &Design,
    flow: &RefinementFlow,
    outcome: &FlowOutcome,
    cache_hits: u64,
) -> CachedRun {
    let journal = flow.journal();
    CachedRun {
        fingerprint: fingerprint(design, flow, outcome),
        cache_hits,
        invalidations: journal
            .iter()
            .filter(|e| matches!(e, Event::CacheInvalidated { .. }))
            .count(),
        outcome: format!("{outcome:?}"),
        journal,
        reused: flow.recorder().counter("flow.reused_simulations"),
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
    cached_run(&master, &flow, &outcome, hits)
}

const LMS_SAMPLES: usize = 1200;
const TIMING_SAMPLES: usize = 4000;
const TIMING_SATURATE: [&str; 5] = ["terr", "lp", "lferr", "step", "mu"];

fn lms_builder() -> Box<ShardBuilder> {
    lms_shard_builder(lms_config())
}

fn timing_builder() -> Box<ShardBuilder> {
    timing_shard_builder(timing_config())
}

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
    // A warm driver cache serves the iteration the flow would reuse.
    assert_eq!(cached.reused, 0);

    let (reusing, resimulated) = phased_sequential(lms_builder, &[], &set);
    assert_eq!(reusing.simulations, 3, "MSB 1, MSB 2, verification");
    assert_eq!(resimulated.simulations, 4);
    assert_reuse_conforms(&plain, &reusing, &resimulated);
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
    assert_eq!(cached.reused, 0);

    let (reusing, resimulated) = phased_sequential(timing_builder, &TIMING_SATURATE, &set);
    assert_reuse_conforms(&plain, &reusing, &resimulated);
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
    assert_eq!(
        cached.reused, 0,
        "the warm sweep cache serves the iteration"
    );

    let (reusing, resimulated) = phased_swept(lms_builder, &[], &set, workers);
    assert_eq!(reusing.simulations, 3);
    assert_reuse_conforms(&plain, &reusing, &resimulated);
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
    assert_eq!(cached.reused, 0);

    let (reusing, resimulated) = phased_swept(timing_builder, &TIMING_SATURATE, &set, workers);
    assert_reuse_conforms(&plain, &reusing, &resimulated);
}
