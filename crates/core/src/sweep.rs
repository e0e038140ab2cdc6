//! The scenario-sweep simulation driver.
//!
//! [`SweepDriver`] implements [`SimDriver`] by fanning each
//! refinement-iteration simulation out over a [`ScenarioSet`]: every
//! scenario gets a **freshly built, private** [`Design`] on a worker
//! thread (designs are deliberately not `Send`, so they never cross
//! threads — only their plain-data statistic snapshots do), and the
//! per-shard monitors are folded back into the flow's master design **in
//! scenario order**. The refinement rules then run on the
//! merged statistics exactly as if one sequential simulation had seen the
//! concatenated stimuli.
//!
//! # Determinism
//!
//! Three properties make the sweep reproducible and conformant:
//!
//! 1. the pool returns shard results in scenario order regardless of the
//!    worker count, and the fold (statistics merge, journal
//!    concatenation, recorder absorption) follows that order — so the
//!    merged state is a pure function of the scenario set;
//! 2. the statistics merge has an exact empty identity
//!    (`merge(empty, x) == x` bitwise), so with a single scenario the
//!    master ends up with *exactly* the shard's monitors — bit-identical
//!    to having simulated sequentially;
//! 3. each shard design is rebuilt from scratch every iteration and
//!    re-annotated from the master's current refinement state, so shard
//!    RNG streams and quantization behavior match what the sequential
//!    flow would have produced after its own `reset_state`.
//!
//! # Backends
//!
//! The sweep is the one place a compiled replay runs
//! ([`SimBackend::Compiled`]): every shard of the record iteration
//! captures its run, compiles it against its recorded graph into a
//! [`Replay`] and proves it, and later iterations replay it instead of
//! running the stimulus.

use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use fixref_obs::{DefaultRecorder, Event, Recorder};
use fixref_sim::{
    run_shards_isolated, Design, FaultPlan, Graph, OverflowEvent, Replay, RetryPolicy, Scenario,
    ScenarioSet, ShardOutcome, SignalKind, SignalStats,
};

use crate::cache::{plan_for, CachePlan};
use crate::flow::{execute, SimDriver, SimFault, SweepCoverage};

/// Which evaluation engine a [`SweepDriver`]'s shards use.
///
/// Both backends are bit-identical — same statistics, overflow events
/// and journal counters — or the compiled one is not used: a shard whose
/// record iteration cannot be compiled (lint's FXL001 static-schedule
/// verdict refuses it, or the verification replay catches host control
/// flow the replay cannot represent) falls back to the interpreter and
/// journals [`Event::BackendFallback`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimBackend {
    /// Run the host-code description for every simulation (the paper's
    /// engine). Always available.
    #[default]
    Interpreted,
    /// After the record iteration, replay each scenario's compiled
    /// capture instead of running its stimulus: no host-code walk, no
    /// per-assignment registry lookups.
    Compiled,
}

impl SimBackend {
    /// The name used in `backend.*` events and counters.
    pub fn name(self) -> &'static str {
        match self {
            SimBackend::Interpreted => "interpreted",
            SimBackend::Compiled => "compiled",
        }
    }
}

/// Runs a shard's record iteration under capture and compiles the
/// capture, enforcing the gates of the compiled backend: lint's FXL001
/// static-schedule verdict and the bitwise verification replay. `Err`
/// carries the human-readable fallback reason.
fn capture_and_compile(design: &Design, stimulus: impl FnOnce(&Design)) -> Result<Replay, String> {
    design.begin_capture();
    execute(design, true, stimulus);
    let trace = design
        .end_capture()
        .expect("capture begun above is still active");
    let violations = fixref_lint::check_static_schedule(design);
    if !violations.is_empty() {
        return Err(format!(
            "FXL001 static-schedule verdict refused the design ({} violation(s))",
            violations.len()
        ));
    }
    let replay = Replay::compile(&design.graph(), &trace);
    if !design.verify_replay(&replay, &trace) {
        return Err(
            "verification replay diverged from the capture (host control flow is not \
             replayable)"
                .to_string(),
        );
    }
    Ok(replay)
}

/// Moves a shard's recorded graph out for the master: once the design has
/// let go of its graph, the snapshot is the only owner and unwraps without
/// a copy.
fn take_graph(shard: &Design) -> Graph {
    let graph = shard.graph();
    shard.clear_graph();
    Rc::unwrap_or_clone(graph)
}

/// How the sweep reacts to a shard that fails all its attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// Any exhausted shard aborts the simulation with a structured
    /// [`SimFault`] (surfaced by the flow as
    /// [`FlowError::ShardFailed`](crate::flow::FlowError::ShardFailed)).
    #[default]
    Strict,
    /// Exhausted shards are quarantined and the sweep merges the
    /// survivors; the flow completes best-effort and reports the reduced
    /// coverage in [`FlowOutcome::coverage`](crate::flow::FlowOutcome).
    Degraded,
}

/// Retry and degradation policy for shard failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Strict (fail fast) or degraded (best-effort merge).
    pub mode: FaultMode,
    /// Attempts per shard and simulation (at least 1); retries re-seed
    /// the scenario deterministically via
    /// [`FaultPlan::retry_seed`].
    pub max_attempts: usize,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            mode: FaultMode::Strict,
            max_attempts: 1,
        }
    }
}

/// The stimulus closure driving one shard, called as
/// `stimulus(&design, iteration)`.
pub type ShardStimulus = Box<dyn FnMut(&Design, usize)>;

/// One shard's simulation bundle: a freshly built design plus the
/// stimulus closure that drives it for its scenario.
pub struct ShardSim {
    /// The shard's private design — must declare (at least) every signal
    /// of the flow's master design, with identical names and seeds.
    pub design: Design,
    /// The stimulus, called as `stimulus(&design, iteration)`.
    pub stimulus: ShardStimulus,
}

/// Builds one [`ShardSim`] per scenario, on the worker thread that runs
/// it. Must be `Send + Sync` (shared across workers); the designs it
/// builds are not.
pub type ShardBuilder = dyn Fn(&Scenario) -> ShardSim + Send + Sync;

/// Wall-clock and cycle accounting for one shard of the last sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// The scenario this shard simulated.
    pub scenario: Scenario,
    /// Clock cycles the shard's design ticked.
    pub cycles: u64,
    /// Wall-clock nanoseconds spent building, annotating and simulating
    /// the shard (as measured on its worker thread).
    pub wall_ns: u128,
}

/// What a worker hands back across the thread boundary: plain data only.
struct ShardResult {
    stats: Vec<SignalStats>,
    overflow_events: Vec<OverflowEvent>,
    graph: Option<Graph>,
    recorder: Arc<DefaultRecorder>,
    cycles: u64,
    wall_ns: u128,
    /// The shard's compiled capture (record iteration under the compiled
    /// backend only): `Ok` carries the verified replay, `Err` the
    /// human-readable fallback reason.
    compiled: Option<Result<Replay, String>>,
}

/// One shard's monitors retained for cache replay. A Replay simulation
/// re-runs the scenario-order merge over these instead of the worker
/// pool; absorbing the retained shard recorders reproduces a fresh run's
/// counters and journal bitwise.
struct CachedShard {
    stats: Vec<SignalStats>,
    overflow_events: Vec<OverflowEvent>,
    recorder: Arc<DefaultRecorder>,
    cycles: u64,
    wall_ns: u128,
}

/// The sweep's evaluation cache: per-shard monitor snapshots of the last
/// live simulation.
#[derive(Default)]
struct SweepCache {
    shards: Vec<CachedShard>,
    hits: u64,
    misses: u64,
}

impl SweepCache {
    fn is_warm(&self) -> bool {
        !self.shards.is_empty()
    }
}

/// A [`SimDriver`] that runs every simulation as a parallel scenario
/// sweep. See the module docs for the determinism
/// contract; see [`RefinementFlow::run_swept`](crate::RefinementFlow::run_swept)
/// for the typical entry point.
pub struct SweepDriver {
    scenarios: ScenarioSet,
    workers: usize,
    builder: Box<ShardBuilder>,
    last_shards: Vec<ShardSummary>,
    cache: Option<SweepCache>,
    fault_policy: FaultPolicy,
    faults: FaultPlan,
    quarantined: BTreeSet<usize>,
    coverage: Option<SweepCoverage>,
    pending_invalidation: Option<usize>,
    backend: SimBackend,
    /// One verified replay per scenario (indexed by scenario index),
    /// armed by a record iteration that compiled every scenario. Dropped
    /// whenever a new record iteration runs or a shard fails.
    compiled: Option<Vec<Replay>>,
    fallback_noted: bool,
}

impl std::fmt::Debug for SweepDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepDriver")
            .field("scenarios", &self.scenarios.len())
            .field("workers", &self.workers)
            .finish()
    }
}

impl SweepDriver {
    /// Creates a sweep over `scenarios` with at most `workers` threads
    /// (`1` = run shards sequentially on the calling thread).
    pub fn new(scenarios: ScenarioSet, workers: usize, builder: Box<ShardBuilder>) -> Self {
        SweepDriver {
            scenarios,
            workers: workers.max(1),
            builder,
            last_shards: Vec::new(),
            cache: None,
            fault_policy: FaultPolicy::default(),
            faults: FaultPlan::default(),
            quarantined: BTreeSet::new(),
            coverage: None,
            pending_invalidation: None,
            backend: SimBackend::default(),
            compiled: None,
            fallback_noted: false,
        }
    }

    /// Selects the evaluation backend for this sweep.
    ///
    /// Under [`SimBackend::Compiled`] every shard of the record iteration
    /// captures its execution trace, compiles it into a [`Replay`], and
    /// replays that on subsequent iterations instead of re-running the
    /// stimulus. The merged statistics, refined types and journal are
    /// bit-identical to the interpreted sweep (modulo the `backend.*`
    /// events/counters themselves).
    ///
    /// The sweep falls back to the interpreter — journaling a one-shot
    /// [`Event::BackendFallback`] — whenever fault injection is active,
    /// a scenario is quarantined, lint's FXL001 static-schedule verdict
    /// refuses a shard design, or a capture fails its verification
    /// replay.
    pub fn set_backend(&mut self, backend: SimBackend) {
        self.backend = backend;
    }

    /// The selected evaluation backend.
    pub fn backend(&self) -> SimBackend {
        self.backend
    }

    /// Whether the record iteration produced compiled replays that the
    /// next simulations will run.
    pub fn has_compiled_program(&self) -> bool {
        self.compiled.is_some()
    }

    /// Journals the one-shot fallback-to-interpreted event.
    fn note_fallback(&mut self, recorder: &DefaultRecorder, reason: &str) {
        if !self.fallback_noted {
            self.fallback_noted = true;
            recorder.record_event(Event::BackendFallback {
                backend: self.backend.name().to_string(),
                reason: reason.to_string(),
            });
            recorder.inc("backend.fallbacks", 1);
        }
    }

    /// Sets the shard fault policy (strict vs degraded, retry budget).
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.fault_policy = FaultPolicy {
            mode: policy.mode,
            max_attempts: policy.max_attempts.max(1),
        };
    }

    /// The active shard fault policy.
    pub fn fault_policy(&self) -> FaultPolicy {
        self.fault_policy
    }

    /// Installs a seeded fault plan (test seam): injected worker panics
    /// and NaN stimulus bursts fire deterministically on the configured
    /// shards and attempts.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Indices of the scenarios quarantined so far (degraded mode only).
    pub fn quarantined(&self) -> Vec<usize> {
        self.quarantined.iter().copied().collect()
    }

    /// Enables the incremental evaluation cache: simulations whose
    /// annotations did not change re-merge the retained per-shard
    /// monitors in scenario order instead of re-running the worker pool.
    /// Merged statistics and the decided types are bit-identical with or
    /// without the cache.
    pub fn enable_cache(&mut self) {
        if self.cache.is_none() {
            self.cache = Some(SweepCache::default());
        }
    }

    /// `(hits, misses)` of the evaluation cache, counted per signal and
    /// simulation (zeros when caching is disabled).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache
            .as_ref()
            .map(|c| (c.hits, c.misses))
            .unwrap_or((0, 0))
    }

    /// Replays the retained shard monitors through the scenario-order
    /// merge without touching the worker pool.
    fn replay_merge(&mut self, design: &Design, recorder: &Arc<DefaultRecorder>) -> u64 {
        let shards = &self.cache.as_ref().expect("replay implies a cache").shards;
        self.last_shards.clear();
        let mut total_cycles = 0u64;
        for (scenario, cached) in self.scenarios.iter().zip(shards) {
            recorder.record_event(Event::ShardStarted {
                shard: scenario.index,
                seed: scenario.seed,
                snr_db: scenario.snr_db,
                samples: scenario.samples,
            });
            recorder.absorb(&cached.recorder);
            design
                .absorb_stats(&cached.stats)
                .expect("cached stats were exported from conforming shards");
            design.absorb_overflow_events(cached.overflow_events.clone());
            recorder.record_event(Event::ShardMerged {
                shard: scenario.index,
                cycles: cached.cycles,
                signals: cached.stats.len(),
            });
            total_cycles = total_cycles.saturating_add(cached.cycles);
            self.last_shards.push(ShardSummary {
                scenario: scenario.clone(),
                cycles: cached.cycles,
                wall_ns: cached.wall_ns,
            });
        }
        total_cycles
    }

    /// The scenario set.
    pub fn scenarios(&self) -> &ScenarioSet {
        &self.scenarios
    }

    /// The worker budget.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Changes the worker budget; the merged results are unaffected.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Per-shard accounting of the most recent simulation (empty before
    /// the first run).
    pub fn shard_summaries(&self) -> &[ShardSummary] {
        &self.last_shards
    }
}

impl SimDriver for SweepDriver {
    /// Fans the simulation out and folds the surviving shards back in
    /// scenario order.
    ///
    /// Worker panics — injected faults, stimulus bugs, builder contract
    /// violations — are caught per shard: each failed shard is retried up
    /// to the policy's attempt budget (with a deterministic re-seed), and
    /// a shard that exhausts its attempts either aborts the simulation
    /// ([`FaultMode::Strict`]) or is quarantined for the rest of the flow
    /// ([`FaultMode::Degraded`]).
    ///
    /// # Panics
    ///
    /// Panics only on *master-side* contract violations (the merged
    /// statistics do not match the master design's signals).
    fn simulate(
        &mut self,
        design: &Design,
        recorder: &Arc<DefaultRecorder>,
        iteration: usize,
        record_graph: bool,
    ) -> Result<u64, SimFault> {
        // A resumed flow replays the cold run's cache-invalidation marker
        // before planning: the serialized checkpoint does not carry the
        // per-shard monitor cache, so the plan below degrades to Cold and
        // would otherwise skip the event.
        if let Some(dirty) = self.pending_invalidation.take() {
            if self.cache.is_some() && dirty > 0 {
                recorder.record_event(Event::CacheInvalidated {
                    reason: "annotations".into(),
                    dirty,
                });
            }
        }
        // Plan against the master's dirty set; the shard designs mirror
        // the master by the builder contract.
        let plan = match &self.cache {
            None => CachePlan::Cold,
            Some(cache) => plan_for(design, record_graph, cache.is_warm(), recorder.as_ref()),
        };
        let signals = design.num_signals() as u64;
        design.reset_stats();
        design.reset_state();

        if plan == CachePlan::Replay {
            let cycles = self.replay_merge(design, recorder);
            let cache = self.cache.as_mut().expect("replay implies a cache");
            cache.hits += signals;
            recorder.inc("cache.hits", signals);
            // A replay re-merges a fully-covered live run (the cache is
            // cleared whenever a shard fails or is quarantined).
            self.coverage = Some(SweepCoverage {
                completed: self.scenarios.len(),
                total: self.scenarios.len(),
                quarantined: Vec::new(),
            });
            return Ok(cycles);
        }

        if record_graph {
            design.clear_graph();
            // A new record iteration supersedes any previously compiled
            // replays (the structural recording may have changed).
            self.compiled = None;
        }
        // Under the compiled backend the record iteration captures and
        // compiles every shard's run, and later iterations replay the
        // per-scenario captures instead of the stimulus. Fault injection
        // and reduced coverage refuse both up front.
        let compiled_wanted = self.backend == SimBackend::Compiled;
        let faulted = !self.faults.is_empty();
        if compiled_wanted && faulted {
            self.note_fallback(recorder, "fault injection is active");
        } else if compiled_wanted && record_graph && !self.quarantined.is_empty() {
            self.note_fallback(recorder, "quarantined scenarios reduce coverage");
        }
        let capture = compiled_wanted && record_graph && !faulted && self.quarantined.is_empty();
        let replays = self
            .compiled
            .as_deref()
            .filter(|_| compiled_wanted && !faulted);
        let replaying = replays.is_some();

        // Snapshot the master's refinement state once; every shard
        // re-applies it to its fresh design.
        let annotations = design.annotations();
        let builder = &self.builder;
        let faults = self.faults.clone();

        // Quarantined scenarios sit the sweep out; the structural graph
        // recording falls to the first shard that still runs.
        let active: Vec<Scenario> = self
            .scenarios
            .iter()
            .filter(|s| !self.quarantined.contains(&s.index))
            .cloned()
            .collect();
        let graph_shard = active.first().map_or(usize::MAX, |s| s.index);

        let outcomes = run_shards_isolated(
            &active,
            self.workers,
            RetryPolicy::attempts(self.fault_policy.max_attempts),
            |scenario, attempt| {
                let started = Instant::now();
                if faults.should_panic(scenario.index, attempt) {
                    panic!(
                        "injected fault: worker panic on shard {} attempt {}",
                        scenario.index, attempt
                    );
                }
                // Retries re-seed the scenario deterministically so a
                // data-dependent failure is not replayed verbatim
                // (attempt 0 keeps the original seed).
                let mut scenario = scenario.clone();
                scenario.seed = faults.retry_seed(scenario.seed, attempt);
                let shard_recorder = Arc::new(DefaultRecorder::new());
                let ShardSim {
                    design: shard,
                    mut stimulus,
                } = builder(&scenario);
                shard.attach_recorder(shard_recorder.clone());
                shard
                    .apply_annotations(&annotations)
                    .unwrap_or_else(|e| panic!("shard builder contract violation: {e}"));
                // Only one shard records a graph *for the master* — all
                // shards execute the same description, so one structural
                // recording suffices and the master inherits it below.
                // A capture records privately on every shard: the
                // capture's assign steps reference recorded nodes, and
                // each shard compiles its own stimulus trace.
                let record_here = record_graph && scenario.index == graph_shard;
                let run = |shard: &Design| {
                    if let Some(burst) = faults.nan_burst_for(scenario.index) {
                        // Poison the stimulus head with non-finite
                        // samples. The engine's range propagation rejects
                        // NaN bounds outright, so the poisoned shard fails
                        // *structurally* (caught below) instead of leaking
                        // NaN into the merged monitors.
                        let wire = shard
                            .reports()
                            .iter()
                            .find(|r| r.kind == SignalKind::Wire)
                            .and_then(|r| shard.find(&r.name));
                        if let Some(id) = wire {
                            let sig = shard.sig_handle(id);
                            for _ in 0..burst {
                                sig.set(f64::NAN);
                            }
                        }
                    }
                    stimulus(shard, iteration);
                };
                let compiled = match replays {
                    Some(replays) => {
                        shard.replay(&replays[scenario.index]);
                        None
                    }
                    None if capture => Some(capture_and_compile(&shard, run)),
                    None => {
                        execute(&shard, record_here, run);
                        None
                    }
                };
                ShardResult {
                    stats: shard.export_stats(),
                    overflow_events: shard.take_overflow_events(),
                    graph: record_here.then(|| take_graph(&shard)),
                    recorder: shard_recorder,
                    cycles: shard.cycle(),
                    wall_ns: started.elapsed().as_nanos(),
                    compiled,
                }
            },
        );

        // Deterministic merge: strict scenario order, each surviving
        // shard bracketed by ShardStarted / ShardMerged in the journal;
        // retries and failures journaled in the same order.
        self.last_shards.clear();
        let mut total_cycles = 0u64;
        let mut completed = 0usize;
        let mut failures = 0usize;
        let mut retained: Vec<CachedShard> = Vec::with_capacity(outcomes.len());
        let mut compiled: Vec<Replay> = Vec::new();
        let mut compile_failure: Option<String> = None;
        for (scenario, outcome) in active.iter().zip(outcomes) {
            if self.faults.nan_burst_for(scenario.index).is_some() {
                recorder.inc("fault.nan_bursts", 1);
            }
            let attempts = match &outcome {
                ShardOutcome::Completed { attempts, .. } => *attempts,
                ShardOutcome::Failed(failure) => failure.attempts,
            };
            for attempt in 1..attempts {
                recorder.record_event(Event::ShardRetried {
                    shard: scenario.index,
                    attempt,
                });
                recorder.inc("retry.attempts", 1);
            }
            let mut result = match outcome {
                ShardOutcome::Completed { value, .. } => value,
                ShardOutcome::Failed(failure) => {
                    failures += 1;
                    // Replays are only trusted while they cover every
                    // scenario.
                    self.compiled = None;
                    recorder.record_event(Event::ShardFailed {
                        shard: scenario.index,
                        scenario: scenario.label(),
                        attempts: failure.attempts,
                        cause: failure.error.to_string(),
                    });
                    recorder.inc("fault.shard_failures", 1);
                    match self.fault_policy.mode {
                        FaultMode::Strict => {
                            // Invalidate the cache before aborting: the
                            // master's monitors hold a partial merge.
                            if let Some(cache) = &mut self.cache {
                                cache.shards = Vec::new();
                            }
                            return Err(SimFault {
                                shard: scenario.index,
                                scenario: scenario.label(),
                                attempts: failure.attempts,
                                cause: failure.error.to_string(),
                            });
                        }
                        FaultMode::Degraded => {
                            self.quarantined.insert(scenario.index);
                            recorder.record_event(Event::ShardQuarantined {
                                shard: scenario.index,
                                scenario: scenario.label(),
                            });
                            recorder.inc("retry.quarantined", 1);
                            continue;
                        }
                    }
                }
            };
            completed += 1;
            match result.compiled.take() {
                Some(Ok(replay)) => compiled.push(replay),
                Some(Err(reason)) if compile_failure.is_none() => {
                    compile_failure = Some(reason);
                }
                _ => {}
            }
            recorder.record_event(Event::ShardStarted {
                shard: scenario.index,
                seed: scenario.seed,
                snr_db: scenario.snr_db,
                samples: scenario.samples,
            });
            recorder.absorb(&result.recorder);
            let signals = result.stats.len();
            design
                .absorb_stats(&result.stats)
                .unwrap_or_else(|e| panic!("shard builder contract violation: {e}"));
            design.absorb_overflow_events(result.overflow_events.clone());
            if let Some(graph) = result.graph {
                design.install_graph(graph);
            }
            recorder.record_event(Event::ShardMerged {
                shard: scenario.index,
                cycles: result.cycles,
                signals,
            });
            total_cycles = total_cycles.saturating_add(result.cycles);
            self.last_shards.push(ShardSummary {
                scenario: scenario.clone(),
                cycles: result.cycles,
                wall_ns: result.wall_ns,
            });
            if self.cache.is_some() {
                retained.push(CachedShard {
                    stats: result.stats,
                    overflow_events: result.overflow_events,
                    recorder: result.recorder,
                    cycles: result.cycles,
                    wall_ns: result.wall_ns,
                });
            }
        }
        if replaying {
            recorder.inc("backend.compiled_runs", 1);
        }
        // A capture only becomes the sweep's replay when every scenario
        // both survived and compiled: a replay must cover exactly what
        // the interpreter would have simulated.
        if capture {
            if failures == 0
                && self.quarantined.is_empty()
                && compiled.len() == self.scenarios.len()
            {
                for replay in &compiled {
                    recorder.record_event(Event::BackendCompiled {
                        backend: self.backend.name().to_string(),
                        kinds: replay.definitions(),
                        instructions: replay.steps(),
                        cycles: replay.cycles(),
                    });
                }
                recorder.inc("backend.programs", compiled.len() as u64);
                self.compiled = Some(compiled);
            } else {
                let reason = compile_failure.unwrap_or_else(|| {
                    "record iteration lost shards before compilation".to_string()
                });
                self.note_fallback(recorder, &reason);
            }
        }
        self.coverage = Some(SweepCoverage {
            completed,
            total: self.scenarios.len(),
            quarantined: self
                .scenarios
                .iter()
                .filter(|s| self.quarantined.contains(&s.index))
                .map(Scenario::label)
                .collect(),
        });
        if let Some(cache) = &mut self.cache {
            // Retain the shard monitors only for a fully-covered run: a
            // degraded merge must never be replayed as if it were whole.
            cache.shards = if failures == 0 && self.quarantined.is_empty() {
                retained
            } else {
                Vec::new()
            };
            cache.misses += signals;
            recorder.inc("cache.misses", signals);
        }
        Ok(total_cycles)
    }

    fn coverage(&self) -> Option<SweepCoverage> {
        self.coverage.clone()
    }

    fn cache_is_warm(&self) -> bool {
        self.cache.as_ref().is_some_and(SweepCache::is_warm)
    }

    fn resume_invalidation(&mut self, dirty: usize) {
        self.pending_invalidation = Some(dirty);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RefinePolicy, RefinementFlow};

    /// A tiny first-order IIR smoother. The design seed is fixed (it
    /// drives `error()` injection, which must match the master's); the
    /// *scenario* seed varies the stimulus noise instead.
    fn build_design() -> Design {
        let d = Design::with_seed(0xD0_5EED);
        d.sig("x");
        d.reg("acc");
        d.sig("y");
        d
    }

    fn drive(d: &Design, seed: u64, samples: usize) {
        let x = d.sig_handle(d.find("x").unwrap());
        let acc = d.reg_handle(d.find("acc").unwrap());
        let y = d.sig_handle(d.find("y").unwrap());
        let mut rng = fixref_fixed::Rng64::seed_from_u64(seed);
        for i in 0..samples {
            x.set((i as f64 * 0.11).sin() * 0.8 + rng.symmetric(0.05));
            acc.set(acc.get() * 0.9 + x.get() * 0.1);
            y.set(acc.get() * 0.5);
            d.tick();
        }
    }

    fn sweep(scenarios: ScenarioSet, workers: usize) -> SweepDriver {
        SweepDriver::new(
            scenarios,
            workers,
            Box::new(|s: &Scenario| {
                let d = build_design();
                let (seed, samples) = (s.seed, s.samples);
                ShardSim {
                    stimulus: Box::new(move |d: &Design, _| drive(d, seed, samples)),
                    design: d,
                }
            }),
        )
    }

    fn run_flow(driver: &mut SweepDriver) -> (Vec<(String, String)>, Vec<Event>) {
        let master = build_design();
        let mut flow = RefinementFlow::new(master.clone(), RefinePolicy::default());
        let outcome = flow.run_swept(driver).expect("converges");
        let types = outcome
            .types
            .iter()
            .map(|(id, t)| (master.name_of(*id), t.to_string()))
            .collect();
        (types, flow.journal())
    }

    #[test]
    fn single_scenario_sweep_matches_sequential_flow_bit_identically() {
        // Sequential reference.
        let master = build_design();
        let mut flow = RefinementFlow::new(master.clone(), RefinePolicy::default());
        let seq = flow
            .run(|d: &Design, _| drive(d, 7, 400))
            .expect("converges");

        // One-scenario sweep.
        let mut driver = sweep(ScenarioSet::single(7, 28.0, 400), 1);
        let swept_master = build_design();
        let mut swept_flow = RefinementFlow::new(swept_master.clone(), RefinePolicy::default());
        let swept = swept_flow.run_swept(&mut driver).expect("converges");

        assert_eq!(seq.types.len(), swept.types.len());
        for ((ida, ta), (idb, tb)) in seq.types.iter().zip(&swept.types) {
            assert_eq!(master.name_of(*ida), swept_master.name_of(*idb));
            assert_eq!(ta.to_string(), tb.to_string());
        }
        // The merged monitors themselves are bit-identical.
        for (a, b) in master.reports().iter().zip(swept_master.reports()) {
            assert_eq!(a.stat, b.stat, "stat of {}", a.name);
            assert_eq!(a.prop, b.prop, "prop of {}", a.name);
            assert_eq!(a.consumed, b.consumed, "consumed of {}", a.name);
            assert_eq!(a.produced, b.produced, "produced of {}", a.name);
        }
    }

    /// The graph's nodes and every signal's definitions, as text.
    fn graph_text(d: &Design) -> Vec<String> {
        let g = d.graph();
        let nodes = g.iter().map(|(id, n)| format!("{id}: {n:?}"));
        let defs = (0..d.num_signals() as u32)
            .map(fixref_sim::SignalId::from_raw)
            .map(|s| format!("{s}: {:?}", g.defs(s)));
        nodes.chain(defs).collect()
    }

    #[test]
    fn a_swept_master_installs_its_shard_zero_recording() {
        let scenarios = ScenarioSet::grid(&[3, 5, 11], &[24.0], &[], &[300]);
        let first = scenarios.iter().next().expect("three scenarios").clone();
        let master = build_design();
        let recorder = Arc::new(DefaultRecorder::new());
        sweep(scenarios, 2)
            .simulate(&master, &recorder, 1, true)
            .expect("no faults injected");

        let shard0 = build_design();
        execute(&shard0, true, |d| drive(d, first.seed, first.samples));
        assert!(!shard0.graph().is_empty());
        assert_eq!(graph_text(&master), graph_text(&shard0));
    }

    #[test]
    fn worker_count_does_not_change_the_merged_outcome() {
        let scenarios = ScenarioSet::grid(&[3, 5, 11, 17], &[24.0], &[], &[300]);
        let (types1, journal1) = run_flow(&mut sweep(scenarios.clone(), 1));
        let (types4, journal4) = run_flow(&mut sweep(scenarios, 4));
        assert_eq!(types1, types4);
        assert_eq!(journal1, journal4);
    }

    /// Drops the `backend.*` journal entries: the compiled path journals
    /// its own compilation, everything else must match bitwise.
    fn strip_backend_events(journal: Vec<Event>) -> Vec<Event> {
        journal
            .into_iter()
            .filter(|e| {
                !matches!(
                    e,
                    Event::BackendCompiled { .. } | Event::BackendFallback { .. }
                )
            })
            .collect()
    }

    #[test]
    fn compiled_backend_sweep_matches_interpreted_bit_identically() {
        let scenarios = ScenarioSet::grid(&[3, 5, 11, 17], &[24.0], &[], &[300]);
        let (types_i, journal_i) = run_flow(&mut sweep(scenarios.clone(), 2));

        let mut compiled = sweep(scenarios, 2);
        compiled.set_backend(SimBackend::Compiled);
        let (types_c, journal_c) = run_flow(&mut compiled);

        assert!(
            compiled.has_compiled_program(),
            "the record iteration should have compiled every scenario"
        );
        assert_eq!(types_i, types_c);
        assert_eq!(
            strip_backend_events(journal_i),
            strip_backend_events(journal_c)
        );
    }

    #[test]
    fn compiled_backend_falls_back_under_fault_injection() {
        let scenarios = ScenarioSet::grid(&[3, 5], &[24.0], &[], &[200]);
        let mut driver = sweep(scenarios, 2);
        driver.set_backend(SimBackend::Compiled);
        driver.set_fault_policy(FaultPolicy {
            mode: FaultMode::Strict,
            max_attempts: 2,
        });
        driver.inject_faults(FaultPlan::seeded(9).panic_on(1, 0));
        let (_, journal) = run_flow(&mut driver);
        assert!(
            !driver.has_compiled_program(),
            "fault injection must refuse the capture"
        );
        assert!(journal
            .iter()
            .any(|e| matches!(e, Event::BackendFallback { .. })));
    }

    /// A reused compiled driver whose builder switches to a design with a
    /// `strobe` written every other cycle — a schedule FXL001 refuses to
    /// compile — must run the second flow interpreted, never replay the
    /// first flow's captures.
    #[test]
    fn a_reused_compiled_driver_never_replays_the_previous_flows_capture() {
        use std::sync::atomic::{AtomicBool, Ordering};

        fn build(with_strobe: bool) -> Design {
            let d = build_design();
            if with_strobe {
                d.sig("strobe");
            }
            d
        }
        fn drive_strobed(d: &Design, seed: u64, samples: usize) {
            drive(d, seed, samples);
            if let Some(id) = d.find("strobe") {
                let strobe = d.sig_handle(id);
                let y = d.sig_handle(d.find("y").expect("declared"));
                for i in 0..samples {
                    if i % 2 == 0 {
                        strobe.set(y.get() * 4.0);
                    }
                    d.tick();
                }
            }
        }
        let driver = |strobe: Arc<AtomicBool>| {
            let mut driver = SweepDriver::new(
                ScenarioSet::grid(&[3, 5], &[24.0], &[], &[300]),
                2,
                Box::new(move |s: &Scenario| {
                    let (seed, samples) = (s.seed, s.samples);
                    ShardSim {
                        design: build(strobe.load(Ordering::SeqCst)),
                        stimulus: Box::new(move |d: &Design, _| drive_strobed(d, seed, samples)),
                    }
                }),
            );
            driver.set_backend(SimBackend::Compiled);
            driver
        };
        let refine = |driver: &mut SweepDriver, master: Design| {
            let mut flow = RefinementFlow::new(master.clone(), RefinePolicy::default());
            let outcome = flow.run_swept(driver).expect("converges");
            outcome
                .types
                .iter()
                .map(|(id, t)| (master.name_of(*id), t.to_string()))
                .collect::<Vec<_>>()
        };

        let strobe = Arc::new(AtomicBool::new(false));
        let mut reused = driver(strobe.clone());
        refine(&mut reused, build(false));
        assert!(reused.has_compiled_program(), "the plain design compiles");

        strobe.store(true, Ordering::SeqCst);
        let types = refine(&mut reused, build(true));
        let fresh = refine(&mut driver(Arc::new(AtomicBool::new(true))), build(true));
        assert_eq!(types, fresh);
        assert!(types.iter().any(|(name, _)| name == "strobe"));
        assert!(
            !reused.has_compiled_program(),
            "a stale replay stayed armed"
        );
    }

    #[test]
    fn shard_events_bracket_every_scenario_in_order() {
        let scenarios = ScenarioSet::grid(&[1, 2, 3], &[20.0], &[], &[200]);
        let n = scenarios.len();
        let mut driver = sweep(scenarios, 2);
        let (_, journal) = run_flow(&mut driver);
        let started: Vec<usize> = journal
            .iter()
            .filter_map(|e| match e {
                Event::ShardStarted { shard, .. } => Some(*shard),
                _ => None,
            })
            .collect();
        // Every simulation (MSB iters + LSB iters + verify) brackets all
        // scenarios in 0..n order.
        assert!(started.len() >= n);
        assert_eq!(started.len() % n, 0);
        for chunk in started.chunks(n) {
            assert_eq!(chunk, (0..n).collect::<Vec<_>>());
        }
        assert_eq!(driver.shard_summaries().len(), n);
        assert!(driver.shard_summaries().iter().all(|s| s.cycles > 0));
    }
}
