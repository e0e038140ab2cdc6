//! The refinement flow driver (paper §5, Fig. 4).
//!
//! The flow owns a [`Design`] plus a stimulus closure and iterates:
//!
//! 1. **MSB phase** — simulate with monitoring, apply the §5.1 rules;
//!    exploded feedback signals receive an automatic `range()` annotation
//!    derived from their observed range (the paper's manual
//!    `b.range(-0.2, 0.2)` step) and the phase repeats. Two iterations
//!    suffice for both of the paper's designs.
//! 2. **LSB phase** — simulate, apply the §5.2 rule; divergent feedback
//!    signals receive an automatic `error()` annotation and the phase
//!    repeats (one extra iteration for the complex example's NCO).
//! 3. **Type application** — each resolved signal gets the
//!    `DType` combining its decided MSB, LSB, overflow and rounding modes.
//! 4. **Verification** — one more monitored run with every type in place;
//!    overflow events or precision regressions are reported.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fixref_fixed::{DType, Interval};
use fixref_lint::{LintConfig, Linter, Severity as LintSeverity, Verdict};
use fixref_obs::{DefaultRecorder, Event, Phase, Recorder};
use fixref_sim::{Design, FaultPlan, OverflowEvent, SignalId, SignalStats};
use fixref_verify::{Verifier, VerifyOptions, Witness};

use crate::cache::{CachePlan, EvalCache};
use crate::checkpoint::{write_queued, CacheState, Checkpoint, CheckpointError, Cursor};
use crate::lsb::{analyze_lsb, LsbAnalysis, LsbStatus};
use crate::msb::{analyze_msb, MsbAnalysis, MsbDecision};
use crate::policy::RefinePolicy;

/// The flow's error type.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// A phase did not converge within the policy's iteration budget.
    NotConverged {
        /// `"msb"` or `"lsb"`.
        phase: &'static str,
        /// Iterations spent.
        iterations: usize,
        /// Names of the signals still unresolved.
        unresolved: Vec<String>,
    },
    /// The pre-flight lint gate found diagnostics whose code the flow's
    /// [`LintConfig`] maps to deny.
    LintDenied {
        /// The denied diagnostic code (`"FXL001"`, …).
        code: String,
        /// Number of findings with that code.
        findings: usize,
        /// The signals those findings are anchored to.
        signals: Vec<String>,
    },
    /// The pre-flight verification pass found a machine-checked
    /// counterexample for a lint finding: a concrete stimulus drives the
    /// design into the flagged hazard, so refinement on the current
    /// annotations would bake in a broken word length.
    LintRefuted {
        /// The refuted diagnostic code (`"FXL002"`, …).
        code: String,
        /// The diagnostic's anchor signal.
        signal: String,
        /// The counterexample: input streams plus the register trace.
        /// `witness.to_scenario_set(seed)` yields a replayable stimulus
        /// for the sweep engine. (Boxed: traces are long, errors travel.)
        witness: Box<Witness>,
    },
    /// A scenario shard failed under a `Strict` fault policy.
    ShardFailed {
        /// 0-based scenario index of the failed shard.
        shard: usize,
        /// The scenario label (`Scenario::label`) naming seed, SNR and
        /// sample count.
        scenario: String,
        /// The captured panic message or failure cause.
        cause: String,
    },
    /// The flow was interrupted by an injected crash
    /// ([`FaultPlan::abort_after_checkpoint`]) — the deterministic
    /// stand-in for a killed process. Resume with
    /// [`RefinementFlow::resume_from`].
    Interrupted {
        /// Sequence number of the last checkpoint processed before the
        /// abort.
        checkpoint: usize,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::NotConverged {
                phase,
                iterations,
                unresolved,
            } => write!(
                f,
                "{phase} refinement did not converge after {iterations} iterations \
                 (unresolved: {})",
                unresolved.join(", ")
            ),
            FlowError::LintDenied {
                code,
                findings,
                signals,
            } => write!(
                f,
                "pre-flight lint gate denied {code}: {findings} finding(s) on {}",
                signals.join(", ")
            ),
            FlowError::LintRefuted {
                code,
                signal,
                witness,
            } => write!(
                f,
                "pre-flight verification refuted {code} at {signal}: {} in {} tick(s)",
                witness.hazard.describe(),
                witness.steps
            ),
            FlowError::ShardFailed {
                shard,
                scenario,
                cause,
            } => write!(f, "shard {shard} ({scenario}) failed: {cause}"),
            FlowError::Interrupted { checkpoint } => {
                write!(f, "flow interrupted after checkpoint {checkpoint}")
            }
        }
    }
}

impl Error for FlowError {}

/// A shard failure surfaced through [`SimDriver::simulate`] — the
/// driver-level form a `Strict` sweep converts into
/// [`FlowError::ShardFailed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimFault {
    /// 0-based scenario index of the failed shard.
    pub shard: usize,
    /// The scenario label.
    pub scenario: String,
    /// Attempts made before giving up.
    pub attempts: usize,
    /// The captured panic message or failure cause.
    pub cause: String,
}

impl fmt::Display for SimFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} ({}) failed after {} attempt(s): {}",
            self.shard, self.scenario, self.attempts, self.cause
        )
    }
}

/// How much of a scenario sweep actually contributed to the merged
/// statistics — `N of M scenarios`, with the quarantined stragglers named.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCoverage {
    /// Scenarios whose shards completed and merged in the last live sweep.
    pub completed: usize,
    /// Total scenarios in the sweep.
    pub total: usize,
    /// Labels of quarantined scenarios (failed repeatedly; no longer
    /// re-simulated).
    pub quarantined: Vec<String>,
}

impl SweepCoverage {
    /// Whether every scenario contributed.
    pub fn is_full(&self) -> bool {
        self.completed == self.total && self.quarantined.is_empty()
    }

    /// The `"N of M scenarios"` rendering used in reports.
    pub fn summary(&self) -> String {
        format!("{} of {} scenarios", self.completed, self.total)
    }
}

impl fmt::Display for SweepCoverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.summary())?;
        if !self.quarantined.is_empty() {
            write!(f, " (quarantined: {})", self.quarantined.join("; "))?;
        }
        Ok(())
    }
}

/// Whether a flow ran to completion or returned best-so-far results.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum FlowStatus {
    /// Every phase ran to convergence and verification completed.
    #[default]
    Complete,
    /// A [`RunBudget`] ran out: the outcome carries the best-so-far
    /// annotations and analyses instead of an error.
    Partial {
        /// Which budget ran out and where.
        reason: String,
    },
}

impl FlowStatus {
    /// Whether the outcome is best-so-far rather than complete.
    pub fn is_partial(&self) -> bool {
        matches!(self, FlowStatus::Partial { .. })
    }
}

/// Deadline budgets for a refinement run. When a budget runs out the flow
/// stops iterating, journals [`Event::BudgetExhausted`], and returns its
/// best-so-far annotation set with [`FlowStatus::Partial`] — never an
/// error. At least one iteration always completes before the budgets are
/// consulted, so there is always *something* to return.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Wall-clock ceiling measured from the first budgeted phase entry.
    pub wall: Option<Duration>,
    /// Ceiling on monitored simulations (MSB + LSB iterations and the
    /// verification run all count one each).
    pub max_simulations: Option<u64>,
}

impl RunBudget {
    /// A wall-clock-only budget.
    pub fn wall(limit: Duration) -> Self {
        RunBudget {
            wall: Some(limit),
            max_simulations: None,
        }
    }

    /// A simulation-count-only budget.
    pub fn simulations(limit: u64) -> Self {
        RunBudget {
            wall: None,
            max_simulations: Some(limit),
        }
    }
}

/// A shareable cooperative cancellation flag for a running flow.
///
/// Cancellation rides the *budget* code path: the flow observes the
/// token exactly where it checks its [`RunBudget`]s (the top of each
/// iteration, after at least one has completed), journals the same
/// [`Event::BudgetExhausted`], and returns best-so-far results with
/// [`FlowStatus::Partial`] — one code path for "ran out" and "called
/// off", so cancelled jobs report coverage and annotations with
/// identical semantics to budget-exhausted ones. Clones share the flag;
/// cancelling is sticky and thread-safe.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<std::sync::atomic::AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation (sticky; safe from any thread).
    pub fn cancel(&self) {
        self.flag.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(std::sync::atomic::Ordering::Acquire)
    }
}

/// An automatic annotation the flow inserted.
#[derive(Debug, Clone, PartialEq)]
pub enum Intervention {
    /// `range(lo, hi)` pinned on an exploded (or knowledge-saturated)
    /// feedback signal.
    AutoRange {
        /// The annotated signal.
        signal: SignalId,
        /// Its name.
        name: String,
        /// Lower pinned bound.
        lo: f64,
        /// Upper pinned bound.
        hi: f64,
        /// Which MSB iteration inserted it (1-based).
        iteration: usize,
    },
    /// `error(σ)` injected on an LSB-divergent feedback signal.
    AutoError {
        /// The annotated signal.
        signal: SignalId,
        /// Its name.
        name: String,
        /// Injected error standard deviation.
        sigma: f64,
        /// Which LSB iteration inserted it (1-based).
        iteration: usize,
    },
}

impl fmt::Display for Intervention {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Intervention::AutoRange {
                name,
                lo,
                hi,
                iteration,
                ..
            } => write!(f, "iter {iteration}: {name}.range({lo}, {hi})"),
            Intervention::AutoError {
                name,
                sigma,
                iteration,
                ..
            } => write!(f, "iter {iteration}: {name}.error(sigma={sigma:.3e})"),
        }
    }
}

/// The result of the final verification run.
#[derive(Debug, Clone, Default)]
pub struct VerifyOutcome {
    /// Per-signal overflow counts observed with all types applied.
    pub overflows: Vec<(String, u64)>,
    /// Sum of all overflow counts.
    pub total_overflows: u64,
    /// Excursions absorbed by saturating types (informational: this is
    /// the saturation hardware doing its job, not a failure).
    pub saturation_events: u64,
    /// Signals whose produced error exceeded their consumed error
    /// (precision loss the designer should confirm).
    pub precision_loss: Vec<String>,
}

impl VerifyOutcome {
    /// Whether verification saw no overflow at all.
    pub fn is_overflow_free(&self) -> bool {
        self.total_overflows == 0
    }
}

/// The complete outcome of a refinement run.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// Number of MSB iterations used.
    pub msb_iterations: usize,
    /// Number of LSB iterations used.
    pub lsb_iterations: usize,
    /// Per-iteration MSB analyses (last entry = final decisions).
    pub msb_history: Vec<Vec<MsbAnalysis>>,
    /// Per-iteration LSB analyses (last entry = final decisions).
    pub lsb_history: Vec<Vec<LsbAnalysis>>,
    /// Automatic annotations inserted along the way.
    pub interventions: Vec<Intervention>,
    /// The decided types, per signal.
    pub types: Vec<(SignalId, DType)>,
    /// Signals left floating (unresolved or explicitly excluded).
    pub unrefined: Vec<String>,
    /// The verification run's findings.
    pub verify: VerifyOutcome,
    /// Whether the flow ran to completion or stopped on an exhausted
    /// [`RunBudget`] with best-so-far results.
    pub status: FlowStatus,
    /// Scenario-sweep coverage of the final merged statistics (swept runs
    /// only; `None` for the sequential driver).
    pub coverage: Option<SweepCoverage>,
}

impl FlowOutcome {
    /// The final MSB analyses.
    pub fn msb(&self) -> &[MsbAnalysis] {
        self.msb_history.last().map(Vec::as_slice).unwrap_or(&[])
    }

    /// The final LSB analyses.
    pub fn lsb(&self) -> &[LsbAnalysis] {
        self.lsb_history.last().map(Vec::as_slice).unwrap_or(&[])
    }

    /// The decided type of a signal, if any.
    pub fn type_of(&self, id: SignalId) -> Option<&DType> {
        self.types.iter().find(|(s, _)| *s == id).map(|(_, t)| t)
    }

    /// Mean MSB overhead (decided minus statistic) over the non-saturated
    /// refined signals — the paper's "0.22 bits per signal" metric.
    pub fn mean_msb_overhead(&self) -> Option<f64> {
        let final_msb = self.msb();
        let overheads: Vec<f64> = final_msb
            .iter()
            .filter(|a| a.decision.is_resolved() && !a.decision.is_saturated())
            .filter_map(|a| a.overhead_bits().map(|o| o as f64))
            .collect();
        if overheads.is_empty() {
            None
        } else {
            Some(overheads.iter().sum::<f64>() / overheads.len() as f64)
        }
    }

    /// Count of saturated signals, split into (forced-by-explosion,
    /// other-saturations) — the complex example's "2 + 5" breakdown.
    pub fn saturation_counts(&self) -> (usize, usize) {
        let mut forced = 0;
        let mut other = 0;
        for a in self.msb() {
            if a.decision.is_forced_saturation() {
                forced += 1;
            } else if a.decision.is_saturated() {
                other += 1;
            }
        }
        (forced, other)
    }
}

/// How the flow obtains one monitored simulation of its design.
///
/// The refinement rules only consume the design's *monitors* (range and
/// error statistics, propagated intervals, the signal-flow graph), so the
/// flow is agnostic about how a simulation was produced. The built-in
/// sequential driver runs the stimulus closure on the flow's own design;
/// the scenario-sweep driver ([`crate::sweep::SweepDriver`]) fans the
/// stimulus out over a worker pool of per-scenario designs and folds the
/// shard statistics back into the flow's design. With a single scenario
/// the two are bit-identical.
pub trait SimDriver {
    /// Runs one full monitored simulation for `iteration` and leaves the
    /// resulting statistics on `design`. Responsible for resetting stats
    /// and state first, and — when `record_graph` is set — for leaving a
    /// freshly recorded signal-flow graph on the design. Journals and
    /// counters go to `recorder`. Returns the number of cycles simulated
    /// (summed over shards for a swept run), or [`SimFault`] when a shard
    /// failed under a `Strict` fault policy (the sequential driver never
    /// fails — a panic in its stimulus propagates).
    ///
    /// # Errors
    ///
    /// [`SimFault`] naming the failed shard and scenario.
    fn simulate(
        &mut self,
        design: &Design,
        recorder: &Arc<DefaultRecorder>,
        iteration: usize,
        record_graph: bool,
    ) -> Result<u64, SimFault>;

    /// Coverage of the most recent live sweep, for drivers that fan out
    /// over scenarios. The sequential driver reports `None`.
    fn coverage(&self) -> Option<SweepCoverage> {
        None
    }

    /// Whether the driver holds a warm evaluation cache (checkpointing
    /// records this so a resumed flow can restore it).
    fn cache_is_warm(&self) -> bool {
        false
    }

    /// The warm cache's monitor snapshot `(stats, overflow events,
    /// cycles)` for checkpointing, when one exists.
    fn cache_snapshot(&self) -> Option<(Vec<SignalStats>, Vec<OverflowEvent>, u64)> {
        None
    }

    /// Called once before the first simulation of a resumed flow when the
    /// checkpoint recorded a warm cache with `dirty` pending invalidated
    /// signals. Drivers whose cache is *not* serialized (the sweep driver)
    /// use this to re-journal the `CacheInvalidated` event the original
    /// run would have emitted; the sequential driver restores its cache
    /// directly and needs no help.
    fn resume_invalidation(&mut self, _dirty: usize) {}
}

/// Runs one simulation of `design`: the stimulus, with a fresh
/// signal-flow graph recorded when `record_graph` is set. The design's
/// monitor sink is flushed at the end, so the recorder holds the
/// simulation's `sim.*` metrics when this returns.
pub(crate) fn execute(design: &Design, record_graph: bool, stimulus: impl FnOnce(&Design)) {
    if record_graph {
        design.clear_graph();
        design.record_graph(true);
    }
    stimulus(design);
    if record_graph {
        design.record_graph(false);
    }
    design.flush_monitors();
}

/// The built-in driver: one sequential simulation of the flow's design,
/// exactly as the paper's engine runs it.
///
/// With [`SequentialDriver::with_cache`] the driver keeps an
/// [`EvalCache`] across simulations: iterations whose annotations did
/// not change replay the cached monitors without running the stimulus
/// (see [`crate::cache`] for the soundness argument). The refinement
/// outcome is bit-identical either way.
pub struct SequentialDriver<F> {
    sim: F,
    cache: Option<EvalCache>,
}

impl<F: FnMut(&Design, usize)> SequentialDriver<F> {
    /// A plain driver: every simulation runs the stimulus in full.
    pub fn new(sim: F) -> Self {
        SequentialDriver { sim, cache: None }
    }

    /// A caching driver: clean iterations restore cached monitors instead
    /// of re-simulating.
    pub fn with_cache(sim: F) -> Self {
        SequentialDriver {
            cache: Some(EvalCache::new()),
            ..Self::new(sim)
        }
    }

    /// A caching driver whose cache starts pre-warmed from a checkpoint's
    /// monitor snapshot — the resume path's way of making cached replays
    /// bit-identical to the uninterrupted run.
    pub fn with_restored_cache(sim: F, cache: EvalCache) -> Self {
        SequentialDriver {
            cache: Some(cache),
            ..Self::new(sim)
        }
    }

    /// The driver's cache, when caching is enabled.
    pub fn cache(&self) -> Option<&EvalCache> {
        self.cache.as_ref()
    }
}

impl<F: FnMut(&Design, usize)> SimDriver for SequentialDriver<F> {
    fn cache_is_warm(&self) -> bool {
        self.cache.as_ref().is_some_and(EvalCache::is_warm)
    }

    fn cache_snapshot(&self) -> Option<(Vec<SignalStats>, Vec<OverflowEvent>, u64)> {
        self.cache.as_ref().and_then(EvalCache::snapshot)
    }

    fn simulate(
        &mut self,
        design: &Design,
        recorder: &Arc<DefaultRecorder>,
        iteration: usize,
        record_graph: bool,
    ) -> Result<u64, SimFault> {
        let plan = match &self.cache {
            None => CachePlan::Cold,
            Some(cache) => cache.plan(design, record_graph, recorder.as_ref()),
        };
        let signals = design.num_signals() as u64;
        design.reset_stats();
        design.reset_state();
        if plan == CachePlan::Replay {
            let cache = self.cache.as_mut().expect("replay implies a cache");
            let cycles = cache.replay(design);
            cache.note(recorder.as_ref(), signals, 0);
            return Ok(cycles);
        }
        let sim = &mut self.sim;
        execute(design, record_graph, |d| sim(d, iteration));
        if let Some(cache) = &mut self.cache {
            cache.note(recorder.as_ref(), 0, signals);
            cache.store(design);
        }
        Ok(design.cycle())
    }
}

/// In-memory continuation state decoded from a [`Checkpoint`], consumed by
/// the next `run*` call to fast-forward past completed iterations.
struct ResumeState {
    cursor: Cursor,
    feedback: Vec<SignalId>,
    troubled: Vec<String>,
    lsb_final: Option<Vec<LsbAnalysis>>,
}

/// The queue of a flow call's checkpoint writer thread, which takes
/// `(sequence, snapshot)` pairs; `None` when the flow does not
/// checkpoint.
type CheckpointWriter<'a> = Option<&'a Sender<(usize, Checkpoint)>>;

/// The refinement flow driver.
///
/// See the crate-level example; the typical call is [`RefinementFlow::run`]
/// with a stimulus closure that exercises the design for a representative
/// number of samples.
pub struct RefinementFlow {
    design: Design,
    policy: RefinePolicy,
    /// Signals typed before the flow started (the partial type definition
    /// of Fig. 4, typically the inputs): checked, never re-decided.
    locked: HashSet<SignalId>,
    /// Knowledge-based saturation choices (the complex example's "5
    /// signals ... knowledge-based choice").
    force_saturate: HashSet<SignalId>,
    /// Signals excluded from refinement entirely.
    excluded: HashSet<SignalId>,
    /// Signals auto-pinned with `range()` because their propagation
    /// exploded (decided as forced saturation).
    pinned_explosion: HashSet<SignalId>,
    /// The flow's observability sink: every iteration span, intervention
    /// and convergence event lands here, and the design's simulation
    /// counters share it. The intervention lists the phase methods return
    /// are derived from this journal.
    recorder: Arc<DefaultRecorder>,
    /// When set, the closure-based entry points (`run`, `run_msb`, …)
    /// drive their simulations through a caching [`SequentialDriver`].
    cache_enabled: bool,
    /// Per-code allow/warn/deny configuration of the pre-flight lint
    /// gate. The default warns on everything, so no existing flow fails.
    lint: LintConfig,
    /// When set, the pre-flight gate model-checks every checkable lint
    /// finding: proofs discharge denied warnings, counterexamples abort
    /// the flow with the witness attached. `None` (the default) keeps the
    /// gate purely heuristic and byte-identical to earlier releases.
    verify: Option<VerifyOptions>,
    /// Checkpoint sink: when set, the flow snapshots its state after
    /// every completed MSB/LSB iteration and each `run*` call writes the
    /// snapshots here from a writer thread of its own.
    checkpoint: Option<PathBuf>,
    /// Injected faults for deterministic degradation testing (empty in
    /// production).
    fault_plan: FaultPlan,
    /// Continuation state decoded by [`RefinementFlow::resume_from`],
    /// consumed by the next `run*` call.
    resume: Option<ResumeState>,
    /// Monitor snapshot restoring the evaluation cache on resume.
    resume_cache: Option<(Vec<SignalStats>, Vec<OverflowEvent>, u64)>,
    /// Dirty-signal count whose `CacheInvalidated` event the resumed
    /// driver must re-journal (sweep driver only).
    pending_resume_invalidation: Option<usize>,
    /// Sequence number of the next checkpoint to write.
    next_checkpoint_seq: usize,
    /// Journal index where the MSB phase began (for the final
    /// intervention list and for checkpoints).
    msb_journal_start: usize,
    /// Journal index where the LSB phase began, once entered.
    lsb_journal_start: Option<usize>,
    /// Completed MSB iterations across interrupt/resume boundaries.
    msb_done_total: usize,
    /// Completed LSB iterations across interrupt/resume boundaries.
    lsb_done_total: usize,
    /// Final MSB analyses, kept for checkpoints written during the LSB
    /// phase.
    msb_final_store: Option<Vec<MsbAnalysis>>,
    /// Deadline budgets for `run*` calls.
    budget: RunBudget,
    /// Wall-clock anchor for the budget (armed on first budgeted check).
    budget_clock: Option<Instant>,
    /// Monitored simulations completed so far under the budget.
    budget_sims: u64,
    /// Set when a budget ran out: the exhaustion reason.
    budget_hit: Option<String>,
    /// Cooperative cancellation, observed at the same points the budgets
    /// are. `None` means the flow cannot be cancelled.
    cancel: Option<CancelToken>,
}

impl RefinementFlow {
    /// Creates a flow over a design. Signals that already carry a type
    /// (the "partial type definition") are locked: they are monitored and
    /// checked but their types are not re-decided.
    pub fn new(design: Design, policy: RefinePolicy) -> Self {
        Self::with_recorder(design, policy, Arc::new(DefaultRecorder::new()))
    }

    /// Creates a flow that reports into an existing recorder (for sharing
    /// one metrics sink across flows, or inspecting the journal after the
    /// run). The recorder is also attached to the design, so simulation
    /// counters (`sim.ticks`, `sim.assignments`, …) land in the same sink
    /// as the flow's own events and spans.
    pub fn with_recorder(
        design: Design,
        policy: RefinePolicy,
        recorder: Arc<DefaultRecorder>,
    ) -> Self {
        design.attach_recorder(recorder.clone());
        let locked = design
            .reports()
            .into_iter()
            .filter(|r| r.dtype.is_some())
            .map(|r| r.id)
            .collect();
        RefinementFlow {
            design,
            policy,
            locked,
            force_saturate: HashSet::new(),
            excluded: HashSet::new(),
            pinned_explosion: HashSet::new(),
            recorder,
            cache_enabled: false,
            lint: LintConfig::new(),
            verify: None,
            checkpoint: None,
            fault_plan: FaultPlan::default(),
            resume: None,
            resume_cache: None,
            pending_resume_invalidation: None,
            next_checkpoint_seq: 0,
            msb_journal_start: 0,
            lsb_journal_start: None,
            msb_done_total: 0,
            lsb_done_total: 0,
            msb_final_store: None,
            budget: RunBudget::default(),
            budget_clock: None,
            budget_sims: 0,
            budget_hit: None,
            cancel: None,
        }
    }

    /// Enables the incremental evaluation cache for the closure-based
    /// entry points: iterations whose annotations did not change restore
    /// the previous run's monitors instead of re-simulating. The decided
    /// types, merged ranges and `type_applied` journal are bit-identical
    /// with or without the cache; cache hit/miss counts land on the
    /// recorder as `cache.hits` / `cache.misses`.
    ///
    /// The driver entry points ([`RefinementFlow::run_with`],
    /// [`RefinementFlow::run_swept`] and the other `*_with` methods) ignore
    /// this setting: they use the driver's own cache
    /// ([`SequentialDriver::with_cache`],
    /// [`SweepDriver::enable_cache`](crate::sweep::SweepDriver::enable_cache)).
    pub fn enable_cache(&mut self) {
        self.cache_enabled = true;
    }

    /// Configures the pre-flight lint gate. After the first (recorded)
    /// MSB iteration the flow lints the design: every diagnostic is
    /// journaled as [`Event::LintDiagnostic`], `Allow`ed codes are
    /// suppressed, and if any finding carries a `Deny` code the flow
    /// aborts with [`FlowError::LintDenied`] before spending further
    /// iterations. The default configuration warns on everything.
    pub fn set_lint_config(&mut self, config: LintConfig) {
        self.lint = config;
    }

    /// The pre-flight lint gate's configuration.
    pub fn lint_config(&self) -> &LintConfig {
        &self.lint
    }

    /// Turns on formal verification inside the pre-flight gate. Every
    /// checkable finding (FXL002/FXL004 overflow, FXL005 limit cycle) is
    /// model-checked with the given budgets: a finding *proved* safe no
    /// longer trips a `Deny` code, and a finding with a machine-checked
    /// counterexample aborts the flow with [`FlowError::LintRefuted`] —
    /// witness attached — regardless of the configured action. Undecided
    /// findings keep their heuristic treatment.
    pub fn enable_verification(&mut self, options: VerifyOptions) {
        self.verify = Some(options);
    }

    /// The verification budgets, when verification is enabled.
    pub fn verification(&self) -> Option<&VerifyOptions> {
        self.verify.as_ref()
    }

    /// The pre-flight lint gate: lints the design right after the first
    /// recorded MSB iteration (graph and monitor counters are fresh),
    /// journals every finding, mirrors severity counts onto the
    /// `lint.*` recorder counters, and aborts on any denied code.
    fn preflight_lint(&self) -> Result<(), FlowError> {
        let mut report = Linter::with_config(self.lint.clone()).run(&self.design);
        if let Some(options) = &self.verify {
            let verified = Verifier::with_options(*options).verify_design(
                &self.design,
                &report,
                Some(self.recorder.as_ref()),
            );
            if let Some(refuted) = verified.counterexamples().next() {
                self.recorder.inc("verify.flow_gate_failures", 1);
                return Err(FlowError::LintRefuted {
                    code: refuted.code.as_str().into(),
                    signal: refuted.signal.clone(),
                    witness: Box::new(
                        refuted
                            .witness
                            .clone()
                            .expect("counterexample outcomes carry a witness"),
                    ),
                });
            }
            report = verified.report;
        }
        for d in &report.diagnostics {
            self.recorder.record_event(Event::LintDiagnostic {
                code: d.code.as_str().into(),
                severity: d.severity.as_str().into(),
                signal: d.signal.clone(),
                message: d.message.clone(),
            });
        }
        let errors = report.count(LintSeverity::Error);
        let warnings = report.count(LintSeverity::Warning);
        let infos = report.count(LintSeverity::Info);
        self.recorder.record_event(Event::LintCompleted {
            errors,
            warnings,
            infos,
        });
        for (counter, n) in [
            ("lint.errors", errors),
            ("lint.warnings", warnings),
            ("lint.infos", infos),
        ] {
            if n > 0 {
                self.recorder.inc(counter, n as u64);
            }
        }
        // A denied finding that verification proved safe is discharged:
        // the machine-checked proof outranks the heuristic pattern.
        let all_denied = report.denied(&self.lint);
        let discharged = all_denied
            .iter()
            .filter(|d| d.verdict == Some(Verdict::Proved))
            .count();
        if discharged > 0 {
            self.recorder.inc("verify.discharged", discharged as u64);
        }
        let denied: Vec<&fixref_lint::Diagnostic> = all_denied
            .into_iter()
            .filter(|d| d.verdict != Some(Verdict::Proved))
            .collect();
        if let Some(first) = denied.first() {
            let code = first.code;
            let offenders: Vec<&&fixref_lint::Diagnostic> =
                denied.iter().filter(|d| d.code == code).collect();
            self.recorder.record_event(Event::LintGateFailed {
                context: "flow.preflight".into(),
                code: code.as_str().into(),
                findings: offenders.len(),
            });
            self.recorder.inc("lint.flow_gate_failures", 1);
            return Err(FlowError::LintDenied {
                code: code.as_str().into(),
                findings: offenders.len(),
                signals: offenders.iter().map(|d| d.signal.clone()).collect(),
            });
        }
        Ok(())
    }

    /// Builds the sequential driver honoring
    /// [`RefinementFlow::enable_cache`], pre-warming its cache from a
    /// checkpoint snapshot when resuming.
    fn driver_for<F: FnMut(&Design, usize)>(&mut self, sim: F) -> SequentialDriver<F> {
        if self.cache_enabled {
            match self.resume_cache.take() {
                Some((stats, overflow, cycles)) => {
                    // The restored cache re-emits its own CacheInvalidated
                    // on the first plan, so no explicit resume
                    // invalidation is needed for the sequential driver.
                    self.pending_resume_invalidation = None;
                    SequentialDriver::with_restored_cache(
                        sim,
                        EvalCache::restore(stats, overflow, cycles),
                    )
                }
                None => SequentialDriver::with_cache(sim),
            }
        } else {
            SequentialDriver::new(sim)
        }
    }

    /// Directs the flow to write a checkpoint file at `path` after every
    /// completed MSB/LSB iteration (and at each phase boundary). The file
    /// is a self-contained JSON snapshot — annotations, phase cursor,
    /// decided analyses, cache state and the full event journal — from
    /// which [`RefinementFlow::resume_from`] replays the run
    /// bit-identically.
    ///
    /// The flow captures each snapshot in place and simulates on while a
    /// writer thread writes it through
    /// [`write_file_atomic`](crate::checkpoint::write_file_atomic). Each
    /// `run*` call joins its writer before it returns, on an error or a
    /// panic too, so the file then holds the call's last snapshot and
    /// real write failures are journaled, as [`Event::CheckpointFailed`]
    /// in sequence order. A process killed mid-flow loses the snapshots
    /// still queued; [`crate::checkpoint`] says what that leaves to
    /// resume from.
    pub fn checkpoint_to(&mut self, path: impl Into<PathBuf>) {
        self.checkpoint = Some(path.into());
    }

    /// Installs an injected-fault plan (test seam). The plan's
    /// checkpoint-write failures and post-checkpoint aborts are honored by
    /// this flow; its shard panics and NaN bursts are honored by the
    /// sweep driver carrying the same plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Sets the deadline budgets for subsequent `run*` calls. See
    /// [`RunBudget`].
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.budget = budget;
        self.budget_clock = None;
        self.budget_sims = 0;
        self.budget_hit = None;
    }

    /// The exhaustion reason when a [`RunBudget`] ran out during the last
    /// `run*` call, if any.
    pub fn budget_exhausted(&self) -> Option<&str> {
        self.budget_hit.as_deref()
    }

    /// Attaches a cooperative cancellation token. A cancelled flow stops
    /// at the next budget checkpoint and returns best-so-far results
    /// with [`FlowStatus::Partial`] — the same path as budget
    /// exhaustion.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Checks the budgets at the top of an iteration (after at least one
    /// iteration of the phase has completed overall). On exhaustion,
    /// journals [`Event::BudgetExhausted`], bumps `budget.exhausted`, and
    /// records the reason. Returns `true` when the phase should stop with
    /// best-so-far results.
    fn budget_spent(&mut self, phase: Phase) -> bool {
        if self.budget_hit.is_some() {
            return true;
        }
        let clock = *self.budget_clock.get_or_insert_with(Instant::now);
        let reason = self
            .cancel
            .as_ref()
            .filter(|t| t.is_cancelled())
            .map(|_| format!("cancelled after {} simulation(s)", self.budget_sims));
        let reason = reason.or_else(|| {
            self.budget.max_simulations.and_then(|max| {
                (self.budget_sims >= max).then(|| {
                    format!(
                        "simulation budget of {max} spent ({} run)",
                        self.budget_sims
                    )
                })
            })
        });
        let reason = reason.or_else(|| {
            self.budget.wall.and_then(|limit| {
                let elapsed = clock.elapsed();
                (elapsed >= limit).then(|| {
                    format!(
                        "wall-clock budget of {:.3}s spent ({:.3}s elapsed)",
                        limit.as_secs_f64(),
                        elapsed.as_secs_f64()
                    )
                })
            })
        });
        match reason {
            Some(reason) => {
                self.recorder.record_event(Event::BudgetExhausted {
                    phase,
                    simulations: self.budget_sims,
                    reason: reason.clone(),
                });
                self.recorder.inc("budget.exhausted", 1);
                self.budget_hit = Some(reason);
                true
            }
            None => false,
        }
    }

    /// Maps a driver-level shard fault to the flow's error type.
    fn shard_error(f: SimFault) -> FlowError {
        FlowError::ShardFailed {
            shard: f.shard,
            scenario: f.scenario,
            cause: f.cause,
        }
    }

    /// Snapshots the flow into a [`Checkpoint`]. `cursor` names the next
    /// work item; `feedback` / `troubled` carry the in-loop state of the
    /// phase the cursor points into; `lsb_final` is present only at the
    /// LSB-convergence checkpoint.
    fn capture(
        &self,
        driver: &dyn SimDriver,
        cursor: Cursor,
        feedback: &HashSet<SignalId>,
        troubled: &HashSet<String>,
        lsb_final: Option<&[LsbAnalysis]>,
    ) -> Checkpoint {
        let sorted_names = |ids: &HashSet<SignalId>| -> Vec<String> {
            let mut v: Vec<String> = ids.iter().map(|id| self.design.name_of(*id)).collect();
            v.sort();
            v
        };
        let mut troubled: Vec<String> = troubled.iter().cloned().collect();
        troubled.sort();
        let mut dirty: Vec<String> = self
            .design
            .peek_dirty()
            .iter()
            .map(|id| self.design.name_of(*id))
            .collect();
        dirty.sort();
        let (msb_done, lsb_done) = match cursor {
            Cursor::Msb { next } => (next.saturating_sub(1), 0),
            Cursor::Lsb { next } => (self.msb_done_total, next.saturating_sub(1)),
            Cursor::Apply => (self.msb_done_total, self.lsb_done_total),
        };
        Checkpoint {
            cursor,
            msb_done,
            lsb_done,
            next_sequence: self.next_checkpoint_seq,
            msb_journal_start: self.msb_journal_start,
            lsb_journal_start: self.lsb_journal_start,
            annotations: self.design.annotations(),
            pinned_explosion: sorted_names(&self.pinned_explosion),
            force_saturate: sorted_names(&self.force_saturate),
            excluded: sorted_names(&self.excluded),
            feedback: sorted_names(feedback),
            troubled,
            msb_final: self.msb_final_store.clone(),
            lsb_final: lsb_final.map(<[LsbAnalysis]>::to_vec),
            cache: CacheState {
                warm: driver.cache_is_warm(),
                dirty,
                data: driver.cache_snapshot(),
            },
            journal: self.recorder.events(),
        }
    }

    /// Checkpoints after a completed iteration: captures the snapshot and
    /// queues it on `writer`. The `checkpoint_written` journal event is
    /// recorded *before* the snapshot is captured, so the checkpoint's
    /// embedded journal includes its own marker and a resumed journal
    /// lines up with the uninterrupted one. An injected write failure is
    /// journaled here as [`Event::CheckpointFailed`] and the snapshot
    /// dropped; real failures are journaled when the writer is joined
    /// ([`RefinementFlow::with_checkpoint_writer`]). Both are non-fatal;
    /// an injected post-checkpoint abort surfaces as
    /// [`FlowError::Interrupted`].
    #[allow(clippy::too_many_arguments)]
    fn write_checkpoint(
        &mut self,
        writer: CheckpointWriter<'_>,
        driver: &dyn SimDriver,
        cursor: Cursor,
        completed: (Phase, usize),
        feedback: &HashSet<SignalId>,
        troubled: &HashSet<String>,
        lsb_final: Option<&[LsbAnalysis]>,
    ) -> Result<(), FlowError> {
        let Some(writer) = writer else {
            return Ok(());
        };
        let (phase, iteration) = completed;
        let sequence = self.next_checkpoint_seq;
        self.next_checkpoint_seq += 1;
        self.recorder.record_event(Event::CheckpointWritten {
            sequence,
            phase,
            iteration,
        });
        self.recorder.inc("checkpoint.writes", 1);
        let cp = self.capture(driver, cursor, feedback, troubled, lsb_final);
        if self.fault_plan.fails_checkpoint_write(sequence) {
            self.checkpoint_failed(sequence, "injected checkpoint write failure".into());
        } else {
            writer
                .send((sequence, cp))
                .expect("the checkpoint writer runs until its flow call returns");
        }
        if self.fault_plan.abort_checkpoint() == Some(sequence) {
            return Err(FlowError::Interrupted {
                checkpoint: sequence,
            });
        }
        Ok(())
    }

    /// Journals a failed checkpoint write.
    fn checkpoint_failed(&self, sequence: usize, cause: String) {
        self.recorder
            .record_event(Event::CheckpointFailed { sequence, cause });
        self.recorder.inc("fault.checkpoint_write_failures", 1);
    }

    /// Runs one outermost flow call, `body`, with a checkpoint writer
    /// behind it when the flow checkpoints: a scoped thread that writes
    /// the snapshots `body` queues while `body` simulates on. The writer
    /// is joined before this returns, however `body` exits, and its
    /// write failures are then journaled in sequence order. A flow
    /// without a checkpoint path starts no thread.
    fn with_checkpoint_writer<T>(
        &mut self,
        body: impl FnOnce(&mut Self, CheckpointWriter<'_>) -> Result<T, FlowError>,
    ) -> Result<T, FlowError> {
        let Some(path) = self.checkpoint.clone() else {
            return body(self, None);
        };
        let (result, failures) = thread::scope(|scope| {
            // The sender is a local of this closure, so it is dropped
            // (ending the writer's queue) before the scope joins the
            // writer, also when `body` unwinds.
            let (queue, snapshots) = mpsc::channel();
            let writer = scope.spawn(move || write_queued(&path, snapshots));
            let result = body(self, Some(&queue));
            drop(queue);
            let failures = writer.join().expect("the checkpoint writer does not panic");
            (result, failures)
        });
        for (sequence, cause) in failures {
            self.checkpoint_failed(sequence, cause);
        }
        result
    }

    /// Resumes an interrupted flow from the checkpoint file at `path`.
    ///
    /// `design` must declare the same signals as the checkpointed design
    /// (run the same builder). The flow re-applies the checkpointed
    /// annotations, replays the journal behind a leading
    /// [`Event::ResumedFromCheckpoint`] marker, keeps checkpointing to the
    /// same `path`, and arms the continuation so the next `run*` call
    /// fast-forwards to the first incomplete iteration. The resumed run's
    /// journal and final annotations are bit-identical to the
    /// uninterrupted run, modulo that leading marker.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on unreadable/unparseable files or when the
    /// design does not declare a checkpointed signal.
    pub fn resume_from(
        design: Design,
        policy: RefinePolicy,
        path: impl AsRef<Path>,
    ) -> Result<Self, CheckpointError> {
        let path = path.as_ref();
        let cp = Checkpoint::read(path)?;
        let mut flow = Self::resume_from_checkpoint(design, policy, &cp)?;
        flow.checkpoint = Some(path.to_path_buf());
        Ok(flow)
    }

    /// [`RefinementFlow::resume_from`] over an already-decoded
    /// [`Checkpoint`] (no checkpoint sink is armed — call
    /// [`RefinementFlow::checkpoint_to`] to keep checkpointing).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] when the design does not declare a
    /// checkpointed signal.
    pub fn resume_from_checkpoint(
        design: Design,
        policy: RefinePolicy,
        cp: &Checkpoint,
    ) -> Result<Self, CheckpointError> {
        let mut flow = RefinementFlow::new(design, policy);
        let find = |name: &str| -> Result<SignalId, CheckpointError> {
            flow.design.find(name).ok_or_else(|| {
                CheckpointError::Mismatch(format!("signal {name:?} not present in the design"))
            })
        };
        for n in &cp.pinned_explosion {
            let id = find(n)?;
            flow.pinned_explosion.insert(id);
        }
        for n in &cp.force_saturate {
            let id = find(n)?;
            flow.force_saturate.insert(id);
        }
        for n in &cp.excluded {
            let id = find(n)?;
            flow.excluded.insert(id);
        }
        let feedback = cp
            .feedback
            .iter()
            .map(|n| find(n))
            .collect::<Result<Vec<_>, _>>()?;
        // Re-apply the checkpointed annotations, then restore the *exact*
        // dirty set the interrupted run had pending — annotation
        // application dirties by its own rules, which would otherwise
        // desynchronize the evaluation cache's invalidation journal.
        flow.design
            .apply_annotations(&cp.annotations)
            .map_err(|e| CheckpointError::Mismatch(e.to_string()))?;
        let _ = flow.design.take_dirty();
        let dirty = cp
            .cache
            .dirty
            .iter()
            .map(|n| find(n))
            .collect::<Result<Vec<_>, _>>()?;
        flow.design.mark_dirty(&dirty);

        let rebind_msb = |list: &Vec<MsbAnalysis>| -> Result<Vec<MsbAnalysis>, CheckpointError> {
            list.iter()
                .map(|a| {
                    let mut a = a.clone();
                    a.id = find(&a.name)?;
                    Ok(a)
                })
                .collect()
        };
        let rebind_lsb = |list: &Vec<LsbAnalysis>| -> Result<Vec<LsbAnalysis>, CheckpointError> {
            list.iter()
                .map(|a| {
                    let mut a = a.clone();
                    a.id = find(&a.name)?;
                    Ok(a)
                })
                .collect()
        };
        let msb_final = cp.msb_final.as_ref().map(rebind_msb).transpose()?;
        let lsb_final = cp.lsb_final.as_ref().map(rebind_lsb).transpose()?;
        let resume_cache = cp
            .cache
            .data
            .as_ref()
            .map(|(stats, events, cycles)| -> Result<_, CheckpointError> {
                let events = events
                    .iter()
                    .map(|e| {
                        Ok(OverflowEvent {
                            signal: find(&e.name)?,
                            name: e.name.clone(),
                            value: e.value,
                            cycle: e.cycle,
                        })
                    })
                    .collect::<Result<Vec<_>, CheckpointError>>()?;
                Ok((stats.clone(), events, *cycles))
            })
            .transpose()?;

        // The resumed journal: the marker first, then the checkpointed
        // journal replayed verbatim — so every stored journal index gains
        // exactly one.
        let (phase, iteration) = cp
            .journal
            .iter()
            .rev()
            .find_map(|e| match e {
                Event::CheckpointWritten {
                    phase, iteration, ..
                } => Some((*phase, *iteration)),
                _ => None,
            })
            .unwrap_or((Phase::Msb, 0));
        flow.recorder.record_event(Event::ResumedFromCheckpoint {
            sequence: cp.next_sequence.saturating_sub(1),
            phase,
            iteration,
            events: cp.journal.len(),
        });
        flow.recorder.inc("checkpoint.resumes", 1);
        for e in &cp.journal {
            flow.recorder.record_event(e.clone());
        }

        flow.next_checkpoint_seq = cp.next_sequence;
        flow.msb_done_total = cp.msb_done;
        flow.lsb_done_total = cp.lsb_done;
        flow.msb_journal_start = cp.msb_journal_start + 1;
        flow.lsb_journal_start = cp.lsb_journal_start.map(|s| s + 1);
        flow.msb_final_store = msb_final;
        flow.pending_resume_invalidation =
            (cp.cache.warm && !cp.cache.dirty.is_empty()).then_some(cp.cache.dirty.len());
        flow.resume_cache = resume_cache;
        flow.resume = Some(ResumeState {
            cursor: cp.cursor,
            feedback,
            troubled: cp.troubled.clone(),
            lsb_final,
        });
        Ok(flow)
    }

    /// The policy in use.
    pub fn policy(&self) -> &RefinePolicy {
        &self.policy
    }

    /// The flow's recorder (shared with the design).
    pub fn recorder(&self) -> &Arc<DefaultRecorder> {
        &self.recorder
    }

    /// The structured event journal accumulated so far.
    pub fn journal(&self) -> Vec<Event> {
        self.recorder.events()
    }

    /// Converts `AutoRange` / `AutoError` journal events back into the
    /// [`Intervention`] values the phase methods return (signals are
    /// resolved by name against the design).
    fn interventions_from(&self, events: &[Event]) -> Vec<Intervention> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::AutoRange {
                    signal,
                    lo,
                    hi,
                    iteration,
                } => Some(Intervention::AutoRange {
                    signal: self.design.find(signal)?,
                    name: signal.clone(),
                    lo: *lo,
                    hi: *hi,
                    iteration: *iteration,
                }),
                Event::AutoError {
                    signal,
                    sigma,
                    iteration,
                } => Some(Intervention::AutoError {
                    signal: self.design.find(signal)?,
                    name: signal.clone(),
                    sigma: *sigma,
                    iteration: *iteration,
                }),
                _ => None,
            })
            .collect()
    }

    /// Interventions recorded from journal position `start` onward.
    fn interventions_since(&self, start: usize) -> Vec<Intervention> {
        let events = self.recorder.events();
        self.interventions_from(&events[start.min(events.len())..])
    }

    /// Marks a signal for saturation regardless of the rule outcome
    /// (designer knowledge, e.g. a loop-filter integrator known to clip).
    pub fn force_saturate(&mut self, id: SignalId) {
        self.force_saturate.insert(id);
    }

    /// Excludes a signal from refinement (left floating point).
    pub fn exclude(&mut self, id: SignalId) {
        self.excluded.insert(id);
    }

    fn refinable(&self, id: SignalId) -> bool {
        !self.locked.contains(&id) && !self.excluded.contains(&id)
    }

    /// Applies the post-rule decision overrides: explosion-pinned signals
    /// and knowledge-based choices are decided as saturated regardless of
    /// what the rules would now say (the paper marks `b` "(st)" after
    /// `b.range(-0.2, 0.2)`).
    fn override_decision(&self, a: &mut MsbAnalysis) {
        let forced = self.pinned_explosion.contains(&a.id);
        let knowledge = self.force_saturate.contains(&a.id);
        if !forced && !knowledge {
            return;
        }
        // The decided MSB comes from the pinned range when present (the
        // annotation is what the saturation hardware implements), else the
        // statistic.
        let msb = a
            .prop_msb
            .filter(|_| self.design.range_of(a.id).is_some())
            .or(a.stat_msb);
        if let Some(m) = msb {
            let guard = a
                .prop
                .filter(|p| p.is_bounded())
                .or_else(|| a.stat.map(|i| i.shift(1)))
                .unwrap_or(Interval::EMPTY);
            a.decision = MsbDecision::Saturate {
                msb: m + self.policy.saturation_margin,
                guard,
                forced,
            };
            a.mode = fixref_fixed::OverflowMode::Saturate;
        }
    }

    /// Runs the MSB phase: iterate simulation + rules until no refinable
    /// signal's range propagation explodes.
    ///
    /// Feedback signals are identified from the signal-flow graph recorded
    /// during the first iteration; only those receive automatic `range()`
    /// pins — downstream signals whose explosion was inherited resolve by
    /// themselves once the loop roots are pinned (as `w` does in the
    /// paper's Table 1 once `b` is annotated).
    ///
    /// # Errors
    ///
    /// [`FlowError::NotConverged`] when explosions persist after the
    /// iteration budget (only possible with `auto_range` disabled or an
    /// adversarial stimulus).
    pub fn run_msb(
        &mut self,
        sim: impl FnMut(&Design, usize),
    ) -> Result<(Vec<Vec<MsbAnalysis>>, Vec<Intervention>), FlowError> {
        let mut driver = self.driver_for(sim);
        self.run_msb_with(&mut driver)
    }

    /// [`RefinementFlow::run_msb`] over an explicit [`SimDriver`] — the
    /// entry point the scenario-sweep engine uses.
    ///
    /// # Errors
    ///
    /// Same as [`RefinementFlow::run_msb`].
    pub fn run_msb_with(
        &mut self,
        driver: &mut dyn SimDriver,
    ) -> Result<(Vec<Vec<MsbAnalysis>>, Vec<Intervention>), FlowError> {
        self.with_checkpoint_writer(|flow, writer| flow.msb_phase(driver, writer))
    }

    /// The MSB phase of [`RefinementFlow::run_msb_with`], checkpointing
    /// to `writer`.
    fn msb_phase(
        &mut self,
        driver: &mut dyn SimDriver,
        writer: CheckpointWriter<'_>,
    ) -> Result<(Vec<Vec<MsbAnalysis>>, Vec<Intervention>), FlowError> {
        if let Some(n) = self.pending_resume_invalidation.take() {
            driver.resume_invalidation(n);
        }
        let mut history = Vec::new();
        let mut feedback: HashSet<SignalId> = HashSet::new();
        // Signals seen exploded in an earlier iteration, to journal their
        // later resolution.
        let mut troubled: HashSet<String> = HashSet::new();
        let mut start = 1;
        let journal_start;
        match self.resume.take() {
            Some(r) if matches!(r.cursor, Cursor::Msb { .. }) => {
                if let Cursor::Msb { next } = r.cursor {
                    start = next.max(1);
                }
                feedback = r.feedback.iter().copied().collect();
                troubled = r.troubled.iter().cloned().collect();
                journal_start = self.msb_journal_start;
            }
            other => {
                if other.is_none() {
                    self.msb_done_total = 0;
                }
                self.resume = other;
                journal_start = self.recorder.events().len();
                self.msb_journal_start = journal_start;
            }
        }
        let done_before = self.msb_done_total;

        for iteration in start..=self.policy.max_iterations.max(1) {
            if self.budget_sims >= 1 && self.budget_spent(Phase::Msb) {
                return Ok((history, self.interventions_since(journal_start)));
            }
            self.recorder.record_event(Event::IterationStarted {
                phase: Phase::Msb,
                iteration,
            });
            let span = self
                .recorder
                .span_begin(&format!("flow.msb.iter.{iteration}"));
            let record = iteration == 1;
            let cycles = driver
                .simulate(&self.design, &self.recorder, iteration, record)
                .map_err(Self::shard_error)?;
            self.budget_sims += 1;
            if record {
                let graph = self.design.graph();
                for sig in graph.defined_signals() {
                    if graph.fan_in(sig).contains(&sig) {
                        feedback.insert(sig);
                    }
                }
                self.preflight_lint()?;
            }

            let mut analyses: Vec<MsbAnalysis> = self
                .design
                .reports()
                .into_iter()
                .map(|r| {
                    let mut a = analyze_msb(&r, &self.policy);
                    self.override_decision(&mut a);
                    a
                })
                .collect();
            self.recorder.span_end(span, cycles);

            for a in &analyses {
                if a.exploded && self.refinable(a.id) {
                    self.recorder.record_event(Event::IntervalExploded {
                        signal: a.name.clone(),
                        iteration,
                    });
                } else if troubled.remove(&a.name) {
                    self.recorder.record_event(Event::SignalResolved {
                        signal: a.name.clone(),
                        phase: Phase::Msb,
                        iteration,
                    });
                }
            }
            for a in &analyses {
                if a.exploded && self.refinable(a.id) {
                    troubled.insert(a.name.clone());
                }
            }

            // Which refinable signals still need a range() pin? Exploded
            // feedback roots plus knowledge-based saturation choices. A
            // non-feedback exploded signal is pinned only if no feedback
            // root explains it (defensive fallback).
            let any_feedback_exploded = analyses
                .iter()
                .any(|a| a.exploded && feedback.contains(&a.id) && self.refinable(a.id));
            let pins: Vec<(SignalId, String, Interval)> = analyses
                .iter()
                .filter(|a| self.refinable(a.id))
                .filter(|a| self.design.range_of(a.id).is_none())
                .filter(|a| {
                    let explosion_pin =
                        a.exploded && (feedback.contains(&a.id) || !any_feedback_exploded);
                    explosion_pin || self.force_saturate.contains(&a.id)
                })
                .filter_map(|a| {
                    let s = a.stat?;
                    let m = self.policy.auto_range_margin;
                    let widened = Interval::new(s.lo - s.max_abs() * m, s.hi + s.max_abs() * m);
                    Some((a.id, a.name.clone(), widened))
                })
                .collect();

            // Re-apply overrides for signals pinned THIS iteration so the
            // recorded history shows them as needing saturation.
            for (id, ..) in &pins {
                if !self.force_saturate.contains(id) {
                    self.pinned_explosion.insert(*id);
                }
            }
            for a in &mut analyses {
                self.override_decision(a);
            }

            let still_exploded: Vec<String> = analyses
                .iter()
                .filter(|a| a.exploded && self.refinable(a.id))
                .filter(|a| self.design.range_of(a.id).is_none())
                .map(|a| a.name.clone())
                .collect();
            history.push(analyses);
            self.msb_done_total = done_before + history.len();

            if pins.is_empty() {
                if still_exploded.is_empty() {
                    self.recorder.record_event(Event::PhaseConverged {
                        phase: Phase::Msb,
                        iterations: iteration,
                    });
                    self.msb_final_store = history.last().cloned();
                    // The next work item is the LSB phase, whose troubled
                    // set starts empty.
                    self.write_checkpoint(
                        writer,
                        &*driver,
                        Cursor::Lsb { next: 1 },
                        (Phase::Msb, iteration),
                        &feedback,
                        &HashSet::new(),
                        None,
                    )?;
                    return Ok((history, self.interventions_since(journal_start)));
                }
                return Err(self.fail_phase(Phase::Msb, iteration, still_exploded));
            }
            if !self.policy.auto_range {
                let unresolved = pins.into_iter().map(|(_, n, _)| n).collect();
                return Err(self.fail_phase(Phase::Msb, iteration, unresolved));
            }
            for (id, name, itv) in pins {
                self.design.set_range(id, itv.lo, itv.hi);
                self.recorder.record_event(Event::AutoRange {
                    signal: name,
                    lo: itv.lo,
                    hi: itv.hi,
                    iteration,
                });
            }
            self.write_checkpoint(
                writer,
                &*driver,
                Cursor::Msb {
                    next: iteration + 1,
                },
                (Phase::Msb, iteration),
                &feedback,
                &troubled,
                None,
            )?;
        }

        let unresolved = history
            .last()
            .map(|a| {
                a.iter()
                    .filter(|x| x.exploded && self.refinable(x.id))
                    .map(|x| x.name.clone())
                    .collect()
            })
            .unwrap_or_default();
        Err(self.fail_phase(Phase::Msb, self.policy.max_iterations, unresolved))
    }

    /// Journals a [`Event::PhaseFailed`] and builds the matching error.
    fn fail_phase(&self, phase: Phase, iterations: usize, unresolved: Vec<String>) -> FlowError {
        self.recorder.record_event(Event::PhaseFailed {
            phase,
            iterations,
            unresolved: unresolved.join(", "),
        });
        FlowError::NotConverged {
            phase: match phase {
                Phase::Msb => "msb",
                Phase::Lsb => "lsb",
            },
            iterations,
            unresolved,
        }
    }

    /// Runs the LSB phase: iterate simulation + the §5.2 rule until no
    /// refinable signal's error statistics diverge.
    ///
    /// # Errors
    ///
    /// [`FlowError::NotConverged`] when divergence persists after the
    /// iteration budget.
    pub fn run_lsb(
        &mut self,
        sim: impl FnMut(&Design, usize),
    ) -> Result<(Vec<Vec<LsbAnalysis>>, Vec<Intervention>), FlowError> {
        let mut driver = self.driver_for(sim);
        self.run_lsb_with(&mut driver)
    }

    /// [`RefinementFlow::run_lsb`] over an explicit [`SimDriver`] — the
    /// entry point the scenario-sweep engine uses.
    ///
    /// # Errors
    ///
    /// Same as [`RefinementFlow::run_lsb`].
    pub fn run_lsb_with(
        &mut self,
        driver: &mut dyn SimDriver,
    ) -> Result<(Vec<Vec<LsbAnalysis>>, Vec<Intervention>), FlowError> {
        self.with_checkpoint_writer(|flow, writer| flow.lsb_phase(driver, writer))
    }

    /// The LSB phase of [`RefinementFlow::run_lsb_with`], checkpointing
    /// to `writer`.
    fn lsb_phase(
        &mut self,
        driver: &mut dyn SimDriver,
        writer: CheckpointWriter<'_>,
    ) -> Result<(Vec<Vec<LsbAnalysis>>, Vec<Intervention>), FlowError> {
        if let Some(n) = self.pending_resume_invalidation.take() {
            driver.resume_invalidation(n);
        }
        let mut history = Vec::new();
        // Signals seen divergent in an earlier iteration, to journal their
        // later resolution.
        let mut troubled: HashSet<String> = HashSet::new();
        let mut start = 1;
        let journal_start;
        match self.resume.take() {
            Some(r) if matches!(r.cursor, Cursor::Lsb { .. }) => {
                if let Cursor::Lsb { next } = r.cursor {
                    start = next.max(1);
                }
                troubled = r.troubled.iter().cloned().collect();
                journal_start = self
                    .lsb_journal_start
                    .unwrap_or_else(|| self.recorder.events().len());
                self.lsb_journal_start = Some(journal_start);
            }
            other => {
                if other.is_none() {
                    self.lsb_done_total = 0;
                }
                self.resume = other;
                journal_start = self.recorder.events().len();
                self.lsb_journal_start = Some(journal_start);
            }
        }
        let done_before = self.lsb_done_total;

        for iteration in start..=self.policy.max_iterations.max(1) {
            if self.budget_sims >= 1 && self.budget_spent(Phase::Lsb) {
                return Ok((history, self.interventions_since(journal_start)));
            }
            self.recorder.record_event(Event::IterationStarted {
                phase: Phase::Lsb,
                iteration,
            });
            let span = self
                .recorder
                .span_begin(&format!("flow.lsb.iter.{iteration}"));
            let cycles = driver
                .simulate(&self.design, &self.recorder, iteration, false)
                .map_err(Self::shard_error)?;
            self.budget_sims += 1;

            let analyses: Vec<LsbAnalysis> = self
                .design
                .reports()
                .iter()
                .map(|r| analyze_lsb(r, &self.policy))
                .collect();
            self.recorder.span_end(span, cycles);

            for a in &analyses {
                if a.status == LsbStatus::Diverged && self.refinable(a.id) {
                    troubled.insert(a.name.clone());
                } else if troubled.remove(&a.name) {
                    self.recorder.record_event(Event::SignalResolved {
                        signal: a.name.clone(),
                        phase: Phase::Lsb,
                        iteration,
                    });
                }
            }

            // Divergence cascades downstream of its root; annotate ONE
            // signal per iteration — registers (state elements, like the
            // paper's NCO accumulator) before wires, ranked by their
            // persistent σ-to-amplitude ratio — and let the next run show
            // whether the rest resolves by itself.
            let mut diverged: Vec<(SignalId, String, bool, f64)> = analyses
                .iter()
                .filter(|a| a.status == LsbStatus::Diverged && self.refinable(a.id))
                .filter(|a| self.design.error_of(a.id).is_none())
                .map(|a| {
                    let r = self.design.report_by_id(a.id);
                    let amplitude = r
                        .stat
                        .interval()
                        .map(|i| i.max_abs())
                        .unwrap_or(0.0)
                        .max(1e-30);
                    let is_reg = r.kind == fixref_sim::SignalKind::Register;
                    (a.id, a.name.clone(), is_reg, a.std / amplitude)
                })
                .collect();
            diverged.sort_by(|a, b| b.2.cmp(&a.2).then(b.3.total_cmp(&a.3)));
            let diverged: Vec<(SignalId, String)> = diverged
                .into_iter()
                .take(1)
                .map(|(id, name, _, _)| (id, name))
                .collect();

            // σ consensus of the healthy signals guides the injected error
            // magnitude; the policy fallback covers the cold start.
            let sigma_guess = {
                let mut sigmas: Vec<f64> = analyses
                    .iter()
                    .filter(|a| a.status == LsbStatus::Resolved)
                    .map(|a| a.std)
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .collect();
                sigmas.sort_by(|a, b| a.total_cmp(b));
                if sigmas.is_empty() {
                    (self.policy.fallback_error_lsb as f64).exp2() / 12f64.sqrt()
                } else {
                    sigmas[sigmas.len() / 2]
                }
            };

            history.push(analyses);
            self.lsb_done_total = done_before + history.len();

            if diverged.is_empty() {
                self.recorder.record_event(Event::PhaseConverged {
                    phase: Phase::Lsb,
                    iterations: iteration,
                });
                self.write_checkpoint(
                    writer,
                    &*driver,
                    Cursor::Apply,
                    (Phase::Lsb, iteration),
                    &HashSet::new(),
                    &HashSet::new(),
                    history.last().map(Vec::as_slice),
                )?;
                return Ok((history, self.interventions_since(journal_start)));
            }
            if !self.policy.auto_error {
                let unresolved = diverged.into_iter().map(|(_, n)| n).collect();
                return Err(self.fail_phase(Phase::Lsb, iteration, unresolved));
            }
            for (id, name) in diverged {
                self.design.set_error_sigma(id, sigma_guess);
                self.recorder.record_event(Event::AutoError {
                    signal: name,
                    sigma: sigma_guess,
                    iteration,
                });
            }
            self.write_checkpoint(
                writer,
                &*driver,
                Cursor::Lsb {
                    next: iteration + 1,
                },
                (Phase::Lsb, iteration),
                &HashSet::new(),
                &troubled,
                None,
            )?;
        }

        let unresolved = history
            .last()
            .map(|a| {
                a.iter()
                    .filter(|x| x.status == LsbStatus::Diverged && self.refinable(x.id))
                    .map(|x| x.name.clone())
                    .collect()
            })
            .unwrap_or_default();
        Err(self.fail_phase(Phase::Lsb, self.policy.max_iterations, unresolved))
    }

    /// Combines final MSB and LSB analyses into concrete types and applies
    /// them to the design. Returns the applied `(signal, type)` pairs and
    /// the names of signals left floating.
    pub fn apply_types(
        &mut self,
        msb: &[MsbAnalysis],
        lsb: &[LsbAnalysis],
    ) -> (Vec<(SignalId, DType)>, Vec<String>) {
        let mut types = Vec::new();
        let mut unrefined = Vec::new();
        // Exact signals (constant coefficients) carry no error statistics;
        // giving them the finest LSB any *resolved* signal needs keeps
        // their contribution below the datapath's own noise floor without
        // blowing their wordlength to the literal's f64 granularity.
        let finest_resolved = lsb
            .iter()
            .filter(|l| l.status == LsbStatus::Resolved)
            .filter_map(|l| l.lsb)
            .min();
        for m in msb {
            if !self.refinable(m.id) {
                continue;
            }
            let l = lsb.iter().find(|l| l.id == m.id);
            let decided_lsb = l.and_then(|l| {
                let raw = l.lsb?;
                Some(match (l.status == LsbStatus::Exact, finest_resolved) {
                    (true, Some(fin)) => raw.max(fin),
                    _ => raw,
                })
            });
            let decided = m
                .decided_msb()
                .zip(decided_lsb)
                .and_then(|(msb_pos, lsb_pos)| {
                    // The LSB may be coarser than the MSB demands for
                    // near-constant signals; never invert the positions.
                    let lsb_pos = lsb_pos.min(msb_pos);
                    DType::from_positions(
                        format!("{}_q", m.name),
                        msb_pos,
                        lsb_pos,
                        m.signedness,
                        m.mode,
                        l.map(|l| l.rounding).unwrap_or(self.policy.rounding),
                    )
                    .ok()
                });
            // A constant-zero signal (like the paper listing's `v[0] = 0`)
            // carries no range or error information — any format holds it,
            // so it gets a minimal one-bit type.
            let decided = decided.or_else(|| {
                let all_zero = m.stat.map(|i| i.lo == 0.0 && i.hi == 0.0).unwrap_or(false);
                if all_zero {
                    DType::from_positions(
                        format!("{}_q", m.name),
                        0,
                        0,
                        fixref_fixed::Signedness::TwosComplement,
                        self.policy.nonsaturated_mode,
                        self.policy.rounding,
                    )
                    .ok()
                } else {
                    None
                }
            });
            match decided {
                Some(t) => {
                    self.recorder.record_event(Event::TypeApplied {
                        signal: m.name.clone(),
                        dtype: t.to_string(),
                    });
                    self.design.set_dtype(m.id, Some(t.clone()));
                    types.push((m.id, t));
                }
                None => unrefined.push(m.name.clone()),
            }
        }
        (types, unrefined)
    }

    /// Runs one monitored simulation with all decided types applied and
    /// collects overflow and precision findings.
    ///
    /// # Errors
    ///
    /// [`FlowError::ShardFailed`] when a swept verification shard fails
    /// under a `Strict` fault policy (never for the sequential driver).
    pub fn verify(&mut self, sim: impl FnMut(&Design, usize)) -> Result<VerifyOutcome, FlowError> {
        let mut driver = self.driver_for(sim);
        self.verify_with(&mut driver)
    }

    /// [`RefinementFlow::verify`] over an explicit [`SimDriver`] — the
    /// entry point the scenario-sweep engine uses.
    ///
    /// # Errors
    ///
    /// Same as [`RefinementFlow::verify`].
    pub fn verify_with(&mut self, driver: &mut dyn SimDriver) -> Result<VerifyOutcome, FlowError> {
        let span = self.recorder.span_begin("flow.verify");
        let _ = self.design.take_overflow_events();
        let cycles = driver
            .simulate(&self.design, &self.recorder, 0, false)
            .map_err(Self::shard_error)?;
        self.budget_sims += 1;
        self.recorder.span_end(span, cycles);
        let mut overflows = Vec::new();
        let mut total = 0;
        let mut saturation_events = 0;
        let mut precision_loss = Vec::new();
        for r in self.design.reports() {
            if r.overflows > 0 {
                // A saturating type absorbing excursions is doing its job;
                // only wrap/error types overflowing is a failure.
                let saturating = r
                    .dtype
                    .as_ref()
                    .map(|d| d.overflow() == fixref_fixed::OverflowMode::Saturate)
                    .unwrap_or(false);
                if saturating {
                    saturation_events += r.overflows;
                } else {
                    total += r.overflows;
                    overflows.push((r.name.clone(), r.overflows));
                }
            }
            if r.dtype.is_some() && r.precision_loss() && !self.locked.contains(&r.id) {
                precision_loss.push(r.name.clone());
            }
        }
        self.recorder.record_event(Event::VerifyCompleted {
            overflows: total,
            saturation_events,
        });
        Ok(VerifyOutcome {
            overflows,
            total_overflows: total,
            saturation_events,
            precision_loss,
        })
    }

    /// The full flow: MSB phase, LSB phase, type application,
    /// verification.
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError::NotConverged`] from either phase,
    /// [`FlowError::ShardFailed`] from a `Strict` sweep, and
    /// [`FlowError::Interrupted`] from an injected post-checkpoint abort.
    pub fn run(&mut self, sim: impl FnMut(&Design, usize)) -> Result<FlowOutcome, FlowError> {
        let mut driver = self.driver_for(sim);
        self.run_with(&mut driver)
    }

    /// The full flow over an explicit [`SimDriver`]. A resumed flow
    /// fast-forwards here: completed phases are reconstituted from the
    /// checkpoint instead of re-running.
    ///
    /// # Errors
    ///
    /// Same as [`RefinementFlow::run`].
    pub fn run_with(&mut self, driver: &mut dyn SimDriver) -> Result<FlowOutcome, FlowError> {
        self.with_checkpoint_writer(|flow, writer| flow.full_flow(driver, writer))
    }

    /// The whole flow of [`RefinementFlow::run_with`]: both phases
    /// checkpoint to the one `writer`.
    fn full_flow(
        &mut self,
        driver: &mut dyn SimDriver,
        writer: CheckpointWriter<'_>,
    ) -> Result<FlowOutcome, FlowError> {
        let resume_cursor = self.resume.as_ref().map(|r| r.cursor);
        let (msb_history, lsb_history) = match resume_cursor {
            None | Some(Cursor::Msb { .. }) => {
                let (msb_history, _) = self.msb_phase(driver, writer)?;
                if self.budget_hit.is_some() {
                    // Best-so-far: skip the LSB phase entirely; every
                    // signal stays unrefined in apply_types.
                    (msb_history, Vec::new())
                } else {
                    let (lsb_history, _) = self.lsb_phase(driver, writer)?;
                    (msb_history, lsb_history)
                }
            }
            Some(Cursor::Lsb { .. }) => {
                let msb_final = self.msb_final_store.clone().unwrap_or_default();
                let (lsb_history, _) = self.lsb_phase(driver, writer)?;
                (vec![msb_final], lsb_history)
            }
            Some(Cursor::Apply) => {
                let r = self.resume.take().expect("cursor just observed");
                if let Some(n) = self.pending_resume_invalidation.take() {
                    driver.resume_invalidation(n);
                }
                let msb_final = self.msb_final_store.clone().unwrap_or_default();
                (vec![msb_final], vec![r.lsb_final.unwrap_or_default()])
            }
        };

        let empty_msb = Vec::new();
        let empty_lsb = Vec::new();
        let final_msb = msb_history.last().unwrap_or(&empty_msb);
        let final_lsb = lsb_history.last().unwrap_or(&empty_lsb);
        let (types, unrefined) = self.apply_types(final_msb, final_lsb);
        let skip_verify =
            self.budget_hit.is_some() || (self.budget_sims >= 1 && self.budget_spent(Phase::Lsb));
        let verify = if skip_verify {
            VerifyOutcome::default()
        } else {
            self.verify_with(driver)?
        };
        let interventions = self.interventions_since(self.msb_journal_start);
        let status = match &self.budget_hit {
            Some(reason) => FlowStatus::Partial {
                reason: reason.clone(),
            },
            None => FlowStatus::Complete,
        };

        Ok(FlowOutcome {
            msb_iterations: self.msb_done_total,
            lsb_iterations: self.lsb_done_total,
            msb_history,
            lsb_history,
            interventions,
            types,
            unrefined,
            verify,
            status,
            coverage: driver.coverage(),
        })
    }

    /// The full flow driven by the scenario-sweep engine: every
    /// simulation fans out over the sweep's worker pool (one independent
    /// design per scenario) and the refinement rules run on the merged
    /// statistics. With a single scenario whose stimulus matches the
    /// sequential closure, the outcome is bit-identical to
    /// [`RefinementFlow::run`].
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError::NotConverged`] from either phase.
    pub fn run_swept(
        &mut self,
        sweep: &mut crate::sweep::SweepDriver,
    ) -> Result<FlowOutcome, FlowError> {
        self.run_with(sweep)
    }
}

impl fmt::Debug for RefinementFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RefinementFlow")
            .field("locked", &self.locked.len())
            .field("force_saturate", &self.force_saturate.len())
            .field("excluded", &self.excluded.len())
            .finish()
    }
}

impl FlowOutcome {
    /// Renders a compact human-readable summary of the whole refinement:
    /// iteration counts, interventions, decided types and verification
    /// findings — the one-call report the examples print.
    pub fn render_summary(&self, design: &Design) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "refined in {} MSB + {} LSB iterations",
            self.msb_iterations, self.lsb_iterations
        );
        if !self.interventions.is_empty() {
            let _ = writeln!(out, "automatic annotations:");
            for iv in &self.interventions {
                let _ = writeln!(out, "  {iv}");
            }
        }
        let (forced, other) = self.saturation_counts();
        let _ = writeln!(
            out,
            "saturations: {forced} forced by range explosion, {other} other"
        );
        let _ = writeln!(out, "decided types:");
        for (id, t) in &self.types {
            let _ = writeln!(out, "  {:<12} -> {t}", design.name_of(*id));
        }
        if !self.unrefined.is_empty() {
            let _ = writeln!(out, "left floating: {}", self.unrefined.join(", "));
        }
        let _ = writeln!(
            out,
            "verification: {} overflows, {} saturation events{}",
            self.verify.total_overflows,
            self.verify.saturation_events,
            if self.verify.precision_loss.is_empty() {
                String::new()
            } else {
                format!(
                    ", precision loss on {}",
                    self.verify.precision_loss.join(", ")
                )
            }
        );
        out
    }
}

#[cfg(test)]
mod summary_tests {
    use super::*;
    use fixref_sim::SignalRef;

    #[test]
    fn summary_covers_all_sections() {
        let d = Design::with_seed(4);
        let t: DType = "<8,6,tc,st,rd>".parse().expect("valid");
        let x = d.sig_typed("x", t);
        let acc = d.reg("acc");
        let (xi, ai) = (x.id(), acc.id());
        let mut flow = RefinementFlow::new(d.clone(), crate::RefinePolicy::default());
        let outcome = flow
            .run(move |dd: &Design, _| {
                let x = dd.sig_handle(xi);
                let acc = dd.reg_handle(ai);
                for i in 0..600 {
                    x.set((i as f64 * 0.17).sin());
                    // Adaptive-style multiplicative feedback: explodes.
                    let xv = x.get();
                    acc.set(acc.get() + 0.1 * xv.clone() * (xv - acc.get()));
                    dd.tick();
                }
            })
            .expect("converges");
        let s = outcome.render_summary(&d);
        assert!(s.contains("MSB + "));
        assert!(s.contains("decided types:"));
        assert!(s.contains("acc"));
        assert!(s.contains("verification:"));
        assert!(s.contains("automatic annotations:"));
    }
}
