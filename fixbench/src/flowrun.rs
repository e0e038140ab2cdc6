//! The timed path into the refinement flow, shared by every workload.
//!
//! [`TimedDriver`] wraps any [`SimDriver`] and forwards every trait method,
//! so a wrapped flow runs the same program as an unwrapped one (the
//! `wrapper_identity` test proves the outcome, journal and counters
//! identical). [`refine`] runs the Fig. 4 phases one public call at a time
//! so each phase gets its own span. [`probe`] re-times, on a freshly
//! recorded design, the public calls the MSB phase makes besides
//! simulation.

use std::sync::Arc;

use fixref_codegen::{estimate_cost, generate_vhdl, VhdlOptions};
use fixref_core::{
    analyze_msb, FlowError, FlowOutcome, FlowStatus, RefinePolicy, RefinementFlow,
    SequentialDriver, SimDriver, SimFault, SweepCoverage, SweepDriver,
};
use fixref_lint::{LintConfig, Linter, Verdict};
use fixref_obs::{DefaultRecorder, Event};
use fixref_sim::{Design, OverflowEvent, SignalId, SignalStats};
use fixref_verify::{Verifier, VerifyOptions};

use crate::trace::Tracer;

/// Worker-pool accounting a driver can report after a simulation.
pub trait ShardAccounting {
    /// Summed worker wall time of the last simulation's shards, ns.
    fn shard_busy_ns(&self) -> u128 {
        0
    }
    /// Worker threads the driver may use (0: no pool).
    fn pool_workers(&self) -> usize {
        0
    }
}

impl<F> ShardAccounting for SequentialDriver<F> {}

impl ShardAccounting for SweepDriver {
    fn shard_busy_ns(&self) -> u128 {
        self.shard_summaries().iter().map(|s| s.wall_ns).sum()
    }
    fn pool_workers(&self) -> usize {
        self.workers()
    }
}

/// A [`SimDriver`] that times and counts every simulation of the driver
/// it wraps. Cache replays (hits without a miss) simulate nothing, so
/// their cycles, assignments and shard time are not counted as work.
pub struct TimedDriver<'t, D> {
    inner: D,
    tracer: &'t Tracer,
    /// Simulate calls made.
    pub sims: u64,
    /// Clock cycles simulated live, summed over shards.
    pub cycles: u64,
}

impl<'t, D> TimedDriver<'t, D> {
    /// Wraps `inner`, recording spans on `tracer`.
    pub fn new(inner: D, tracer: &'t Tracer) -> Self {
        TimedDriver {
            inner,
            tracer,
            sims: 0,
            cycles: 0,
        }
    }

    /// The wrapped driver.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: SimDriver + ShardAccounting> SimDriver for TimedDriver<'_, D> {
    fn simulate(
        &mut self,
        design: &Design,
        recorder: &Arc<DefaultRecorder>,
        iteration: usize,
        record_graph: bool,
    ) -> Result<u64, SimFault> {
        let before = |name| recorder.counter(name);
        let (hits, misses, assignments) = (
            before("cache.hits"),
            before("cache.misses"),
            before("sim.assignments"),
        );
        let span = self.tracer.begin(if record_graph {
            "sim.record"
        } else {
            "sim.steady"
        });
        let started = std::time::Instant::now();
        let result = self
            .inner
            .simulate(design, recorder, iteration, record_graph);
        let wall_ns = started.elapsed().as_nanos() as f64;
        let replay =
            recorder.counter("cache.hits") > hits && recorder.counter("cache.misses") == misses;
        let cycles = match (&result, replay) {
            (Ok(c), false) => *c,
            _ => 0,
        };
        self.tracer.end(span, cycles);
        self.sims += 1;
        self.cycles += cycles;
        if self.tracer.is_on() && !replay {
            let t = self.tracer;
            t.count(
                "sim.assignments",
                recorder
                    .counter("sim.assignments")
                    .saturating_sub(assignments) as f64,
            );
            let workers = self.inner.pool_workers() as f64;
            if workers > 0.0 {
                let busy = self.inner.shard_busy_ns() as f64;
                t.count("pool.busy_ns", busy);
                t.count("pool.capacity_ns", workers * wall_ns);
                t.count("sweep.outside_ns", wall_ns - busy / workers);
            }
        }
        result
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

/// Runs the Fig. 4 flow phase by phase (`run_msb_with` → `run_lsb_with`
/// → `apply_types` → `verify_with`), one span per phase, and assembles
/// the same [`FlowOutcome`] that [`RefinementFlow::run_with`] returns for
/// an unbudgeted fresh flow.
///
/// # Errors
///
/// Any [`FlowError`] of the phases.
pub fn refine(
    flow: &mut RefinementFlow,
    driver: &mut dyn SimDriver,
    tracer: &Tracer,
) -> Result<FlowOutcome, FlowError> {
    let span = tracer.begin("flow.msb");
    let msb = flow.run_msb_with(driver);
    tracer.end(span, 0);
    let (msb_history, mut interventions) = msb?;

    let span = tracer.begin("flow.lsb");
    let lsb = flow.run_lsb_with(driver);
    tracer.end(span, 0);
    let (lsb_history, lsb_interventions) = lsb?;
    interventions.extend(lsb_interventions);

    let span = tracer.begin("flow.apply");
    let (types, unrefined) = flow.apply_types(
        msb_history.last().map_or(&[][..], Vec::as_slice),
        lsb_history.last().map_or(&[][..], Vec::as_slice),
    );
    tracer.end(span, 0);

    let span = tracer.begin("flow.verify");
    let verify = flow.verify_with(driver);
    tracer.end(span, 0);
    tracer.count("flow.msb_iterations", msb_history.len() as f64);
    tracer.count("flow.lsb_iterations", lsb_history.len() as f64);

    Ok(FlowOutcome {
        msb_iterations: msb_history.len(),
        lsb_iterations: lsb_history.len(),
        msb_history,
        lsb_history,
        interventions,
        types,
        unrefined,
        verify: verify?,
        status: FlowStatus::Complete,
        coverage: driver.coverage(),
    })
}

/// Emits VHDL and the cost estimate for the refined design, one span
/// each. Returns the VHDL line count.
///
/// # Errors
///
/// The code generator's error, as text.
pub fn codegen(
    design: &Design,
    outputs: &[SignalId],
    input: SignalId,
    entity: &str,
    tracer: &Tracer,
) -> Result<usize, String> {
    let span = tracer.begin("codegen.vhdl");
    let vhdl = generate_vhdl(
        design,
        outputs,
        &VhdlOptions::named(entity).with_input(input),
    );
    tracer.end(span, 0);
    let lines = vhdl.map_err(|e| e.to_string())?.lines().count();
    let span = tracer.begin("codegen.cost");
    let cost = estimate_cost(design, &design.graph());
    tracer.end(span, 0);
    std::hint::black_box(cost);
    tracer.count("codegen.vhdl_lines", lines as f64);
    Ok(lines)
}

/// Records the refinement-level counters every workload reports: journal
/// size and the flow recorder's cache/backend counters.
pub fn count_flow(flow: &RefinementFlow, design: &Design, driver_sims: u64, tracer: &Tracer) {
    if !tracer.is_on() {
        return;
    }
    let journal = flow.journal();
    tracer.count("obs.events", journal.len() as f64);
    tracer.count(
        "obs.journal_bytes",
        journal.iter().map(|e| e.to_json().len() + 1).sum::<usize>() as f64,
    );
    let rec = flow.recorder();
    for name in [
        "cache.hits",
        "cache.misses",
        "backend.compiled_runs",
        "backend.fallbacks",
    ] {
        tracer.count(name, rec.counter(name) as f64);
    }
    tracer.count("flow.sims", driver_sims as f64);
    tracer.count("sim.graph_nodes", design.graph().len() as f64);
}

/// Re-times the MSB phase's non-simulation calls on a design freshly
/// recorded by one interpreted simulation — the state the flow's
/// pre-flight gate sees after its first iteration: the feedback scan over
/// `Graph::fan_in`, `Design::reports` + `analyze_msb`, `Linter::run` and
/// `Verifier::verify_design`. The probe runs outside the refinement span.
pub fn probe(design: &Design, sim: impl FnMut(&Design, usize), tracer: &Tracer) {
    if !tracer.is_on() {
        return;
    }
    let root = tracer.begin("probe");
    let recorder = Arc::new(DefaultRecorder::new());
    design.attach_recorder(recorder.clone());
    let span = tracer.begin("probe.sim");
    let mut driver = SequentialDriver::new(sim);
    let cycles = driver
        .simulate(design, &recorder, 1, true)
        .expect("the sequential driver never fails");
    tracer.end(span, cycles);

    let span = tracer.begin("graph.feedback_scan");
    let graph = design.graph();
    let feedback = graph
        .defined_signals()
        .filter(|&s| graph.fan_in(s).contains(&s))
        .count();
    tracer.end(span, feedback as u64);

    let span = tracer.begin("analyze.reports");
    let policy = RefinePolicy::default();
    let analyses: Vec<_> = design
        .reports()
        .iter()
        .map(|r| analyze_msb(r, &policy))
        .collect();
    tracer.end(span, analyses.len() as u64);

    let span = tracer.begin("lint");
    let report = Linter::with_config(LintConfig::new()).run(design);
    tracer.end(span, report.diagnostics.len() as u64);
    tracer.count("lint.diagnostics", report.diagnostics.len() as f64);

    let span = tracer.begin("verify.bmc");
    let verified =
        Verifier::with_options(VerifyOptions::default()).verify_design(design, &report, None);
    tracer.end(span, verified.outcomes.len() as u64);
    let states: usize = verified.outcomes.iter().map(|o| o.states).sum();
    let proved = verified
        .outcomes
        .iter()
        .filter(|o| o.verdict == Verdict::Proved)
        .count();
    let unknown = verified
        .outcomes
        .iter()
        .filter(|o| matches!(o.verdict, Verdict::Unknown { .. }))
        .count();
    tracer.count("verify.states", states as f64);
    tracer.count("verify.proved", proved as f64);
    tracer.count("verify.unknown", unknown as f64);
    tracer.end(root, 0);
}

/// The refined outcome's output checks shared by the workloads: it
/// converged and its verification run saw no wrap overflow.
pub fn converged_without_overflow(outcome: &FlowOutcome) -> Result<(), String> {
    if outcome.status != FlowStatus::Complete {
        return Err(format!("status {:?}", outcome.status));
    }
    if outcome.msb_iterations == 0 || outcome.lsb_iterations == 0 {
        return Err("a phase ran no iteration".into());
    }
    if !outcome.verify.is_overflow_free() {
        return Err(format!(
            "verification saw {} wrap overflow(s): {:?}",
            outcome.verify.total_overflows, outcome.verify.overflows
        ));
    }
    Ok(())
}

/// A stable digest of everything a refinement decided: the outcome and
/// the journal (events carry no wall times).
pub fn digest(outcome: &FlowOutcome, journal: &[Event]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{outcome:?}").hash(&mut h);
    for e in journal {
        e.to_json().hash(&mut h);
    }
    h.finish()
}
