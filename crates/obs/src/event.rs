//! The structured event taxonomy of the refinement flow.
//!
//! Every noteworthy occurrence during simulation and refinement — an
//! overflow, a range-propagation explosion, an automatic `range()` or
//! `error()` intervention, a signal resolving, a phase converging — is an
//! [`Event`]. Events are plain data: the journal they accumulate in can be
//! queried in-process (replacing ad-hoc bookkeeping vectors) and exported
//! as JSON Lines for external tooling.

use crate::json::{FromJson, Json, JsonError, ToJson};
use std::fmt;

/// Which refinement phase an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Integer-wordlength (range) refinement, paper §5.1.
    Msb,
    /// Fractional-wordlength (precision) refinement, paper §5.2.
    Lsb,
}

impl Phase {
    /// The lowercase wire name (`"msb"` / `"lsb"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Msb => "msb",
            Phase::Lsb => "lsb",
        }
    }
}

impl ToJson for Phase {
    fn encode(&self) -> Json {
        Json::Str(self.as_str().to_string())
    }
}

impl FromJson for Phase {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        match v.as_str() {
            Some("msb") => Ok(Phase::Msb),
            Some("lsb") => Ok(Phase::Lsb),
            _ => Err(JsonError::expected("\"msb\" or \"lsb\"", v)),
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured occurrence in the instrumented flow.
///
/// The taxonomy follows the refinement loop of paper Fig. 4: simulation
/// monitors raise [`Event::OverflowDetected`]; per-iteration analysis
/// raises [`Event::IntervalExploded`] and [`Event::SignalResolved`];
/// automatic interventions raise [`Event::AutoRange`] /
/// [`Event::AutoError`]; phase ends raise [`Event::PhaseConverged`] or
/// [`Event::PhaseFailed`]; type application raises [`Event::TypeApplied`];
/// the final check raises [`Event::VerifyCompleted`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A value did not fit a signal's type during simulation.
    OverflowDetected {
        /// The overflowing signal.
        signal: String,
        /// The unquantized value that did not fit.
        value: f64,
        /// The clock cycle at which it happened.
        cycle: u64,
    },
    /// One refinement iteration began (spans carry its timing; this event
    /// anchors the journal's ordering).
    IterationStarted {
        /// The phase iterating.
        phase: Phase,
        /// 1-based iteration number.
        iteration: usize,
    },
    /// A signal's propagated range exploded (unbounded or past the
    /// explosion threshold) in an MSB iteration.
    IntervalExploded {
        /// The exploded signal.
        signal: String,
        /// 1-based iteration in which the explosion was observed.
        iteration: usize,
    },
    /// The flow pinned `range(lo, hi)` on a feedback signal — the
    /// automatic equivalent of the paper's manual `b.range(-0.2, 0.2)`.
    AutoRange {
        /// The annotated signal.
        signal: String,
        /// Lower pinned bound.
        lo: f64,
        /// Upper pinned bound.
        hi: f64,
        /// 1-based MSB iteration that inserted it.
        iteration: usize,
    },
    /// The flow injected `error(σ)` on an LSB-divergent feedback signal.
    AutoError {
        /// The annotated signal.
        signal: String,
        /// Injected error standard deviation.
        sigma: f64,
        /// 1-based LSB iteration that inserted it.
        iteration: usize,
    },
    /// A signal that was exploded (MSB) or divergent (LSB) in an earlier
    /// iteration is now resolved.
    SignalResolved {
        /// The resolved signal.
        signal: String,
        /// The phase it resolved in.
        phase: Phase,
        /// 1-based iteration in which it resolved.
        iteration: usize,
    },
    /// A phase finished with every refinable signal resolved.
    PhaseConverged {
        /// The converged phase.
        phase: Phase,
        /// Iterations it took.
        iterations: usize,
    },
    /// A phase exhausted its iteration budget.
    PhaseFailed {
        /// The failed phase.
        phase: Phase,
        /// Iterations spent.
        iterations: usize,
        /// Comma-joined names of the signals still unresolved.
        unresolved: String,
    },
    /// A decided type was applied to a signal.
    TypeApplied {
        /// The typed signal.
        signal: String,
        /// The decided type, in `<n,f,…>` display form.
        dtype: String,
    },
    /// The final verification run completed.
    VerifyCompleted {
        /// Overflows on wrap/error-mode types (failures).
        overflows: u64,
        /// Excursions absorbed by saturating types (informational).
        saturation_events: u64,
    },
    /// A scenario shard of a parallel sweep began merging into the master
    /// journal. Shard journals are concatenated in shard (scenario) order,
    /// bracketed by this event and [`Event::ShardMerged`].
    ShardStarted {
        /// 0-based scenario index of the shard.
        shard: usize,
        /// Stimulus seed the shard simulated with.
        seed: u64,
        /// Stimulus SNR of the shard (dB).
        snr_db: f64,
        /// Samples the shard simulated.
        samples: usize,
    },
    /// A scenario shard's statistics finished merging into the master
    /// design.
    ShardMerged {
        /// 0-based scenario index of the shard.
        shard: usize,
        /// Simulation cycles the shard ran.
        cycles: u64,
        /// Signals whose monitors were merged.
        signals: usize,
    },
    /// An incremental evaluation cache was invalidated: annotation
    /// changes dirtied part (or all) of the design, so the next run
    /// cannot be replayed wholesale from cached monitors.
    CacheInvalidated {
        /// What invalidated the cache (e.g. `"annotations"`,
        /// `"error_sigma"`).
        reason: String,
        /// Number of signals marked dirty by the invalidation.
        dirty: usize,
    },
    /// A zero-spanning division's unbounded quotient was clamped to the
    /// dividend's declared type bound during analytical range
    /// propagation, instead of silently poisoning downstream ranges.
    RangeClamped {
        /// The signal whose defining division was clamped.
        signal: String,
        /// Lower clamped bound.
        lo: f64,
        /// Upper clamped bound.
        hi: f64,
    },
    /// A signal's analytical range was widened to unbounded after
    /// exceeding the growth-pass budget on a feedback path — the "MSB
    /// explosion" the paper warns about, journaled instead of silently
    /// railing to `Interval::UNBOUNDED`.
    RangeExploded {
        /// The signal whose range exploded.
        signal: String,
        /// Growing passes observed before the analysis gave up.
        passes: usize,
    },
    /// One static-lint finding (pre-flight diagnostics over the recorded
    /// signal-flow graph).
    LintDiagnostic {
        /// The stable diagnostic code (`"FXL001"`, …).
        code: String,
        /// Severity wire form (`"info"` / `"warning"` / `"error"`).
        severity: String,
        /// The signal the finding is anchored to.
        signal: String,
        /// Human-readable explanation.
        message: String,
    },
    /// A lint run over the design finished.
    LintCompleted {
        /// Error-severity findings.
        errors: usize,
        /// Warning-severity findings.
        warnings: usize,
        /// Info-severity findings.
        infos: usize,
    },
    /// A lint-backed gate rejected something: the pre-flight flow gate
    /// hit a denied code.
    LintGateFailed {
        /// Which gate failed (`"flow.preflight"`).
        context: String,
        /// The diagnostic code that triggered the failure.
        code: String,
        /// Number of findings with that code.
        findings: usize,
    },
    /// A formal verification run (bounded model check of one lint
    /// finding) started.
    VerifyStarted {
        /// Diagnostic code under check (`"FXL002"`, …).
        code: String,
        /// Anchor signal of the property being checked.
        signal: String,
        /// Number of state-holding registers in the extracted model.
        registers: usize,
    },
    /// The checker proved the property: the reachable state space closed
    /// with no bad state, discharging the diagnostic.
    VerifyProved {
        /// Diagnostic code discharged.
        code: String,
        /// Anchor signal of the property.
        signal: String,
        /// Distinct states in the closed reachable set.
        states: usize,
        /// Exploration depth (ticks) at closure.
        depth: usize,
    },
    /// The checker found a concrete input sequence driving the design
    /// into the hazard the diagnostic warned about.
    VerifyCounterexample {
        /// Diagnostic code refuted.
        code: String,
        /// Anchor signal of the property.
        signal: String,
        /// Length of the witness stimulus in ticks.
        steps: usize,
    },
    /// The checker gave up without a verdict: state space or input
    /// alphabet exceeded its bounds, or the model was not finite-state.
    VerifyBoundExhausted {
        /// Diagnostic code left undecided.
        code: String,
        /// Anchor signal of the property.
        signal: String,
        /// Why the check was inconclusive (`"state_too_large"`, …).
        reason: String,
        /// States explored before giving up.
        states: usize,
    },
    /// A scenario shard failed — panicked or lost its result — after
    /// every permitted attempt. Under a `Strict` fault policy the sweep
    /// aborts here; under `Degraded` the surviving shards are merged and
    /// coverage drops.
    ShardFailed {
        /// 0-based scenario index of the failed shard.
        shard: usize,
        /// The scenario label (`Scenario::label`).
        scenario: String,
        /// Attempts made before giving up.
        attempts: usize,
        /// The captured panic message or failure cause.
        cause: String,
    },
    /// A failed shard attempt was retried with the same scenario (same
    /// seed, so a retry that succeeds is bit-identical to a fault-free
    /// run).
    ShardRetried {
        /// 0-based scenario index of the retried shard.
        shard: usize,
        /// 0-based attempt number being started (1 = first retry).
        attempt: usize,
    },
    /// A scenario that exhausted its retry budget was quarantined: the
    /// sweep stops re-simulating it and reports reduced coverage instead.
    ShardQuarantined {
        /// 0-based scenario index of the quarantined shard.
        shard: usize,
        /// The scenario label (`Scenario::label`).
        scenario: String,
    },
    /// The flow captured its state after an iteration and queued the
    /// snapshot for its checkpoint file. A writer thread writes it while
    /// the flow goes on; the file holds it once the flow call that took
    /// it returns, and a failed write is journaled then as
    /// [`Event::CheckpointFailed`]. A process killed before that can
    /// lose it and leave an earlier snapshot on disk.
    CheckpointWritten {
        /// 0-based checkpoint sequence number (monotonic per flow).
        sequence: usize,
        /// The phase whose iteration just completed.
        phase: Phase,
        /// The 1-based iteration just completed.
        iteration: usize,
    },
    /// A checkpoint write failed (I/O error or injected fault). The flow
    /// continues; the previous checkpoint on disk stays authoritative.
    /// An injected failure is journaled at its checkpoint, an I/O error
    /// when the flow call that queued the snapshot joins its writer.
    CheckpointFailed {
        /// Sequence number of the failed write.
        sequence: usize,
        /// The failure cause.
        cause: String,
    },
    /// A flow was reconstructed from a checkpoint file; the restored
    /// journal follows this event.
    ResumedFromCheckpoint {
        /// Sequence number of the checkpoint resumed from.
        sequence: usize,
        /// The phase the flow will resume in.
        phase: Phase,
        /// The 1-based iteration the flow will resume at.
        iteration: usize,
        /// Number of journal events restored from the checkpoint.
        events: usize,
    },
    /// A wall-clock or simulation-count budget ran out; the flow returns
    /// its best-so-far annotations marked `Partial` instead of erroring.
    BudgetExhausted {
        /// The phase that was running when the budget ran out.
        phase: Phase,
        /// Simulations completed so far across the run.
        simulations: u64,
        /// Which budget ran out and where (human-readable).
        reason: String,
    },
    /// A sweep shard's captured record iteration was compiled into a
    /// replay, which later iterations run instead of the stimulus.
    BackendCompiled {
        /// The backend that compiled (`"compiled"`).
        backend: String,
        /// Distinct definitions the replay evaluates.
        kinds: usize,
        /// Steps per replay: assignments plus ticks.
        instructions: usize,
        /// Simulation cycles per replay.
        cycles: u64,
    },
    /// A compiled backend request fell back to the interpreted
    /// simulator — the static-schedule lint refused the design, the
    /// verification replay diverged, or the run mode (armed fault plan,
    /// quarantined scenarios) is only supported interpreted. The run
    /// proceeds with identical results.
    BackendFallback {
        /// The backend that was requested (`"compiled"`).
        backend: String,
        /// Why the fallback happened (e.g. `"FXL001"`).
        reason: String,
    },
    /// The job server admitted a submitted job into its bounded queue
    /// and journaled it to the write-ahead jobs log.
    JobAccepted {
        /// The server-assigned job id (stable across restarts).
        job: String,
        /// The submitting tenant.
        tenant: String,
        /// Queue depth *after* admission.
        queue_depth: usize,
    },
    /// Admission control refused a submitted job (full queue, oversized
    /// spec, unknown design kind). The job is never enqueued or journaled
    /// as accepted; the submitter gets the reason back.
    JobRejected {
        /// The submitting tenant.
        tenant: String,
        /// Why admission refused the job (`"queue full (cap 64)"`, …).
        reason: String,
    },
    /// A worker picked a queued job and began (or resumed) its flow.
    JobStarted {
        /// The job id.
        job: String,
        /// The submitting tenant.
        tenant: String,
        /// 1-based attempt number (1 = first execution).
        attempt: usize,
    },
    /// A failed job was rescheduled after its deterministic backoff.
    JobRetried {
        /// The job id.
        job: String,
        /// 1-based attempt number being scheduled next.
        attempt: usize,
        /// The jittered backoff delay that preceded the retry, in ms.
        backoff_ms: u64,
    },
    /// A restarted server found the job accepted-but-unfinished in the
    /// write-ahead log and requeued it, resuming from its last
    /// checkpoint when one exists.
    JobRecovered {
        /// The job id.
        job: String,
        /// The submitting tenant.
        tenant: String,
        /// Whether a usable checkpoint file was found to resume from
        /// (`false` means the job restarts from scratch — still
        /// bit-identical, just without the saved progress).
        from_checkpoint: bool,
    },
    /// A job reached a terminal state: `"complete"`, `"partial"` (budget
    /// exhausted or cancelled) or `"failed"` (error after all retries).
    JobCompleted {
        /// The job id.
        job: String,
        /// Terminal status wire tag.
        status: String,
        /// Total execution attempts consumed.
        attempts: usize,
    },
}

/// The wire table: each variant's `"event"` tag and its members in
/// wire order. It generates [`Event::kind`] and the codec, so a
/// variant's name, tag and members are written once.
macro_rules! event_codec {
    ($($variant:ident => $tag:literal { $($field:ident),* },)*) => {
        impl Event {
            /// The event's wire tag (the JSON `"event"` member).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $tag,)*
                }
            }
        }

        impl ToJson for Event {
            fn encode(&self) -> Json {
                match self {
                    $(Event::$variant { $($field),* } => {
                        Json::obj([("event", $tag.encode()), $((stringify!($field), $field.encode())),*])
                    })*
                }
            }
        }

        impl FromJson for Event {
            fn decode(v: &Json) -> Result<Self, JsonError> {
                match v.field::<String>("event")?.as_str() {
                    $($tag => Ok(Event::$variant {
                        $($field: v.field(stringify!($field))?),*
                    }),)*
                    other => Err(JsonError::new(format!("unknown event tag {other:?}"))),
                }
            }
        }
    };
}

event_codec! {
    OverflowDetected => "overflow_detected" { signal, value, cycle },
    IterationStarted => "iteration_started" { phase, iteration },
    IntervalExploded => "interval_exploded" { signal, iteration },
    AutoRange => "auto_range" { signal, lo, hi, iteration },
    AutoError => "auto_error" { signal, sigma, iteration },
    SignalResolved => "signal_resolved" { signal, phase, iteration },
    PhaseConverged => "phase_converged" { phase, iterations },
    PhaseFailed => "phase_failed" { phase, iterations, unresolved },
    TypeApplied => "type_applied" { signal, dtype },
    VerifyCompleted => "verify_completed" { overflows, saturation_events },
    ShardStarted => "shard_started" { shard, seed, snr_db, samples },
    ShardMerged => "shard_merged" { shard, cycles, signals },
    CacheInvalidated => "cache_invalidated" { reason, dirty },
    RangeClamped => "range_clamped" { signal, lo, hi },
    RangeExploded => "range_exploded" { signal, passes },
    LintDiagnostic => "lint_diagnostic" { code, severity, signal, message },
    LintCompleted => "lint_completed" { errors, warnings, infos },
    LintGateFailed => "lint_gate_failed" { context, code, findings },
    VerifyStarted => "verify_started" { code, signal, registers },
    VerifyProved => "verify_proved" { code, signal, states, depth },
    VerifyCounterexample => "verify_counterexample" { code, signal, steps },
    VerifyBoundExhausted => "verify_bound_exhausted" { code, signal, reason, states },
    ShardFailed => "shard_failed" { shard, scenario, attempts, cause },
    ShardRetried => "shard_retried" { shard, attempt },
    ShardQuarantined => "shard_quarantined" { shard, scenario },
    CheckpointWritten => "checkpoint_written" { sequence, phase, iteration },
    CheckpointFailed => "checkpoint_failed" { sequence, cause },
    ResumedFromCheckpoint => "resumed_from_checkpoint" { sequence, phase, iteration, events },
    BudgetExhausted => "budget_exhausted" { phase, simulations, reason },
    BackendCompiled => "backend_compiled" { backend, kinds, instructions, cycles },
    BackendFallback => "backend_fallback" { backend, reason },
    JobAccepted => "job_accepted" { job, tenant, queue_depth },
    JobRejected => "job_rejected" { tenant, reason },
    JobStarted => "job_started" { job, tenant, attempt },
    JobRetried => "job_retried" { job, attempt, backoff_ms },
    JobRecovered => "job_recovered" { job, tenant, from_checkpoint },
    JobCompleted => "job_completed" { job, status, attempts },
}

impl Event {
    /// Serializes the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        self.encode().to_string()
    }

    /// Deserializes an event from one JSON object (one journal line).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed JSON, an unknown `"event"`
    /// tag, or missing/mistyped members.
    pub fn from_json(line: &str) -> Result<Event, JsonError> {
        Event::decode(&Json::parse(line)?)
    }

    /// Deserializes an event from an already-parsed [`Json`] object —
    /// the form checkpoint files use, where journal events are embedded
    /// as an array of objects rather than JSON Lines.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on an unknown `"event"` tag or
    /// missing/mistyped members.
    pub fn from_value(v: &Json) -> Result<Event, JsonError> {
        Event::decode(v)
    }
}

impl fmt::Display for Event {
    /// Human-readable one-liner (the journal's text rendering).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::OverflowDetected {
                signal,
                value,
                cycle,
            } => write!(f, "overflow on {signal}: value {value} at cycle {cycle}"),
            Event::IterationStarted { phase, iteration } => {
                write!(f, "{phase} iteration {iteration} started")
            }
            Event::IntervalExploded { signal, iteration } => {
                write!(f, "iter {iteration}: interval of {signal} exploded")
            }
            Event::AutoRange {
                signal,
                lo,
                hi,
                iteration,
            } => write!(f, "iter {iteration}: {signal}.range({lo}, {hi})"),
            Event::AutoError {
                signal,
                sigma,
                iteration,
            } => write!(f, "iter {iteration}: {signal}.error(sigma={sigma:.3e})"),
            Event::SignalResolved {
                signal,
                phase,
                iteration,
            } => write!(f, "iter {iteration}: {signal} resolved ({phase})"),
            Event::PhaseConverged { phase, iterations } => {
                write!(f, "{phase} phase converged after {iterations} iteration(s)")
            }
            Event::PhaseFailed {
                phase,
                iterations,
                unresolved,
            } => write!(
                f,
                "{phase} phase failed after {iterations} iteration(s): {unresolved}"
            ),
            Event::TypeApplied { signal, dtype } => write!(f, "{signal} := {dtype}"),
            Event::VerifyCompleted {
                overflows,
                saturation_events,
            } => write!(
                f,
                "verification: {overflows} overflows, {saturation_events} saturation events"
            ),
            Event::ShardStarted {
                shard,
                seed,
                snr_db,
                samples,
            } => write!(
                f,
                "shard {shard}: seed {seed}, {snr_db} dB, {samples} samples"
            ),
            Event::ShardMerged {
                shard,
                cycles,
                signals,
            } => write!(
                f,
                "shard {shard}: merged {signals} signals, {cycles} cycles"
            ),
            Event::CacheInvalidated { reason, dirty } => {
                write!(
                    f,
                    "eval cache invalidated ({reason}): {dirty} signal(s) dirty"
                )
            }
            Event::RangeClamped { signal, lo, hi } => {
                write!(f, "division range of {signal} clamped to [{lo}, {hi}]")
            }
            Event::RangeExploded { signal, passes } => {
                write!(
                    f,
                    "analytical range of {signal} exploded after {passes} growing pass(es)"
                )
            }
            Event::LintDiagnostic {
                code,
                severity,
                signal,
                message,
            } => write!(f, "{code} {severity} {signal}: {message}"),
            Event::LintCompleted {
                errors,
                warnings,
                infos,
            } => write!(
                f,
                "lint: {errors} error(s), {warnings} warning(s), {infos} info(s)"
            ),
            Event::LintGateFailed {
                context,
                code,
                findings,
            } => write!(
                f,
                "lint gate {context} failed: {findings} {code} finding(s)"
            ),
            Event::VerifyStarted {
                code,
                signal,
                registers,
            } => write!(
                f,
                "verifying {code} at {signal}: {registers} register(s) of state"
            ),
            Event::VerifyProved {
                code,
                signal,
                states,
                depth,
            } => write!(
                f,
                "{code} at {signal} proved safe: {states} reachable state(s) closed at depth {depth}"
            ),
            Event::VerifyCounterexample {
                code,
                signal,
                steps,
            } => write!(
                f,
                "{code} at {signal} refuted: counterexample in {steps} tick(s)"
            ),
            Event::VerifyBoundExhausted {
                code,
                signal,
                reason,
                states,
            } => write!(
                f,
                "{code} at {signal} undecided ({reason}) after {states} state(s)"
            ),
            Event::ShardFailed {
                shard,
                scenario,
                attempts,
                cause,
            } => write!(
                f,
                "shard {shard} ({scenario}) failed after {attempts} attempt(s): {cause}"
            ),
            Event::ShardRetried { shard, attempt } => {
                write!(f, "shard {shard}: retry attempt {attempt}")
            }
            Event::ShardQuarantined { shard, scenario } => {
                write!(f, "shard {shard} ({scenario}) quarantined")
            }
            Event::CheckpointWritten {
                sequence,
                phase,
                iteration,
            } => write!(
                f,
                "checkpoint {sequence} written after {phase} iteration {iteration}"
            ),
            Event::CheckpointFailed { sequence, cause } => {
                write!(f, "checkpoint {sequence} write failed: {cause}")
            }
            Event::ResumedFromCheckpoint {
                sequence,
                phase,
                iteration,
                events,
            } => write!(
                f,
                "resumed from checkpoint {sequence} at {phase} iteration {iteration} ({events} events restored)"
            ),
            Event::BudgetExhausted {
                phase,
                simulations,
                reason,
            } => write!(
                f,
                "budget exhausted in {phase} phase after {simulations} simulation(s): {reason}"
            ),
            Event::BackendCompiled {
                backend,
                kinds,
                instructions,
                cycles,
            } => write!(
                f,
                "{backend} backend compiled: {kinds} definition(s), {instructions} step(s), {cycles} cycles"
            ),
            Event::BackendFallback { backend, reason } => {
                write!(f, "{backend} backend fell back to interpreted: {reason}")
            }
            Event::JobAccepted {
                job,
                tenant,
                queue_depth,
            } => write!(
                f,
                "job {job} accepted from {tenant} (queue depth {queue_depth})"
            ),
            Event::JobRejected { tenant, reason } => {
                write!(f, "job from {tenant} rejected: {reason}")
            }
            Event::JobStarted {
                job,
                tenant,
                attempt,
            } => write!(f, "job {job} ({tenant}) started, attempt {attempt}"),
            Event::JobRetried {
                job,
                attempt,
                backoff_ms,
            } => write!(
                f,
                "job {job} retrying as attempt {attempt} after {backoff_ms} ms backoff"
            ),
            Event::JobRecovered {
                job,
                tenant,
                from_checkpoint,
            } => write!(
                f,
                "job {job} ({tenant}) recovered from the jobs log{}",
                if *from_checkpoint {
                    ", resuming from checkpoint"
                } else {
                    ", restarting from scratch"
                }
            ),
            Event::JobCompleted {
                job,
                status,
                attempts,
            } => write!(f, "job {job} completed {status} after {attempts} attempt(s)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::OverflowDetected {
                signal: "acc".into(),
                value: 3.75,
                cycle: 17,
            },
            Event::IterationStarted {
                phase: Phase::Msb,
                iteration: 1,
            },
            Event::IntervalExploded {
                signal: "w".into(),
                iteration: 1,
            },
            Event::AutoRange {
                signal: "b".into(),
                lo: -0.355,
                hi: 0.189,
                iteration: 1,
            },
            Event::AutoError {
                signal: "nco".into(),
                sigma: 2.26e-4,
                iteration: 1,
            },
            Event::SignalResolved {
                signal: "w".into(),
                phase: Phase::Msb,
                iteration: 2,
            },
            Event::PhaseConverged {
                phase: Phase::Lsb,
                iterations: 2,
            },
            Event::PhaseFailed {
                phase: Phase::Msb,
                iterations: 8,
                unresolved: "a, b".into(),
            },
            Event::TypeApplied {
                signal: "y\"q\\".into(),
                dtype: "<8,6,tc,st,rd>".into(),
            },
            Event::VerifyCompleted {
                overflows: 0,
                saturation_events: 12,
            },
            Event::ShardStarted {
                shard: 3,
                seed: 0xDA7E_1999,
                snr_db: 28.0,
                samples: 4000,
            },
            Event::ShardMerged {
                shard: 3,
                cycles: 4000,
                signals: 14,
            },
            Event::CacheInvalidated {
                reason: "error_sigma".into(),
                dirty: 14,
            },
            Event::RangeClamped {
                signal: "q".into(),
                lo: -8.0,
                hi: 7.9375,
            },
            Event::RangeExploded {
                signal: "acc".into(),
                passes: 64,
            },
            Event::LintDiagnostic {
                code: "FXL001".into(),
                severity: "error".into(),
                signal: "mu".into(),
                message: "written 5999 times, producers at 12000".into(),
            },
            Event::LintCompleted {
                errors: 1,
                warnings: 4,
                infos: 2,
            },
            Event::LintGateFailed {
                context: "flow.preflight".into(),
                code: "FXL001".into(),
                findings: 3,
            },
            Event::VerifyStarted {
                code: "FXL002".into(),
                signal: "b".into(),
                registers: 2,
            },
            Event::VerifyProved {
                code: "FXL002".into(),
                signal: "b".into(),
                states: 1024,
                depth: 9,
            },
            Event::VerifyCounterexample {
                code: "FXL004".into(),
                signal: "y1".into(),
                steps: 6,
            },
            Event::VerifyBoundExhausted {
                code: "FXL002".into(),
                signal: "phase".into(),
                reason: "state_too_large".into(),
                states: 0,
            },
            Event::ShardFailed {
                shard: 1,
                scenario: "s1 seed=8 snr=24dB n=1200".into(),
                attempts: 2,
                cause: "injected fault: shard 1 attempt 1".into(),
            },
            Event::ShardRetried {
                shard: 1,
                attempt: 1,
            },
            Event::ShardQuarantined {
                shard: 1,
                scenario: "s1 seed=8 snr=24dB n=1200".into(),
            },
            Event::CheckpointWritten {
                sequence: 0,
                phase: Phase::Msb,
                iteration: 1,
            },
            Event::CheckpointFailed {
                sequence: 1,
                cause: "injected checkpoint-write fault".into(),
            },
            Event::ResumedFromCheckpoint {
                sequence: 1,
                phase: Phase::Lsb,
                iteration: 1,
                events: 42,
            },
            Event::BudgetExhausted {
                phase: Phase::Msb,
                simulations: 2,
                reason: "simulation budget of 2 exhausted".into(),
            },
            Event::BackendCompiled {
                backend: "compiled".into(),
                kinds: 3,
                instructions: 412,
                cycles: 4000,
            },
            Event::BackendFallback {
                backend: "compiled".into(),
                reason: "FXL001".into(),
            },
            Event::JobAccepted {
                job: "j-0003".into(),
                tenant: "acme".into(),
                queue_depth: 5,
            },
            Event::JobRejected {
                tenant: "acme".into(),
                reason: "queue full (cap 8)".into(),
            },
            Event::JobStarted {
                job: "j-0003".into(),
                tenant: "acme".into(),
                attempt: 1,
            },
            Event::JobRetried {
                job: "j-0003".into(),
                attempt: 2,
                backoff_ms: 37,
            },
            Event::JobRecovered {
                job: "j-0003".into(),
                tenant: "acme".into(),
                from_checkpoint: true,
            },
            Event::JobCompleted {
                job: "j-0003".into(),
                status: "partial".into(),
                attempts: 2,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        for e in sample_events() {
            let line = e.to_json();
            let back = Event::from_json(&line).unwrap_or_else(|err| {
                panic!("{line}: {err}");
            });
            assert_eq!(back, e, "line {line}");
        }
    }

    #[test]
    fn non_finite_payloads_survive() {
        let e = Event::OverflowDetected {
            signal: "x".into(),
            value: f64::INFINITY,
            cycle: 0,
        };
        let back = Event::from_json(&e.to_json()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn unknown_tags_and_missing_members_are_rejected() {
        assert!(Event::from_json(r#"{"event":"nope"}"#).is_err());
        assert!(Event::from_json(r#"{"event":"auto_range","signal":"b"}"#).is_err());
        assert!(Event::from_json("not json").is_err());
    }

    #[test]
    fn display_is_compact_and_named() {
        let e = Event::AutoRange {
            signal: "b".into(),
            lo: -0.2,
            hi: 0.2,
            iteration: 1,
        };
        assert_eq!(e.to_string(), "iter 1: b.range(-0.2, 0.2)");
    }
}
