//! Job lifecycle types: states, status snapshots and persisted results.

use fixref_obs::json::fmt_f64;
use fixref_obs::{Event, FromJson, Json, JsonError, ToJson};
use fixref_sim::{SignalAnnotation, SpecError};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting for a worker.
    Queued,
    /// A worker is running it.
    Running,
    /// Terminal: the flow finished (see the result's `status` for
    /// complete vs. partial vs. failed).
    Finished,
    /// Terminal: cancelled before a worker picked it up.
    Cancelled,
}

impl JobState {
    /// Lower-case wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Finished => "finished",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can never run again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Finished | JobState::Cancelled)
    }
}

/// A point-in-time status snapshot for the status API.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Job id.
    pub job: String,
    /// Owning tenant.
    pub tenant: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Attempts started so far (0 while queued).
    pub attempts: usize,
    /// Terminal flow status (`"complete"` / `"partial"` / `"failed"`),
    /// once finished.
    pub status: Option<String>,
    /// Partial/failure reason, if any.
    pub reason: Option<String>,
}

impl JobStatus {
    /// Renders the snapshot as one JSON object.
    pub fn to_json(&self) -> String {
        self.encode().to_string()
    }
}

impl ToJson for JobStatus {
    fn encode(&self) -> Json {
        Json::obj([
            ("job", self.job.encode()),
            ("tenant", self.tenant.encode()),
            ("state", self.state.name().encode()),
            ("attempts", self.attempts.encode()),
            ("status", self.status.encode()),
            ("reason", self.reason.encode()),
        ])
    }
}

/// Deterministic one-line rendering of a final signal annotation, used
/// for bit-identity comparison of served vs. direct runs.
pub fn render_annotation(a: &SignalAnnotation) -> String {
    let dtype = a
        .dtype
        .as_ref()
        .map_or("-".to_string(), std::string::ToString::to_string);
    let range = a.range.map_or("-".to_string(), |r| {
        format!("[{},{}]", fmt_f64(r.lo), fmt_f64(r.hi))
    });
    let sigma = a.error_sigma.map_or("-".to_string(), fmt_f64);
    format!("{} dtype={dtype} range={range} sigma={sigma}", a.name)
}

/// The persisted outcome of one finished job (`results/<job>.json`).
///
/// Carries everything the bit-identity contract is judged by: the
/// decided types, the design's final annotations and the flow's full
/// event journal — so a job finished before a crash is comparable
/// after restart without re-running.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Job id.
    pub job: String,
    /// Owning tenant.
    pub tenant: String,
    /// `"complete"`, `"partial"` or `"failed"`.
    pub status: String,
    /// Partial/failure reason, if any.
    pub reason: Option<String>,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: usize,
    /// MSB iterations of the final (successful) attempt.
    pub msb_iterations: usize,
    /// LSB iterations of the final attempt.
    pub lsb_iterations: usize,
    /// Sweep coverage summary, for swept jobs.
    pub coverage: Option<String>,
    /// Decided types by signal name, sorted by name.
    pub types: Vec<(String, String)>,
    /// Final design annotations, rendered via [`render_annotation`].
    pub annotations: Vec<String>,
    /// The flow's event journal.
    pub journal: Vec<Event>,
}

impl JobResult {
    /// Serializes the result as one JSON object.
    pub fn to_json(&self) -> String {
        self.encode().to_string()
    }

    /// Decodes a result from its JSON text form.
    ///
    /// # Errors
    ///
    /// [`SpecError`] on malformed JSON or a malformed member.
    pub fn from_json(text: &str) -> Result<JobResult, SpecError> {
        Json::parse(text)
            .and_then(|v| JobResult::decode(&v))
            .map_err(|e| SpecError::new(format!("job result: {e}")))
    }
}

impl ToJson for JobResult {
    fn encode(&self) -> Json {
        Json::obj([
            ("job", self.job.encode()),
            ("tenant", self.tenant.encode()),
            ("status", self.status.encode()),
            ("reason", self.reason.encode()),
            ("attempts", self.attempts.encode()),
            ("msb_iterations", self.msb_iterations.encode()),
            ("lsb_iterations", self.lsb_iterations.encode()),
            ("coverage", self.coverage.encode()),
            ("types", self.types.encode()),
            ("annotations", self.annotations.encode()),
            ("journal", self.journal.encode()),
        ])
    }
}

impl FromJson for JobResult {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        Ok(JobResult {
            job: v.field("job")?,
            tenant: v.field("tenant")?,
            status: v.field("status")?,
            reason: v.opt_field("reason")?,
            attempts: v.field("attempts")?,
            msb_iterations: v.field("msb_iterations")?,
            lsb_iterations: v.field("lsb_iterations")?,
            coverage: v.opt_field("coverage")?,
            types: v.field("types")?,
            annotations: v.field("annotations")?,
            journal: v.field("journal")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_obs::Phase;

    #[test]
    fn job_results_round_trip() {
        let result = JobResult {
            job: "j-3".into(),
            tenant: "acme".into(),
            status: "partial".into(),
            reason: Some("cancelled after 1 simulation(s)".into()),
            attempts: 2,
            msb_iterations: 1,
            lsb_iterations: 0,
            coverage: Some("7 of 8 scenarios".into()),
            types: vec![("x".into(), "<7,5,tc,st,rd>".into())],
            annotations: vec!["x dtype=<7,5,tc,st,rd> range=[-1.5,1.5] sigma=-".into()],
            journal: vec![
                Event::IterationStarted {
                    phase: Phase::Msb,
                    iteration: 1,
                },
                Event::BudgetExhausted {
                    phase: Phase::Msb,
                    simulations: 1,
                    reason: "cancelled after 1 simulation(s)".into(),
                },
            ],
        };
        let back = JobResult::from_json(&result.to_json()).expect("parses");
        assert_eq!(back, result);
    }

    #[test]
    fn state_names_and_terminality() {
        assert_eq!(JobState::Queued.name(), "queued");
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Finished.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
    }
}
