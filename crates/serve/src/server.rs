//! The job server: admission, fair-share scheduling, crash-safe
//! execution and restart recovery.
//!
//! Life of a job: `submit` validates the spec against the design
//! registry and the queue limits, journals an `accepted` record to the
//! write-ahead jobs log (fsynced *before* the job exists anywhere
//! else), and enqueues it under its tenant. Workers pull jobs
//! round-robin across tenants (fair share: a tenant with 50 queued
//! jobs cannot starve a tenant with 1), run the refinement flow with
//! per-job checkpointing into the server's [`CheckpointStore`], and
//! journal a terminal record only after the result file is durably on
//! disk. Worker panics are caught at the job boundary and fed to the
//! retry policy; a retry resumes from the job's last checkpoint, so a
//! successful retry is bit-identical to an undisturbed run.
//!
//! Crash recovery: on [`Server::open`], the WAL replays into the set
//! of accepted jobs; every job without a terminal record is re-queued
//! (resuming from its checkpoint when one exists). Nothing about a
//! job's outcome lives only in memory, so `kill -9` at any instant —
//! mid-checkpoint included, thanks to atomic checkpoint writes —
//! loses no accepted job and duplicates none. A job's flow writes its
//! checkpoints from a writer thread and joins it before `run` returns,
//! so the result file, the WAL's terminal record and the checkpoint's
//! removal follow the last checkpoint write. A kill mid-flow
//! can find an older checkpoint than the last one the flow took (those
//! still queued are lost); the job then resumes from that one, just as
//! bit-identically, and only redoes more iterations.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use fixref_core::checkpoint::{safe_file_stem, write_file_atomic};
use fixref_core::{
    CheckpointStore, FaultMode, FaultPolicy, FlowError, FlowStatus, JobSpec, RefinePolicy,
    RefinementFlow, SweepDriver,
};
use fixref_obs::{DefaultRecorder, Event, MetricsReport, Recorder as _};
use fixref_sim::{Design, FaultPlan, RetryPolicy, SpecError};

use crate::job::{render_annotation, JobResult, JobState, JobStatus};
use crate::registry::DesignRegistry;
use crate::wal::{JobLog, WalRecord};

/// Lifecycle events the server's recorder keeps (the `events` command's
/// journal): the most recent ones, with `serve.events_dropped` counting
/// the older ones. Each job adds about three, so a server that runs for
/// days keeps a bounded journal; each job's flow journal is in its result
/// file, complete.
pub const LIFECYCLE_EVENTS: usize = 1024;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Data directory: holds `jobs.wal`, `checkpoints/` and
    /// `results/`.
    pub data_dir: PathBuf,
    /// Global queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Per-tenant queue capacity (admission fairness: one tenant
    /// cannot occupy the whole queue).
    pub tenant_queue_capacity: usize,
    /// Sweep worker threads per swept job.
    pub sweep_workers: usize,
    /// Job-level retry policy (attempts + deterministic jittered
    /// backoff) applied to panics and flow errors.
    pub retry: RetryPolicy,
    /// Injected faults (tests): shard panics/NaN bursts pass through
    /// to each job's sweep, and
    /// [`FaultPlan::server_crash_after_n_checkpoints`] kills the whole
    /// server abruptly.
    pub fault_plan: FaultPlan,
}

impl ServerConfig {
    /// A default configuration rooted at `data_dir`.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            data_dir: data_dir.into(),
            queue_capacity: 64,
            tenant_queue_capacity: 64,
            sweep_workers: 1,
            retry: RetryPolicy::default(),
            fault_plan: FaultPlan::default(),
        }
    }
}

/// Why a submission was turned away at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Human-readable reason, also journaled as a `job_rejected`
    /// event.
    pub reason: String,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rejected: {}", self.reason)
    }
}

impl std::error::Error for Rejection {}

/// Errors opening or operating the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serve error: {}", self.message)
    }
}

impl std::error::Error for ServeError {}

impl From<SpecError> for ServeError {
    fn from(e: SpecError) -> Self {
        ServeError {
            message: e.to_string(),
        }
    }
}

struct JobEntry {
    spec: JobSpec,
    state: JobState,
    attempts: usize,
    cancel: fixref_core::CancelToken,
    status: Option<String>,
    reason: Option<String>,
}

struct State {
    log: JobLog,
    next_seq: u64,
    jobs: BTreeMap<String, JobEntry>,
    /// Per-tenant FIFO queues, in first-appearance order.
    queues: Vec<(String, VecDeque<String>)>,
    /// Round-robin cursor over `queues`.
    rr: usize,
    queued_total: usize,
    running: usize,
    draining: bool,
    crashed: bool,
    /// Checkpoints written across all jobs since this server instance
    /// started (drives the injected server crash).
    checkpoints_written: usize,
}

impl State {
    fn enqueue(&mut self, tenant: &str, job: String) {
        match self.queues.iter_mut().find(|(t, _)| t == tenant) {
            Some((_, q)) => q.push_back(job),
            None => {
                self.queues
                    .push((tenant.to_string(), VecDeque::from([job])));
            }
        }
        self.queued_total += 1;
    }

    fn tenant_queued(&self, tenant: &str) -> usize {
        self.queues
            .iter()
            .find(|(t, _)| t == tenant)
            .map_or(0, |(_, q)| q.len())
    }

    /// Next job id, round-robin across tenants.
    fn next_job(&mut self) -> Option<String> {
        if self.queues.is_empty() {
            return None;
        }
        for probe in 0..self.queues.len() {
            let i = (self.rr + probe) % self.queues.len();
            if let Some(job) = self.queues[i].1.pop_front() {
                self.rr = (i + 1) % self.queues.len();
                self.queued_total -= 1;
                return Some(job);
            }
        }
        None
    }

    fn remove_queued(&mut self, job: &str) -> bool {
        for (_, q) in &mut self.queues {
            if let Some(pos) = q.iter().position(|j| j == job) {
                q.remove(pos);
                self.queued_total -= 1;
                return true;
            }
        }
        false
    }
}

/// The refinement job server. See the module docs for the life of a
/// job and the crash-recovery contract.
pub struct Server {
    config: ServerConfig,
    registry: DesignRegistry,
    recorder: Arc<DefaultRecorder>,
    store: CheckpointStore,
    results_dir: PathBuf,
    state: Mutex<State>,
    work: Condvar,
}

enum RunFailure {
    /// The flow (or a worker panic) failed with a cause; retryable.
    Failed(String),
    /// The injected server crash fired after the given checkpoint
    /// count of this run.
    ServerCrash(usize),
}

struct RunOutput {
    status: String,
    reason: Option<String>,
    msb_iterations: usize,
    lsb_iterations: usize,
    coverage: Option<String>,
    types: Vec<(String, String)>,
    annotations: Vec<String>,
    journal: Vec<Event>,
    checkpoints_this_run: usize,
}

impl Server {
    /// Opens the server over `config.data_dir` with the built-in
    /// design registry, replaying the jobs log and re-queueing every
    /// job that never reached a terminal record.
    ///
    /// # Errors
    ///
    /// [`ServeError`] for an unreadable or corrupt jobs log.
    pub fn open(config: ServerConfig) -> Result<Self, ServeError> {
        Self::open_with_registry(config, DesignRegistry::builtin())
    }

    /// [`Server::open`] with a caller-supplied design registry.
    ///
    /// # Errors
    ///
    /// [`ServeError`] for an unreadable or corrupt jobs log.
    pub fn open_with_registry(
        config: ServerConfig,
        registry: DesignRegistry,
    ) -> Result<Self, ServeError> {
        let wal_path = config.data_dir.join("jobs.wal");
        let (records, _torn) = JobLog::replay(&wal_path)?;
        let log = JobLog::open(&wal_path).map_err(|e| ServeError {
            message: format!("open jobs log: {e}"),
        })?;
        let store =
            CheckpointStore::open(config.data_dir.join("checkpoints")).map_err(|e| ServeError {
                message: format!("open checkpoint store: {e}"),
            })?;
        let results_dir = config.data_dir.join("results");
        std::fs::create_dir_all(&results_dir).map_err(|e| ServeError {
            message: format!("create results dir: {e}"),
        })?;

        let recorder = Arc::new(DefaultRecorder::with_event_limit(
            LIFECYCLE_EVENTS,
            "serve.events_dropped",
        ));
        let mut state = State {
            log,
            next_seq: 1,
            jobs: BTreeMap::new(),
            queues: Vec::new(),
            rr: 0,
            queued_total: 0,
            running: 0,
            draining: false,
            crashed: false,
            checkpoints_written: 0,
        };

        // Replay: acceptance order is recovery order.
        let mut order: Vec<String> = Vec::new();
        for record in records {
            match record {
                WalRecord::Accepted { seq, job, spec } => {
                    state.next_seq = state.next_seq.max(seq + 1);
                    order.push(job.clone());
                    state.jobs.insert(
                        job,
                        JobEntry {
                            spec: *spec,
                            state: JobState::Queued,
                            attempts: 0,
                            cancel: fixref_core::CancelToken::new(),
                            status: None,
                            reason: None,
                        },
                    );
                }
                WalRecord::Started { job, attempt } => {
                    if let Some(e) = state.jobs.get_mut(&job) {
                        e.attempts = e.attempts.max(attempt + 1);
                    }
                }
                WalRecord::Completed { job, status } => {
                    if let Some(e) = state.jobs.get_mut(&job) {
                        e.state = JobState::Finished;
                        e.status = Some(status);
                    }
                }
                WalRecord::Cancelled { job } => {
                    if let Some(e) = state.jobs.get_mut(&job) {
                        e.state = JobState::Cancelled;
                    }
                }
            }
        }
        let server = Server {
            results_dir,
            state: Mutex::new(state),
            work: Condvar::new(),
            registry,
            recorder,
            store,
            config,
        };
        {
            let mut st = server.lock();
            for job in order {
                let (tenant, recover) = match st.jobs.get(&job) {
                    Some(e) if !e.state.is_terminal() => (e.spec.tenant.clone(), true),
                    // A finished job's result file holds its status.
                    Some(e)
                        if e.state == JobState::Finished && server.result_path(&job).exists() =>
                    {
                        st.jobs.remove(&job);
                        continue;
                    }
                    _ => (String::new(), false),
                };
                if recover {
                    st.enqueue(&tenant, job.clone());
                    server.recorder.inc("serve.recovered", 1);
                    server.recorder.record_event(Event::JobRecovered {
                        job: job.clone(),
                        tenant,
                        from_checkpoint: server.store.contains(&job),
                    });
                }
            }
        }
        Ok(server)
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The server's metrics recorder (lifecycle events + `serve.*`
    /// counters).
    pub fn recorder(&self) -> &Arc<DefaultRecorder> {
        &self.recorder
    }

    /// Renders the current metrics report.
    pub fn metrics(&self) -> MetricsReport {
        MetricsReport::from_recorder("serve", &self.recorder)
    }

    /// Whether the injected server crash has fired: the server refuses
    /// all further work and must be re-opened (fresh [`Server::open`]
    /// over the same data dir) to recover.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Total queued jobs (all tenants).
    pub fn queue_depth(&self) -> usize {
        self.lock().queued_total
    }

    fn reject(&self, tenant: &str, reason: String) -> Rejection {
        self.recorder.inc("serve.rejected", 1);
        self.recorder.record_event(Event::JobRejected {
            tenant: tenant.to_string(),
            reason: reason.clone(),
        });
        Rejection { reason }
    }

    /// Submits a job. Admission control runs here: unknown design
    /// kinds, full queues and tenant quota violations are rejected
    /// with a reason instead of queued — the queue is bounded and the
    /// server never buffers unbounded work.
    ///
    /// # Errors
    ///
    /// [`Rejection`] naming the admission failure.
    pub fn submit(&self, spec: JobSpec) -> Result<String, Rejection> {
        // Validate the design spec against the registry before taking
        // queue space: a job that can never build is rejected at the
        // door, not failed an hour later.
        if let Err(e) = self.registry.build(&spec.design) {
            return Err(self.reject(&spec.tenant, e.to_string()));
        }
        if let Err(e) = spec.flow.check_backend() {
            return Err(self.reject(&spec.tenant, e.to_string()));
        }
        let mut st = self.lock();
        if st.crashed {
            return Err(self.reject(&spec.tenant, "server crashed".into()));
        }
        if st.draining {
            return Err(self.reject(&spec.tenant, "server is draining".into()));
        }
        if st.queued_total >= self.config.queue_capacity {
            return Err(self.reject(
                &spec.tenant,
                format!("queue full (capacity {})", self.config.queue_capacity),
            ));
        }
        if st.tenant_queued(&spec.tenant) >= self.config.tenant_queue_capacity {
            return Err(self.reject(
                &spec.tenant,
                format!(
                    "tenant quota exceeded (capacity {})",
                    self.config.tenant_queue_capacity
                ),
            ));
        }
        let seq = st.next_seq;
        let job = format!("j-{seq}");
        // Write-ahead: the job is durable before it is visible.
        if let Err(e) = st.log.append(&WalRecord::Accepted {
            seq,
            job: job.clone(),
            spec: Box::new(spec.clone()),
        }) {
            return Err(self.reject(&spec.tenant, format!("jobs log write failed: {e}")));
        }
        st.next_seq = seq + 1;
        let tenant = spec.tenant.clone();
        st.jobs.insert(
            job.clone(),
            JobEntry {
                spec,
                state: JobState::Queued,
                attempts: 0,
                cancel: fixref_core::CancelToken::new(),
                status: None,
                reason: None,
            },
        );
        st.enqueue(&tenant, job.clone());
        let depth = st.queued_total;
        drop(st);
        self.recorder.inc("serve.accepted", 1);
        self.recorder.observe("serve.queue_depth", depth as f64);
        self.recorder.record_event(Event::JobAccepted {
            job: job.clone(),
            tenant,
            queue_depth: depth,
        });
        self.work.notify_one();
        Ok(job)
    }

    /// Point-in-time status of a job.
    pub fn status(&self, job: &str) -> Option<JobStatus> {
        let st = self.lock();
        let Some(e) = st.jobs.get(job) else {
            drop(st);
            // A finished job keeps no entry once its result file exists.
            return self.result(job).map(|r| JobStatus {
                job: job.to_string(),
                tenant: r.tenant,
                state: JobState::Finished,
                attempts: r.attempts,
                status: Some(r.status),
                reason: r.reason,
            });
        };
        Some(JobStatus {
            job: job.to_string(),
            tenant: e.spec.tenant.clone(),
            state: e.state,
            attempts: e.attempts,
            status: e.status.clone(),
            reason: e.reason.clone(),
        })
    }

    /// The persisted result of a finished job.
    pub fn result(&self, job: &str) -> Option<JobResult> {
        let text = std::fs::read_to_string(self.result_path(job)).ok()?;
        JobResult::from_json(&text).ok()
    }

    /// The flow journal of a finished job (empty until then).
    pub fn journal(&self, job: &str) -> Vec<Event> {
        self.result(job).map(|r| r.journal).unwrap_or_default()
    }

    /// Cancels a job. A queued job is removed and journaled as
    /// cancelled; a running job gets its [`fixref_core::CancelToken`]
    /// fired and finishes as `"partial"` through the exact same
    /// best-so-far path as budget exhaustion. Returns `false` for
    /// unknown or already-terminal jobs.
    pub fn cancel(&self, job: &str) -> bool {
        let mut st = self.lock();
        let Some(e) = st.jobs.get(job) else {
            return false;
        };
        match e.state {
            JobState::Queued => {
                if st
                    .log
                    .append(&WalRecord::Cancelled { job: job.into() })
                    .is_err()
                {
                    return false;
                }
                st.remove_queued(job);
                if let Some(e) = st.jobs.get_mut(job) {
                    e.state = JobState::Cancelled;
                }
                drop(st);
                self.recorder.inc("serve.cancelled", 1);
                true
            }
            JobState::Running => {
                e.cancel.cancel();
                drop(st);
                self.recorder.inc("serve.cancelled", 1);
                true
            }
            JobState::Finished | JobState::Cancelled => false,
        }
    }

    /// Stops admission and processes the queue to empty on the calling
    /// thread — the graceful-drain path (the `shutdown` protocol
    /// command and the binary's signal-free exit both land here).
    pub fn drain(&self) {
        self.lock().draining = true;
        self.work.notify_all();
        self.run_until_idle();
    }

    /// Runs queued jobs on the calling thread until the queue is empty
    /// (or the injected server crash fires). Returns the number of
    /// jobs executed.
    pub fn run_until_idle(&self) -> usize {
        let mut ran = 0;
        loop {
            let next = {
                let mut st = self.lock();
                if st.crashed {
                    return ran;
                }
                st.next_job()
            };
            match next {
                Some(job) => {
                    self.execute(&job);
                    ran += 1;
                }
                None => return ran,
            }
        }
    }

    /// Worker loop for background threads: blocks for work, executes
    /// jobs, and returns when the server is draining with an empty
    /// queue (or crashed).
    pub fn worker_loop(&self) {
        loop {
            let next = {
                let mut st = self.lock();
                loop {
                    if st.crashed || (st.draining && st.queued_total == 0) {
                        return;
                    }
                    match st.next_job() {
                        Some(job) => break Some(job),
                        None => {
                            let (guard, _timeout) = self
                                .work
                                .wait_timeout(st, std::time::Duration::from_millis(50))
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                            st = guard;
                        }
                    }
                }
            };
            if let Some(job) = next {
                self.execute(&job);
            }
        }
    }

    fn result_path(&self, job: &str) -> PathBuf {
        self.results_dir
            .join(format!("{}.json", safe_file_stem(job)))
    }

    /// Runs one job to a terminal state (or the injected server
    /// crash), with catch_unwind isolation and checkpoint-resuming
    /// retries.
    fn execute(&self, job: &str) {
        let (spec, cancel, mut attempt) = {
            let mut st = self.lock();
            let Some(e) = st.jobs.get_mut(job) else {
                return;
            };
            if e.state != JobState::Queued {
                return;
            }
            e.state = JobState::Running;
            st.running += 1;
            match st.jobs.get(job) {
                Some(e) => (e.spec.clone(), e.cancel.clone(), e.attempts),
                None => return,
            }
        };
        let checkpoint_path = self.store.path_of(job);

        loop {
            // Journal the attempt before running it.
            {
                let mut st = self.lock();
                if st
                    .log
                    .append(&WalRecord::Started {
                        job: job.into(),
                        attempt,
                    })
                    .is_err()
                {
                    // The log is the source of truth; without it the
                    // attempt must not run. Leave the job queued for a
                    // healthier server life.
                    st.running -= 1;
                    if let Some(e) = st.jobs.get_mut(job) {
                        e.state = JobState::Queued;
                    }
                    let tenant = spec.tenant.clone();
                    st.enqueue(&tenant, job.into());
                    return;
                }
                if let Some(e) = st.jobs.get_mut(job) {
                    e.attempts = attempt + 1;
                }
            }
            self.recorder.inc("serve.started", 1);
            self.recorder.record_event(Event::JobStarted {
                job: job.into(),
                tenant: spec.tenant.clone(),
                attempt,
            });

            // Arm the injected server crash: how many more checkpoint
            // writes this server life is allowed before dying.
            let crash_remaining = {
                let st = self.lock();
                self.config
                    .fault_plan
                    .server_crash_checkpoints()
                    .map(|n| n.saturating_sub(st.checkpoints_written))
            };
            if crash_remaining == Some(0) {
                self.crash_now(job);
                return;
            }

            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.run_once(&spec, &checkpoint_path, &cancel, crash_remaining)
            }))
            .unwrap_or_else(|payload| {
                let cause = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "worker panicked".into());
                Err(RunFailure::Failed(format!("panicked: {cause}")))
            });

            match outcome {
                Ok(out) => {
                    self.lock().checkpoints_written += out.checkpoints_this_run;
                    self.finish(job, &spec, attempt + 1, out);
                    return;
                }
                Err(RunFailure::ServerCrash(written)) => {
                    self.lock().checkpoints_written += written;
                    self.crash_now(job);
                    return;
                }
                Err(RunFailure::Failed(cause)) => {
                    attempt += 1;
                    if attempt < self.config.retry.max_attempts {
                        let backoff_ms = self.config.retry.backoff_ms(attempt);
                        self.recorder.inc("serve.retried", 1);
                        self.recorder.record_event(Event::JobRetried {
                            job: job.into(),
                            attempt,
                            backoff_ms,
                        });
                        if backoff_ms > 0 {
                            std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                        }
                        continue;
                    }
                    let out = RunOutput {
                        status: "failed".into(),
                        reason: Some(cause),
                        msb_iterations: 0,
                        lsb_iterations: 0,
                        coverage: None,
                        types: Vec::new(),
                        annotations: Vec::new(),
                        journal: Vec::new(),
                        checkpoints_this_run: 0,
                    };
                    self.finish(job, &spec, attempt, out);
                    return;
                }
            }
        }
    }

    /// Marks the server crashed — the deterministic stand-in for
    /// `kill -9`: no terminal records, no drain, the in-flight job is
    /// simply abandoned where its last fsync left it.
    fn crash_now(&self, _job: &str) {
        let mut st = self.lock();
        st.crashed = true;
        drop(st);
        self.recorder.inc("serve.crash_injected", 1);
        self.work.notify_all();
    }

    fn run_once(
        &self,
        spec: &JobSpec,
        checkpoint_path: &Path,
        cancel: &fixref_core::CancelToken,
        crash_remaining: Option<usize>,
    ) -> Result<RunOutput, RunFailure> {
        let flow_spec = &spec.flow;
        let builder = self
            .registry
            .build(&spec.design)
            .map_err(|e| RunFailure::Failed(e.to_string()))?;
        let first = &spec.scenarios.as_slice()[0];
        let shard = builder(first);
        let design = shard.design;
        let mut stimulus = shard.stimulus;

        // Fresh run or checkpoint resume?
        let resumed = checkpoint_path.exists();
        let (mut flow, start_seq) = if resumed {
            let cp = fixref_core::Checkpoint::read(checkpoint_path)
                .map_err(|e| RunFailure::Failed(format!("checkpoint: {e}")))?;
            let start_seq = cp.next_sequence;
            let flow = RefinementFlow::resume_from_checkpoint(
                design.clone(),
                RefinePolicy::default(),
                &cp,
            )
            .map_err(|e| RunFailure::Failed(format!("checkpoint resume: {e}")))?;
            (flow, start_seq)
        } else {
            let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
            // Knowledge-based hints only seed a fresh flow; a resumed
            // one restores them from the checkpoint.
            for name in &flow_spec.force_saturate {
                let id = design.find(name).ok_or_else(|| {
                    RunFailure::Failed(format!("force_saturate: unknown signal {name:?}"))
                })?;
                flow.force_saturate(id);
            }
            (flow, 0)
        };
        flow.checkpoint_to(checkpoint_path.to_path_buf());
        flow_spec
            .configure(&mut flow)
            .map_err(|e| RunFailure::Failed(e.to_string()))?;
        flow.set_cancel_token(cancel.clone());

        let mut plan = self.config.fault_plan.clone();
        let crash_abort = crash_remaining.map(|remaining| start_seq + remaining - 1);
        if let Some(seq) = crash_abort {
            plan = plan.abort_after_checkpoint(seq);
        }
        flow.set_fault_plan(plan.clone());

        let run = if flow_spec.shards == 0 {
            if flow_spec.cache {
                flow.enable_cache();
            }
            flow.run(move |d: &Design, i: usize| stimulus(d, i))
        } else {
            let sweep_builder = self
                .registry
                .build(&spec.design)
                .map_err(|e| RunFailure::Failed(e.to_string()))?;
            let workers = self
                .config
                .sweep_workers
                .max(1)
                .min(flow_spec.shards.max(1));
            let mut driver = SweepDriver::new(spec.scenarios.clone(), workers, sweep_builder);
            driver.set_fault_policy(FaultPolicy {
                mode: FaultMode::Strict,
                max_attempts: flow_spec.max_attempts,
            });
            driver.inject_faults(plan);
            if flow_spec.cache {
                driver.enable_cache();
            }
            flow.run_swept(&mut driver)
        };

        let journal = flow.journal();
        let last_seq = journal
            .iter()
            .filter_map(|e| match e {
                Event::CheckpointWritten { sequence, .. } => Some(*sequence),
                _ => None,
            })
            .max();
        let checkpoints_this_run = last_seq.map_or(0, |s| (s + 1).saturating_sub(start_seq));

        match run {
            Ok(outcome) => {
                let (status, reason) = match &outcome.status {
                    FlowStatus::Complete => ("complete".to_string(), None),
                    FlowStatus::Partial { reason } => ("partial".to_string(), Some(reason.clone())),
                };
                let mut types: Vec<(String, String)> = outcome
                    .types
                    .iter()
                    .map(|(id, t)| (design.name_of(*id), t.to_string()))
                    .collect();
                types.sort();
                Ok(RunOutput {
                    status,
                    reason,
                    msb_iterations: outcome.msb_iterations,
                    lsb_iterations: outcome.lsb_iterations,
                    coverage: outcome.coverage.as_ref().map(|c| c.summary()),
                    types,
                    annotations: design.annotations().iter().map(render_annotation).collect(),
                    journal,
                    checkpoints_this_run,
                })
            }
            Err(FlowError::Interrupted { checkpoint }) if crash_abort == Some(checkpoint) => {
                Err(RunFailure::ServerCrash(checkpoints_this_run))
            }
            Err(e) => Err(RunFailure::Failed(e.to_string())),
        }
    }

    /// Persists the result (atomically and durably), journals the
    /// terminal record, and retires the job's checkpoint.
    fn finish(&self, job: &str, spec: &JobSpec, attempts: usize, out: RunOutput) {
        let result = JobResult {
            job: job.into(),
            tenant: spec.tenant.clone(),
            status: out.status.clone(),
            reason: out.reason.clone(),
            attempts,
            msb_iterations: out.msb_iterations,
            lsb_iterations: out.lsb_iterations,
            coverage: out.coverage,
            types: out.types,
            annotations: out.annotations,
            journal: out.journal,
        };
        // Result before terminal record, durably: a crash between the
        // two re-runs the job (idempotent), never loses the record of it.
        let written =
            write_file_atomic(&self.result_path(job), result.to_json().as_bytes()).is_ok();

        let mut st = self.lock();
        st.running -= 1;
        if written {
            let _ = st.log.append(&WalRecord::Completed {
                job: job.into(),
                status: out.status.clone(),
            });
            // The result file answers `status` from here on: the
            // server's memory stays flat in the jobs it has served.
            st.jobs.remove(job);
        } else if let Some(e) = st.jobs.get_mut(job) {
            e.state = JobState::Finished;
            e.status = Some(out.status.clone());
            e.reason = out.reason;
        }
        drop(st);
        let _ = self.store.remove(job);
        self.recorder.inc("serve.completed", 1);
        self.recorder
            .inc(&format!("serve.status.{}", out.status), 1);
        self.recorder.record_event(Event::JobCompleted {
            job: job.into(),
            status: out.status,
            attempts,
        });
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("data_dir", &self.config.data_dir)
            .field("registry", &self.registry)
            .finish_non_exhaustive()
    }
}
