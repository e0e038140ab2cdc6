//! Crash-recovery and robustness suite for the refinement job server.
//!
//! The contract under test is the server's reason for existing: a job
//! accepted before a crash is neither lost nor duplicated, and a job
//! recovered after a restart finishes **bit-identically** to the same
//! job run on a server that never crashed — same final status, same
//! decided types, same annotations, same event journal (modulo the
//! leading `resumed_from_checkpoint` marker). Crashes are injected
//! deterministically via [`FaultPlan::server_crash_after_n_checkpoints`],
//! the stand-in for `kill -9` that stops the server abruptly with no
//! terminal journal records and no drain.

use fixref::obs::Event;
use fixref::refine::{FlowSpec, JobSpec};
use fixref::serve::{JobResult, JobState, Server, ServerConfig};
use fixref::sim::{DesignSpec, FaultPlan, RetryPolicy, ScenarioSet};

fn data_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fixref_serve_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn lms_job(tenant: &str, flow: FlowSpec) -> JobSpec {
    JobSpec::new(
        tenant,
        DesignSpec::new("lms").with_input_dtype("<7,5,tc,st,rd>"),
        ScenarioSet::single(7, 28.0, 120),
    )
    .with_flow(flow)
}

fn timing_job(tenant: &str, flow: FlowSpec) -> JobSpec {
    JobSpec::new(
        tenant,
        DesignSpec::new("timing"),
        ScenarioSet::single(3, 20.0, 160),
    )
    .with_flow(flow)
}

fn swept_lms_job(tenant: &str, cache: bool) -> JobSpec {
    JobSpec::new(
        tenant,
        DesignSpec::new("lms").with_input_dtype("<7,5,tc,st,rd>"),
        ScenarioSet::grid(&[7, 11], &[28.0], &[], &[120]),
    )
    .with_flow(FlowSpec {
        shards: 2,
        cache,
        max_attempts: 2,
        ..FlowSpec::default()
    })
}

/// The bit-identity projection of a result: everything except attempt
/// counts (a recovered job legitimately consumed more attempts) and the
/// leading resume marker in the journal.
fn comparable(result: &JobResult) -> JobResult {
    let mut projected = result.clone();
    projected.attempts = 0;
    projected
        .journal
        .retain(|e| !matches!(e, Event::ResumedFromCheckpoint { .. }));
    projected
}

/// Runs `specs` on a fresh, fault-free server and returns the results.
fn baseline(name: &str, specs: &[JobSpec]) -> Vec<JobResult> {
    let server = Server::open(ServerConfig::new(data_dir(name))).expect("opens");
    let jobs: Vec<String> = specs
        .iter()
        .map(|s| server.submit(s.clone()).expect("accepted"))
        .collect();
    server.run_until_idle();
    jobs.iter()
        .map(|j| server.result(j).expect("has result"))
        .collect()
}

/// Submits `specs`, lets the injected server crash kill the first life
/// mid-job, restarts over the same data dir, finishes the queue, and
/// returns the results (in submission order).
fn crash_and_recover(name: &str, specs: &[JobSpec], crash_after: usize) -> Vec<JobResult> {
    let dir = data_dir(name);
    let mut config = ServerConfig::new(&dir);
    config.fault_plan = FaultPlan::seeded(0xC0A5).server_crash_after_n_checkpoints(crash_after);
    let server = Server::open(config).expect("opens");
    let jobs: Vec<String> = specs
        .iter()
        .map(|s| server.submit(s.clone()).expect("accepted"))
        .collect();
    server.run_until_idle();
    assert!(server.crashed(), "the injected crash must fire");
    assert!(
        server.queue_depth() >= 1,
        "the crash must leave work queued (crash_after too large?)"
    );
    // No drain, no shutdown: the crashed server is simply dropped, the
    // way kill -9 leaves things.
    drop(server);

    let server = Server::open(ServerConfig::new(&dir)).expect("re-opens");
    assert_eq!(
        server.queue_depth(),
        specs.len(),
        "every non-terminal job must be re-queued on restart"
    );
    let recovered_with_checkpoint = server
        .recorder()
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::JobRecovered {
                    from_checkpoint: true,
                    ..
                }
            )
        })
        .count();
    assert!(
        recovered_with_checkpoint >= 1,
        "the job killed mid-run must recover from its checkpoint"
    );
    server.run_until_idle();
    assert!(!server.crashed());
    jobs.iter()
        .map(|j| server.result(j).expect("has result after recovery"))
        .collect()
}

#[test]
fn sequential_jobs_recover_bit_identically_after_server_crash() {
    let specs = vec![
        lms_job("acme", FlowSpec::default()),
        lms_job(
            "acme",
            FlowSpec {
                backend: "compiled".into(),
                cache: true,
                ..FlowSpec::default()
            },
        ),
        timing_job("globex", FlowSpec::default()),
    ];
    // The first LMS job writes 3 checkpoints; crashing after 2 kills the
    // server mid-job-1 with jobs 2 and 3 still queued.
    let undisturbed = baseline("seq_baseline", &specs);
    let recovered = crash_and_recover("seq_crash", &specs, 2);
    assert_eq!(undisturbed.len(), recovered.len());
    for (u, r) in undisturbed.iter().zip(&recovered) {
        assert_eq!(u.status, "complete", "baseline must converge");
        assert_eq!(comparable(u), comparable(r), "job {}", u.job);
    }
    // The interrupted job really did resume rather than restart.
    assert!(recovered[0]
        .journal
        .iter()
        .any(|e| matches!(e, Event::ResumedFromCheckpoint { .. })));
}

#[test]
fn swept_jobs_recover_bit_identically_after_server_crash() {
    for cache in [false, true] {
        let specs = vec![swept_lms_job("acme", cache), swept_lms_job("globex", cache)];
        let name_base = format!("swept_baseline_{cache}");
        let name_crash = format!("swept_crash_{cache}");
        let undisturbed = baseline(&name_base, &specs);
        let recovered = crash_and_recover(&name_crash, &specs, 2);
        for (u, r) in undisturbed.iter().zip(&recovered) {
            assert_eq!(u.status, "complete");
            assert_eq!(
                u.coverage.as_deref(),
                Some("2 of 2 scenarios"),
                "swept baseline covers the grid"
            );
            assert_eq!(comparable(u), comparable(r), "job {} cache={cache}", u.job);
        }
    }
}

#[test]
fn admission_control_rejects_instead_of_buffering() {
    let mut config = ServerConfig::new(data_dir("admission"));
    config.queue_capacity = 2;
    config.tenant_queue_capacity = 1;
    let server = Server::open(config).expect("opens");

    // Structural rejections: unknown design kind, bad parameters, bad
    // backend — all refused at the door with a reason.
    let unknown = server
        .submit(JobSpec::new(
            "acme",
            DesignSpec::new("fft"),
            ScenarioSet::single(1, 20.0, 50),
        ))
        .expect_err("unknown kind");
    assert!(unknown.reason.contains("fft"), "{unknown}");
    let bad_backend = server
        .submit(lms_job(
            "acme",
            FlowSpec {
                backend: "quantum".into(),
                ..FlowSpec::default()
            },
        ))
        .expect_err("unknown backend");
    assert!(bad_backend.reason.contains("quantum"), "{bad_backend}");

    // Capacity rejections: per-tenant quota first, then the global cap.
    server
        .submit(lms_job("acme", FlowSpec::default()))
        .expect("fits");
    let quota = server
        .submit(lms_job("acme", FlowSpec::default()))
        .expect_err("tenant quota");
    assert!(quota.reason.contains("tenant quota"), "{quota}");
    server
        .submit(lms_job("globex", FlowSpec::default()))
        .expect("fits");
    let full = server
        .submit(lms_job("initech", FlowSpec::default()))
        .expect_err("queue full");
    assert!(full.reason.contains("queue full"), "{full}");

    // Rejections never occupied queue space; the accepted jobs finish.
    assert_eq!(server.queue_depth(), 2);
    assert_eq!(server.run_until_idle(), 2);
    let metrics = server.metrics().render_text();
    assert!(metrics.contains("serve.rejected"), "{metrics}");
    assert!(
        server
            .recorder()
            .events()
            .iter()
            .filter(|e| matches!(e, Event::JobRejected { .. }))
            .count()
            >= 4
    );
}

#[test]
fn cancelled_queued_jobs_stay_cancelled_across_restart() {
    let dir = data_dir("cancel_queued");
    let server = Server::open(ServerConfig::new(&dir)).expect("opens");
    let keep = server
        .submit(lms_job("acme", FlowSpec::default()))
        .expect("ok");
    let drop_job = server
        .submit(lms_job("globex", FlowSpec::default()))
        .expect("ok");
    assert!(server.cancel(&drop_job), "queued job cancels");
    assert!(!server.cancel(&drop_job), "second cancel is a no-op");
    assert_eq!(server.queue_depth(), 1);
    drop(server); // no drain: restart must honour the journaled cancel

    let server = Server::open(ServerConfig::new(&dir)).expect("re-opens");
    assert_eq!(
        server.queue_depth(),
        1,
        "cancelled job must not be re-queued"
    );
    server.run_until_idle();
    assert_eq!(
        server.status(&keep).expect("known").state,
        JobState::Finished
    );
    let cancelled = server.status(&drop_job).expect("known");
    assert_eq!(cancelled.state, JobState::Cancelled);
    assert!(
        server.result(&drop_job).is_none(),
        "no result for a cancelled job"
    );
}

#[test]
fn cancelling_a_running_job_yields_best_so_far_partial() {
    let dir = data_dir("cancel_running");
    let server = std::sync::Arc::new(Server::open(ServerConfig::new(&dir)).expect("opens"));
    // A deliberately long job: a wide swept grid keeps the flow busy
    // well past the cancellation window.
    let job = server
        .submit(
            JobSpec::new(
                "acme",
                DesignSpec::new("timing"),
                ScenarioSet::grid(&[3, 5, 9, 13], &[20.0, 14.0], &[], &[4000]),
            )
            .with_flow(FlowSpec {
                shards: 2,
                ..FlowSpec::default()
            }),
        )
        .expect("accepted");
    let worker = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || server.run_until_idle())
    };
    // Wait for the job to leave the queue, then cancel it mid-run.
    loop {
        let state = server.status(&job).expect("known").state;
        if state == JobState::Running {
            break;
        }
        assert!(
            !state.is_terminal(),
            "job finished before it could be cancelled"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(server.cancel(&job), "running job accepts cancellation");
    worker.join().expect("worker");
    let result = server.result(&job).expect("terminal result exists");
    assert_eq!(result.status, "partial", "reason: {:?}", result.reason);
    let reason = result.reason.expect("partial carries a reason");
    assert!(reason.contains("cancelled"), "{reason}");
    // Cancellation rode the budget-exhaustion path: the journal carries
    // the same best-so-far marker a budget-capped run would.
    assert!(result
        .journal
        .iter()
        .any(|e| matches!(e, Event::BudgetExhausted { .. })));
}

#[test]
fn soak_100_jobs_with_faults_loses_and_duplicates_nothing() {
    let dir = data_dir("soak");
    let tenants = ["acme", "globex", "initech", "umbrella"];
    let specs: Vec<JobSpec> = (0..100)
        .map(|i| {
            let tenant = tenants[i % tenants.len()];
            if i % 5 == 4 {
                // Every fifth job is swept, with a shard panic injected
                // on the first attempt and retried deterministically.
                swept_lms_job(tenant, i % 2 == 0)
            } else {
                lms_job(
                    tenant,
                    FlowSpec {
                        cache: i % 3 == 0,
                        ..FlowSpec::default()
                    },
                )
            }
        })
        .collect();

    // Life 1: shard panics on every swept job's first attempt, and the
    // whole server dies after 150 checkpoints (~mid-soak).
    let mut config = ServerConfig::new(&dir);
    config.queue_capacity = 128;
    config.tenant_queue_capacity = 128;
    config.retry = RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    };
    config.fault_plan = FaultPlan::seeded(0x50AC)
        .panic_on(0, 0)
        .server_crash_after_n_checkpoints(150);
    let server = Server::open(config.clone()).expect("opens");
    let jobs: Vec<String> = specs
        .iter()
        .map(|s| server.submit(s.clone()).expect("accepted"))
        .collect();
    assert_eq!(jobs.len(), 100);
    let finished_before_crash = server.run_until_idle();
    assert!(server.crashed(), "the injected crash must fire mid-soak");
    assert!(finished_before_crash < 100, "crash must interrupt the soak");
    drop(server);

    // Life 2: same faults minus the crash; the soak runs to completion.
    config.fault_plan = FaultPlan::seeded(0x50AC).panic_on(0, 0);
    let server = Server::open(config).expect("re-opens");
    server.run_until_idle();
    assert_eq!(server.queue_depth(), 0);

    // Zero lost: every accepted job is finished with a persisted result.
    let mut seen = std::collections::BTreeSet::new();
    for job in &jobs {
        let status = server.status(job).expect("known job");
        assert_eq!(status.state, JobState::Finished, "job {job}");
        let result = server.result(job).expect("result on disk");
        assert_eq!(result.status, "complete", "job {job}: {:?}", result.reason);
        assert!(seen.insert(result.job.clone()), "duplicate result {job}");
    }
    // Zero duplicated: the write-ahead log carries exactly one accepted
    // and one completed record per job, across both server lives.
    let (records, _torn) = fixref::serve::JobLog::replay(dir.join("jobs.wal")).expect("replays");
    let mut accepted = std::collections::BTreeMap::new();
    let mut completed = std::collections::BTreeMap::new();
    for r in &records {
        match r {
            fixref::serve::WalRecord::Accepted { job, .. } => {
                *accepted.entry(job.clone()).or_insert(0u32) += 1;
            }
            fixref::serve::WalRecord::Completed { job, .. } => {
                *completed.entry(job.clone()).or_insert(0u32) += 1;
            }
            _ => {}
        }
    }
    assert_eq!(accepted.len(), 100);
    assert_eq!(completed.len(), 100);
    assert!(accepted.values().all(|&n| n == 1), "duplicated acceptance");
    assert!(completed.values().all(|&n| n == 1), "duplicated completion");
}

#[test]
fn finished_jobs_answer_status_from_their_results_and_the_journal_stays_bounded() {
    use fixref::serve::LIFECYCLE_EVENTS;

    let dir = data_dir("bounded_history");
    let server = Server::open(ServerConfig::new(&dir)).expect("opens");
    // Accepted, started and completed: three lifecycle events per job.
    let total = LIFECYCLE_EVENTS / 3 + 20;
    let tenants = ["t0", "t1", "t2", "t3"];
    let spec = |i: usize| {
        // Every fifth job runs out of simulation budget: partial, with a
        // reason.
        let flow = FlowSpec {
            max_simulations: i.is_multiple_of(5).then_some(1),
            ..FlowSpec::default()
        };
        JobSpec::new(
            tenants[i % tenants.len()],
            DesignSpec::new("lms").with_input_dtype("<7,5,tc,st,rd>"),
            ScenarioSet::single(7 + i as u64, 28.0, 24),
        )
        .with_flow(flow)
    };
    let cancelled = server.submit(spec(1)).expect("accepted");
    assert!(server.cancel(&cancelled));
    let mut jobs = Vec::new();
    while jobs.len() < total {
        for _ in 0..32.min(total - jobs.len()) {
            jobs.push(server.submit(spec(jobs.len())).expect("accepted"));
        }
        server.run_until_idle();
    }
    let expected: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let status = server.status(job).expect("known job");
            assert_eq!(status.state, JobState::Finished, "{job}");
            assert_eq!(status.tenant, tenants[i % tenants.len()], "{job}");
            assert_eq!(status.attempts, 1, "{job}");
            let partial = i.is_multiple_of(5);
            let want = if partial { "partial" } else { "complete" };
            assert_eq!(status.status.as_deref(), Some(want), "{job}");
            assert_eq!(status.reason.is_some(), partial, "{job}");
            status
        })
        .collect();
    assert_eq!(
        server.status(&cancelled).expect("kept").state,
        JobState::Cancelled
    );

    // The lifecycle journal keeps the most recent events only.
    let events = server.recorder().events();
    assert_eq!(events.len(), LIFECYCLE_EVENTS);
    assert!(matches!(events.last(), Some(Event::JobCompleted { .. })));
    let recorded = 3 * total + 1;
    assert_eq!(
        server.recorder().counter("serve.events_dropped"),
        (recorded - LIFECYCLE_EVENTS) as u64
    );

    // A restarted server answers the same from the result files.
    drop(server);
    let server = Server::open(ServerConfig::new(&dir)).expect("re-opens");
    assert_eq!(server.queue_depth(), 0);
    for (job, before) in jobs.iter().zip(&expected) {
        let after = server.status(job).expect("known job");
        assert_eq!(after.tenant, before.tenant, "{job}");
        assert_eq!(after.state, before.state, "{job}");
        assert_eq!(after.attempts, before.attempts, "{job}");
        assert_eq!(after.status, before.status, "{job}");
        assert_eq!(after.reason, before.reason, "{job}");
    }
    assert_eq!(
        server.status(&cancelled).expect("kept").state,
        JobState::Cancelled
    );
    assert!(server.status("j-999999").is_none());
}

#[test]
fn a_torn_or_unterminated_wal_tail_is_repaired_before_the_next_life_appends() {
    let wal = |dir: &std::path::Path| dir.join("jobs.wal");
    // The two ways a crash mid-append can end the log: a record cut off
    // mid-write, and a complete record whose newline never made it.
    let torn = |path: &std::path::Path| {
        let mut text = std::fs::read_to_string(path).expect("reads the log");
        text.push_str(r#"{"wal":"started","job":"j-9","att"#);
        std::fs::write(path, text).expect("tears the log");
    };
    let unterminated = |path: &std::path::Path| {
        let text = std::fs::read_to_string(path).expect("reads the log");
        let text = text.strip_suffix('\n').expect("newline-terminated");
        std::fs::write(path, text).expect("drops the newline");
    };
    for (name, crash) in [
        ("wal_torn_tail", &torn as &dyn Fn(&std::path::Path)),
        ("wal_unterminated_tail", &unterminated),
    ] {
        let dir = data_dir(name);

        // Life 1 finishes j-1, then dies mid-append.
        let server = Server::open(ServerConfig::new(&dir)).expect("life 1 opens");
        let first = server
            .submit(lms_job("acme", FlowSpec::default()))
            .expect("accepted");
        server.run_until_idle();
        drop(server);
        crash(&wal(&dir));

        // Life 2 accepts j-2 and dies before running it.
        let server = Server::open(ServerConfig::new(&dir)).expect("life 2 opens");
        let second = server
            .submit(lms_job("globex", FlowSpec::default()))
            .expect("accepted");
        drop(server);

        // Life 3 starts, knows both jobs and finishes the second.
        let server = Server::open(ServerConfig::new(&dir))
            .unwrap_or_else(|e| panic!("{name}: life 3 cannot open: {e}"));
        let status = server.status(&first).expect("j-1 is known");
        assert_eq!(status.state, JobState::Finished, "{name}");
        assert_eq!(status.status.as_deref(), Some("complete"), "{name}");
        assert_eq!(
            server.status(&second).expect("j-2 is known").state,
            JobState::Queued,
            "{name}: j-2's acceptance survived"
        );
        server.run_until_idle();
        let status = server.status(&second).expect("j-2 is known");
        assert_eq!(status.status.as_deref(), Some("complete"), "{name}");
        let text = std::fs::read_to_string(wal(&dir)).expect("reads the log");
        assert!(!text.contains("j-9"), "{name}: the torn fragment is gone");
        assert!(text.ends_with('\n'), "{name}");
    }
}
