//! Job-server throughput, latency and recovery benchmark.
//!
//! Three questions, answered with wall clocks rather than claims:
//!
//! 1. **Throughput** — jobs/sec through the server at queue depths 1, 8
//!    and 64: each round submits `depth` identical LMS refinement jobs,
//!    then measures from first submit to last completion with a worker
//!    thread draining the queue.
//! 2. **Latency** — per-job submit-to-complete wall time (median, best
//!    and worst over the round, plus the p99), observed by polling job
//!    status at sub-millisecond granularity.
//! 3. **Recovery** — after an injected `kill -9`-equivalent crash
//!    ([`fixref_sim::FaultPlan::server_crash_after_n_checkpoints`])
//!    mid-job with a full queue behind it: how long the restart takes
//!    to replay the jobs log and re-queue (open), and how long until
//!    every recovered job is finished (drain).
//!
//! Honesty note: these are single-machine wall-clock numbers over a
//! deliberately small stimulus (the default 120-sample LMS job takes
//! ~10 ms), so the *ratios* between queue depths and the recovery split
//! are the signal; the absolute jobs/sec mostly measures the refinement
//! flow itself, and the p50/p99 split at depth 64 shows queueing delay,
//! not server overhead. Latency observation by polling adds up to the
//! poll interval (100 µs) per sample.

use std::time::{Duration, Instant};

use fixref_core::{FlowSpec, JobSpec};
use fixref_serve::{JobState, Server, ServerConfig};
use fixref_sim::{DesignSpec, FaultPlan, ScenarioSet};

use crate::report::{ms, BenchReport, Metric};

fn lms_job(samples: usize, tenant: &str) -> JobSpec {
    JobSpec::new(
        tenant,
        DesignSpec::new("lms").with_input_dtype("<7,5,tc,st,rd>"),
        ScenarioSet::single(7, 28.0, samples),
    )
    .with_flow(FlowSpec::default())
}

fn data_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fixref_servebench_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The nearest-rank percentile of ascending `sorted` (0 when empty).
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One throughput round: submit `depth` jobs, drain with a worker
/// thread, observe per-job completion by polling. Adds the round's
/// throughput and latencies to `report` as `depth<depth>.*`.
fn run_depth(report: BenchReport, samples: usize, depth: usize) -> BenchReport {
    let mut config = ServerConfig::new(data_dir(&format!("depth{depth}")));
    config.queue_capacity = depth.max(1);
    config.tenant_queue_capacity = depth.max(1);
    let server = std::sync::Arc::new(Server::open(config).expect("server opens"));

    let t0 = Instant::now();
    let jobs: Vec<(String, Instant)> = (0..depth)
        .map(|_| {
            let submitted = Instant::now();
            let job = server.submit(lms_job(samples, "bench")).expect("accepted");
            (job, submitted)
        })
        .collect();
    let worker = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || server.run_until_idle())
    };
    let mut latencies: Vec<f64> = Vec::with_capacity(depth);
    let mut pending: Vec<(String, Instant)> = jobs;
    while !pending.is_empty() {
        pending.retain(|(job, submitted)| match server.status(job) {
            Some(s) if s.state == JobState::Finished => {
                latencies.push(ms(submitted.elapsed().as_nanos()));
                false
            }
            _ => true,
        });
        if !pending.is_empty() {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(worker.join().expect("worker"), depth);

    latencies.sort_by(f64::total_cmp);
    let name = |what: &str| format!("depth{depth}.{what}");
    report
        .metric(&name("wall_ms"), Metric::once("ms", wall_s * 1e3))
        .metric(
            &name("jobs_per_sec"),
            Metric::once("1/s", depth as f64 / wall_s),
        )
        .metric(&name("latency_ms"), Metric::over("ms", &latencies))
        .metric(
            &name("p99_latency_ms"),
            Metric::once("ms", percentile(&latencies, 99.0)),
        )
}

/// Crash-recovery timing: `jobs` queued, server killed after 2
/// checkpoints (mid job 1), restarted, drained.
fn run_recovery(samples: usize, jobs: usize) -> (usize, u128, u128, bool) {
    let dir = data_dir("recovery");
    let mut config = ServerConfig::new(&dir);
    config.queue_capacity = jobs.max(1);
    config.tenant_queue_capacity = jobs.max(1);
    config.fault_plan = FaultPlan::seeded(0xBE4C).server_crash_after_n_checkpoints(2);
    let server = Server::open(config).expect("server opens");
    let ids: Vec<String> = (0..jobs)
        .map(|_| server.submit(lms_job(samples, "bench")).expect("accepted"))
        .collect();
    server.run_until_idle();
    assert!(server.crashed(), "injected crash must fire");
    drop(server);

    let start = Instant::now();
    let server = Server::open(ServerConfig::new(&dir)).expect("server re-opens");
    let open_ns = start.elapsed().as_nanos();
    let recovered = server.queue_depth();
    let start = Instant::now();
    server.run_until_idle();
    let drain_ns = start.elapsed().as_nanos();
    let complete = ids
        .iter()
        .all(|j| server.result(j).is_some_and(|r| r.status == "complete"));
    (recovered, open_ns, drain_ns, complete)
}

/// Runs the full server benchmark over the given queue depths, each
/// round once. Checks that every job recovered after the crash finishes
/// `"complete"`.
pub fn run_serve_bench(samples: usize, depths: &[usize]) -> BenchReport {
    let mut report =
        BenchReport::new("serve", 1).metric("samples", Metric::once("count", samples as f64));
    for &depth in depths {
        report = run_depth(report, samples, depth);
    }
    let (recovered, open_ns, drain_ns, complete) = run_recovery(samples, 8);
    report
        .metric("recovery_jobs", Metric::once("count", recovered as f64))
        .metric("recovery_open_ms", Metric::once("ms", ms(open_ns)))
        .metric("recovery_drain_ms", Metric::once("ms", ms(drain_ns)))
        .check("recovery_complete", complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_bench_runs_and_recovers_every_job() {
        let report = run_serve_bench(100, &[1, 2]);
        assert!(report.passed(), "recovered jobs must all finish");
        for depth in [1, 2] {
            let get = |what: &str| report.get(&format!("depth{depth}.{what}")).cloned();
            assert!(get("jobs_per_sec").is_some_and(|m| m.median > 0.0));
            let latency = get("latency_ms").expect("latency");
            assert!(latency.min <= latency.median && latency.median <= latency.max);
            assert!(get("p99_latency_ms").is_some_and(|m| m.median <= latency.max));
        }
        assert_eq!(report.get("recovery_jobs").map(|m| m.median), Some(8.0));
    }
}
