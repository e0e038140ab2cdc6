//! `serve_mixed`: the `fixref-serve` job server (one worker, its own
//! process) driven by one client over one loopback line-protocol
//! connection. Four tenants take turns with four jobs in flight; jobs are
//! short LMS refinements (1000 samples, default `FlowSpec`) and one in
//! twelve is a short timing-loop job, whose head-of-line blocking the
//! latency tail sees. Every submit, start and completion is a fsynced WAL
//! record, every iteration a checkpoint, every result a file rename.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use fixref_bench::{LMS_SNR_DB, TIMING_SNR_DB};
use fixref_core::{FlowSpec, JobSpec, RefinePolicy, RefinementFlow, SequentialDriver};
use fixref_fixed::DType;
use fixref_obs::Json;
use fixref_serve::job::render_annotation;
use fixref_serve::{DesignRegistry, JobResult};
use fixref_sim::{DesignSpec, ScenarioSet};

use crate::flowrun::{count_flow, refine, TimedDriver};
use crate::timing_loop::KNOWLEDGE_SATURATIONS;
use crate::trace::Tracer;
use crate::{stimulus_seed, Config, Measured, SETUP_REPEATS};

/// Jobs in flight (closed loop: a job is submitted when one finishes).
const IN_FLIGHT: usize = 4;
/// Tenants, taking turns.
const TENANTS: u64 = 4;
/// Every `TIMING_EVERY`-th job is a timing-loop job. A timing job holds
/// up the `IN_FLIGHT - 1` jobs queued behind it, so about
/// `IN_FLIGHT / TIMING_EVERY` of all jobs wait for one: a third here,
/// which keeps the median in the unblocked mode of the latencies and the
/// 90th percentile in the blocked one. At one in eight, half the jobs
/// wait and the median sits on the jump between the two modes.
const TIMING_EVERY: u64 = 12;
/// Stimulus length of the LMS jobs.
const LMS_JOB_SAMPLES: usize = 1000;
/// Stimulus length of the timing jobs.
const TIMING_JOB_SAMPLES: usize = 3000;
/// Distinct LMS stimuli and timing stimuli per run.
const LMS_INPUTS: u64 = 8;
const TIMING_INPUTS: u64 = 2;
/// Scenario seeds whose short timing flows all take 2 MSB + 1 LSB
/// iterations (others take up to 3), so every run does the same work.
const TIMING_JOB_POOL: [u64; 24] = [
    2, 3, 4, 5, 6, 7, 10, 12, 13, 14, 16, 17, 18, 19, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30,
];
/// Status poll interval of the client.
const POLL: Duration = Duration::from_millis(2);
/// How often the client calibrates host speed (in an idle poll).
const CALIBRATE_EVERY: Duration = Duration::from_millis(200);

/// The job mix: job `j`'s input key and spec.
fn job_spec(seed: u64, j: u64) -> (u64, JobSpec) {
    let tenant = format!("tenant{}", j % TENANTS);
    if j % TIMING_EVERY == TIMING_EVERY - 1 {
        let key = LMS_INPUTS + (j / TIMING_EVERY) % TIMING_INPUTS;
        let input = DType::tc("T_in", 7, 5).expect("valid literal type");
        let pick = stimulus_seed(seed, key) as usize % TIMING_JOB_POOL.len();
        let spec = JobSpec::new(
            tenant,
            DesignSpec::new("timing").with_input_dtype(input.to_string()),
            ScenarioSet::single(TIMING_JOB_POOL[pick], TIMING_SNR_DB, TIMING_JOB_SAMPLES),
        )
        .with_flow(FlowSpec {
            force_saturate: KNOWLEDGE_SATURATIONS
                .iter()
                .map(|s| s.to_string())
                .collect(),
            ..FlowSpec::default()
        });
        (key, spec)
    } else {
        let key = j % LMS_INPUTS;
        let spec = JobSpec::new(
            tenant,
            DesignSpec::new("lms").with_input_dtype("<7,5,tc,st,rd>"),
            ScenarioSet::single(stimulus_seed(seed, key), LMS_SNR_DB, LMS_JOB_SAMPLES),
        );
        (key, spec)
    }
}

/// A running server process and the client's one connection to it.
struct Served {
    child: Child,
    stderr: BufReader<ChildStderr>,
    conn: TcpStream,
    reader: BufReader<TcpStream>,
    data_dir: PathBuf,
}

impl Served {
    /// Starts the server on a fresh data dir and connects to it.
    fn start(bin: &Path, data_dir: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;
        let mut child = Command::new(bin)
            .arg("--data-dir")
            .arg(&data_dir)
            .args(["--addr", "127.0.0.1:0", "--workers", "1", "--retries", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let connected = (|| {
            let mut line = String::new();
            let addr = loop {
                line.clear();
                if stderr.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                    return Err("server exited before listening".to_string());
                }
                if let Some(rest) = line.split("listening on ").nth(1) {
                    break rest
                        .split(',')
                        .next()
                        .unwrap_or_default()
                        .trim()
                        .to_string();
                }
            };
            let conn = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
            conn.set_nodelay(true).map_err(|e| e.to_string())?;
            let reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
            Ok((conn, reader))
        })();
        match connected {
            Ok((conn, reader)) => Ok(Served {
                child,
                stderr,
                conn,
                reader,
                data_dir,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_dir_all(&data_dir);
                Err(e)
            }
        }
    }

    /// One request/response exchange.
    fn call(&mut self, request: &str) -> Result<String, String> {
        self.conn
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        if self
            .reader
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            == 0
        {
            return Err("server closed the connection".into());
        }
        Ok(line.trim_end().to_string())
    }

    /// Asks the server to drain and exit, waits for it, and removes its
    /// data dir.
    fn stop(mut self) -> Result<(), String> {
        let asked = self.call(r#"{"cmd":"shutdown"}"#);
        let _ = self.conn.shutdown(std::net::Shutdown::Both);
        let deadline = Instant::now() + Duration::from_secs(60);
        let exited = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => std::thread::sleep(POLL),
                Ok(None) => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break Err("server did not exit after shutdown".to_string());
                }
                Err(e) => break Err(e.to_string()),
            }
        };
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stderr, &mut rest);
        asked?;
        match exited? {
            s if s.success() => Ok(()),
            s => Err(format!("server exited with {s}")),
        }
    }
}

/// A run that ends early (a protocol error) still stops its server.
impl Drop for Served {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

/// Client-side timestamps of one job.
struct Job {
    seq: u64,
    key: u64,
    id: String,
    traced: bool,
    submitted: Instant,
    submit_done: Instant,
    running: Option<Instant>,
}

/// The filesystem type holding `path` (longest mount-point prefix).
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn json_field<'a>(v: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

/// Runs the workload.
///
/// # Errors
///
/// A server that cannot be started, or a protocol failure: the run is
/// invalid, not a refinement failure.
pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Measured, String> {
    let bin = cfg
        .server_bin
        .clone()
        .ok_or("serve_mixed needs --server-bin")?;
    let mut m = Measured::default();
    let off = Tracer::new(false);
    let run_dir = cfg
        .scratch
        .join(format!("serve-{}-{}", std::process::id(), cfg.seed));

    // Set-up: start the server (opening its WAL) and connect, several
    // times on fresh data dirs; the last one serves the run.
    let mut served = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(s) = served.take() {
            Served::stop(s)?;
        }
        m.calibrate();
        let t = Instant::now();
        served = Some(Served::start(&bin, run_dir.join(format!("data{rep}")))?);
        let end = Instant::now();
        m.setup_s.push((end - t).as_secs_f64());
        m.setup_windows.push((t, end));
    }
    m.calibrate();
    let mut s = served.expect("SETUP_REPEATS > 0");
    m.context
        .push(("serve_fs".into(), filesystem_of(&s.data_dir)));

    let mut inflight: VecDeque<Job> = VecDeque::new();
    let mut results: Vec<(u64, u64, JobResult)> = Vec::new();
    let mut service_ms: BTreeMap<u64, f64> = BTreeMap::new();
    let mut next = 0u64;
    let mut last_calibration = Instant::now();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(cfg.seconds);
    while next == 0 || !inflight.is_empty() || Instant::now() < end {
        while inflight.len() < IN_FLIGHT && (next == 0 || Instant::now() < end) {
            let (key, spec) = job_spec(cfg.seed, next);
            let submitted = Instant::now();
            let response = s.call(&format!(r#"{{"cmd":"submit","spec":{}}}"#, spec.to_json()))?;
            let submit_done = Instant::now();
            m.attempted += 1;
            let v = Json::parse(&response).map_err(|e| e.to_string())?;
            match v.get("job").and_then(Json::as_str) {
                Some(id) => inflight.push_back(Job {
                    seq: next,
                    key,
                    id: id.to_string(),
                    traced: cfg.trace && next % 2 == 1,
                    submitted,
                    submit_done,
                    running: None,
                }),
                None => {
                    m.failed += 1;
                    m.failures.push(format!("job {next} rejected: {response}"));
                }
            }
            next += 1;
        }
        let mut finished_any = false;
        let mut still = VecDeque::new();
        while let Some(mut job) = inflight.pop_front() {
            let response = s.call(&format!(r#"{{"cmd":"status","job":"{}"}}"#, job.id))?;
            let seen = Instant::now();
            let v = Json::parse(&response).map_err(|e| e.to_string())?;
            let state = json_field(&v, &["status", "state"]).and_then(Json::as_str);
            match state {
                Some("running") => {
                    job.running.get_or_insert(seen);
                    still.push_back(job);
                }
                Some("finished") | Some("cancelled") => {
                    finished_any = true;
                    let running = *job.running.get_or_insert(seen);
                    let fetch = s.call(&format!(r#"{{"cmd":"result","job":"{}"}}"#, job.id))?;
                    let done = Instant::now();
                    let latency_ms = (done - job.submitted).as_secs_f64() * 1e3;
                    let t = if job.traced { tracer } else { &off };
                    t.set_refine(job.seq);
                    t.record("serve.job", job.submitted, done);
                    t.record("serve.submit", job.submitted, job.submit_done);
                    t.record("serve.queue_wait", job.submitted, running);
                    t.record("serve.service", running, seen);
                    t.record("serve.result", seen, done);
                    t.count("serve.result_bytes", fetch.len() as f64);
                    if job.traced {
                        m.traced_ms.push(latency_ms);
                        service_ms.insert(job.seq, (seen - running).as_secs_f64() * 1e3);
                    } else {
                        m.record_latency(job.submitted, done);
                    }
                    m.completed += 1;
                    let parsed = fetch
                        .strip_prefix(r#"{"ok":true,"result":"#)
                        .and_then(|r| r.strip_suffix('}'))
                        .ok_or_else(|| format!("no result: {fetch}"))
                        .and_then(|r| JobResult::from_json(r).map_err(|e| e.to_string()));
                    match parsed {
                        Ok(r) => {
                            let journal_bytes: usize =
                                r.journal.iter().map(|e| e.to_json().len() + 1).sum();
                            t.count("obs.events", r.journal.len() as f64);
                            t.count("obs.journal_bytes", journal_bytes as f64);
                            results.push((job.seq, job.key, r));
                        }
                        Err(e) => {
                            m.failed += 1;
                            m.failures.push(format!("job {}: {e}", job.seq));
                        }
                    }
                }
                Some(_) => still.push_back(job),
                None => return Err(format!("status: {response}")),
            }
        }
        inflight = still;
        if !finished_any {
            // An idle poll calibrates instead of sleeping when one is due.
            if last_calibration.elapsed() >= CALIBRATE_EVERY {
                m.calibrate();
                last_calibration = Instant::now();
            } else {
                std::thread::sleep(POLL);
            }
        }
    }
    m.calibrate();
    m.loop_s = start.elapsed().as_secs_f64();
    m.loop_start = Some(start);
    m.peak_rss_mb = crate::peak_rss_mb(&s.child.id().to_string()).unwrap_or(0.0);

    let metrics = s.call(r#"{"cmd":"metrics"}"#)?;
    let metrics = Json::parse(&metrics).map_err(|e| e.to_string())?;
    for name in ["serve.rejected", "serve.retried"] {
        let n = json_field(&metrics, &["metrics", "counters", name])
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        m.run_values.push((name.into(), n));
    }
    let wal = std::fs::metadata(s.data_dir.join("jobs.wal")).map_or(0, |md| md.len());
    m.run_values.push((
        "serve.wal_bytes_per_job".into(),
        wal as f64 / next.max(1) as f64,
    ));
    s.stop()?;
    let _ = std::fs::remove_dir_all(&run_dir);

    // Output check and in-process baseline, outside the measured loop:
    // each served result equals a direct `RefinementFlow` run of its spec.
    let mut direct: BTreeMap<u64, (Result<Expected, String>, u64, f64)> = BTreeMap::new();
    for (seq, key, result) in &results {
        let (_, spec) = job_spec(cfg.seed, *seq);
        let (expected, cycles, wall_ms) = direct.entry(*key).or_insert_with(|| {
            tracer.set_refine(u64::MAX - key);
            direct_run(&spec, if cfg.trace { tracer } else { &off })
        });
        m.cycles += *cycles;
        if let Some(service) = service_ms.get(seq) {
            tracer.set_refine(*seq);
            tracer.count("serve.overhead_ms", service - *wall_ms);
        }
        let verdict = match expected {
            Ok(e) if result.status != "complete" => Err(format!(
                "status {} ({:?}) vs {:?}",
                result.status, result.reason, e.msb
            )),
            Ok(e)
                if (result.msb_iterations, result.lsb_iterations) != e.msb
                    || result.types != e.types
                    || result.annotations != e.annotations =>
            {
                Err("result differs from the direct RefinementFlow run".into())
            }
            Ok(_) => Ok(()),
            Err(e) => Err(format!("direct run failed: {e}")),
        };
        if let Err(e) = verdict {
            m.fail_late(format!("job {seq} (input {key}): {e}"));
        }
    }
    Ok(m)
}

/// What a direct run of a spec decides.
struct Expected {
    msb: (usize, usize),
    types: Vec<(String, String)>,
    annotations: Vec<String>,
}

/// Runs `spec` in-process exactly as the server's sequential path builds
/// it (registry design, knowledge hints, flow spec), without the server's
/// persistence. Returns the decision, the cycles simulated and the wall
/// time in ms.
fn direct_run(spec: &JobSpec, tracer: &Tracer) -> (Result<Expected, String>, u64, f64) {
    let started = Instant::now();
    let root = tracer.begin("refine");
    let built = DesignRegistry::builtin()
        .build(&spec.design)
        .map_err(|e| e.to_string());
    let builder = match built {
        Ok(b) => b,
        Err(e) => return (Err(e), 0, 0.0),
    };
    let shard = builder(&spec.scenarios.as_slice()[0]);
    let design = shard.design;
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
    for name in &spec.flow.force_saturate {
        match design.find(name) {
            Some(id) => flow.force_saturate(id),
            None => return (Err(format!("unknown signal {name}")), 0, 0.0),
        }
    }
    if let Err(e) = spec.flow.configure(&mut flow) {
        return (Err(e.to_string()), 0, 0.0);
    }
    let mut driver = TimedDriver::new(
        SequentialDriver::new(move |d: &fixref_sim::Design, i: usize| stimulus(d, i)),
        tracer,
    );
    let outcome = refine(&mut flow, &mut driver, tracer);
    tracer.end(root, driver.cycles);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    count_flow(&flow, &design, driver.sims, tracer);
    let expected = outcome.map_err(|e| e.to_string()).map(|o| {
        let mut types: Vec<(String, String)> = o
            .types
            .iter()
            .map(|(id, t)| (design.name_of(*id), t.to_string()))
            .collect();
        types.sort();
        Expected {
            msb: (o.msb_iterations, o.lsb_iterations),
            types,
            annotations: design.annotations().iter().map(render_annotation).collect(),
        }
    });
    (expected, driver.cycles, wall_ms)
}
