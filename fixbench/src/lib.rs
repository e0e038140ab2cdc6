//! `fixbench`: the end-to-end and per-layer benchmark of the fixref
//! refinement flow.
//!
//! Four closed-loop workloads (see `README.md` for why each exists):
//! [`lms_paper`], [`timing_loop`], [`lms_sweep`] and [`serve_mixed`].
//! Every workload measures each layer from outside, by timing calls into
//! the public functions of the `fixref-*` crates; a traced run (see
//! [`trace`]) splits the same refinements into per-layer spans.

pub mod flowrun;
pub mod lms_paper;
pub mod lms_sweep;
pub mod report;
pub mod serve_mixed;
pub mod timing_loop;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// How one benchmark run is driven.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured duration of the closed loop.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `fixref-serve` binary (the `serve_mixed` server process).
    pub server_bin: Option<PathBuf>,
    /// Directory for the run's scratch files (serve data dirs).
    pub scratch: PathBuf,
}

/// What a workload measured in one run.
#[derive(Debug, Default)]
pub struct Measured {
    /// Refinements (or jobs) attempted.
    pub attempted: u64,
    /// Attempted refinements that errored, ended partial or failed their
    /// output check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Set-up time of each repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each untraced refinement, ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time of each traced refinement, ms.
    pub traced_ms: Vec<f64>,
    /// When each untraced refinement started and ended; parallel to
    /// `latencies_ms`.
    pub windows: Vec<(Instant, Instant)>,
    /// When each set-up repetition started and ended; parallel to
    /// `setup_s`.
    pub setup_windows: Vec<(Instant, Instant)>,
    /// Calibration samples: when each started and its time, ms.
    pub calibrations: Vec<(Instant, f64)>,
    /// When the measured loop started.
    pub loop_start: Option<Instant>,
    /// Refinements completed inside the measured loop.
    pub completed: u64,
    /// Wall time of the measured loop, seconds.
    pub loop_s: f64,
    /// Monitored clock cycles simulated in the measured loop.
    pub cycles: u64,
    /// Peak resident memory of the refining process, MiB.
    pub peak_rss_mb: f64,
    /// Per-layer values that are one number per run, not per refinement.
    pub run_values: Vec<(String, f64)>,
    /// Extra machine context (`key`, `value`).
    pub context: Vec<(String, String)>,
}

impl Measured {
    /// Counts one attempted refinement and its check outcome.
    pub fn check(&mut self, what: impl FnOnce() -> String, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(format!("{}: {e}", what()));
        }
    }

    /// Records a failure found by a check that runs after the loop (the
    /// refinement was already counted as attempted).
    pub fn fail_late(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Records one untraced refinement that ran from `start` to `end`.
    pub fn record_latency(&mut self, start: Instant, end: Instant) {
        self.latencies_ms.push((end - start).as_secs_f64() * 1e3);
        self.windows.push((start, end));
    }

    /// Runs [`calibration_ms`] now and keeps the sample. The first call
    /// of a process runs the loop once more before, unkept: a cold first
    /// run pays for page faults and cold caches.
    pub fn calibrate(&mut self) {
        if self.calibrations.is_empty() {
            calibration_ms();
        }
        let at = Instant::now();
        self.calibrations.push((at, calibration_ms()));
    }

    /// The factor that brings a time measured from `from` to `to` to the
    /// reference host speed: [`REFERENCE_CALIBRATION_MS`] over the mean of
    /// the calibrations taken in that interval and the nearest one on
    /// each side of it (1 without calibrations).
    pub fn scale(&self, from: Instant, to: Instant) -> f64 {
        let c = &self.calibrations;
        let first = c.iter().rposition(|&(t, _)| t <= from).unwrap_or(0);
        let last = c
            .iter()
            .position(|&(t, _)| t >= to)
            .unwrap_or(c.len().saturating_sub(1));
        // Samples are in time order, so `first <= last`; empty when none.
        let around = c.get(first..=last).unwrap_or(&[]);
        if around.is_empty() {
            return 1.0;
        }
        let mean = around.iter().map(|&(_, ms)| ms).sum::<f64>() / around.len() as f64;
        REFERENCE_CALIBRATION_MS / mean
    }
}

/// The closed loop's clock: a refinement starts while it is expected to
/// finish by the deadline (at the mean pace so far), so a run lasts about
/// `seconds` even when one refinement takes several seconds.
#[derive(Debug)]
pub struct Deadline {
    start: Instant,
    seconds: f64,
    next: u64,
}

impl Deadline {
    /// Starts the clock.
    pub fn start(seconds: f64) -> Self {
        Deadline {
            start: Instant::now(),
            seconds,
            next: 0,
        }
    }

    /// The index of the next refinement, or `None` once it would end past
    /// the deadline (at least one refinement always runs).
    pub fn next_refinement(&mut self) -> Option<u64> {
        let elapsed = self.elapsed_s();
        if self.next > 0 && elapsed + elapsed / self.next as f64 > self.seconds {
            return None;
        }
        self.next += 1;
        Some(self.next - 1)
    }

    /// When the clock started.
    pub fn started(&self) -> Instant {
        self.start
    }

    /// Seconds since the clock started.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;

/// Times `setup` [`SETUP_REPEATS`] times, each right after a calibration,
/// and returns the last result.
pub fn timed_setup<T>(m: &mut Measured, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        m.calibrate();
        let t = Instant::now();
        let value = setup();
        let end = Instant::now();
        m.setup_s.push((end - t).as_secs_f64());
        m.setup_windows.push((t, end));
        last = Some(value);
    }
    m.calibrate();
    last.expect("SETUP_REPEATS > 0")
}

/// [`calibration_ms`] on the reference host (2 vCPUs of an Intel Xeon)
/// at about its fastest, when the cores it shares are quiet. Time metrics
/// are reported at this speed: see [`Measured::scale`].
pub const REFERENCE_CALIBRATION_MS: f64 = 1.3;

/// Times a fixed piece of work that uses none of the fixref crates and
/// returns its wall time, ms: 4000 JSON-like records formatted with a
/// float in exponent notation and parsed back. The host's vCPUs are
/// hardware threads that share cores with other loads; the time of this
/// loop tracks how much of its core the thread gets at the moment it runs.
/// Formatting and float parsing run through a lot of branchy library code,
/// as a refinement does, so contention for the core's front end, caches
/// and ports slows both alike. Of the loops tried (integer rotate/xor
/// chains, hash and ordered maps, a fixed-point simulation with a signal
/// map, a large pointer chase), this one tracked the refinement's own
/// slowdown closest.
pub fn calibration_ms() -> f64 {
    use std::fmt::Write;
    const RECORDS: u64 = 4000;
    let t = Instant::now();
    let mut x: u64 = 0xD1B5_4A32_D192_ED03;
    let mut line = String::new();
    let mut sum = 0.0f64;
    for i in 0..RECORDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = (x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        line.clear();
        let _ = write!(
            line,
            "{{\"signal\": \"s{}\", \"value\": {v:.9e}, \"n\": {}}}",
            i % 61,
            x % 100_000
        );
        let field = line
            .split("\"value\": ")
            .nth(1)
            .and_then(|rest| rest.split(',').next());
        sum += field.and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    }
    std::hint::black_box(sum);
    t.elapsed().as_secs_f64() * 1e3
}

/// SplitMix64 of `(seed, k)`: the k-th input seed of a workload.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stimulus seed in the small positive range the dsp sources expect.
pub fn stimulus_seed(seed: u64, k: u64) -> u64 {
    1 + derive_seed(seed, k) % 1_000_000
}

/// Peak resident set (`VmHWM`) of a process, MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
