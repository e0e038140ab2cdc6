//! A minimal `Instant`-based micro-benchmark harness for the
//! `benches/*.rs` targets (the container builds offline, so the previous
//! criterion harness was replaced with this self-contained runner).
//!
//! Each measurement warms up, then runs repeatedly until a small time
//! budget is spent, and reports mean, median and minimum wall time per
//! iteration; the median and minimum follow the code more than the host's
//! background load does, which moves the mean. The
//! harness doubles as an observability consumer: every sample lands in a
//! [`DefaultRecorder`] histogram so the whole run can be rendered (or
//! serialized) as one [`MetricsReport`].

pub use std::hint::black_box;
use std::time::{Duration, Instant};

use fixref_obs::{DefaultRecorder, MetricsReport, Recorder};

use crate::report::Metric;

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (`group/case`).
    pub name: String,
    /// Iterations actually timed.
    pub iters: u64,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Median wall time per iteration, nanoseconds.
    pub median_ns: f64,
    /// Fastest iteration, nanoseconds.
    pub min_ns: f64,
}

/// Collects measurements for one bench binary.
#[derive(Debug)]
pub struct Harness {
    label: String,
    budget: Duration,
    max_iters: u64,
    recorder: DefaultRecorder,
    results: Vec<BenchResult>,
}

impl Harness {
    /// A harness with the default per-case budget (120 ms, 512 iters).
    pub fn new(label: &str) -> Self {
        Harness {
            label: label.to_string(),
            budget: Duration::from_millis(120),
            max_iters: 512,
            recorder: DefaultRecorder::new(),
            results: Vec::new(),
        }
    }

    /// Overrides the per-case time budget.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = budget;
        self
    }

    /// Times `f` until the budget is exhausted and records the result.
    pub fn bench<R, F: FnMut() -> R>(&mut self, name: &str, mut f: F) -> &BenchResult {
        // Warmup: one untimed run to populate caches and lazy state.
        black_box(f());
        let mut iters = 0u64;
        let mut total = Duration::ZERO;
        let mut samples = Vec::with_capacity(self.max_iters as usize);
        while iters < 3 || (total < self.budget && iters < self.max_iters) {
            let t = Instant::now();
            black_box(f());
            let dt = t.elapsed();
            let ns = dt.as_nanos() as f64;
            self.recorder.observe(&format!("bench.{name}.ns"), ns);
            samples.push(ns);
            total += dt;
            iters += 1;
        }
        self.recorder.inc(&format!("bench.{name}.iters"), iters);
        let per_iter = Metric::over("ns", &samples);
        let result = BenchResult {
            name: name.to_string(),
            iters,
            mean_ns: total.as_nanos() as f64 / iters as f64,
            median_ns: per_iter.median,
            min_ns: per_iter.min,
        };
        println!(
            "{:<44} {:>12} /iter  (median {:>12}, min {:>12}, {} iters)",
            result.name,
            fmt_ns(result.mean_ns),
            fmt_ns(result.median_ns),
            fmt_ns(result.min_ns),
            result.iters
        );
        self.results.push(result);
        self.results.last().expect("just pushed")
    }

    /// All results so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Snapshots the run as a metrics report (for `--json` style output).
    pub fn report(&self) -> MetricsReport {
        MetricsReport::from_recorder(&self.label, &self.recorder)
    }

    /// Prints the trailer. Call at the end of `main`.
    pub fn finish(self) {
        println!("{}: {} benchmarks measured", self.label, self.results.len());
    }
}

/// Human formatting for a nanosecond quantity.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_records() {
        let mut h = Harness::new("unit").with_budget(Duration::from_millis(1));
        let r = h.bench("noop", || 1 + 1).clone();
        assert!(r.iters >= 3);
        assert!(r.min_ns <= r.mean_ns);
        let report = h.report();
        assert_eq!(report.name, "unit");
        let hist = report
            .histograms
            .iter()
            .find(|(name, _)| name == "bench.noop.ns")
            .map(|(_, hist)| hist)
            .expect("every iteration is recorded");
        assert_eq!(hist.count, r.iters);
        assert!(
            r.min_ns <= r.median_ns && r.median_ns <= hist.max,
            "median {} outside [min {}, slowest {}]",
            r.median_ns,
            r.min_ns,
            hist.max
        );
        h.finish();
    }
}
