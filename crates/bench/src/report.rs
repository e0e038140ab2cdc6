//! The one schema of every `BENCH_*.json` file, and the command line of
//! the bins that write them.
//!
//! A [`BenchReport`] names its bench (the file stem), the machine it ran
//! on, how many times it repeated its measurement, each metric's unit
//! with its median, minimum and maximum over those repeats, and the
//! pass/fail checks that gate the bin's exit code. It encodes through
//! `fixref_obs::json` like every other document fixref writes:
//!
//! ```text
//! {"bench":"cache","machine":{"available_parallelism":2},"repeats":1,
//!  "metrics":{"cold_ms":{"unit":"ms","median":43.8,"min":43.8,"max":43.8},…},
//!  "checks":{"outcomes_match":true,…}}
//! ```
//!
//! A bench measured once reports `repeats: 1`, and each metric's three
//! statistics coincide. [`BenchReport::publish`] is the whole tail of a
//! bench bin: it writes `BENCH_<bench>.json`, prints the report (JSON or
//! a text table), and returns a failing exit code when a check failed.

use std::fmt::Write as _;
use std::process::ExitCode;

use fixref_obs::{FromJson, Json, JsonError, MetricsReport, ToJson};

/// One measured quantity over a bench's repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Unit (`"ms"`, `"count"`, `"x"` for ratios, …).
    pub unit: String,
    /// Median over the repeats.
    pub median: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

impl Metric {
    /// A quantity measured once, or fixed by the run's configuration.
    pub fn once(unit: &str, value: f64) -> Metric {
        Metric::over(unit, &[value])
    }

    /// The median, minimum and maximum of `samples` (the median of an
    /// even count is the mean of the middle two).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn over(unit: &str, samples: &[f64]) -> Metric {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        assert!(n > 0, "a metric needs at least one sample");
        Metric {
            unit: unit.to_string(),
            median: (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0,
            min: sorted[0],
            max: sorted[n - 1],
        }
    }
}

/// The host a report was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    /// `std::thread::available_parallelism()`: read it before trusting
    /// any parallel speedup.
    pub available_parallelism: usize,
}

impl Machine {
    /// The machine this process runs on.
    pub fn current() -> Machine {
        Machine {
            available_parallelism: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
        }
    }
}

/// A bench's result: the document behind `BENCH_<bench>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Bench name, and the stem of the file the report writes.
    pub bench: String,
    /// Where it ran.
    pub machine: Machine,
    /// How many times the bench repeated its timed measurement.
    pub repeats: usize,
    /// Metrics in the order the bench reports them.
    pub metrics: Vec<(String, Metric)>,
    /// Pass/fail checks; a failed one fails the bin.
    pub checks: Vec<(String, bool)>,
}

impl BenchReport {
    /// An empty report for `bench` on this machine.
    pub fn new(bench: &str, repeats: usize) -> BenchReport {
        BenchReport {
            bench: bench.to_string(),
            machine: Machine::current(),
            repeats,
            metrics: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// Adds a metric.
    pub fn metric(mut self, name: &str, metric: Metric) -> BenchReport {
        self.metrics.push((name.to_string(), metric));
        self
    }

    /// Adds a check.
    pub fn check(mut self, name: &str, pass: bool) -> BenchReport {
        self.checks.push((name.to_string(), pass));
        self
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|(_, pass)| *pass)
    }

    /// A flow's recorder snapshot as a single-shot report named after
    /// it: each span's wall time in ms (a name seen more than once
    /// reports the spread of its occurrences), each counter, and each
    /// event kind's tally as `events.<kind>`.
    pub fn from_metrics(report: &MetricsReport) -> BenchReport {
        let mut spans: Vec<(&str, Vec<f64>)> = Vec::new();
        for s in &report.spans {
            let wall = ms(u128::from(s.wall_ns));
            match spans.iter_mut().find(|(name, _)| *name == s.name) {
                Some((_, samples)) => samples.push(wall),
                None => spans.push((&s.name, vec![wall])),
            }
        }
        let mut out = BenchReport::new(&report.name, 1);
        for (name, samples) in spans {
            out = out.metric(name, Metric::over("ms", &samples));
        }
        for (name, n) in &report.counters {
            out = out.metric(name, Metric::once("count", *n as f64));
        }
        for (kind, n) in &report.event_counts {
            out = out.metric(&format!("events.{kind}"), Metric::once("count", *n as f64));
        }
        out
    }

    /// The report as one aligned text table.
    pub(crate) fn render_text(&self) -> String {
        let plural = if self.repeats == 1 { "" } else { "s" };
        let mut rows = vec![["metric", "unit", "median", "min", "max"].map(String::from)];
        for (name, m) in &self.metrics {
            rows.push([
                name.clone(),
                m.unit.clone(),
                number(m.median),
                number(m.min),
                number(m.max),
            ]);
        }
        for (name, pass) in &self.checks {
            let mut row = <[String; 5]>::default();
            row[0] = format!("check {name}");
            row[1] = if *pass { "pass" } else { "FAIL" }.into();
            rows.push(row);
        }
        let mut widths = [0; 5];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = format!(
            "BENCH_{}: {} repeat{plural}, available_parallelism {}\n",
            self.bench, self.repeats, self.machine.available_parallelism
        );
        for row in &rows {
            let mut line = String::new();
            for (i, (cell, w)) in row.iter().zip(widths).enumerate() {
                // Names and units align left, numbers right.
                let _ = if i < 2 {
                    write!(line, "{cell:<w$}  ")
                } else {
                    write!(line, "{cell:>w$}  ")
                };
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Writes the report to `BENCH_<bench>.json` in the working
    /// directory. A failed write is a warning: the report is still
    /// printed.
    fn write(&self) {
        let path = format!("BENCH_{}.json", self.bench);
        if let Err(e) = std::fs::write(&path, format!("{}\n", self.encode())) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }

    /// Writes the file, prints the report (its JSON with `json`, the text
    /// table without), and names every failed check on stderr: the exit
    /// code fails when one did.
    pub fn publish(&self, json: bool) -> ExitCode {
        self.write();
        if json {
            println!("{}", self.encode());
        } else {
            print!("{}", self.render_text());
        }
        for (name, _) in self.checks.iter().filter(|(_, pass)| !pass) {
            eprintln!("error: check {name} failed");
        }
        if self.passed() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Nanoseconds as milliseconds.
pub(crate) fn ms(ns: u128) -> f64 {
    ns as f64 / 1e6
}

/// A table cell: integers without decimals, the rest to three places.
fn number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

impl ToJson for Metric {
    fn encode(&self) -> Json {
        Json::obj([
            ("unit", self.unit.encode()),
            ("median", self.median.encode()),
            ("min", self.min.encode()),
            ("max", self.max.encode()),
        ])
    }
}

impl FromJson for Metric {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        Ok(Metric {
            unit: v.field("unit")?,
            median: v.field("median")?,
            min: v.field("min")?,
            max: v.field("max")?,
        })
    }
}

impl ToJson for Machine {
    fn encode(&self) -> Json {
        Json::obj([("available_parallelism", self.available_parallelism.encode())])
    }
}

impl FromJson for Machine {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        Ok(Machine {
            available_parallelism: v.field("available_parallelism")?,
        })
    }
}

impl ToJson for BenchReport {
    fn encode(&self) -> Json {
        Json::obj([
            ("bench", self.bench.encode()),
            ("machine", self.machine.encode()),
            ("repeats", self.repeats.encode()),
            ("metrics", Json::map(&self.metrics)),
            ("checks", Json::map(&self.checks)),
        ])
    }
}

impl FromJson for BenchReport {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        Ok(BenchReport {
            bench: v.field("bench")?,
            machine: v.field("machine")?,
            repeats: v.field("repeats")?,
            metrics: v.field_with("metrics", Json::entries)?,
            checks: v.field_with("checks", Json::entries)?,
        })
    }
}

/// A bench bin's command line: flags such as `--json`, and numeric
/// options such as `--samples N`. Unknown arguments are ignored, and a
/// missing or unparsable value falls back to the default.
#[derive(Debug, Clone)]
pub struct BenchArgs(Vec<String>);

impl BenchArgs {
    /// This process's arguments.
    pub fn from_env() -> BenchArgs {
        BenchArgs(std::env::args().skip(1).collect())
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// The number after `option`, or `default`.
    pub fn number(&self, option: &str, default: usize) -> usize {
        self.0
            .iter()
            .position(|a| a == option)
            .and_then(|i| self.0.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_statistics_cover_odd_and_even_counts() {
        let m = Metric::over("ms", &[3.0, 1.0, 2.0]);
        assert_eq!((m.median, m.min, m.max), (2.0, 1.0, 3.0));
        let m = Metric::over("ms", &[4.0, 1.0, 2.0, 3.0]);
        assert_eq!((m.median, m.min, m.max), (2.5, 1.0, 4.0));
        assert_eq!(Metric::once("count", 7.0).median, 7.0);
    }

    #[test]
    fn report_round_trips_through_the_codec_with_bench_first() {
        let report = BenchReport::new("demo", 3)
            .metric("wall_ms", Metric::over("ms", &[1.5, 1.25, 2.0]))
            .metric("cycles", Metric::once("count", 4000.0))
            .check("outcomes_match", true);
        let text = report.encode().to_string();
        assert!(text.starts_with(r#"{"bench":"demo","machine":{"available_parallelism":"#));
        let back = BenchReport::decode(&Json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, report);
        assert!(back.passed());
    }

    #[test]
    fn a_failed_check_fails_the_report_and_shows_in_the_table() {
        let report = BenchReport::new("demo", 1)
            .metric("speedup", Metric::once("x", 1.25))
            .check("floor", false);
        assert!(!report.passed());
        let text = report.render_text();
        assert!(text.starts_with("BENCH_demo: 1 repeat, available_parallelism "));
        assert!(text.contains("check floor  FAIL"), "{text}");
        assert!(text.contains("1.250"), "{text}");
    }

    #[test]
    fn metrics_reports_become_span_counter_and_event_metrics() {
        let rec = fixref_obs::DefaultRecorder::new();
        use fixref_obs::Recorder as _;
        rec.inc("sim.ticks", 4000);
        for _ in 0..2 {
            let id = rec.span_begin("flow.msb.iter.1");
            rec.span_end(id, 10);
        }
        rec.record_event(fixref_obs::Event::PhaseConverged {
            phase: fixref_obs::Phase::Msb,
            iterations: 2,
        });
        let report = BenchReport::from_metrics(&MetricsReport::from_recorder("table1", &rec));
        assert_eq!(report.bench, "table1");
        assert_eq!(report.repeats, 1);
        let names: Vec<&str> = report.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["flow.msb.iter.1", "sim.ticks", "events.phase_converged"]
        );
        assert_eq!(report.get("sim.ticks").map(|m| m.median), Some(4000.0));
        assert!(report.checks.is_empty());
    }

    #[test]
    fn arguments_read_flags_and_numbers_with_defaults() {
        let args = BenchArgs(
            ["--samples", "1500", "--json", "--repeats", "x"]
                .map(String::from)
                .to_vec(),
        );
        assert!(args.has("--json"));
        assert_eq!(args.number("--samples", 4000), 1500);
        assert_eq!(args.number("--repeats", 3), 3);
        assert_eq!(args.number("--workers", 2), 2);
    }
}
