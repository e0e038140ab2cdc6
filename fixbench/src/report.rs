//! Turning a run's measurements into the benchmark's metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::trace::Tracer;
use crate::Measured;

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], pct: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if pct == 50.0 && s.len().is_multiple_of(2) {
        return (s[s.len() / 2 - 1] + s[s.len() / 2]) / 2.0;
    }
    let rank = ((pct / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Refinements a run needs before it reports `refine_p90_ms` (ten
/// samples beyond the percentile).
pub const P90_MIN_SAMPLES: usize = 100;

/// One metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics of an untraced run, in print order. Times and
/// rates are brought to the reference host speed with the calibrations
/// taken around them ([`Measured::scale`]); `refine_p50_raw_ms` and
/// `calibration_ms` show what was measured before scaling. Only
/// [`BOUNDED`] goes into the result line: `refine_p90_ms` exists only
/// where a run yields 100 refinements, and `failed_frac` is 0 on a healthy
/// commit (the result line carries it as `failed` / `attempted`).
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let scaled = |values: &[f64], windows: &[(Instant, Instant)]| -> Vec<f64> {
        values
            .iter()
            .zip(windows)
            .map(|(v, &(from, to))| v * m.scale(from, to))
            .collect()
    };
    let setup = scaled(&m.setup_s, &m.setup_windows);
    let latencies = scaled(&m.latencies_ms, &m.windows);
    // The loop is cut at its calibrations; each piece, less the
    // calibration that opens it (not refinement time), is scaled by the
    // samples at its two ends.
    let busy_s = m.loop_start.map_or(m.loop_s, |start| {
        let end = start + Duration::from_secs_f64(m.loop_s);
        let mut cuts = vec![(start, 0.0)];
        cuts.extend(
            m.calibrations
                .iter()
                .filter(|&&(t, _)| t >= start && t < end),
        );
        cuts.push((end, 0.0));
        cuts.windows(2)
            .map(|w| {
                let ((from, calibrating_ms), (to, _)) = (w[0], w[1]);
                ((to - from).as_secs_f64() - calibrating_ms / 1e3) * m.scale(from, to)
            })
            .sum()
    });
    let per_s = |n: f64| if busy_s > 0.0 { n / busy_s } else { 0.0 };
    let calibrations: Vec<f64> = m.calibrations.iter().map(|&(_, ms)| ms).collect();
    let mut out = vec![
        ("setup_s", median(&setup), "s"),
        ("refine_p50_ms", median(&latencies), "ms"),
        ("refines_per_s", per_s(m.completed as f64), "1/s"),
        ("sim_cycles_per_s", per_s(m.cycles as f64), "1/s"),
        ("peak_rss_mb", m.peak_rss_mb, "MiB"),
    ];
    if latencies.len() >= P90_MIN_SAMPLES {
        out.push(("refine_p90_ms", percentile(&latencies, 90.0), "ms"));
    }
    out.extend([
        (
            "failed_frac",
            m.failed as f64 / m.attempted.max(1) as f64,
            "ratio",
        ),
        ("refine_p50_raw_ms", median(&m.latencies_ms), "ms"),
        ("calibration_ms", median(&calibrations), "ms"),
    ]);
    out
}

/// Names of the end-to-end metrics `BENCHMARK.json` bounds.
pub const BOUNDED: [&str; 5] = [
    "setup_s",
    "refine_p50_ms",
    "refines_per_s",
    "sim_cycles_per_s",
    "peak_rss_mb",
];

/// Median over the rows that carry `base` of `f(row)`; 0 when no row
/// does (the workload bypasses the layer).
fn over(
    rows: &[&BTreeMap<String, f64>],
    base: &str,
    f: impl Fn(&dyn Fn(&str) -> f64) -> f64,
) -> f64 {
    let vals: Vec<f64> = rows
        .iter()
        .filter(|r| r.contains_key(base))
        .map(|r| {
            let get = |k: &str| r.get(k).copied().unwrap_or(0.0);
            f(&get)
        })
        .filter(|v| v.is_finite())
        .collect();
    median(&vals)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run. Each is the median over the
/// traced refinements (or served jobs) of its per-refinement value; a
/// layer the workload bypasses reports 0.
pub fn per_layer(m: &Measured, tracer: &Tracer) -> Vec<Metric> {
    let table = tracer.per_refine();
    let rows: Vec<&BTreeMap<String, f64>> = table.values().collect();
    let refine = "refine_ms";
    let probe = "probe_ms";
    let job = "serve.job_ms";
    let obs_rows = if rows.iter().any(|r| r.contains_key(job)) {
        job
    } else {
        refine
    };
    let run = |name: &str| {
        m.run_values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let phases = |g: &dyn Fn(&str) -> f64| {
        g("flow.msb_ms")
            + g("flow.lsb_ms")
            + g("flow.apply_ms")
            + g("flow.verify_ms")
            + g("codegen.vhdl_ms")
            + g("codegen.cost_ms")
    };
    vec![
        (
            "sim.record_ms",
            over(&rows, refine, |g| g("sim.record_ms")),
            "ms",
        ),
        (
            "sim.steady_ms",
            over(&rows, refine, |g| g("sim.steady_ms")),
            "ms",
        ),
        (
            "sim.steady_ns_per_cycle",
            over(&rows, refine, |g| {
                ratio(g("sim.steady_ms") * 1e6, g("sim.steady_count"))
            }),
            "ns",
        ),
        (
            "sim.ns_per_assignment",
            over(&rows, refine, |g| {
                ratio(
                    (g("sim.record_ms") + g("sim.steady_ms")) * 1e6,
                    g("sim.assignments"),
                )
            }),
            "ns",
        ),
        (
            "sim.graph_nodes",
            over(&rows, refine, |g| g("sim.graph_nodes")),
            "count",
        ),
        (
            "flow.msb_ms",
            over(&rows, refine, |g| g("flow.msb_ms")),
            "ms",
        ),
        (
            "flow.lsb_ms",
            over(&rows, refine, |g| g("flow.lsb_ms")),
            "ms",
        ),
        (
            "flow.apply_ms",
            over(&rows, refine, |g| g("flow.apply_ms")),
            "ms",
        ),
        (
            "flow.verify_ms",
            over(&rows, refine, |g| g("flow.verify_ms")),
            "ms",
        ),
        (
            "flow.msb_self_ms",
            over(&rows, refine, |g| g("flow.msb_self_ms")),
            "ms",
        ),
        (
            "flow.sims",
            over(&rows, refine, |g| g("flow.sims")),
            "count",
        ),
        (
            "flow.msb_iterations",
            over(&rows, refine, |g| g("flow.msb_iterations")),
            "count",
        ),
        (
            "flow.lsb_iterations",
            over(&rows, refine, |g| g("flow.lsb_iterations")),
            "count",
        ),
        (
            "flow.coverage",
            over(&rows, refine, |g| ratio(phases(g), g("refine_ms"))),
            "ratio",
        ),
        (
            "graph.feedback_scan_ms",
            over(&rows, probe, |g| g("graph.feedback_scan_ms")),
            "ms",
        ),
        (
            "analyze.reports_ms",
            over(&rows, probe, |g| g("analyze.reports_ms")),
            "ms",
        ),
        ("lint.ms", over(&rows, probe, |g| g("lint_ms")), "ms"),
        (
            "lint.diagnostics",
            over(&rows, probe, |g| g("lint.diagnostics")),
            "count",
        ),
        (
            "verify.ms",
            over(&rows, probe, |g| g("verify.bmc_ms")),
            "ms",
        ),
        (
            "verify.states",
            over(&rows, probe, |g| g("verify.states")),
            "count",
        ),
        (
            "verify.proved",
            over(&rows, probe, |g| g("verify.proved")),
            "count",
        ),
        (
            "verify.unknown",
            over(&rows, probe, |g| g("verify.unknown")),
            "count",
        ),
        (
            "codegen.vhdl_ms",
            over(&rows, refine, |g| g("codegen.vhdl_ms")),
            "ms",
        ),
        (
            "codegen.cost_ms",
            over(&rows, refine, |g| g("codegen.cost_ms")),
            "ms",
        ),
        (
            "codegen.vhdl_lines",
            over(&rows, refine, |g| g("codegen.vhdl_lines")),
            "count",
        ),
        (
            "pool.shard_busy_ms",
            over(&rows, refine, |g| g("pool.busy_ns") / 1e6),
            "ms",
        ),
        (
            "pool.utilization",
            over(&rows, refine, |g| {
                ratio(g("pool.busy_ns"), g("pool.capacity_ns"))
            }),
            "ratio",
        ),
        (
            "sweep.outside_shards_ms",
            over(&rows, refine, |g| g("sweep.outside_ns") / 1e6),
            "ms",
        ),
        (
            "cache.hits",
            over(&rows, refine, |g| g("cache.hits")),
            "count",
        ),
        (
            "cache.misses",
            over(&rows, refine, |g| g("cache.misses")),
            "count",
        ),
        (
            "cache.hit_ratio",
            over(&rows, refine, |g| {
                ratio(g("cache.hits"), g("cache.hits") + g("cache.misses"))
            }),
            "ratio",
        ),
        (
            "backend.compiled_runs",
            over(&rows, refine, |g| g("backend.compiled_runs")),
            "count",
        ),
        (
            "backend.fallbacks",
            over(&rows, refine, |g| g("backend.fallbacks")),
            "count",
        ),
        (
            "serve.submit_ms",
            over(&rows, job, |g| g("serve.submit_ms")),
            "ms",
        ),
        (
            "serve.queue_wait_ms",
            over(&rows, job, |g| g("serve.queue_wait_ms")),
            "ms",
        ),
        (
            "serve.service_ms",
            over(&rows, job, |g| g("serve.service_ms")),
            "ms",
        ),
        (
            "serve.overhead_ms",
            over(&rows, job, |g| g("serve.overhead_ms")),
            "ms",
        ),
        (
            "serve.result_ms",
            over(&rows, job, |g| g("serve.result_ms")),
            "ms",
        ),
        (
            "serve.result_bytes",
            over(&rows, job, |g| g("serve.result_bytes")),
            "bytes",
        ),
        (
            "serve.wal_bytes_per_job",
            run("serve.wal_bytes_per_job"),
            "bytes",
        ),
        ("serve.rejected", run("serve.rejected"), "count"),
        ("serve.retried", run("serve.retried"), "count"),
        (
            "serve.coverage",
            over(&rows, job, |g| {
                ratio(
                    g("serve.queue_wait_ms") + g("serve.service_ms") + g("serve.result_ms"),
                    g("serve.job_ms"),
                )
            }),
            "ratio",
        ),
        (
            "obs.events_per_refine",
            over(&rows, obs_rows, |g| g("obs.events")),
            "count",
        ),
        (
            "obs.journal_bytes",
            over(&rows, obs_rows, |g| g("obs.journal_bytes")),
            "bytes",
        ),
        (
            "trace.overhead_pct",
            (ratio(median(&m.traced_ms), median(&m.latencies_ms)) - 1.0) * 100.0,
            "%",
        ),
    ]
}

/// Coverage floor of the traced run: the timed parts must add up to at
/// least this share of the whole.
pub const COVERAGE_FLOOR: f64 = 0.95;

/// The traced run's "parts add up to the whole" checks, as failures.
pub fn coverage_failures(layers: &[Metric], tracer: &Tracer) -> Vec<String> {
    let table = tracer.per_refine();
    let has = |key: &str| table.values().any(|r| r.contains_key(key));
    let value = |name: &str| {
        layers
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or(0.0, |m| m.1)
    };
    let mut out = Vec::new();
    if has("refine_ms") && value("flow.coverage") < COVERAGE_FLOOR {
        out.push(format!(
            "flow.coverage {:.3} < {COVERAGE_FLOOR}",
            value("flow.coverage")
        ));
    }
    if has("serve.job_ms") && value("serve.coverage") < COVERAGE_FLOOR {
        out.push(format!(
            "serve.coverage {:.3} < {COVERAGE_FLOOR}",
            value("serve.coverage")
        ));
    }
    out
}

/// Renders `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!(r#""{n}": {{"value": {}, "unit": "{u}"}}"#, num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON number with all its digits (non-finite values become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_and_midpoint_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn scaling_uses_the_calibrations_around_a_window() {
        use crate::REFERENCE_CALIBRATION_MS as REF;
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut m = Measured::default();
        assert_eq!(m.scale(at(1), at(2)), 1.0);
        m.calibrations = vec![(at(0), REF), (at(10), 2.0 * REF), (at(20), 4.0 * REF)];
        // One sample on each side.
        assert_eq!(m.scale(at(1), at(9)), 1.0 / 1.5);
        // A sample inside the window counts too.
        assert_eq!(m.scale(at(1), at(19)), 3.0 / 7.0);
        // Past the last sample, the last one stands alone.
        assert_eq!(m.scale(at(21), at(30)), 0.25);
        // A slow host (long calibration) scales a time down.
        m.latencies_ms = vec![40.0];
        m.windows = vec![(at(11), at(19))];
        let (name, value, _) = end_to_end(&m)[1];
        assert_eq!(name, "refine_p50_ms");
        assert!((value - 40.0 / 3.0).abs() < 1e-9, "{value}");
    }
}
