//! Fault-tolerance overhead benchmark.
//!
//! Measures what the robustness layer costs when nothing goes wrong —
//! the only regime that matters for the common case:
//!
//! 1. **Checkpointing**: the full Table 1/2 refinement flow (the LMS
//!    equalizer that produces the paper's MSB and LSB tables) run plain
//!    vs. with per-iteration checkpoint writes enabled, `repeats`
//!    interleaved pairs of wall-clock runs. The checkpointed flow serializes its complete state (journal
//!    included) after every iteration and the interrupt seam stays armed
//!    but silent.
//! 2. **Shard isolation**: the per-job cost of the `catch_unwind`
//!    boundary every pool worker now runs under, measured directly
//!    against the same closure called without isolation.
//!
//! Honesty note: single-process wall-clock measurements on a shared
//! machine are noisy; the report gives each flow's median, best and worst
//! over the repeats, the overhead both in percent and as wall time per
//! checkpoint (`per_checkpoint_ms`, which a faster flow leaves alone),
//! and the <3% overhead target is judged on the best
//! runs ([`best_run_overhead_pct`]), so it can be re-checked rather
//! than trusted.

use std::time::Instant;

use fixref_core::{FlowError, RefinePolicy, RefinementFlow};
use fixref_dsp::LmsConfig;
use fixref_sim::{run_shards_isolated, RetryPolicy, Scenario, ScenarioSet, ShardOutcome};

use crate::report::{ms, BenchReport, Metric};
use crate::sweep::{lms_paper_scenario, lms_shard_builder};
use crate::{decided_types, paper_input_type};

fn lms_config() -> LmsConfig {
    LmsConfig {
        input_dtype: Some(paper_input_type()),
        ..LmsConfig::default()
    }
}

/// One full refinement flow over the paper scenario; returns the decided
/// types (by signal name) and, when `checkpoint` is set, the flow's
/// checkpoint accounting.
fn run_flow(
    set: &ScenarioSet,
    checkpoint: Option<&std::path::Path>,
) -> Result<(Vec<(String, String)>, u64), FlowError> {
    let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
    let design = shard.design;
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
    if let Some(path) = checkpoint {
        flow.checkpoint_to(path);
    }
    let outcome = flow.run(move |d, i| stimulus(d, i))?;
    Ok((
        decided_types(&design, &outcome),
        flow.recorder().counter("checkpoint.writes"),
    ))
}

/// Runs the overhead measurement: `repeats` interleaved pairs of plain
/// and checkpointed flows; the isolation micro-bench runs 4096 jobs once.
/// Checks that both flows decide the same types.
///
/// # Errors
///
/// Propagates [`FlowError`] if the refinement cannot converge.
pub fn run_fault_bench(samples: usize, repeats: usize) -> Result<BenchReport, FlowError> {
    let repeats = repeats.max(1);
    let set = lms_paper_scenario(samples);
    let path = std::env::temp_dir().join("fixref_faultbench_ckpt.json");

    // Interleave the variants (plain, checkpointed, plain, …) so a
    // background-load spike on a shared machine hits both instead of
    // biasing whichever block it happened to land on.
    let mut plain = Vec::with_capacity(repeats);
    let mut plain_types = Vec::new();
    let mut checkpointed = Vec::with_capacity(repeats);
    let mut checkpointed_types = Vec::new();
    let mut checkpoints_written = 0;
    for _ in 0..repeats {
        let start = Instant::now();
        let (types, _) = run_flow(&set, None)?;
        plain.push(ms(start.elapsed().as_nanos()));
        plain_types = types;

        let start = Instant::now();
        let (types, written) = run_flow(&set, Some(&path))?;
        checkpointed.push(ms(start.elapsed().as_nanos()));
        checkpointed_types = types;
        checkpoints_written = written;
    }
    let checkpoint_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&path);

    // Isolation micro-bench: the same tiny job through the isolated pool
    // (sequential path: one catch_unwind per job) and called directly.
    const JOBS: usize = 4096;
    let scenarios: Vec<Scenario> = lms_paper_scenario(64).as_slice().to_vec();
    let job = |s: &Scenario, _attempt: usize| -> u64 {
        let mut acc = s.seed;
        for i in 0..256u64 {
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ i;
        }
        acc
    };
    let start = Instant::now();
    let mut sink = 0u64;
    for _ in 0..JOBS {
        let outcomes = run_shards_isolated(&scenarios, 1, RetryPolicy::default(), job);
        if let Some(ShardOutcome::Completed { value, .. }) = outcomes.first() {
            sink ^= value;
        }
    }
    let isolated_ns = start.elapsed().as_nanos() as f64 / JOBS as f64;
    let start = Instant::now();
    for _ in 0..JOBS {
        sink ^= job(&scenarios[0], 0);
    }
    let direct_ns = start.elapsed().as_nanos() as f64 / JOBS as f64;
    std::hint::black_box(sink);

    let overhead: Vec<f64> = plain
        .iter()
        .zip(&checkpointed)
        .map(|(p, c)| (c / p - 1.0) * 100.0)
        .collect();
    // The same cost in absolute terms: a faster flow raises the
    // percentage while each checkpoint costs what it did.
    let per_checkpoint: Vec<f64> = plain
        .iter()
        .zip(&checkpointed)
        .map(|(p, c)| (c - p) / checkpoints_written as f64)
        .collect();
    Ok(BenchReport::new("fault", repeats)
        .metric("samples", Metric::once("count", samples as f64))
        .metric("plain_ms", Metric::over("ms", &plain))
        .metric("checkpointed_ms", Metric::over("ms", &checkpointed))
        .metric("checkpoint_overhead_pct", Metric::over("%", &overhead))
        .metric("per_checkpoint_ms", Metric::over("ms", &per_checkpoint))
        .metric(
            "checkpoints_written",
            Metric::once("count", checkpoints_written as f64),
        )
        .metric(
            "checkpoint_bytes",
            Metric::once("bytes", checkpoint_bytes as f64),
        )
        .metric("isolated_ns_per_job", Metric::once("ns", isolated_ns))
        .metric("direct_ns_per_job", Metric::once("ns", direct_ns))
        .metric(
            "isolation_cost_ns",
            Metric::once("ns", isolated_ns - direct_ns),
        )
        .check(
            "outcomes_match",
            plain_types == checkpointed_types && !plain_types.is_empty(),
        ))
}

/// The checkpoint overhead the 3% target is judged on: the best
/// checkpointed flow against the best plain one, in percent (negative
/// is noise).
pub fn best_run_overhead_pct(report: &BenchReport) -> Option<f64> {
    let best = |name: &str| report.get(name).map(|m| m.min);
    Some((best("checkpointed_ms")? / best("plain_ms")? - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_bench_runs_and_outcomes_match() {
        let report = run_fault_bench(400, 1).expect("flow converges");
        assert!(report.passed(), "checkpointing changed the outcome");
        let median = |name: &str| report.get(name).map(|m| m.median);
        assert!(
            median("checkpoints_written") >= Some(3.0),
            "3 iterations checkpointed"
        );
        assert!(median("checkpoint_bytes") > Some(0.0));
        assert!(report.get("per_checkpoint_ms").is_some());
        assert!(best_run_overhead_pct(&report).is_some());
    }
}
