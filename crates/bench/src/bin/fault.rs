//! Fault-tolerance overhead benchmark: times the Table 1/2 refinement
//! flow plain vs. with per-iteration checkpointing, and the
//! `catch_unwind` shard-isolation boundary against a direct call, then
//! writes the result to `BENCH_fault.json`.
//!
//! ```text
//! cargo run --release -p fixref-bench --bin fault -- [--samples N] [--repeats N] [--json]
//! ```
//!
//! Defaults: `LMS_SAMPLES` samples, 3 interleaved repeats. `--json`
//! prints the JSON document to stdout instead of the text table (the
//! file is written either way). Exits non-zero if the checkpointed and
//! plain flows disagree; a best-run overhead above 3% is a warning.

use std::process::ExitCode;

use fixref_bench::{best_run_overhead_pct, run_fault_bench, BenchArgs, LMS_SAMPLES};

fn main() -> ExitCode {
    let args = BenchArgs::from_env();
    let report = run_fault_bench(
        args.number("--samples", LMS_SAMPLES),
        args.number("--repeats", 3),
    )
    .expect("refinement converges");
    if let Some(pct) = best_run_overhead_pct(&report).filter(|&pct| pct > 3.0) {
        eprintln!("warning: checkpoint overhead {pct:.2}% above the 3% target (noisy machine?)");
    }
    report.publish(args.has("--json"))
}
