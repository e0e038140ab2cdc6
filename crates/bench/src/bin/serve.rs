//! Job-server benchmark: throughput at queue depths 1/8/64, per-job
//! submit-to-complete latency and crash-recovery time, written to
//! `BENCH_serve.json`.
//!
//! ```text
//! cargo run --release -p fixref-bench --bin serve -- [--samples N] [--json]
//! ```
//!
//! Defaults: 120-sample LMS jobs (small on purpose — the flow itself,
//! not the stimulus, is what the server schedules around). Exits
//! non-zero if a job recovered after the injected crash does not finish
//! complete.

use std::process::ExitCode;

use fixref_bench::{run_serve_bench, BenchArgs};

fn main() -> ExitCode {
    let args = BenchArgs::from_env();
    run_serve_bench(args.number("--samples", 120), &[1, 8, 64]).publish(args.has("--json"))
}
