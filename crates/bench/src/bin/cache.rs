//! Evaluation-cache benchmark: times one cold LMS simulation against a
//! warm monitor replay, and the full refinement flow with the cache off
//! and on, then writes the result to `BENCH_cache.json`.
//!
//! ```text
//! cargo run --release -p fixref-bench --bin cache -- [--samples N] [--json]
//! ```
//!
//! Defaults: `LMS_SAMPLES` samples. `--json` prints the JSON document to
//! stdout instead of the text table (the file is written either way).
//! Exits non-zero if the cached and uncached flows disagree or the warm
//! replay is less than 1.5x faster than a cold simulation.

use std::process::ExitCode;

use fixref_bench::{run_cache_bench, BenchArgs, LMS_SAMPLES};

fn main() -> ExitCode {
    let args = BenchArgs::from_env();
    run_cache_bench(args.number("--samples", LMS_SAMPLES))
        .expect("refinement converges on the equalizer")
        .publish(args.has("--json"))
}
