//! Compiled-backend benchmark: times the table-1 hot loop (one full
//! monitored LMS simulation) interpreted vs. replayed from its compiled
//! capture, then writes the result to `BENCH_compile.json`.
//!
//! ```text
//! cargo run --release -p fixref-bench --bin compile -- [--samples N] [--repeats N] [--json]
//! ```
//!
//! Defaults: `LMS_SAMPLES` samples, 5 interleaved repeats. `--json`
//! prints the JSON document to stdout instead of the text table (the
//! file is written either way).
//!
//! Exits non-zero if the replay diverges from the interpreter.
//! `first_iteration_speedup` divides a graph-recording run by the replay,
//! so it reports how much recording costs, and no flow records twice: it
//! is printed, not gated.

use std::process::ExitCode;

use fixref_bench::{run_compile_bench, BenchArgs, LMS_SAMPLES};

fn main() -> ExitCode {
    let args = BenchArgs::from_env();
    run_compile_bench(
        args.number("--samples", LMS_SAMPLES),
        args.number("--repeats", 5),
    )
    .publish(args.has("--json"))
}
