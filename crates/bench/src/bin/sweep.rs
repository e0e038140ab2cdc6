//! Parallel scenario-sweep benchmark: refines the LMS equalizer's MSB
//! side over a seed grid once with a single worker and once with a thread
//! pool, checks the two runs agree, and writes the timing to
//! `BENCH_parallel.json`.
//!
//! ```text
//! cargo run --release -p fixref-bench --bin sweep -- \
//!     [--scenarios N] [--samples N] [--workers N] [--json]
//! ```
//!
//! Defaults: 8 scenarios × `LMS_SAMPLES` samples, one worker per hardware
//! thread. `--json` prints the JSON document to stdout instead of the
//! text table (the file is written either way). Exits non-zero if the
//! two refinements disagree.

use std::process::ExitCode;

use fixref_bench::{run_sweep_bench, BenchArgs, Machine, LMS_SAMPLES};

fn main() -> ExitCode {
    let args = BenchArgs::from_env();
    run_sweep_bench(
        args.number("--scenarios", 8),
        args.number("--samples", LMS_SAMPLES),
        args.number("--workers", Machine::current().available_parallelism),
    )
    .expect("MSB sweep converges on the equalizer")
    .publish(args.has("--json"))
}
