//! Compiled-backend benchmark: times the table-1 hot loop (one full
//! monitored LMS simulation) interpreted vs. replayed from its compiled
//! capture, then writes the result to `BENCH_compile.json`.
//!
//! ```text
//! cargo run --release -p fixref-bench --bin compile -- [--samples N] [--repeats N] [--json]
//! ```
//!
//! Defaults: `LMS_SAMPLES` samples, 5 interleaved repeats (minimum wall
//! time wins). `--json` prints the JSON document to stdout instead of the
//! human summary (the file is written either way).
//!
//! Exits non-zero if the replay diverges from the interpreter.
//! `first_iteration_speedup` divides a graph-recording run by the replay,
//! so it reports how much recording costs, and no flow records twice: it
//! is printed, not gated.

use fixref_bench::{run_compile_bench, write_bench_json, LMS_SAMPLES};

fn parse_flag(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let samples = parse_flag(&args, "--samples", LMS_SAMPLES);
    let repeats = parse_flag(&args, "--repeats", 5);

    let result = run_compile_bench(samples, repeats);

    let rendered = result.render_json();
    write_bench_json("compile", &rendered);

    if json {
        println!("{rendered}");
    } else {
        println!("Compiled backend — LMS equalizer, {samples} samples, best of {repeats}");
        println!("===================================================================");
        println!(
            "replay: {} definition(s), {} step(s), {} cycles",
            result.definitions, result.steps, result.cycles
        );
        println!(
            "first MSB iteration (graph recording): {:.2} ms   compiled replay: {:.3} ms   speedup {:.1}x",
            result.first_iteration_ns as f64 / 1e6,
            result.compiled_ns as f64 / 1e6,
            result.first_iteration_speedup
        );
        println!(
            "steady interpreted iteration: {:.2} ms   speedup {:.1}x",
            result.interpreted_ns as f64 / 1e6,
            result.steady_speedup
        );
        println!("outcomes match: {}", result.outcomes_match);
    }

    if !result.outcomes_match {
        eprintln!("error: the compiled replay diverges from the interpreter");
        std::process::exit(1);
    }
}
