//! Runs the full refinement flow (MSB + LSB + verification) on the paper
//! equalizer and prints the flow's
//! [`MetricsReport`](fixref_obs::MetricsReport) — span timings, event
//! counts, simulation counters — named `flow`.
//!
//! With `--json`, prints the report as JSON and writes it to
//! `BENCH_flow.json` for downstream tooling; otherwise prints a plain
//! summary of the converged flow.

use fixref_bench::{run_flow_report, write_bench_json, LMS_SAMPLES};

fn main() {
    let json = std::env::args().skip(1).any(|a| a == "--json");
    let (outcome, report) =
        run_flow_report(LMS_SAMPLES).expect("the refinement flow converges on the equalizer");

    if json {
        let rendered = report.render_json();
        write_bench_json("flow", &rendered);
        println!("{rendered}");
        return;
    }

    println!("Refinement flow — Fig. 1 LMS equalizer, input <7,5,tc>");
    println!("======================================================");
    println!("MSB iterations: {}", outcome.msb_iterations);
    println!("LSB iterations: {}", outcome.lsb_iterations);
    println!("decided types:  {}", outcome.types.len());
    println!("interventions:  {}", outcome.interventions.len());
    for iv in &outcome.interventions {
        println!("  {iv}");
    }
}
