//! Regenerates the paper's **Table 1**: MSB analysis of the Fig. 1 LMS
//! equalizer across refinement iterations.
//!
//! Expected shape (paper §6): iteration 1 resolves every signal except
//! `w` and `b`, which suffer range-propagation explosion from the
//! adaptive feedback; pinning `b`'s range (the flow's automatic
//! equivalent of the paper's `b.range(-0.2, 0.2)`) resolves both in
//! iteration 2.
//!
//! With `--json`, prints the flow's
//! [`MetricsReport`](fixref_obs::MetricsReport) as JSON instead and
//! writes it to `BENCH_table1.json` for downstream tooling.

use fixref_bench::{run_table1_report, table1_text, write_bench_json, LMS_SAMPLES};

fn main() {
    let json = std::env::args().skip(1).any(|a| a == "--json");
    let (history, interventions, report) =
        run_table1_report(LMS_SAMPLES).expect("MSB phase converges on the equalizer");

    if json {
        let rendered = report.render_json();
        write_bench_json("table1", &rendered);
        println!("{rendered}");
        return;
    }

    print!("{}", table1_text(&history, &interventions));
}
