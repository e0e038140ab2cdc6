//! Regenerates the paper's **Table 2**: LSB analysis of the LMS equalizer
//! with the input quantized `<7,5,tc>` and the rule constant `k = 1` (see EXPERIMENTS.md on the OCR-ambiguous constant).
//!
//! Expected shape (paper §6): one iteration resolves the LSB position of
//! every signal; the slicer output `y` is exact (all-zero error
//! statistics) with LSB 0.
//!
//! With `--json`, prints the flow's
//! [`MetricsReport`](fixref_obs::MetricsReport) as JSON instead and
//! writes it to `BENCH_table2.json` for downstream tooling.

use fixref_bench::{run_table2_report, table2_text, write_bench_json, LMS_SAMPLES};

fn main() {
    let json = std::env::args().skip(1).any(|a| a == "--json");
    let (history, report) =
        run_table2_report(LMS_SAMPLES).expect("LSB phase converges on the equalizer");

    if json {
        let rendered = report.render_json();
        write_bench_json("table2", &rendered);
        println!("{rendered}");
        return;
    }

    print!("{}", table2_text(&history));
}
