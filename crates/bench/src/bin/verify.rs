//! Runs the formal verification bench over every example design.
//!
//! ```text
//! cargo run --release -p fixref-bench --bin verify
//! ```
//!
//! Prints each example's verdict-annotated report (the text
//! `tests/golden/verify_*.txt` pins in CI), then the timing figures —
//! BMC states/second and proof wall-time per design — which it also
//! writes to `BENCH_verify.json`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let examples = fixref_bench::verify_example_designs();
    for ex in &examples {
        println!("=== {} ===", ex.name);
        print!("{}", ex.verified.render_text());
        println!();
    }
    fixref_bench::verify_bench_report(&examples).publish(false)
}
