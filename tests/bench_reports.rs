//! Every committed `BENCH_*.json` file is a bench report in the one
//! schema its bin writes: it decodes into [`BenchReport`], names itself
//! after its file stem, and every metric's statistics are ordered. A file
//! in a stale schema, or edited by hand into an impossible one, fails
//! here.

use fixref_bench::BenchReport;
use fixref_obs::{FromJson, Json};

#[test]
fn every_committed_bench_file_decodes_as_a_report_named_after_its_stem() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stems = Vec::new();
    for entry in std::fs::read_dir(root).expect("reads the repository root") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let Some(stem) = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        let text = std::fs::read_to_string(&path).expect("reads the file");
        let report = Json::parse(&text)
            .and_then(|v| BenchReport::decode(&v))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.bench, stem, "{name}: bench must equal the file stem");
        assert!(report.repeats >= 1, "{name}: repeats");
        assert!(report.machine.available_parallelism >= 1, "{name}: machine");
        assert!(!report.metrics.is_empty(), "{name}: no metrics");
        for (metric, m) in &report.metrics {
            assert!(
                m.min <= m.median && m.median <= m.max,
                "{name}: {metric} has min {} median {} max {}",
                m.min,
                m.median,
                m.max
            );
        }
        stems.push(stem.to_string());
    }
    stems.sort();
    assert_eq!(
        stems,
        ["cache", "compile", "fault", "flow", "parallel", "serve", "table1", "table2", "verify"],
        "the committed bench files"
    );
}
