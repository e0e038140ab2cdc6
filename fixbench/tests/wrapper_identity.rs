//! The timing wrapper must not change the program it measures: a flow
//! driven through `TimedDriver` (phase by phase, traced) decides the same
//! `FlowOutcome`, journal and counters as the library's own entry points,
//! sequentially and swept, with the cache on.

use fixbench::flowrun::{refine, TimedDriver};
use fixbench::lms_paper::{build, check_paper_tables, config, drive, flow_for};
use fixbench::trace::Tracer;
use fixref_bench::lms_shard_builder;
use fixref_core::{FlowOutcome, RefinementFlow, SequentialDriver, SimBackend, SweepDriver};
use fixref_dsp::lms::equalizer_stimulus;
use fixref_obs::Event;
use fixref_sim::ScenarioSet;

const SAMPLES: usize = 1000;

type Snapshot = (String, Vec<String>, Vec<(String, u64)>);

fn snapshot(flow: &RefinementFlow, outcome: &FlowOutcome) -> Snapshot {
    (
        format!("{outcome:?}"),
        flow.journal().iter().map(Event::to_json).collect(),
        flow.recorder().counters(),
    )
}

#[test]
fn wrapped_sequential_cached_flow_is_identical() {
    let stimulus = equalizer_stimulus(7, 28.0, SAMPLES);

    let (design, eq) = build(&config());
    let mut flow = flow_for(&design);
    flow.enable_cache();
    let outcome = flow.run(drive(&eq, &stimulus)).expect("converges");
    let plain = snapshot(&flow, &outcome);

    let tracer = Tracer::new(true);
    let (design, eq) = build(&config());
    let mut flow = flow_for(&design);
    let mut driver = TimedDriver::new(SequentialDriver::with_cache(drive(&eq, &stimulus)), &tracer);
    let outcome = refine(&mut flow, &mut driver, &tracer).expect("converges");
    assert_eq!(snapshot(&flow, &outcome), plain);
    assert!(
        flow.recorder().counter("cache.hits") > 0,
        "the cache was used"
    );
    assert_eq!(driver.sims, 4);
    assert!(driver.cycles > 0);
    assert!(tracer.spans().iter().any(|s| s.name == "sim.record"));
}

#[test]
fn wrapped_swept_compiled_cached_flow_is_identical() {
    let grid = ScenarioSet::grid(&[7, 8, 9], &[28.0], &[], &[SAMPLES]);
    let sweep = || {
        let mut s = SweepDriver::new(grid.clone(), 2, lms_shard_builder(config()));
        s.set_backend(SimBackend::Compiled);
        s.enable_cache();
        s
    };

    let (design, _eq) = build(&config());
    let mut flow = flow_for(&design);
    let outcome = flow.run_swept(&mut sweep()).expect("converges");
    let plain = snapshot(&flow, &outcome);

    let tracer = Tracer::new(true);
    let (design, _eq) = build(&config());
    let mut flow = flow_for(&design);
    let mut driver = TimedDriver::new(sweep(), &tracer);
    let outcome = refine(&mut flow, &mut driver, &tracer).expect("converges");
    assert_eq!(snapshot(&flow, &outcome), plain);
    assert!(flow.recorder().counter("backend.compiled_runs") > 0);
    let rows = tracer.per_refine();
    assert!(rows[&0]["pool.busy_ns"] > 0.0, "shard time was accounted");
}

#[test]
fn driver_path_reproduces_the_paper_tables() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    check_paper_tables(&root).expect("golden tables match");
}
