//! Conformance suite for checkpoint/resume.
//!
//! The contract under test: a flow interrupted after any completed
//! iteration and resumed via [`RefinementFlow::resume_from`] produces a
//! journal and final annotations **bit-identical** to the uninterrupted
//! run — modulo the single `resumed_from_checkpoint` marker the resumed
//! journal is prefixed with. The matrix covers the LMS equalizer and the
//! timing-recovery loop, the evaluation cache on and off, sequential and
//! swept execution (`FIXREF_TEST_SHARDS` worker counts), and both
//! checkpoint cut points of the sequential LMS flow (after MSB iteration
//! 1 and after MSB convergence).
//!
//! A checkpoint whose next iteration reuses the flow's last simulation
//! (the MSB-convergence checkpoint, without a driver cache) carries that
//! simulation's monitors, so the resumed flow reuses them as the
//! uninterrupted one does; every other checkpoint of a cache-less flow
//! carries none.
//!
//! Also here: the serialize→deserialize identity property over seeded
//! random checkpoints, the crash-resume smoke (a checkpoint *write*
//! failure followed by an interrupt resumes from the previous good file),
//! and the write-behind contract: whichever way a flow call exits, its
//! last snapshot is on disk (or its failure journaled) when it returns.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Duration;

use fixref::obs::Event;
use fixref::refine::{
    Checkpoint, Cursor, FlowError, RefinePolicy, RefinementFlow, SequentialDriver, ShardBuilder,
    ShardStimulus, SweepDriver,
};
use fixref::sim::{shard_count_from_env, Design, FaultPlan, ScenarioSet, SignalAnnotation};
use fixref_bench::{
    lms_paper_scenario, lms_seed_grid, lms_shard_builder, paper_input_type, timing_shard_builder,
    TIMING_SNR_DB,
};
use fixref_dsp::{LmsConfig, TimingConfig};
use fixref_fixed::DType;

const LMS_SAMPLES: usize = 1200;
const TIMING_SAMPLES: usize = 4000;
const TIMING_SATURATE: [&str; 5] = ["terr", "lp", "lferr", "step", "mu"];

fn lms_config() -> LmsConfig {
    LmsConfig {
        input_dtype: Some(paper_input_type()),
        ..LmsConfig::default()
    }
}

fn timing_config() -> TimingConfig {
    TimingConfig {
        input_dtype: Some(DType::tc("T_in", 7, 5).expect("valid")),
        input_range: None,
        ..TimingConfig::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("fixref_ckpt_{name}.json"));
    let _ = std::fs::remove_file(&path);
    path
}

/// What a run is judged by: the full event journal, the design's final
/// per-signal annotations (types, pinned ranges, injected sigmas) and the
/// decided types by name. `reused` (`flow.reused_simulations`) and
/// `simulations` (stimulus calls, where counted) say how the run got its
/// monitors; they are not compared between runs.
struct RunTrace {
    journal: Vec<Event>,
    annotations: Vec<SignalAnnotation>,
    types: Vec<(String, String)>,
    reused: u64,
    simulations: usize,
}

/// Wraps a stimulus so that `calls` counts the simulations it runs.
fn counting(mut stimulus: ShardStimulus, calls: &Rc<Cell<usize>>) -> impl FnMut(&Design, usize) {
    let calls = Rc::clone(calls);
    move |d: &Design, i: usize| {
        calls.set(calls.get() + 1);
        stimulus(d, i)
    }
}

fn trace(
    design: &Design,
    flow: &RefinementFlow,
    outcome: &fixref::refine::FlowOutcome,
) -> RunTrace {
    let mut types: Vec<(String, String)> = outcome
        .types
        .iter()
        .map(|(id, t)| (design.name_of(*id), t.to_string()))
        .collect();
    types.sort();
    RunTrace {
        journal: flow.journal(),
        annotations: design.annotations(),
        types,
        reused: flow.recorder().counter("flow.reused_simulations"),
        simulations: 0,
    }
}

/// Uninterrupted sequential reference run, checkpointing along the way
/// (so its journal contains the same `checkpoint_written` events the
/// interrupted run produces).
fn cold_sequential(
    builder: Box<ShardBuilder>,
    saturate: &[&str],
    set: &ScenarioSet,
    cached: bool,
    path: &Path,
) -> RunTrace {
    let shard = builder(&set.as_slice()[0]);
    let design = shard.design;
    let calls = Rc::new(Cell::new(0));
    let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
    if cached {
        flow.enable_cache();
    }
    for name in saturate {
        flow.force_saturate(design.find(name).expect("declared"));
    }
    flow.checkpoint_to(path.to_path_buf());
    let outcome = flow
        .run(counting(shard.stimulus, &calls))
        .expect("cold flow converges");
    RunTrace {
        simulations: calls.get(),
        ..trace(&design, &flow, &outcome)
    }
}

/// Runs the flow until the injected interrupt after checkpoint
/// `abort_seq`, then resumes from the file with a fresh design and
/// completes. Saturation hints are *not* re-added on resume — they must
/// come back from the checkpoint. Returns the resumed run and the
/// checkpoint it resumed from.
fn interrupted_then_resumed_sequential(
    builder: Box<ShardBuilder>,
    saturate: &[&str],
    set: &ScenarioSet,
    cached: bool,
    path: &Path,
    abort_seq: usize,
) -> (RunTrace, Checkpoint) {
    let shard = builder(&set.as_slice()[0]);
    let design = shard.design;
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
    if cached {
        flow.enable_cache();
    }
    for name in saturate {
        flow.force_saturate(design.find(name).expect("declared"));
    }
    flow.checkpoint_to(path.to_path_buf());
    flow.set_fault_plan(FaultPlan::seeded(1).abort_after_checkpoint(abort_seq));
    let err = flow
        .run(move |d: &Design, i: usize| stimulus(d, i))
        .expect_err("injected interrupt fires");
    assert!(
        matches!(err, FlowError::Interrupted { checkpoint } if checkpoint == abort_seq),
        "unexpected error: {err}"
    );
    drop(flow);
    let checkpoint = Checkpoint::read(path).expect("checkpoint on disk");

    let shard = builder(&set.as_slice()[0]);
    let design = shard.design;
    let calls = Rc::new(Cell::new(0));
    let mut flow = RefinementFlow::resume_from(design.clone(), RefinePolicy::default(), path)
        .expect("checkpoint resumes");
    if cached {
        flow.enable_cache();
    }
    let outcome = flow
        .run(counting(shard.stimulus, &calls))
        .expect("resumed flow converges");
    let resumed = RunTrace {
        simulations: calls.get(),
        ..trace(&design, &flow, &outcome)
    };
    (resumed, checkpoint)
}

/// Asserts that a cache-less flow's checkpoint at MSB convergence
/// carries the monitors of the last MSB simulation, and that the flow
/// resumed from it reused them for LSB iteration 1 instead of
/// simulating it.
fn assert_resumed_reusing(checkpoint: &Checkpoint, resumed: &RunTrace) {
    assert_eq!(checkpoint.cursor, Cursor::Lsb { next: 1 });
    assert!(!checkpoint.cache.warm);
    assert!(
        checkpoint.cache.data.is_some(),
        "the MSB-convergence checkpoint carries the last monitors"
    );
    assert_eq!(resumed.reused, 1, "LSB iteration 1 was not simulated");
}

/// The `sequence` fields of the journal's checkpoint events matching
/// `pick`, in journal order.
fn checkpoint_sequences(journal: &[Event], pick: fn(&Event) -> Option<usize>) -> Vec<usize> {
    journal.iter().filter_map(pick).collect()
}

fn written(e: &Event) -> Option<usize> {
    match e {
        Event::CheckpointWritten { sequence, .. } => Some(*sequence),
        _ => None,
    }
}

fn failed(e: &Event) -> Option<usize> {
    match e {
        Event::CheckpointFailed { sequence, .. } => Some(*sequence),
        _ => None,
    }
}

/// Asserts the resumed trace equals the cold one modulo the leading
/// `resumed_from_checkpoint` marker.
fn assert_bit_identical(cold: &RunTrace, resumed: &RunTrace) {
    assert!(
        matches!(
            resumed.journal.first(),
            Some(Event::ResumedFromCheckpoint { .. })
        ),
        "resumed journal starts with the marker, got {:?}",
        resumed.journal.first()
    );
    assert_eq!(
        &resumed.journal[1..],
        &cold.journal[..],
        "journals diverge after the resume marker"
    );
    assert_eq!(resumed.annotations, cold.annotations, "annotations diverge");
    assert_eq!(resumed.types, cold.types, "decided types diverge");
}

#[test]
fn lms_resume_after_msb_iteration_1_is_bit_identical() {
    let set = lms_paper_scenario(LMS_SAMPLES);
    let cold = cold_sequential(
        lms_shard_builder(lms_config()),
        &[],
        &set,
        false,
        &tmp("lms_cold_a"),
    );
    let (resumed, checkpoint) = interrupted_then_resumed_sequential(
        lms_shard_builder(lms_config()),
        &[],
        &set,
        false,
        &tmp("lms_resume_a"),
        0,
    );
    assert_bit_identical(&cold, &resumed);
    // MSB iteration 2 follows a range() pin, so checkpoint 0 cannot be
    // reused and carries no monitors.
    assert_eq!(checkpoint.cursor, Cursor::Msb { next: 2 });
    assert_eq!(checkpoint.cache.data, None);
    assert_eq!(resumed.simulations, 2, "MSB iteration 2 and verification");
    assert_eq!(resumed.reused, 1);
}

#[test]
fn lms_resume_after_msb_convergence_is_bit_identical() {
    // "Interrupted after MSB iteration 2": checkpoint 1 is written when
    // the MSB phase converges on its second iteration.
    let set = lms_paper_scenario(LMS_SAMPLES);
    let cold_path = tmp("lms_cold_b");
    let cold = cold_sequential(
        lms_shard_builder(lms_config()),
        &[],
        &set,
        false,
        &cold_path,
    );
    let (resumed, checkpoint) = interrupted_then_resumed_sequential(
        lms_shard_builder(lms_config()),
        &[],
        &set,
        false,
        &tmp("lms_resume_b"),
        1,
    );
    assert_bit_identical(&cold, &resumed);
    assert_resumed_reusing(&checkpoint, &resumed);
    assert_eq!(cold.simulations, 3, "MSB 1, MSB 2, verification");
    assert_eq!(resumed.simulations, 1, "verification only");
    // The cold run's last checkpoint is at type application, after which
    // verification simulates again: it carries no monitors.
    let last = Checkpoint::read(&cold_path).expect("cold checkpoint on disk");
    assert_eq!(last.cursor, Cursor::Apply);
    assert_eq!(last.cache.data, None);
}

#[test]
fn lms_resume_with_evaluation_cache_is_bit_identical() {
    // The checkpoint serializes the warm monitor cache and the pending
    // dirty set; the resumed run replays the same cache decisions.
    let set = lms_paper_scenario(LMS_SAMPLES);
    for abort_seq in [0usize, 1] {
        let cold = cold_sequential(
            lms_shard_builder(lms_config()),
            &[],
            &set,
            true,
            &tmp(&format!("lms_cold_c{abort_seq}")),
        );
        let (resumed, checkpoint) = interrupted_then_resumed_sequential(
            lms_shard_builder(lms_config()),
            &[],
            &set,
            true,
            &tmp(&format!("lms_resume_c{abort_seq}")),
            abort_seq,
        );
        assert_bit_identical(&cold, &resumed);
        // The warm driver cache, not the flow, serves LSB iteration 1.
        assert!(checkpoint.cache.warm && checkpoint.cache.data.is_some());
        assert_eq!(resumed.reused, 0);
    }
}

#[test]
fn timing_loop_resume_is_bit_identical_and_restores_saturation_hints() {
    let set = ScenarioSet::single(31, TIMING_SNR_DB, TIMING_SAMPLES);
    for (cached, abort_seq) in [(false, 1usize), (true, 0)] {
        let tag = format!("timing_{cached}_{abort_seq}");
        let cold = cold_sequential(
            timing_shard_builder(timing_config()),
            &TIMING_SATURATE,
            &set,
            cached,
            &tmp(&format!("cold_{tag}")),
        );
        // The resumed flow gets NO force_saturate calls: the knowledge-
        // based hints must come back from the checkpoint itself.
        let (resumed, checkpoint) = interrupted_then_resumed_sequential(
            timing_shard_builder(timing_config()),
            &TIMING_SATURATE,
            &set,
            cached,
            &tmp(&format!("resume_{tag}")),
            abort_seq,
        );
        assert_bit_identical(&cold, &resumed);
        if cached {
            assert_eq!(resumed.reused, 0, "the driver cache serves");
        } else {
            assert_resumed_reusing(&checkpoint, &resumed);
        }
    }
}

#[test]
fn swept_flow_resume_is_bit_identical_across_worker_counts() {
    let workers = shard_count_from_env(2);
    let set = lms_seed_grid(2, LMS_SAMPLES);
    let master_of = |set: &ScenarioSet| lms_shard_builder(lms_config())(&set.as_slice()[0]).design;
    let sweep = |cached: bool| {
        let mut driver = SweepDriver::new(set.clone(), workers, lms_shard_builder(lms_config()));
        if cached {
            driver.enable_cache();
        }
        driver
    };

    for cached in [true, false] {
        // Cold swept reference with checkpointing.
        let cold = {
            let master = master_of(&set);
            let mut flow = RefinementFlow::new(master.clone(), RefinePolicy::default());
            flow.checkpoint_to(tmp(&format!("swept_cold_{cached}")));
            let outcome = flow
                .run_swept(&mut sweep(cached))
                .expect("cold sweep converges");
            trace(&master, &flow, &outcome)
        };

        // Interrupted after checkpoint 1 (MSB convergence), resumed with
        // a fresh master and a fresh (cold) sweep driver.
        let path = tmp(&format!("swept_resume_{cached}"));
        {
            let master = master_of(&set);
            let mut flow = RefinementFlow::new(master, RefinePolicy::default());
            flow.checkpoint_to(path.to_path_buf());
            flow.set_fault_plan(FaultPlan::seeded(1).abort_after_checkpoint(1));
            let err = flow
                .run_swept(&mut sweep(cached))
                .expect_err("interrupt fires");
            assert!(matches!(err, FlowError::Interrupted { checkpoint: 1 }));
        }
        let checkpoint = Checkpoint::read(&path).expect("checkpoint on disk");
        let resumed = {
            let master = master_of(&set);
            let mut flow =
                RefinementFlow::resume_from(master.clone(), RefinePolicy::default(), &path)
                    .expect("swept checkpoint resumes");
            let outcome = flow
                .run_swept(&mut sweep(cached))
                .expect("resumed sweep converges");
            trace(&master, &flow, &outcome)
        };
        assert_bit_identical(&cold, &resumed);
        if cached {
            // The sweep cache is not serialized: the resumed sweep
            // simulates LSB iteration 1, whose merge the cold run
            // replayed from its cache, journal and all.
            assert!(checkpoint.cache.warm);
            assert_eq!(checkpoint.cache.data, None);
            assert_eq!(resumed.reused, 0);
        } else {
            assert_resumed_reusing(&checkpoint, &resumed);
        }
    }
}

#[test]
fn crash_during_checkpoint_write_resumes_from_previous_good_file() {
    // Checkpoint 1's write fails (disk fault), then the process dies.
    // The file on disk still holds checkpoint 0, which must resume
    // cleanly and reproduce the cold run.
    let set = lms_paper_scenario(LMS_SAMPLES);
    let path = tmp("crash_resume");
    let cold = cold_sequential(
        lms_shard_builder(lms_config()),
        &[],
        &set,
        false,
        &tmp("crash_cold"),
    );

    let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
    let design = shard.design;
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
    flow.checkpoint_to(path.to_path_buf());
    flow.set_fault_plan(
        FaultPlan::seeded(3)
            .fail_checkpoint_write(1)
            .abort_after_checkpoint(1),
    );
    let err = flow
        .run(move |d: &Design, i: usize| stimulus(d, i))
        .expect_err("interrupt fires");
    assert!(matches!(err, FlowError::Interrupted { checkpoint: 1 }));
    assert_eq!(
        flow.recorder().counter("fault.checkpoint_write_failures"),
        1
    );
    assert!(flow
        .journal()
        .iter()
        .any(|e| matches!(e, Event::CheckpointFailed { sequence: 1, .. })));
    drop(flow);

    // The file holds checkpoint 0 (the failed write never landed).
    let text = std::fs::read_to_string(&path).expect("previous checkpoint survives");
    let cp = Checkpoint::from_json(&text).expect("parses");
    assert_eq!(cp.next_sequence, 1, "file is the first checkpoint");

    let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
    let design = shard.design;
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::resume_from(design.clone(), RefinePolicy::default(), &path)
        .expect("resumes from the good checkpoint");
    let outcome = flow
        .run(move |d: &Design, i: usize| stimulus(d, i))
        .expect("resumed flow converges");
    assert_bit_identical(&cold, &trace(&design, &flow, &outcome));
}

#[test]
fn torn_checkpoint_write_surfaces_a_structured_parse_error() {
    // A truncated checkpoint file — the artifact a non-atomic writer
    // leaves after a crash mid-write — must produce a structured
    // CheckpointError from resume_from, not a panic and not a silent
    // cold start.
    let set = lms_paper_scenario(LMS_SAMPLES);
    let path = tmp("torn_write");
    let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
    let design = shard.design;
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
    flow.checkpoint_to(path.to_path_buf());
    flow.set_fault_plan(FaultPlan::seeded(1).abort_after_checkpoint(0));
    let _ = flow.run(move |d: &Design, i: usize| stimulus(d, i));
    drop(flow);

    // Tear the file in half.
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    assert!(text.len() > 64, "checkpoint is non-trivial");
    std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");

    let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
    let err = RefinementFlow::resume_from(shard.design, RefinePolicy::default(), &path)
        .expect_err("torn checkpoint must be rejected");
    assert!(
        matches!(err, fixref::refine::CheckpointError::Parse(_)),
        "got {err:?}"
    );

    // A missing file is an Io error, equally structured.
    let _ = std::fs::remove_file(&path);
    let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
    let err = RefinementFlow::resume_from(shard.design, RefinePolicy::default(), &path)
        .expect_err("missing checkpoint must be rejected");
    assert!(
        matches!(err, fixref::refine::CheckpointError::Io(_)),
        "got {err:?}"
    );
}

#[test]
fn atomic_checkpoint_writes_leave_no_tmp_and_replace_whole_files() {
    // The flow's checkpoint writes go through the tmp+fsync+rename
    // path: after a successful run the destination parses, holds the
    // last snapshot the run took (the writer thread was joined before
    // `run` returned) and no *.tmp sibling is left behind.
    let set = lms_paper_scenario(LMS_SAMPLES);
    let path = tmp("atomic_write");
    let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
    let design = shard.design;
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(design, RefinePolicy::default());
    flow.checkpoint_to(path.to_path_buf());
    flow.run(move |d: &Design, i: usize| stimulus(d, i))
        .expect("flow converges");

    let text = std::fs::read_to_string(&path).expect("checkpoint on disk");
    let cp = Checkpoint::from_json(&text).expect("final checkpoint parses whole");
    let requested = checkpoint_sequences(&flow.journal(), written).len();
    assert_eq!(requested, 3, "MSB iteration 1, MSB and LSB convergence");
    assert_eq!(cp.next_sequence, requested, "file is the last snapshot");
    assert_eq!(cp.cursor, Cursor::Apply);
    let mut tmp_sibling = path.as_os_str().to_owned();
    tmp_sibling.push(".tmp");
    assert!(
        !std::path::Path::new(&tmp_sibling).exists(),
        "temporary write file must be renamed away"
    );
}

#[test]
fn a_standalone_phase_call_leaves_its_last_snapshot_on_disk() {
    // fixbench's `refine()` calls the phases one by one: each call owns
    // its checkpoint writer and joins it before returning.
    let set = lms_paper_scenario(LMS_SAMPLES);
    let path = tmp("standalone_phase");
    let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(shard.design, RefinePolicy::default());
    flow.checkpoint_to(path.to_path_buf());
    let mut driver = SequentialDriver::new(move |d: &Design, i: usize| stimulus(d, i));

    flow.run_msb_with(&mut driver).expect("MSB phase converges");
    let cp = Checkpoint::read(&path).expect("MSB checkpoint on disk");
    assert_eq!(cp.next_sequence, 2, "MSB iteration 1 and MSB convergence");
    assert_eq!(cp.cursor, Cursor::Lsb { next: 1 });

    flow.run_lsb_with(&mut driver).expect("LSB phase converges");
    let cp = Checkpoint::read(&path).expect("LSB checkpoint on disk");
    assert_eq!(cp.next_sequence, 3, "plus LSB convergence");
    assert_eq!(cp.cursor, Cursor::Apply);
}

#[test]
fn a_stimulus_panic_unwinds_run_and_leaves_the_earlier_checkpoint() {
    // The writer thread must not outlive an unwinding `run`: a flow call
    // that kept the writer's queue open would hang here. The flow runs
    // on a helper thread so that a hang fails the test instead of
    // wedging it.
    let set = lms_paper_scenario(LMS_SAMPLES);
    let path = tmp("panic_unwind");
    let cold = cold_sequential(
        lms_shard_builder(lms_config()),
        &[],
        &set,
        false,
        &tmp("panic_cold"),
    );

    let (done, outcome) = std::sync::mpsc::channel();
    let helper = {
        let (set, path) = (set.clone(), path.clone());
        std::thread::spawn(move || {
            let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
            let mut stimulus = shard.stimulus;
            let mut flow = RefinementFlow::new(shard.design, RefinePolicy::default());
            flow.checkpoint_to(path);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                flow.run(move |d: &Design, i: usize| {
                    assert!(i != 2, "stimulus fault in MSB iteration 2");
                    stimulus(d, i)
                })
            }));
            let _ = done.send(run.is_err());
        })
    };
    let panicked = outcome
        .recv_timeout(Duration::from_secs(300))
        .expect("run() unwinds instead of waiting on its checkpoint writer");
    assert!(panicked, "the stimulus panic propagates out of run()");
    helper.join().expect("helper thread finishes");

    let cp = Checkpoint::read(&path).expect("iteration-1 checkpoint on disk");
    assert_eq!(cp.next_sequence, 1, "file is the MSB iteration-1 snapshot");
    let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
    let design = shard.design;
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::resume_from(design.clone(), RefinePolicy::default(), &path)
        .expect("checkpoint resumes");
    let outcome = flow
        .run(move |d: &Design, i: usize| stimulus(d, i))
        .expect("resumed flow converges");
    assert_bit_identical(&cold, &trace(&design, &flow, &outcome));
}

#[test]
fn real_checkpoint_write_failures_are_journaled_and_change_no_outcome() {
    // A checkpoint path whose parent is a regular file: every write
    // fails with an I/O error, found when `run` joins its writer.
    let set = lms_paper_scenario(LMS_SAMPLES);
    let not_a_dir = tmp("not_a_directory");
    std::fs::write(&not_a_dir, b"a regular file").expect("parent file created");
    let run = |checkpoint: Option<PathBuf>| {
        let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
        let design = shard.design;
        let mut stimulus = shard.stimulus;
        let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
        if let Some(path) = checkpoint {
            flow.checkpoint_to(path);
        }
        let outcome = flow
            .run(move |d: &Design, i: usize| stimulus(d, i))
            .expect("flow converges");
        let counter = |name: &str| flow.recorder().counter(name);
        let counts = (
            counter("checkpoint.writes"),
            counter("fault.checkpoint_write_failures"),
        );
        let iterations = (outcome.msb_iterations, outcome.lsb_iterations);
        (trace(&design, &flow, &outcome), iterations, counts)
    };
    let (plain, plain_iterations, _) = run(None);
    let (failing, iterations, (writes, failures)) = run(Some(not_a_dir.join("ckpt.json")));

    assert_eq!(iterations, plain_iterations);
    assert_eq!(failing.types, plain.types, "decided types diverge");
    assert_eq!(failing.annotations, plain.annotations);
    let without_checkpoints: Vec<&Event> = failing
        .journal
        .iter()
        .filter(|e| written(e).is_none() && failed(e).is_none())
        .collect();
    assert_eq!(
        without_checkpoints,
        plain.journal.iter().collect::<Vec<_>>(),
        "only checkpoint events differ"
    );
    let requested = checkpoint_sequences(&failing.journal, written);
    assert_eq!(requested, vec![0, 1, 2]);
    assert_eq!(
        checkpoint_sequences(&failing.journal, failed),
        requested,
        "one failure per snapshot, in sequence order"
    );
    assert_eq!(writes, 3);
    assert_eq!(failures, writes);
    let _ = std::fs::remove_file(&not_a_dir);
}

#[test]
fn resume_against_a_mismatched_design_is_rejected() {
    let set = lms_paper_scenario(LMS_SAMPLES);
    let path = tmp("mismatch");
    let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
    let design = shard.design;
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(design, RefinePolicy::default());
    flow.checkpoint_to(path.to_path_buf());
    flow.set_fault_plan(FaultPlan::seeded(1).abort_after_checkpoint(0));
    let _ = flow.run(move |d: &Design, i: usize| stimulus(d, i));

    // A design with different signals cannot host the checkpoint.
    let other = Design::new();
    other.sig("unrelated");
    let err = RefinementFlow::resume_from(other, RefinePolicy::default(), &path)
        .expect_err("mismatch detected");
    assert!(
        matches!(err, fixref::refine::CheckpointError::Mismatch(_)),
        "got {err:?}"
    );
}

// ---------------------------------------------------------------------------
// Serialization property test
// ---------------------------------------------------------------------------

mod proptest {
    use fixref::obs::{Event, Phase};
    use fixref::refine::{CacheState, Checkpoint, Cursor, LsbStatus, MsbDecision};
    use fixref::sim::{OverflowEvent, SignalAnnotation, SignalId, SignalStats};
    use fixref_fixed::{
        DType, ErrorStats, Interval, OverflowMode, RangeStats, Rng64, RoundingMode, Signedness,
    };

    fn name(rng: &mut Rng64) -> String {
        let tokens = ["x", "acc", "err", "w0", "lp", "y\"q\\", "μ-step", ""];
        tokens[rng.below(tokens.len() as u64) as usize].to_string()
    }

    fn interval(rng: &mut Rng64) -> Interval {
        match rng.below(4) {
            0 => Interval::EMPTY,
            1 => Interval::UNBOUNDED,
            2 => Interval {
                lo: f64::NEG_INFINITY,
                hi: rng.uniform(-1.0, 1.0),
            },
            _ => {
                let lo = rng.uniform(-1e6, 1e6);
                Interval {
                    lo,
                    hi: lo + rng.uniform(0.0, 1e3),
                }
            }
        }
    }

    /// Integers from their full ranges: the codec keeps every one exact.
    fn full_usize(rng: &mut Rng64) -> usize {
        rng.next_u64() as usize
    }

    fn full_i32(rng: &mut Rng64) -> i32 {
        rng.next_u64() as i32
    }

    fn dtype(rng: &mut Rng64) -> DType {
        DType::new(
            name(rng),
            1 + rng.below(63) as i32,
            rng.below(16) as i32 - 8,
            if rng.below(2) == 0 {
                Signedness::TwosComplement
            } else {
                Signedness::Unsigned
            },
            match rng.below(3) {
                0 => OverflowMode::Wrap,
                1 => OverflowMode::Saturate,
                _ => OverflowMode::Error,
            },
            if rng.below(2) == 0 {
                RoundingMode::Round
            } else {
                RoundingMode::Floor
            },
        )
        .expect("generated dtype is valid")
    }

    fn decision(rng: &mut Rng64) -> MsbDecision {
        match rng.below(4) {
            0 => MsbDecision::Agree { msb: full_i32(rng) },
            1 => MsbDecision::Saturate {
                msb: full_i32(rng),
                guard: interval(rng),
                forced: rng.below(2) == 0,
            },
            2 => MsbDecision::Tradeoff {
                stat_msb: full_i32(rng),
                prop_msb: full_i32(rng),
                chosen: full_i32(rng),
                saturate: rng.below(2) == 0,
            },
            _ => MsbDecision::Unresolved {
                reason: format!("reason {} \"quoted\"", rng.below(100)),
            },
        }
    }

    fn checkpoint(rng: &mut Rng64) -> Checkpoint {
        let id = SignalId::from_raw(u32::MAX);
        let names: Vec<String> = (0..rng.below(4)).map(|_| name(rng)).collect();
        Checkpoint {
            cursor: match rng.below(3) {
                0 => Cursor::Msb {
                    next: full_usize(rng),
                },
                1 => Cursor::Lsb {
                    next: full_usize(rng),
                },
                _ => Cursor::Apply,
            },
            msb_done: full_usize(rng),
            lsb_done: full_usize(rng),
            next_sequence: full_usize(rng),
            msb_journal_start: full_usize(rng),
            lsb_journal_start: (rng.below(2) == 0).then(|| full_usize(rng)),
            annotations: (0..rng.below(5))
                .map(|_| SignalAnnotation {
                    name: name(rng),
                    dtype: (rng.below(2) == 0).then(|| dtype(rng)),
                    range: (rng.below(2) == 0).then(|| interval(rng)),
                    error_sigma: (rng.below(2) == 0).then(|| rng.uniform(0.0, 1.0)),
                })
                .collect(),
            pinned_explosion: names.clone(),
            force_saturate: names.clone(),
            excluded: Vec::new(),
            feedback: names.clone(),
            troubled: names,
            msb_final: (rng.below(2) == 0).then(|| {
                (0..rng.below(3))
                    .map(|_| fixref::refine::MsbAnalysis {
                        id,
                        name: name(rng),
                        accesses: rng.next_u64(),
                        stat: (rng.below(2) == 0).then(|| interval(rng)),
                        stat_msb: (rng.below(2) == 0).then(|| full_i32(rng)),
                        prop: (rng.below(2) == 0).then(|| interval(rng)),
                        prop_msb: (rng.below(2) == 0).then(|| full_i32(rng)),
                        exploded: rng.below(2) == 0,
                        decision: decision(rng),
                        mode: OverflowMode::Saturate,
                        signedness: Signedness::TwosComplement,
                    })
                    .collect()
            }),
            lsb_final: (rng.below(2) == 0).then(|| {
                (0..rng.below(3))
                    .map(|_| fixref::refine::LsbAnalysis {
                        id,
                        name: name(rng),
                        assigns: rng.next_u64(),
                        max_abs: rng.uniform(0.0, 10.0),
                        mean: rng.uniform(-1.0, 1.0),
                        std: rng.uniform(0.0, 1.0),
                        lsb: (rng.below(2) == 0).then(|| full_i32(rng)),
                        status: match rng.below(4) {
                            0 => LsbStatus::Resolved,
                            1 => LsbStatus::Exact,
                            2 => LsbStatus::Diverged,
                            _ => LsbStatus::NoData,
                        },
                        precision_loss: rng.below(2) == 0,
                        floor_mean_shift: (rng.below(2) == 0).then(|| rng.uniform(-0.1, 0.1)),
                        rounding: RoundingMode::Round,
                    })
                    .collect()
            }),
            cache: CacheState {
                warm: rng.below(2) == 0,
                dirty: (0..rng.below(3)).map(|_| name(rng)).collect(),
                data: (rng.below(2) == 0).then(|| {
                    let stats = (0..rng.below(3))
                        .map(|_| {
                            let mut stat = RangeStats::new();
                            for _ in 0..rng.below(4) {
                                stat.record(rng.uniform(-2.0, 2.0));
                            }
                            let mut err = ErrorStats::new();
                            for _ in 0..rng.below(4) {
                                err.record(rng.uniform(-1e-3, 1e-3));
                            }
                            SignalStats {
                                name: name(rng),
                                stat,
                                prop: interval(rng),
                                consumed: err,
                                produced: ErrorStats::new(),
                                overflows: rng.next_u64(),
                                reads: rng.next_u64(),
                                writes: rng.next_u64(),
                                granularity: (rng.below(2) == 0).then(|| full_i32(rng)),
                                non_dyadic: rng.below(2) == 0,
                            }
                        })
                        .collect();
                    let events = (0..rng.below(3))
                        .map(|_| OverflowEvent {
                            signal: id,
                            name: name(rng),
                            value: rng.uniform(-100.0, 100.0),
                            cycle: rng.next_u64(),
                        })
                        .collect();
                    (stats, events, rng.next_u64())
                }),
            },
            journal: vec![
                Event::IterationStarted {
                    phase: if rng.below(2) == 0 {
                        Phase::Msb
                    } else {
                        Phase::Lsb
                    },
                    iteration: full_usize(rng),
                },
                Event::CheckpointWritten {
                    sequence: full_usize(rng),
                    phase: Phase::Msb,
                    iteration: full_usize(rng),
                },
                Event::ShardFailed {
                    shard: full_usize(rng),
                    scenario: name(rng),
                    attempts: full_usize(rng),
                    cause: "panicked: \"quoted\" cause\nsecond line".into(),
                },
            ],
        }
    }

    #[test]
    fn serialize_deserialize_is_the_identity() {
        let mut rng = Rng64::seed_from_u64(0xC0FFEE);
        for case in 0..50 {
            let cp = checkpoint(&mut rng);
            let text = cp.to_json();
            let back = Checkpoint::from_json(&text)
                .unwrap_or_else(|e| panic!("case {case} failed to parse: {e}\n{text}"));
            assert_eq!(back, cp, "case {case} round-trip diverged");
        }
    }
}
