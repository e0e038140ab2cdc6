//! Allocation regression test for the dual simulation on the paper's LMS
//! equalizer (Fig. 1, `x` typed `<7,5,tc,st,rd>`).
//!
//! With graph recording off, a simulation step must not touch the heap:
//! untraced `Value` operators never look at a recording, and a typed
//! assignment buffers its quantization error in a per-signal buffer
//! allocated once. Flushing that buffer hands the recorder a histogram
//! key built when the signal was declared, and a histogram that already
//! exists takes the values without allocating. With recording on, a
//! traced operator whose node the recording already holds is one table
//! probe, and an assignment whose root the graph already holds adds
//! nothing: a step on a warm graph allocates only when a table grows.
//!
//! A counting global allocator tallies allocations per thread, so the
//! test harness's own threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use fixref::dsp::lms::equalizer_stimulus;
use fixref::dsp::{LmsConfig, LmsEqualizer};
use fixref::fixed::DType;
use fixref::obs::DefaultRecorder;
use fixref::sim::{Design, SignalRef};
use fixref_bench::paper_input_type;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator, so
// its guarantees carry over. The counter is a const-initialized
// thread-local `Cell` without a destructor: updating it neither allocates
// nor re-enters this allocator, and `try_with` skips it during thread
// teardown instead of panicking.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const WARMUP: usize = 100;
/// Longer than the 256 values a signal's monitor buffer holds, so a
/// buffer-full flush falls inside the measured steps.
const MEASURED: usize = 400;

/// Steps the paper's equalizer `WARMUP` times with `recorder` attached
/// and flushes its monitors, so every recorder key exists. Then returns
/// the allocations of each of the next `MEASURED` steps, sorted.
fn step_allocations(
    recorder: Option<Arc<DefaultRecorder>>,
    setup: impl FnOnce(&Design, &LmsEqualizer),
) -> Vec<u64> {
    let stimulus = equalizer_stimulus(7, 28.0, WARMUP + MEASURED);
    let design = Design::with_seed(0xDA7E_1999);
    let config = LmsConfig {
        input_dtype: Some(paper_input_type()),
        ..LmsConfig::default()
    };
    let eq = LmsEqualizer::new(&design, &config);
    if let Some(rec) = &recorder {
        design.attach_recorder(rec.clone());
    }
    setup(&design, &eq);
    eq.init();
    let (warmup, measured) = stimulus.split_at(WARMUP);
    for &x in warmup {
        eq.step(x);
    }
    design.flush_monitors();
    let flushed = || recorder.as_ref().map(|rec| rec.counter("sim.assignments"));
    let before_window = flushed();
    let mut counts = Vec::with_capacity(MEASURED);
    for &x in measured {
        let before = allocations();
        eq.step(x);
        counts.push(allocations() - before);
    }
    assert!(
        flushed() > before_window || recorder.is_none(),
        "no buffer-full flush fell inside the measured steps"
    );
    counts.sort_unstable();
    counts
}

#[test]
fn lms_steps_allocate_nothing_untraced_and_at_most_two_per_traced_operator() {
    let recorder = || Some(Arc::new(DefaultRecorder::new()));
    let plain = step_allocations(None, |_, _| {});
    let with_recorder = step_allocations(recorder(), |_, _| {});
    let all_typed = step_allocations(recorder(), |design, eq| {
        let wide: DType = "<16,12,tc,st,rd>".parse().expect("valid dtype");
        for id in eq.signal_ids() {
            design.set_dtype(id, Some(wide.clone()));
        }
    });
    let recording = step_allocations(recorder(), |design, _| {
        design.record_graph(true);
    });

    for (case, counts) in [
        ("no recorder", &plain),
        ("recorder attached", &with_recorder),
        ("every signal typed", &all_typed),
    ] {
        assert_eq!(
            counts.last(),
            Some(&0),
            "most allocations in an untraced step, {case}"
        );
    }
    // Each step adds the new input sample's `Const` definition, so the
    // graph's tables grow now and then; every other node and definition
    // is already there.
    let median = recording[MEASURED / 2];
    let most = recording[MEASURED - 1];
    assert_eq!(median, 0, "median allocations in a recording step");
    assert!(most <= 2, "a recording step allocated {most} times");
}

#[test]
fn a_traced_cast_on_a_warm_graph_allocates_nothing() {
    let design = Design::new();
    let t: DType = "<8,6,tc,st,rd>".parse().expect("valid dtype");
    let acc = design.reg("acc");
    let y = design.sig_typed("y", t.clone());
    let step = || {
        y.set((acc.get() * 0.5 + 0.25).cast(&t));
        acc.set(y.get() - 0.125);
        design.tick();
    };
    design.record_graph(true);
    for _ in 0..WARMUP {
        step();
    }
    let mut most = 0;
    for _ in 0..MEASURED {
        let before = allocations();
        step();
        most = most.max(allocations() - before);
    }
    design.record_graph(false);
    assert_eq!(most, 0, "most allocations in a step with a traced cast");
    let g = design.graph();
    assert_eq!(g.defs(y.id()).len(), 1, "one structure, recorded once");
}
