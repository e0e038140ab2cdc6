//! Deterministic fault-injection suite for the sweep's fault-tolerance
//! layer.
//!
//! Every degradation path is driven by a seeded [`FaultPlan`] through the
//! public test seam ([`SweepDriver::inject_faults`]): injected worker
//! panics exercise strict abort, retry and quarantine; NaN stimulus
//! bursts exercise the monitors' poisoning resistance; and run budgets
//! exercise the best-effort `Partial` outcome. Nothing here is timing- or
//! scheduling-dependent — each test asserts against exact journal events
//! and replays identically across worker counts (the CI matrix sets
//! `FIXREF_TEST_SHARDS` to 1, 2 and 8).

use std::time::Duration;

use fixref::obs::Event;
use fixref::refine::{
    FaultMode, FaultPolicy, FlowError, FlowStatus, RefinePolicy, RefinementFlow, RunBudget,
    SweepDriver,
};
use fixref::sim::{shard_count_from_env, FaultPlan, ScenarioSet};
use fixref_bench::{lms_paper_scenario, lms_seed_grid, lms_shard_builder, paper_input_type};
use fixref_dsp::LmsConfig;

const SAMPLES: usize = 400;

fn lms_config() -> LmsConfig {
    LmsConfig {
        input_dtype: Some(paper_input_type()),
        ..LmsConfig::default()
    }
}

fn sweep(scenarios: ScenarioSet) -> SweepDriver {
    SweepDriver::new(
        scenarios,
        shard_count_from_env(2),
        lms_shard_builder(lms_config()),
    )
}

fn flow_for(driver: &SweepDriver) -> RefinementFlow {
    let master = lms_shard_builder(lms_config())(&driver.scenarios().as_slice()[0]).design;
    RefinementFlow::new(master, RefinePolicy::default())
}

#[test]
fn strict_mode_fails_fast_naming_the_scenario() {
    let mut driver = sweep(lms_seed_grid(8, SAMPLES));
    driver.inject_faults(FaultPlan::seeded(41).panic_on(1, 0));
    let mut flow = flow_for(&driver);

    let err = flow.run_swept(&mut driver).expect_err("shard 1 panics");
    match &err {
        FlowError::ShardFailed {
            shard,
            scenario,
            cause,
        } => {
            assert_eq!(*shard, 1);
            assert!(
                scenario.starts_with("s1 seed=8 "),
                "scenario label names the shard: {scenario}"
            );
            assert!(
                cause.contains("injected fault"),
                "cause carries the panic payload: {cause}"
            );
        }
        other => panic!("expected ShardFailed, got {other:?}"),
    }
    // The failure is journaled before the abort.
    let journal = flow.journal();
    assert!(journal
        .iter()
        .any(|e| matches!(e, Event::ShardFailed { shard: 1, .. })));
    assert_eq!(flow.recorder().counter("fault.shard_failures"), 1);
}

#[test]
fn degraded_mode_quarantines_and_reports_seven_of_eight_coverage() {
    let mut driver = sweep(lms_seed_grid(8, SAMPLES));
    driver.set_fault_policy(FaultPolicy {
        mode: FaultMode::Degraded,
        max_attempts: 1,
    });
    driver.inject_faults(FaultPlan::seeded(41).panic_on(1, 0));
    let mut flow = flow_for(&driver);

    let outcome = flow
        .run_swept(&mut driver)
        .expect("degraded sweep completes best-effort");

    let coverage = outcome.coverage.expect("sweep reports coverage");
    assert_eq!(coverage.completed, 7);
    assert_eq!(coverage.total, 8);
    assert_eq!(coverage.summary(), "7 of 8 scenarios");
    assert!(!coverage.is_full());
    assert_eq!(coverage.quarantined.len(), 1);
    assert!(coverage.quarantined[0].starts_with("s1 "));

    let journal = flow.journal();
    // Failed once, quarantined once — later iterations skip the shard
    // instead of re-failing it.
    assert_eq!(
        journal
            .iter()
            .filter(|e| matches!(e, Event::ShardFailed { shard: 1, .. }))
            .count(),
        1
    );
    assert_eq!(
        journal
            .iter()
            .filter(|e| matches!(e, Event::ShardQuarantined { shard: 1, .. }))
            .count(),
        1
    );
    // The quarantined shard never merges.
    assert!(!journal
        .iter()
        .any(|e| matches!(e, Event::ShardStarted { shard: 1, .. })));
    assert_eq!(flow.recorder().counter("retry.quarantined"), 1);
}

#[test]
fn transient_fault_is_retried_and_the_sweep_completes_fully() {
    let plan = FaultPlan::seeded(99).panic_on(2, 0); // attempt 0 only
    let run = || {
        let mut driver = sweep(lms_seed_grid(8, SAMPLES));
        driver.set_fault_policy(FaultPolicy {
            mode: FaultMode::Strict,
            max_attempts: 2,
        });
        driver.inject_faults(plan.clone());
        let mut flow = flow_for(&driver);
        let outcome = flow.run_swept(&mut driver).expect("retry recovers");
        (outcome, flow.journal())
    };

    let (outcome, journal) = run();
    let coverage = outcome.coverage.expect("coverage reported");
    assert!(coverage.is_full(), "retry restores full coverage");
    assert_eq!(coverage.summary(), "8 of 8 scenarios");
    assert!(journal.iter().any(|e| matches!(
        e,
        Event::ShardRetried {
            shard: 2,
            attempt: 1
        }
    )));
    assert!(!journal
        .iter()
        .any(|e| matches!(e, Event::ShardFailed { .. })));

    // The whole degraded machinery is deterministic: an identical rerun
    // reproduces the journal event-for-event.
    let (outcome2, journal2) = run();
    assert_eq!(journal, journal2);
    assert_eq!(outcome.types, outcome2.types);
}

#[test]
fn nan_stimulus_burst_fails_the_shard_structurally() {
    // The engine's range propagation rejects non-finite bounds, so a
    // NaN-poisoned shard fails *inside the isolation boundary* instead of
    // leaking NaN into the merged monitors.
    let mut driver = sweep(lms_seed_grid(2, SAMPLES));
    driver.inject_faults(FaultPlan::seeded(7).nan_burst(1, 16));
    let mut flow = flow_for(&driver);
    let err = flow
        .run_swept(&mut driver)
        .expect_err("poisoned shard fails");
    match &err {
        FlowError::ShardFailed { shard, cause, .. } => {
            assert_eq!(*shard, 1);
            assert!(cause.contains("NaN"), "cause names the poison: {cause}");
        }
        other => panic!("expected ShardFailed, got {other:?}"),
    }
    assert_eq!(flow.recorder().counter("fault.nan_bursts"), 1);
}

#[test]
fn degraded_mode_survives_a_nan_burst_with_reduced_coverage() {
    let mut driver = sweep(lms_seed_grid(2, SAMPLES));
    driver.set_fault_policy(FaultPolicy {
        mode: FaultMode::Degraded,
        max_attempts: 1,
    });
    driver.inject_faults(FaultPlan::seeded(7).nan_burst(1, 16));
    let mut flow = flow_for(&driver);
    let outcome = flow
        .run_swept(&mut driver)
        .expect("surviving shard carries the flow");
    let coverage = outcome.coverage.expect("coverage reported");
    assert_eq!(coverage.summary(), "1 of 2 scenarios");
    assert!(coverage.quarantined[0].starts_with("s1 "));
    // The clean shard's monitors were never contaminated: every decided
    // type is finite and well-formed.
    assert!(!outcome.types.is_empty());
    assert!(flow.recorder().counter("fault.nan_bursts") >= 1);
}

#[test]
fn simulation_budget_returns_best_effort_partial() {
    let set = lms_paper_scenario(SAMPLES);
    let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
    let design = shard.design;
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
    flow.set_budget(RunBudget::simulations(1));

    let outcome = flow
        .run(move |d, i| stimulus(d, i))
        .expect("budget exhaustion is not an error");

    assert_eq!(outcome.msb_iterations, 1, "exactly the budgeted simulation");
    assert_eq!(outcome.lsb_iterations, 0, "LSB phase never started");
    match &outcome.status {
        FlowStatus::Partial { reason } => {
            assert!(reason.contains("simulation budget"), "reason: {reason}")
        }
        FlowStatus::Complete => panic!("expected a partial outcome"),
    }
    assert!(flow.budget_exhausted().is_some());
    // Best-so-far annotations were still applied and journaled.
    assert!(!outcome.types.is_empty(), "best-effort types applied");
    assert!(flow
        .journal()
        .iter()
        .any(|e| matches!(e, Event::BudgetExhausted { .. })));
    assert_eq!(flow.recorder().counter("budget.exhausted"), 1);
}

#[test]
fn cancellation_rides_the_budget_path_and_returns_partial() {
    // A pre-cancelled token stops the flow at the first budget
    // checkpoint — exactly like a one-simulation budget: the same
    // BudgetExhausted journal event, the same `budget.exhausted`
    // counter, the same best-so-far Partial outcome. One code path for
    // "ran out" and "called off".
    let set = lms_paper_scenario(SAMPLES);
    let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
    let design = shard.design;
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
    let token = fixref::refine::CancelToken::new();
    flow.set_cancel_token(token.clone());
    token.cancel();

    let outcome = flow
        .run(move |d, i| stimulus(d, i))
        .expect("cancellation is not an error");

    assert_eq!(outcome.msb_iterations, 1, "one iteration always completes");
    assert_eq!(outcome.lsb_iterations, 0);
    match &outcome.status {
        FlowStatus::Partial { reason } => {
            assert!(reason.contains("cancelled"), "reason: {reason}")
        }
        FlowStatus::Complete => panic!("expected a partial outcome"),
    }
    assert!(!outcome.types.is_empty(), "best-effort types applied");
    assert!(flow
        .journal()
        .iter()
        .any(|e| matches!(e, Event::BudgetExhausted { .. })));
    assert_eq!(flow.recorder().counter("budget.exhausted"), 1);
}

#[test]
fn uncancelled_token_changes_nothing() {
    let set = lms_paper_scenario(SAMPLES);
    let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
    let design = shard.design;
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
    flow.set_cancel_token(fixref::refine::CancelToken::new());
    let outcome = flow
        .run(move |d, i| stimulus(d, i))
        .expect("flow converges");
    assert!(matches!(outcome.status, FlowStatus::Complete));
}

#[test]
fn zero_wall_budget_still_runs_one_simulation_then_goes_partial() {
    let set = lms_paper_scenario(SAMPLES);
    let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
    let design = shard.design;
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
    flow.set_budget(RunBudget::wall(Duration::ZERO));

    let outcome = flow
        .run(move |d, i| stimulus(d, i))
        .expect("wall exhaustion is not an error");
    assert_eq!(outcome.msb_iterations, 1);
    assert!(outcome.status.is_partial());
    assert!(flow
        .journal()
        .iter()
        .any(|e| matches!(e, Event::BudgetExhausted { .. })));
}

#[test]
fn wall_budget_charges_the_first_iteration() {
    // The wall clock starts at the first phase entry, so the record
    // iteration is charged: a first iteration that outlasts the budget
    // ends the flow right after it.
    let set = lms_paper_scenario(SAMPLES);
    let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(shard.design, RefinePolicy::default());
    flow.set_budget(RunBudget::wall(Duration::from_millis(200)));
    let mut first = true;

    let outcome = flow
        .run(move |d, i| {
            if std::mem::take(&mut first) {
                std::thread::sleep(Duration::from_millis(400));
            }
            stimulus(d, i)
        })
        .expect("wall exhaustion is not an error");

    assert_eq!(outcome.msb_iterations, 1, "stopped after MSB iteration 1");
    assert_eq!(outcome.lsb_iterations, 0);
    match &outcome.status {
        FlowStatus::Partial { reason } => {
            assert!(reason.contains("wall-clock budget"), "reason: {reason}")
        }
        FlowStatus::Complete => panic!("the first iteration was not charged"),
    }
}

#[test]
fn a_reused_simulation_counts_toward_the_simulation_budget() {
    // LMS: MSB 1, MSB 2, then LSB 1 reuses MSB 2's simulation. The reuse
    // counts one, so a budget of three stops before verification, at the
    // same point as when LSB 1 was simulated.
    let set = lms_paper_scenario(SAMPLES);
    let shard = lms_shard_builder(lms_config())(&set.as_slice()[0]);
    let mut stimulus = shard.stimulus;
    let mut flow = RefinementFlow::new(shard.design, RefinePolicy::default());
    flow.set_budget(RunBudget::simulations(3));

    let outcome = flow
        .run(move |d, i| stimulus(d, i))
        .expect("budget exhaustion is not an error");

    assert_eq!(flow.recorder().counter("flow.reused_simulations"), 1);
    assert_eq!((outcome.msb_iterations, outcome.lsb_iterations), (2, 1));
    match &outcome.status {
        FlowStatus::Partial { reason } => {
            assert_eq!(reason, "simulation budget of 3 spent (3 run)")
        }
        FlowStatus::Complete => panic!("verification ran past the budget"),
    }
    assert!(flow
        .journal()
        .iter()
        .any(|e| matches!(e, Event::BudgetExhausted { simulations: 3, .. })));
}
