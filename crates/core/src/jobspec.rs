//! Serializable refinement-job specifications.
//!
//! A [`JobSpec`] is the complete wire form of one refinement job as
//! submitted to the job server: which tenant owns it, which design to
//! build ([`DesignSpec`] resolved through the server's builder
//! registry), which scenarios to sweep, and how to drive the flow
//! ([`FlowSpec`]: backend, cache, shard count, budgets, retry
//! attempts). The spec is plain data — the same spec always
//! reconstructs the same [`RefinementFlow`] configuration, which is
//! what makes crash recovery bit-identical: a recovered job re-runs
//! from its journaled spec, not from in-memory state.

use std::time::Duration;

use fixref_obs::{FromJson, Json, JsonError, ToJson};
use fixref_sim::{DesignSpec, ScenarioSet, SpecError};

use crate::flow::{RefinementFlow, RunBudget};

/// The backend names a [`FlowSpec`] accepts.
const BACKENDS: [&str; 2] = ["interpreted", "compiled"];

/// How to drive the refinement flow for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Evaluation backend name: `"interpreted"` or `"compiled"`. Both
    /// run the interpreter. The compiled replay is a setting of the
    /// sweep driver alone, which a job never selects; `"compiled"` stays
    /// accepted so that job logs and specs written when it did still
    /// decode and run, with the same results.
    pub backend: String,
    /// Whether to enable the cross-iteration evaluation cache.
    pub cache: bool,
    /// Shard count for swept runs; `0` runs the sequential flow over
    /// the first scenario only.
    pub shards: usize,
    /// Simulation budget (`None` = unbounded).
    pub max_simulations: Option<u64>,
    /// Wall-clock budget in milliseconds (`None` = unbounded).
    pub wall_ms: Option<u64>,
    /// Worker attempts per shard before the job's fault policy gives
    /// up (1 = no retries).
    pub max_attempts: usize,
    /// Signals to force onto the saturation path before the flow runs
    /// (the paper's knowledge-based hints, e.g. the timing loop's
    /// feedback signals). Unknown names are rejected at job start.
    pub force_saturate: Vec<String>,
}

impl Default for FlowSpec {
    fn default() -> Self {
        FlowSpec {
            backend: "interpreted".into(),
            cache: false,
            shards: 0,
            max_simulations: None,
            wall_ms: None,
            max_attempts: 1,
            force_saturate: Vec::new(),
        }
    }
}

impl FlowSpec {
    /// Checks that the spec names a known backend.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for an unknown backend name.
    pub fn check_backend(&self) -> Result<(), SpecError> {
        if BACKENDS.contains(&self.backend.as_str()) {
            return Ok(());
        }
        Err(SpecError::new(format!(
            "flow spec: unknown backend {:?} (expected {})",
            self.backend,
            BACKENDS.join(", ")
        )))
    }

    /// Applies the spec's run budget to a freshly constructed flow. The
    /// `cache` flag is left to the caller (sequential runs enable it on
    /// the flow, swept runs on the sweep driver), as are shard count and
    /// retry attempts.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for an unknown backend name.
    pub fn configure(&self, flow: &mut RefinementFlow) -> Result<(), SpecError> {
        self.check_backend()?;
        let mut budget = RunBudget::default();
        if let Some(max) = self.max_simulations {
            budget = RunBudget::simulations(max);
        }
        if let Some(ms) = self.wall_ms {
            budget.wall = Some(Duration::from_millis(ms));
        }
        if budget.wall.is_some() || budget.max_simulations.is_some() {
            flow.set_budget(budget);
        }
        Ok(())
    }
}

impl ToJson for FlowSpec {
    fn encode(&self) -> Json {
        Json::obj([
            ("backend", self.backend.encode()),
            ("cache", self.cache.encode()),
            ("shards", self.shards.encode()),
            ("max_simulations", self.max_simulations.encode()),
            ("wall_ms", self.wall_ms.encode()),
            ("max_attempts", self.max_attempts.encode()),
            ("force_saturate", self.force_saturate.encode()),
        ])
    }
}

/// Absent or `null` members take their defaults. The backend name is
/// validated here so a bad spec is rejected at admission, not mid-run.
impl FromJson for FlowSpec {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        let defaults = FlowSpec::default();
        let spec = FlowSpec {
            backend: v.opt_field("backend")?.unwrap_or(defaults.backend),
            cache: v.opt_field("cache")?.unwrap_or(defaults.cache),
            shards: v.opt_field("shards")?.unwrap_or(defaults.shards),
            max_simulations: v.opt_field("max_simulations")?,
            wall_ms: v.opt_field("wall_ms")?,
            max_attempts: v
                .opt_field::<usize>("max_attempts")?
                .unwrap_or(defaults.max_attempts)
                .max(1),
            force_saturate: v.opt_field("force_saturate")?.unwrap_or_default(),
        };
        spec.check_backend()
            .map_err(|e| JsonError::new(e.message))?;
        Ok(spec)
    }
}

/// One refinement job, in serializable form.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Owning tenant (fair-share scheduling key).
    pub tenant: String,
    /// Which design to build.
    pub design: DesignSpec,
    /// Scenario set to sweep (or whose first scenario to run
    /// sequentially when `flow.shards == 0`).
    pub scenarios: ScenarioSet,
    /// Flow configuration.
    pub flow: FlowSpec,
}

impl JobSpec {
    /// A job for `tenant` over `design` and `scenarios` with default
    /// flow settings.
    pub fn new(tenant: impl Into<String>, design: DesignSpec, scenarios: ScenarioSet) -> Self {
        JobSpec {
            tenant: tenant.into(),
            design,
            scenarios,
            flow: FlowSpec::default(),
        }
    }

    /// Replaces the flow configuration.
    pub fn with_flow(mut self, flow: FlowSpec) -> Self {
        self.flow = flow;
        self
    }

    /// Serializes the job as one JSON object.
    pub fn to_json(&self) -> String {
        self.encode().to_string()
    }

    /// Decodes a job from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the missing or mistyped member. Backend
    /// names are validated here so a bad spec is rejected at admission.
    pub fn from_value(v: &Json) -> Result<JobSpec, SpecError> {
        JobSpec::decode(v).map_err(|e| SpecError::new(format!("job spec: {e}")))
    }

    /// Decodes a job from its JSON text form.
    ///
    /// # Errors
    ///
    /// [`SpecError`] on malformed JSON or missing members.
    pub fn from_json(text: &str) -> Result<JobSpec, SpecError> {
        let v = Json::parse(text).map_err(|e| SpecError::new(format!("job spec: {e}")))?;
        JobSpec::from_value(&v)
    }
}

impl ToJson for JobSpec {
    fn encode(&self) -> Json {
        Json::obj([
            ("tenant", self.tenant.encode()),
            ("design", self.design.encode()),
            ("scenarios", self.scenarios.encode()),
            ("flow", self.flow.encode()),
        ])
    }
}

impl FromJson for JobSpec {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        let tenant: String = v.field("tenant")?;
        if tenant.is_empty() {
            return Err(JsonError::new("member \"tenant\" must be non-empty"));
        }
        let design = v.field("design")?;
        let scenarios: ScenarioSet = v.field("scenarios")?;
        if scenarios.is_empty() {
            return Err(JsonError::new("member \"scenarios\" must be non-empty"));
        }
        Ok(JobSpec {
            tenant,
            design,
            scenarios,
            flow: v.opt_field("flow")?.unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobSpec {
        JobSpec::new(
            "acme",
            DesignSpec::new("lms")
                .with_input_dtype("<7,5,tc,st,rd>")
                .with_param("mu", 0.05),
            ScenarioSet::grid(&[1, 2], &[28.0], &[], &[400]),
        )
        .with_flow(FlowSpec {
            backend: "compiled".into(),
            cache: true,
            shards: 2,
            max_simulations: Some(12),
            wall_ms: Some(60_000),
            max_attempts: 3,
            force_saturate: vec!["terr".into(), "lp".into()],
        })
    }

    #[test]
    fn job_specs_round_trip() {
        let spec = sample();
        let back = JobSpec::from_json(&spec.to_json()).expect("parses");
        assert_eq!(back, spec);

        // Defaults kick in for an absent flow object.
        let bare = JobSpec::new(
            "t",
            DesignSpec::new("timing"),
            ScenarioSet::single(7, 20.0, 100),
        );
        let back = JobSpec::from_json(&bare.to_json()).expect("parses");
        assert_eq!(back, bare);
        assert_eq!(back.flow, FlowSpec::default());
    }

    #[test]
    fn malformed_job_specs_are_rejected_at_parse_time() {
        assert!(JobSpec::from_json("[]").is_err());
        assert!(
            JobSpec::from_json(r#"{"tenant":"","design":{"kind":"lms"},"scenarios":[]}"#).is_err()
        );
        let no_scenarios = r#"{"tenant":"t","design":{"kind":"lms"},"scenarios":[]}"#;
        assert!(JobSpec::from_json(no_scenarios).is_err());
        let bad_backend = r#"{"tenant":"t","design":{"kind":"lms"},
            "scenarios":[{"seed":1,"snr_db":28,"channel_taps":[],"samples":4}],
            "flow":{"backend":"gpu"}}"#;
        let err = JobSpec::from_json(bad_backend).expect_err("unknown backend");
        assert!(err.to_string().contains("backend"), "{err}");
        // The removed lane-batching backend is an unknown name like any
        // other, and the error lists the names that remain.
        let batched = bad_backend.replace("gpu", "batched");
        let err = JobSpec::from_json(&batched).expect_err("batched is gone");
        assert!(
            err.to_string()
                .contains(r#"unknown backend "batched" (expected interpreted, compiled)"#),
            "{err}"
        );
    }

    #[test]
    fn flow_spec_configures_a_flow() {
        use crate::policy::RefinePolicy;
        use fixref_sim::Design;

        let spec = sample();
        let d = Design::new();
        d.sig("x");
        let mut flow = RefinementFlow::new(d.clone(), RefinePolicy::default());
        spec.flow.configure(&mut flow).expect("valid backend");

        let bad = FlowSpec {
            backend: "quantum".into(),
            ..FlowSpec::default()
        };
        assert!(bad.check_backend().is_err());
        assert!(bad
            .configure(&mut RefinementFlow::new(d, RefinePolicy::default()))
            .is_err());
    }

    #[test]
    fn seeds_past_two_to_the_53_round_trip_exactly() {
        for seed in [(1u64 << 53) + 1, u64::MAX] {
            let spec = JobSpec::new(
                "t",
                DesignSpec::new("lms"),
                ScenarioSet::single(seed, 28.0, 400),
            );
            let back = JobSpec::from_json(&spec.to_json()).expect("parses");
            assert_eq!(back.scenarios.as_slice()[0].seed, seed);
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn samples_that_do_not_fit_exactly_are_errors_naming_the_member() {
        let template = r#"{"tenant":"t","design":{"kind":"lms"},
            "scenarios":[{"seed":1,"snr_db":28,"channel_taps":[],"samples":SAMPLES}]}"#;
        for samples in ["1e30", "-1", "1.5", "18446744073709551616"] {
            let err = JobSpec::from_json(&template.replace("SAMPLES", samples))
                .expect_err("samples must fit usize exactly");
            assert!(err.to_string().contains(r#""samples""#), "{samples}: {err}");
        }
        let spec = JobSpec::from_json(&template.replace("SAMPLES", "1e3")).expect("whole float");
        assert_eq!(spec.scenarios.as_slice()[0].samples, 1000);
    }

    #[test]
    fn max_attempts_is_clamped_to_at_least_one() {
        let text = r#"{"tenant":"t","design":{"kind":"lms"},
            "scenarios":[{"seed":1,"snr_db":28,"channel_taps":[],"samples":4}],
            "flow":{"max_attempts":0}}"#;
        let spec = JobSpec::from_json(text).expect("parses");
        assert_eq!(spec.flow.max_attempts, 1);
    }
}
