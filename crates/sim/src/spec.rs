//! Serializable design and scenario specifications.
//!
//! A [`DesignSpec`] is the wire form of "which design to build": a
//! registered builder *kind* (designs themselves are Rust closures and
//! cannot travel over a socket), the input type to impose, and a flat
//! map of numeric parameters the builder interprets. Together with the
//! JSON form of a [`ScenarioSet`] it lets a job server reconstruct a
//! `Design` + stimulus deterministically from a submitted JSON spec:
//! the same spec always rebuilds the same design and the same scenario
//! grid, bit for bit.
//!
//! Both encode and decode through the `fixref_obs::json` codec: integers
//! exact, non-finite floats spelled as strings (`"Infinity"` for a
//! noiseless replay scenario's SNR), and structured errors naming the
//! member instead of panics.

use std::fmt;

use fixref_obs::{FromJson, Json, JsonError, ToJson};

use crate::scenario::{Scenario, ScenarioSet};

/// Why a spec document could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What went wrong, with the offending member named.
    pub message: String,
}

impl SpecError {
    /// A spec error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

/// The serializable description of a design to build.
///
/// `kind` names a builder in the consumer's design registry (e.g.
/// `"lms"`, `"timing"`); `params` are numeric knobs that builder
/// understands, kept in insertion order. The spec is plain data: two
/// equal specs reconstruct bit-identical designs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DesignSpec {
    /// Registered builder kind.
    pub kind: String,
    /// Input data type to impose, in `<n,f,…>` display form (builder
    /// default when absent).
    pub input_dtype: Option<String>,
    /// Numeric builder parameters, in insertion order.
    pub params: Vec<(String, f64)>,
}

impl DesignSpec {
    /// A spec for builder `kind` with no overrides.
    pub fn new(kind: impl Into<String>) -> Self {
        DesignSpec {
            kind: kind.into(),
            ..DesignSpec::default()
        }
    }

    /// Sets the imposed input type (display form).
    pub fn with_input_dtype(mut self, dtype: impl Into<String>) -> Self {
        self.input_dtype = Some(dtype.into());
        self
    }

    /// Appends a numeric builder parameter.
    pub fn with_param(mut self, name: impl Into<String>, value: f64) -> Self {
        self.params.push((name.into(), value));
        self
    }

    /// The value of parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<f64> {
        self.params.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Serializes the spec as one JSON object.
    pub fn to_json(&self) -> String {
        self.encode().to_string()
    }

    /// Decodes a spec from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the missing or mistyped member.
    pub fn from_value(v: &Json) -> Result<DesignSpec, SpecError> {
        DesignSpec::decode(v).map_err(|e| SpecError::new(format!("design spec: {e}")))
    }

    /// Decodes a spec from its JSON text form.
    ///
    /// # Errors
    ///
    /// [`SpecError`] on malformed JSON or missing members.
    pub fn from_json(text: &str) -> Result<DesignSpec, SpecError> {
        let v = Json::parse(text).map_err(|e| SpecError::new(format!("design spec: {e}")))?;
        DesignSpec::from_value(&v)
    }
}

impl ToJson for DesignSpec {
    fn encode(&self) -> Json {
        Json::obj([
            ("kind", self.kind.encode()),
            ("input_dtype", self.input_dtype.encode()),
            ("params", Json::map(&self.params)),
        ])
    }
}

impl FromJson for DesignSpec {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        Ok(DesignSpec {
            kind: v.field("kind")?,
            input_dtype: v.opt_field("input_dtype")?,
            params: v
                .opt_field_with("params", Json::entries)?
                .unwrap_or_default(),
        })
    }
}

impl ToJson for Scenario {
    fn encode(&self) -> Json {
        Json::obj([
            ("seed", self.seed.encode()),
            ("snr_db", self.snr_db.encode()),
            ("channel_taps", self.channel_taps.encode()),
            ("samples", self.samples.encode()),
            ("stimulus", Json::map(&self.stimulus)),
        ])
    }
}

/// The decoded scenario's `index` is a placeholder until
/// [`ScenarioSet::from_scenarios`] numbers it.
impl FromJson for Scenario {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        Ok(Scenario {
            index: 0,
            seed: v.field("seed")?,
            snr_db: v.field("snr_db")?,
            channel_taps: v.field("channel_taps")?,
            samples: v.field("samples")?,
            stimulus: v
                .opt_field_with("stimulus", Json::entries)?
                .unwrap_or_default(),
        })
    }
}

impl ToJson for ScenarioSet {
    fn encode(&self) -> Json {
        self.as_slice().encode()
    }
}

/// Scenario indices are reassigned in array order, so the decoded set
/// folds identically to the encoded one.
impl FromJson for ScenarioSet {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        let items = v
            .as_arr()
            .ok_or_else(|| JsonError::expected("an array of scenarios", v))?;
        let scenarios = items
            .iter()
            .enumerate()
            .map(|(i, s)| Scenario::decode(s).map_err(|e| e.within(format_args!("scenario {i}"))))
            .collect::<Result<_, _>>()?;
        Ok(ScenarioSet::from_scenarios(scenarios))
    }
}

/// Serializes a [`ScenarioSet`] as one JSON array of scenario objects
/// (the inverse of [`scenario_set_from_value`]). Witness stimulus
/// streams and non-finite SNRs round-trip exactly.
pub fn scenario_set_to_json(set: &ScenarioSet) -> String {
    set.encode().to_string()
}

/// Decodes a [`ScenarioSet`] from the array form written by
/// [`scenario_set_to_json`]. Scenario indices are reassigned in array
/// order, so the decoded set folds identically to the encoded one.
///
/// # Errors
///
/// [`SpecError`] naming the offending scenario and member.
pub fn scenario_set_from_value(v: &Json) -> Result<ScenarioSet, SpecError> {
    ScenarioSet::decode(v).map_err(|e| SpecError::new(format!("scenario set: {e}")))
}

/// [`scenario_set_from_value`] over JSON text.
///
/// # Errors
///
/// [`SpecError`] on malformed JSON or a malformed scenario.
pub fn scenario_set_from_json(text: &str) -> Result<ScenarioSet, SpecError> {
    let v = Json::parse(text).map_err(|e| SpecError::new(format!("scenario set: {e}")))?;
    scenario_set_from_value(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_spec_round_trips() {
        let spec = DesignSpec::new("lms")
            .with_input_dtype("<7,5,tc,st,rd>")
            .with_param("taps", 3.0)
            .with_param("mu", 0.05);
        let back = DesignSpec::from_json(&spec.to_json()).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(back.param("mu"), Some(0.05));
        assert_eq!(back.param("missing"), None);

        let bare = DesignSpec::new("timing");
        let back = DesignSpec::from_json(&bare.to_json()).expect("parses");
        assert_eq!(back, bare);
        assert_eq!(back.input_dtype, None);
    }

    #[test]
    fn malformed_design_specs_are_structured_errors() {
        assert!(DesignSpec::from_json("not json").is_err());
        assert!(DesignSpec::from_json(r#"{"params":{}}"#).is_err());
        assert!(DesignSpec::from_json(r#"{"kind":"lms","params":{"mu":"fast"}}"#).is_err());
        assert!(DesignSpec::from_json(r#"{"kind":"lms","input_dtype":7}"#).is_err());
    }

    #[test]
    fn scenario_sets_round_trip_including_witness_stimulus() {
        let grid = ScenarioSet::grid(&[1, 2], &[20.0, 28.0], &[vec![], vec![0.9, 0.1]], &[400]);
        let back = scenario_set_from_json(&scenario_set_to_json(&grid)).expect("parses");
        assert_eq!(back, grid);

        let replay = ScenarioSet::replay(
            3,
            vec![("x".into(), vec![1.0, -1.0]), ("gain".into(), vec![0.5])],
        );
        let back = scenario_set_from_json(&scenario_set_to_json(&replay)).expect("parses");
        assert_eq!(back, replay, "noiseless Infinity SNR survives");
    }

    #[test]
    fn scenario_indices_are_reassigned_in_order() {
        let set = ScenarioSet::grid(&[7, 8, 9], &[28.0], &[], &[100]);
        let back = scenario_set_from_json(&scenario_set_to_json(&set)).expect("parses");
        for (i, s) in back.iter().enumerate() {
            assert_eq!(s.index, i);
        }
    }

    #[test]
    fn malformed_scenarios_are_structured_errors() {
        assert!(scenario_set_from_json("{}").is_err());
        assert!(scenario_set_from_json(r#"[{"seed":1}]"#).is_err());
        let err = scenario_set_from_json(r#"[{"seed":1,"snr_db":"loud","samples":4}]"#)
            .expect_err("mistyped snr");
        assert!(err.to_string().contains("scenario 0"), "{err}");
    }
}
