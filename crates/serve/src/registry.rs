//! The server's design registry: `DesignSpec.kind` → shard builder.
//!
//! Designs are Rust closures and cannot travel over a socket, so a
//! submitted job names a *registered* builder kind and the registry
//! reconstructs the design deterministically from the spec's numeric
//! parameters. The built-in kinds are the paper's two reference
//! designs — the Fig. 1 LMS equalizer (`"lms"`) and the §6.1
//! timing-recovery loop (`"timing"`) — through the shard builders of
//! `fixref-dsp` that the benchmark harness uses too, so a served job is
//! bit-comparable to a direct run of the same spec.

use fixref_core::ShardBuilder;
use fixref_dsp::{lms, timing_loop, LmsConfig, TimingConfig};
use fixref_fixed::DType;
use fixref_sim::{DesignSpec, SpecError};

/// A factory turning a validated [`DesignSpec`] into a shard builder.
pub type BuilderFactory = dyn Fn(&DesignSpec) -> Result<Box<ShardBuilder>, SpecError> + Send + Sync;

/// Registry of design kinds the server can reconstruct.
pub struct DesignRegistry {
    kinds: Vec<(String, Box<BuilderFactory>)>,
}

impl DesignRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        DesignRegistry { kinds: Vec::new() }
    }

    /// The built-in registry: `"lms"` and `"timing"`.
    pub fn builtin() -> Self {
        let mut reg = Self::empty();
        reg.register("lms", |spec| {
            let config = lms_config_from(spec)?;
            Ok(lms::shard_builder(config))
        });
        reg.register("timing", |spec| {
            let config = timing_config_from(spec)?;
            Ok(timing_loop::shard_builder(config))
        });
        reg
    }

    /// Registers (or replaces) a design kind.
    pub fn register(
        &mut self,
        kind: impl Into<String>,
        factory: impl Fn(&DesignSpec) -> Result<Box<ShardBuilder>, SpecError> + Send + Sync + 'static,
    ) {
        let kind = kind.into();
        self.kinds.retain(|(k, _)| *k != kind);
        self.kinds.push((kind, Box::new(factory)));
    }

    /// The registered kind names, in registration order.
    pub fn kinds(&self) -> Vec<&str> {
        self.kinds.iter().map(|(k, _)| k.as_str()).collect()
    }

    /// Builds the shard builder for `spec`.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for an unregistered kind or invalid parameters.
    pub fn build(&self, spec: &DesignSpec) -> Result<Box<ShardBuilder>, SpecError> {
        let factory = self
            .kinds
            .iter()
            .find(|(k, _)| *k == spec.kind)
            .map(|(_, f)| f)
            .ok_or_else(|| {
                SpecError::new(format!(
                    "unknown design kind {:?} (registered: {})",
                    spec.kind,
                    self.kinds().join(", ")
                ))
            })?;
        factory(spec)
    }
}

impl std::fmt::Debug for DesignRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesignRegistry")
            .field("kinds", &self.kinds())
            .finish()
    }
}

fn parse_dtype(spec: &DesignSpec) -> Result<Option<DType>, SpecError> {
    match &spec.input_dtype {
        None => Ok(None),
        Some(text) => text
            .parse::<DType>()
            .map(Some)
            .map_err(|e| SpecError::new(format!("input_dtype {text:?}: {e}"))),
    }
}

fn lms_config_from(spec: &DesignSpec) -> Result<LmsConfig, SpecError> {
    let mut config = LmsConfig {
        input_dtype: parse_dtype(spec)?,
        ..LmsConfig::default()
    };
    if let Some(mu) = spec.param("mu") {
        if !(mu.is_finite() && mu > 0.0) {
            return Err(SpecError::new(format!(
                "lms: mu must be positive, got {mu}"
            )));
        }
        config.mu = mu;
    }
    Ok(config)
}

fn timing_config_from(spec: &DesignSpec) -> Result<TimingConfig, SpecError> {
    let mut config = TimingConfig {
        input_dtype: parse_dtype(spec)?,
        ..TimingConfig::default()
    };
    if config.input_dtype.is_some() {
        config.input_range = None;
    }
    if let Some(kp) = spec.param("kp") {
        config.kp = kp;
    }
    if let Some(ki) = spec.param("ki") {
        config.ki = ki;
    }
    if let Some(taps) = spec.param("rx_taps") {
        if taps < 1.0 || taps.fract() != 0.0 {
            return Err(SpecError::new(format!(
                "timing: rx_taps must be a positive integer, got {taps}"
            )));
        }
        config.rx_taps = taps as usize;
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_sim::ScenarioSet;

    #[test]
    fn builtin_registry_knows_both_reference_designs() {
        let reg = DesignRegistry::builtin();
        assert_eq!(reg.kinds(), ["lms", "timing"]);
        assert!(reg.build(&DesignSpec::new("lms")).is_ok());
        assert!(reg.build(&DesignSpec::new("timing")).is_ok());
        let err = match reg.build(&DesignSpec::new("fft")) {
            Err(e) => e,
            Ok(_) => panic!("unknown kind must be rejected"),
        };
        assert!(err.to_string().contains("fft"), "{err}");
    }

    #[test]
    fn invalid_parameters_are_rejected_structurally() {
        let reg = DesignRegistry::builtin();
        assert!(reg
            .build(&DesignSpec::new("lms").with_param("mu", -1.0))
            .is_err());
        assert!(reg
            .build(&DesignSpec::new("timing").with_param("rx_taps", 2.5))
            .is_err());
        assert!(reg
            .build(&DesignSpec::new("lms").with_input_dtype("<bogus>"))
            .is_err());
    }

    #[test]
    fn same_spec_builds_bit_identical_shards() {
        let reg = DesignRegistry::builtin();
        let spec = DesignSpec::new("lms").with_input_dtype("<7,5,tc,st,rd>");
        let set = ScenarioSet::single(7, 28.0, 200);
        let scenario = &set.as_slice()[0];
        let mut a = reg.build(&spec).expect("builds")(scenario);
        let mut b = reg.build(&spec).expect("builds")(scenario);
        (a.stimulus)(&a.design, 0);
        (b.stimulus)(&b.design, 0);
        assert_eq!(a.design.export_stats(), b.design.export_stats());
    }
}
