//! Diagnostic codes, severities and the lint report.
//!
//! Codes are *stable*: `FXL001` means the same thing in every release, so
//! baselines, CI gates and `allow`/`deny` configuration can refer to them
//! by string. New passes append new codes; existing codes are never
//! renumbered.

use std::fmt;

use fixref_obs::{Json, ToJson};

/// A stable diagnostic code (`FXL###`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Code {
    /// `FXL001` — static-schedule verification: data-dependent control
    /// reaches a signal's definitions, so the author-asserted
    /// [`declare_static_schedule`](fixref_sim::Design::declare_static_schedule)
    /// contract does not hold (or must not be declared).
    StaticSchedule,
    /// `FXL002` — a feedback cycle contains no saturating or clamping
    /// node: analytical interval propagation explodes on it (the paper's
    /// Table 1 `b`/`w` failure).
    UnclampedFeedback,
    /// `FXL003` — a wrap-mode signal feeds a comparison or control
    /// decision: a wrap discontinuity flips the decision for values just
    /// past the range edge.
    WrapControl,
    /// `FXL004` — the declared `range()`/dtype of a wrap-mode signal is
    /// narrower than its propagated interval: values will alias
    /// (Section 5.1 MSB-rule violation as a static pre-check).
    WrapNarrowerThanPropagated,
    /// `FXL005` — a floor-rounded (truncating) type sits inside a
    /// feedback cycle: the half-LSB mean shift accumulates as DC bias.
    TruncationInFeedback,
    /// `FXL006` — a signal is dead (assigned, never read) or multiply
    /// defined (several distinct dataflow definitions).
    DeadOrMultiplyDefined,
}

impl Code {
    /// All codes, in numeric order.
    pub const ALL: [Code; 6] = [
        Code::StaticSchedule,
        Code::UnclampedFeedback,
        Code::WrapControl,
        Code::WrapNarrowerThanPropagated,
        Code::TruncationInFeedback,
        Code::DeadOrMultiplyDefined,
    ];

    /// The stable wire form (`"FXL001"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::StaticSchedule => "FXL001",
            Code::UnclampedFeedback => "FXL002",
            Code::WrapControl => "FXL003",
            Code::WrapNarrowerThanPropagated => "FXL004",
            Code::TruncationInFeedback => "FXL005",
            Code::DeadOrMultiplyDefined => "FXL006",
        }
    }

    /// Parses the stable wire form back into a code.
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL.into_iter().find(|c| c.as_str() == s)
    }

    /// One-line description of what the pass checks (the registry line
    /// documented in `DESIGN.md`).
    pub fn description(self) -> &'static str {
        match self {
            Code::StaticSchedule => "data-dependent control reaches signal definitions",
            Code::UnclampedFeedback => "feedback cycle without a saturating/clamping node",
            Code::WrapControl => "wrap-mode signal feeds a comparison/control decision",
            Code::WrapNarrowerThanPropagated => {
                "declared range/dtype narrower than propagated interval under wrap"
            }
            Code::TruncationInFeedback => "truncating (floor) rounding inside a feedback cycle",
            Code::DeadOrMultiplyDefined => "dead or multiply-defined signal",
        }
    }

    fn index(self) -> usize {
        match self {
            Code::StaticSchedule => 0,
            Code::UnclampedFeedback => 1,
            Code::WrapControl => 2,
            Code::WrapNarrowerThanPropagated => 3,
            Code::TruncationInFeedback => 4,
            Code::DeadOrMultiplyDefined => 5,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How much a diagnostic matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Worth knowing, never a failure by itself.
    Info,
    /// A hazard the designer should confirm.
    Warning,
    /// A broken contract or definite corruption.
    Error,
}

impl Severity {
    /// The lowercase wire form (`"info"` / `"warning"` / `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What the linter (or a gate consuming its report) does with a code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Action {
    /// Suppress: diagnostics with this code are dropped from the report.
    Allow,
    /// Report, never fail.
    #[default]
    Warn,
    /// Report and fail the consuming gate.
    Deny,
}

/// Per-code `allow`/`warn`/`deny` configuration.
///
/// The default warns on everything: reports are complete but no gate
/// fails, so enabling the linter on an existing flow is non-breaking.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintConfig {
    actions: [Action; Code::ALL.len()],
}

impl LintConfig {
    /// The all-warn default.
    pub fn new() -> Self {
        LintConfig::default()
    }

    /// The action configured for a code.
    pub fn action(&self, code: Code) -> Action {
        self.actions[code.index()]
    }

    /// Sets the action for one code (builder style).
    pub fn with(mut self, code: Code, action: Action) -> Self {
        self.actions[code.index()] = action;
        self
    }

    /// Shorthand for [`LintConfig::with`]`(code, Action::Deny)`.
    pub fn deny(self, code: Code) -> Self {
        self.with(code, Action::Deny)
    }

    /// Shorthand for [`LintConfig::with`]`(code, Action::Allow)`.
    pub fn allow(self, code: Code) -> Self {
        self.with(code, Action::Allow)
    }
}

/// A formal verdict attached to a diagnostic by the verification layer.
///
/// Lint passes are heuristic: they *flag* hazards. The bounded model
/// checker in `fixref-verify` upgrades a flag to one of three states — a
/// machine-checked proof that the hazard cannot occur, a concrete input
/// sequence that triggers it, or an honest "could not decide" with the
/// reason. Diagnostics without a verdict (`verdict: None`) render exactly
/// as before the verification layer existed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The reachable state space closed without the hazard: the warning
    /// is discharged. Gates treat a proved denied code as allowed.
    Proved,
    /// A concrete stimulus drives the design into the hazard. Gates
    /// treat this as a hard deny, with the witness attached.
    CounterexampleFound,
    /// The checker could not decide within its bounds.
    Unknown {
        /// Why (`"state_too_large"`, `"input_alphabet_too_large"`, …).
        reason: String,
    },
}

impl Verdict {
    /// The stable wire form (`"proved"` / `"counterexample"` /
    /// `"unknown(reason)"`).
    pub fn as_str(&self) -> String {
        match self {
            Verdict::Proved => "proved".to_string(),
            Verdict::CounterexampleFound => "counterexample".to_string(),
            Verdict::Unknown { reason } => format!("unknown({reason})"),
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_str())
    }
}

/// One finding of a lint pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stable code of the pass that produced it.
    pub code: Code,
    /// How much it matters.
    pub severity: Severity,
    /// The primary signal the finding is anchored to.
    pub signal: String,
    /// Human-readable explanation.
    pub message: String,
    /// Other signals involved (cycle members, mismatched producers, …).
    pub related: Vec<String>,
    /// Formal verdict, if the verification layer ran on this finding.
    pub verdict: Option<Verdict>,
}

impl Diagnostic {
    /// Serializes the diagnostic as one JSON object (no trailing
    /// newline), using the observability crate's canonical float and
    /// string encodings so output is bit-stable across platforms.
    pub fn to_json(&self) -> String {
        self.encode().to_string()
    }
}

/// A diagnostic without a verdict has no `"verdict"` member, so it
/// renders exactly as before the verification layer existed.
impl ToJson for Diagnostic {
    fn encode(&self) -> Json {
        let mut json = Json::obj([
            ("code", self.code.as_str().encode()),
            ("severity", self.severity.as_str().encode()),
            ("signal", self.signal.encode()),
            ("message", self.message.encode()),
            ("related", self.related.encode()),
        ]);
        if let (Json::Obj(members), Some(v)) = (&mut json, &self.verdict) {
            members.push(("verdict".into(), Json::Str(v.as_str())));
        }
        json
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}: {}",
            self.code, self.severity, self.signal, self.message
        )?;
        if !self.related.is_empty() {
            write!(f, " [{}]", self.related.join(", "))?;
        }
        if let Some(v) = &self.verdict {
            write!(f, " <{v}>")?;
        }
        Ok(())
    }
}

/// Renders an interval for diagnostic messages with the canonical float
/// encoding (shared with the JSONL journal, so text and JSON agree).
pub(crate) fn fmt_range(lo: f64, hi: f64) -> String {
    format!("[{}, {}]", Json::Num(lo), Json::Num(hi))
}

/// The outcome of a lint run: diagnostics sorted by `(code, signal,
/// message)` — a deterministic order independent of pass-internal hash
/// maps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    /// The surviving (non-`Allow`ed) diagnostics, sorted.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of diagnostics at a severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether the report is empty (a clean design).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The diagnostics whose code the config maps to [`Action::Deny`].
    pub fn denied<'a>(&'a self, config: &LintConfig) -> Vec<&'a Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| config.action(d.code) == Action::Deny)
            .collect()
    }

    /// The diagnostics carrying a given code.
    pub fn with_code(&self, code: Code) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Human-readable rendering: one line per diagnostic plus a summary
    /// line.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "{} error(s), {} warning(s), {} info(s)",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        );
        out
    }

    /// JSON Lines rendering: one object per diagnostic, in report order.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_json());
            out.push('\n');
        }
        out
    }

    pub(crate) fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (a.code, &a.signal, &a.message).cmp(&(b.code, &b.signal, &b.message)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_parse_back() {
        for code in Code::ALL {
            assert_eq!(Code::parse(code.as_str()), Some(code));
            assert!(code.as_str().starts_with("FXL"));
            assert!(!code.description().is_empty());
        }
        assert_eq!(Code::StaticSchedule.as_str(), "FXL001");
        assert_eq!(Code::DeadOrMultiplyDefined.as_str(), "FXL006");
        assert_eq!(Code::parse("FXL999"), None);
    }

    #[test]
    fn severity_orders_info_below_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Warning.to_string(), "warning");
    }

    #[test]
    fn config_defaults_to_warn_and_overrides_stick() {
        let cfg = LintConfig::new()
            .deny(Code::StaticSchedule)
            .allow(Code::DeadOrMultiplyDefined);
        assert_eq!(cfg.action(Code::StaticSchedule), Action::Deny);
        assert_eq!(cfg.action(Code::DeadOrMultiplyDefined), Action::Allow);
        assert_eq!(cfg.action(Code::UnclampedFeedback), Action::Warn);
    }

    fn diag(code: Code, signal: &str) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            signal: signal.into(),
            message: "m".into(),
            related: vec![],
            verdict: None,
        }
    }

    #[test]
    fn report_sorts_counts_and_filters() {
        let mut report = LintReport {
            diagnostics: vec![
                diag(Code::DeadOrMultiplyDefined, "z"),
                diag(Code::StaticSchedule, "b"),
                diag(Code::StaticSchedule, "a"),
            ],
        };
        report.sort();
        assert_eq!(report.diagnostics[0].signal, "a");
        assert_eq!(report.diagnostics[1].signal, "b");
        assert_eq!(report.diagnostics[2].code, Code::DeadOrMultiplyDefined);
        assert_eq!(report.count(Severity::Warning), 3);
        assert!(!report.is_clean());
        assert_eq!(report.with_code(Code::StaticSchedule).len(), 2);
        let denied = report.denied(&LintConfig::new().deny(Code::StaticSchedule));
        assert_eq!(denied.len(), 2);
    }

    #[test]
    fn json_escapes_quotes_and_renders_related() {
        let d = Diagnostic {
            code: Code::WrapControl,
            severity: Severity::Error,
            signal: "a\"b".into(),
            message: "back\\slash".into(),
            related: vec!["x".into(), "y".into()],
            verdict: None,
        };
        let json = d.to_json();
        assert!(json.contains(r#""signal":"a\"b""#), "{json}");
        assert!(json.contains(r#""message":"back\\slash""#), "{json}");
        assert!(json.contains(r#""related":["x","y"]"#), "{json}");
        // The whole line parses back as JSON.
        assert!(fixref_obs::Json::parse(&json).is_ok());
    }

    #[test]
    fn text_rendering_has_one_line_per_diagnostic_plus_summary() {
        let report = LintReport {
            diagnostics: vec![diag(Code::StaticSchedule, "mu")],
        };
        let text = report.render_text();
        assert!(text.contains("FXL001 warning mu: m"));
        assert!(text.ends_with("0 error(s), 1 warning(s), 0 info(s)\n"));
    }

    #[test]
    fn verdictless_diagnostics_render_exactly_as_before() {
        // Byte-identity with the pre-verification renderers: no trailing
        // verdict marker in text, no "verdict" key in JSON.
        let d = diag(Code::UnclampedFeedback, "b");
        assert_eq!(d.to_string(), "FXL002 warning b: m");
        assert_eq!(
            d.to_json(),
            r#"{"code":"FXL002","severity":"warning","signal":"b","message":"m","related":[]}"#
        );
    }

    #[test]
    fn verdicts_render_in_text_and_json() {
        let mut d = diag(Code::UnclampedFeedback, "b");
        d.verdict = Some(Verdict::Proved);
        assert!(d.to_string().ends_with("<proved>"), "{d}");
        assert!(
            d.to_json().ends_with(r#""verdict":"proved"}"#),
            "{}",
            d.to_json()
        );

        d.verdict = Some(Verdict::CounterexampleFound);
        assert!(d.to_string().ends_with("<counterexample>"));

        d.verdict = Some(Verdict::Unknown {
            reason: "state_too_large".into(),
        });
        assert!(d.to_string().ends_with("<unknown(state_too_large)>"));
        // Every variant still parses back as JSON.
        assert!(fixref_obs::Json::parse(&d.to_json()).is_ok());
    }
}
