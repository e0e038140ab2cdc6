//! The metrics report: a renderable snapshot of everything a recorder
//! accumulated — counters, histograms, spans and event tallies — with
//! text output for terminals and JSON output for the `BENCH_*.json`
//! perf trajectory and other tooling.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::recorder::{DefaultRecorder, HistogramSummary, SpanRecord};

/// A point-in-time snapshot of a recorder, ready to render.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Name of the run/flow the metrics describe (the JSON `"name"`).
    pub name: String,
    /// Name-sorted counters.
    pub counters: Vec<(String, u64)>,
    /// Name-sorted histogram summaries.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Completed spans in completion order.
    pub spans: Vec<SpanRecord>,
    /// Event tallies by kind, name-sorted.
    pub event_counts: Vec<(String, u64)>,
}

impl MetricsReport {
    /// Snapshots a recorder under a report name.
    pub fn from_recorder(name: &str, recorder: &DefaultRecorder) -> Self {
        let mut tally: BTreeMap<&'static str, u64> = BTreeMap::new();
        for e in recorder.events() {
            *tally.entry(e.kind()).or_insert(0) += 1;
        }
        MetricsReport {
            name: name.to_string(),
            counters: recorder.counters(),
            histograms: recorder.histograms(),
            spans: recorder.spans(),
            event_counts: tally.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }

    /// Renders an aligned plain-text report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "metrics report — {}", self.name);
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            let w = self
                .counters
                .iter()
                .map(|(k, _)| k.len())
                .max()
                .unwrap_or(0);
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<w$}  {v}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms:");
            let w = self
                .histograms
                .iter()
                .map(|(k, _)| k.len())
                .max()
                .unwrap_or(0);
            for (k, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {k:<w$}  n={} min={:.6} mean={:.6} max={:.6}",
                    h.count,
                    h.min,
                    h.mean(),
                    h.max
                );
            }
        }
        if !self.spans.is_empty() {
            let _ = writeln!(out, "spans:");
            let w = self.spans.iter().map(|s| s.name.len()).max().unwrap_or(0);
            for s in &self.spans {
                let ms = s.wall_ns as f64 / 1e6;
                if s.cycles > 0 {
                    let _ = writeln!(
                        out,
                        "  {:<w$}  {:>10.3} ms  {:>10} cycles  ({:.1} ns/cycle)",
                        s.name,
                        ms,
                        s.cycles,
                        s.wall_ns as f64 / s.cycles as f64
                    );
                } else {
                    let _ = writeln!(out, "  {:<w$}  {:>10.3} ms", s.name, ms);
                }
            }
        }
        if !self.event_counts.is_empty() {
            let _ = writeln!(out, "events:");
            let w = self
                .event_counts
                .iter()
                .map(|(k, _)| k.len())
                .max()
                .unwrap_or(0);
            for (k, v) in &self.event_counts {
                let _ = writeln!(out, "  {k:<w$}  {v}");
            }
        }
        out
    }

    /// Renders one JSON object:
    /// `{"name", "counters", "histograms", "spans", "events"}`.
    pub fn render_json(&self) -> String {
        self.encode().to_string()
    }

    /// Parses a report back from its [`MetricsReport::render_json`] form —
    /// the round-trip used by tests and by consumers of `BENCH_*.json`.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed JSON or a missing member.
    pub fn parse_json(text: &str) -> Result<MetricsReport, JsonError> {
        MetricsReport::decode(&Json::parse(text)?)
    }
}

impl ToJson for MetricsReport {
    fn encode(&self) -> Json {
        Json::obj([
            ("name", self.name.encode()),
            ("counters", Json::map(&self.counters)),
            ("histograms", Json::map(&self.histograms)),
            ("spans", self.spans.encode()),
            ("events", Json::map(&self.event_counts)),
        ])
    }
}

impl FromJson for MetricsReport {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        Ok(MetricsReport {
            name: v.field("name")?,
            counters: v.field_with("counters", Json::entries)?,
            histograms: v.field_with("histograms", Json::entries)?,
            spans: v.field("spans")?,
            event_counts: v.field_with("events", Json::entries)?,
        })
    }
}

/// The mean is written for readers of the file and recomputed on decode.
impl ToJson for HistogramSummary {
    fn encode(&self) -> Json {
        Json::obj([
            ("count", self.count.encode()),
            ("sum", self.sum.encode()),
            ("min", self.min.encode()),
            ("max", self.max.encode()),
            ("mean", self.mean().encode()),
        ])
    }
}

impl FromJson for HistogramSummary {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        Ok(HistogramSummary {
            count: v.field("count")?,
            sum: v.field("sum")?,
            min: v.field("min")?,
            max: v.field("max")?,
        })
    }
}

impl ToJson for SpanRecord {
    fn encode(&self) -> Json {
        Json::obj([
            ("name", self.name.encode()),
            ("wall_ns", self.wall_ns.encode()),
            ("cycles", self.cycles.encode()),
            ("seq", self.seq.encode()),
        ])
    }
}

impl FromJson for SpanRecord {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        Ok(SpanRecord {
            name: v.field("name")?,
            wall_ns: v.field("wall_ns")?,
            cycles: v.field("cycles")?,
            seq: v.field("seq")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Phase};
    use crate::recorder::Recorder;

    fn sample() -> MetricsReport {
        let rec = DefaultRecorder::new();
        rec.inc("sim.ticks", 4000);
        rec.inc("sim.assignments", 56_000);
        rec.observe("flow.iter_wall_ms", 12.5);
        rec.observe("flow.iter_wall_ms", 9.25);
        rec.record_event(Event::PhaseConverged {
            phase: Phase::Msb,
            iterations: 2,
        });
        rec.record_event(Event::PhaseConverged {
            phase: Phase::Lsb,
            iterations: 1,
        });
        let id = rec.span_begin("flow.msb.iter");
        rec.span_end(id, 4000);
        MetricsReport::from_recorder("lms", &rec)
    }

    #[test]
    fn json_round_trips_exactly() {
        let report = sample();
        let json = report.render_json();
        let back = MetricsReport::parse_json(&json).unwrap();
        assert_eq!(back.name, report.name);
        assert_eq!(back.counters, report.counters);
        assert_eq!(back.spans, report.spans);
        assert_eq!(back.event_counts, report.event_counts);
        assert_eq!(back.histograms.len(), report.histograms.len());
        for ((ka, ha), (kb, hb)) in back.histograms.iter().zip(&report.histograms) {
            assert_eq!(ka, kb);
            assert_eq!(ha.count, hb.count);
            assert!((ha.sum - hb.sum).abs() < 1e-12);
        }
    }

    #[test]
    fn text_rendering_names_all_sections() {
        let text = sample().render_text();
        assert!(text.contains("counters:"));
        assert!(text.contains("sim.ticks"));
        assert!(text.contains("histograms:"));
        assert!(text.contains("spans:"));
        assert!(text.contains("cycles"));
        assert!(text.contains("events:"));
        assert!(text.contains("phase_converged"));
    }

    #[test]
    fn empty_report_renders_header_only() {
        let rec = DefaultRecorder::new();
        let report = MetricsReport::from_recorder("empty", &rec);
        let text = report.render_text();
        assert!(text.starts_with("metrics report — empty"));
        assert!(!text.contains("counters:"));
        let back = MetricsReport::parse_json(&report.render_json()).unwrap();
        assert_eq!(back.name, "empty");
        assert!(back.counters.is_empty());
    }
}
