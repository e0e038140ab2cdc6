//! `fixref-obs` — zero-dependency observability for the fixed-point
//! refinement flow.
//!
//! Three layers, each usable on its own:
//!
//! 1. **[`Recorder`]** — a thread-safe metrics sink: monotonic counters,
//!    min/max/mean histograms, and phase-scoped [`Span`]s with wall-clock
//!    and cycle-accurate timing. [`DefaultRecorder`] is the in-memory
//!    implementation; anything `Send + Sync` can stand in for it.
//! 2. **[`Event`] journal** — a structured record of what the refinement
//!    flow *did* (`overflow_detected`, `auto_range`, `phase_converged`,
//!    …), serialized as JSON Lines with [`JournalWriter`] / [`to_jsonl`]
//!    and parsed back with [`parse_journal`].
//! 3. **[`MetricsReport`]** — a renderer for recorder snapshots with
//!    aligned text output and machine-readable JSON output.
//!
//! The crate deliberately has **no dependencies** — [`json`] is the
//! workspace's one JSON codec, which every persisted or wire type
//! encodes and decodes through — so every other crate in the workspace
//! can depend on it without cost or cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod recorder;

pub use event::{Event, Phase};
pub use journal::{parse_journal, to_jsonl, JournalWriter};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use metrics::MetricsReport;
pub use recorder::{DefaultRecorder, HistogramSummary, Recorder, Span, SpanId, SpanRecord};
