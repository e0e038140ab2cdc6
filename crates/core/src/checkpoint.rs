//! Checkpoint/resume for the refinement flow.
//!
//! After every completed MSB/LSB iteration the flow can snapshot its
//! complete decision state — signal annotations, phase cursor, decided
//! analyses, evaluation-cache contents (or, at the MSB-convergence
//! checkpoint, the monitors the flow reuses next) and the full event
//! journal — into a self-contained JSON file.
//! [`crate::RefinementFlow::resume_from`] rebuilds a flow from that file
//! and fast-forwards to the first incomplete iteration; the resumed
//! run's journal and final annotations are bit-identical to the
//! uninterrupted run, modulo the leading `resumed_from_checkpoint`
//! marker event.
//!
//! Snapshots are written behind the flow. The flow captures each one on
//! its own thread and queues it; a writer thread owned by the outermost
//! `run*` call encodes the snapshots and writes each one through
//! [`write_file_atomic`] (temp file, fsync, rename, directory fsync) in
//! sequence order, while the flow simulates on. The call joins its
//! writer before it returns, whether it returns normally, with an error
//! or by unwinding, so at return the file holds the last snapshot taken.
//! A real write failure is journaled at that join, as a
//! `checkpoint_failed` event, in sequence order; an injected one
//! (`FaultPlan::fail_checkpoint_write`) is journaled at its checkpoint.
//! A process killed mid-flow loses the snapshots still queued, so its
//! file can be older than its last `checkpoint_written` event. That file
//! is still a whole snapshot, and resuming from any snapshot is
//! bit-identical.
//!
//! The format is JSON through the same `fixref_obs::json` codec the
//! event journal uses. Signal identity is
//! stored **by name**: a checkpoint is valid for any design built from
//! the same description, and every name is re-resolved (and every
//! embedded `SignalId` rebound) against the resuming design. What is
//! *not* stored is the signal-flow graph — it is only consulted during
//! the first (recorded) MSB iteration, which by construction has already
//! completed in any checkpointed run — and the shard-level recorders of a
//! swept flow, whose re-merged events are deterministic replays of the
//! live sweep.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc::Receiver;

use fixref_fixed::{
    DType, ErrorStats, Interval, OverflowMode, RangeStats, RoundingMode, Signedness,
};
use fixref_obs::{Event, FromJson, Json, JsonError, ToJson};
use fixref_sim::{OverflowEvent, SignalAnnotation, SignalId, SignalStats};

use crate::lsb::{LsbAnalysis, LsbStatus};
use crate::msb::{MsbAnalysis, MsbDecision};

/// Current checkpoint format version.
const VERSION: u64 = 1;

/// The next work item of an interrupted flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cursor {
    /// Resume the MSB phase at iteration `next`.
    Msb {
        /// 1-based next MSB iteration.
        next: usize,
    },
    /// Resume the LSB phase at iteration `next` (the MSB phase is done).
    Lsb {
        /// 1-based next LSB iteration.
        next: usize,
    },
    /// Both phases are done: resume at type application + verification.
    Apply,
}

/// The checkpointed evaluation-cache state.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheState {
    /// Whether the driver's cache held a warm entry.
    pub warm: bool,
    /// Names of the signals pending invalidation (the design's dirty
    /// set), sorted.
    pub dirty: Vec<String>,
    /// A monitor snapshot `(stats, overflow events, cycles)`. With `warm`
    /// set, the driver's cache, when the driver could serialize one
    /// (sequential caching driver only — the sweep driver re-warms by
    /// re-simulating). Without it, the flow's last simulation, present
    /// only when the next iteration reuses it (the MSB-convergence
    /// checkpoint), so a flow resumed there reuses it too.
    pub data: Option<(Vec<SignalStats>, Vec<OverflowEvent>, u64)>,
}

impl CacheState {
    /// State for a cache-less or cold driver.
    pub fn cold() -> Self {
        CacheState {
            warm: false,
            dirty: Vec::new(),
            data: None,
        }
    }
}

/// A complete flow snapshot, written after each completed iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The next work item.
    pub cursor: Cursor,
    /// Completed MSB iterations.
    pub msb_done: usize,
    /// Completed LSB iterations.
    pub lsb_done: usize,
    /// Sequence number the *next* checkpoint will carry.
    pub next_sequence: usize,
    /// Journal index where the MSB phase began.
    pub msb_journal_start: usize,
    /// Journal index where the LSB phase began, once entered.
    pub lsb_journal_start: Option<usize>,
    /// Per-signal annotations (types, pinned ranges, injected sigmas).
    pub annotations: Vec<SignalAnnotation>,
    /// Names of signals auto-pinned after a range explosion, sorted.
    pub pinned_explosion: Vec<String>,
    /// Names of knowledge-based saturation choices, sorted.
    pub force_saturate: Vec<String>,
    /// Names of signals excluded from refinement, sorted.
    pub excluded: Vec<String>,
    /// Names of the feedback signals detected in the first MSB iteration,
    /// sorted.
    pub feedback: Vec<String>,
    /// Names of signals currently flagged troubled in the cursor's phase,
    /// sorted.
    pub troubled: Vec<String>,
    /// Final MSB analyses (present once the MSB phase converged).
    pub msb_final: Option<Vec<MsbAnalysis>>,
    /// Final LSB analyses (present only at the `Apply` cursor).
    pub lsb_final: Option<Vec<LsbAnalysis>>,
    /// Evaluation-cache state.
    pub cache: CacheState,
    /// The complete event journal at capture time.
    pub journal: Vec<Event>,
}

/// Why a checkpoint could not be written, read or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure reading the checkpoint file.
    Io(String),
    /// The file did not parse as a version-1 checkpoint.
    Parse(String),
    /// The checkpoint references a signal the resuming design does not
    /// declare — the design was not built from the same description.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(m) => write!(f, "checkpoint I/O error: {m}"),
            CheckpointError::Parse(m) => write!(f, "checkpoint parse error: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint/design mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

// ---------------------------------------------------------------------------
// File store
// ---------------------------------------------------------------------------

/// Writes `contents` to `path` atomically and durably: a `*.tmp` sibling
/// is written and fsynced, renamed over `path`, and the directory is
/// fsynced so the rename itself is durable (best effort: not every
/// filesystem can open a directory for sync). A crash at any point leaves
/// either the previous complete file or the new complete file, never a
/// truncated one; a stray `*.tmp` from a crashed write is inert, since
/// readers only open `path`.
///
/// # Errors
///
/// Any filesystem failure; `path` is untouched in that case.
pub fn write_file_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = fs::File::create(&tmp)?;
    file.write_all(contents)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// The loop of a flow call's checkpoint writer thread: writes each
/// `(sequence, snapshot)` received on `queue` to `path` through
/// [`Checkpoint::write_atomic`], in the order queued, until the queue
/// closes. Returns the failed writes as `(sequence, cause)`, in sequence
/// order.
pub(crate) fn write_queued(
    path: &Path,
    queue: Receiver<(usize, Checkpoint)>,
) -> Vec<(usize, String)> {
    queue
        .into_iter()
        .filter_map(|(sequence, cp)| {
            cp.write_atomic(path)
                .err()
                .map(|e| (sequence, e.to_string()))
        })
        .collect()
}

/// `name` as a flat file stem: every character other than an ASCII
/// letter, digit, `-` or `.` becomes `_`, so a job id can never name a
/// path outside the directory it is stored in.
pub fn safe_file_stem(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl Checkpoint {
    /// Atomically persists the checkpoint at `path` through
    /// [`write_file_atomic`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure; the
    /// destination is untouched in that case.
    pub fn write_atomic(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        write_file_atomic(path, self.to_json().as_bytes())
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads and decodes the checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read,
    /// [`CheckpointError::Parse`] when it is not a complete version-1
    /// document (e.g. a torn write from a non-atomic writer).
    pub fn read(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
        let path = path.as_ref();
        let text = fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
        Checkpoint::from_json(&text)
    }
}

/// A directory of named checkpoints with atomic persistence — the store
/// the job server keeps one checkpoint per job in. Names are sanitized
/// to a flat `<name>.ckpt` file each; saves go through
/// [`Checkpoint::write_atomic`].
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", dir.display())))?;
        Ok(CheckpointStore { dir })
    }

    /// The file path a named checkpoint lives at: `<name>.ckpt`, with
    /// `name` flattened by [`safe_file_stem`].
    pub fn path_of(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{}.ckpt", safe_file_stem(name)))
    }

    /// Atomically saves `cp` under `name`.
    ///
    /// # Errors
    ///
    /// Same as [`Checkpoint::write_atomic`].
    pub fn save(&self, name: &str, cp: &Checkpoint) -> Result<(), CheckpointError> {
        cp.write_atomic(self.path_of(name))
    }

    /// Loads the checkpoint saved under `name`.
    ///
    /// # Errors
    ///
    /// Same as [`Checkpoint::read`].
    pub fn load(&self, name: &str) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::read(self.path_of(name))
    }

    /// Whether a checkpoint is saved under `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.path_of(name).is_file()
    }

    /// Removes the checkpoint saved under `name` (no-op when absent).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on a filesystem failure other than the
    /// file not existing.
    pub fn remove(&self, name: &str) -> Result<(), CheckpointError> {
        let path = self.path_of(name);
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(CheckpointError::Io(format!("{}: {e}", path.display()))),
        }
    }
}

// ---------------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------------

impl Checkpoint {
    /// Serializes the checkpoint to its JSON document.
    pub fn to_json(&self) -> String {
        self.encode().to_string()
    }

    /// Parses a checkpoint document produced by [`Checkpoint::to_json`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Parse`] on malformed documents or unsupported
    /// versions.
    pub fn from_json(text: &str) -> Result<Checkpoint, CheckpointError> {
        Json::parse(text)
            .and_then(|v| Checkpoint::decode(&v))
            .map_err(|e| CheckpointError::Parse(e.to_string()))
    }
}

impl ToJson for Checkpoint {
    fn encode(&self) -> Json {
        Json::obj([
            ("version", VERSION.encode()),
            ("cursor", self.cursor.encode()),
            ("msb_done", self.msb_done.encode()),
            ("lsb_done", self.lsb_done.encode()),
            ("next_sequence", self.next_sequence.encode()),
            ("msb_journal_start", self.msb_journal_start.encode()),
            ("lsb_journal_start", self.lsb_journal_start.encode()),
            ("annotations", array(&self.annotations, annotation)),
            ("pinned_explosion", self.pinned_explosion.encode()),
            ("force_saturate", self.force_saturate.encode()),
            ("excluded", self.excluded.encode()),
            ("feedback", self.feedback.encode()),
            ("troubled", self.troubled.encode()),
            ("msb_final", self.msb_final.encode()),
            ("lsb_final", self.lsb_final.encode()),
            ("cache", self.cache.encode()),
            ("journal", self.journal.encode()),
        ])
    }
}

impl FromJson for Checkpoint {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        let version: u64 = v.field("version")?;
        if version != VERSION {
            return Err(JsonError::new(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        Ok(Checkpoint {
            cursor: v.field("cursor")?,
            msb_done: v.field("msb_done")?,
            lsb_done: v.field("lsb_done")?,
            next_sequence: v.field("next_sequence")?,
            msb_journal_start: v.field("msb_journal_start")?,
            lsb_journal_start: v.opt_field("lsb_journal_start")?,
            annotations: v.field_with("annotations", |a| a.items(annotation_of))?,
            pinned_explosion: v.field("pinned_explosion")?,
            force_saturate: v.field("force_saturate")?,
            excluded: v.field("excluded")?,
            feedback: v.field("feedback")?,
            troubled: v.field("troubled")?,
            msb_final: v.opt_field("msb_final")?,
            lsb_final: v.opt_field("lsb_final")?,
            cache: v.field("cache")?,
            journal: v.field("journal")?,
        })
    }
}

impl ToJson for Cursor {
    fn encode(&self) -> Json {
        match *self {
            Cursor::Msb { next } => Json::obj([("phase", "msb".encode()), ("next", next.encode())]),
            Cursor::Lsb { next } => Json::obj([("phase", "lsb".encode()), ("next", next.encode())]),
            Cursor::Apply => Json::obj([("phase", "apply".encode())]),
        }
    }
}

impl FromJson for Cursor {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        match v.field::<String>("phase")?.as_str() {
            "msb" => Ok(Cursor::Msb {
                next: v.field("next")?,
            }),
            "lsb" => Ok(Cursor::Lsb {
                next: v.field("next")?,
            }),
            "apply" => Ok(Cursor::Apply),
            other => Err(JsonError::new(format!("unknown cursor phase {other:?}"))),
        }
    }
}

impl ToJson for CacheState {
    fn encode(&self) -> Json {
        let data = self
            .data
            .as_ref()
            .map_or(Json::Null, |(stats, events, cycles)| {
                Json::obj([
                    ("stats", array(stats, signal_stats)),
                    ("overflow", array(events, overflow_event)),
                    ("cycles", cycles.encode()),
                ])
            });
        Json::obj([
            ("warm", self.warm.encode()),
            ("dirty", self.dirty.encode()),
            ("data", data),
        ])
    }
}

impl FromJson for CacheState {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        Ok(CacheState {
            warm: v.field("warm")?,
            dirty: v.field("dirty")?,
            data: v.opt_field_with("data", |d| {
                Ok((
                    d.field_with("stats", |s| s.items(signal_stats_of))?,
                    d.field_with("overflow", |o| o.items(overflow_event_of))?,
                    d.field("cycles")?,
                ))
            })?,
        })
    }
}

impl ToJson for MsbDecision {
    fn encode(&self) -> Json {
        match self {
            MsbDecision::Agree { msb } => {
                Json::obj([("kind", "agree".encode()), ("msb", msb.encode())])
            }
            MsbDecision::Saturate { msb, guard, forced } => Json::obj([
                ("kind", "saturate".encode()),
                ("msb", msb.encode()),
                ("guard", interval(guard)),
                ("forced", forced.encode()),
            ]),
            MsbDecision::Tradeoff {
                stat_msb,
                prop_msb,
                chosen,
                saturate,
            } => Json::obj([
                ("kind", "tradeoff".encode()),
                ("stat_msb", stat_msb.encode()),
                ("prop_msb", prop_msb.encode()),
                ("chosen", chosen.encode()),
                ("saturate", saturate.encode()),
            ]),
            MsbDecision::Unresolved { reason } => {
                Json::obj([("kind", "unresolved".encode()), ("reason", reason.encode())])
            }
        }
    }
}

impl FromJson for MsbDecision {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        match v.field::<String>("kind")?.as_str() {
            "agree" => Ok(MsbDecision::Agree {
                msb: v.field("msb")?,
            }),
            "saturate" => Ok(MsbDecision::Saturate {
                msb: v.field("msb")?,
                guard: v.field_with("guard", interval_of)?,
                forced: v.field("forced")?,
            }),
            "tradeoff" => Ok(MsbDecision::Tradeoff {
                stat_msb: v.field("stat_msb")?,
                prop_msb: v.field("prop_msb")?,
                chosen: v.field("chosen")?,
                saturate: v.field("saturate")?,
            }),
            "unresolved" => Ok(MsbDecision::Unresolved {
                reason: v.field("reason")?,
            }),
            other => Err(JsonError::new(format!(
                "unknown MSB decision kind {other:?}"
            ))),
        }
    }
}

impl ToJson for MsbAnalysis {
    fn encode(&self) -> Json {
        Json::obj([
            ("name", self.name.encode()),
            ("accesses", self.accesses.encode()),
            ("stat", self.stat.as_ref().map_or(Json::Null, interval)),
            ("stat_msb", self.stat_msb.encode()),
            ("prop", self.prop.as_ref().map_or(Json::Null, interval)),
            ("prop_msb", self.prop_msb.encode()),
            ("exploded", self.exploded.encode()),
            ("decision", self.decision.encode()),
            ("mode", self.mode.token().encode()),
            ("signedness", self.signedness.token().encode()),
        ])
    }
}

impl FromJson for MsbAnalysis {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        Ok(MsbAnalysis {
            id: unbound_id(),
            name: v.field("name")?,
            accesses: v.field("accesses")?,
            stat: v.opt_field_with("stat", interval_of)?,
            stat_msb: v.opt_field("stat_msb")?,
            prop: v.opt_field_with("prop", interval_of)?,
            prop_msb: v.opt_field("prop_msb")?,
            exploded: v.field("exploded")?,
            decision: v.field("decision")?,
            mode: token(v, "mode", OverflowMode::from_token)?,
            signedness: token(v, "signedness", Signedness::from_token)?,
        })
    }
}

impl ToJson for LsbAnalysis {
    fn encode(&self) -> Json {
        Json::obj([
            ("name", self.name.encode()),
            ("assigns", self.assigns.encode()),
            ("max_abs", self.max_abs.encode()),
            ("mean", self.mean.encode()),
            ("std", self.std.encode()),
            ("lsb", self.lsb.encode()),
            ("status", self.status.token().encode()),
            ("precision_loss", self.precision_loss.encode()),
            ("floor_mean_shift", self.floor_mean_shift.encode()),
            ("rounding", self.rounding.token().encode()),
        ])
    }
}

impl FromJson for LsbAnalysis {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        Ok(LsbAnalysis {
            id: unbound_id(),
            name: v.field("name")?,
            assigns: v.field("assigns")?,
            max_abs: v.field("max_abs")?,
            mean: v.field("mean")?,
            std: v.field("std")?,
            lsb: v.opt_field("lsb")?,
            status: token(v, "status", LsbStatus::from_token)?,
            precision_loss: v.field("precision_loss")?,
            floor_mean_shift: v.opt_field("floor_mean_shift")?,
            rounding: token(v, "rounding", RoundingMode::from_token)?,
        })
    }
}

// The `fixref-fixed` and `fixref-sim` types below cannot implement the
// codec traits in this crate, and checkpoints are their only JSON use,
// so they encode through these private functions.

fn array<T>(items: &[T], encode: fn(&T) -> Json) -> Json {
    Json::Arr(items.iter().map(encode).collect())
}

/// Decodes the token member `key` through its type's `from_token`.
fn token<T>(v: &Json, key: &str, from_token: fn(&str) -> Option<T>) -> Result<T, JsonError> {
    v.field_with(key, |t| {
        let s = t
            .as_str()
            .ok_or_else(|| JsonError::expected("a token", t))?;
        from_token(s).ok_or_else(|| JsonError::new(format!("unknown token {s:?}")))
    })
}

/// `[lo, hi]`. Decoded as a raw pair (not via [`Interval::new`])
/// because the empty interval legitimately serializes as
/// `["Infinity","-Infinity"]`.
fn interval(i: &Interval) -> Json {
    (i.lo, i.hi).encode()
}

fn interval_of(v: &Json) -> Result<Interval, JsonError> {
    let (lo, hi) = FromJson::decode(v)?;
    Ok(Interval { lo, hi })
}

fn dtype(t: &DType) -> Json {
    Json::obj([
        ("name", t.name().encode()),
        ("n", t.n().encode()),
        ("f", t.f().encode()),
        ("vt", t.signedness().token().encode()),
        ("ovf", t.overflow().token().encode()),
        ("rnd", t.rounding().token().encode()),
    ])
}

fn dtype_of(v: &Json) -> Result<DType, JsonError> {
    DType::new(
        v.field::<String>("name")?,
        v.field("n")?,
        v.field("f")?,
        token(v, "vt", Signedness::from_token)?,
        token(v, "ovf", OverflowMode::from_token)?,
        token(v, "rnd", RoundingMode::from_token)?,
    )
    .map_err(|e| JsonError::new(e.to_string()))
}

fn annotation(a: &SignalAnnotation) -> Json {
    Json::obj([
        ("name", a.name.encode()),
        ("dtype", a.dtype.as_ref().map_or(Json::Null, dtype)),
        ("range", a.range.as_ref().map_or(Json::Null, interval)),
        ("error_sigma", a.error_sigma.encode()),
    ])
}

fn annotation_of(v: &Json) -> Result<SignalAnnotation, JsonError> {
    Ok(SignalAnnotation {
        name: v.field("name")?,
        dtype: v.opt_field_with("dtype", dtype_of)?,
        range: v.opt_field_with("range", interval_of)?,
        error_sigma: v.opt_field("error_sigma")?,
    })
}

/// Range statistics as `[min, max, count]`, error statistics as
/// `[count, mean, m2, max_abs]`.
fn signal_stats(s: &SignalStats) -> Json {
    Json::obj([
        ("name", s.name.encode()),
        ("stat", s.stat.to_raw().encode()),
        ("prop", interval(&s.prop)),
        ("consumed", s.consumed.to_raw().encode()),
        ("produced", s.produced.to_raw().encode()),
        ("overflows", s.overflows.encode()),
        ("reads", s.reads.encode()),
        ("writes", s.writes.encode()),
        ("granularity", s.granularity.encode()),
        ("non_dyadic", s.non_dyadic.encode()),
    ])
}

fn signal_stats_of(v: &Json) -> Result<SignalStats, JsonError> {
    let (min, max, count) = v.field("stat")?;
    let error_stats = |key| {
        v.field(key)
            .map(|(count, mean, m2, max_abs)| ErrorStats::from_raw(count, mean, m2, max_abs))
    };
    Ok(SignalStats {
        name: v.field("name")?,
        stat: RangeStats::from_raw(min, max, count),
        prop: v.field_with("prop", interval_of)?,
        consumed: error_stats("consumed")?,
        produced: error_stats("produced")?,
        overflows: v.field("overflows")?,
        reads: v.field("reads")?,
        writes: v.field("writes")?,
        granularity: v.opt_field("granularity")?,
        non_dyadic: v.field("non_dyadic")?,
    })
}

fn overflow_event(e: &OverflowEvent) -> Json {
    Json::obj([
        ("name", e.name.encode()),
        ("value", e.value.encode()),
        ("cycle", e.cycle.encode()),
    ])
}

fn overflow_event_of(v: &Json) -> Result<OverflowEvent, JsonError> {
    Ok(OverflowEvent {
        signal: unbound_id(),
        name: v.field("name")?,
        value: v.field("value")?,
        cycle: v.field("cycle")?,
    })
}

/// The placeholder id carried by deserialized analyses and overflow
/// events until [`crate::RefinementFlow::resume_from`] rebinds them by
/// name against the resuming design.
fn unbound_id() -> SignalId {
    SignalId::from_raw(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_obs::Phase;

    fn sample() -> Checkpoint {
        Checkpoint {
            cursor: Cursor::Msb { next: 2 },
            msb_done: 1,
            lsb_done: 0,
            next_sequence: 1,
            msb_journal_start: 3,
            lsb_journal_start: None,
            annotations: vec![SignalAnnotation {
                name: "b".into(),
                dtype: Some(
                    DType::new(
                        "T_b",
                        8,
                        6,
                        Signedness::TwosComplement,
                        OverflowMode::Saturate,
                        RoundingMode::Round,
                    )
                    .expect("valid"),
                ),
                range: Some(Interval { lo: -0.2, hi: 0.2 }),
                error_sigma: Some(1.5e-3),
            }],
            pinned_explosion: vec!["b".into()],
            force_saturate: vec![],
            excluded: vec![],
            feedback: vec!["b".into()],
            troubled: vec!["b".into(), "w".into()],
            msb_final: Some(vec![MsbAnalysis {
                id: unbound_id(),
                name: "b".into(),
                accesses: 1200,
                stat: Some(Interval {
                    lo: -0.19,
                    hi: 0.18,
                }),
                stat_msb: Some(-2),
                prop: Some(Interval::EMPTY),
                prop_msb: None,
                exploded: false,
                decision: MsbDecision::Saturate {
                    msb: -1,
                    guard: Interval { lo: -0.4, hi: 0.4 },
                    forced: true,
                },
                mode: OverflowMode::Saturate,
                signedness: Signedness::TwosComplement,
            }]),
            lsb_final: None,
            cache: CacheState {
                warm: true,
                dirty: vec!["b".into()],
                data: Some((
                    vec![SignalStats {
                        name: "b".into(),
                        stat: RangeStats::from_raw(-0.19, 0.18, 1200),
                        prop: Interval::UNBOUNDED,
                        consumed: ErrorStats::from_raw(1200, 1e-4, 2e-6, 8e-4),
                        produced: ErrorStats::from_raw(1200, -2e-5, 3e-6, 9e-4),
                        overflows: 2,
                        reads: 2400,
                        writes: 1200,
                        granularity: Some(-9),
                        non_dyadic: false,
                    }],
                    vec![OverflowEvent {
                        signal: unbound_id(),
                        name: "b".into(),
                        value: 1.25,
                        cycle: 77,
                    }],
                    1200,
                )),
            },
            journal: vec![
                Event::IterationStarted {
                    phase: Phase::Msb,
                    iteration: 1,
                },
                Event::CheckpointWritten {
                    sequence: 0,
                    phase: Phase::Msb,
                    iteration: 1,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_identity() {
        let cp = sample();
        let text = cp.to_json();
        let back = Checkpoint::from_json(&text).expect("parses");
        assert_eq!(back, cp);
    }

    #[test]
    fn empty_and_unbounded_intervals_survive() {
        let mut cp = sample();
        cp.annotations[0].range = Some(Interval::EMPTY);
        let back = Checkpoint::from_json(&cp.to_json()).expect("parses");
        assert_eq!(back.annotations[0].range, Some(Interval::EMPTY));
    }

    #[test]
    fn version_is_checked() {
        let doc = sample()
            .to_json()
            .replacen("\"version\":1", "\"version\":9", 1);
        assert!(matches!(
            Checkpoint::from_json(&doc),
            Err(CheckpointError::Parse(_))
        ));
    }

    #[test]
    fn store_saves_atomically_and_sanitizes_names() {
        let dir = std::env::temp_dir().join("fixref_ckpt_store_test");
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("store opens");
        let cp = sample();

        // Path traversal and separators flatten to plain filenames.
        let path = store.path_of("../evil/job 1");
        assert_eq!(path.parent(), Some(dir.as_path()));
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some(".._evil_job_1.ckpt")
        );

        assert!(!store.contains("j-1"));
        store.save("j-1", &cp).expect("saves");
        assert!(store.contains("j-1"));
        assert_eq!(store.load("j-1").expect("loads"), cp);
        // Overwrites replace the whole file, leaving no tmp sibling.
        store.save("j-1", &cp).expect("overwrites");
        let mut tmp = store.path_of("j-1").into_os_string();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists());

        store.remove("j-1").expect("removes");
        assert!(!store.contains("j-1"));
        store.remove("j-1").expect("idempotent remove");
        assert!(matches!(store.load("j-1"), Err(CheckpointError::Io(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_files_are_a_parse_error_not_a_panic() {
        let dir = std::env::temp_dir().join("fixref_ckpt_torn_test");
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("store opens");
        store.save("torn", &sample()).expect("saves");
        let path = store.path_of("torn");
        let text = fs::read_to_string(&path).expect("reads back");
        fs::write(&path, &text[..text.len() / 3]).expect("tears");
        assert!(matches!(store.load("torn"), Err(CheckpointError::Parse(_))));
        let _ = fs::remove_dir_all(&dir);
    }
}
