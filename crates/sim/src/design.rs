//! The design registry and signal handles.
//!
//! A [`Design`] owns every signal of a processor description. Handles
//! ([`Sig`], [`Reg`], [`SigArray`], [`RegArray`]) are cheap `Rc` clones
//! into the shared registry, so a model struct can keep its handles while
//! the refinement flow keeps the [`Design`].
//!
//! Every assignment through a handle performs, in one pass (paper Fig. 2):
//! quantization (if the signal has a [`DType`]), statistic range
//! monitoring, quasi-analytical range propagation, consumed/produced error
//! statistics, optional `error()` injection, and signal-flow-graph
//! recording.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use fixref_fixed::{
    quantize, DType, ErrorStats, FixError, Interval, OverflowMode, RangeStats, Rng64,
};
use fixref_obs::{Event, Recorder};

use crate::graph::{self, Graph, NodeId, RecordingId, TracedNode};
use crate::report::SignalReport;
use crate::tape::{ExecTrace, Replay, Step, TraceStep};
use crate::value::Value;

/// Stable identifier of a signal within its [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Constructs an id from its raw index. Only ids obtained from the
    /// owning [`Design`] are meaningful; this constructor exists for
    /// serialization and test interop.
    pub fn from_raw(raw: u32) -> Self {
        SignalId(raw)
    }

    /// The raw index.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Wire vs. clocked register semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalKind {
    /// Combinational: [`Sig::set`] takes effect immediately.
    Wire,
    /// Clocked: [`Reg::set`] takes effect at the next [`Design::tick`].
    Register,
}

/// An overflow observed on a signal whose type uses
/// [`OverflowMode::Error`].
#[derive(Debug, Clone, PartialEq)]
pub struct OverflowEvent {
    /// The overflowing signal.
    pub signal: SignalId,
    /// Its name.
    pub name: String,
    /// The unquantized value that did not fit.
    pub value: f64,
    /// The clock cycle (tick count) at which it happened.
    pub cycle: u64,
}

impl fmt::Display for OverflowEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "overflow on {} (value {} at cycle {})",
            self.name, self.value, self.cycle
        )
    }
}

/// Values a signal's quantization-error buffer, or the event buffer,
/// holds before the whole monitor sink flushes: the sink's memory stays
/// bounded however long a simulation runs between flushes.
const MONITOR_BUFFER: usize = 256;

#[derive(Debug, Clone)]
struct SignalState {
    name: String,
    /// `sim.quant_error.<name>`, the signal's recorder histogram.
    quant_key: String,
    kind: SignalKind,
    dtype: Option<DType>,
    flt: f64,
    fix: f64,
    next: Option<(f64, f64)>,
    range_override: Option<Interval>,
    error_override: Option<f64>,
    prop: Interval,
    stat: RangeStats,
    consumed: ErrorStats,
    produced: ErrorStats,
    overflows: u64,
    reads: u64,
    writes: u64,
    /// Finest LSB position needed to represent every assigned (quantized)
    /// value exactly: `Some(l)` means every value was `m·2^l`. `None`
    /// until a nonzero value arrives, or forever once a value needed an
    /// LSB below the practical window (every finite `f64` is dyadic; the
    /// window caps the search).
    granularity: Option<i32>,
    non_dyadic: bool,
    /// The signal's `Read` node in the recording that last read it.
    read_trace: Option<TracedNode>,
    /// The latest traced value assigned to the signal, and its root in the
    /// graph: assigning the same node again in the same recording needs
    /// neither the recording nor a dedup probe.
    last_root: Option<(TracedNode, NodeId)>,
}

impl SignalState {
    fn new(name: String, kind: SignalKind, dtype: Option<DType>) -> Self {
        let prop = initial_prop(&dtype);
        SignalState {
            quant_key: format!("sim.quant_error.{name}"),
            name,
            kind,
            dtype,
            flt: 0.0,
            fix: 0.0,
            next: None,
            range_override: None,
            error_override: None,
            prop,
            stat: RangeStats::new(),
            consumed: ErrorStats::new(),
            produced: ErrorStats::new(),
            overflows: 0,
            reads: 0,
            writes: 0,
            granularity: None,
            non_dyadic: false,
            read_trace: None,
            last_root: None,
        }
    }

    /// The signal's value as a read sees it, carrying `trace`. Its range
    /// is the range override, else the propagated range, else the point
    /// of the fixed value.
    fn read_value(&self, trace: Option<TracedNode>) -> Value {
        let itv = match self.range_override {
            Some(r) => r,
            None => {
                if self.prop.is_empty() {
                    Interval::point(self.fix)
                } else {
                    self.prop
                }
            }
        };
        Value::from_signal(self.flt, self.fix, itv, trace)
    }
}

/// The dyadic LSB position of `v`: the `l` with `v = m·2^l`, `m` odd —
/// read directly from the IEEE-754 encoding (exponent plus trailing
/// zeros of the mantissa). `None` for zero, non-finite values, and
/// positions below the practical −128 window.
fn dyadic_lsb(v: f64) -> Option<i32> {
    if v == 0.0 || !v.is_finite() {
        return None;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7FF) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    let (mantissa, e) = if exp == 0 {
        (frac, -1074) // subnormal
    } else {
        (frac | (1u64 << 52), exp - 1075)
    };
    let l = e + mantissa.trailing_zeros() as i32;
    if l < -128 {
        None
    } else {
        Some(l)
    }
}

/// Plain-data snapshot of one signal's monitoring state — everything the
/// refinement analyses consume. Unlike [`Design`] (which is deliberately
/// not `Send`), a `SignalStats` is `Send + Sync`, so shard threads can
/// hand their results back to the master for merging.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalStats {
    /// Signal name — the merge key across shard designs.
    pub name: String,
    /// Statistic range monitor (fixed path).
    pub stat: RangeStats,
    /// Quasi-analytical propagated range.
    pub prop: Interval,
    /// Consumed (pre-assignment) float−fix error statistics.
    pub consumed: ErrorStats,
    /// Produced (post-assignment) float−fix error statistics.
    pub produced: ErrorStats,
    /// Number of quantization overflows observed.
    pub overflows: u64,
    /// Read count.
    pub reads: u64,
    /// Write count.
    pub writes: u64,
    /// Finest dyadic LSB any assigned value used, when all were dyadic.
    pub granularity: Option<i32>,
    /// Whether a value fell below the dyadic tracking window.
    pub non_dyadic: bool,
}

/// Plain-data snapshot of one signal's refinement annotations (type,
/// range pin, error model). The sweep engine snapshots the master
/// design's annotations each iteration and re-applies them by name to
/// every freshly built shard design, so all shards simulate the same
/// intermediate refinement state.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalAnnotation {
    /// Signal name — the application key.
    pub name: String,
    /// Fixed-point type, if decided.
    pub dtype: Option<DType>,
    /// Explicit range annotation, if pinned.
    pub range: Option<Interval>,
    /// Explicit produced-error sigma, if modeled.
    pub error_sigma: Option<f64>,
}

/// A name in a shard snapshot did not resolve in the receiving design —
/// the two designs were not built from the same description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSignalError {
    /// The unresolved signal name.
    pub name: String,
}

impl fmt::Display for UnknownSignalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown signal {:?} in this design", self.name)
    }
}

impl std::error::Error for UnknownSignalError {}

/// A typed signal's propagated range starts from its type's representable
/// range ("when declaring signals with type information their range is
/// automatically determined" — paper §4.1); untyped signals start empty.
fn initial_prop(dtype: &Option<DType>) -> Interval {
    dtype
        .as_ref()
        .map(Interval::from_dtype)
        .unwrap_or(Interval::EMPTY)
}

struct DesignInner {
    signals: Vec<SignalState>,
    names: HashMap<String, SignalId>,
    rng: Rng64,
    seed: u64,
    cycle: u64,
    /// The graph recording in progress, if any (see [`crate::graph`]).
    recording: Option<RecordingId>,
    /// The recorded graph, shared with every snapshot taken since it last
    /// changed; recording writes through `Rc::make_mut`.
    graph: Rc<Graph>,
    overflow_events: Vec<OverflowEvent>,
    /// Cap on retained overflow events; further overflows only count.
    overflow_event_cap: usize,
    /// Signals whose annotations (type, range, error model) changed since
    /// the incremental engine last drained the set.
    dirty: BTreeSet<u32>,
    /// Author-asserted contract: every assignment executes unconditionally
    /// each cycle and every data-dependent decision goes through recorded
    /// dataflow (`select_positive` etc.), never Rust-level branching on
    /// fixed values. Sets the severity of lint's FXL001 check.
    static_schedule: bool,
    /// Optional observability sink: ticks, assignments, overflow and
    /// saturation counters, per-signal quantization-error histograms and
    /// `OverflowDetected` events all land here when attached, through
    /// `monitors`.
    recorder: Option<Arc<dyn Recorder>>,
    /// Recorder-bound monitor output not yet flushed.
    monitors: MonitorSink,
    /// When capturing (for a compiled replay), every assignment and
    /// tick appends a step here. Requires graph recording, which supplies
    /// the expression roots the steps refer to.
    capture: Option<CaptureBuf>,
}

/// The recorder-bound output of the simulations since the last flush.
/// Both backends' assignments and ticks write here instead of calling
/// the recorder; [`DesignInner::flush_monitors`] hands everything over in
/// one batch. Nothing is buffered while no recorder is attached.
#[derive(Default)]
struct MonitorSink {
    assignments: u64,
    saturations: u64,
    overflows: u64,
    ticks: u64,
    /// Per-signal quantization errors, in assignment order.
    quant: Vec<Vec<f64>>,
    events: Vec<Event>,
}

impl MonitorSink {
    /// Buffers one quantization error of signal `id`. The signal's buffer
    /// is allocated at its first error and reused after every flush.
    /// Returns whether the buffer is now full.
    fn push_quant_error(&mut self, id: SignalId, error: f64) -> bool {
        let buffer = &mut self.quant[id.0 as usize];
        if buffer.capacity() == 0 {
            buffer.reserve_exact(MONITOR_BUFFER);
        }
        buffer.push(error);
        buffer.len() == MONITOR_BUFFER
    }
}

/// In-flight capture state between [`Design::begin_capture`] and
/// [`Design::end_capture`].
struct CaptureBuf {
    /// Per-signal `(flt, fix)` at capture start.
    start: Vec<(f64, f64)>,
    steps: Vec<TraceStep>,
}

/// The signal registry and simulation clock of one processor description.
///
/// `Design` is a shared handle (cloning it aliases the same registry); all
/// methods take `&self` via interior mutability. It is intentionally
/// **not** `Send`: one design is one sequential simulation, as in the
/// paper's engine.
///
/// # Example
///
/// ```
/// use fixref_sim::Design;
///
/// let d = Design::new();
/// let a = d.reg("a");
/// a.set(1.0);
/// assert_eq!(a.get().flt(), 0.0); // registers update on tick
/// d.tick();
/// assert_eq!(a.get().flt(), 1.0);
/// ```
#[derive(Clone)]
pub struct Design {
    inner: Rc<RefCell<DesignInner>>,
}

impl fmt::Debug for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Design")
            .field("signals", &inner.signals.len())
            .field("cycle", &inner.cycle)
            .field("recording", &inner.recording.is_some())
            .finish()
    }
}

impl Default for Design {
    fn default() -> Self {
        Design::new()
    }
}

impl Design {
    /// Creates an empty design with the default error-injection seed.
    pub fn new() -> Self {
        Design::with_seed(0x5EED_F1C5)
    }

    /// Creates an empty design with an explicit seed for the `error()`
    /// injection RNG, for reproducible runs.
    pub fn with_seed(seed: u64) -> Self {
        Design {
            inner: Rc::new(RefCell::new(DesignInner {
                signals: Vec::new(),
                names: HashMap::new(),
                rng: Rng64::seed_from_u64(seed),
                seed,
                cycle: 0,
                recording: None,
                graph: Rc::default(),
                overflow_events: Vec::new(),
                overflow_event_cap: 1024,
                dirty: BTreeSet::new(),
                static_schedule: false,
                recorder: None,
                monitors: MonitorSink::default(),
                capture: None,
            })),
        }
    }

    /// Attaches an observability recorder. Once attached, every
    /// [`Design::tick`] increments `sim.ticks`, every assignment
    /// increments `sim.assignments`, overflow and saturation events
    /// increment `sim.overflows` / `sim.saturations`, per-signal
    /// quantization error lands in a `sim.quant_error.<name>` histogram,
    /// and overflows on [`OverflowMode::Error`] types are journaled as
    /// [`Event::OverflowDetected`].
    ///
    /// These `sim.*` metrics are buffered in the design and reach the
    /// recorder in batches: at the end of every simulation a refinement
    /// flow or [`Design::replay`] runs, whenever a signal has
    /// buffered 256 values, and when the design is dropped. Each
    /// histogram still folds its values one at a time in assignment
    /// order, so the recorder ends up exactly as if every assignment had
    /// called it. A design stepped by hand calls
    /// [`Design::flush_monitors`] before reading `sim.*` metrics from its
    /// recorder.
    ///
    /// Output buffered for a previously attached recorder is flushed to
    /// it first; the new recorder sees none of it. Detach by attaching a
    /// fresh recorder or with [`Design::detach_recorder`]; simulation
    /// behavior is unchanged either way.
    pub fn attach_recorder(&self, recorder: Arc<dyn Recorder>) {
        let mut inner = self.inner.borrow_mut();
        inner.flush_monitors();
        inner.recorder = Some(recorder);
    }

    /// Flushes buffered monitor output to the attached recorder, if any,
    /// and removes it.
    pub fn detach_recorder(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.flush_monitors();
        inner.recorder = None;
    }

    /// Hands the `sim.*` monitor output buffered since the last flush to
    /// the attached recorder (see [`Design::attach_recorder`]). Refinement
    /// flows flush after every simulation; call this after stepping a
    /// design by hand, before reading its recorder. A no-op without a
    /// recorder.
    pub fn flush_monitors(&self) {
        self.inner.borrow_mut().flush_monitors();
    }

    /// The currently attached recorder, if any.
    pub fn recorder(&self) -> Option<Arc<dyn Recorder>> {
        self.inner.borrow().recorder.clone()
    }

    fn add_signal(&self, name: &str, kind: SignalKind, dtype: Option<DType>) -> SignalId {
        match self.try_add_signal(name, kind, dtype) {
            Ok(id) => id,
            // The infallible constructors document this panic; paths that
            // take signal names from user input go through `try_*` instead.
            Err(e) => panic!("{e}"),
        }
    }

    fn try_add_signal(
        &self,
        name: &str,
        kind: SignalKind,
        dtype: Option<DType>,
    ) -> Result<SignalId, FixError> {
        let mut inner = self.inner.borrow_mut();
        if inner.names.contains_key(name) {
            return Err(FixError::DuplicateSignal {
                name: name.to_string(),
            });
        }
        let id = SignalId(inner.signals.len() as u32);
        inner.names.insert(name.to_string(), id);
        inner
            .signals
            .push(SignalState::new(name.to_string(), kind, dtype));
        inner.monitors.quant.push(Vec::new());
        inner.dirty.insert(id.0);
        Ok(id)
    }

    /// Declares a floating-point wire signal (paper: `sig a("a");`).
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken in this design.
    pub fn sig(&self, name: &str) -> Sig {
        Sig {
            design: self.clone(),
            id: self.add_signal(name, SignalKind::Wire, None),
        }
    }

    /// Declares a fixed-point wire signal (paper: `sig a("a", T1);`).
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken in this design.
    pub fn sig_typed(&self, name: &str, dtype: DType) -> Sig {
        Sig {
            design: self.clone(),
            id: self.add_signal(name, SignalKind::Wire, Some(dtype)),
        }
    }

    /// Declares a floating-point register (paper: `reg b("b");`).
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken in this design.
    pub fn reg(&self, name: &str) -> Reg {
        Reg {
            design: self.clone(),
            id: self.add_signal(name, SignalKind::Register, None),
        }
    }

    /// Declares a fixed-point register (paper: `reg b("b", T1);`).
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken in this design.
    pub fn reg_typed(&self, name: &str, dtype: DType) -> Reg {
        Reg {
            design: self.clone(),
            id: self.add_signal(name, SignalKind::Register, Some(dtype)),
        }
    }

    /// Fallible form of [`Design::sig`]: returns
    /// [`FixError::DuplicateSignal`] instead of panicking when the name is
    /// already taken — for signal names that come from user input
    /// (netlists, annotation files) rather than trusted model code.
    pub fn try_sig(&self, name: &str) -> Result<Sig, FixError> {
        Ok(Sig {
            design: self.clone(),
            id: self.try_add_signal(name, SignalKind::Wire, None)?,
        })
    }

    /// Fallible form of [`Design::sig_typed`].
    pub fn try_sig_typed(&self, name: &str, dtype: DType) -> Result<Sig, FixError> {
        Ok(Sig {
            design: self.clone(),
            id: self.try_add_signal(name, SignalKind::Wire, Some(dtype))?,
        })
    }

    /// Fallible form of [`Design::reg`].
    pub fn try_reg(&self, name: &str) -> Result<Reg, FixError> {
        Ok(Reg {
            design: self.clone(),
            id: self.try_add_signal(name, SignalKind::Register, None)?,
        })
    }

    /// Fallible form of [`Design::reg_typed`].
    pub fn try_reg_typed(&self, name: &str, dtype: DType) -> Result<Reg, FixError> {
        Ok(Reg {
            design: self.clone(),
            id: self.try_add_signal(name, SignalKind::Register, Some(dtype))?,
        })
    }

    /// Declares an array of floating-point wires named `name[0]` …
    /// `name[len-1]` (paper: `sigarray v("v", N);`).
    ///
    /// # Panics
    ///
    /// Panics if any element name is already taken.
    pub fn sig_array(&self, name: &str, len: usize) -> SigArray {
        SigArray {
            sigs: (0..len)
                .map(|i| self.sig(&format!("{name}[{i}]")))
                .collect(),
        }
    }

    /// Declares an array of fixed-point wires sharing one type.
    ///
    /// # Panics
    ///
    /// Panics if any element name is already taken.
    pub fn sig_array_typed(&self, name: &str, len: usize, dtype: DType) -> SigArray {
        SigArray {
            sigs: (0..len)
                .map(|i| self.sig_typed(&format!("{name}[{i}]"), dtype.clone()))
                .collect(),
        }
    }

    /// Declares an array of floating-point registers (paper:
    /// `regarray d("d", N);`).
    ///
    /// # Panics
    ///
    /// Panics if any element name is already taken.
    pub fn reg_array(&self, name: &str, len: usize) -> RegArray {
        RegArray {
            regs: (0..len)
                .map(|i| self.reg(&format!("{name}[{i}]")))
                .collect(),
        }
    }

    /// Declares an array of fixed-point registers sharing one type.
    ///
    /// # Panics
    ///
    /// Panics if any element name is already taken.
    pub fn reg_array_typed(&self, name: &str, len: usize, dtype: DType) -> RegArray {
        RegArray {
            regs: (0..len)
                .map(|i| self.reg_typed(&format!("{name}[{i}]"), dtype.clone()))
                .collect(),
        }
    }

    /// Advances the clock: every pending register assignment becomes
    /// visible and the cycle counter increments.
    #[inline]
    pub fn tick(&self) {
        self.inner.borrow_mut().tick();
    }

    /// The current cycle (number of [`Design::tick`] calls).
    pub fn cycle(&self) -> u64 {
        self.inner.borrow().cycle
    }

    /// Enables or disables signal-flow-graph recording. Typically enabled
    /// for the first iteration of a stimulus loop only. While it records,
    /// the design is the current thread's recording context: every
    /// operator on values read from it interns its node at once, and an
    /// assignment adds to the graph only the nodes no earlier assignment
    /// reached. An operator that repeats the operator at its position in
    /// the previous clock cycle costs one key comparison; any other costs
    /// one table probe and allocates only for a new node. A loop body
    /// that executes the same operators every cycle therefore records at
    /// about twice the cost of a plain run (the `dual_sim` bench), and
    /// allocates nothing once the graph holds its structure. With
    /// recording off, `Value` arithmetic allocates nothing and never looks
    /// at a recording.
    ///
    /// Stopping drops the nodes of temporaries no assignment reached.
    /// Values traced before the stop (or before [`Design::clear_graph`])
    /// resolve to no node afterwards: assigned while recording again, they
    /// record as a `Const` definition of their fixed value, as untraced
    /// literals do (see [`crate::graph`]).
    pub fn record_graph(&self, on: bool) {
        let mut inner = self.inner.borrow_mut();
        match (on, inner.recording) {
            (true, None) => inner.recording = Some(graph::begin_recording()),
            (false, Some(id)) => {
                graph::end_recording(id);
                inner.recording = None;
            }
            _ => {}
        }
    }

    /// Whether graph recording is currently enabled.
    pub fn is_recording(&self) -> bool {
        self.inner.borrow().recording.is_some()
    }

    /// A snapshot of the recorded signal-flow graph, shared rather than
    /// copied: two calls with no recording in between return the same
    /// allocation. The snapshot never changes. Recording into the design
    /// while a snapshot is alive copies the graph once (copy-on-write),
    /// and [`Design::clear_graph`] and [`Design::install_graph`] replace
    /// the design's graph without touching the snapshot.
    pub fn graph(&self) -> Rc<Graph> {
        Rc::clone(&self.inner.borrow().graph)
    }

    /// The design's error-injection RNG seed (reinstated by
    /// [`Design::reset_state`]).
    pub fn seed(&self) -> u64 {
        self.inner.borrow().seed
    }

    /// Starts capturing an execution trace for a compiled
    /// [`Replay`]: every subsequent assignment and tick is appended as a
    /// [`TraceStep`] until [`Design::end_capture`]. Capture requires
    /// graph recording ([`Design::record_graph`]) to be enabled for the
    /// captured run — assignments executed while recording is off are
    /// silently absent from the trace, which [`Design::verify_replay`]
    /// then rejects.
    pub fn begin_capture(&self) {
        let mut inner = self.inner.borrow_mut();
        let start = inner.signals.iter().map(|st| (st.flt, st.fix)).collect();
        inner.capture = Some(CaptureBuf {
            start,
            steps: Vec::new(),
        });
    }

    /// Stops capturing and returns the trace: the recorded steps, the
    /// current per-signal read counts and the current cycle count. The
    /// read and cycle totals are meaningful when the capture spanned one
    /// whole run that started from freshly reset statistics. Returns
    /// `None` if [`Design::begin_capture`] was not active.
    pub fn end_capture(&self) -> Option<ExecTrace> {
        let mut inner = self.inner.borrow_mut();
        let cap = inner.capture.take()?;
        let reads = inner.signals.iter().map(|st| st.reads).collect();
        Some(ExecTrace {
            start: cap.start,
            steps: cap.steps,
            reads,
            cycles: inner.cycle,
        })
    }

    /// Discards the recorded signal-flow graph. A recording in progress
    /// continues into the empty graph; values traced before the call
    /// record as constants (see [`Design::record_graph`]).
    pub fn clear_graph(&self) {
        self.inner.borrow_mut().replace_graph(Graph::new());
    }

    /// Number of declared signals.
    pub fn num_signals(&self) -> usize {
        self.inner.borrow().signals.len()
    }

    /// Looks a signal up by name.
    pub fn find(&self, name: &str) -> Option<SignalId> {
        self.inner.borrow().names.get(name).copied()
    }

    /// The name of a signal.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a signal of this design.
    pub fn name_of(&self, id: SignalId) -> String {
        self.inner.borrow().signals[id.0 as usize].name.clone()
    }

    /// The current type of a signal (`None` = floating point).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a signal of this design.
    pub fn dtype_of(&self, id: SignalId) -> Option<DType> {
        self.inner.borrow().signals[id.0 as usize].dtype.clone()
    }

    /// Sets or clears the type of a signal — how the refinement flow
    /// applies its decisions. Re-initializes the propagated range from the
    /// new type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a signal of this design.
    pub fn set_dtype(&self, id: SignalId, dtype: Option<DType>) {
        let mut inner = self.inner.borrow_mut();
        let st = &mut inner.signals[id.0 as usize];
        st.dtype = dtype;
        st.prop = initial_prop(&st.dtype);
        inner.dirty.insert(id.0);
    }

    /// Sets the explicit range annotation of a signal (the paper's
    /// `x.range(min, max)`), used to seed or pin down range propagation.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `id` is not a signal of this design.
    pub fn set_range(&self, id: SignalId, lo: f64, hi: f64) {
        let mut inner = self.inner.borrow_mut();
        inner.signals[id.0 as usize].range_override = Some(Interval::new(lo, hi));
        inner.dirty.insert(id.0);
    }

    /// Fallible form of [`Design::set_range`] for bounds that come from
    /// user input or search heuristics rather than trusted code: rejects
    /// NaN and inverted bounds with [`FixError::InvalidRange`] instead of
    /// panicking. The annotation is untouched on error.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a signal of this design.
    pub fn try_set_range(&self, id: SignalId, lo: f64, hi: f64) -> Result<(), FixError> {
        let itv = Interval::try_new(lo, hi)?;
        let mut inner = self.inner.borrow_mut();
        inner.signals[id.0 as usize].range_override = Some(itv);
        inner.dirty.insert(id.0);
        Ok(())
    }

    /// Removes the explicit range annotation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a signal of this design.
    pub fn clear_range(&self, id: SignalId) {
        let mut inner = self.inner.borrow_mut();
        inner.signals[id.0 as usize].range_override = None;
        inner.dirty.insert(id.0);
    }

    /// The explicit range annotation, if any.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a signal of this design.
    pub fn range_of(&self, id: SignalId) -> Option<Interval> {
        self.inner.borrow().signals[id.0 as usize].range_override
    }

    /// Sets the explicit produced-error annotation of a signal (the
    /// paper's `a.error(...)`): each assignment replaces the float path
    /// with `fix + U(-σ√3, σ√3)`, a zero-mean uniform error of standard
    /// deviation `sigma`. This breaks float/fixed divergence on sensitive
    /// feedback signals (paper §4.2).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or `id` is not a signal of this
    /// design.
    pub fn set_error_sigma(&self, id: SignalId, sigma: f64) {
        assert!(sigma >= 0.0 && sigma.is_finite(), "invalid sigma {sigma}");
        let mut inner = self.inner.borrow_mut();
        inner.signals[id.0 as usize].error_override = Some(sigma);
        // Error injection draws from the design-wide RNG stream, so a new
        // error model shifts every subsequent draw: everything is dirty.
        Self::mark_all_dirty(&mut inner);
    }

    /// Fallible form of [`Design::set_error_sigma`]: rejects negative or
    /// non-finite sigmas with [`FixError::InvalidSigma`] instead of
    /// panicking. The annotation is untouched on error.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a signal of this design.
    pub fn try_set_error_sigma(&self, id: SignalId, sigma: f64) -> Result<(), FixError> {
        if !(sigma >= 0.0 && sigma.is_finite()) {
            return Err(FixError::InvalidSigma { sigma });
        }
        let mut inner = self.inner.borrow_mut();
        inner.signals[id.0 as usize].error_override = Some(sigma);
        Self::mark_all_dirty(&mut inner);
        Ok(())
    }

    /// Removes the explicit produced-error annotation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a signal of this design.
    pub fn clear_error(&self, id: SignalId) {
        let mut inner = self.inner.borrow_mut();
        inner.signals[id.0 as usize].error_override = None;
        Self::mark_all_dirty(&mut inner);
    }

    fn mark_all_dirty(inner: &mut DesignInner) {
        for i in 0..inner.signals.len() as u32 {
            inner.dirty.insert(i);
        }
    }

    /// The explicit produced-error annotation, if any.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a signal of this design.
    pub fn error_of(&self, id: SignalId) -> Option<f64> {
        self.inner.borrow().signals[id.0 as usize].error_override
    }

    /// Drains the recorded overflow events (signals with
    /// [`OverflowMode::Error`] types).
    pub fn take_overflow_events(&self) -> Vec<OverflowEvent> {
        std::mem::take(&mut self.inner.borrow_mut().overflow_events)
    }

    /// Copies the recorded overflow events without draining them — the
    /// incremental engine snapshots them into its cache after each run.
    pub fn peek_overflow_events(&self) -> Vec<OverflowEvent> {
        self.inner.borrow().overflow_events.clone()
    }

    /// Drains the set of signals whose annotations changed since the last
    /// drain (every signal starts dirty at declaration).
    pub fn take_dirty(&self) -> Vec<SignalId> {
        let mut inner = self.inner.borrow_mut();
        std::mem::take(&mut inner.dirty)
            .into_iter()
            .map(SignalId)
            .collect()
    }

    /// The current dirty set without draining it — checkpoints capture it
    /// so a resumed flow replans exactly like the uninterrupted run.
    pub fn peek_dirty(&self) -> Vec<SignalId> {
        self.inner
            .borrow()
            .dirty
            .iter()
            .map(|&i| SignalId(i))
            .collect()
    }

    /// Re-marks signals dirty — the restore half of
    /// [`Design::peek_dirty`], used when resuming from a checkpoint (the
    /// blanket declaration/annotation dirt is drained first, then the
    /// checkpointed set is reinstated verbatim).
    pub fn mark_dirty(&self, ids: &[SignalId]) {
        let mut inner = self.inner.borrow_mut();
        for id in ids {
            inner.dirty.insert(id.0);
        }
    }

    /// Asserts the static-schedule contract: every signal is assigned
    /// unconditionally on its schedule regardless of data, and every
    /// data-dependent decision flows through recorded dataflow
    /// ([`Value::select_positive`](crate::Value::select_positive) etc.)
    /// rather than Rust-level branching on fixed values. Model
    /// constructors that satisfy this (e.g. the LMS equalizer) declare
    /// it; designs with fixed-path-steered schedules (e.g. the timing
    /// loop's strobe) must not. The declaration only sets the severity of
    /// lint's FXL001 static-schedule check: a violation is an error under
    /// the declaration and a warning without it.
    pub fn declare_static_schedule(&self) {
        self.inner.borrow_mut().static_schedule = true;
    }

    /// Whether [`Design::declare_static_schedule`] was called.
    pub fn has_static_schedule(&self) -> bool {
        self.inner.borrow().static_schedule
    }

    /// Resets every monitoring statistic (ranges, errors, counters,
    /// overflow events) while keeping values, types and annotations —
    /// called between refinement iterations.
    pub fn reset_stats(&self) {
        let mut inner = self.inner.borrow_mut();
        for st in &mut inner.signals {
            st.stat.reset();
            st.consumed.reset();
            st.produced.reset();
            st.prop = initial_prop(&st.dtype);
            st.overflows = 0;
            st.reads = 0;
            st.writes = 0;
            st.granularity = None;
            st.non_dyadic = false;
        }
        inner.overflow_events.clear();
    }

    /// Resets simulation state (signal values, pending register updates,
    /// the cycle counter and the error-injection RNG) while keeping types,
    /// annotations and statistics.
    pub fn reset_state(&self) {
        let mut inner = self.inner.borrow_mut();
        for st in &mut inner.signals {
            st.flt = 0.0;
            st.fix = 0.0;
            st.next = None;
        }
        inner.cycle = 0;
        inner.rng = Rng64::seed_from_u64(inner.seed);
    }

    /// Exports every signal's monitoring state as plain `Send` data, in
    /// declaration order — the shard side of the scenario-sweep merge.
    pub fn export_stats(&self) -> Vec<SignalStats> {
        let inner = self.inner.borrow();
        inner
            .signals
            .iter()
            .map(|st| SignalStats {
                name: st.name.clone(),
                stat: st.stat,
                prop: st.prop,
                consumed: st.consumed,
                produced: st.produced,
                overflows: st.overflows,
                reads: st.reads,
                writes: st.writes,
                granularity: st.granularity,
                non_dyadic: st.non_dyadic,
            })
            .collect()
    }

    /// Folds a shard's exported statistics into this design's monitors,
    /// matching signals by name: range/error statistics merge (Welford
    /// combination), propagated ranges union, counters add, and the
    /// dyadic-granularity tracker keeps the finest LSB (with `non_dyadic`
    /// sticky). Folding shard exports in scenario order over a freshly
    /// [`Design::reset_stats`] master yields exactly the monitors one
    /// sequential simulation of the concatenated scenarios would produce.
    ///
    /// # Errors
    ///
    /// [`UnknownSignalError`] if a snapshot name does not exist here; the
    /// design is left unchanged in that case.
    pub fn absorb_stats(&self, stats: &[SignalStats]) -> Result<(), UnknownSignalError> {
        let mut inner = self.inner.borrow_mut();
        let ids: Vec<usize> = stats
            .iter()
            .map(|s| {
                inner
                    .names
                    .get(&s.name)
                    .map(|id| id.0 as usize)
                    .ok_or_else(|| UnknownSignalError {
                        name: s.name.clone(),
                    })
            })
            .collect::<Result<_, _>>()?;
        for (s, idx) in stats.iter().zip(ids) {
            let st = &mut inner.signals[idx];
            st.stat.merge(&s.stat);
            st.consumed.merge(&s.consumed);
            st.produced.merge(&s.produced);
            st.prop = st.prop.union(&s.prop);
            st.overflows += s.overflows;
            st.reads += s.reads;
            st.writes += s.writes;
            if s.non_dyadic {
                st.non_dyadic = true;
            }
            if st.non_dyadic {
                st.granularity = None;
            } else if let Some(l) = s.granularity {
                st.granularity = Some(st.granularity.map_or(l, |g| g.min(l)));
            }
        }
        Ok(())
    }

    /// Appends a shard's drained overflow events to this design's queue
    /// (subject to the retention cap). Ids are preserved, which is sound
    /// when both designs were built from the same description.
    pub fn absorb_overflow_events(&self, events: Vec<OverflowEvent>) {
        let mut inner = self.inner.borrow_mut();
        let room = inner
            .overflow_event_cap
            .saturating_sub(inner.overflow_events.len());
        inner.overflow_events.extend(events.into_iter().take(room));
    }

    /// Snapshots every signal's refinement annotations (type, range pin,
    /// error sigma) as plain `Send` data, in declaration order.
    pub fn annotations(&self) -> Vec<SignalAnnotation> {
        let inner = self.inner.borrow();
        inner
            .signals
            .iter()
            .map(|st| SignalAnnotation {
                name: st.name.clone(),
                dtype: st.dtype.clone(),
                range: st.range_override,
                error_sigma: st.error_override,
            })
            .collect()
    }

    /// Applies an annotation snapshot by name. Only `Some` fields are
    /// applied — the refinement flow never *clears* an annotation, so a
    /// freshly built shard design plus the master's `Some` annotations
    /// reproduces the master's pre-simulation state exactly. Returns the
    /// number of annotations applied.
    ///
    /// # Errors
    ///
    /// [`UnknownSignalError`] on the first unresolved name; annotations
    /// before it have already been applied.
    pub fn apply_annotations(
        &self,
        annotations: &[SignalAnnotation],
    ) -> Result<usize, UnknownSignalError> {
        let mut applied = 0;
        for a in annotations {
            let id = self.find(&a.name).ok_or_else(|| UnknownSignalError {
                name: a.name.clone(),
            })?;
            if let Some(dt) = &a.dtype {
                self.set_dtype(id, Some(dt.clone()));
                applied += 1;
            }
            if let Some(r) = a.range {
                let mut inner = self.inner.borrow_mut();
                inner.signals[id.0 as usize].range_override = Some(r);
                inner.dirty.insert(id.0);
                applied += 1;
            }
            if let Some(sigma) = a.error_sigma {
                // Exported from a design that already validated it.
                let mut inner = self.inner.borrow_mut();
                inner.signals[id.0 as usize].error_override = Some(sigma);
                Self::mark_all_dirty(&mut inner);
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Replaces the recorded signal-flow graph — how the sweep engine
    /// installs the graph recorded by shard 0 on the master design, since
    /// the master never simulates itself in swept mode. The graph moves
    /// in; snapshots of the replaced one are unaffected.
    pub fn install_graph(&self, graph: Graph) {
        self.inner.borrow_mut().replace_graph(graph);
    }

    /// The monitoring report of one signal.
    ///
    /// # Panics
    ///
    /// Panics if the handle belongs to a different design.
    pub fn report_for(&self, handle: &impl SignalRef) -> SignalReport {
        assert!(
            Rc::ptr_eq(&self.inner, &handle.design().inner),
            "handle belongs to a different design"
        );
        self.report_by_id(handle.id())
    }

    /// The monitoring report of a signal by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a signal of this design.
    pub fn report_by_id(&self, id: SignalId) -> SignalReport {
        let inner = self.inner.borrow();
        let st = &inner.signals[id.0 as usize];
        SignalReport {
            id,
            name: st.name.clone(),
            kind: st.kind,
            dtype: st.dtype.clone(),
            range_override: st.range_override,
            error_override: st.error_override,
            stat: st.stat,
            prop: st.prop,
            consumed: st.consumed,
            produced: st.produced,
            overflows: st.overflows,
            reads: st.reads,
            writes: st.writes,
            finest_lsb: if st.non_dyadic { None } else { st.granularity },
        }
    }

    /// Monitoring reports for every signal, in declaration order.
    pub fn reports(&self) -> Vec<SignalReport> {
        (0..self.num_signals() as u32)
            .map(|i| self.report_by_id(SignalId(i)))
            .collect()
    }

    /// Re-acquires a wire handle from an id (useful inside stimulus
    /// closures that only captured the design).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a signal of this design or names a register.
    pub fn sig_handle(&self, id: SignalId) -> Sig {
        assert_eq!(
            self.inner.borrow().signals[id.0 as usize].kind,
            SignalKind::Wire,
            "{} is a register; use reg_handle",
            self.name_of(id)
        );
        Sig {
            design: self.clone(),
            id,
        }
    }

    /// Re-acquires a register handle from an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a signal of this design or names a wire.
    pub fn reg_handle(&self, id: SignalId) -> Reg {
        assert_eq!(
            self.inner.borrow().signals[id.0 as usize].kind,
            SignalKind::Register,
            "{} is a wire; use sig_handle",
            self.name_of(id)
        );
        Reg {
            design: self.clone(),
            id,
        }
    }

    /// Reads the raw `(flt, fix)` value pair of a signal *without*
    /// touching any monitor or counter — used by waveform tracing so that
    /// sampling does not skew the `#n` columns of the reports.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a signal of this design.
    pub fn peek(&self, id: SignalId) -> (f64, f64) {
        let inner = self.inner.borrow();
        let st = &inner.signals[id.0 as usize];
        (st.flt, st.fix)
    }

    fn read(&self, id: SignalId) -> Value {
        let mut inner = self.inner.borrow_mut();
        let recording = inner.recording;
        let st = &mut inner.signals[id.0 as usize];
        st.reads += 1;
        let trace = recording.and_then(|rec| match st.read_trace {
            Some(t) if t.recording() == rec => Some(t),
            _ => {
                st.read_trace = graph::trace_read(rec, id);
                st.read_trace
            }
        });
        st.read_value(trace)
    }

    fn assign(&self, id: SignalId, value: Value) {
        self.inner.borrow_mut().assign(id, &value);
    }

    /// Runs a compiled replay against this design, reproducing one
    /// interpreted run bit-for-bit: every computed step evaluates its
    /// definition on the live signal values and every input step feeds
    /// its captured sample through the interpreter's monitored
    /// assignment pipeline (quantization, range stats, propagation,
    /// error injection from the live RNG stream, the monitor sink);
    /// every tick is the interpreter's tick, and read counts are spliced
    /// from the capture. Types, range overrides and error models are read
    /// *live*, so one replay survives annotation changes between
    /// refinement iterations. A replayed assignment carries no
    /// expression, so the replay records no graph and extends no capture.
    /// The monitor sink is flushed to the attached recorder at the end,
    /// as a refinement flow does after an interpreted run.
    ///
    /// The design must be in the same starting state the capture began
    /// from (freshly reset, or freshly built for sweep shards). Returns
    /// the cycle count after the replay.
    ///
    /// # Panics
    ///
    /// Panics if the replay names signals this design does not have —
    /// callers are expected to have proven it with
    /// [`Design::verify_replay`].
    pub fn replay(&self, replay: &Replay) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let recording = inner.recording.take();
        let capture = inner.capture.take();
        inner.run_replay(replay, |_, _| true);
        for (st, &reads) in inner.signals.iter_mut().zip(&replay.reads) {
            st.reads = reads;
        }
        inner.recording = recording;
        inner.capture = capture;
        inner.flush_monitors();
        inner.cycle
    }

    /// Proves that `replay` reproduces `trace`, the capture it was
    /// compiled from: it runs on a scratch copy of this design's signals,
    /// started from the captured values with a fresh RNG stream from the
    /// design seed, and every computed assignment's incoming `(flt, fix)`
    /// must match the capture bitwise. Runs under the design's *current*
    /// annotations (call it right after the capture, before annotations
    /// change); the design itself is untouched.
    ///
    /// A `false` verdict means the replay cannot faithfully re-execute
    /// the host description — typically because host code kept a read
    /// value in a local across an intervening reassignment of the same
    /// signal (a "stale read" the definition's reads cannot see). Callers
    /// must then fall back to the interpreted backend.
    pub fn verify_replay(&self, replay: &Replay, trace: &ExecTrace) -> bool {
        let inner = self.inner.borrow();
        if trace.start.len() != inner.signals.len() || trace.steps.len() != replay.steps.len() {
            return false;
        }
        let mut scratch = inner.scratch(&trace.start);
        scratch.run_replay(replay, |step, value| match trace.steps[step] {
            TraceStep::Assign { flt, fix, .. } => {
                value.flt().to_bits() == flt.to_bits() && value.fix().to_bits() == fix.to_bits()
            }
            TraceStep::Tick => false,
        })
    }
}

impl DesignInner {
    /// Swaps in `new` as the graph. A recording in progress restarts,
    /// since the nodes it has copied into the old graph are not in the
    /// new one.
    fn replace_graph(&mut self, new: Graph) {
        self.graph = Rc::new(new);
        if let Some(id) = self.recording {
            graph::end_recording(id);
            self.recording = Some(graph::begin_recording());
        }
    }

    /// A private copy of the signals for a verification replay: values
    /// from `start`, statistics and propagated ranges reset, a fresh RNG
    /// stream from the design seed, and no recorder, recording or capture.
    fn scratch(&self, start: &[(f64, f64)]) -> DesignInner {
        let signals = self
            .signals
            .iter()
            .zip(start)
            .map(|(st, &(flt, fix))| SignalState {
                flt,
                fix,
                next: None,
                prop: initial_prop(&st.dtype),
                ..st.clone()
            })
            .collect();
        DesignInner {
            signals,
            names: HashMap::new(),
            rng: Rng64::seed_from_u64(self.seed),
            seed: self.seed,
            cycle: 0,
            recording: None,
            graph: Rc::default(),
            overflow_events: Vec::new(),
            overflow_event_cap: 0,
            dirty: BTreeSet::new(),
            static_schedule: false,
            recorder: None,
            monitors: MonitorSink::default(),
            capture: None,
        }
    }

    /// Runs the steps of `replay` through [`DesignInner::assign`] and
    /// [`DesignInner::tick`]. `accept` sees each computed value, with the
    /// index of its step, before it is assigned; the run stops, returning
    /// `false`, at the first value it refuses.
    fn run_replay(
        &mut self,
        replay: &Replay,
        mut accept: impl FnMut(usize, &Value) -> bool,
    ) -> bool {
        let mut temps = Vec::new();
        let mut inputs = replay.inputs.iter();
        for (i, step) in replay.steps.iter().enumerate() {
            match *step {
                Step::Compute(k) => {
                    let def = &replay.defs[k as usize];
                    let signals = &self.signals;
                    let value = def.eval_value(|i| signals[i].read_value(None), &mut temps);
                    if !accept(i, &value) {
                        return false;
                    }
                    self.assign(def.signal, &value);
                }
                Step::Input(id) => {
                    let sample = inputs.next().expect("one captured sample per input step");
                    self.assign(id, sample);
                }
                Step::Tick => self.tick(),
            }
        }
        true
    }

    /// The monitored assignment pipeline of paper Fig. 2, shared by the
    /// interpreter ([`Sig::set`], [`Reg::set`]) and the compiled replay's
    /// assignments: quantization, range statistics, error statistics, error
    /// injection, range propagation, graph recording and the write
    /// itself. Recorder-bound output goes to the monitor sink.
    ///
    /// The value comes by reference: taken by value, it was copied onto
    /// this function's stack on every call, and a steady simulation
    /// without a recorder ran about 20% slower.
    fn assign(&mut self, id: SignalId, value: &Value) {
        let monitored = self.recorder.is_some();
        let mut sink_full = false;
        let st = &mut self.signals[id.0 as usize];
        st.writes += 1;
        st.stat.record(value.fix());
        st.consumed.record(value.flt() - value.fix());
        if monitored {
            self.monitors.assignments += 1;
        }

        // LSB+MSB: quantize the fixed path through the signal's type.
        let mut new_fix = value.fix();
        if let Some(dt) = &st.dtype {
            let q = quantize(value.fix(), dt);
            if monitored {
                sink_full = self.monitors.push_quant_error(id, q.rounding_error);
            }
            if q.overflowed {
                st.overflows += 1;
                if monitored {
                    match dt.overflow() {
                        OverflowMode::Saturate => self.monitors.saturations += 1,
                        _ => self.monitors.overflows += 1,
                    }
                }
                if dt.overflow() == OverflowMode::Error {
                    if monitored {
                        self.monitors.events.push(Event::OverflowDetected {
                            signal: st.name.clone(),
                            value: value.fix(),
                            cycle: self.cycle,
                        });
                        sink_full |= self.monitors.events.len() == MONITOR_BUFFER;
                    }
                    if self.overflow_events.len() < self.overflow_event_cap {
                        self.overflow_events.push(OverflowEvent {
                            signal: id,
                            name: st.name.clone(),
                            value: value.fix(),
                            cycle: self.cycle,
                        });
                    }
                }
            }
            new_fix = q.value;
        }

        // Float path: either the true reference, or the explicit error
        // model for divergent feedback signals.
        let new_flt = match st.error_override {
            Some(sigma) if sigma > 0.0 => {
                let half = sigma * 3f64.sqrt();
                new_fix + self.rng.symmetric(half)
            }
            Some(_) => new_fix,
            None => value.flt(),
        };
        st.produced.record(new_flt - new_fix);

        // Granularity: the finest LSB any assigned value actually used.
        if new_fix != 0.0 && !st.non_dyadic {
            match dyadic_lsb(new_fix) {
                Some(l) => {
                    st.granularity = Some(st.granularity.map_or(l, |g| g.min(l)));
                }
                None => {
                    st.non_dyadic = true;
                    st.granularity = None;
                }
            }
        }

        // Quasi-analytical range propagation (assignment rule: union).
        if st.range_override.is_none() {
            let mut incoming = value.interval();
            if let Some(dt) = &st.dtype {
                if dt.overflow() == OverflowMode::Saturate {
                    incoming = incoming.clamp_to(&Interval::from_dtype(dt));
                }
            }
            st.prop = st.prop.union(&incoming);
        }

        // Signal-flow graph. An untraced value (a literal, or one built
        // before this recording began) records as a constant definition —
        // this is how coefficient initializations like `c[i] = coef[i]`
        // enter the analytical model.
        if let Some(rec) = self.recording {
            let trace = value.trace().filter(|t| t.recording() == rec);
            let root = match (trace, st.last_root) {
                (Some(t), Some((last, root))) if t == last => root,
                _ => {
                    let sfg = Rc::make_mut(&mut self.graph);
                    let root = graph::record_root(rec, trace, sfg)
                        .unwrap_or_else(|| sfg.add(graph::Op::Const(value.fix()), vec![]));
                    sfg.record_def(id, root);
                    st.last_root = trace.map(|t| (t, root));
                    root
                }
            };
            if let Some(cap) = &mut self.capture {
                cap.steps.push(TraceStep::Assign {
                    sig: id,
                    root,
                    flt: value.flt(),
                    fix: value.fix(),
                    itv: value.interval(),
                });
            }
        }

        match st.kind {
            SignalKind::Wire => {
                st.flt = new_flt;
                st.fix = new_fix;
            }
            SignalKind::Register => {
                st.next = Some((new_flt, new_fix));
            }
        }
        if sink_full {
            self.flush_monitors();
        }
    }

    /// The clock tick of both backends: pending register assignments
    /// become visible and the cycle counter increments.
    fn tick(&mut self) {
        for st in &mut self.signals {
            if let Some((flt, fix)) = st.next.take() {
                st.flt = flt;
                st.fix = fix;
            }
        }
        self.cycle += 1;
        if let Some(rec) = self.recording {
            graph::tick_recording(rec);
        }
        if let Some(cap) = &mut self.capture {
            cap.steps.push(TraceStep::Tick);
        }
        if self.recorder.is_some() {
            self.monitors.ticks += 1;
        }
    }

    /// Hands the monitor sink to the attached recorder and empties it.
    /// Counters go as one increment each, and only when nonzero, so an
    /// untouched counter stays absent. Each signal's quantization errors
    /// go through [`Recorder::observe_seq`], which folds them one at a
    /// time onto the histogram's current state — pre-summing them would
    /// change the sum's last bit. Events follow in the order they
    /// occurred. A recorder cannot hold the (non-`Send`) design, so
    /// calling it here cannot re-enter the simulation.
    fn flush_monitors(&mut self) {
        let Some(rec) = &self.recorder else {
            return;
        };
        let sink = &mut self.monitors;
        for (name, count) in [
            ("sim.assignments", &mut sink.assignments),
            ("sim.saturations", &mut sink.saturations),
            ("sim.overflows", &mut sink.overflows),
            ("sim.ticks", &mut sink.ticks),
        ] {
            if *count > 0 {
                rec.inc(name, std::mem::take(count));
            }
        }
        for (st, values) in self.signals.iter().zip(&mut sink.quant) {
            if !values.is_empty() {
                rec.observe_seq(&st.quant_key, values);
                values.clear();
            }
        }
        for event in sink.events.drain(..) {
            rec.record_event(event);
        }
    }
}

impl Drop for DesignInner {
    /// Flushes the monitor sink and releases the graph recording, if one
    /// is in progress.
    fn drop(&mut self) {
        if let Some(id) = self.recording.take() {
            graph::end_recording(id);
        }
        // Not while the thread panics: the panic may have cut an
        // assignment short, and a recorder call that panicked again
        // during unwinding would abort the process.
        if !std::thread::panicking() {
            self.flush_monitors();
        }
    }
}

/// Common interface of [`Sig`] and [`Reg`] handles.
pub trait SignalRef {
    /// The signal's id within its design.
    fn id(&self) -> SignalId;
    /// The owning design.
    fn design(&self) -> &Design;

    /// The signal's name.
    fn name(&self) -> String {
        self.design().name_of(self.id())
    }

    /// The signal's current type (`None` = floating point).
    fn dtype(&self) -> Option<DType> {
        self.design().dtype_of(self.id())
    }

    /// Sets or clears the signal's type.
    fn set_dtype(&self, dtype: Option<DType>) {
        self.design().set_dtype(self.id(), dtype);
    }

    /// Explicit range annotation (paper `x.range(min, max)`).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    fn range(&self, lo: f64, hi: f64) {
        self.design().set_range(self.id(), lo, hi);
    }

    /// Explicit produced-error annotation with standard deviation `sigma`
    /// (paper `a.error(...)`).
    fn error_sigma(&self, sigma: f64) {
        self.design().set_error_sigma(self.id(), sigma);
    }

    /// Explicit produced-error annotation equivalent to quantizing at LSB
    /// position `lsb`: `σ = 2^lsb / √12` (the paper's example maps
    /// LSB −6 to its uniform error model).
    fn error_lsb(&self, lsb: i32) {
        self.design()
            .set_error_sigma(self.id(), (lsb as f64).exp2() / 12f64.sqrt());
    }
}

/// Handle to a combinational (wire) signal — the paper's `sig`.
#[derive(Debug, Clone)]
pub struct Sig {
    design: Design,
    id: SignalId,
}

impl Sig {
    /// Reads the signal's current dual value.
    #[inline]
    pub fn get(&self) -> Value {
        self.design.read(self.id)
    }

    /// Assigns immediately (combinational semantics), performing
    /// quantization and all monitoring.
    #[inline]
    pub fn set(&self, value: impl Into<Value>) {
        self.design.assign(self.id, value.into());
    }
}

impl SignalRef for Sig {
    fn id(&self) -> SignalId {
        self.id
    }
    fn design(&self) -> &Design {
        &self.design
    }
}

/// Handle to a clocked register — the paper's `reg`. Assignments become
/// visible at the next [`Design::tick`].
#[derive(Debug, Clone)]
pub struct Reg {
    design: Design,
    id: SignalId,
}

impl Reg {
    /// Reads the register's current (pre-tick) dual value.
    #[inline]
    pub fn get(&self) -> Value {
        self.design.read(self.id)
    }

    /// Schedules an assignment for the next clock tick, performing
    /// quantization and all monitoring now.
    #[inline]
    pub fn set(&self, value: impl Into<Value>) {
        self.design.assign(self.id, value.into());
    }
}

impl SignalRef for Reg {
    fn id(&self) -> SignalId {
        self.id
    }
    fn design(&self) -> &Design {
        &self.design
    }
}

/// An indexed collection of wires — the paper's `sigarray`.
#[derive(Debug, Clone)]
pub struct SigArray {
    sigs: Vec<Sig>,
}

impl SigArray {
    /// The element at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn at(&self, i: usize) -> &Sig {
        &self.sigs[i]
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Iterates over the element handles.
    pub fn iter(&self) -> std::slice::Iter<'_, Sig> {
        self.sigs.iter()
    }

    /// Applies one type to every element.
    pub fn set_dtype_all(&self, dtype: Option<DType>) {
        for s in &self.sigs {
            s.set_dtype(dtype.clone());
        }
    }
}

impl<'a> IntoIterator for &'a SigArray {
    type Item = &'a Sig;
    type IntoIter = std::slice::Iter<'a, Sig>;
    fn into_iter(self) -> Self::IntoIter {
        self.sigs.iter()
    }
}

/// An indexed collection of registers — the paper's `regarray`.
#[derive(Debug, Clone)]
pub struct RegArray {
    regs: Vec<Reg>,
}

impl RegArray {
    /// The element at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn at(&self, i: usize) -> &Reg {
        &self.regs[i]
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Iterates over the element handles.
    pub fn iter(&self) -> std::slice::Iter<'_, Reg> {
        self.regs.iter()
    }

    /// Applies one type to every element.
    pub fn set_dtype_all(&self, dtype: Option<DType>) {
        for r in &self.regs {
            r.set_dtype(dtype.clone());
        }
    }
}

impl<'a> IntoIterator for &'a RegArray {
    type Item = &'a Reg;
    type IntoIter = std::slice::Iter<'a, Reg>;
    fn into_iter(self) -> Self::IntoIter {
        self.regs.iter()
    }
}

impl std::ops::Index<usize> for SigArray {
    type Output = Sig;
    /// Indexes the element handles (`&arr[i]` ≡ `arr.at(i)`).
    #[inline]
    fn index(&self, i: usize) -> &Sig {
        self.at(i)
    }
}

impl std::ops::Index<usize> for RegArray {
    type Output = Reg;
    /// Indexes the element handles (`&arr[i]` ≡ `arr.at(i)`).
    #[inline]
    fn index(&self, i: usize) -> &Reg {
        self.at(i)
    }
}

#[cfg(test)]
mod sweep_snapshot_tests {
    use super::*;
    use fixref_fixed::{RoundingMode, Signedness};

    fn t(n: i32, f: i32) -> DType {
        DType::new(
            "t",
            n,
            f,
            Signedness::TwosComplement,
            OverflowMode::Saturate,
            RoundingMode::Round,
        )
        .unwrap()
    }

    fn drive(d: &Design, values: &[f64]) {
        let id = d.find("x").unwrap();
        let x = d.sig_handle(id);
        for &v in values {
            x.set(v);
            let _ = x.get();
        }
    }

    #[test]
    fn absorbing_shard_stats_equals_streaming_the_concatenation() {
        let a = [0.25, -0.5, 0.75, 0.125];
        let b = [1.5, -1.25, 0.0625];

        // Reference: one design sees both stimuli back to back.
        let whole = Design::new();
        whole.sig_typed("x", t(8, 4));
        drive(&whole, &a);
        drive(&whole, &b);
        let want = whole.report_by_id(whole.find("x").unwrap());

        // Sweep: master sees `a`, a shard sees `b`, master absorbs.
        let master = Design::new();
        master.sig_typed("x", t(8, 4));
        drive(&master, &a);
        let shard = Design::new();
        shard.sig_typed("x", t(8, 4));
        drive(&shard, &b);
        master.absorb_stats(&shard.export_stats()).unwrap();
        let got = master.report_by_id(master.find("x").unwrap());

        assert_eq!(got.stat, want.stat);
        assert_eq!(got.prop, want.prop);
        assert_eq!(got.consumed, want.consumed);
        assert_eq!(got.produced, want.produced);
        assert_eq!(got.reads, want.reads);
        assert_eq!(got.writes, want.writes);
        assert_eq!(got.finest_lsb, want.finest_lsb);
    }

    #[test]
    fn absorb_rejects_unknown_signals_without_side_effects() {
        let master = Design::new();
        master.sig("x");
        let other = Design::new();
        other.sig("x");
        other.sig("intruder");
        let stranger = other.sig_handle(other.find("intruder").unwrap());
        stranger.set(9.0);
        let x = other.sig_handle(other.find("x").unwrap());
        x.set(1.0);

        let err = master.absorb_stats(&other.export_stats()).unwrap_err();
        assert_eq!(err.name, "intruder");
        // Nothing was merged, not even the signals that did resolve.
        let rep = master.report_by_id(master.find("x").unwrap());
        assert_eq!(rep.stat.count(), 0);
    }

    #[test]
    fn annotations_round_trip_onto_a_fresh_design() {
        let build = || {
            let d = Design::new();
            d.sig("a");
            d.reg("b");
            d
        };
        let master = build();
        let a = master.find("a").unwrap();
        let b = master.find("b").unwrap();
        master.set_dtype(a, Some(t(6, 3)));
        master.set_range(a, -2.0, 2.0);
        master.set_error_sigma(b, 0.01);

        let fresh = build();
        let applied = fresh.apply_annotations(&master.annotations()).unwrap();
        assert_eq!(applied, 3);
        assert_eq!(fresh.annotations(), master.annotations());
        // dtype application re-seeded the propagated range like the
        // master's own reset would.
        assert_eq!(
            fresh.report_by_id(fresh.find("a").unwrap()).prop,
            Interval::from_dtype(&t(6, 3))
        );

        let orphan = Design::new();
        orphan.sig("a"); // no "b"
        assert_eq!(
            orphan.apply_annotations(&master.annotations()).unwrap_err(),
            UnknownSignalError { name: "b".into() }
        );
    }

    #[test]
    fn try_setters_reject_bad_input_instead_of_panicking() {
        let d = Design::new();
        let x = d.sig("x");
        let id = x.id();
        assert!(matches!(
            d.try_set_range(id, 1.0, -1.0),
            Err(FixError::InvalidRange { .. })
        ));
        assert!(matches!(
            d.try_set_range(id, f64::NAN, 1.0),
            Err(FixError::InvalidRange { .. })
        ));
        assert_eq!(d.range_of(id), None);
        d.try_set_range(id, -1.0, 1.0).unwrap();
        assert_eq!(d.range_of(id), Some(Interval::new(-1.0, 1.0)));

        assert!(matches!(
            d.try_set_error_sigma(id, -0.5),
            Err(FixError::InvalidSigma { .. })
        ));
        assert!(matches!(
            d.try_set_error_sigma(id, f64::INFINITY),
            Err(FixError::InvalidSigma { .. })
        ));
        assert_eq!(d.error_of(id), None);
        d.try_set_error_sigma(id, 0.25).unwrap();
        assert_eq!(d.error_of(id), Some(0.25));
    }

    #[test]
    fn overflow_events_absorb_in_order_up_to_the_cap() {
        let et = DType::new(
            "e",
            4,
            2,
            Signedness::TwosComplement,
            OverflowMode::Error,
            RoundingMode::Round,
        )
        .unwrap();
        let master = Design::new();
        master.sig_typed("x", et.clone());
        let shard = Design::new();
        let x = shard.sig_typed("x", et);
        x.set(100.0); // overflows a <4,2,tc> type
        let events = shard.take_overflow_events();
        assert_eq!(events.len(), 1);
        master.absorb_overflow_events(events);
        let merged = master.take_overflow_events();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].name, "x");
    }

    #[test]
    fn install_graph_replaces_the_recorded_graph() {
        let src = Design::new();
        let a = src.sig("a");
        src.record_graph(true);
        a.set(a.get() + 1.0);
        src.record_graph(false);
        let g = src.graph();
        assert!(!g.is_empty());

        let dst = Design::new();
        dst.sig("a");
        assert_eq!(dst.graph().len(), 0);
        dst.install_graph((*g).clone());
        assert_eq!(dst.graph().len(), g.len());
    }
}

#[cfg(test)]
mod recording_tests {
    use super::*;
    use crate::graph::{recordings_on_this_thread, Op};

    /// The graph's nodes as `Debug` lines, operands by id.
    fn nodes(g: &Graph) -> Vec<String> {
        g.iter().map(|(id, n)| format!("{id}: {n:?}")).collect()
    }

    /// `y = a * 0.5 + b; z = -a` over a fresh design's `a`, `b`, `y`, `z`.
    fn lone(design: &Design) -> Rc<Graph> {
        let [a, b, y, z] = ["a", "b", "y", "z"].map(|n| design.sig(n));
        design.record_graph(true);
        y.set(a.get() * 0.5 + b.get());
        z.set(-a.get());
        design.record_graph(false);
        design.graph()
    }

    #[test]
    fn two_designs_recording_on_one_thread_keep_their_own_graphs() {
        let expected = nodes(&lone(&Design::new()));
        let (d1, d2) = (Design::new(), Design::new());
        let [a1, b1, y1, z1] = ["a", "b", "y", "z"].map(|n| d1.sig(n));
        // `d2` declares a signal more, so its ids differ from `d1`'s.
        d2.sig("pad");
        let [a2, b2, y2, z2] = ["a", "b", "y", "z"].map(|n| d2.sig(n));
        d1.record_graph(true);
        d2.record_graph(true);
        assert_eq!(recordings_on_this_thread(), 2);
        // Interleaved: each operator interns into its own design's
        // recording.
        let p1 = a1.get() * 0.5;
        let p2 = a2.get() * 0.5;
        z2.set(-a2.get());
        y1.set(p1 + b1.get());
        y2.set(p2 + b2.get());
        z1.set(-a1.get());
        d1.record_graph(false);
        d2.record_graph(false);
        assert_eq!(recordings_on_this_thread(), 0);
        assert_eq!(nodes(&d1.graph()), expected);
        let g2 = d2.graph();
        assert_eq!(g2.len(), expected.len());
        assert_eq!(g2.node(g2.defs(z2.id())[0]).op, Op::Neg);
        assert_eq!(g2.node(g2.defs(y2.id())[0]).op, Op::Add);
    }

    #[test]
    fn a_value_from_another_design_enters_as_a_constant() {
        let (d1, d2) = (Design::new(), Design::new());
        let (a1, y1) = (d1.sig("a"), d1.sig("y"));
        let a2 = d2.sig("a");
        a2.set(0.75);
        d1.record_graph(true);
        d2.record_graph(true);
        y1.set(a1.get() + a2.get());
        let g = d1.graph();
        let ops: Vec<Op> = g.iter().map(|(_, n)| n.op.clone()).collect();
        assert_eq!(ops, [Op::Read(a1.id()), Op::Const(0.75), Op::Add]);
        assert!(d2.graph().is_empty());
    }

    #[test]
    fn a_value_traced_before_clear_graph_records_its_fixed_value() {
        let d = Design::new();
        let (x, y) = (d.sig("x"), d.sig("y"));
        x.set(0.75);
        d.record_graph(true);
        let stale = x.get() * 2.0;
        d.clear_graph();
        assert!(d.is_recording());
        y.set(stale);
        let g = d.graph();
        assert_eq!(g.len(), 1);
        assert_eq!(g.node(g.defs(y.id())[0]).op, Op::Const(1.5));
        // Values traced after the clear record as expressions again.
        y.set(x.get() * 2.0);
        assert_eq!(d.graph().len(), 4);
    }

    #[test]
    fn a_value_traced_before_recording_stops_records_its_fixed_value() {
        let d = Design::new();
        let (x, y) = (d.sig("x"), d.sig("y"));
        x.set(0.5);
        d.record_graph(true);
        let stale = -x.get();
        d.record_graph(false);
        // Arithmetic on it no longer traces, and it records as a constant.
        let stale = stale + 1.0;
        d.record_graph(true);
        y.set(stale);
        let g = d.graph();
        assert_eq!(g.len(), 1);
        assert_eq!(g.node(g.defs(y.id())[0]).op, Op::Const(0.5));
    }

    #[test]
    fn dropping_a_recording_design_releases_its_recording() {
        let before = recordings_on_this_thread();
        let d = Design::new();
        let x = d.sig("x");
        d.record_graph(true);
        let kept = x.get() + 1.0;
        assert_eq!(recordings_on_this_thread(), before + 1);
        drop(x);
        drop(d);
        assert_eq!(recordings_on_this_thread(), before);
        // A value that outlived its design traces nothing further.
        assert_eq!((kept * 2.0).trace(), None);
    }

    #[test]
    fn installing_a_graph_restarts_the_recording() {
        let src = Design::new();
        lone(&src);
        let d = Design::new();
        let [a, _b, y, _z] = ["a", "b", "y", "z"].map(|n| d.sig(n));
        d.record_graph(true);
        y.set(a.get() * 3.0);
        let stale = a.get() * 3.0;
        d.install_graph((*src.graph()).clone());
        // The node copied into the replaced graph is not in this one.
        y.set(stale);
        let g = d.graph();
        assert_eq!(g.len(), src.graph().len() + 1);
        assert_eq!(g.node(*g.defs(y.id()).last().unwrap()).op, Op::Const(0.0));
    }

    #[test]
    fn a_snapshot_is_shared_until_recording_and_never_changes() {
        let d = Design::new();
        let [a, b, y, z] = ["a", "b", "y", "z"].map(|n| d.sig(n));
        d.record_graph(true);
        y.set(a.get() * 0.5 + b.get());
        let first = d.graph();
        let before = nodes(&first);
        assert!(Rc::ptr_eq(&first, &d.graph()), "no recording in between");

        // Recording again copies the graph once; the snapshot stays.
        z.set(-a.get());
        let second = d.graph();
        assert!(!Rc::ptr_eq(&first, &second));
        assert_eq!(nodes(&first), before);
        assert_eq!(second.len(), first.len() + 1);
        // A repeated assignment adds nothing and leaves the graph alone.
        z.set(-a.get());
        assert!(Rc::ptr_eq(&second, &d.graph()));

        d.clear_graph();
        assert!(d.graph().is_empty());
        d.install_graph(Graph::new());
        d.record_graph(false);
        assert_eq!(nodes(&first), before);
        assert_eq!(second.len(), before.len() + 1);
        assert!(Rc::ptr_eq(&d.graph(), &d.graph()));
    }

    /// The memo's hits and memoized interns of `design`'s recording.
    fn memo_stats(design: &Design) -> (u64, u64) {
        let id = design.inner.borrow().recording.expect("recording");
        graph::memo_stats(id).expect("live recording")
    }

    /// The paper's Fig. 1 LMS equalizer step over 4 taps (as in
    /// `fixref-dsp`), on a fresh recording design; returns the memo's
    /// hits and memoized interns after `cycles` steps.
    fn lms_memo_stats(cycles: usize) -> (u64, u64) {
        let d = Design::new();
        let x = d.sig("x");
        let c = d.sig_array("c", 4);
        let dl = d.reg_array("d", 4);
        let v = d.sig_array("v", 5);
        let (w, y, b, s) = (d.sig("w"), d.sig("y"), d.reg("b"), d.reg("s"));
        d.record_graph(true);
        for (i, coef) in [0.1, 0.8, -0.3, 0.05].into_iter().enumerate() {
            c.at(i).set(coef);
        }
        for k in 0..cycles {
            x.set((k as f64 * 0.7).sin());
            dl.at(0).set(x.get());
            for i in 1..4 {
                dl.at(i).set(dl.at(i - 1).get());
            }
            v.at(0).set(0.0);
            for i in 1..=4 {
                v.at(i)
                    .set(v.at(i - 1).get() + dl.at(i - 1).get() * c.at(i - 1).get());
            }
            w.set(v.at(4).get() - b.get() * s.get());
            y.set(w.get().select_positive(Value::from(1.0), Value::from(-1.0)));
            b.set(b.get() + 0.01 * s.get() * (w.get() - y.get()));
            s.set(y.get());
            d.tick();
        }
        memo_stats(&d)
    }

    #[test]
    fn a_repeated_loop_body_hits_the_memo_after_its_first_cycle() {
        let (hits, interned) = lms_memo_stats(512);
        assert_eq!(interned % 512, 0, "every cycle runs the same operators");
        let per_cycle = interned / 512;
        assert!(per_cycle > 10, "{per_cycle} operators per cycle");
        assert_eq!(hits, interned - per_cycle, "only the first cycle misses");
    }

    #[test]
    fn a_host_branch_misses_only_where_the_cycles_differ() {
        let d = Design::new();
        let (acc, y, t) = (d.reg("acc"), d.sig("y"), d.sig("t"));
        d.record_graph(true);
        for k in 0..100 {
            acc.set(acc.get() * 0.5 + 0.25);
            // A strobe every other cycle, decided on the host.
            if k % 2 == 0 {
                t.set(-acc.get());
            }
            y.set(acc.get() - 0.125);
            d.tick();
        }
        let (hits, interned) = memo_stats(&d);
        // A strobe cycle interns 7 keys (3 constant operands, 4
        // operators), the others 6. Every cycle after the first hits the
        // 4 positions before the branch; a strobe cycle also hits its
        // last position, left there by the previous strobe cycle.
        assert_eq!(interned, 50 * 7 + 50 * 6);
        assert_eq!(hits, 50 * 4 + 49 * 5);
    }

    #[test]
    fn operators_past_the_memo_bound_probe_the_table() {
        let d = Design::new();
        let (a, y) = (d.sig("a"), d.sig("y"));
        // Each product interns a constant and a multiply.
        let products = graph::MEMO_BOUND as u64 / 2 + 100;
        d.record_graph(true);
        for _ in 0..3 {
            let cycle: Vec<Value> = (0..products).map(|k| a.get() * k as f64).collect();
            y.set(cycle.last().expect("products > 0").clone());
            d.tick();
        }
        let (hits, interned) = memo_stats(&d);
        assert_eq!(interned, 3 * 2 * products);
        assert_eq!(hits, 2 * graph::MEMO_BOUND as u64);
        assert_eq!(d.graph().defs(y.id()).len(), 1);
    }

    #[test]
    fn clearing_the_graph_mid_cycle_starts_a_fresh_memo() {
        let d = Design::new();
        let (acc, y) = (d.reg("acc"), d.sig("y"));
        let acc_line = || acc.set(acc.get() * 0.5 + 0.25);
        let y_line = || y.set(acc.get() - 0.125);
        d.record_graph(true);
        acc_line();
        y_line();
        d.tick();
        acc_line();
        d.clear_graph();
        y_line();
        d.tick();
        for _ in 0..2 {
            acc_line();
            y_line();
            d.tick();
        }
        // The fresh recording saw 2 keys before its first tick, then 6 per
        // cycle; the first full cycle misses throughout, the next hits.
        assert_eq!(memo_stats(&d), (6, 2 + 6 + 6));

        // The same graph as the lines after the clear record on their own.
        let fresh = Design::new();
        let (acc, y) = (fresh.reg("acc"), fresh.sig("y"));
        fresh.record_graph(true);
        y.set(acc.get() - 0.125);
        acc.set(acc.get() * 0.5 + 0.25);
        assert_eq!(nodes(&d.graph()), nodes(&fresh.graph()));
        for id in [acc.id(), y.id()] {
            assert_eq!(d.graph().defs(id), fresh.graph().defs(id));
        }
    }
}

#[cfg(test)]
mod monitor_sink_tests {
    use super::*;
    use fixref_obs::{DefaultRecorder, HistogramSummary, SpanId};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A [`DefaultRecorder`] that counts every call made to it.
    #[derive(Default)]
    struct CountingRecorder {
        inner: DefaultRecorder,
        calls: AtomicU64,
    }

    impl CountingRecorder {
        fn count(&self) -> &DefaultRecorder {
            self.calls.fetch_add(1, Ordering::Relaxed);
            &self.inner
        }
    }

    impl Recorder for CountingRecorder {
        fn inc(&self, name: &str, by: u64) {
            self.count().inc(name, by);
        }
        fn observe(&self, name: &str, value: f64) {
            self.count().observe(name, value);
        }
        fn observe_seq(&self, name: &str, values: &[f64]) {
            self.count().observe_seq(name, values);
        }
        fn record_event(&self, event: Event) {
            self.count().record_event(event);
        }
        fn span_begin(&self, name: &str) -> SpanId {
            self.count().span_begin(name)
        }
        fn span_end(&self, id: SpanId, cycles: u64) {
            self.count().span_end(id, cycles);
        }
    }

    /// The paper's Fig. 1 equalizer with three taps, built and stepped as
    /// `fixref-dsp`'s `LmsEqualizer` does: 15 signals, 12 assignments and
    /// one tick per step.
    struct Lms {
        x: Sig,
        c: SigArray,
        d: RegArray,
        v: SigArray,
        w: Sig,
        y: Sig,
        b: Reg,
        s: Reg,
    }

    impl Lms {
        fn new(design: &Design) -> Self {
            Lms {
                x: design.sig("x"),
                c: design.sig_array("c", 3),
                d: design.reg_array("d", 3),
                v: design.sig_array("v", 4),
                w: design.sig("w"),
                y: design.sig("y"),
                b: design.reg("b"),
                s: design.reg("s"),
            }
        }

        fn run(&self, stimulus: &[f64], mut after_step: impl FnMut()) {
            for (c, coef) in self.c.iter().zip([-0.11, 1.2, -0.11]) {
                c.set(coef);
            }
            for &input in stimulus {
                self.x.set(input);
                self.d[0].set(self.x.get());
                for i in 1..3 {
                    self.d[i].set(self.d[i - 1].get());
                }
                self.v[0].set(0.0);
                for i in 1..4 {
                    self.v[i].set(self.v[i - 1].get() + self.d[i - 1].get() * self.c[i - 1].get());
                }
                self.w.set(self.v[3].get() - self.b.get() * self.s.get());
                self.y.set(
                    self.w
                        .get()
                        .select_positive(Value::from(1.0), Value::from(-1.0)),
                );
                self.b
                    .set(self.b.get() + 1.0 / 16.0 * self.s.get() * (self.w.get() - self.y.get()));
                self.s.set(self.y.get());
                self.x.design().tick();
                after_step();
            }
        }
    }

    /// 2-PAM symbols through a mild echo plus uniform noise, within ±1.5,
    /// under a gain that fades down to 1/1000. The small samples have
    /// low-order bits that make a sum of their rounding errors depend on
    /// the order of its terms.
    fn stimulus(len: usize) -> Vec<f64> {
        let mut rng = Rng64::seed_from_u64(7);
        let mut previous = 0.0;
        (0..len)
            .map(|_| {
                let symbol = if rng.next_u64() & 1 == 1 { 1.0 } else { -1.0 };
                let x = symbol + 0.3 * previous + rng.symmetric(0.2);
                previous = symbol;
                (x * rng.uniform(0.001, 1.0)).clamp(-1.5, 1.5)
            })
            .collect()
    }

    fn dtype(text: &str) -> DType {
        text.parse().expect("valid dtype")
    }

    fn bits(h: &HistogramSummary) -> [u64; 4] {
        [h.count, h.sum.to_bits(), h.min.to_bits(), h.max.to_bits()]
    }

    #[test]
    fn a_monitored_simulation_calls_the_recorder_per_flush_not_per_assignment() {
        const STEPS: usize = 4000;
        let design = Design::with_seed(1);
        let lms = Lms::new(&design);
        let wide = dtype("<16,12,tc,st,rd>");
        for i in 0..design.num_signals() {
            design.set_dtype(SignalId(i as u32), Some(wide.clone()));
        }
        let rec = Arc::new(CountingRecorder::default());
        design.attach_recorder(rec.clone());
        lms.run(&stimulus(STEPS), || {});
        design.flush_monitors();

        assert_eq!(rec.inner.counter("sim.assignments"), 3 + 12 * STEPS as u64);
        assert_eq!(rec.inner.counter("sim.ticks"), STEPS as u64);
        // A flush calls the recorder at most once per signal and once per
        // counter, and the sink flushes about once per MONITOR_BUFFER
        // steps. Calling it per assignment and per tick would take 25
        // calls a step.
        let signals = design.num_signals();
        let bound = (signals + 4) * (STEPS / MONITOR_BUFFER + 1);
        let calls = rec.calls.load(Ordering::Relaxed);
        assert!(
            calls <= bound as u64,
            "{calls} recorder calls for {STEPS} steps of {signals} signals (bound {bound})"
        );
    }

    #[test]
    fn histograms_fold_each_value_in_order_however_often_the_sink_flushes() {
        let paper = dtype("<7,5,tc,st,rd>");
        let input = stimulus(4000);
        let run = |flush_every_step: bool| {
            let design = Design::with_seed(1);
            let lms = Lms::new(&design);
            design.set_dtype(lms.x.id(), Some(paper.clone()));
            // `w` swings past ±1, so this type overflows and journals
            // `OverflowDetected` events.
            design.set_dtype(lms.w.id(), Some(dtype("<4,3,tc,er,rd>")));
            design.set_dtype(lms.b.id(), Some(dtype("<8,6,tc,st,rd>")));
            let rec = Arc::new(DefaultRecorder::new());
            design.attach_recorder(rec.clone());
            lms.run(&input, || {
                if flush_every_step {
                    design.flush_monitors();
                }
            });
            design.flush_monitors();
            rec
        };
        let once = run(false);
        let per_step = run(true);

        let mut want: Option<HistogramSummary> = None;
        for &x in &input {
            let e = quantize(x, &paper).rounding_error;
            want = Some(match want {
                None => HistogramSummary {
                    count: 1,
                    sum: e,
                    min: e,
                    max: e,
                },
                Some(h) => HistogramSummary {
                    count: h.count + 1,
                    sum: h.sum + e,
                    min: h.min.min(e),
                    max: h.max.max(e),
                },
            });
        }
        let got = once.histogram("sim.quant_error.x").expect("x is typed");
        assert_eq!(bits(&got), bits(&want.expect("nonempty stimulus")));

        assert_eq!(once.counters(), per_step.counters());
        let hist_bits = |rec: &DefaultRecorder| {
            rec.histograms()
                .iter()
                .map(|(name, h)| (name.clone(), bits(h)))
                .collect::<Vec<_>>()
        };
        assert_eq!(hist_bits(&once), hist_bits(&per_step));
        let events = once.events();
        assert!(
            events.len() > MONITOR_BUFFER,
            "{} overflow events; the event buffer must fill",
            events.len()
        );
        assert_eq!(events, per_step.events());
    }

    #[test]
    fn recorder_changes_and_drops_flush_to_the_outgoing_recorder() {
        let design = Design::new();
        let x = design.sig_typed("x", dtype("<7,5,tc,st,rd>"));
        let first = Arc::new(DefaultRecorder::new());
        design.attach_recorder(first.clone());
        x.set(0.3);
        design.tick();
        assert_eq!(
            first.counter("sim.assignments"),
            0,
            "buffered until a flush"
        );
        design.detach_recorder();
        assert_eq!(first.counter("sim.assignments"), 1);
        assert_eq!(first.counter("sim.ticks"), 1);
        assert_eq!(
            first.histogram("sim.quant_error.x").map(|h| h.count),
            Some(1)
        );

        // Nothing is buffered while no recorder is attached, and a newly
        // attached recorder sees none of the earlier output.
        x.set(0.4);
        let second = Arc::new(DefaultRecorder::new());
        design.attach_recorder(second.clone());
        design.flush_monitors();
        assert!(second.counters().is_empty());
        assert!(second.histograms().is_empty());

        x.set(0.5);
        let third = Arc::new(DefaultRecorder::new());
        design.attach_recorder(third.clone());
        assert_eq!(second.counter("sim.assignments"), 1);
        design.flush_monitors();
        assert!(third.counters().is_empty());

        // Dropping the last handle to the design flushes.
        x.set(0.6);
        drop(x);
        drop(design);
        assert_eq!(third.counter("sim.assignments"), 1);
        assert_eq!(first.counter("sim.assignments"), 1);
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use fixref_fixed::{RoundingMode, Signedness};

    fn t(n: i32, f: i32) -> DType {
        DType::new(
            "t",
            n,
            f,
            Signedness::TwosComplement,
            OverflowMode::Saturate,
            RoundingMode::Round,
        )
        .unwrap()
    }

    #[test]
    fn try_sig_rejects_duplicates_without_side_effects() {
        let d = Design::new();
        d.sig("x");
        let before = d.num_signals();
        let err = d.try_sig("x").unwrap_err();
        assert_eq!(
            err,
            FixError::DuplicateSignal {
                name: "x".to_string()
            }
        );
        assert_eq!(d.num_signals(), before);
        // The other fallible declarations reject the same way.
        assert!(d.try_sig_typed("x", t(8, 4)).is_err());
        assert!(d.try_reg("x").is_err());
        assert!(d.try_reg_typed("x", t(8, 4)).is_err());
        // A fresh name still works and produces a usable handle.
        let y = d.try_reg("y").unwrap();
        y.set(1.0);
        d.tick();
        assert_eq!(y.get().flt(), 1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate signal name")]
    fn infallible_sig_still_panics_on_duplicates() {
        let d = Design::new();
        d.sig("x");
        d.sig("x");
    }

    #[test]
    fn dirty_set_tracks_annotation_changes() {
        let d = Design::new();
        let x = d.sig("x");
        let y = d.sig("y");
        // Declarations start dirty.
        assert_eq!(d.take_dirty(), vec![x.id(), y.id()]);
        assert!(d.take_dirty().is_empty());

        d.set_range(x.id(), -1.0, 1.0);
        assert_eq!(d.take_dirty(), vec![x.id()]);

        d.set_dtype(y.id(), Some(t(8, 4)));
        assert_eq!(d.take_dirty(), vec![y.id()]);

        d.try_set_range(x.id(), -2.0, 2.0).unwrap();
        d.clear_range(x.id());
        assert_eq!(d.take_dirty(), vec![x.id()]);

        // A rejected annotation does not dirty anything.
        assert!(d.try_set_range(x.id(), 1.0, -1.0).is_err());
        assert!(d.take_dirty().is_empty());

        // Error models shift the shared RNG stream: everything dirties.
        d.set_error_sigma(x.id(), 0.01);
        assert_eq!(d.take_dirty(), vec![x.id(), y.id()]);
        d.clear_error(x.id());
        assert_eq!(d.take_dirty(), vec![x.id(), y.id()]);
    }

    #[test]
    fn static_schedule_is_declared_not_inferred() {
        let d = Design::new();
        assert!(!d.has_static_schedule());
        d.declare_static_schedule();
        assert!(d.has_static_schedule());
    }
}

#[cfg(test)]
mod index_tests {
    use super::*;

    #[test]
    fn arrays_index_like_slices() {
        let d = Design::new();
        let sigs = d.sig_array("s", 3);
        let regs = d.reg_array("r", 2);
        sigs[1].set(0.5);
        assert_eq!(sigs[1].get().flt(), 0.5);
        regs[0].set(1.0);
        d.tick();
        assert_eq!(regs[0].get().flt(), 1.0);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_index_panics() {
        let d = Design::new();
        let sigs = d.sig_array("s", 2);
        let _ = &sigs[5];
    }
}
