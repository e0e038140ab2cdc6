//! Signal-flow-graph extraction.
//!
//! While [`Design::record_graph`](crate::Design::record_graph) is enabled,
//! every executed assignment contributes its expression to a [`Graph`]
//! whose leaves are signal reads and constants. The graph is the input to
//! the fully *analytical* range estimation (paper §4.1: "constructing a
//! signal flowgraph out of the source code and analyzing the data flow
//! using the same range propagation mechanism") and to the VHDL back-end.
//!
//! A signal assigned from several program points (or along several control
//! paths) gets several *definitions*; analyses treat the signal's range as
//! the union over its definitions. Because the graph is recorded from the
//! *executed* description, full structural coverage requires the simulation
//! to execute every assignment at least once — the same "complete coverage
//! of a code execution" requirement the paper attaches to its analytical
//! method.
//!
//! # Recording at operator time
//!
//! `record_graph(true)` starts a *recording* for the design on the current
//! thread. A [`Value`](crate::Value) read from a signal while it records
//! carries the id of its node in the recording, and every operator on such
//! values hash-conses its node there at once: an operator is one probe of
//! an intern table, and allocates only when it adds a node. The recording
//! holds every node an operator built, including temporaries that are
//! never assigned. An assignment copies the nodes its value reaches into
//! the design's [`Graph`], each node once, in the post-order of the first
//! assignment that reaches it. The design's graph therefore holds exactly
//! the nodes some definition reaches, numbered as if each assignment's
//! expression tree were interned on its own, and a snapshot needs no
//! cleanup pass. Ending the recording (`record_graph(false)`,
//! [`Design::clear_graph`](crate::Design::clear_graph), or dropping the
//! design) drops the recording with its unreached nodes.
//!
//! A traced value that outlives its recording no longer resolves to a
//! node: assigned later, it records as a `Const` definition of its fixed
//! value, the way an untraced literal does. Each design records into its
//! own recording, so two designs may record on one thread at once.
//!
//! # Repeated cycles
//!
//! A loop body executes the same operators in the same order every clock
//! cycle. Each recording therefore keeps, per position since the last
//! [`Design::tick`](crate::Design::tick), the key and node interned there
//! by an operator or by the `Const` of an operator's untraced operand (up
//! to 4096 positions per cycle). A key that equals the one at
//! its position in the previous cycle takes that node after one
//! comparison, without hashing. Any other key (a first cycle, a cycle
//! whose host code took another branch, positions past the bound) probes
//! the intern table once and takes the position over. A memo entry is only ever a copy of an intern-table
//! entry of the same recording, so a hit and a probe return the same
//! node: the memo changes what recording costs, never what it records.
//! Its buffer grows only while a cycle runs longer than every cycle
//! before it.
//!
//! # Sharing the graph
//!
//! A design keeps its graph behind an `Rc`, and
//! [`Design::graph`](crate::Design::graph) hands out that `Rc`: every
//! consumer (the MSB phase's feedback scan, lint, the model checker, the
//! VHDL back-end, the cost estimate, the compiled replay) reads the one
//! recorded graph without copying it. Recording writes through
//! `Rc::make_mut`, so a snapshot taken earlier never changes: the design
//! copies the graph once if it records again while a snapshot is alive.
//! `clear_graph` and `install_graph` replace the design's `Rc` and leave
//! older snapshots alone. A sweep's recording shard lets go of its graph
//! before handing it to the master, which then installs it without a
//! copy.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::num::NonZeroU32;
use std::ops::Index;

use fixref_fixed::DType;

use crate::design::SignalId;

/// Index of a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A dataflow operator in the signal-flow graph.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A literal constant.
    Const(f64),
    /// A read of a signal's value (register output or wire).
    Read(SignalId),
    /// Addition of the two operands.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
    /// Intermediate quantization to the carried type.
    Cast(DType),
    /// Fixed-path-steered two-way selection: operands are
    /// `[condition, then, else]`.
    Select,
}

impl Op {
    /// Number of operands the operator expects (`Const`/`Read` are leaves).
    pub fn arity(&self) -> usize {
        match self {
            Op::Const(_) | Op::Read(_) => 0,
            Op::Neg | Op::Abs | Op::Cast(_) => 1,
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Min | Op::Max => 2,
            Op::Select => 3,
        }
    }

    /// The variant's intern-key tag.
    fn tag(&self) -> u8 {
        match self {
            Op::Const(_) => 0,
            Op::Read(_) => 1,
            Op::Add => 2,
            Op::Sub => 3,
            Op::Mul => 4,
            Op::Div => 5,
            Op::Neg => 6,
            Op::Abs => 7,
            Op::Min => 8,
            Op::Max => 9,
            Op::Cast(_) => CAST_TAG,
            Op::Select => 11,
        }
    }
}

const CAST_TAG: u8 = 10;

/// An operator to intern. A cast borrows its type, so interning a cast
/// the graph already holds clones nothing.
pub(crate) enum OpRef<'a> {
    /// Any operator; only a cast's type costs a clone.
    Owned(Op),
    /// A cast to the borrowed type.
    Cast(&'a DType),
}

impl<'a> OpRef<'a> {
    /// Borrows `op`'s type if it is a cast, copies it otherwise.
    fn of(op: &'a Op) -> Self {
        match op {
            Op::Cast(dt) => OpRef::Cast(dt),
            other => OpRef::Owned(other.clone()),
        }
    }

    fn into_op(self) -> Op {
        match self {
            OpRef::Owned(op) => op,
            OpRef::Cast(dt) => Op::Cast(dt.clone()),
        }
    }
}

/// One node of the signal-flow graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operator.
    pub op: Op,
    /// Operand nodes, `op.arity()` of them.
    pub args: Vec<NodeId>,
}

/// The operand values a [`Graph::walk`] visitor receives: `operands[i]`
/// is the value of the node's `i`-th operand.
pub struct Operands<'a, T> {
    args: &'a [NodeId],
    order: &'a [NodeId],
    values: &'a [T],
}

impl<T> Index<usize> for Operands<'_, T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        // Operands precede their users in the ascending post-order.
        &self.values[self.order.partition_point(|n| n < &self.args[i])]
    }
}

/// The hasher of the graph's tables. Their keys are a few machine words
/// (node keys, signal and node ids), on which std's SipHash spends most of
/// a probe. Each word is folded in with one add and one multiply, and
/// `finish` rotates the well-mixed high bits down to where the table takes
/// its bucket index. Byte strings (a cast type's name) are folded eight
/// bytes at a time.
///
/// Unlike SipHash it does not resist keys chosen to collide, which would
/// slow interning (never change the graph). The keys are node ids, signal
/// ids, cast types and constants. Only constants can carry outside input:
/// a served job's stimulus is generated by the server's design registry
/// from the spec's seed, SNR and channel taps through a seeded noise
/// source, so a tenant does not choose the sample values.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    /// An odd multiplier with well-spread bits.
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add_word(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add_word(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add_word(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }
}

/// A hash map keyed by a few machine words, hashed with [`WordHasher`].
pub(crate) type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;
type WordSet<K> = HashSet<K, BuildHasherDefault<WordHasher>>;

/// A recorded signal-flow graph: nodes plus, per signal, the set of
/// definition roots observed during simulation.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Per signal, by raw id, its distinct definition roots in first-seen
    /// order.
    defs: Vec<Vec<NodeId>>,
    /// Membership index of `defs`, so deduplication stays O(1) when a
    /// signal collects thousands of definitions (one `Const` per input
    /// sample).
    def_set: WordSet<(SignalId, NodeId)>,
    /// Structural-hash intern table so repeated loop bodies do not grow the
    /// graph. Two nodes share an id exactly when their `{:?}` renderings
    /// and operands are equal: see [`NodeKey`].
    intern: WordMap<NodeKey, NodeId>,
    /// Index of every distinct `Cast` type, a cast's key payload.
    cast_types: WordMap<DType, u64>,
}

/// Intern-table key: the operator's variant and payload, plus the operand
/// ids (unused slots are 0; the variant fixes the arity). The payload is a
/// constant's bit pattern, with every NaN mapped to one (`Debug` prints
/// them all alike, while `0.0` and `-0.0` stay apart), a read's signal, or
/// a cast's index in `cast_types`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeKey {
    tag: u8,
    payload: u64,
    args: [u32; 3],
}

impl Hash for NodeKey {
    /// Three words. Hashing the operand array as such would feed the
    /// hasher a length and a 12-byte slice instead.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.payload);
        state.write_u64(u64::from(self.tag) << 32 | u64::from(self.args[0]));
        state.write_u64(u64::from(self.args[1]) << 32 | u64::from(self.args[2]));
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Iterates over `(id, node)` pairs in creation (topological) order:
    /// operands always precede their users.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// The recorded definition roots of a signal (empty slice if the signal
    /// was never assigned while recording).
    pub fn defs(&self, signal: SignalId) -> &[NodeId] {
        self.defs
            .get(signal.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Signals that have at least one recorded definition, in ascending
    /// id order.
    pub fn defined_signals(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.defs
            .iter()
            .enumerate()
            .filter(|(_, defs)| !defs.is_empty())
            .map(|(i, _)| SignalId(i as u32))
    }

    /// Adds a node (interned: structurally identical nodes share an id).
    pub fn add(&mut self, op: Op, args: Vec<NodeId>) -> NodeId {
        assert_eq!(op.arity(), args.len(), "arity mismatch for {op:?}");
        let key = self.key(&OpRef::of(&op), &args);
        self.intern(key, || (op, args))
    }

    /// Interns `op(args)`, building the owned node only when it is new.
    /// The caller guarantees the arity.
    pub(crate) fn intern_ref(&mut self, op: OpRef<'_>, args: &[NodeId]) -> NodeId {
        let key = self.key(&op, args);
        self.intern(key, || (op.into_op(), args.to_vec()))
    }

    /// Records `root` as one definition of `signal` (deduplicated).
    pub fn record_def(&mut self, signal: SignalId, root: NodeId) {
        let i = signal.0 as usize;
        if self.defs.len() <= i {
            self.defs.resize_with(i + 1, Vec::new);
        }
        // A loop body assigns a signal the same root every iteration:
        // its latest definition needs no probe.
        if self.defs[i].last() == Some(&root) {
            return;
        }
        if self.def_set.insert((signal, root)) {
            self.defs[i].push(root);
        }
    }

    fn key(&mut self, op: &OpRef<'_>, args: &[NodeId]) -> NodeKey {
        let (tag, payload) = match op {
            OpRef::Cast(dt) => (CAST_TAG, self.cast_index(dt)),
            OpRef::Owned(op) => {
                let payload = match op {
                    Op::Const(c) if c.is_nan() => f64::NAN.to_bits(),
                    Op::Const(c) => c.to_bits(),
                    Op::Read(s) => u64::from(s.0),
                    Op::Cast(dt) => self.cast_index(dt),
                    Op::Add
                    | Op::Sub
                    | Op::Mul
                    | Op::Div
                    | Op::Neg
                    | Op::Abs
                    | Op::Min
                    | Op::Max
                    | Op::Select => 0,
                };
                (op.tag(), payload)
            }
        };
        let mut slots = [0; 3];
        for (slot, a) in slots.iter_mut().zip(args) {
            *slot = a.0;
        }
        NodeKey {
            tag,
            payload,
            args: slots,
        }
    }

    fn cast_index(&mut self, dt: &DType) -> u64 {
        if let Some(&k) = self.cast_types.get(dt) {
            return k;
        }
        let k = self.cast_types.len() as u64;
        self.cast_types.insert(dt.clone(), k);
        k
    }

    /// Looks `key` up with one probe, building the owned node with `make`
    /// only on a miss.
    fn intern(&mut self, key: NodeKey, make: impl FnOnce() -> (Op, Vec<NodeId>)) -> NodeId {
        match self.intern.entry(key) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let id = NodeId(self.nodes.len() as u32);
                let (op, args) = make();
                self.nodes.push(Node { op, args });
                *entry.insert(id)
            }
        }
    }

    /// The distinct nodes of the subtree under `root`, operands first: in
    /// ascending id order, which is topological, with `root` last.
    pub(crate) fn post_order(&self, root: NodeId) -> Vec<NodeId> {
        let mut order = vec![root];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            for &arg in &self.nodes[id.0 as usize].args {
                if let Err(pos) = order.binary_search(&arg) {
                    order.insert(pos, arg);
                    stack.push(arg);
                }
            }
        }
        order
    }

    /// Evaluates the subtree under `root` bottom-up: each distinct node
    /// once, operands before their users, in ascending id order. `visit`
    /// receives the node's id, the node and its operands' values, and
    /// returns the node's value; the walk returns the root's.
    pub fn walk<T>(
        &self,
        root: NodeId,
        mut visit: impl FnMut(NodeId, &Node, Operands<'_, T>) -> T,
    ) -> T {
        let order = self.post_order(root);
        let mut values = Vec::with_capacity(order.len());
        for &id in &order {
            let node = self.node(id);
            let operands = Operands {
                args: &node.args,
                order: &order,
                values: &values,
            };
            let value = visit(id, node, operands);
            values.push(value);
        }
        values.pop().expect("the root closes its own post-order")
    }

    /// The set of signals read (transitively) by the definitions of
    /// `signal` — its dataflow fan-in.
    pub fn fan_in(&self, signal: SignalId) -> Vec<SignalId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.defs(signal).to_vec();
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if seen[id.0 as usize] {
                continue;
            }
            seen[id.0 as usize] = true;
            let n = &self.nodes[id.0 as usize];
            if let Op::Read(s) = n.op {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
            stack.extend(n.args.iter().copied());
        }
        out.sort();
        out
    }
}

/// Identifies one recording on its thread: a traced value refers to the
/// nodes of the recording it was traced in, never to another's. Ids are
/// handed out in sequence per thread and repeat only after 2^32
/// recordings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordingId(NonZeroU32);

/// A traced value's node: the recording and the node's index in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TracedNode {
    recording: RecordingId,
    node: NodeId,
}

impl TracedNode {
    /// The recording the node belongs to.
    pub(crate) fn recording(self) -> RecordingId {
        self.recording
    }
}

/// A slot of [`Recording::promoted`] not filled yet.
const UNSET: u32 = u32::MAX;

/// Interned keys per cycle a recording memoizes (32 bytes each); the
/// later keys of a longer cycle probe the intern table.
pub(crate) const MEMO_BOUND: usize = 4096;

/// One design's recording in progress (see the module docs).
struct Recording {
    id: RecordingId,
    /// Every node an operator built during the recording, reached by an
    /// assignment or not, hash-consed like the design's graph.
    nodes: Graph,
    /// Per node of `nodes`, its id in the design's graph once an
    /// assignment has reached it.
    promoted: Vec<u32>,
    /// Per position since a tick, the key and node last interned there:
    /// the previous cycle's at that position.
    memo: Vec<(NodeKey, NodeId)>,
    /// Keys interned since the last tick.
    position: usize,
    /// Memo hits and memoized interns, for the tests' hit share.
    #[cfg(test)]
    memo_stats: (u64, u64),
}

impl Recording {
    fn new(id: RecordingId) -> Self {
        Recording {
            id,
            nodes: Graph::new(),
            promoted: Vec::new(),
            memo: Vec::new(),
            position: 0,
            #[cfg(test)]
            memo_stats: (0, 0),
        }
    }

    /// Interns an operator node (or an operator's constant operand) of
    /// the current cycle: one key comparison when the previous cycle
    /// interned the same key at this position, one table probe otherwise.
    fn intern(&mut self, op: OpRef<'_>, args: &[NodeId]) -> NodeId {
        let key = self.nodes.key(&op, args);
        let at = self.position;
        self.position += 1;
        #[cfg(test)]
        {
            self.memo_stats.1 += 1;
        }
        match self.memo.get_mut(at) {
            Some(&mut (memo_key, id)) if memo_key == key => {
                #[cfg(test)]
                {
                    self.memo_stats.0 += 1;
                }
                id
            }
            slot => {
                let id = self.nodes.intern(key, || (op.into_op(), args.to_vec()));
                match slot {
                    Some(slot) => *slot = (key, id),
                    // Positions fill in order, so `at` is the memo's length.
                    None if at < MEMO_BOUND => self.memo.push((key, id)),
                    None => {}
                }
                id
            }
        }
    }

    /// The design-graph id of `node`, adding it to `graph` after its
    /// operands (left to right) if no assignment has reached it yet.
    fn promote(&mut self, node: NodeId, graph: &mut Graph) -> NodeId {
        let n = node.0 as usize;
        if let Some(&id) = self.promoted.get(n) {
            if id != UNSET {
                return NodeId(id);
            }
        }
        let arity = self.nodes.nodes[n].args.len();
        let mut args = [NodeId(0); 3];
        for (i, arg) in args.iter_mut().enumerate().take(arity) {
            *arg = self.promote(self.nodes.nodes[n].args[i], graph);
        }
        let id = graph.intern_ref(OpRef::of(&self.nodes.nodes[n].op), &args[..arity]);
        if self.promoted.len() <= n {
            self.promoted.resize(self.nodes.len(), UNSET);
        }
        self.promoted[n] = id.0;
        id
    }
}

thread_local! {
    /// The recordings in progress on this thread, one per recording design.
    static RECORDINGS: RefCell<Vec<Recording>> = const { RefCell::new(Vec::new()) };
    /// The last recording id handed out on this thread.
    static LAST_RECORDING: Cell<u32> = const { Cell::new(0) };
}

fn with_recording<T>(id: RecordingId, f: impl FnOnce(&mut Recording) -> T) -> Option<T> {
    RECORDINGS.with(|recs| recs.borrow_mut().iter_mut().find(|r| r.id == id).map(f))
}

/// Starts a recording on this thread.
pub(crate) fn begin_recording() -> RecordingId {
    let raw = LAST_RECORDING.with(|last| {
        let raw = last.get().checked_add(1).unwrap_or(1);
        last.set(raw);
        raw
    });
    let id = RecordingId(NonZeroU32::new(raw).expect("ids start at 1"));
    RECORDINGS.with(|recs| recs.borrow_mut().push(Recording::new(id)));
    id
}

/// Marks a clock tick of recording `id`: its next key is compared with
/// the first key of the cycle just ended.
pub(crate) fn tick_recording(id: RecordingId) {
    with_recording(id, |rec| rec.position = 0);
}

/// Ends a recording, dropping its nodes: values traced in it resolve to
/// no node from now on.
pub(crate) fn end_recording(id: RecordingId) {
    // A design dropped while its thread shuts down may find the table
    // already gone; its recording went with it.
    let _ = RECORDINGS.try_with(|recs| {
        if let Ok(mut recs) = recs.try_borrow_mut() {
            recs.retain(|r| r.id != id);
        }
    });
}

/// The `Read` node of `signal` in recording `id`, or `None` if `id` has
/// ended.
pub(crate) fn trace_read(id: RecordingId, signal: SignalId) -> Option<TracedNode> {
    with_recording(id, |rec| TracedNode {
        recording: id,
        node: rec.nodes.intern_ref(OpRef::Owned(Op::Read(signal)), &[]),
    })
}

/// The node of `op` applied to `operands`, each a trace and the operand's
/// fixed-path value; `None` when no operand is traced in a live recording.
/// The first operand traced in a live recording picks the recording. Any
/// other operand — untraced, traced in an ended recording, or traced by
/// another design — enters as a constant of its fixed value, as an
/// untraced literal does.
pub(crate) fn trace_op<const N: usize>(
    op: OpRef<'_>,
    operands: [(Option<TracedNode>, f64); N],
) -> Option<TracedNode> {
    RECORDINGS.with(|recs| {
        let mut recs = recs.borrow_mut();
        let at = operands.iter().find_map(|(trace, _)| {
            let trace = (*trace)?;
            recs.iter().position(|r| r.id == trace.recording)
        })?;
        let rec = &mut recs[at];
        let mut args = [NodeId(0); N];
        for (arg, (trace, fix)) in args.iter_mut().zip(operands) {
            *arg = match trace {
                Some(t) if t.recording == rec.id => t.node,
                _ => rec.intern(OpRef::Owned(Op::Const(fix)), &[]),
            };
        }
        Some(TracedNode {
            recording: rec.id,
            node: rec.intern(op, &args),
        })
    })
}

/// How many recordings are in progress on this thread.
#[cfg(test)]
pub(crate) fn recordings_on_this_thread() -> usize {
    RECORDINGS.with(|recs| recs.borrow().len())
}

/// Recording `id`'s memo hits and memoized interns so far (`None` once
/// it has ended).
#[cfg(test)]
pub(crate) fn memo_stats(id: RecordingId) -> Option<(u64, u64)> {
    with_recording(id, |rec| rec.memo_stats)
}

/// The root of a value assigned while recording `id`, in the design's
/// `graph`: the nodes the value reaches that no earlier assignment
/// reached are added first. `None` for a value not traced in `id`, or if
/// `id` has ended.
pub(crate) fn record_root(
    id: RecordingId,
    trace: Option<TracedNode>,
    graph: &mut Graph,
) -> Option<NodeId> {
    let trace = trace.filter(|t| t.recording == id)?;
    with_recording(id, |rec| rec.promote(trace.node, graph))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(i: u32) -> SignalId {
        SignalId(i)
    }

    #[test]
    fn add_and_lookup() {
        let mut g = Graph::new();
        let a = g.add(Op::Read(sid(0)), vec![]);
        let b = g.add(Op::Const(1.5), vec![]);
        let s = g.add(Op::Add, vec![a, b]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.node(s).op, Op::Add);
        assert_eq!(g.node(s).args, vec![a, b]);
        assert!(!g.is_empty());
    }

    #[test]
    fn interning_dedupes_structurally_equal_nodes() {
        let mut g = Graph::new();
        let a1 = g.add(Op::Read(sid(0)), vec![]);
        let a2 = g.add(Op::Read(sid(0)), vec![]);
        assert_eq!(a1, a2);
        let c1 = g.add(Op::Const(2.0), vec![]);
        let s1 = g.add(Op::Add, vec![a1, c1]);
        let s2 = g.add(Op::Add, vec![a2, c1]);
        assert_eq!(s1, s2);
        assert_eq!(g.len(), 3);
        // Different constants are different nodes.
        let c2 = g.add(Op::Const(3.0), vec![]);
        assert_ne!(c1, c2);
    }

    #[test]
    fn signed_zeros_are_distinct_constants() {
        let mut g = Graph::new();
        let pos = g.add(Op::Const(0.0), vec![]);
        let neg = g.add(Op::Const(-0.0), vec![]);
        assert_ne!(pos, neg);
        assert_eq!(g.add(Op::Const(-0.0), vec![]), neg);
    }

    #[test]
    fn nans_share_one_constant_whatever_their_payload() {
        let mut g = Graph::new();
        let a = g.add(Op::Const(f64::NAN), vec![]);
        let b = g.add(Op::Const(f64::from_bits(0x7FF8_0000_0000_0001)), vec![]);
        let c = g.add(Op::Const(f64::from_bits(0xFFF0_0000_DEAD_BEEF)), vec![]);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn casts_share_a_node_only_for_equal_dtypes() {
        let t = DType::tc("t", 8, 4).unwrap();
        let renamed = DType::tc("u", 8, 4).unwrap();
        let mut g = Graph::new();
        let x = g.add(Op::Read(sid(0)), vec![]);
        let c1 = g.add(Op::Cast(t.clone()), vec![x]);
        let c2 = g.add(Op::Cast(t), vec![x]);
        let c3 = g.add(Op::Cast(renamed), vec![x]);
        assert_eq!(c1, c2);
        assert_ne!(c1, c3);
    }

    /// Reference semantics for interning: nodes keyed on their `Debug`
    /// rendering, defs deduplicated by linear search.
    #[derive(Default)]
    struct ReferenceInterner {
        nodes: Vec<Node>,
        defs: HashMap<SignalId, Vec<NodeId>>,
        intern: HashMap<(String, Vec<NodeId>), NodeId>,
    }

    impl ReferenceInterner {
        fn add(&mut self, op: Op, args: Vec<NodeId>) -> NodeId {
            let key = (format!("{op:?}"), args.clone());
            if let Some(&id) = self.intern.get(&key) {
                return id;
            }
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(Node { op, args });
            self.intern.insert(key, id);
            id
        }

        fn record_def(&mut self, signal: SignalId, root: NodeId) {
            let defs = self.defs.entry(signal).or_default();
            if !defs.contains(&root) {
                defs.push(root);
            }
        }
    }

    #[test]
    fn typed_keys_intern_exactly_like_debug_rendered_keys() {
        use fixref_fixed::{OverflowMode, Rng64};

        let t = DType::tc("t", 8, 4).unwrap();
        let dtypes = [
            t.clone(),
            DType::tc("u", 8, 4).unwrap(),
            t.with_overflow(OverflowMode::Wrap),
            DType::tc("t", 10, 6).unwrap(),
        ];
        let constants = [
            0.0,
            -0.0,
            1.5,
            -1.5,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut rng = Rng64::seed_from_u64(0x1D_0C5);
        let mut g = Graph::new();
        let mut r = ReferenceInterner::default();
        let mut ids: Vec<NodeId> = Vec::new();
        let mut def_calls = 0;
        for _ in 0..5000 {
            let pick = |rng: &mut Rng64, ids: &[NodeId]| ids[rng.below(ids.len() as u64) as usize];
            let choice = if ids.is_empty() { 0 } else { rng.below(8) };
            let (op, args) = match choice {
                0 => (
                    Op::Const(constants[rng.below(constants.len() as u64) as usize]),
                    vec![],
                ),
                1 => (Op::Const(rng.uniform(-2.0, 2.0)), vec![]),
                2 => (Op::Read(sid(rng.below(6) as u32)), vec![]),
                3 => {
                    let dt = dtypes[rng.below(dtypes.len() as u64) as usize].clone();
                    (Op::Cast(dt), vec![pick(&mut rng, &ids)])
                }
                4 => {
                    let op = [Op::Neg, Op::Abs][rng.below(2) as usize].clone();
                    (op, vec![pick(&mut rng, &ids)])
                }
                5 => {
                    let op = [Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Min, Op::Max]
                        [rng.below(6) as usize]
                        .clone();
                    (op, vec![pick(&mut rng, &ids), pick(&mut rng, &ids)])
                }
                6 => (
                    Op::Select,
                    vec![
                        pick(&mut rng, &ids),
                        pick(&mut rng, &ids),
                        pick(&mut rng, &ids),
                    ],
                ),
                _ => {
                    let signal = sid(rng.below(6) as u32);
                    let root = pick(&mut rng, &ids);
                    g.record_def(signal, root);
                    r.record_def(signal, root);
                    def_calls += 1;
                    continue;
                }
            };
            let id = g.add(op.clone(), args.clone());
            assert_eq!(id, r.add(op, args));
            ids.push(id);
        }
        // `Node`'s `PartialEq` says NaN != NaN; the renderings compare
        // payload-insensitively, like the interner.
        let render = |nodes: Vec<&Node>| -> Vec<String> {
            nodes.into_iter().map(|n| format!("{n:?}")).collect()
        };
        assert_eq!(
            render(g.iter().map(|(_, n)| n).collect()),
            render(r.nodes.iter().collect())
        );
        assert!(g.len() < ids.len(), "the stream must revisit nodes");
        let mut defs = 0;
        for s in 0..6 {
            assert_eq!(
                g.defs(sid(s)),
                r.defs.get(&sid(s)).map_or(&[][..], Vec::as_slice)
            );
            defs += g.defs(sid(s)).len();
        }
        assert!(defs < def_calls, "the stream must repeat defs");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let mut g = Graph::new();
        g.add(Op::Add, vec![]);
    }

    #[test]
    fn defs_recorded_and_deduped() {
        let mut g = Graph::new();
        let a = g.add(Op::Read(sid(0)), vec![]);
        let b = g.add(Op::Const(1.0), vec![]);
        let s = g.add(Op::Add, vec![a, b]);
        g.record_def(sid(1), s);
        g.record_def(sid(1), s); // duplicate
        g.record_def(sid(1), b); // second distinct def
        assert_eq!(g.defs(sid(1)), &[s, b]);
        assert_eq!(g.defs(sid(9)), &[] as &[NodeId]);
        let defined: Vec<_> = g.defined_signals().collect();
        assert_eq!(defined, vec![sid(1)]);
    }

    #[test]
    fn fan_in_traverses_transitively() {
        let mut g = Graph::new();
        let x = g.add(Op::Read(sid(0)), vec![]);
        let y = g.add(Op::Read(sid(1)), vec![]);
        let p = g.add(Op::Mul, vec![x, y]);
        let n = g.add(Op::Neg, vec![p]);
        g.record_def(sid(2), n);
        assert_eq!(g.fan_in(sid(2)), vec![sid(0), sid(1)]);
        assert!(g.fan_in(sid(0)).is_empty());
    }

    #[test]
    fn fan_in_unions_over_multiple_definitions() {
        // phase(2) is multiply-defined: one branch reads x(0), the other
        // reads y(1). Its fan-in is the union of both definitions.
        let mut g = Graph::new();
        let x = g.add(Op::Read(sid(0)), vec![]);
        let nx = g.add(Op::Neg, vec![x]);
        g.record_def(sid(2), nx);
        let y = g.add(Op::Read(sid(1)), vec![]);
        let ay = g.add(Op::Abs, vec![y]);
        g.record_def(sid(2), ay);
        assert_eq!(g.fan_in(sid(2)), vec![sid(0), sid(1)]);
    }

    #[test]
    fn fan_in_of_a_self_loop_includes_the_signal_itself() {
        // acc(1) = acc + x: the accumulator is in its own fan-in.
        let mut g = Graph::new();
        let x = g.add(Op::Read(sid(0)), vec![]);
        let acc = g.add(Op::Read(sid(1)), vec![]);
        let sum = g.add(Op::Add, vec![acc, x]);
        g.record_def(sid(1), sum);
        assert_eq!(g.fan_in(sid(1)), vec![sid(0), sid(1)]);
    }

    #[test]
    fn post_order_lists_each_shared_node_once_operands_first() {
        let mut g = Graph::new();
        let x = g.add(Op::Read(sid(0)), vec![]);
        let _unrelated = g.add(Op::Const(7.0), vec![]);
        let sq = g.add(Op::Mul, vec![x, x]);
        let quad = g.add(Op::Mul, vec![sq, sq]);
        let sum = g.add(Op::Add, vec![quad, sq]);
        assert_eq!(g.post_order(sum), vec![x, sq, quad, sum]);
        assert_eq!(g.post_order(x), vec![x]);
    }

    #[test]
    fn walk_hands_each_visit_its_operands_in_argument_order() {
        let mut g = Graph::new();
        let a = g.add(Op::Const(8.0), vec![]);
        let b = g.add(Op::Const(2.0), vec![]);
        let q = g.add(Op::Div, vec![a, b]);
        let d = g.add(Op::Sub, vec![b, q]);
        let mut visits = 0;
        let value = g.walk(d, |_, node, args| {
            visits += 1;
            match node.op {
                Op::Const(c) => c,
                Op::Div => args[0] / args[1],
                Op::Sub => args[0] - args[1],
                _ => unreachable!("not in this graph"),
            }
        });
        assert_eq!(value, 2.0 - 8.0 / 2.0);
        assert_eq!(visits, 4);
    }

    #[test]
    fn iter_is_topological() {
        let mut g = Graph::new();
        let a = g.add(Op::Read(sid(0)), vec![]);
        let b = g.add(Op::Neg, vec![a]);
        let _ = g.add(Op::Abs, vec![b]);
        for (id, node) in g.iter() {
            for arg in &node.args {
                assert!(arg.0 < id.0, "operand {arg} after user {id}");
            }
        }
    }

    #[test]
    fn op_arity_table() {
        assert_eq!(Op::Const(0.0).arity(), 0);
        assert_eq!(Op::Read(sid(0)).arity(), 0);
        assert_eq!(Op::Neg.arity(), 1);
        assert_eq!(Op::Abs.arity(), 1);
        assert_eq!(Op::Add.arity(), 2);
        assert_eq!(Op::Select.arity(), 3);
        let t = fixref_fixed::DType::tc("t", 8, 4).unwrap();
        assert_eq!(Op::Cast(t).arity(), 1);
    }
}

/// Escapes a string for use inside a double-quoted DOT label.
fn dot_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

impl Graph {
    /// Renders the graph in Graphviz DOT format, with signal names
    /// resolved through `name_of` (pass `|id| id.to_string()` when no
    /// design is at hand). Definition edges are drawn bold; operator
    /// nodes are boxes, reads/constants are ellipses. Feedback — a node
    /// reading a signal that is also defined in this graph — is closed
    /// with a dashed red back-edge from the signal's definition sink to
    /// the reader, so register loops are visible in the rendering.
    /// Quotes and backslashes in signal names are escaped.
    pub fn to_dot(&self, mut name_of: impl FnMut(SignalId) -> String) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph sfg {\n  rankdir=LR;\n");
        let mut back_edges: Vec<(SignalId, NodeId)> = Vec::new();
        for (id, node) in self.iter() {
            let (label, shape) = match &node.op {
                Op::Const(c) => (format!("{c}"), "ellipse"),
                Op::Read(s) => {
                    if !self.defs(*s).is_empty() {
                        back_edges.push((*s, id));
                    }
                    (name_of(*s), "ellipse")
                }
                Op::Add => ("+".to_string(), "box"),
                Op::Sub => ("-".to_string(), "box"),
                Op::Mul => ("*".to_string(), "box"),
                Op::Div => ("/".to_string(), "box"),
                Op::Neg => ("neg".to_string(), "box"),
                Op::Abs => ("abs".to_string(), "box"),
                Op::Min => ("min".to_string(), "box"),
                Op::Max => ("max".to_string(), "box"),
                Op::Cast(dt) => (format!("cast {dt}"), "box"),
                Op::Select => ("sel".to_string(), "diamond"),
            };
            let _ = writeln!(
                out,
                "  {id} [label=\"{}\", shape={shape}];",
                dot_escape(&label)
            );
            for arg in &node.args {
                let _ = writeln!(out, "  {arg} -> {id};");
            }
        }
        let mut defs: Vec<SignalId> = self.defined_signals().collect();
        defs.sort();
        for sig in defs {
            let name = name_of(sig);
            let _ = writeln!(
                out,
                "  \"def_{}\" [label=\"{}\", shape=ellipse, style=bold];",
                sig.raw(),
                dot_escape(&name)
            );
            for def in self.defs(sig) {
                let _ = writeln!(out, "  {def} -> \"def_{}\" [style=bold];", sig.raw());
            }
        }
        for (sig, reader) in back_edges {
            let _ = writeln!(
                out,
                "  \"def_{}\" -> {reader} [style=dashed, color=red, constraint=false];",
                sig.raw()
            );
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;

    #[test]
    fn dot_contains_nodes_edges_and_defs() {
        let mut g = Graph::new();
        let a = g.add(Op::Read(SignalId(0)), vec![]);
        let c = g.add(Op::Const(0.5), vec![]);
        let m = g.add(Op::Mul, vec![a, c]);
        g.record_def(SignalId(1), m);
        let dot = g.to_dot(|id| format!("s{}", id.raw()));
        assert!(dot.starts_with("digraph sfg {"));
        assert!(dot.ends_with("}\n"));
        assert!(dot.contains("label=\"s0\""));
        assert!(dot.contains("label=\"*\""));
        assert!(dot.contains("label=\"0.5\""));
        assert!(dot.contains("-> \"def_1\""));
        // Every edge references declared nodes.
        assert_eq!(dot.matches(" -> ").count(), 3);
    }

    #[test]
    fn dot_handles_select_and_cast() {
        let dt = fixref_fixed::DType::tc("t", 8, 4).unwrap();
        let mut g = Graph::new();
        let w = g.add(Op::Read(SignalId(0)), vec![]);
        let cst = g.add(Op::Cast(dt), vec![w]);
        let one = g.add(Op::Const(1.0), vec![]);
        let mone = g.add(Op::Const(-1.0), vec![]);
        let sel = g.add(Op::Select, vec![cst, one, mone]);
        g.record_def(SignalId(1), sel);
        let dot = g.to_dot(|id| format!("s{}", id.raw()));
        assert!(dot.contains("shape=diamond"));
        assert!(dot.contains("cast <8,4,tc"));
    }

    #[test]
    fn dot_escapes_quotes_and_backslashes_in_signal_names() {
        let mut g = Graph::new();
        let r = g.add(Op::Read(SignalId(0)), vec![]);
        let n = g.add(Op::Neg, vec![r]);
        g.record_def(SignalId(1), n);
        let dot = g.to_dot(|id| {
            if id.raw() == 0 {
                "x\"quoted\"".to_string()
            } else {
                "y\\back".to_string()
            }
        });
        assert!(dot.contains("label=\"x\\\"quoted\\\"\""));
        assert!(dot.contains("label=\"y\\\\back\""));
        // No label line may contain a raw, unescaped interior quote.
        for line in dot.lines().filter(|l| l.contains("label=")) {
            let inner = line.split("label=\"").nth(1).unwrap();
            let body = &inner[..inner.rfind('"').unwrap()];
            let mut chars = body.chars();
            while let Some(c) = chars.next() {
                if c == '\\' {
                    chars.next();
                } else {
                    assert_ne!(c, '"', "unescaped quote in {line}");
                }
            }
        }
    }

    #[test]
    fn dot_marks_feedback_back_edges_on_a_cyclic_lms_graph() {
        // LMS-shaped feedback: w(1) = w + mu * x(0); y(2) = w * x. The
        // Read(w) node closes a cycle through w's definition, which must
        // be rendered as a dashed back-edge; the pure input x must not.
        let mut g = Graph::new();
        let x = g.add(Op::Read(SignalId(0)), vec![]);
        let w = g.add(Op::Read(SignalId(1)), vec![]);
        let mu = g.add(Op::Const(0.25), vec![]);
        let step = g.add(Op::Mul, vec![mu, x]);
        let upd = g.add(Op::Add, vec![w, step]);
        g.record_def(SignalId(1), upd);
        let y = g.add(Op::Mul, vec![w, x]);
        g.record_def(SignalId(2), y);
        let dot = g.to_dot(|id| format!("s{}", id.raw()));
        // Exactly one back-edge: def_1 (w) feeding its own Read node.
        let back: Vec<&str> = dot.lines().filter(|l| l.contains("style=dashed")).collect();
        assert_eq!(back.len(), 1, "expected one back-edge in:\n{dot}");
        assert!(back[0].contains("\"def_1\" -> "));
        assert!(back[0].contains("color=red"));
        // The pure input x is never a back-edge source.
        assert!(!dot.contains("\"def_0\" ->"));
    }
}
