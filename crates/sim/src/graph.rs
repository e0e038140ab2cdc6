//! Signal-flow-graph extraction.
//!
//! While [`Design::record_graph`](crate::Design::record_graph) is enabled,
//! every executed assignment contributes its expression tree to a [`Graph`]
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

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::mem::{self, Discriminant};
use std::ops::Index;

use fixref_fixed::DType;

use crate::design::SignalId;
use crate::value::{Expr, ExprNode};

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

/// A recorded signal-flow graph: nodes plus, per signal, the set of
/// definition roots observed during simulation.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Per signal, its distinct definition roots in first-seen order.
    defs: HashMap<SignalId, Vec<NodeId>>,
    /// Membership index of `defs`, so deduplication stays O(1) when a
    /// signal collects thousands of definitions (one `Const` per input
    /// sample).
    def_set: HashSet<(SignalId, NodeId)>,
    /// Structural-hash intern table so repeated loop bodies do not grow the
    /// graph. Two nodes share an id exactly when their `{:?}` renderings
    /// and operands are equal: see [`NodeKey`].
    intern: HashMap<NodeKey, NodeId>,
    /// Index of every distinct `Cast` type, a cast's key payload.
    cast_types: HashMap<DType, u64>,
}

/// Intern-table key: the operator's variant and payload, plus the operand
/// ids (unused slots are 0; the variant fixes the arity). The payload is a
/// constant's bit pattern, with every NaN mapped to one (`Debug` prints
/// them all alike, while `0.0` and `-0.0` stay apart), a read's signal, or
/// a cast's index in `cast_types`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct NodeKey {
    op: Discriminant<Op>,
    payload: u64,
    args: [u32; 3],
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
        self.defs.get(&signal).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Signals that have at least one recorded definition.
    pub fn defined_signals(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.defs.keys().copied()
    }

    /// Adds a node (interned: structurally identical nodes share an id).
    pub fn add(&mut self, op: Op, args: Vec<NodeId>) -> NodeId {
        assert_eq!(op.arity(), args.len(), "arity mismatch for {op:?}");
        let mut slots = [0; 3];
        for (slot, a) in slots.iter_mut().zip(&args) {
            *slot = a.0;
        }
        let key = self.key(&op, slots);
        self.intern(key, || (op, args))
    }

    /// Records `root` as one definition of `signal` (deduplicated).
    pub fn record_def(&mut self, signal: SignalId, root: NodeId) {
        if self.def_set.insert((signal, root)) {
            self.defs.entry(signal).or_default().push(root);
        }
    }

    fn key(&mut self, op: &Op, args: [u32; 3]) -> NodeKey {
        let payload = match op {
            Op::Const(c) if c.is_nan() => f64::NAN.to_bits(),
            Op::Const(c) => c.to_bits(),
            Op::Read(s) => u64::from(s.0),
            Op::Cast(dt) => match self.cast_types.get(dt) {
                Some(&k) => k,
                None => {
                    let k = self.cast_types.len() as u64;
                    self.cast_types.insert(dt.clone(), k);
                    k
                }
            },
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
        NodeKey {
            op: mem::discriminant(op),
            payload,
            args,
        }
    }

    /// Looks `key` up, building the owned node with `make` only on a miss.
    fn intern(&mut self, key: NodeKey, make: impl FnOnce() -> (Op, Vec<NodeId>)) -> NodeId {
        if let Some(&id) = self.intern.get(&key) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        let (op, args) = make();
        self.nodes.push(Node { op, args });
        self.intern.insert(key, id);
        id
    }

    /// Interns an expression trace, returning its root, or `None` when the
    /// trace is disabled.
    pub(crate) fn intern_expr(&mut self, expr: &Expr) -> Option<NodeId> {
        match expr {
            Expr::Off => None,
            Expr::Const(c) => Some(self.add(Op::Const(*c), vec![])),
            Expr::Read(id) => Some(self.add(Op::Read(*id), vec![])),
            Expr::Node(n) => self.intern_node(n),
        }
    }

    fn intern_node(&mut self, node: &ExprNode) -> Option<NodeId> {
        let mut args = [0; 3];
        for (slot, a) in args.iter_mut().zip(&node.args) {
            *slot = self.intern_expr(a)?.0;
        }
        let key = self.key(&node.op, args);
        Some(self.intern(key, || {
            let ids = args[..node.args.len()].iter().map(|&a| NodeId(a)).collect();
            (node.op.clone(), ids)
        }))
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
