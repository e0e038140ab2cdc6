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

use std::collections::HashMap;
use std::fmt;

use fixref_fixed::DType;

use crate::design::SignalId;
use crate::value::{Expr, ExprNode, ExprOp};

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

/// A recorded signal-flow graph: nodes plus, per signal, the set of
/// definition roots observed during simulation.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    defs: HashMap<SignalId, Vec<NodeId>>,
    /// Structural-hash intern table so repeated loop bodies do not grow the
    /// graph: key is (op-discriminant rendering, args).
    intern: HashMap<(String, Vec<NodeId>), NodeId>,
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
        let key = (format!("{op:?}"), args.clone());
        if let Some(&id) = self.intern.get(&key) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { op, args });
        self.intern.insert(key, id);
        id
    }

    /// Records `root` as one definition of `signal` (deduplicated).
    pub fn record_def(&mut self, signal: SignalId, root: NodeId) {
        let defs = self.defs.entry(signal).or_default();
        if !defs.contains(&root) {
            defs.push(root);
        }
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
        let mut args = Vec::with_capacity(node.args.len());
        for a in &node.args {
            args.push(self.intern_expr(a)?);
        }
        let op = match node.op {
            ExprOp::Add => Op::Add,
            ExprOp::Sub => Op::Sub,
            ExprOp::Mul => Op::Mul,
            ExprOp::Div => Op::Div,
            ExprOp::Neg => Op::Neg,
            ExprOp::Abs => Op::Abs,
            ExprOp::Min => Op::Min,
            ExprOp::Max => Op::Max,
            ExprOp::Select => Op::Select,
            ExprOp::Cast => Op::Cast(node.dtype.clone().expect("cast carries dtype")),
        };
        Some(self.add(op, args))
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
