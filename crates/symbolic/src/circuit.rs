//! A hash-consed and-inverter graph (AIG) with incremental Tseitin
//! encoding into the CDCL solver.
//!
//! All symbolic values the inductive synthesizer manipulates bottom out
//! in this circuit; structural hashing keeps shared subterms (hole
//! decodings, heap muxes) encoded once across all observation traces.

use psketch_sat::{Lit, Solver, Var};
use std::collections::HashMap;

/// A signed reference to a circuit node (bit 0 = negation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeRef(u32);

impl NodeRef {
    /// The constant true.
    pub const TRUE: NodeRef = NodeRef(0);
    /// The constant false.
    pub const FALSE: NodeRef = NodeRef(1);

    fn node(self) -> u32 {
        self.0 >> 1
    }

    fn negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// Negation (free: flips the polarity bit).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> NodeRef {
        NodeRef(self.0 ^ 1)
    }

    /// Is this a constant?
    pub fn as_const(self) -> Option<bool> {
        match self {
            NodeRef::TRUE => Some(true),
            NodeRef::FALSE => Some(false),
            _ => None,
        }
    }
}

/// A node: the AND of its two inputs, ordered, or `INPUT`.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Node(NodeRef, NodeRef);

/// The constant-true anchor (node 0) and every free input. No AND has
/// this key, because `and` folds constants.
const INPUT: Node = Node(NodeRef::TRUE, NodeRef::TRUE);

/// A Tseitin map entry for a node with no solver variable yet.
const NO_VAR: u32 = u32::MAX;

/// Hashes an AND node's key, its two input refs, with a folded
/// multiply of the two words packed in one `u64`: the two halves of
/// the 128-bit product XORed, so every key bit reaches the table's
/// index bits. The keys are node refs the circuit numbers itself, not
/// outside input, so the table needs no protection against crafted
/// collisions.
fn and_hash(Node(x, y): Node) -> u64 {
    let p = u128::from(u64::from(x.0) << 32 | u64::from(y.0)) * 0x9e37_79b9_7f4a_7c15;
    p as u64 ^ (p >> 64) as u64
}

/// The circuit builder.
pub struct Circuit {
    nodes: Vec<Node>,
    /// Structural hashing: an open-addressing table of AND node ids,
    /// probed linearly from the hash of the node's key and compared
    /// against `nodes[id]`. A power of two long; 0, the constant
    /// anchor's id, marks an empty slot.
    table: Vec<u32>,
    /// AND nodes in `table`.
    ands: usize,
    /// Tseitin mapping: node index → solver variable index, or
    /// `NO_VAR`.
    vars: Vec<u32>,
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new()
    }
}

impl Circuit {
    /// An empty circuit (containing only the constant).
    pub fn new() -> Circuit {
        Circuit {
            nodes: vec![INPUT],
            table: vec![0; 16],
            ands: 0,
            vars: vec![NO_VAR],
        }
    }

    /// Number of nodes (including the constant anchor).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the constant anchor exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Heap bytes in use: the nodes and the Tseitin map by length,
    /// and every slot of the AND table, which probing touches.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.nodes[..]) + size_of_val(&self.vars[..]) + size_of_val(&self.table[..])
    }

    /// A fresh unconstrained input.
    pub fn input(&mut self) -> NodeRef {
        self.push(INPUT)
    }

    /// Appends a node with no solver variable yet.
    fn push(&mut self, node: Node) -> NodeRef {
        let ix = self.nodes.len() as u32;
        self.nodes.push(node);
        self.vars.push(NO_VAR);
        NodeRef(ix << 1)
    }

    /// The table slot holding `key`'s node, or the empty slot where it
    /// belongs.
    fn slot(&self, key: Node) -> usize {
        let mask = self.table.len() - 1;
        let mut i = and_hash(key) as usize & mask;
        loop {
            let id = self.table[i];
            if id == 0 || self.nodes[id as usize] == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the AND table and inserts every id again.
    fn grow(&mut self) {
        let doubled = vec![0; self.table.len() * 2];
        let old = std::mem::replace(&mut self.table, doubled);
        for id in old.into_iter().filter(|&id| id != 0) {
            let i = self.slot(self.nodes[id as usize]);
            self.table[i] = id;
        }
    }

    /// A boolean constant.
    pub fn constant(&mut self, b: bool) -> NodeRef {
        if b {
            NodeRef::TRUE
        } else {
            NodeRef::FALSE
        }
    }

    /// Conjunction with constant folding and structural hashing.
    ///
    /// Most calls fold (a constant input, or `x ∧ x`, or `x ∧ ¬x`), so
    /// the folds are inlined into the caller and only the table probe
    /// is a call.
    #[inline]
    pub fn and(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        match (a.as_const(), b.as_const()) {
            (Some(false), _) | (_, Some(false)) => return NodeRef::FALSE,
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if a == b.not() {
            return NodeRef::FALSE;
        }
        self.and_node(a, b)
    }

    /// The AND node of two distinct, non-constant, non-complementary
    /// inputs: the existing one, or a new one.
    #[inline(never)]
    fn and_node(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        let key = if a.0 <= b.0 { Node(a, b) } else { Node(b, a) };
        let mut i = self.slot(key);
        if self.table[i] != 0 {
            return NodeRef(self.table[i] << 1);
        }
        if (self.ands + 1) * 4 > self.table.len() * 3 {
            self.grow();
            i = self.slot(key);
        }
        self.ands += 1;
        let r = self.push(key);
        self.table[i] = r.node();
        r
    }

    /// Disjunction.
    #[inline]
    pub fn or(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        self.and(a.not(), b.not()).not()
    }

    /// Exclusive or.
    #[inline]
    pub fn xor(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        let n1 = self.and(a, b.not());
        let n2 = self.and(a.not(), b);
        self.or(n1, n2)
    }

    /// Equivalence.
    #[inline]
    pub fn iff(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        self.xor(a, b).not()
    }

    /// If-then-else.
    #[inline]
    pub fn ite(&mut self, c: NodeRef, t: NodeRef, e: NodeRef) -> NodeRef {
        match c.as_const() {
            Some(true) => return t,
            Some(false) => return e,
            None => {}
        }
        if t == e {
            return t;
        }
        let a = self.and(c, t);
        let b = self.and(c.not(), e);
        self.or(a, b)
    }

    /// Conjunction over many.
    pub fn and_all(&mut self, items: impl IntoIterator<Item = NodeRef>) -> NodeRef {
        let mut acc = NodeRef::TRUE;
        for r in items {
            acc = self.and(acc, r);
        }
        acc
    }

    /// Disjunction over many.
    pub fn or_all(&mut self, items: impl IntoIterator<Item = NodeRef>) -> NodeRef {
        let mut acc = NodeRef::FALSE;
        for r in items {
            acc = self.or(acc, r);
        }
        acc
    }

    /// The solver literal for a node, lazily Tseitin-encoding its cone.
    pub fn lit(&mut self, r: NodeRef, solver: &mut Solver) -> Lit {
        // Iterative DFS to avoid recursion depth issues.
        let mut stack = vec![r.node()];
        while let Some(&n) = stack.last() {
            if self.vars[n as usize] != NO_VAR {
                stack.pop();
                continue;
            }
            match self.nodes[n as usize] {
                INPUT => {
                    let v = solver.new_var();
                    if n == 0 {
                        // Anchor: constant true.
                        solver.add_clause([Lit::pos(v)]);
                    }
                    self.vars[n as usize] = v.index() as u32;
                    stack.pop();
                }
                Node(a, b) => {
                    let need_a = self.vars[a.node() as usize] == NO_VAR;
                    let need_b = self.vars[b.node() as usize] == NO_VAR;
                    if need_a {
                        stack.push(a.node());
                    }
                    if need_b {
                        stack.push(b.node());
                    }
                    if !need_a && !need_b {
                        let v = solver.add_and(self.ref_lit(a), self.ref_lit(b));
                        self.vars[n as usize] = v.index() as u32;
                        stack.pop();
                    }
                }
            }
        }
        self.ref_lit(r)
    }

    fn ref_lit(&self, r: NodeRef) -> Lit {
        let v = self.vars[r.node() as usize];
        debug_assert_ne!(v, NO_VAR, "encoded");
        Lit::new(Var::from_index(v as usize), !r.negated())
    }

    /// Asserts that a node is true.
    pub fn assert_true(&mut self, r: NodeRef, solver: &mut Solver) {
        match r.as_const() {
            Some(true) => {}
            Some(false) => {
                // Trivially unsatisfiable.
                let v = solver.new_var();
                solver.add_clause([Lit::pos(v)]);
                solver.add_clause([Lit::neg(v)]);
            }
            None => {
                let l = self.lit(r, solver);
                solver.add_clause([l]);
            }
        }
    }

    /// Evaluates a node under a concrete input valuation
    /// (`inputs[node_index] = value`; non-input entries ignored).
    /// Used by tests and by candidate decoding sanity checks.
    pub fn eval(&self, r: NodeRef, inputs: &HashMap<u32, bool>) -> bool {
        let mut memo: Vec<Option<bool>> = vec![None; self.nodes.len()];
        memo[0] = Some(true);
        let mut stack = vec![r.node()];
        while let Some(&n) = stack.last() {
            if memo[n as usize].is_some() {
                stack.pop();
                continue;
            }
            match self.nodes[n as usize] {
                INPUT => {
                    memo[n as usize] = Some(*inputs.get(&n).unwrap_or(&false));
                    stack.pop();
                }
                Node(a, b) => {
                    let ma = memo[a.node() as usize];
                    let mb = memo[b.node() as usize];
                    match (ma, mb) {
                        (Some(x), Some(y)) => {
                            let va = x ^ a.negated();
                            let vb = y ^ b.negated();
                            memo[n as usize] = Some(va && vb);
                            stack.pop();
                        }
                        _ => {
                            if ma.is_none() {
                                stack.push(a.node());
                            }
                            if mb.is_none() {
                                stack.push(b.node());
                            }
                        }
                    }
                }
            }
        }
        memo[r.node() as usize].unwrap() ^ r.negated()
    }

    /// The raw input index of an input node (for [`Circuit::eval`]).
    pub fn input_index(&self, r: NodeRef) -> u32 {
        debug_assert!(self.nodes[r.node() as usize] == INPUT);
        r.node()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_sat::SolveResult;

    #[test]
    fn constant_folding() {
        let mut c = Circuit::new();
        let x = c.input();
        assert_eq!(c.and(NodeRef::TRUE, x), x);
        assert_eq!(c.and(NodeRef::FALSE, x), NodeRef::FALSE);
        assert_eq!(c.and(x, x), x);
        assert_eq!(c.and(x, x.not()), NodeRef::FALSE);
        assert_eq!(c.or(x, NodeRef::TRUE), NodeRef::TRUE);
        assert_eq!(NodeRef::TRUE.not(), NodeRef::FALSE);
    }

    #[test]
    fn structural_hashing_shares_nodes() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let a1 = c.and(x, y);
        let a2 = c.and(y, x);
        assert_eq!(a1, a2);
        let before = c.len();
        let _ = c.and(x, y);
        assert_eq!(c.len(), before);
    }

    #[test]
    fn and_table_finds_every_node_after_growing() {
        let mut c = Circuit::new();
        let xs: Vec<NodeRef> = (0..64).map(|_| c.input()).collect();
        let mut made = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            for &y in &xs[i + 1..] {
                made.push((x, y.not(), c.and(x, y.not())));
            }
        }
        // 2,016 ANDs grow the 16-slot table to 4,096 slots.
        assert_eq!(c.table.len(), 4096);
        let len = c.len();
        for &(x, y, r) in &made {
            assert_eq!(c.and(x, y), r);
            assert_eq!(c.and(y, x), r);
        }
        assert_eq!(c.len(), len);
        assert_eq!(std::mem::size_of::<Node>(), 8);
        assert!(c.heap_bytes() <= 24 * c.len(), "{} bytes", c.heap_bytes());
    }

    #[test]
    fn sat_roundtrip_xor() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let f = c.xor(x, y);
        let mut s = Solver::new();
        c.assert_true(f, &mut s);
        assert_eq!(s.solve(), SolveResult::Sat);
        // Model must satisfy the xor.
        let lx = c.lit(x, &mut s);
        let ly = c.lit(y, &mut s);
        assert_eq!(s.solve(), SolveResult::Sat);
        let vx = s.lit_model_value(lx).unwrap_or(false);
        let vy = s.lit_model_value(ly).unwrap_or(false);
        assert_ne!(vx, vy);
    }

    #[test]
    fn unsat_when_contradictory() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let f = c.and(x, y);
        let g = c.or(x, y).not();
        let mut s = Solver::new();
        c.assert_true(f, &mut s);
        c.assert_true(g, &mut s);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assert_false_is_unsat() {
        let mut c = Circuit::new();
        let mut s = Solver::new();
        c.assert_true(NodeRef::FALSE, &mut s);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn concrete_eval_matches_semantics() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let z = c.input();
        let f0 = c.and(x, y);
        let f = c.ite(z, f0, x.not());
        for bits in 0..8u32 {
            let mut inputs = HashMap::new();
            inputs.insert(c.input_index(x), bits & 1 != 0);
            inputs.insert(c.input_index(y), bits & 2 != 0);
            inputs.insert(c.input_index(z), bits & 4 != 0);
            let expect = if bits & 4 != 0 {
                (bits & 1 != 0) && (bits & 2 != 0)
            } else {
                bits & 1 == 0
            };
            assert_eq!(c.eval(f, &inputs), expect, "bits={bits:03b}");
        }
    }

    #[test]
    fn ite_folds() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        assert_eq!(c.ite(NodeRef::TRUE, x, y), x);
        assert_eq!(c.ite(NodeRef::FALSE, x, y), y);
        assert_eq!(c.ite(x, y, y), y);
    }
}
