//! The node arena: a forest of IR trees with an interned symbol table.
//!
//! Symbol names live back to back in one text arena, found through an
//! open-addressed index of ids. Interning a new name appends its bytes
//! and one end offset, so it allocates nothing of its own; the arena and
//! the index grow by doubling. The index hashes with SipHash under keys
//! drawn per forest ([`RandomState`]): names come from clients, and a
//! hash they could predict would let them send names that all collide.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

use crate::node::{Node, NodeId, Payload};
use crate::op::Op;

/// Id of an interned symbol (variable, global, or label name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymId(pub u32);

/// A forest of IR trees stored in one flat arena.
///
/// The arena order is topological: children are created before parents, so
/// iterating node ids from `0` upward visits every node after all of its
/// children. Bottom-up labelers exploit this with a single linear scan.
///
/// Trees are registered via [`Forest::add_root`]; a forest typically holds
/// one tree per statement of a compiled function, in program order.
///
/// # Examples
///
/// ```
/// use odburg_ir::{Forest, Op, OpKind, Payload, TypeTag};
///
/// let mut f = Forest::new();
/// let five = f.leaf(Op::new(OpKind::Const, TypeTag::I8), Payload::Int(5));
/// let neg = f.unary(Op::new(OpKind::Neg, TypeTag::I8), five);
/// f.add_root(neg);
/// assert_eq!(f.node(neg).child(0), five);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Forest {
    nodes: Vec<Node>,
    roots: Vec<NodeId>,
    symbols: Symbols,
}

impl Forest {
    /// Creates an empty forest.
    pub fn new() -> Self {
        Forest::default()
    }

    /// Number of nodes in the forest.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the forest has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this forest.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All nodes in topological (creation) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Iterates over `(id, node)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// The registered tree roots, in registration order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Registers `id` as the root of a tree.
    pub fn add_root(&mut self, id: NodeId) {
        assert!(id.index() < self.nodes.len(), "root {id} out of range");
        self.roots.push(id);
    }

    /// Creates a node with explicit children and payload.
    ///
    /// # Panics
    ///
    /// Panics if `children.len()` differs from `op.arity()` or any child id
    /// is out of range (which would break the topological invariant).
    pub fn push(&mut self, op: Op, children: &[NodeId], payload: Payload) -> NodeId {
        assert_eq!(
            children.len(),
            op.arity(),
            "operator {op} expects {} children, got {}",
            op.arity(),
            children.len()
        );
        for &c in children {
            assert!(c.index() < self.nodes.len(), "child {c} out of range");
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(op, children, payload));
        id
    }

    /// Creates a leaf node (arity 0).
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a leaf operator.
    pub fn leaf(&mut self, op: Op, payload: Payload) -> NodeId {
        self.push(op, &[], payload)
    }

    /// Creates a unary node.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not unary.
    pub fn unary(&mut self, op: Op, child: NodeId) -> NodeId {
        self.push(op, &[child], Payload::None)
    }

    /// Creates a binary node.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not binary.
    pub fn binary(&mut self, op: Op, left: NodeId, right: NodeId) -> NodeId {
        self.push(op, &[left, right], Payload::None)
    }

    /// Creates a binary node carrying a payload (e.g. a branch target).
    pub fn binary_with(&mut self, op: Op, left: NodeId, right: NodeId, payload: Payload) -> NodeId {
        self.push(op, &[left, right], payload)
    }

    /// Creates a unary node carrying a payload.
    pub fn unary_with(&mut self, op: Op, child: NodeId, payload: Payload) -> NodeId {
        self.push(op, &[child], payload)
    }

    /// Interns `name` and returns its symbol id.
    ///
    /// Interning the same string twice returns the same id.
    pub fn intern(&mut self, name: &str) -> SymId {
        self.symbols.intern(name)
    }

    /// The string of an interned symbol.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this forest.
    pub fn symbol(&self, id: SymId) -> &str {
        self.symbols.name(id.0 as usize)
    }

    /// Looks up a symbol id without interning.
    pub fn find_symbol(&self, name: &str) -> Option<SymId> {
        self.symbols.lookup(name)
    }

    /// Appends every node and root of `other` into `self`, remapping ids.
    ///
    /// Useful for concatenating per-function forests into one workload.
    pub fn append(&mut self, other: &Forest) {
        let base = self.nodes.len() as u32;
        let sym_map: Vec<SymId> = (0..other.symbols.len())
            .map(|i| self.intern(other.symbols.name(i)))
            .collect();
        for node in &other.nodes {
            let children: Vec<NodeId> =
                node.children().iter().map(|c| NodeId(c.0 + base)).collect();
            let payload = match node.payload() {
                Payload::Sym(s) => Payload::Sym(sym_map[s.0 as usize]),
                p => p,
            };
            self.nodes.push(Node::new(node.op(), &children, payload));
        }
        for r in &other.roots {
            self.roots.push(NodeId(r.0 + base));
        }
    }
}

impl fmt::Display for Forest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &root in &self.roots {
            crate::sexpr::write_sexpr(f, self, root)?;
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Names a forest starts with room for when it interns its first one.
const FIRST_NAMES: usize = 16;

/// The symbol table: names back to back in one arena, and an index of
/// their ids.
#[derive(Clone, Default)]
struct Symbols {
    /// Every name, in id order.
    text: String,
    /// Where each name ends in `text`; it starts where the previous one
    /// ends.
    ends: Vec<usize>,
    /// Open-addressed slots holding `id + 1`, or 0 when empty: a power of
    /// two in length (or empty), at most half full.
    index: Vec<u32>,
    /// This forest's SipHash keys.
    hasher: RandomState,
}

/// The names in id order: where the index puts them depends on the
/// forest's random keys, so it stays out of the output.
impl fmt::Debug for Symbols {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|id| self.name(id)))
            .finish()
    }
}

impl Symbols {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn name(&self, id: usize) -> &str {
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.text[start..self.ends[id]]
    }

    /// The id of `name`, which hashes to `hash`, or the free slot its
    /// probe sequence ends at. The index must not be empty.
    fn find(&self, name: &str, hash: u64) -> Result<SymId, usize> {
        let mask = self.index.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.index[slot] {
                0 => return Err(slot),
                id if self.name(id as usize - 1) == name => return Ok(SymId(id - 1)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn lookup(&self, name: &str) -> Option<SymId> {
        if self.index.is_empty() {
            return None;
        }
        self.find(name, self.hasher.hash_one(name)).ok()
    }

    fn intern(&mut self, name: &str) -> SymId {
        // Room for one more name keeps the index at most half full, so
        // every probe ends.
        if 2 * (self.len() + 1) > self.index.len() {
            self.grow();
        }
        let slot = match self.find(name, self.hasher.hash_one(name)) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let entry = u32::try_from(self.len() + 1).expect("fewer than 2^32 - 1 symbols");
        self.text.push_str(name);
        self.ends.push(self.text.len());
        self.index[slot] = entry;
        SymId(entry - 1)
    }

    /// Doubles the index and re-slots every id; on the first name, makes
    /// room for [`FIRST_NAMES`] names at once.
    fn grow(&mut self) {
        if self.index.is_empty() {
            self.text.reserve(8 * FIRST_NAMES);
            self.ends.reserve(FIRST_NAMES);
        }
        let slots = (2 * self.index.len()).max(2 * FIRST_NAMES);
        let mut index = vec![0u32; slots];
        for id in 0..self.len() {
            let mut slot = self.hasher.hash_one(self.name(id)) as usize & (slots - 1);
            while index[slot] != 0 {
                slot = (slot + 1) & (slots - 1);
            }
            index[slot] = id as u32 + 1;
        }
        self.index = index;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{OpKind, TypeTag};

    fn op(kind: OpKind, ty: TypeTag) -> Op {
        Op::new(kind, ty)
    }

    #[test]
    fn build_and_access() {
        let mut f = Forest::new();
        let a = f.leaf(op(OpKind::Const, TypeTag::I4), Payload::Int(1));
        let b = f.leaf(op(OpKind::Const, TypeTag::I4), Payload::Int(2));
        let c = f.binary(op(OpKind::Add, TypeTag::I4), a, b);
        f.add_root(c);
        assert_eq!(f.len(), 3);
        assert_eq!(f.roots(), &[c]);
        assert_eq!(f.node(c).children(), &[a, b]);
    }

    #[test]
    #[should_panic(expected = "expects 2 children")]
    fn arity_mismatch_panics() {
        let mut f = Forest::new();
        let a = f.leaf(op(OpKind::Const, TypeTag::I4), Payload::Int(1));
        f.push(op(OpKind::Add, TypeTag::I4), &[a], Payload::None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dangling_child_panics() {
        let mut f = Forest::new();
        f.push(op(OpKind::Load, TypeTag::I4), &[NodeId(42)], Payload::None);
    }

    #[test]
    fn interning_dedupes() {
        let mut f = Forest::new();
        let a = f.intern("x");
        let b = f.intern("y");
        let c = f.intern("x");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(f.symbol(b), "y");
        assert_eq!(f.find_symbol("x"), Some(a));
        assert_eq!(f.find_symbol("zz"), None);
    }

    #[test]
    fn interning_survives_the_index_growing() {
        let mut f = Forest::new();
        let names: Vec<String> = (0..1000).map(|i| format!("s{i}")).collect();
        let ids: Vec<SymId> = names.iter().map(|n| f.intern(n)).collect();
        let copy = f.clone();
        for (i, (name, &id)) in names.iter().zip(&ids).enumerate() {
            assert_eq!(id, SymId(i as u32));
            assert_eq!(f.intern(name), id);
            assert_eq!(copy.find_symbol(name), Some(id));
            assert_eq!(f.symbol(id), name);
        }
        assert_eq!(f.intern(""), SymId(1000));
        assert_eq!(f.symbol(SymId(1000)), "");
        assert_eq!(f.find_symbol("s1000"), None);
        assert_eq!(Forest::new().find_symbol(""), None);
        // Two forests with the same names print the same, whatever their
        // keys put where.
        let mut other = Forest::new();
        for name in &names {
            other.intern(name);
        }
        other.intern("");
        assert_eq!(format!("{f:?}"), format!("{other:?}"));
    }

    #[test]
    fn append_remaps_ids_and_symbols() {
        let mut f1 = Forest::new();
        let x1 = f1.intern("x");
        let l1 = f1.leaf(op(OpKind::AddrLocal, TypeTag::P), Payload::Sym(x1));
        f1.add_root(l1);

        let mut f2 = Forest::new();
        let y = f2.intern("y");
        let x2 = f2.intern("x");
        let a = f2.leaf(op(OpKind::AddrLocal, TypeTag::P), Payload::Sym(x2));
        let b = f2.leaf(op(OpKind::AddrLocal, TypeTag::P), Payload::Sym(y));
        let ld = f2.unary(op(OpKind::Load, TypeTag::P), b);
        let st = f2.binary(op(OpKind::Store, TypeTag::P), a, ld);
        f2.add_root(st);

        f1.append(&f2);
        assert_eq!(f1.len(), 5);
        assert_eq!(f1.roots().len(), 2);
        let st_new = f1.roots()[1];
        let a_new = f1.node(st_new).child(0);
        // "x" from f2 must map to the same symbol as "x" from f1.
        assert_eq!(f1.node(a_new).payload().as_sym(), Some(x1));
    }

    #[test]
    fn topological_invariant_holds() {
        let mut f = Forest::new();
        let a = f.leaf(op(OpKind::Const, TypeTag::I8), Payload::Int(3));
        let b = f.unary(op(OpKind::Neg, TypeTag::I8), a);
        let c = f.unary(op(OpKind::Com, TypeTag::I8), b);
        f.add_root(c);
        for (id, node) in f.iter() {
            for &ch in node.children() {
                assert!(ch < id);
            }
        }
    }
}
