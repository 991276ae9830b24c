//! Dynamic-cost signatures.
//!
//! The on-demand automaton supports dynamic costs by evaluating, at every
//! node, the dynamic-cost functions of the rules that could apply there
//! (the dynamic base rules of the node's operator plus all dynamic chain
//! rules) and folding the resulting cost vector into the transition key.
//! Nodes whose dynamic costs differ therefore get distinct transitions and
//! distinct (correct) states, while nodes that agree share the fast path:
//! *compute all dynamic costs, then one hash lookup per node* — the
//! structure the PLDI 2006 paper describes.

use std::sync::Arc;

use odburg_grammar::RuleCost;

use crate::dense::{self, SigSlot, Slots};

/// Id of an interned dynamic-cost signature.
///
/// [`SigId::EMPTY`] is the signature of nodes with no dynamic rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SigId(pub u32);

impl SigId {
    /// The empty signature (no dynamic rules at this node).
    pub const EMPTY: SigId = SigId(0);
}

/// Interner for dynamic-cost vectors: an open-addressed slot table of
/// `(hash, id)` pairs over the cost vectors, which are stored flattened
/// in id order (the slot layout of `dense.rs`).
///
/// Both halves sit behind `Arc`s, so `Clone` is a pair of pointer copies:
/// a snapshot shares its master's interner and the master copies it only
/// when it interns a new signature while a snapshot still holds it.
#[derive(Debug, Clone)]
pub struct SignatureInterner {
    /// Slots over the non-empty signatures.
    index: Slots<SigSlot>,
    costs: Arc<FlatCosts>,
}

/// Every interned cost vector, flattened: `offsets[id]..offsets[id + 1]`
/// bounds signature `id` in `words`.
#[derive(Debug, Clone)]
struct FlatCosts {
    offsets: Vec<u32>,
    words: Vec<RuleCost>,
}

impl SignatureInterner {
    /// Creates an interner with the empty signature pre-interned as
    /// [`SigId::EMPTY`].
    pub fn new() -> Self {
        SignatureInterner {
            index: Slots::default(),
            costs: Arc::new(FlatCosts {
                offsets: vec![0, 0],
                words: Vec::new(),
            }),
        }
    }

    /// Interns a cost vector.
    pub fn intern(&mut self, costs: &[RuleCost]) -> SigId {
        if let Some(id) = self.find(costs) {
            return id;
        }
        let flat = Arc::make_mut(&mut self.costs);
        let id = (flat.offsets.len() - 1) as u32;
        flat.words.extend_from_slice(costs);
        flat.offsets.push(flat.words.len() as u32);
        self.index.insert(SigSlot {
            hash: dense::mix_sig(costs),
            id,
        });
        SigId(id)
    }

    /// The cost vector of an interned signature.
    pub fn get(&self, id: SigId) -> &[RuleCost] {
        let flat = &*self.costs;
        let i = id.0 as usize;
        &flat.words[flat.offsets[i] as usize..flat.offsets[i + 1] as usize]
    }

    /// Looks up a cost vector without interning it: one bounded probe,
    /// the 64-bit hash screening candidates and the stored costs
    /// confirming exactly.
    #[inline]
    pub fn find(&self, costs: &[RuleCost]) -> Option<SigId> {
        if costs.is_empty() {
            return Some(SigId::EMPTY);
        }
        let hash = dense::mix_sig(costs);
        self.index
            .find(hash, |s| s.hash == hash && self.get(SigId(s.id)) == costs)
            .map(|s| SigId(s.id))
    }

    /// Number of distinct signatures (including the empty one).
    pub fn len(&self) -> usize {
        self.costs.offsets.len() - 1
    }

    /// Iterates over all interned cost vectors in id order (the empty
    /// signature first).
    pub fn iter(&self) -> impl Iterator<Item = &[RuleCost]> {
        (0..self.len()).map(|i| self.get(SigId(i as u32)))
    }

    /// `true` if only the empty signature exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// Accounted bytes (a function of the signature and cost-word
    /// counts).
    pub(crate) fn byte_size(&self) -> usize {
        dense::signature_bytes(self.len(), self.costs.words.len())
    }
}

impl Default for SignatureInterner {
    fn default() -> Self {
        SignatureInterner::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_signature_is_reserved() {
        let mut s = SignatureInterner::new();
        assert_eq!(s.intern(&[]), SigId::EMPTY);
        assert_eq!(s.get(SigId::EMPTY), &[]);
        assert!(s.is_empty());
    }

    #[test]
    fn interning_dedupes() {
        let mut s = SignatureInterner::new();
        let a = s.intern(&[RuleCost::Finite(0), RuleCost::Infinite]);
        let b = s.intern(&[RuleCost::Finite(0), RuleCost::Infinite]);
        let c = s.intern(&[RuleCost::Finite(1), RuleCost::Infinite]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(c), &[RuleCost::Finite(1), RuleCost::Infinite]);
        // A clone taken before an intern keeps its own view.
        let frozen = s.clone();
        let d = s.intern(&[RuleCost::Finite(2)]);
        assert_eq!(frozen.find(&[RuleCost::Finite(2)]), None);
        assert_eq!(frozen.len(), 3);
        assert_eq!(s.find(&[RuleCost::Finite(2)]), Some(d));
    }
}
