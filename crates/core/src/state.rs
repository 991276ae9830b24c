//! Automaton states: per-nonterminal normalized costs and optimal rules,
//! with hash-consing.

use std::sync::Arc;

use odburg_grammar::{Cost, NormalRuleId, NtId};

use crate::fxhash::FxHashMap;

/// Id of a hash-consed state within a [`StateSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

const NO_RULE: u32 = u32::MAX;

/// A tree-automaton state.
///
/// For every nonterminal it records the *normalized* cost (the minimum
/// over the state is 0) of deriving the subtree from that nonterminal, and
/// the rule used in the first derivation step. Nodes with the same
/// operator, the same relative costs, and the same optimal rules share a
/// state — that is what makes table-driven labeling possible.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateData {
    costs: Box<[Cost]>,
    rules: Box<[u32]>,
}

impl StateData {
    /// Creates a state where nothing is derivable yet.
    pub fn empty(num_nts: usize) -> Self {
        StateData {
            costs: vec![Cost::INFINITE; num_nts].into_boxed_slice(),
            rules: vec![NO_RULE; num_nts].into_boxed_slice(),
        }
    }

    /// Number of nonterminal slots.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// `true` if the state has no slots.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// The normalized cost of deriving from `nt`.
    pub fn cost(&self, nt: NtId) -> Cost {
        self.costs[nt.0 as usize]
    }

    /// The optimal first rule for deriving from `nt`.
    pub fn rule(&self, nt: NtId) -> Option<NormalRuleId> {
        let r = self.rules[nt.0 as usize];
        if r == NO_RULE {
            None
        } else {
            Some(NormalRuleId(r))
        }
    }

    /// Records `(cost, rule)` for `nt` if it improves on the current entry.
    ///
    /// Returns `true` if the entry changed.
    pub fn improve(&mut self, nt: NtId, cost: Cost, rule: NormalRuleId) -> bool {
        if cost < self.costs[nt.0 as usize] {
            self.costs[nt.0 as usize] = cost;
            self.rules[nt.0 as usize] = rule.0;
            true
        } else {
            false
        }
    }

    /// The raw per-nonterminal arrays (costs, rule ids with `u32::MAX`
    /// for "no rule"), for the persistence codec and the closure's
    /// representer index.
    pub(crate) fn raw_parts(&self) -> (&[Cost], &[u32]) {
        (&self.costs, &self.rules)
    }

    /// Rebuilds a state from raw arrays (inverse of
    /// [`raw_parts`](StateData::raw_parts)). Both slices must have the
    /// same length; rule entries use `u32::MAX` for "no rule".
    pub(crate) fn from_raw_parts(costs: Box<[Cost]>, rules: Box<[u32]>) -> Self {
        debug_assert_eq!(costs.len(), rules.len());
        StateData { costs, rules }
    }

    /// `true` if no nonterminal is derivable (the "dead" state).
    pub fn is_dead(&self) -> bool {
        self.costs.iter().all(|c| c.is_infinite())
    }

    /// Subtracts the minimum finite cost from every entry, making the
    /// state a canonical representative of its cost-equivalence class.
    ///
    /// Returns the subtracted offset (0 for dead states).
    pub fn normalize(&mut self) -> Cost {
        let min = self
            .costs
            .iter()
            .copied()
            .filter(|c| c.is_finite())
            .min()
            .unwrap_or(Cost::ZERO);
        if min != Cost::ZERO && min.is_finite() {
            for c in self.costs.iter_mut() {
                if c.is_finite() {
                    *c = Cost::finite(c.value().unwrap() - min.value().unwrap());
                }
            }
        }
        if min.is_finite() {
            min
        } else {
            Cost::ZERO
        }
    }

    /// Projects the state onto the nonterminals in `nts` (in their given
    /// order) and renormalizes.
    ///
    /// The projection keeps costs only: two child states that agree on the
    /// relative costs of the relevant nonterminals produce identical
    /// transitions, regardless of which rules they record. This is the
    /// *representer state* construction used for table compression.
    pub fn project(&self, nts: &[NtId]) -> StateData {
        let mut s = StateData::empty(nts.len());
        self.project_into(nts, &mut s);
        s
    }

    /// [`project`](StateData::project) into `out`, an earlier projection
    /// onto as many nonterminals, sparing the allocation.
    pub(crate) fn project_into(&self, nts: &[NtId], out: &mut StateData) {
        for (slot, &nt) in out.costs.iter_mut().zip(nts) {
            *slot = self.costs[nt.0 as usize];
        }
        out.normalize();
    }

    /// The maximum finite normalized cost, a measure of state "spread".
    pub fn max_delta(&self) -> Cost {
        self.costs
            .iter()
            .copied()
            .filter(|c| c.is_finite())
            .max()
            .unwrap_or(Cost::ZERO)
    }

    /// Approximate heap size in bytes, for table-size accounting.
    pub fn byte_size(&self) -> usize {
        self.costs.len() * (std::mem::size_of::<Cost>() + std::mem::size_of::<u32>())
    }
}

/// A hash-consing interner for [`StateData`].
///
/// States are stored behind `Arc`s so that an immutable
/// [`AutomatonSnapshot`](crate::AutomatonSnapshot) can be published from
/// a set with reference-count bumps instead of deep copies. Ids are
/// append-only: once assigned, a `StateId` never changes meaning for the
/// lifetime of the set (until
/// [`OnDemandAutomaton::clear`](crate::OnDemandAutomaton::clear)
/// replaces the whole set).
#[derive(Debug, Default)]
pub struct StateSet {
    states: Vec<Arc<StateData>>,
    ids: FxHashMap<Arc<StateData>, StateId>,
}

impl StateSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        StateSet::default()
    }

    /// Rebuilds a set from a shared arena (as published in an
    /// [`AutomatonSnapshot`](crate::AutomatonSnapshot)), re-deriving the
    /// hash-consing index. Ids are preserved: `get(StateId(i))` returns
    /// `arena[i]`. This is how a warm-started master automaton recovers
    /// its interner from persisted tables.
    pub fn from_arena(arena: Vec<Arc<StateData>>) -> Self {
        let ids = arena
            .iter()
            .enumerate()
            .map(|(i, s)| (Arc::clone(s), StateId(i as u32)))
            .collect();
        StateSet { states: arena, ids }
    }

    /// Interns a state, returning its id and whether it was new.
    pub fn intern(&mut self, state: StateData) -> (StateId, bool) {
        if let Some(&id) = self.ids.get(&state) {
            return (id, false);
        }
        let id = StateId(self.states.len() as u32);
        let state = Arc::new(state);
        self.states.push(Arc::clone(&state));
        self.ids.insert(state, id);
        (id, true)
    }

    /// The state with the given id.
    pub fn get(&self, id: StateId) -> &StateData {
        &self.states[id.0 as usize]
    }

    /// A shared copy of the arena, cheap to clone (one refcount bump per
    /// state). This is what snapshot publication uses.
    pub fn share_arena(&self) -> Vec<Arc<StateData>> {
        self.states.clone()
    }

    /// A borrowed view of the arena, for byte accounting and compaction.
    pub(crate) fn arena(&self) -> &[Arc<StateData>] {
        &self.states
    }

    /// Number of interned states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if no states have been interned.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Iterates over `(id, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, &StateData)> {
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| (StateId(i as u32), &**s))
    }

    /// Total approximate byte size of all states.
    pub fn byte_size(&self) -> usize {
        self.states.iter().map(|s| s.byte_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nt(i: u16) -> NtId {
        NtId(i)
    }

    #[test]
    fn improve_and_lookup() {
        let mut s = StateData::empty(3);
        assert!(s.is_dead());
        assert!(s.improve(nt(1), Cost::finite(5), NormalRuleId(7)));
        assert!(!s.improve(nt(1), Cost::finite(6), NormalRuleId(8)));
        assert!(s.improve(nt(1), Cost::finite(4), NormalRuleId(9)));
        assert_eq!(s.rule(nt(1)), Some(NormalRuleId(9)));
        assert_eq!(s.cost(nt(1)), Cost::finite(4));
        assert_eq!(s.rule(nt(0)), None);
        assert!(!s.is_dead());
    }

    #[test]
    fn normalize_shifts_to_zero() {
        let mut s = StateData::empty(3);
        s.improve(nt(0), Cost::finite(3), NormalRuleId(0));
        s.improve(nt(2), Cost::finite(7), NormalRuleId(1));
        let delta = s.normalize();
        assert_eq!(delta, Cost::finite(3));
        assert_eq!(s.cost(nt(0)), Cost::ZERO);
        assert_eq!(s.cost(nt(2)), Cost::finite(4));
        assert!(s.cost(nt(1)).is_infinite());
        assert_eq!(s.max_delta(), Cost::finite(4));
    }

    #[test]
    fn normalize_dead_state_is_noop() {
        let mut s = StateData::empty(2);
        assert_eq!(s.normalize(), Cost::ZERO);
        assert!(s.is_dead());
    }

    #[test]
    fn projection_renormalizes_and_drops_rules() {
        let mut s = StateData::empty(4);
        s.improve(nt(0), Cost::finite(0), NormalRuleId(0));
        s.improve(nt(1), Cost::finite(2), NormalRuleId(1));
        s.improve(nt(2), Cost::finite(5), NormalRuleId(2));
        let p = s.project(&[nt(1), nt(2)]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.cost(nt(0)), Cost::ZERO); // nt(1)'s slot, renormalized
        assert_eq!(p.cost(nt(1)), Cost::finite(3));
        assert_eq!(p.rule(nt(0)), None);
    }

    #[test]
    fn projection_equates_offset_states() {
        let mut a = StateData::empty(3);
        a.improve(nt(0), Cost::finite(0), NormalRuleId(0));
        a.improve(nt(1), Cost::finite(1), NormalRuleId(1));
        a.improve(nt(2), Cost::finite(9), NormalRuleId(2));
        let mut b = StateData::empty(3);
        b.improve(nt(0), Cost::finite(0), NormalRuleId(5));
        b.improve(nt(1), Cost::finite(1), NormalRuleId(6));
        b.improve(nt(2), Cost::finite(2), NormalRuleId(7));
        // a and b differ (nt2), but restricted to {nt0, nt1} they agree.
        assert_ne!(a, b);
        assert_eq!(a.project(&[nt(0), nt(1)]), b.project(&[nt(0), nt(1)]));
    }

    #[test]
    fn interner_dedupes() {
        let mut set = StateSet::new();
        let mut s1 = StateData::empty(2);
        s1.improve(nt(0), Cost::ZERO, NormalRuleId(0));
        let (id1, new1) = set.intern(s1.clone());
        let (id2, new2) = set.intern(s1.clone());
        assert!(new1);
        assert!(!new2);
        assert_eq!(id1, id2);
        assert_eq!(set.len(), 1);
        let mut s2 = StateData::empty(2);
        s2.improve(nt(1), Cost::ZERO, NormalRuleId(0));
        let (id3, new3) = set.intern(s2);
        assert!(new3);
        assert_ne!(id1, id3);
        assert_eq!(set.get(id1), &s1);
        assert!(set.byte_size() > 0);
    }
}
