//! The automata's tables: flat arrays shared copy-on-write by the
//! master automaton and its snapshots, and holding the offline closure.
//!
//! The paper's bet is that the warm path is a *pure table lookup*; this
//! module is the one table layout that makes the lookup look like one to
//! the hardware, walked by every automaton (`snapshot.rs`):
//!
//! * **Operand-class arrays** — transitions are keyed by the children's
//!   representer (projected) states, burg's table compression grown on
//!   demand. Operand positions with equal operand nonterminals share one
//!   class ([`NormalGrammar::operand_class`](odburg_grammar::NormalGrammar::operand_class)),
//!   and each class keeps one `u32` array indexed by full state id
//!   ([`UNSEEN`] until the state first appears under the class), so a
//!   child's representer is one array load.
//! * **Per-operator transition groups** — all transitions of one
//!   operator live in their own open-addressed, power-of-two slot array
//!   (load factor at most one half, fixed hash seed). Each group records
//!   the longest displacement any of its keys needed, so a lookup is one
//!   bounded linear probe: typically the home slot, worst case
//!   `probe_cap + 1` adjacent 16-byte slots. The target's deadness is
//!   folded into the slot word ([`DEAD_BIT`]) when the transition is
//!   inserted, so the warm walk's `NoCover` check needs no further load.
//! * **Signature table** — the dynamic-cost signature interner
//!   ([`SignatureInterner`](crate::signature::SignatureInterner)) is a
//!   slot table of `(hash, id)` pairs over flattened cost vectors.
//!
//! Every array sits behind an `Arc`. The master writes in place when it
//! owns an array outright and copies it first when a published snapshot
//! still shares it; an insert that would push a slot table's load past
//! one half rehashes that table alone into one twice the size, and one
//! past a class array's end regrows that array alone. Publication
//! ([`OnDemandAutomaton::snapshot`](crate::OnDemandAutomaton::snapshot))
//! therefore clones array *pointers*, never contents — O(groups +
//! classes) — and the copying happens in the grow path, once per
//! publication, for the arrays a forest actually grew.
//!
//! Slot counts are always [`slots_for`] of the entry count and a class
//! array is accounted up to the highest state it covers, so the
//! accounted bytes ([`transition_bytes`], [`class_bytes`],
//! [`signature_bytes`]) are a pure function of the table contents: a
//! live master, its snapshots and a persisted file of the same tables
//! report the same figure, and compaction can predict the footprint of
//! tables it has not built yet.

use std::sync::Arc;

use odburg_grammar::RuleCost;

use crate::signature::{SigId, SignatureInterner};
use crate::snapshot::{RawProjection, RawTransition, MAX_ARITY};
use crate::state::StateId;

/// Sentinel for an empty transition slot (`state` field). Safe because
/// state ids are arena indices and the arena is budget-bounded far below
/// `u32::MAX`.
const EMPTY_STATE: u32 = u32::MAX;
/// Top bit of an occupied slot's `state` field: the target state is
/// dead (`NoCover`). Folding the flag into the probe result spares the
/// warm walk a dependent load per node. State ids are arena indices
/// bounded far below `2^31`, and the encoding cannot collide with
/// [`EMPTY_STATE`] — that would need id `2^31 - 1`; inserts assert both
/// bounds.
pub(crate) const DEAD_BIT: u32 = 1 << 31;
/// A class-array word for a state not yet projected under the class.
/// Projection ids are arena indices, bounded far below `u32::MAX`.
pub(crate) const UNSEEN: u32 = u32::MAX;
/// Sentinel for an empty signature slot (`id` field); real signature
/// ids are interner indices, bounded far below `u32::MAX`.
const EMPTY_SIG_ID: u32 = u32::MAX;

/// Accounted bytes of one transition slot: `{kid0, kid1, sig, state}`.
const TRANS_SLOT_BYTES: usize = std::mem::size_of::<TransSlot>();
/// Accounted bytes of one per-operator group header.
const GROUP_HEADER_BYTES: usize = std::mem::size_of::<Slots<TransSlot>>();
/// Accounted bytes of one signature slot: 64-bit hash + id + padding.
const SIG_SLOT_BYTES: usize = std::mem::size_of::<SigSlot>();
/// Accounted bytes per signature offset (`sigs + 1` entries).
const SIG_OFFSET_BYTES: usize = 4;
/// Accounted bytes per flattened signature cost word.
const SIG_COST_BYTES: usize = std::mem::size_of::<RuleCost>();

/// Slot count for an open-addressed table holding `n` entries: the next
/// power of two of `2n`, so the load factor never exceeds one half and
/// every probe sequence terminates at an empty slot.
pub(crate) fn slots_for(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        (2 * n).next_power_of_two()
    }
}

/// Accounted bytes of the transition groups holding `per_op[op]` entries
/// per operator: one header per operator id up to the highest one with
/// an entry, plus every group's slots.
pub(crate) fn transition_bytes(per_op: impl Iterator<Item = usize>) -> usize {
    let (mut groups, mut slots) = (0, 0);
    for (op, n) in per_op.enumerate() {
        if n > 0 {
            groups = op + 1;
            slots += slots_for(n);
        }
    }
    groups * GROUP_HEADER_BYTES + slots * TRANS_SLOT_BYTES
}

/// Accounted bytes of class arrays covering `words` states in total.
/// (The class vector itself is bounded by the grammar's class count,
/// grammar-derived metadata like the dynamic-cost dispatch table.)
pub(crate) fn class_bytes(words: usize) -> usize {
    words * std::mem::size_of::<u32>()
}

/// Accounted bytes of a signature table holding `sigs` signatures (the
/// empty one included: it takes an offset but no slot) with `words`
/// cost words in total.
pub(crate) fn signature_bytes(sigs: usize, words: usize) -> usize {
    slots_for(sigs.saturating_sub(1)) * SIG_SLOT_BYTES
        + (sigs + 1) * SIG_OFFSET_BYTES
        + words * SIG_COST_BYTES
}

/// A slot of an open-addressed table.
pub(crate) trait Slot: Copy {
    /// The empty slot.
    const EMPTY: Self;
    /// `true` for [`Slot::EMPTY`].
    fn is_empty(&self) -> bool;
    /// The fixed-seed hash of the slot's key (its home position).
    fn hash(&self) -> u64;
}

/// One open-addressed, power-of-two slot table behind an `Arc`, shared
/// copy-on-write (see the [module docs](self)). An empty table holds no
/// array at all, so cloning one costs nothing.
#[derive(Debug, Clone)]
pub(crate) struct Slots<S> {
    slots: Option<Arc<[S]>>,
    len: u32,
    /// Longest displacement any key needed (lookups probe at most that
    /// many + 1 adjacent slots).
    probe_cap: u32,
}

impl<S> Default for Slots<S> {
    fn default() -> Self {
        Slots {
            slots: None,
            len: 0,
            probe_cap: 0,
        }
    }
}

impl<S: Slot> Slots<S> {
    /// Entries held.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// One bounded probe from `hash`'s home slot: the first occupied
    /// slot `eq` accepts, or `None` at an empty slot or past the probe
    /// cap.
    #[inline(always)]
    pub fn find(&self, hash: u64, eq: impl Fn(&S) -> bool) -> Option<&S> {
        let slots = self.slots.as_deref()?;
        // `i & mask` is always in bounds: `mask == slots.len() - 1`.
        let mask = slots.len() - 1;
        let home = hash as usize & mask;
        for i in home..=home + self.probe_cap as usize {
            let slot = &slots[i & mask];
            if slot.is_empty() {
                return None;
            }
            if eq(slot) {
                return Some(slot);
            }
        }
        None
    }

    /// Inserts a slot whose key is absent. Rehashes into a table twice
    /// the size when the load would pass one half, so the slot count
    /// stays `slots_for(len)`; otherwise writes in place, after copying
    /// the slots if a snapshot still shares them.
    pub fn insert(&mut self, slot: S) {
        let len = self.len as usize + 1;
        let slots = match &mut self.slots {
            Some(slots) if slots.len() == slots_for(len) => {
                if Arc::get_mut(slots).is_none() {
                    *slots = Arc::from(&slots[..]);
                }
                slots
            }
            _ => {
                let mut fresh = vec![S::EMPTY; slots_for(len)];
                let mut probe_cap = 0;
                for &old in self.iter() {
                    place(&mut fresh, old, &mut probe_cap);
                }
                self.probe_cap = probe_cap;
                self.slots.insert(fresh.into())
            }
        };
        let slots = Arc::get_mut(slots).expect("slots were just made unique");
        place(slots, slot, &mut self.probe_cap);
        self.len = len as u32;
    }

    /// The occupied slots, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &S> + '_ {
        self.slots
            .iter()
            .flat_map(|s| s.iter())
            .filter(|s| !s.is_empty())
    }

    /// `true` when `self` and `other` share one slot array (no copy was
    /// made between them).
    #[cfg(test)]
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        match (&self.slots, &other.slots) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    /// Slots allocated.
    #[cfg(test)]
    pub fn slot_count(&self) -> usize {
        self.slots.as_deref().map_or(0, <[S]>::len)
    }
}

/// Linear-probes `slot` into the first empty position from its home,
/// widening `probe_cap` to the displacement it needed.
fn place<S: Slot>(slots: &mut [S], slot: S, probe_cap: &mut u32) {
    let mask = slots.len() - 1;
    let mut i = slot.hash() as usize & mask;
    let mut displacement = 0u32;
    while !slots[i].is_empty() {
        i = (i + 1) & mask;
        displacement += 1;
    }
    slots[i] = slot;
    *probe_cap = (*probe_cap).max(displacement);
}

/// One transition slot. The operator is implicit in the group, so the
/// key compare is `(kid0, kid1, sig)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TransSlot {
    kid0: u32,
    kid1: u32,
    sig: u32,
    state: u32,
}

impl Slot for TransSlot {
    const EMPTY: Self = TransSlot {
        kid0: 0,
        kid1: 0,
        sig: 0,
        state: EMPTY_STATE,
    };
    #[inline(always)]
    fn is_empty(&self) -> bool {
        self.state == EMPTY_STATE
    }
    fn hash(&self) -> u64 {
        mix(self.kid0, self.kid1, self.sig)
    }
}

impl Slots<TransSlot> {
    /// The probe itself, returning the slot's encoded `state` word: the
    /// target [`StateId`] with [`DEAD_BIT`] set when the target is dead.
    /// Kid slots beyond the operator's arity must be
    /// [`NO_CHILD`](crate::snapshot::NO_CHILD).
    #[inline(always)]
    pub fn lookup_enc(&self, kid0: u32, kid1: u32, sig: u32) -> Option<u32> {
        self.find(mix(kid0, kid1, sig), |s| {
            s.kid0 == kid0 && s.kid1 == kid1 && s.sig == sig
        })
        .map(|s| s.state)
    }
}

/// One signature slot: the fixed-seed hash of an interned cost vector
/// and its [`SigId`]. The hash screens out almost every non-match; the
/// interner's flattened cost words confirm the rest exactly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SigSlot {
    pub hash: u64,
    pub id: u32,
}

impl Slot for SigSlot {
    const EMPTY: Self = SigSlot {
        hash: 0,
        id: EMPTY_SIG_ID,
    };
    #[inline(always)]
    fn is_empty(&self) -> bool {
        self.id == EMPTY_SIG_ID
    }
    fn hash(&self) -> u64 {
        self.hash
    }
}

/// Fixed-seed hash of a dynamic-cost vector: one multiply per cost word
/// (FxHash-style), with the high half folded into the low bits the slot
/// index uses. Cheap because it runs at every dynamic-cost node of the
/// warm walk; the stored costs confirm every hit exactly.
#[inline(always)]
pub(crate) fn mix_sig(costs: &[RuleCost]) -> u64 {
    let mut h = costs.len() as u64;
    for &c in costs {
        let word = match c {
            RuleCost::Finite(v) => v as u64,
            RuleCost::Infinite => u32::MAX as u64,
        };
        h = (h.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
    h ^ (h >> 32)
}

/// Fixed-seed mix of a transition key's non-operator half.
#[inline(always)]
fn mix(kid0: u32, kid1: u32, sig: u32) -> u64 {
    let mut x = (kid0 as u64) ^ ((kid1 as u64) << 21) ^ ((sig as u64) << 42);
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 32;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^ (x >> 29)
}

/// The class arrays, transition groups and signature interner of one
/// automaton; cloning them is publication (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub(crate) struct Tables {
    /// Transition groups indexed by operator id, up to the highest
    /// operator with a transition.
    groups: Vec<Slots<TransSlot>>,
    /// Total transitions across the groups.
    transitions: usize,
    /// Projection arrays indexed by operand class, up to the highest
    /// class with a projection; each maps a full state id to its
    /// projection id, or [`UNSEEN`].
    classes: Vec<Option<Arc<[u32]>>>,
    /// Projections memoized across the class arrays.
    projections: usize,
    pub signatures: SignatureInterner,
}

impl Tables {
    /// The operator's transition group, fetched once per node by the
    /// warm walk; `None` for an operator with no transitions.
    #[inline(always)]
    pub fn group(&self, op: u16) -> Option<&Slots<TransSlot>> {
        self.groups.get(op as usize)
    }

    /// One bounded transition probe; `kids` beyond the operator's arity
    /// must be [`NO_CHILD`](crate::snapshot::NO_CHILD).
    #[inline]
    pub fn lookup(&self, op: u16, kids: [u32; MAX_ARITY], sig: SigId) -> Option<StateId> {
        self.group(op)?
            .lookup_enc(kids[0], kids[1], sig.0)
            .map(|enc| StateId(enc & !DEAD_BIT))
    }

    /// Memoizes an absent transition, recording whether its target is
    /// dead in the slot word.
    pub fn insert_transition(
        &mut self,
        op: u16,
        kids: [u32; MAX_ARITY],
        sig: SigId,
        target: StateId,
        dead: bool,
    ) {
        assert!(
            target.0 < DEAD_BIT - 1,
            "state id collides with the dead bit or the empty sentinel"
        );
        debug_assert!(self.lookup(op, kids, sig).is_none(), "duplicate transition");
        let op = op as usize;
        if self.groups.len() <= op {
            self.groups.resize_with(op + 1, Slots::default);
        }
        self.groups[op].insert(TransSlot {
            kid0: kids[0],
            kid1: kids[1],
            sig: sig.0,
            state: target.0 | if dead { DEAD_BIT } else { 0 },
        });
        self.transitions += 1;
    }

    /// The words of a class array, slack included.
    #[inline(always)]
    fn words(&self, class: u32) -> &[u32] {
        self.classes
            .get(class as usize)
            .and_then(Option::as_deref)
            .unwrap_or(&[])
    }

    /// The projection array of an operand class, up to the highest state
    /// it covers (empty for a class with no projection yet).
    pub fn class(&self, class: u32) -> &[u32] {
        let words = self.words(class);
        &words[..words
            .iter()
            .rposition(|&w| w != UNSEEN)
            .map_or(0, |i| i + 1)]
    }

    /// The projection of `full` under `class`: one array load.
    #[inline(always)]
    pub fn project(&self, full: StateId, class: u32) -> Option<StateId> {
        match self.words(class).get(full.0 as usize) {
            Some(&p) if p != UNSEEN => Some(StateId(p)),
            _ => None,
        }
    }

    /// Memoizes an absent projection, regrowing the class array to cover
    /// `full` if needed. Regrowth at least doubles the array, so covering
    /// states one by one stays linear; the [`UNSEEN`] slack past the
    /// highest covered state is capacity, not accounted. Inserting a
    /// class's projections highest state first allocates exactly once.
    pub fn insert_projection(&mut self, full: StateId, class: u32, projection: StateId) {
        assert!(projection.0 != UNSEEN, "projection id collides with UNSEEN");
        debug_assert!(self.project(full, class).is_none(), "duplicate projection");
        let (class, full) = (class as usize, full.0 as usize);
        if self.classes.len() <= class {
            self.classes.resize(class + 1, None);
        }
        let words = self.classes[class].get_or_insert_with(|| Arc::from([]));
        if words.len() <= full || Arc::get_mut(words).is_none() {
            let len = match words.len() {
                len if len <= full => (full + 1).max(2 * len),
                len => len,
            };
            let mut copy = Vec::with_capacity(len);
            copy.extend_from_slice(words);
            copy.resize(len, UNSEEN);
            *words = copy.into();
        }
        Arc::get_mut(words).expect("words were just made unique")[full] = projection.0;
        self.projections += 1;
    }

    /// Entries across the transition groups, the class arrays and the
    /// signature interner; append-only within an epoch.
    pub fn entries(&self) -> usize {
        self.transitions + self.projections + self.signatures.len()
    }

    /// Memoized transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions
    }

    /// Projections memoized across the class arrays.
    pub fn projection_count(&self) -> usize {
        self.projections
    }

    /// Every memoized transition, in group then slot order.
    pub fn transitions(&self) -> impl Iterator<Item = RawTransition> + '_ {
        self.groups.iter().enumerate().flat_map(|(op, g)| {
            g.iter().map(move |s| RawTransition {
                op: op as u16,
                kids: [s.kid0, s.kid1],
                sig: s.sig,
                state: StateId(s.state & !DEAD_BIT),
            })
        })
    }

    /// Every memoized projection, in class then state order.
    pub fn projections(&self) -> impl Iterator<Item = RawProjection> + '_ {
        self.classes.iter().enumerate().flat_map(|(class, words)| {
            words
                .iter()
                .flat_map(|w| w.iter())
                .enumerate()
                .filter(|&(_, &p)| p != UNSEEN)
                .map(move |(full, &p)| RawProjection {
                    full: StateId(full as u32),
                    class: class as u32,
                    projection: StateId(p),
                })
        })
    }

    /// Accounted bytes of the transition groups.
    pub fn transition_bytes(&self) -> usize {
        transition_bytes(self.groups.iter().map(Slots::len))
    }

    /// Accounted bytes of the class arrays.
    pub fn projection_bytes(&self) -> usize {
        class_bytes(
            (0..self.classes.len() as u32)
                .map(|c| self.class(c).len())
                .sum(),
        )
    }

    /// The operator's group, for the copy-on-write tests.
    #[cfg(test)]
    pub fn group_storage(&self, op: u16) -> &Slots<TransSlot> {
        &self.groups[op as usize]
    }

    /// Operators with a group.
    #[cfg(test)]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashMap;
    use crate::snapshot::NO_CHILD;

    #[test]
    fn dense_lookup_agrees_with_map() {
        let mut tables = Tables::default();
        let mut map: FxHashMap<(u16, [u32; 2], u32), StateId> = FxHashMap::default();
        // A few operators with skewed group sizes, including colliding
        // leaf keys distinguished only by signature; every insert runs
        // through the in-place and the rehash paths.
        for i in 0..100u32 {
            map.insert((3, [i, i / 2], 0), StateId(i));
            tables.insert_transition(3, [i, i / 2], SigId(0), StateId(i), i % 7 == 0);
        }
        for s in 0..5u32 {
            map.insert((7, [NO_CHILD; 2], s), StateId(200 + s));
            tables.insert_transition(7, [NO_CHILD; 2], SigId(s), StateId(200 + s), false);
        }
        for (&(op, kids, sig), &v) in &map {
            assert_eq!(tables.lookup(op, kids, SigId(sig)), Some(v));
        }
        // The dead bit rides in the slot word, not in the state id.
        let enc = tables.group(3).unwrap().lookup_enc(7, 3, 0).unwrap();
        assert_eq!(enc, 7 | DEAD_BIT);
        // Unseen keys miss, including unseen operators beyond any group.
        assert_eq!(tables.lookup(3, [555, 555], SigId(0)), None);
        assert_eq!(tables.lookup(4, [0, 0], SigId(0)), None);
        assert_eq!(tables.lookup(9999, [0, 0], SigId(0)), None);
        assert_eq!(tables.lookup(7, [NO_CHILD; 2], SigId(42)), None);
        let mut raw: Vec<_> = tables
            .transitions()
            .map(|t| ((t.op, t.kids, t.sig), t.state))
            .collect();
        raw.sort_by_key(|&(k, _)| k);
        let mut expected: Vec<_> = map.into_iter().collect();
        expected.sort_by_key(|&(k, _)| k);
        assert_eq!(raw, expected);
    }

    #[test]
    fn projection_probe_agrees_with_map() {
        let mut tables = Tables::default();
        let mut map: FxHashMap<(StateId, u32), StateId> = FxHashMap::default();
        // Out-of-order state ids across a few classes: every insert
        // either regrows its array to cover a higher id or fills a hole
        // below the array's end.
        for i in 0..64u32 {
            let key = (StateId((i * 37) % 67), i % 5);
            if map.contains_key(&key) {
                continue;
            }
            map.insert(key, StateId(1000 + i));
            tables.insert_projection(key.0, key.1, StateId(1000 + i));
            for (&(full, class), &v) in &map {
                assert_eq!(tables.project(full, class), Some(v));
            }
        }
        for full in 0..70u32 {
            for class in 0..7u32 {
                let key = (StateId(full), class);
                assert_eq!(tables.project(key.0, key.1), map.get(&key).copied());
            }
        }
        assert_eq!(tables.projection_count(), map.len());
        assert_eq!(tables.projections().count(), map.len());
        for p in tables.projections() {
            assert_eq!(map[&(p.full, p.class)], p.projection);
        }
        // Each array is as long as its highest state id plus one.
        for class in 0..5u32 {
            let highest = map.keys().filter(|k| k.1 == class).map(|k| k.0 .0).max();
            assert_eq!(
                tables.class(class).len(),
                highest.map_or(0, |h| h as usize + 1)
            );
        }
    }

    #[test]
    fn shape_predicts_built_bytes() {
        let mut tables = Tables::default();
        for i in 0..33u32 {
            tables.insert_transition(2, [i, NO_CHILD], SigId(0), StateId(i), false);
            // Bytes are a function of entry counts alone at every size,
            // across every rehash.
            assert_eq!(
                tables.transition_bytes(),
                transition_bytes([0, 0, i as usize + 1].into_iter())
            );
        }
        tables.insert_transition(5, [NO_CHILD; 2], SigId(0), StateId(40), false);
        // Class arrays: state 9 under class 2 makes a 10-word array; a
        // lower id fills it in place.
        tables.insert_projection(StateId(9), 2, StateId(0));
        tables.insert_projection(StateId(3), 2, StateId(1));
        // Group slots: 33 entries -> 128 slots, 1 entry -> 2 slots; six
        // headers (operators 0..=5).
        assert_eq!(tables.group_count(), 6);
        assert_eq!(
            tables.transition_bytes(),
            6 * GROUP_HEADER_BYTES + (128 + 2) * TRANS_SLOT_BYTES
        );
        assert_eq!(tables.projection_bytes(), 10 * 4);
        let mut sigs = SignatureInterner::new();
        sigs.intern(&[RuleCost::Finite(1), RuleCost::Infinite]);
        assert_eq!(
            sigs.byte_size(),
            2 * SIG_SLOT_BYTES + 3 * SIG_OFFSET_BYTES + 2 * SIG_COST_BYTES
        );
    }

    #[test]
    fn sig_probe_agrees_with_interner() {
        let mut sigs = SignatureInterner::new();
        let mut map: FxHashMap<Vec<RuleCost>, SigId> = FxHashMap::default();
        map.insert(Vec::new(), SigId::EMPTY);
        for i in 0..40u16 {
            let v = vec![
                RuleCost::Finite(i),
                if i % 3 == 0 {
                    RuleCost::Infinite
                } else {
                    RuleCost::Finite(i / 2)
                },
            ];
            let id = sigs.intern(&v);
            assert_eq!(*map.entry(v).or_insert(id), id);
        }
        for (v, &id) in &map {
            assert_eq!(sigs.find(v), Some(id));
            assert_eq!(sigs.get(id), &v[..]);
        }
        assert_eq!(sigs.len(), map.len());
        assert_eq!(sigs.find(&[]), Some(SigId::EMPTY));
        assert_eq!(sigs.find(&[RuleCost::Finite(999)]), None);
        assert_eq!(
            sigs.find(&[
                RuleCost::Finite(1),
                RuleCost::Finite(0),
                RuleCost::Finite(0)
            ]),
            None
        );
    }

    #[test]
    fn slots_keep_load_factor_at_most_half() {
        for n in 1..200 {
            assert!(slots_for(n) >= 2 * n);
            assert!(slots_for(n).is_power_of_two());
        }
        assert_eq!(slots_for(0), 0);
    }

    #[test]
    fn inserts_copy_shared_groups_and_leave_clones_frozen() {
        let key = |i: u32| [i, NO_CHILD];
        let mut master = Tables::default();
        for i in 0..5u32 {
            master.insert_transition(1, key(i), SigId(0), StateId(i), false);
            master.insert_transition(2, key(i), SigId(0), StateId(i), false);
        }
        let published = master.clone();
        assert_eq!(published.group_storage(1).slot_count(), 16);
        // An in-place insert (5 -> 6 entries keeps 16 slots) into a
        // shared group copies that group only.
        master.insert_transition(1, key(5), SigId(0), StateId(5), false);
        assert!(!master
            .group_storage(1)
            .shares_storage_with(published.group_storage(1)));
        assert!(master
            .group_storage(2)
            .shares_storage_with(published.group_storage(2)));
        assert_eq!(published.lookup(1, key(5), SigId(0)), None);
        assert_eq!(published.transition_count(), 10);
        // Further inserts into the now-unshared group write in place.
        let storage = |t: &Tables| Arc::as_ptr(t.group_storage(1).slots.as_ref().unwrap());
        let before = storage(&master);
        master.insert_transition(1, key(6), SigId(0), StateId(6), false);
        master.insert_transition(1, key(7), SigId(0), StateId(7), false);
        assert_eq!(storage(&master), before);
        // A rehash (9 entries need 32 slots) replaces the array; the
        // published clone keeps answering from its own.
        master.insert_transition(1, key(8), SigId(0), StateId(8), false);
        assert_eq!(master.group_storage(1).slot_count(), 32);
        assert_eq!(published.group_storage(1).slot_count(), 16);
        for i in 0..9u32 {
            let expected = (i < 5).then_some(StateId(i));
            assert_eq!(published.lookup(1, key(i), SigId(0)), expected);
            assert_eq!(master.lookup(1, key(i), SigId(0)), Some(StateId(i)));
        }
    }

    #[test]
    fn class_arrays_regrow_geometrically() {
        // Covering states one by one must not copy the array per state:
        // 1000 states take at most 11 allocations (1, 2, 4, ..., 1024
        // words), and the slack stays out of the accounting.
        let mut tables = Tables::default();
        let (mut allocations, mut at) = (0, std::ptr::null());
        for i in 0..1000u32 {
            tables.insert_projection(StateId(i), 0, StateId(i));
            if tables.words(0).as_ptr() != at {
                (allocations, at) = (allocations + 1, tables.words(0).as_ptr());
            }
        }
        assert!(allocations <= 11, "{allocations} allocations");
        assert_eq!(tables.words(0).len(), 1024);
        assert_eq!(tables.class(0).len(), 1000);
        assert_eq!(tables.projection_bytes(), class_bytes(1000));
    }

    #[test]
    fn projections_copy_shared_class_arrays_and_leave_clones_frozen() {
        let mut master = Tables::default();
        // Classes 1 and 2 cover the even states below 8.
        for i in (0..8u32).step_by(2) {
            master.insert_projection(StateId(i), 1, StateId(i));
            master.insert_projection(StateId(i), 2, StateId(i));
        }
        let published = master.clone();
        let storage = |t: &Tables, class| t.class(class).as_ptr();
        // Filling a hole of a shared array copies that array only.
        master.insert_projection(StateId(3), 1, StateId(3));
        assert_ne!(storage(&master, 1), storage(&published, 1));
        assert_eq!(storage(&master, 2), storage(&published, 2));
        assert_eq!(published.projection_count(), 8);
        // Further writes into the now-unshared array stay in place.
        let before = storage(&master, 1);
        master.insert_projection(StateId(5), 1, StateId(5));
        assert_eq!(storage(&master, 1), before);
        // Covering a higher state regrows the array; the published clone
        // keeps answering from its own.
        master.insert_projection(StateId(9), 2, StateId(9));
        assert_eq!((master.class(2).len(), published.class(2).len()), (10, 7));
        for i in 0..10u32 {
            let old = (i % 2 == 0 && i < 8).then_some(StateId(i));
            assert_eq!(published.project(StateId(i), 1), old);
            assert_eq!(published.project(StateId(i), 2), old);
            let grown = [3, 5].contains(&i).then_some(StateId(i));
            assert_eq!(master.project(StateId(i), 1), old.or(grown));
        }
        assert_eq!(master.project(StateId(9), 2), Some(StateId(9)));
    }
}
