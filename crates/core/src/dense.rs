//! The automaton's tables: flat, open-addressed slot tables shared
//! copy-on-write by the master automaton and its snapshots.
//!
//! The paper's bet is that the warm path is a *pure table lookup*; this
//! module is the one table layout that makes the lookup look like one to
//! the hardware, and it is the only layout the tables have:
//!
//! * **Per-operator transition groups** — all transitions of one
//!   operator live in their own open-addressed, power-of-two slot array
//!   (load factor at most one half, fixed hash seed). Each group records
//!   the longest displacement any of its keys needed, so a lookup is one
//!   bounded linear probe: typically the home slot, worst case
//!   `probe_cap + 1` adjacent 16-byte slots. The target's deadness is
//!   folded into the slot word ([`DEAD_BIT`]) when the transition is
//!   inserted, so the warm walk's `NoCover` check needs no further load.
//! * **Projection table** — in projection mode the child-state →
//!   projection resolution is one probe of a flat `(packed key, value)`
//!   table.
//! * **Signature table** — the dynamic-cost signature interner
//!   ([`SignatureInterner`](crate::signature::SignatureInterner)) is a
//!   slot table of `(hash, id)` pairs over flattened cost vectors.
//!
//! Every slot array sits behind an `Arc`. The master inserts in place
//! when it owns an array outright and copies it first when a published
//! snapshot still shares it; an insert that would push an array's load
//! past one half rehashes that array alone into one twice the size.
//! Publication ([`OnDemandAutomaton::snapshot`](crate::OnDemandAutomaton::snapshot))
//! therefore clones array *pointers*, never slots — O(groups) for the
//! tables — and the copying happens in the grow path, once per
//! publication, for the arrays a forest actually grew.
//!
//! Slot counts are always [`slots_for`] of the entry count, so the
//! accounted bytes ([`transition_bytes`], [`projection_bytes`],
//! [`signature_bytes`]) are a pure function of entry counts: a live
//! master, its snapshots and a persisted file of the same tables report
//! the same figure, and compaction can predict the footprint of tables
//! it has not built yet.

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
/// Sentinel for an empty projection slot (`key` field). No packed key
/// can collide with it: [`pack_proj`] leaves the top byte clear.
const EMPTY_PROJ_KEY: u64 = u64::MAX;
/// Sentinel for an empty signature slot (`id` field); real signature
/// ids are interner indices, bounded far below `u32::MAX`.
const EMPTY_SIG_ID: u32 = u32::MAX;

/// Accounted bytes of one transition slot: `{kid0, kid1, sig, state}`.
const TRANS_SLOT_BYTES: usize = std::mem::size_of::<TransSlot>();
/// Accounted bytes of one projection slot: packed key + value + padding.
const PROJ_SLOT_BYTES: usize = std::mem::size_of::<ProjSlot>();
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

/// Accounted bytes of a projection table holding `n` entries.
pub(crate) fn projection_bytes(n: usize) -> usize {
    slots_for(n) * PROJ_SLOT_BYTES
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

/// One projection slot: `(full state, op, position)` packed into a
/// `u64`, mapping to a projection id.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProjSlot {
    key: u64,
    val: u32,
}

impl Slot for ProjSlot {
    const EMPTY: Self = ProjSlot {
        key: EMPTY_PROJ_KEY,
        val: 0,
    };
    #[inline(always)]
    fn is_empty(&self) -> bool {
        self.key == EMPTY_PROJ_KEY
    }
    fn hash(&self) -> u64 {
        mix_proj(self.key)
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

#[inline(always)]
fn mix_proj(key: u64) -> u64 {
    let mut x = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

#[inline(always)]
fn pack_proj(full: u32, op: u16, pos: u8) -> u64 {
    ((full as u64) << 24) | ((op as u64) << 8) | (pos as u64)
}

/// The transition groups, projection table and signature interner of
/// one automaton; cloning them is publication (see the
/// [module docs](self)).
#[derive(Debug, Clone, Default)]
pub(crate) struct Tables {
    /// Transition groups indexed by operator id, up to the highest
    /// operator with a transition.
    groups: Vec<Slots<TransSlot>>,
    /// Total transitions across the groups.
    transitions: usize,
    projections: Slots<ProjSlot>,
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

    /// One bounded probe of the projection table.
    #[inline(always)]
    pub fn project(&self, full: StateId, op: u16, pos: u8) -> Option<StateId> {
        let key = pack_proj(full.0, op, pos);
        self.projections
            .find(mix_proj(key), |s| s.key == key)
            .map(|s| StateId(s.val))
    }

    /// Memoizes an absent projection-cache entry.
    pub fn insert_projection(&mut self, full: StateId, op: u16, pos: u8, projection: StateId) {
        debug_assert!(
            self.project(full, op, pos).is_none(),
            "duplicate projection"
        );
        self.projections.insert(ProjSlot {
            key: pack_proj(full.0, op, pos),
            val: projection.0,
        });
    }

    /// Entries across the transition groups, the projection table and
    /// the signature interner; append-only within an epoch.
    pub fn entries(&self) -> usize {
        self.transitions + self.projections.len() + self.signatures.len()
    }

    /// Memoized transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions
    }

    /// Projection-cache entries.
    pub fn projection_count(&self) -> usize {
        self.projections.len()
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

    /// Every projection-cache entry, in slot order.
    pub fn projections(&self) -> impl Iterator<Item = RawProjection> + '_ {
        self.projections.iter().map(|s| RawProjection {
            full: StateId((s.key >> 24) as u32),
            op: (s.key >> 8) as u16,
            pos: s.key as u8,
            projection: StateId(s.val),
        })
    }

    /// Accounted bytes of the transition groups.
    pub fn transition_bytes(&self) -> usize {
        transition_bytes(self.groups.iter().map(Slots::len))
    }

    /// Accounted bytes of the projection table.
    pub fn projection_bytes(&self) -> usize {
        projection_bytes(self.projections.len())
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
        let mut map: FxHashMap<(StateId, u16, u8), StateId> = FxHashMap::default();
        for i in 0..64u32 {
            let key = (StateId(i), (i % 7) as u16, (i % 2) as u8);
            map.insert(key, StateId(1000 + i));
            tables.insert_projection(key.0, key.1, key.2, StateId(1000 + i));
        }
        for (&(full, op, pos), &v) in &map {
            assert_eq!(tables.project(full, op, pos), Some(v));
        }
        assert_eq!(tables.project(StateId(64), 0, 0), None);
        assert_eq!(
            tables.project(StateId(0), 6, 1),
            map.get(&(StateId(0), 6, 1)).copied()
        );
        assert_eq!(tables.projections().count(), map.len());
        for p in tables.projections() {
            assert_eq!(map[&(p.full, p.op, p.pos)], p.projection);
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
        tables.insert_projection(StateId(1), 2, 0, StateId(0));
        // Group slots: 33 entries -> 128 slots, 1 entry -> 2 slots; six
        // headers (operators 0..=5).
        assert_eq!(tables.group_count(), 6);
        assert_eq!(
            tables.transition_bytes(),
            6 * GROUP_HEADER_BYTES + (128 + 2) * TRANS_SLOT_BYTES
        );
        assert_eq!(tables.projection_bytes(), 2 * PROJ_SLOT_BYTES);
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
}
