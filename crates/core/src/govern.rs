//! Memory governance for on-demand automata: byte accounting, budgets,
//! and heat-guided table compaction.
//!
//! The on-demand automaton trades the offline table-size explosion for
//! tables that grow with the traffic actually seen — which in a
//! long-running service still means *unbounded* growth under adversarial
//! or churny workloads (every fresh dynamic-cost signature mints new
//! transitions forever). A flush ([`PressureAction::Flush`]) bounds it by
//! throwing away every state — hot ones included — and sends the service
//! back to cold-start miss rates. This module adds the surgical
//! alternative:
//!
//! * **Accounting** — [`ComponentBytes`] breaks an automaton's footprint
//!   down per component (state arena, projection arena, transition
//!   groups, class arrays, signature interner), computed identically
//!   for live masters, published snapshots and persisted table files, so
//!   a budget means the same thing everywhere.
//! * **Heat** — the labeling hot paths keep cheap per-state touch
//!   counters (plain adds on the single-threaded master, relaxed atomics
//!   on the published snapshot for the lock-free
//!   [`SharedOnDemand`](crate::SharedOnDemand) fast path, merged once
//!   per forest). Heat is scoped to an epoch: a flush drops it, a
//!   compaction carries it across — halved, so stale heat decays.
//! * **Compaction** —
//!   [`OnDemandAutomaton::compact`](crate::OnDemandAutomaton::compact)
//!   rebuilds the tables retaining only the hottest states that fit a
//!   byte target, remapping `StateId`s, projection ids and `SigId`s
//!   across the transition groups, class arrays and signature
//!   interner. Everything evicted is merely forgotten memoization: a
//!   future miss recomputes it, so labelings stay bit-identical.
//! * **Budgets** — [`MemoryBudget`], a byte ceiling plus the
//!   [`PressureAction`] to take when it is crossed, is the one type that
//!   bounds an automaton. It has two readers: the grow path, through
//!   [`OnDemandConfig::memory_budget`](crate::OnDemandConfig::memory_budget),
//!   and the selection service, which enforces its server-wide budget in
//!   the worker maintenance quanta between jobs
//!   ([`SharedOnDemand::run_maintenance`](crate::SharedOnDemand::run_maintenance)).
//!   Both relieve the tables through one flush-or-compact step.
//!
//! The lifecycle, end to end: traffic grows the tables → touch counters
//! accumulate per epoch → the budget trips → a single-writer compaction
//! pass rebuilds a smaller snapshot in a **new epoch** and publishes it
//! through the same epoch/hazard-pointer swap a flush uses — in-flight
//! readers finish against their frozen snapshot, pinned labelings keep
//! their epoch's tables alive, and the warm working set survives.

use std::sync::Arc;

use crate::dense::{self, Tables};
use crate::signature::SigId;
use crate::snapshot::NO_CHILD;
use crate::state::{StateData, StateId};

/// Fixed per-entry overhead charged for a state: the arena's `Arc` slot,
/// the refcount block, and the hash-consing index entry.
const STATE_ENTRY_OVERHEAD: usize = 48;

/// Per-component byte accounting of an automaton's tables.
///
/// The numbers are deterministic functions of the table *contents*
/// (entry counts, state widths and the highest state each class array
/// covers), not of allocator capacity: every slot table holds exactly
/// `slots_for(entries)` slots (see `dense.rs`), so exporting and
/// re-importing a snapshot reports identical bytes, and a budget
/// compares the same way against a live master, a published
/// snapshot, or a `tables stats` inspection of a file. A master and the
/// snapshots it published share their slot arrays copy-on-write, so each
/// reports the footprint of the tables it reads, not of the copies made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentBytes {
    /// The hash-consed state arena.
    pub states: usize,
    /// The projected-state arena.
    pub projections: usize,
    /// The per-operator transition groups: one header per operator id
    /// up to the highest one with a transition, plus the open-addressed
    /// slots.
    pub transitions: usize,
    /// The per-operand-class projection arrays: one word per state up
    /// to the highest state each array covers.
    pub projection_cache: usize,
    /// The dynamic-cost signature interner: its slots, offsets and
    /// flattened cost words.
    pub signatures: usize,
}

impl ComponentBytes {
    /// Total accounted bytes across all components.
    pub fn total(&self) -> usize {
        self.states + self.projections + self.transitions + self.projection_cache + self.signatures
    }
}

/// What to do when a [`MemoryBudget`] is crossed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PressureAction {
    /// Drop every state, projection, transition and signature: bounded
    /// memory at the price of re-warming from cold.
    Flush,
    /// Compact: retain the hottest states that fit
    /// `retain_fraction * byte_budget` bytes and evict the rest.
    Compact {
        /// Fraction of the byte budget the compacted tables may occupy,
        /// leaving `1 - retain_fraction` headroom for regrowth before
        /// the next trigger. Clamped to `0.05..=1.0`.
        retain_fraction: f32,
    },
}

impl PressureAction {
    /// The flight-recorder event kind this action records when telemetry
    /// is attached (see [`crate::telemetry`]).
    #[must_use]
    pub fn event_kind(&self) -> crate::telemetry::EventKind {
        match self {
            PressureAction::Flush => crate::telemetry::EventKind::Flush,
            PressureAction::Compact { .. } => crate::telemetry::EventKind::Compact,
        }
    }
}

/// A byte ceiling for one automaton's tables plus the action that
/// relieves them: the one type that bounds an on-demand automaton, read
/// by its grow path
/// ([`OnDemandConfig::memory_budget`](crate::OnDemandConfig::memory_budget))
/// and by the selection service's maintenance quanta
/// ([`SharedOnDemand::run_maintenance`](crate::SharedOnDemand::run_maintenance)).
///
/// # Epoch semantics
///
/// Either action starts a new **epoch** (see
/// [`OnDemandAutomaton::epoch`](crate::OnDemandAutomaton::epoch)): a
/// flush replaces the state and projection arenas, class arrays,
/// transition groups and signature interner, and a compaction rebuilds
/// them under remapped ids, so state ids from different epochs are
/// unrelated values. The concurrent
/// [`SharedOnDemand`](crate::SharedOnDemand) handles this without ever
/// invalidating in-flight readers:
///
/// * every published [`AutomatonSnapshot`](crate::AutomatonSnapshot)
///   carries its epoch, and a replaced snapshot stays alive exactly as
///   long as something can still reference it — a reader that loaded it
///   before the relief keeps labeling against its frozen tables, and a
///   pinned labeling keeps its epoch's tables alive indefinitely;
///   replaced snapshots nothing references are dropped on the next
///   publication;
/// * a reader entering the writer lock compares its snapshot's epoch
///   with the master's and restarts the forest from scratch on a
///   mismatch (labelings never mix state ids across epochs);
/// * callers that hold labelings across forests should use
///   [`SharedOnDemand::label_forest_pinned`](crate::SharedOnDemand::label_forest_pinned),
///   which returns the labeling together with the exact snapshot it
///   refers to.
///
/// A compaction keeps the warm states, so steady-state miss rates stay
/// close to the unbounded automaton's; a flush re-warms from cold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryBudget {
    /// Accounted bytes ([`ComponentBytes::total`]) above which the
    /// action fires.
    pub byte_budget: usize,
    /// What enforcement does.
    pub action: PressureAction,
}

impl MemoryBudget {
    /// A compacting budget with the given retain fraction.
    pub fn compact(byte_budget: usize, retain_fraction: f32) -> Self {
        MemoryBudget {
            byte_budget,
            action: PressureAction::Compact { retain_fraction },
        }
    }

    /// A flushing budget (bounded memory at cold-restart miss rates).
    pub fn flush(byte_budget: usize) -> Self {
        MemoryBudget {
            byte_budget,
            action: PressureAction::Flush,
        }
    }
}

/// What one budget enforcement did; reported per target by the
/// selection service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressureEvent {
    /// The action that fired.
    pub action: PressureAction,
    /// Accounted bytes when the budget tripped.
    pub bytes_before: usize,
    /// Accounted bytes after the action.
    pub bytes_after: usize,
}

/// The outcome of one compaction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// States carried into the new epoch.
    pub retained_states: usize,
    /// States evicted (their transitions and signatures go with them).
    pub evicted_states: usize,
    /// Transitions carried over (every endpoint retained).
    pub retained_transitions: usize,
    /// Transitions dropped.
    pub evicted_transitions: usize,
    /// Accounted bytes before the pass.
    pub bytes_before: usize,
    /// Accounted bytes after the pass (at most the requested target).
    pub bytes_after: usize,
}

/// The byte target a compacting budget rebuilds down to.
pub(crate) fn compact_target_bytes(byte_budget: usize, retain_fraction: f32) -> usize {
    let fraction = if retain_fraction.is_finite() {
        retain_fraction.clamp(0.05, 1.0)
    } else {
        0.5
    };
    (byte_budget as f64 * fraction as f64) as usize
}

/// A borrowed view of one master automaton's tables, for compaction.
pub(crate) struct TableView<'a> {
    pub states: &'a [Arc<StateData>],
    pub projections: &'a [Arc<StateData>],
    pub tables: &'a Tables,
}

/// Accounted bytes of a state arena.
fn arena_bytes<'a>(arena: impl Iterator<Item = &'a Arc<StateData>>) -> usize {
    arena.map(|s| s.byte_size() + STATE_ENTRY_OVERHEAD).sum()
}

/// Accounted bytes of a full table set — master automata, snapshots and
/// the persist inspector all account this way.
pub(crate) fn account_tables(
    states: &[Arc<StateData>],
    projections: &[Arc<StateData>],
    tables: &Tables,
) -> ComponentBytes {
    ComponentBytes {
        states: arena_bytes(states.iter()),
        projections: arena_bytes(projections.iter()),
        transitions: tables.transition_bytes(),
        projection_cache: tables.projection_bytes(),
        signatures: tables.signatures.byte_size(),
    }
}

/// The rebuilt tables a compaction pass produces; ids are densely
/// renumbered with the hottest states first.
pub(crate) struct CompactedTables {
    pub states: Vec<Arc<StateData>>,
    pub projections: Vec<Arc<StateData>>,
    pub tables: Tables,
    /// Heat carried into the new epoch (indexed by new id, halved).
    pub heat: Vec<u64>,
    pub stats: CompactionStats,
}

/// Everything derivable from a candidate retained-state set in one pass:
/// which projections and signatures stay reachable, and the accounted
/// bytes of the rebuilt tables.
struct RetentionPlan {
    keep_proj: Vec<bool>,
    keep_sig: Vec<bool>,
    bytes: ComponentBytes,
    retained_transitions: usize,
}

/// Plans keeping the `k` states of lowest `rank` (a state's position in
/// the eviction order, which is also its id after compaction).
fn plan_retention(view: &TableView<'_>, rank: &[u32], k: usize) -> RetentionPlan {
    let kept = |state: StateId| (rank[state.0 as usize] as usize) < k;
    // Projections stay exactly when a retained full state still maps to
    // them through a class array, which then covers that state's new id.
    let mut keep_proj = vec![false; view.projections.len()];
    let mut class_len: Vec<usize> = Vec::new();
    for p in view.tables.projections() {
        if kept(p.full) {
            keep_proj[p.projection.0 as usize] = true;
            let class = p.class as usize;
            if class_len.len() <= class {
                class_len.resize(class + 1, 0);
            }
            class_len[class] = class_len[class].max(rank[p.full.0 as usize] as usize + 1);
        }
    }
    // A transition survives when its target and every child projection
    // survive.
    let kid_kept = |kid: u32| kid == NO_CHILD || keep_proj[kid as usize];
    let signatures = &view.tables.signatures;
    let mut keep_sig = vec![false; signatures.len()];
    keep_sig[SigId::EMPTY.0 as usize] = true;
    let mut trans_kept = 0usize;
    // Per-operator retained counts: transition groups are sized per
    // operator, so predicting their post-compaction footprint needs the
    // retained key set broken down by op.
    let mut kept_per_op: Vec<usize> = Vec::new();
    for t in view.tables.transitions() {
        if kept(t.state) && t.kids.iter().all(|&kid| kid_kept(kid)) {
            keep_sig[t.sig as usize] = true;
            trans_kept += 1;
            let op = t.op as usize;
            if kept_per_op.len() <= op {
                kept_per_op.resize(op + 1, 0);
            }
            kept_per_op[op] += 1;
        }
    }
    let bytes = ComponentBytes {
        states: arena_bytes(
            view.states
                .iter()
                .zip(rank)
                .filter_map(|(s, &r)| ((r as usize) < k).then_some(s)),
        ),
        projections: arena_bytes(
            view.projections
                .iter()
                .zip(&keep_proj)
                .filter_map(|(s, &keep)| keep.then_some(s)),
        ),
        transitions: dense::transition_bytes(kept_per_op.into_iter()),
        projection_cache: dense::class_bytes(class_len.iter().sum()),
        signatures: dense::signature_bytes(
            keep_sig.iter().filter(|&&k| k).count(),
            signatures
                .iter()
                .zip(&keep_sig)
                .filter(|(_, &keep)| keep)
                .map(|(sig, _)| sig.len())
                .sum(),
        ),
    };
    RetentionPlan {
        keep_proj,
        keep_sig,
        bytes,
        retained_transitions: trans_kept,
    }
}

/// Rebuilds the tables keeping only the hottest states whose rebuilt
/// footprint fits `target_bytes`.
///
/// Eviction order is deterministic: states sorted by `(heat desc, id
/// asc)`; the retained count is the largest prefix of that order whose
/// rebuilt tables (including only the transitions, projections and
/// signatures still reachable from the prefix) fit the target — found by
/// binary search, since retained bytes grow monotonically with the
/// prefix. Retained states get new ids in heat order, so the hottest
/// states end up densest.
pub(crate) fn compact_tables(
    view: &TableView<'_>,
    heat: &[u64],
    target_bytes: usize,
) -> CompactedTables {
    let n = view.states.len();
    let bytes_before = account_tables(view.states, view.projections, view.tables).total();

    // Heat-descending order, id-ascending for determinism on ties.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&id| {
        (
            std::cmp::Reverse(heat.get(id as usize).copied().unwrap_or(0)),
            id,
        )
    });

    // A state's rank in that order is its id if it is retained.
    let mut rank = vec![0u32; n];
    for (r, &id) in order.iter().enumerate() {
        rank[id as usize] = r as u32;
    }

    // Largest k whose rebuilt tables fit the target (monotonic in k).
    let fits = |k: usize| plan_retention(view, &rank, k).bytes.total() <= target_bytes;
    let k = if fits(n) {
        n
    } else {
        // Invariant: fits(lo), !fits(hi).
        let (mut lo, mut hi) = (0usize, n);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    };

    let plan = plan_retention(view, &rank, k);

    // Remaps: retained states take their rank as id; projections and
    // signatures keep their relative order (SigId::EMPTY stays 0).
    let state_remap = |old: StateId| Some(rank[old.0 as usize]).filter(|&r| (r as usize) < k);
    let retained = &order[..k];
    let states: Vec<Arc<StateData>> = retained
        .iter()
        .map(|&old| Arc::clone(&view.states[old as usize]))
        .collect();
    // Carry heat across the epoch, halved, so standing heat decays and
    // a once-hot state must keep earning its place.
    let new_heat: Vec<u64> = retained
        .iter()
        .map(|&old| heat.get(old as usize).copied().unwrap_or(0) / 2)
        .collect();
    let mut proj_remap: Vec<u32> = vec![NO_CHILD; view.projections.len()];
    let mut projections: Vec<Arc<StateData>> = Vec::new();
    for (old, keep) in plan.keep_proj.iter().enumerate() {
        if *keep {
            proj_remap[old] = projections.len() as u32;
            projections.push(Arc::clone(&view.projections[old]));
        }
    }
    let mut tables = Tables::default();
    let old_sigs = &view.tables.signatures;
    let mut sig_remap: Vec<u32> = vec![NO_CHILD; old_sigs.len()];
    for (old, (costs, keep)) in old_sigs.iter().zip(&plan.keep_sig).enumerate() {
        if *keep {
            sig_remap[old] = tables.signatures.intern(costs).0;
        }
    }

    for t in view.tables.transitions() {
        let kids = t.kids.map(|kid| match kid {
            NO_CHILD => NO_CHILD,
            kid => proj_remap[kid as usize],
        });
        // Dropped with its target or with any child projection.
        let evicted = kids
            .iter()
            .zip(&t.kids)
            .any(|(&k, &old)| k == NO_CHILD && old != NO_CHILD);
        let Some(target) = state_remap(t.state).filter(|_| !evicted) else {
            continue;
        };
        tables.insert_transition(
            t.op,
            kids,
            SigId(sig_remap[t.sig as usize]),
            StateId(target),
            view.states[t.state.0 as usize].is_dead(),
        );
    }
    for p in view.tables.projections() {
        if let Some(full) = state_remap(p.full) {
            let projection = StateId(proj_remap[p.projection.0 as usize]);
            tables.insert_projection(StateId(full), p.class, projection);
        }
    }

    let stats = CompactionStats {
        retained_states: k,
        evicted_states: n - k,
        retained_transitions: plan.retained_transitions,
        evicted_transitions: view.tables.transition_count() - plan.retained_transitions,
        bytes_before,
        bytes_after: plan.bytes.total(),
    };
    debug_assert_eq!(
        account_tables(&states, &projections, &tables),
        plan.bytes,
        "compaction must build exactly the tables it planned"
    );
    CompactedTables {
        states,
        projections,
        tables,
        heat: new_heat,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_bytes_total_sums_fields() {
        let b = ComponentBytes {
            states: 1,
            projections: 2,
            transitions: 3,
            projection_cache: 4,
            signatures: 5,
        };
        assert_eq!(b.total(), 15);
    }

    #[test]
    fn compact_target_clamps_fraction() {
        assert_eq!(compact_target_bytes(1000, 0.5), 500);
        assert_eq!(compact_target_bytes(1000, 2.0), 1000);
        assert_eq!(compact_target_bytes(1000, -1.0), 50);
        assert_eq!(compact_target_bytes(1000, f32::NAN), 500);
    }

    #[test]
    fn memory_budget_constructors() {
        let c = MemoryBudget::compact(4096, 0.5);
        assert_eq!(c.byte_budget, 4096);
        assert!(matches!(c.action, PressureAction::Compact { .. }));
        let f = MemoryBudget::flush(4096);
        assert!(matches!(f.action, PressureAction::Flush));
    }
}
