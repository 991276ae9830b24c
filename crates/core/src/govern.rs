//! Memory governance for on-demand automata: byte accounting, budgets,
//! and heat-guided table compaction.
//!
//! The on-demand automaton trades the offline table-size explosion for
//! tables that grow with the traffic actually seen — which in a
//! long-running service still means *unbounded* growth under adversarial
//! or churny workloads (every fresh dynamic-cost signature mints new
//! transitions forever). The pressure valve the automaton shipped with,
//! [`BudgetPolicy::Flush`](crate::BudgetPolicy), throws away every state
//! — hot ones included — and sends the service back to cold-start miss
//! rates. This module is the surgical alternative:
//!
//! * **Accounting** — [`ComponentBytes`] breaks an automaton's footprint
//!   down per component (state arena, projection arena, transition
//!   groups, projection table, signature interner), computed identically
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
//!   across the transition groups, projection table and signature
//!   interner. Everything evicted is merely forgotten memoization: a
//!   future miss recomputes it, so labelings stay bit-identical.
//! * **Budgets** — [`MemoryBudget`] names a byte ceiling plus the
//!   [`PressureAction`] to take when it is crossed; the selection
//!   service enforces one per target in the worker maintenance quanta
//!   between jobs
//!   ([`SharedOnDemand::run_maintenance`](crate::SharedOnDemand::run_maintenance)),
//!   and [`BudgetPolicy::Compact`](crate::BudgetPolicy) wires the same
//!   mechanism into the automaton's own grow path. Both relieve the
//!   tables through one flush-or-compact step.
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
use crate::snapshot::{MAX_ARITY, NO_CHILD};
use crate::state::{StateData, StateId};

/// Fixed per-entry overhead charged for a state: the arena's `Arc` slot,
/// the refcount block, and the hash-consing index entry.
const STATE_ENTRY_OVERHEAD: usize = 48;

/// Per-component byte accounting of an automaton's tables.
///
/// The numbers are deterministic functions of the table *contents*
/// (entry counts and state widths), not of allocator capacity: every
/// slot table holds exactly `slots_for(entries)` slots (see `dense.rs`),
/// so exporting and re-importing a snapshot reports identical bytes, and
/// a budget compares the same way against a live master, a published
/// snapshot, or a `tables stats` inspection of a file. A master and the
/// snapshots it published share their slot arrays copy-on-write, so each
/// reports the footprint of the tables it reads, not of the copies made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentBytes {
    /// The hash-consed state arena.
    pub states: usize,
    /// The projected-state arena (projection mode only).
    pub projections: usize,
    /// The per-operator transition groups: one header per operator id
    /// up to the highest one with a transition, plus the open-addressed
    /// slots.
    pub transitions: usize,
    /// The `(state, op, position) -> projection` slot table.
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
    /// Drop every state, transition and signature (cold restart — the
    /// behavior of [`BudgetPolicy::Flush`](crate::BudgetPolicy)).
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
/// enforces it; see
/// [`SharedOnDemand::run_maintenance`](crate::SharedOnDemand::run_maintenance)
/// and the selection service's per-target budgets.
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

/// The byte target a `Compact` policy rebuilds down to.
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
    pub project_children: bool,
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

fn plan_retention(view: &TableView<'_>, keep_state: &[bool]) -> RetentionPlan {
    // Projections stay exactly when a retained full state still maps to
    // them through the projection cache.
    let mut keep_proj = vec![false; view.projections.len()];
    let mut cache_kept = 0usize;
    for p in view.tables.projections() {
        if keep_state[p.full.0 as usize] {
            keep_proj[p.projection.0 as usize] = true;
            cache_kept += 1;
        }
    }
    // A transition survives when its target and every child id (full
    // state ids, or projection ids in projection mode) survive.
    let kid_kept = |kid: u32| -> bool {
        if kid == NO_CHILD {
            return true;
        }
        if view.project_children {
            keep_proj[kid as usize]
        } else {
            keep_state[kid as usize]
        }
    };
    let signatures = &view.tables.signatures;
    let mut keep_sig = vec![false; signatures.len()];
    keep_sig[SigId::EMPTY.0 as usize] = true;
    let mut trans_kept = 0usize;
    // Per-operator retained counts: transition groups are sized per
    // operator, so predicting their post-compaction footprint needs the
    // retained key set broken down by op.
    let mut kept_per_op: Vec<usize> = Vec::new();
    for t in view.tables.transitions() {
        if keep_state[t.state.0 as usize] && t.kids.iter().all(|&k| kid_kept(k)) {
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
                .zip(keep_state)
                .filter_map(|(s, &keep)| keep.then_some(s)),
        ),
        projections: arena_bytes(
            view.projections
                .iter()
                .zip(&keep_proj)
                .filter_map(|(s, &keep)| keep.then_some(s)),
        ),
        transitions: dense::transition_bytes(kept_per_op.into_iter()),
        projection_cache: dense::projection_bytes(cache_kept),
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

fn membership(order: &[u32], k: usize, len: usize) -> Vec<bool> {
    let mut keep = vec![false; len];
    for &id in &order[..k] {
        keep[id as usize] = true;
    }
    keep
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

    // Largest k whose rebuilt tables fit the target (monotonic in k).
    let fits = |k: usize| -> bool {
        let keep = membership(&order, k, n);
        plan_retention(view, &keep).bytes.total() <= target_bytes
    };
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

    let keep_state = membership(&order, k, n);
    let plan = plan_retention(view, &keep_state);

    // Remaps: retained states ranked by heat order; projections and
    // signatures keep their relative order (SigId::EMPTY stays 0).
    let mut state_remap: Vec<u32> = vec![NO_CHILD; n];
    let mut states: Vec<Arc<StateData>> = Vec::with_capacity(k);
    let mut new_heat: Vec<u64> = Vec::with_capacity(k);
    for &old in &order[..k] {
        state_remap[old as usize] = states.len() as u32;
        states.push(Arc::clone(&view.states[old as usize]));
        // Carry heat across the epoch, halved, so standing heat decays
        // and a once-hot state must keep earning its place.
        new_heat.push(heat.get(old as usize).copied().unwrap_or(0) / 2);
    }
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

    let kid_remap = |kid: u32| -> u32 {
        if kid == NO_CHILD {
            NO_CHILD
        } else if view.project_children {
            proj_remap[kid as usize]
        } else {
            state_remap[kid as usize]
        }
    };
    for t in view.tables.transitions() {
        let new_target = state_remap[t.state.0 as usize];
        if new_target == NO_CHILD {
            continue;
        }
        let mut kids = [NO_CHILD; MAX_ARITY];
        let mut alive = true;
        for (slot, &kid) in kids.iter_mut().zip(&t.kids) {
            let mapped = kid_remap(kid);
            if kid != NO_CHILD && mapped == NO_CHILD {
                alive = false;
                break;
            }
            *slot = mapped;
        }
        if !alive {
            continue;
        }
        tables.insert_transition(
            t.op,
            kids,
            SigId(sig_remap[t.sig as usize]),
            StateId(new_target),
            view.states[t.state.0 as usize].is_dead(),
        );
    }
    for p in view.tables.projections() {
        let new_full = state_remap[p.full.0 as usize];
        if new_full == NO_CHILD {
            continue;
        }
        let new_proj = proj_remap[p.projection.0 as usize];
        debug_assert_ne!(
            new_proj, NO_CHILD,
            "retained cache entry lost its projection"
        );
        tables.insert_projection(StateId(new_full), p.op, p.pos, StateId(new_proj));
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
