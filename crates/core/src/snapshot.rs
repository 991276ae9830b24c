//! Immutable, shareable snapshots of an on-demand automaton.
//!
//! The concurrent labeling core ([`SharedOnDemand`](crate::SharedOnDemand))
//! separates the automaton into two halves:
//!
//! * an **immutable snapshot** (this module): state and projection
//!   arenas, class arrays, transition groups and signature interner,
//!   frozen at a point
//!   in time and published behind an atomically swappable pointer. Reader
//!   threads label whole forests against a snapshot with *zero* locks and
//!   zero shared-memory writes — every operation is a read of immutable
//!   data;
//! * a **single-writer grow path**: the mutable master automaton behind a
//!   mutex, entered only when a forest contains a transition the current
//!   snapshot has not seen. The writer computes the missing states and
//!   publishes a fresh snapshot.
//!
//! Master and snapshot keep their tables in one layout, the arrays of
//! [`crate::dense`], and share them copy-on-write: taking a snapshot
//! clones array pointers and the arenas' `Arc`s, and the master copies an
//! array only when it next grows one a snapshot still holds.
//!
//! Because the master automaton is append-only within an epoch (state,
//! transition and signature ids are never reassigned until a flush or a
//! heat-guided [compaction](crate::govern) starts the next epoch), any
//! prefix of a forest labeled against an older snapshot remains valid
//! against the newer master — the slow path can resume exactly where the
//! fast path stopped.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use odburg_grammar::{CostExpr, DynCostFn, NormalGrammar, NormalRuleId, NtId, RuleCost};
use odburg_ir::{Forest, NodeId, Op, OpId, NUM_OPS};

use crate::counters::WorkCounters;
use crate::dense::{self, Tables};
use crate::govern::{self, ComponentBytes};
use crate::label::StateLookup;
use crate::ondemand::OnDemandConfig;
use crate::signature::SigId;
use crate::state::{StateData, StateId};

pub(crate) const NO_CHILD: u32 = u32::MAX;

/// The maximum operator arity a transition key can represent.
///
/// **Invariant:** every [`Op`] in the IR has `arity() <= MAX_ARITY`.
/// A transition key — `(operator, child states, dynamic-cost
/// signature)`, the lookup the paper performs per node — holds a fixed
/// array of this many child ids (unused slots are [`NO_CHILD`]), and both
/// the lookup and the insert paths take exactly `op.arity()` child
/// states: an operator with more children would silently truncate the
/// key and alias unrelated transitions. The labeling entry points
/// `debug_assert!` this bound, and
/// `snapshot::tests::all_ops_fit_the_transition_key` locks it in against
/// future IR extensions (growing the kid array is the fix if one ever
/// exceeds it).
pub(crate) const MAX_ARITY: usize = 2;

/// The `(epoch, entries)` freshness key of a table set, where `entries`
/// totals the states, projected states, transitions, projections and
/// signatures. Within an epoch every table is append-only, so the key
/// strictly increases with every table that grew; across epochs the
/// epoch counter decides. Replicas fence installs on it, and the grow
/// path skips its byte check when a forest left it unchanged.
pub(crate) fn freshness(
    epoch: u64,
    states: usize,
    projections: usize,
    tables: &Tables,
) -> (u64, usize) {
    (epoch, states + projections + tables.entries())
}

/// Size statistics of a snapshot, including the per-component byte
/// accounting the memory governor budgets against (see
/// [`govern`](crate::govern)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Epoch the snapshot belongs to (see [`AutomatonSnapshot::epoch`]).
    pub epoch: u64,
    /// States in the arena.
    pub states: usize,
    /// Projected (representer) states.
    pub projections: usize,
    /// Memoized transitions.
    pub transitions: usize,
    /// `(state, operand class)` projections memoized in the class arrays.
    pub cached_projections: usize,
    /// Interned dynamic-cost signatures.
    pub signatures: usize,
    /// Accounted bytes per component.
    pub bytes: ComponentBytes,
}

/// An immutable copy of an on-demand automaton's tables, safe to read
/// from any number of threads without synchronization.
///
/// Snapshots are created by
/// [`OnDemandAutomaton::snapshot`](crate::OnDemandAutomaton::snapshot)
/// and published by [`SharedOnDemand`](crate::SharedOnDemand); state ids
/// in a snapshot agree with the master automaton of the same epoch.
#[derive(Debug)]
pub struct AutomatonSnapshot {
    epoch: u64,
    grammar: Arc<NormalGrammar>,
    config: OnDemandConfig,
    states: Vec<Arc<StateData>>,
    /// The projected-state arena. Transition keys reference these ids
    /// through the class arrays, and a warm-started master needs the
    /// arena to keep interning consistently — so it is part of the
    /// snapshot and of the persisted format.
    projections: Vec<Arc<StateData>>,
    /// Class arrays, transition groups and signature interner (see
    /// [`crate::dense`]). Their arrays are shared with the master that
    /// published them, which copies an array before it next grows it, so
    /// these stay frozen.
    tables: Tables,
    /// Per-state touch counters for this epoch, bumped (relaxed) by the
    /// lock-free fast path once per forest and folded into the writer's
    /// heat at compaction time. Not part of the persisted format and
    /// not compared by [`SnapshotStats`].
    heat: Box<[AtomicU32]>,
    /// Flattened dynamic-cost dispatch, built once per master and shared
    /// (see [`DynEvalTable`]).
    dyn_eval: Arc<DynEvalTable>,
}

/// Flattened dynamic-cost dispatch: the resolved cost function of every
/// dynamic base rule, grouped by operator id, plus the dynamic chain
/// rules' functions. Built from the grammar once per master automaton
/// (or import) and shared by `Arc` with every snapshot it publishes, so
/// an eval is one sequential slice read and the indirect call itself —
/// the walk through the fat [`NormalRule`](odburg_grammar::NormalRule)
/// and [`DynCost`](odburg_grammar::DynCost) tables (two dependent cache
/// lines each) never happens per node. Constant grammar-derived
/// metadata, outside the byte accounting like the grammar `Arc` itself.
pub(crate) struct DynEvalTable {
    /// `base[op]` — cost functions of the op's dynamic base rules, in
    /// the same order `dynamic_base_rules` reports them.
    base: Box<[Box<[DynCostFn]>]>,
    /// Cost functions of the dynamic chain rules, in order.
    chains: Box<[DynCostFn]>,
}

impl std::fmt::Debug for DynEvalTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynEvalTable")
            .field("ops", &self.base.iter().filter(|b| !b.is_empty()).count())
            .field("chains", &self.chains.len())
            .finish_non_exhaustive()
    }
}

impl DynEvalTable {
    pub(crate) fn build(grammar: &NormalGrammar) -> Self {
        let resolve = |&r: &NormalRuleId| -> DynCostFn {
            match grammar.rule(r).cost {
                CostExpr::Dynamic(id) => grammar.dyncosts()[id.0 as usize].func.clone(),
                // Dynamic rule lists only hold `Dynamic`-cost rules, but
                // degrade gracefully if that ever changes.
                CostExpr::Fixed(c) => Arc::new(move |_: &Forest, _: NodeId| RuleCost::Finite(c)),
            }
        };
        DynEvalTable {
            base: (0..NUM_OPS as u16)
                .map(|id| match Op::from_id(OpId(id)) {
                    Some(op) => grammar.dynamic_base_rules(op).iter().map(resolve).collect(),
                    None => Box::default(),
                })
                .collect(),
            chains: grammar.dynamic_chain_rules().iter().map(resolve).collect(),
        }
    }

    /// Evaluates the dynamic-cost rules applicable at `node` — the op's
    /// dynamic base rules, then the dynamic chain rules, in
    /// `dynamic_base_rules`/`dynamic_chain_rules` order — into `scratch`,
    /// returning `false` when there are none: the node's signature is
    /// then statically [`SigId::EMPTY`] and `scratch` is left untouched.
    /// `scratch` is a caller-owned buffer reused across nodes, so
    /// labeling never allocates per node.
    #[inline]
    pub(crate) fn eval(
        &self,
        forest: &Forest,
        node: NodeId,
        op: Op,
        scratch: &mut Vec<RuleCost>,
    ) -> bool {
        let base = &*self.base[op.id().0 as usize];
        if base.is_empty() && self.chains.is_empty() {
            return false;
        }
        scratch.clear();
        for f in base.iter().chain(&*self.chains) {
            scratch.push(f(forest, node));
        }
        true
    }
}

/// Where [`Walk::run`] stopped: at node `prefix.len()`, unless `Done`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    Done,
    /// A child's projection, the signature or the transition is missing;
    /// `costs` says whether the buffer holds the node's dynamic costs.
    Miss {
        costs: bool,
    },
    /// The transition leads to this dead state (`NoCover`).
    NoCover(StateId),
}

/// The one walk over the one table layout — an automaton's tables, its
/// grammar and its dynamic-cost dispatch (the reads per node are listed at
/// [`AutomatonSnapshot::label_warm`]): run by snapshots, by the master
/// automaton between miss steps, and by the offline labeler, whose tables
/// hold the empty signature only.
#[derive(Clone, Copy)]
pub(crate) struct Walk<'a>(pub &'a Tables, pub &'a NormalGrammar, pub &'a DynEvalTable);

impl Walk<'_> {
    /// One node's probe over its children's states `kid(i)` (`None` past
    /// the last child), adding the dynamic costs it evaluates to `evals`:
    /// the slot word ([`dense::DEAD_BIT`] set for a dead target), or
    /// `Err(costs)` at the first missing entry, where `costs` says whether
    /// `scratch` holds the node's dynamic costs for the miss step.
    #[inline(always)]
    pub fn probe(
        self,
        forest: &Forest,
        id: NodeId,
        op: Op,
        kid: impl Fn(usize) -> Option<StateId>,
        scratch: &mut Vec<RuleCost>,
        evals: &mut u64,
    ) -> Result<u32, bool> {
        let Walk(tables, grammar, dyn_eval) = self;
        let group = tables.group(op.id().0).ok_or(false)?;
        // A compile-time trip count (`MAX_ARITY == 2`), fully unrolled.
        let mut kids = [NO_CHILD; MAX_ARITY];
        for (i, k) in kids.iter_mut().enumerate() {
            let Some(full) = kid(i) else { break };
            let class = grammar.operand_class(op, i);
            *k = tables.project(full, class).ok_or(false)?.0;
        }
        // All-fixed-cost operators never leave the empty signature.
        let costs = dyn_eval.eval(forest, id, op, scratch);
        let sig = if costs {
            *evals += scratch.len() as u64;
            tables.signatures.find(scratch).ok_or(true)?
        } else {
            SigId::EMPTY
        };
        group.lookup_enc(kids[0], kids[1], sig.0).ok_or(costs)
    }

    /// Resumes after `prefix` (the nodes before it, resolved in this
    /// epoch) and extends it until the forest ends or a node stops the
    /// walk. A node counts once it resolves (a dead state included), its
    /// dynamic costs as they are evaluated; the tallies flush once, so
    /// the loop writes only `states`.
    pub fn run(
        self,
        forest: &Forest,
        prefix: &mut Vec<StateId>,
        buffer: &mut Vec<RuleCost>,
        counters: &mut WorkCounters,
    ) -> Stop {
        let (start, mut evals, mut stop) = (prefix.len(), 0, Stop::Done);
        // Local vectors keep their lengths in registers across the pushes
        // and the dynamic-cost calls.
        let (mut states, mut scratch) = (std::mem::take(prefix), std::mem::take(buffer));
        for (offset, node) in forest.nodes()[start..].iter().enumerate() {
            let ch = node.children();
            let kid = |k: usize| ch.get(k).map(|c| states[c.index()]);
            let id = NodeId((start + offset) as u32);
            let enc = match self.probe(forest, id, node.op(), kid, &mut scratch, &mut evals) {
                Ok(enc) => enc,
                Err(costs) => {
                    stop = Stop::Miss { costs };
                    break;
                }
            };
            // The dead flag rides in the slot word: no extra load.
            if enc & dense::DEAD_BIT != 0 {
                stop = Stop::NoCover(StateId(enc & !dense::DEAD_BIT));
                break;
            }
            states.push(StateId(enc));
        }
        let resolved = states.len() - start + matches!(stop, Stop::NoCover(_)) as usize;
        counters.resolved(resolved as u64, evals);
        (*prefix, *buffer) = (states, scratch);
        stop
    }
}

/// Outcome of a warm (snapshot-only) labeling walk: the arena-order
/// prefix of nodes answered from the snapshot, and whether that prefix
/// resolved a node to the dead state (`NoCover`).
///
/// `states.len() == forest.len()` with `nocover == None` means the
/// whole forest was answered warm.
#[derive(Debug)]
pub struct WarmWalk {
    /// Resolved states, indexed by node id, for a contiguous prefix of
    /// the arena — exactly the prefix contract the grow path resumes
    /// from.
    pub states: Vec<StateId>,
    /// The first prefix node whose state derives nothing, if any.
    pub nocover: Option<NodeId>,
}

/// One memoized transition in raw `(op, kids, sig)` form, for
/// diagnostics, persistence and differential tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawTransition {
    /// Operator id (`Op::id`).
    pub op: u16,
    /// Child keys: projection ids; unused slots are `u32::MAX`.
    pub kids: [u32; 2],
    /// Dynamic-cost signature id.
    pub sig: u32,
    /// The memoized target state.
    pub state: StateId,
}

/// One memoized projection in raw form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawProjection {
    /// The full child state being projected.
    pub full: StateId,
    /// The operand class it is projected under
    /// ([`NormalGrammar::operand_class`]).
    pub class: u32,
    /// The projected state.
    pub projection: StateId,
}

impl AutomatonSnapshot {
    pub(crate) fn new(
        epoch: u64,
        grammar: Arc<NormalGrammar>,
        config: OnDemandConfig,
        states: Vec<Arc<StateData>>,
        projections: Vec<Arc<StateData>>,
        tables: Tables,
        dyn_eval: Arc<DynEvalTable>,
    ) -> Self {
        let heat = (0..states.len()).map(|_| AtomicU32::new(0)).collect();
        AutomatonSnapshot {
            epoch,
            grammar,
            config,
            states,
            projections,
            tables,
            heat,
            dyn_eval,
        }
    }

    /// Records one touch per state in `states` (relaxed; heat is a
    /// statistic, not synchronization). Called once per forest by the
    /// lock-free fast path with the prefix of states it resolved.
    pub(crate) fn record_heat(&self, states: &[StateId]) {
        for &sid in states {
            if let Some(cell) = self.heat.get(sid.0 as usize) {
                cell.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Copies `prev`'s heat into this snapshot when both belong to the
    /// same epoch (state ids line up; the arena is append-only within an
    /// epoch). Called at publication so fast-path heat survives grow
    /// publications; across epochs heat restarts (the master carries a
    /// decayed copy through compaction).
    pub(crate) fn adopt_heat(&self, prev: &AutomatonSnapshot) {
        if self.epoch != prev.epoch {
            return;
        }
        for (cell, old) in self.heat.iter().zip(prev.heat.iter()) {
            cell.store(old.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the per-state touch counters.
    pub(crate) fn heat_counts(&self) -> Vec<u32> {
        self.heat
            .iter()
            .map(|cell| cell.load(Ordering::Relaxed))
            .collect()
    }

    pub(crate) fn states_arena(&self) -> &[Arc<StateData>] {
        &self.states
    }

    pub(crate) fn projections_arena(&self) -> &[Arc<StateData>] {
        &self.projections
    }

    pub(crate) fn tables(&self) -> &Tables {
        &self.tables
    }

    pub(crate) fn dyn_eval(&self) -> &Arc<DynEvalTable> {
        &self.dyn_eval
    }

    /// The `(epoch, entries)` freshness key (see [`freshness`]).
    pub(crate) fn freshness(&self) -> (u64, usize) {
        freshness(
            self.epoch,
            self.states.len(),
            self.projections.len(),
            &self.tables,
        )
    }

    /// The flush epoch this snapshot belongs to. State ids are only
    /// comparable between snapshots (or labelings) of the same epoch; see
    /// the epoch semantics on [`MemoryBudget`](crate::MemoryBudget).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The grammar the automaton selects for.
    pub fn grammar(&self) -> &Arc<NormalGrammar> {
        &self.grammar
    }

    /// The configuration this snapshot's tables run under: the publishing
    /// master's, or the one an import was given.
    pub fn config(&self) -> OnDemandConfig {
        self.config
    }

    /// Size statistics, including per-component byte accounting.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            epoch: self.epoch,
            states: self.states.len(),
            projections: self.projections.len(),
            transitions: self.tables.transition_count(),
            cached_projections: self.tables.projection_count(),
            signatures: self.tables.signatures.len(),
            bytes: govern::account_tables(&self.states, &self.projections, &self.tables),
        }
    }

    /// The data of a state.
    pub fn state(&self, id: StateId) -> &StateData {
        &self.states[id.0 as usize]
    }

    /// Looks up an already-interned dynamic-cost signature. `None` means
    /// the signature is unknown to this snapshot — a miss that must go to
    /// the writer.
    pub fn find_signature(&self, costs: &[RuleCost]) -> Option<SigId> {
        self.tables.signatures.find(costs)
    }

    /// Non-mutating transition lookup: `Some(state)` if `(op, kids, sig)`
    /// is memoized in this snapshot, `None` on a miss.
    ///
    /// The child states are first resolved to their projections through
    /// the frozen class arrays; a child not yet projected under its
    /// operand class is a miss like any other.
    pub fn lookup(&self, op: Op, kid_states: &[StateId], sig: SigId) -> Option<StateId> {
        debug_assert!(op.arity() <= MAX_ARITY, "{op} overflows the key");
        debug_assert!(kid_states.len() >= op.arity(), "{op}: one state per child");
        let mut kids = [NO_CHILD; MAX_ARITY];
        for (i, &k) in kid_states.iter().take(op.arity()).enumerate() {
            kids[i] = self.tables.project(k, self.grammar.operand_class(op, i))?.0;
        }
        self.tables.lookup(op.id().0, kids, sig)
    }

    /// Labels as much of `forest` as this snapshot can answer, with the
    /// one table walk the master automaton and the offline labeler run
    /// too. Arena order is a level schedule (children precede parents),
    /// so the walk reads the node arena and the growing state buffer
    /// sequentially; an explicit per-level sort was measured and rejected.
    ///
    /// Per node the walk is exactly the table reads: one class-array load
    /// per child (its projection), one signature probe at dynamic-cost
    /// operators, and a bounded probe of the operator's transition group,
    /// with the dead flag read from the probed slot. A miss stops the
    /// walk, and the grow path resumes from the returned arena prefix and
    /// counts the node it stopped at; each node resolved here counts one
    /// [`WorkCounters::nodes`], table lookup and memo hit.
    pub fn label_warm(&self, forest: &Forest, counters: &mut WorkCounters) -> WarmWalk {
        let mut states = Vec::with_capacity(forest.len());
        let walk = Walk(&self.tables, &self.grammar, &self.dyn_eval);
        let stop = walk.run(forest, &mut states, &mut Vec::new(), counters);
        let nocover = matches!(stop, Stop::NoCover(_)).then(|| NodeId(states.len() as u32));
        WarmWalk { states, nocover }
    }

    /// Every memoized transition in raw form (unspecified order), for
    /// diagnostics and differential tests.
    pub fn raw_transitions(&self) -> Vec<RawTransition> {
        self.tables.transitions().collect()
    }

    /// Every memoized projection in raw form (unspecified order).
    pub fn raw_projections(&self) -> Vec<RawProjection> {
        self.tables.projections().collect()
    }

    /// Every interned dynamic-cost signature, indexed by signature id
    /// (the empty signature first).
    pub fn raw_signatures(&self) -> Vec<Vec<RuleCost>> {
        self.tables.signatures.iter().map(<[_]>::to_vec).collect()
    }

    /// Raw transition probe (no projection resolution — `kids` are the
    /// key's own projection ids), the probe
    /// [`label_warm`](Self::label_warm) runs per node.
    pub fn lookup_raw(&self, op: u16, kids: [u32; 2], sig: u32) -> Option<StateId> {
        self.tables.lookup(op, kids, SigId(sig))
    }

    /// Raw projection probe: the projection of `full` as operand `pos`
    /// of operator `op`, read from the array of that position's operand
    /// class.
    pub fn project_raw(&self, full: StateId, op: u16, pos: u8) -> Option<StateId> {
        let op = Op::from_id(OpId(op)).filter(|_| pos < 2)?;
        self.tables
            .project(full, self.grammar.operand_class(op, pos as usize))
    }
}

impl StateLookup for AutomatonSnapshot {
    /// Bounds-checked: a stale id from an earlier flush epoch can exceed
    /// this snapshot's arena; it must degrade to "no rule" (the reducer
    /// reports `MissingRule`), never panic. Ids valid for this
    /// snapshot's epoch are unaffected.
    fn rule_in_state(&self, state: StateId, nt: NtId) -> Option<NormalRuleId> {
        self.states.get(state.0 as usize).and_then(|s| s.rule(nt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Labeler;
    use crate::ondemand::OnDemandAutomaton;
    use odburg_grammar::parse_grammar;
    use odburg_ir::parse_sexpr;

    fn warmed() -> (OnDemandAutomaton, Forest) {
        let g = parse_grammar(
            r#"
            %start stmt
            addr: reg (0)
            reg: ConstI8 (1)
            reg: LoadI8(addr) (1)
            reg: AddI8(reg, reg) (1)
            stmt: StoreI8(addr, reg) (1)
            "#,
        )
        .unwrap()
        .normalize();
        let mut auto = OnDemandAutomaton::new(Arc::new(g));
        let mut f = Forest::new();
        let root = parse_sexpr(
            &mut f,
            "(StoreI8 (ConstI8 0) (AddI8 (LoadI8 (ConstI8 4)) (ConstI8 2)))",
        )
        .unwrap();
        f.add_root(root);
        auto.label_forest(&f).unwrap();
        (auto, f)
    }

    #[test]
    fn snapshot_reproduces_warm_labeling() {
        let (auto, forest) = warmed();
        let snap = auto.snapshot();
        assert_eq!(snap.stats().states, auto.stats().states);
        assert_eq!(snap.stats().transitions, auto.stats().transitions);
        // Re-label the forest against the snapshot only.
        let mut states: Vec<StateId> = Vec::new();
        for (_, node) in forest.iter() {
            let kids: Vec<StateId> = node.children().iter().map(|c| states[c.index()]).collect();
            let sid = snap
                .lookup(node.op(), &kids, SigId::EMPTY)
                .expect("warm snapshot must hit");
            states.push(sid);
        }
        // Same states as the master automaton assigns.
        let relabeled = {
            let mut auto = auto;
            auto.label_forest(&forest).unwrap()
        };
        assert_eq!(relabeled.states(), &states[..]);
    }

    #[test]
    fn snapshot_misses_unseen_transitions() {
        let (auto, _) = warmed();
        let snap = auto.snapshot();
        // A (op, kids) combination never labeled: Load of the Add state.
        let op: Op = "LoadI8".parse().unwrap();
        let unseen = snap.lookup(op, &[StateId(1)], SigId::EMPTY);
        assert!(unseen.is_none());
    }

    #[test]
    fn all_ops_fit_the_transition_key() {
        // Locks in the transition-key invariant: every operator the IR
        // can express has arity <= MAX_ARITY, so the fixed kid array
        // never truncates. If a future IR extension adds a wider
        // operator, this test fails and the kid array must grow with it.
        use odburg_ir::{ALL_KINDS, ALL_TYPE_TAGS};
        for kind in ALL_KINDS {
            for ty in ALL_TYPE_TAGS {
                let op = Op::new(kind, ty);
                assert!(
                    op.arity() <= MAX_ARITY,
                    "operator {op} has arity {} > MAX_ARITY={MAX_ARITY}",
                    op.arity()
                );
            }
        }
    }

    #[test]
    fn stats_break_bytes_down_per_component() {
        let (auto, _) = warmed();
        let snap = auto.snapshot();
        let stats = snap.stats();
        assert!(stats.bytes.states > 0);
        assert!(stats.bytes.transitions > 0);
        assert!(stats.bytes.signatures > 0);
        assert!(stats.bytes.projections > 0, "children enter keys projected");
        assert!(stats.bytes.projection_cache > 0);
        assert_eq!(stats.bytes.total(), auto.accounted_bytes().total());
        assert_eq!(stats.bytes, auto.accounted_bytes());
    }

    #[test]
    fn heat_is_recorded_and_adopted_within_an_epoch() {
        let (auto, forest) = warmed();
        let snap = auto.snapshot();
        assert!(snap.heat_counts().iter().all(|&h| h == 0));
        let states: Vec<StateId> = {
            let mut states = Vec::new();
            for (_, node) in forest.iter() {
                let kids: Vec<StateId> =
                    node.children().iter().map(|c| states[c.index()]).collect();
                states.push(snap.lookup(node.op(), &kids, SigId::EMPTY).unwrap());
            }
            states
        };
        snap.record_heat(&states);
        let heat = snap.heat_counts();
        assert_eq!(
            heat.iter().map(|&h| h as usize).sum::<usize>(),
            forest.len()
        );

        // Publication within the epoch carries the heat forward…
        let next = auto.snapshot();
        next.adopt_heat(&snap);
        assert_eq!(next.heat_counts(), heat);
        // …but a snapshot from another epoch starts cold.
        let mut flushed = OnDemandAutomaton::from_snapshot(&next);
        flushed.clear();
        let other_epoch = flushed.snapshot();
        other_epoch.adopt_heat(&snap);
        assert!(other_epoch.heat_counts().iter().all(|&h| h == 0));
    }

    /// A grammar whose dynamic cost depends on the constant's value:
    /// every distinct constant interns a signature and memoizes a
    /// `ConstI8` transition, all into the same state.
    fn churn() -> OnDemandAutomaton {
        let mut g = parse_grammar(
            r#"
            %start stmt
            %dyncost val
            reg: ConstI8 [val]
            reg: AddI8(reg, reg) (1)
            stmt: StoreI8(reg, reg) (1)
            "#,
        )
        .unwrap();
        g.bind_dyncost(
            "val",
            Arc::new(|forest: &Forest, node| {
                let v = forest.node(node).payload().as_int().unwrap_or(0);
                RuleCost::Finite((v.unsigned_abs() % 1000) as u16)
            }),
        )
        .unwrap();
        OnDemandAutomaton::new(Arc::new(g.normalize()))
    }

    /// A grammar whose constants land in value-dependent states: against
    /// the fixed-cost `imm`, `reg`'s dynamic cost keeps each constant's
    /// relative costs, so every fresh constant mints a signature, a
    /// state, a projection under `AddI8`'s `{reg, imm}` operand class and
    /// an `AddI8` transition over that projection.
    fn spread() -> OnDemandAutomaton {
        let mut g = parse_grammar(
            r#"
            %start stmt
            %dyncost val
            imm: ConstI8 (0)
            reg: ConstI8 [val]
            reg: AddI8(reg, reg) (1)
            reg: AddI8(reg, imm) (1)
            stmt: StoreI8(reg, reg) (1)
            "#,
        )
        .unwrap();
        g.bind_dyncost(
            "val",
            Arc::new(|forest: &Forest, node| {
                let v = forest.node(node).payload().as_int().unwrap_or(0);
                RuleCost::Finite((v.unsigned_abs() % 1000) as u16)
            }),
        )
        .unwrap();
        OnDemandAutomaton::new(Arc::new(g.normalize()))
    }

    fn forest(src: &str) -> Forest {
        let mut f = Forest::new();
        let root = parse_sexpr(&mut f, src).unwrap();
        f.add_root(root);
        f
    }

    fn sorted(mut raw: Vec<RawTransition>) -> Vec<RawTransition> {
        raw.sort_by_key(|t| (t.op, t.kids, t.sig));
        raw
    }

    fn per_op(snap: &AutomatonSnapshot) -> Vec<usize> {
        let mut counts = vec![0; snap.tables().group_count()];
        for t in snap.raw_transitions() {
            counts[t.op as usize] += 1;
        }
        counts
    }

    #[test]
    fn pinned_snapshot_is_isolated_from_copy_on_write_growth() {
        let mut auto = spread();
        auto.label_forest(&forest(
            "(StoreI8 (ConstI8 1) (AddI8 (ConstI8 2) (ConstI8 3)))",
        ))
        .unwrap();
        let pinned = auto.snapshot();
        let frozen = sorted(pinned.raw_transitions());
        let frozen_projections = pinned.raw_projections();
        let [const_op, add_op] = ["ConstI8", "AddI8"].map(|o| o.parse::<Op>().unwrap());
        let const_slots = pinned.tables().group_storage(const_op.id().0).slot_count();
        let class = auto.grammar().operand_class(add_op, 1);

        // Grow the tables the snapshot shares: new constants insert into
        // the `ConstI8` group in place, then rehash it repeatedly; their
        // states regrow the `{reg, imm}` class array, and their
        // projections grow the `AddI8` group.
        for k in 10..40 {
            auto.label_forest(&forest(&format!(
                "(StoreI8 (AddI8 (ConstI8 1) (ConstI8 {k})) (ConstI8 2))"
            )))
            .unwrap();
        }
        let grown = auto.snapshot();
        let master_const = grown.tables().group_storage(const_op.id().0);
        assert!(master_const.slot_count() > const_slots, "ConstI8 rehashed");
        assert!(!master_const.shares_storage_with(pinned.tables().group_storage(const_op.id().0)));
        let storage = |s: &AutomatonSnapshot| s.tables().class(class).as_ptr();
        assert_ne!(storage(&grown), storage(&pinned), "class array regrown");
        assert!(grown.stats().transitions > frozen.len() + 30);
        assert!(grown.stats().cached_projections >= frozen_projections.len() + 30);
        assert_eq!(pinned.raw_projections(), frozen_projections);

        // The pinned snapshot answers exactly as before: same raw
        // entries, same lookups, and every key the master added misses.
        assert_eq!(sorted(pinned.raw_transitions()), frozen);
        for t in &frozen {
            assert_eq!(pinned.lookup_raw(t.op, t.kids, t.sig), Some(t.state));
        }
        for t in grown.raw_transitions() {
            let expected = frozen
                .iter()
                .any(|f| (f.op, f.kids, f.sig) == (t.op, t.kids, t.sig))
                .then_some(t.state);
            assert_eq!(pinned.lookup_raw(t.op, t.kids, t.sig), expected);
        }
        assert_eq!(pinned.stats().signatures, 4, "empty + three constants");
        assert_eq!(pinned.find_signature(&[RuleCost::Finite(10)]), None);
    }

    #[test]
    fn publication_shares_every_group_the_forest_did_not_grow() {
        let shared = crate::SharedOnDemand::new(churn());
        shared
            .label_forest(&forest(
                "(StoreI8 (ConstI8 1) (AddI8 (ConstI8 2) (ConstI8 3)))",
            ))
            .unwrap();
        shared
            .label_forest(&forest(
                "(AddI8 (AddI8 (ConstI8 1) (ConstI8 2)) (ConstI8 3))",
            ))
            .unwrap();
        let before = shared.snapshot();
        // A fresh constant grows the `ConstI8` group alone (its state,
        // and every `AddI8`/`StoreI8` transition above it, already exist).
        shared
            .label_forest(&forest(
                "(StoreI8 (ConstI8 1) (AddI8 (ConstI8 2) (ConstI8 77)))",
            ))
            .unwrap();
        let after = shared.snapshot();
        assert_eq!(after.epoch(), before.epoch());
        let (old, new) = (per_op(&before), per_op(&after));
        assert_eq!(old.len(), new.len());
        let const_op = "ConstI8".parse::<Op>().unwrap().id().0 as usize;
        let grown: Vec<usize> = (0..new.len()).filter(|&op| new[op] != old[op]).collect();
        assert_eq!(grown, [const_op], "only the ConstI8 group grew");
        for op in 0..new.len() {
            assert_eq!(
                after
                    .tables()
                    .group_storage(op as u16)
                    .shares_storage_with(before.tables().group_storage(op as u16)),
                op != const_op,
                "group of op {op}: shared exactly when it did not grow"
            );
        }
    }

    #[test]
    fn snapshot_is_decoupled_from_master_growth() {
        let mut auto = spread();
        auto.label_forest(&forest(
            "(StoreI8 (ConstI8 1) (AddI8 (ConstI8 2) (ConstI8 3)))",
        ))
        .unwrap();
        let snap = auto.snapshot();
        let before = snap.stats();
        auto.label_forest(&forest(
            "(StoreI8 (ConstI8 0) (AddI8 (AddI8 (ConstI8 1) (ConstI8 4)) (ConstI8 5)))",
        ))
        .unwrap();
        assert!(auto.stats().transitions > snap.stats().transitions);
        assert!(auto.stats().states > before.states);
        assert_eq!(snap.stats(), before, "snapshot must stay frozen");
    }
}
