//! The on-demand tree-parsing automaton — the contribution of the
//! reproduced paper.
//!
//! The automaton starts empty. It labels a forest with the walk its
//! [snapshots](AutomatonSnapshot::label_warm) run: per node, the
//! transition key *(operator, child representers, dynamic-cost
//! signature)* — each child state projected onto the operand nonterminals
//! of its position (burg's *representer states*, one array load per
//! child) — probes the operator's slot table (see `dense.rs`):
//!
//! * **hit** (the overwhelmingly common case once the automaton has
//!   warmed up): the node's state is the cached one — labeling cost is a
//!   single bounded probe, like an offline automaton;
//! * **miss**: the walk stops, and one miss step computes the state with
//!   one dynamic-programming step ([`compute_state`]), hash-conses and
//!   memoizes it before the walk resumes — the cost of an iburg-style
//!   labeler, paid once per distinct transition instead of once per node.
//!
//! Because compiler IR is extremely repetitive, the automaton converges
//! after a few hundred nodes and nearly all lookups hit. Dynamic costs
//! are folded into the key as a [signature](crate::signature), which an
//! offline automaton cannot do.

use std::sync::Arc;

use odburg_grammar::{NormalGrammar, NormalRuleId, NtId, RuleCost};
use odburg_ir::{Forest, NodeId, Op};

use crate::compute::compute_state;
use crate::counters::WorkCounters;
use crate::dense::Tables;
use crate::govern::{self, CompactionStats, ComponentBytes, MemoryBudget, PressureAction};
use crate::label::{LabelError, Labeler, Labeling, StateLookup};
use crate::signature::SigId;
use crate::snapshot::{self, AutomatonSnapshot, DynEvalTable, Stop, Walk, MAX_ARITY, NO_CHILD};
use crate::state::{StateData, StateId, StateSet};

/// Configuration of an [`OnDemandAutomaton`]: the bounds on its memo.
///
/// Neither bound changes what a table entry means — any subset of the
/// tables labels correctly — so tables grown under one configuration
/// label under any other, and a table file carries none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnDemandConfig {
    /// Maximum number of states. Without a memory budget, growing past
    /// it fails with [`LabelError::StateBudgetExceeded`]. Guards against
    /// grammars whose automata do not converge.
    pub state_budget: usize,
    /// The budget the grow path enforces, `None` for none. With one, a
    /// state-budget overflow relieves the tables with the budget's
    /// [action](MemoryBudget::action) and relabels the forest once, and
    /// so does a forest that leaves the accounted bytes
    /// ([`OnDemandAutomaton::accounted_bytes`]) above its
    /// [`byte_budget`](MemoryBudget::byte_budget). Either relief starts a
    /// new epoch (see [`MemoryBudget`]). `MemoryBudget::flush(usize::MAX)`
    /// flushes on the state budget alone, and never sweeps the bytes.
    pub memory_budget: Option<MemoryBudget>,
}

impl Default for OnDemandConfig {
    fn default() -> Self {
        OnDemandConfig {
            state_budget: 1 << 20,
            memory_budget: None,
        }
    }
}

/// Size statistics of an on-demand automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnDemandStats {
    /// Hash-consed states created so far.
    pub states: usize,
    /// Memoized transitions.
    pub transitions: usize,
    /// Distinct dynamic-cost signatures (1 = none beyond the empty one).
    pub signatures: usize,
    /// Total accounted heap bytes (see
    /// [`OnDemandAutomaton::accounted_bytes`] for the per-component
    /// breakdown).
    pub bytes: usize,
}

/// The on-demand tree-parsing automaton.
///
/// Create once per grammar and reuse across compilations (that is the
/// point: a JIT keeps one automaton alive and it keeps getting faster).
///
/// # Examples
///
/// ```
/// use odburg_core::{Labeler, OnDemandAutomaton};
/// use odburg_grammar::parse_grammar;
/// use odburg_ir::{parse_sexpr, Forest};
/// use std::sync::Arc;
///
/// let g = parse_grammar(
///     "%start reg\nreg: ConstI8 (1)\nreg: AddI8(reg, reg) (1)\n",
/// )?;
/// let mut auto = OnDemandAutomaton::new(Arc::new(g.normalize()));
/// let mut f = Forest::new();
/// let root = parse_sexpr(&mut f, "(AddI8 (ConstI8 1) (ConstI8 2))")?;
/// f.add_root(root);
/// let labeling = auto.label_forest(&f)?;
/// let chooser = labeling.chooser(&auto);
/// # let _ = chooser;
/// assert_eq!(auto.stats().states, 2); // one for Const, one for Add
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct OnDemandAutomaton {
    grammar: Arc<NormalGrammar>,
    config: OnDemandConfig,
    states: StateSet,
    projections: StateSet,
    /// Class arrays, transition groups and signature interner, in the
    /// layout snapshots share copy-on-write (see `dense.rs`).
    tables: Tables,
    /// Flattened dynamic-cost dispatch, built once and shared with every
    /// snapshot.
    dyn_eval: Arc<DynEvalTable>,
    /// Reused buffer for a node's dynamic costs.
    scratch: Vec<RuleCost>,
    counters: WorkCounters,
    /// Current epoch: bumped by every flush *and* every compaction;
    /// state ids are only meaningful within one epoch.
    epoch: u64,
    /// Per-state touch counters for the current epoch (indexed by
    /// `StateId`), bumped once per labeled node; compaction evicts the
    /// coldest states by this measure. Reset by a flush, carried over
    /// (halved) by a compaction.
    heat: Vec<u64>,
}

impl OnDemandAutomaton {
    /// Creates an empty automaton for `grammar` with default
    /// configuration.
    pub fn new(grammar: Arc<NormalGrammar>) -> Self {
        Self::with_config(grammar, OnDemandConfig::default())
    }

    /// Creates an empty automaton with an explicit configuration.
    pub fn with_config(grammar: Arc<NormalGrammar>, config: OnDemandConfig) -> Self {
        OnDemandAutomaton {
            dyn_eval: Arc::new(DynEvalTable::build(&grammar)),
            grammar,
            config,
            states: StateSet::new(),
            projections: StateSet::new(),
            tables: Tables::default(),
            scratch: Vec::new(),
            counters: WorkCounters::new(),
            epoch: 0,
            heat: Vec::new(),
        }
    }

    /// Discards every state, transition, projection and signature,
    /// returning the automaton to its freshly-created (cold) condition
    /// and starting a new epoch. Work counters are preserved (and record
    /// the flush).
    pub fn clear(&mut self) {
        self.states = StateSet::new();
        self.projections = StateSet::new();
        self.tables = Tables::default();
        self.heat.clear();
        self.epoch += 1;
        self.counters.flushes += 1;
    }

    /// The grammar this automaton selects for.
    pub fn grammar(&self) -> &Arc<NormalGrammar> {
        &self.grammar
    }

    /// The current epoch. State ids are only meaningful within one
    /// epoch; a [`clear`](OnDemandAutomaton::clear) and a
    /// [`compact`](OnDemandAutomaton::compact), run by hand or by a
    /// [`MemoryBudget`], each start the next one.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Freezes the automaton's current tables into an immutable
    /// [`AutomatonSnapshot`].
    ///
    /// Nothing is copied: the snapshot shares the state data and every
    /// array of the class arrays, transition groups and signature
    /// interner by reference count, so publication costs O(operator
    /// groups + operand classes + states). The master copies a shared
    /// array the next time it grows it — in the grow path, once per
    /// snapshot, for the arrays a forest actually touched.
    pub fn snapshot(&self) -> AutomatonSnapshot {
        AutomatonSnapshot::new(
            self.epoch(),
            Arc::clone(&self.grammar),
            self.config,
            self.states.share_arena(),
            self.projections.share_arena(),
            self.tables.clone(),
            Arc::clone(&self.dyn_eval),
        )
    }

    /// Reconstructs a mutable master automaton from a snapshot's frozen
    /// tables — the warm-start path. The returned automaton labels
    /// everything the snapshot has seen without a single memo miss and
    /// grows from there; its epoch continues from the snapshot's.
    ///
    /// Combined with the [`persist`](crate::persist) module this lets a
    /// restarted process resume at yesterday's hit rates:
    /// export a snapshot before shutdown, import it at startup, and feed
    /// it here (or to
    /// [`SharedOnDemand::with_seed_snapshot`](crate::SharedOnDemand::with_seed_snapshot)).
    pub fn from_snapshot(snapshot: &AutomatonSnapshot) -> Self {
        OnDemandAutomaton {
            grammar: Arc::clone(snapshot.grammar()),
            config: snapshot.config(),
            states: StateSet::from_arena(snapshot.states_arena().to_vec()),
            projections: StateSet::from_arena(snapshot.projections_arena().to_vec()),
            tables: snapshot.tables().clone(),
            dyn_eval: Arc::clone(snapshot.dyn_eval()),
            scratch: Vec::new(),
            counters: WorkCounters::new(),
            epoch: snapshot.epoch(),
            heat: vec![0; snapshot.states_arena().len()],
        }
    }

    /// Replaces the tables with `snapshot`'s, as a replica installs a
    /// writer's shipment. The configuration and the work counters stay:
    /// they describe this master, not the tables, so the counters never
    /// go backwards across an install.
    pub(crate) fn adopt(&mut self, snapshot: &AutomatonSnapshot) {
        *self = OnDemandAutomaton {
            config: self.config,
            counters: self.counters,
            ..OnDemandAutomaton::from_snapshot(snapshot)
        };
    }

    /// The configuration.
    pub fn config(&self) -> OnDemandConfig {
        self.config
    }

    /// Current size statistics.
    pub fn stats(&self) -> OnDemandStats {
        OnDemandStats {
            states: self.states.len(),
            transitions: self.tables.transition_count(),
            signatures: self.tables.signatures.len(),
            bytes: self.accounted_bytes().total(),
        }
    }

    /// Per-component byte accounting of the current tables — the number
    /// a [`MemoryBudget`] compares against. Computed the same way for live masters, published
    /// snapshots ([`SnapshotStats::bytes`](crate::SnapshotStats::bytes))
    /// and persisted table files
    /// ([`persist::inspect_tables`](crate::persist::inspect_tables)).
    pub fn accounted_bytes(&self) -> ComponentBytes {
        govern::account_tables(self.states.arena(), self.projections.arena(), &self.tables)
    }

    /// Rebuilds the tables retaining only the hottest states that fit
    /// `target_bytes`, starting a **new epoch** — the memory governor's
    /// surgical alternative to [`clear`](OnDemandAutomaton::clear). See
    /// [`govern`](crate::govern) for the algorithm and
    /// [`OnDemandConfig::memory_budget`] for when this runs automatically.
    ///
    /// `extra_heat` folds in touch counts gathered outside the master
    /// (the shared automaton passes the published snapshot's fast-path
    /// counters); pass `&[]` when there are none. Evicted entries are
    /// forgotten memoization only — a later miss recomputes them — so
    /// labelings before and after a compaction select identical
    /// instructions at identical costs.
    pub fn compact(&mut self, target_bytes: usize, extra_heat: &[u32]) -> CompactionStats {
        let combined: Vec<u64> = (0..self.states.len())
            .map(|i| {
                self.heat.get(i).copied().unwrap_or(0)
                    + extra_heat.get(i).copied().unwrap_or(0) as u64
            })
            .collect();
        let compacted = govern::compact_tables(
            &govern::TableView {
                states: self.states.arena(),
                projections: self.projections.arena(),
                tables: &self.tables,
            },
            &combined,
            target_bytes,
        );
        self.states = StateSet::from_arena(compacted.states);
        self.projections = StateSet::from_arena(compacted.projections);
        self.tables = compacted.tables;
        self.heat = compacted.heat;
        self.epoch += 1;
        self.counters.compactions += 1;
        self.counters.states_evicted += compacted.stats.evicted_states as u64;
        compacted.stats
    }

    /// The data of a state.
    pub fn state(&self, id: StateId) -> &StateData {
        self.states.get(id)
    }

    /// The grow path's step at a node the table walk stopped at: interns
    /// the node's signature and the children's missing projections,
    /// probes again, and on a second miss computes, interns and memoizes
    /// the node's state. Counts the node once, as a hit or a miss, and
    /// evaluates its dynamic costs only if the walk's probe did not
    /// (`costs`).
    fn miss_step(
        &mut self,
        forest: &Forest,
        node: NodeId,
        kid: impl Fn(usize) -> Option<StateId>,
        mut costs: bool,
    ) -> Result<StateId, LabelError> {
        let op = forest.node(node).op();
        if !costs && self.dyn_eval.eval(forest, node, op, &mut self.scratch) {
            self.counters.dyncost_evals += self.scratch.len() as u64;
            costs = true;
        }
        // The costs stay in the scratch buffer for `build_state`.
        let sig = if costs {
            self.counters.hash_lookups += 1;
            self.tables.signatures.intern(&self.scratch)
        } else {
            SigId::EMPTY
        };
        let mut kids = [NO_CHILD; MAX_ARITY];
        for (i, slot) in kids.iter_mut().enumerate() {
            let Some(k) = kid(i) else { break };
            let class = self.grammar.operand_class(op, i);
            *slot = match self.tables.project(k, class) {
                Some(p) => p.0,
                None => {
                    let projected = self.states.get(k).project(self.grammar.operand_nts(op, i));
                    let (p, _) = self.projections.intern(projected);
                    self.tables.insert_projection(k, class, p);
                    p.0
                }
            };
        }
        self.counters.nodes += 1;
        self.counters.table_lookups += 1;
        if let Some(state) = self.tables.lookup(op.id().0, kids, sig) {
            self.counters.memo_hits += 1;
            return Ok(state);
        }
        self.counters.memo_misses += 1;
        let state = self.build_state(op, kids)?;
        let dead = self.states.get(state).is_dead();
        self.tables
            .insert_transition(op.id().0, kids, sig, state, dead);
        Ok(state)
    }

    /// The `(epoch, entries)` freshness key of the tables (see
    /// [`snapshot::freshness`]): an O(1) "did anything grow?" signal, since
    /// an unchanged key means unchanged accounted bytes.
    fn freshness(&self) -> (u64, usize) {
        snapshot::freshness(
            self.epoch,
            self.states.len(),
            self.projections.len(),
            &self.tables,
        )
    }

    /// Bumps the epoch-scoped touch counter of `state` (one array write
    /// per labeled node — the price of heat tracking on the
    /// single-threaded path).
    fn touch(&mut self, state: StateId) {
        let i = state.0 as usize;
        if self.heat.len() <= i {
            self.heat.resize(i + 1, 0);
        }
        self.heat[i] += 1;
    }

    /// Computes, interns and budget-checks the state of a node whose
    /// signature was just evaluated: its dynamic costs are still in the
    /// scratch buffer.
    fn build_state(&mut self, op: Op, kids: [u32; MAX_ARITY]) -> Result<StateId, LabelError> {
        let kid_data: Vec<&StateData> = kids[..op.arity()]
            .iter()
            .map(|&k| self.projections.get(StateId(k)))
            .collect();
        // The scratch buffer holds one cost per dynamic base rule of the
        // op, then per dynamic chain rule, in exactly that order (and is
        // stale only when there are no such rules to zip it with).
        let costs = &self.scratch;
        let dyn_rules = self
            .grammar
            .dynamic_base_rules(op)
            .iter()
            .chain(self.grammar.dynamic_chain_rules());
        let dyn_cost = |rule: NormalRuleId| {
            dyn_rules
                .clone()
                .zip(costs)
                .find(|&(&r, _)| r == rule)
                .map_or(RuleCost::Infinite, |(_, &c)| c)
        };
        let state = compute_state(&self.grammar, op, &kid_data, dyn_cost, &mut self.counters);
        let (id, new) = self.states.intern(state);
        if new {
            self.counters.states_built += 1;
            if self.states.len() > self.config.state_budget {
                return Err(LabelError::StateBudgetExceeded {
                    budget: self.config.state_budget,
                });
            }
        }
        Ok(id)
    }
}

impl OnDemandAutomaton {
    /// The grow path — the one labeling loop of every master automaton,
    /// single-threaded or [shared](crate::SharedOnDemand). Labels
    /// `forest` from node `states.len()` onward (the caller may hand in
    /// a prefix already resolved in the current epoch). Without a
    /// [memory budget](OnDemandConfig::memory_budget) that is all; with
    /// one:
    ///
    /// 1. a state-budget overflow [relieves](Self::relieve) the tables
    ///    and relabels the forest from scratch once (a second overflow
    ///    means the forest alone exceeds the budget);
    /// 2. then a forest that moved the freshness key and left the
    ///    accounted bytes above `byte_budget` relieves and relabels once
    ///    more, so the ids handed back belong to the epoch the automaton
    ///    is left in. The key gate keeps forests that added no entry from
    ///    paying the O(tables) accounting sweep, and a `byte_budget` of
    ///    `usize::MAX`, which no account can pass, skips it always.
    ///
    /// `heat(epoch)` supplies touch counts gathered outside the master
    /// for a compaction in `epoch`; it is called only when one runs.
    pub(crate) fn grow(
        &mut self,
        forest: &Forest,
        states: &mut Vec<StateId>,
        heat: impl Fn(u64) -> Vec<u32>,
    ) -> Result<(), LabelError> {
        let entry = self.freshness();
        let mut outcome = self.label_from(forest, states);
        let Some(budget) = self.config.memory_budget else {
            return outcome;
        };
        if matches!(outcome, Err(LabelError::StateBudgetExceeded { .. })) {
            self.relieve(&budget, &heat);
            states.clear();
            outcome = self.label_from(forest, states);
        }
        if outcome.is_ok()
            && budget.byte_budget != usize::MAX
            && self.freshness() != entry
            && self.accounted_bytes().total() > budget.byte_budget
        {
            // This forest's states are at peak heat, so a compaction keeps
            // its working set and the relabel is cheap.
            self.relieve(&budget, &heat);
            states.clear();
            outcome = self.label_from(forest, states);
        }
        outcome
    }

    /// The one budget-relief step, shared by the grow path and the
    /// shared automaton's maintenance quanta: flushes, or compacts down
    /// to `retain_fraction` of `budget.byte_budget` folding in
    /// `heat(epoch)`. Either way a new epoch starts.
    pub(crate) fn relieve(&mut self, budget: &MemoryBudget, heat: impl FnOnce(u64) -> Vec<u32>) {
        match budget.action {
            PressureAction::Flush => self.clear(),
            PressureAction::Compact { retain_fraction } => {
                let heat = heat(self.epoch);
                self.compact(
                    govern::compact_target_bytes(budget.byte_budget, retain_fraction),
                    &heat,
                );
            }
        }
    }

    /// Labels `forest` from node `states.len()` onward: the table walk,
    /// one [miss step](Self::miss_step) wherever it stops, the walk again.
    /// Heat is added once per forest for every state resolved.
    fn label_from(&mut self, forest: &Forest, states: &mut Vec<StateId>) -> Result<(), LabelError> {
        let start = states.len();
        let outcome = loop {
            let walk = Walk(&self.tables, &self.grammar, &self.dyn_eval);
            let state = match walk.run(forest, states, &mut self.scratch, &mut self.counters) {
                Stop::Done => break Ok(()),
                Stop::NoCover(dead) => dead,
                Stop::Miss { costs } => {
                    let id = NodeId(states.len() as u32);
                    let ch = forest.node(id).children();
                    let kid = |i: usize| ch.get(i).map(|c| states[c.index()]);
                    match self.miss_step(forest, id, kid, costs) {
                        Ok(state) => state,
                        Err(e) => break Err(e),
                    }
                }
            };
            if !self.states.get(state).is_dead() {
                states.push(state);
                continue;
            }
            self.touch(state);
            let node = NodeId(states.len() as u32);
            let op = forest.node(node).op();
            break Err(LabelError::NoCover { node, op });
        };
        for &state in &states[start..] {
            self.touch(state);
        }
        outcome
    }
}

impl Labeler for OnDemandAutomaton {
    type Output = Labeling;

    fn label_forest(&mut self, forest: &Forest) -> Result<Labeling, LabelError> {
        let mut states = Vec::with_capacity(forest.len());
        self.grow(forest, &mut states, |_| Vec::new())?;
        Ok(Labeling::from_states(states))
    }

    fn counters(&self) -> WorkCounters {
        self.counters
    }

    fn reset_counters(&mut self) {
        self.counters.reset();
    }

    fn name(&self) -> &'static str {
        "ondemand"
    }
}

impl StateLookup for OnDemandAutomaton {
    fn rule_in_state(&self, state: StateId, nt: NtId) -> Option<NormalRuleId> {
        self.states.get(state).rule(nt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odburg_grammar::parse_grammar;
    use odburg_ir::parse_sexpr;

    const DEMO: &str = r#"
        %grammar demo
        %start stmt
        addr: reg (0)
        reg: ConstI8 (1)
        reg: LoadI8(addr) (1)
        reg: AddI8(reg, reg) (1)
        stmt: StoreI8(addr, reg) (1)
        stmt: StoreI8(addr, AddI8(LoadI8(addr), reg)) (1)
    "#;

    fn demo_automaton() -> OnDemandAutomaton {
        let g = parse_grammar(DEMO).unwrap().normalize();
        OnDemandAutomaton::new(Arc::new(g))
    }

    fn forest_of(src: &str) -> (Forest, NodeId) {
        let mut f = Forest::new();
        let root = parse_sexpr(&mut f, src).unwrap();
        f.add_root(root);
        (f, root)
    }

    #[test]
    fn second_forest_is_all_hits() {
        let mut auto = demo_automaton();
        let (f, _) = forest_of("(StoreI8 (ConstI8 0) (AddI8 (LoadI8 (ConstI8 0)) (ConstI8 5)))");
        auto.label_forest(&f).unwrap();
        assert!(auto.counters().memo_misses > 0);
        auto.reset_counters();
        auto.label_forest(&f).unwrap();
        assert_eq!(auto.counters().memo_misses, 0, "relabeling must not miss");
        assert_eq!(auto.counters().memo_hits as usize, f.len());
    }

    #[test]
    fn states_match_paper_structure() {
        // The running example has 6 automaton states (Fig. 5 of the
        // CC'18 background; the same grammar without constraints).
        let mut auto = demo_automaton();
        let (f, _) = forest_of("(StoreI8 (ConstI8 0) (AddI8 (LoadI8 (ConstI8 0)) (ConstI8 5)))");
        auto.label_forest(&f).unwrap();
        let (f2, _) = forest_of("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        auto.label_forest(&f2).unwrap();
        // Reg-leaf, Load, Plus(load,reg), Plus(reg,reg), Store(rmw), Store.
        assert_eq!(auto.stats().states, 6);
    }

    #[test]
    fn uncovered_node_errors() {
        let mut auto = demo_automaton();
        let (f, root) = forest_of("(MulF8 (ConstF8 #1.0) (ConstF8 #2.0))");
        let err = auto.label_forest(&f).unwrap_err();
        match err {
            LabelError::NoCover { node, .. } => assert!(node <= root),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn state_budget_enforced() {
        let g = parse_grammar(DEMO).unwrap().normalize();
        let mut auto = OnDemandAutomaton::with_config(
            Arc::new(g),
            OnDemandConfig {
                state_budget: 1,
                ..OnDemandConfig::default()
            },
        );
        let (f, _) = forest_of("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        assert!(matches!(
            auto.label_forest(&f),
            Err(LabelError::StateBudgetExceeded { budget: 1 })
        ));
    }

    #[test]
    fn an_unbounded_byte_budget_flushes_on_the_state_budget_alone() {
        let g = parse_grammar(DEMO).unwrap().normalize();
        let mut auto = OnDemandAutomaton::with_config(
            Arc::new(g),
            OnDemandConfig {
                state_budget: 2,
                memory_budget: Some(MemoryBudget::flush(usize::MAX)),
            },
        );
        // Tables that grow but stay within the state budget never flush.
        let (add, _) = forest_of("(AddI8 (ConstI8 1) (ConstI8 2))");
        for _ in 0..3 {
            auto.label_forest(&add).unwrap();
        }
        assert_eq!(auto.stats().states, 2);
        assert_eq!(auto.counters().flushes, 0);
        // A forest that overflows the state budget flushes once and
        // labels in the new epoch.
        let (load, _) = forest_of("(LoadI8 (ConstI8 1))");
        auto.label_forest(&load).unwrap();
        assert_eq!(auto.counters().flushes, 1);
        assert_eq!(auto.epoch(), 1);
    }

    #[test]
    fn operand_classes_share_projections() {
        let mut auto = demo_automaton();
        let [load, store, add] = ["LoadI8", "StoreI8", "AddI8"].map(|o| o.parse::<Op>().unwrap());
        let g = Arc::clone(auto.grammar());
        // `StoreI8` operand 0 and `LoadI8` operand 0 both take `addr`:
        // one class. `AddI8` operand 0 takes `reg` and the RMW helper's
        // load, so it has a class of its own.
        assert_eq!(g.operand_class(store, 0), g.operand_class(load, 0));
        assert_ne!(g.operand_class(store, 0), g.operand_class(add, 0));
        let (f, _) = forest_of("(StoreI8 (ConstI8 0) (ConstI8 1))");
        auto.label_forest(&f).unwrap();
        let (projections, cached) = (auto.projections.len(), auto.tables.projection_count());
        // The constant's state, projected as a store address, hits as a
        // load address: no projection is interned, no entry memoized.
        let (f, _) = forest_of("(LoadI8 (ConstI8 0))");
        auto.label_forest(&f).unwrap();
        assert_eq!(auto.projections.len(), projections);
        assert_eq!(auto.tables.projection_count(), cached);
        // Under another class the same state projects anew.
        let (f, _) = forest_of("(AddI8 (ConstI8 0) (ConstI8 1))");
        auto.label_forest(&f).unwrap();
        assert!(auto.tables.projection_count() > cached);
    }

    #[test]
    fn compact_evicts_cold_and_keeps_hot() {
        let mut auto = demo_automaton();
        let (hot, _) = forest_of("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        let (cold, _) = forest_of("(StoreI8 (ConstI8 0) (LoadI8 (ConstI8 4)))");
        // Make the add-shaped working set hot, touch the load shape once.
        for _ in 0..8 {
            auto.label_forest(&hot).unwrap();
        }
        auto.label_forest(&cold).unwrap();
        let before = auto.accounted_bytes().total();
        let epoch_before = auto.epoch();

        // A target just below the current footprint evicts exactly the
        // coldest tail that no longer fits — the load shape, touched
        // once, goes first.
        let stats = auto.compact(before - 1, &[]);
        assert!(stats.evicted_states > 0, "{stats:?}");
        assert!(stats.bytes_after < before, "{stats:?}");
        assert_eq!(auto.epoch(), epoch_before + 1, "compaction starts an epoch");
        assert_eq!(auto.counters().compactions, 1);
        assert_eq!(auto.counters().states_evicted, stats.evicted_states as u64);

        // The hot working set survived: relabeling it misses nothing.
        auto.reset_counters();
        auto.label_forest(&hot).unwrap();
        assert_eq!(auto.counters().memo_misses, 0, "hot set must survive");
        // The cold shape was evicted and re-learns (correctly) on a miss.
        auto.label_forest(&cold).unwrap();
        assert!(auto.counters().memo_misses > 0, "cold set must be evicted");
    }

    #[test]
    fn compact_policy_keeps_bytes_under_budget() {
        // A grammar whose dynamic cost depends on the constant's value:
        // every distinct constant interns a new signature and mints new
        // transitions, so the tables grow without bound — unless
        // governed.
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
                odburg_grammar::RuleCost::Finite((v.unsigned_abs() % 999) as u16)
            }),
        )
        .unwrap();
        let byte_budget = 16 * 1024;
        let mut auto = OnDemandAutomaton::with_config(
            Arc::new(g.normalize()),
            OnDemandConfig {
                memory_budget: Some(MemoryBudget::compact(byte_budget, 0.5)),
                ..OnDemandConfig::default()
            },
        );
        for k in 0..400 {
            let (f, _) = forest_of(&format!("(StoreI8 (ConstI8 {k}) (ConstI8 {}))", k + 1000));
            auto.label_forest(&f).unwrap();
            assert!(
                auto.accounted_bytes().total() <= byte_budget,
                "bytes exceeded the budget after forest {k}"
            );
        }
        assert!(
            auto.counters().compactions > 0,
            "churn must trigger compaction"
        );
    }

    #[test]
    fn dynamic_costs_split_states() {
        let g = parse_grammar(
            r#"
            %start reg
            %dyncost imm8
            reg: ConstI8 [imm8]
            reg: ConstI8 (4)
            reg: AddI8(reg, reg) (1)
            "#,
        )
        .unwrap();
        let mut g = g;
        g.bind_dyncost(
            "imm8",
            Arc::new(|forest, node| match forest.node(node).payload().as_int() {
                Some(v) if (-128..128).contains(&v) => RuleCost::Finite(1),
                _ => RuleCost::Infinite,
            }),
        )
        .unwrap();
        let mut auto = OnDemandAutomaton::new(Arc::new(g.normalize()));
        let (f, _) = forest_of("(AddI8 (ConstI8 5) (ConstI8 5000))");
        let labeling = auto.label_forest(&f).unwrap();
        // The two constants must be in different states: one uses the
        // immediate rule, the other the expensive rule.
        assert_ne!(labeling.state_of(NodeId(0)), labeling.state_of(NodeId(1)));
        assert!(auto.stats().signatures >= 3); // empty + applicable + not
    }
}
