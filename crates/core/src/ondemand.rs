//! The on-demand tree-parsing automaton — the contribution of the
//! reproduced paper.
//!
//! The automaton starts empty. To label a node the labeler forms the
//! transition key *(operator, child states, dynamic-cost signature)* and
//! looks it up in the operator's slot table (see `dense.rs`):
//!
//! * **hit** (the overwhelmingly common case once the automaton has
//!   warmed up): the node's state is the cached one — labeling cost is a
//!   single bounded probe, like an offline automaton;
//! * **miss**: the state is computed right here with one
//!   dynamic-programming step ([`compute_state`]), hash-consed, memoized,
//!   and used — the cost of an iburg-style labeler, paid once per
//!   distinct transition instead of once per node.
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
use crate::snapshot::{self, AutomatonSnapshot, DynEvalTable, MAX_ARITY, NO_CHILD};
use crate::state::{StateData, StateId, StateSet};

/// What to do when the automaton outgrows its budget.
///
/// One ladder applies the policy to every forest, on the single-threaded
/// [`OnDemandAutomaton`] and the shared
/// [`SharedOnDemand`](crate::SharedOnDemand) alike, so both take the same
/// flushes and compactions for the same forests.
#[derive(Debug, Clone, Copy, Default)]
pub enum BudgetPolicy {
    /// Fail with [`LabelError::StateBudgetExceeded`].
    #[default]
    Error,
    /// Flush every state, transition and signature and relabel the
    /// current forest from scratch — bounded memory at the price of
    /// re-warming (the memory-management strategy a long-running JIT
    /// wants). Applies to whole forests
    /// ([`label_forest`](Labeler::label_forest)); the incremental
    /// [`OnDemandAutomaton::label_node`] path still reports the error
    /// because its caller holds state ids a flush would invalidate.
    ///
    /// # Epoch semantics under the snapshot-based shared automaton
    ///
    /// A flush starts a new **epoch** (see
    /// [`OnDemandAutomaton::epoch`]): the state arena, transition table
    /// and signature interner are replaced, so state ids from different
    /// epochs are unrelated values. The concurrent
    /// [`SharedOnDemand`](crate::SharedOnDemand) handles this without
    /// ever invalidating in-flight readers:
    ///
    /// * every published [`AutomatonSnapshot`] carries its epoch, and a
    ///   replaced snapshot stays alive exactly as long as something can
    ///   still reference it — a reader that loaded it before the flush
    ///   keeps labeling against its frozen tables, and a pinned labeling
    ///   keeps its epoch's tables alive indefinitely; replaced snapshots
    ///   nothing references are dropped on the next publication;
    /// * a reader entering the writer lock compares its snapshot's epoch
    ///   with the master's and restarts the forest from scratch on a
    ///   mismatch (labelings never mix state ids across epochs);
    /// * callers that hold labelings across forests should use
    ///   [`SharedOnDemand::label_forest_pinned`](crate::SharedOnDemand::label_forest_pinned),
    ///   which returns the labeling together with the exact snapshot it
    ///   refers to.
    Flush,
    /// Keep the tables under a **byte budget** by evicting cold states
    /// instead of wiping everything: when a forest leaves the accounted
    /// bytes ([`OnDemandAutomaton::accounted_bytes`]) above
    /// `byte_budget`, a single-writer [compaction](crate::govern) pass
    /// rebuilds the tables retaining only the hottest states that fit
    /// `retain_fraction * byte_budget` bytes, remapping state,
    /// projection and signature ids into a **new epoch**, and the forest
    /// is relabeled in it.
    ///
    /// Epoch semantics are exactly [`BudgetPolicy::Flush`]'s — a
    /// compaction bumps the epoch, in-flight readers of the shared
    /// automaton finish against their frozen snapshot, and pinned
    /// labelings keep their epoch's tables alive — but warm states
    /// survive, so steady-state miss rates stay close to the unbounded
    /// automaton's. A state-budget overflow under this policy also
    /// compacts and retries the forest once, mirroring `Flush`; the
    /// byte check then runs on the retry's tables.
    Compact {
        /// Accounted table bytes above which the automaton compacts.
        byte_budget: usize,
        /// Fraction of `byte_budget` the compacted tables may occupy
        /// (clamped to `0.05..=1.0`); the rest is headroom for regrowth
        /// before the next pass.
        retain_fraction: f32,
    },
}

impl BudgetPolicy {
    /// The relief step the grow path runs when the automaton outgrows
    /// this policy; `None` under `Error`. `Flush` has no byte ceiling:
    /// only the state budget trips it.
    fn relief(self) -> Option<MemoryBudget> {
        match self {
            BudgetPolicy::Error => None,
            BudgetPolicy::Flush => Some(MemoryBudget::flush(usize::MAX)),
            BudgetPolicy::Compact {
                byte_budget,
                retain_fraction,
            } => Some(MemoryBudget::compact(byte_budget, retain_fraction)),
        }
    }
}

// Manual impls because `retain_fraction` is an `f32`: two policies are
// equal when their fractions are bit-identical, which is reflexive (the
// CLI and persist layer only produce finite fractions).
impl PartialEq for BudgetPolicy {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (BudgetPolicy::Error, BudgetPolicy::Error)
            | (BudgetPolicy::Flush, BudgetPolicy::Flush) => true,
            (
                BudgetPolicy::Compact {
                    byte_budget: a,
                    retain_fraction: x,
                },
                BudgetPolicy::Compact {
                    byte_budget: b,
                    retain_fraction: y,
                },
            ) => a == b && x.to_bits() == y.to_bits(),
            _ => false,
        }
    }
}

impl Eq for BudgetPolicy {}

/// Configuration of an [`OnDemandAutomaton`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnDemandConfig {
    /// Project child states onto the operand nonterminals of the operator
    /// before forming the transition key.
    ///
    /// Projection adds one cache probe per child but makes more nodes
    /// share transitions (the offline automaton's *representer state*
    /// compression applied lazily). Default: `false` — the paper's direct
    /// `(op, child states)` key.
    pub project_children: bool,
    /// Maximum number of states before labeling fails with
    /// [`LabelError::StateBudgetExceeded`]. Guards against grammars whose
    /// automata do not converge.
    pub state_budget: usize,
    /// What happens when the budget is hit.
    pub budget_policy: BudgetPolicy,
}

impl Default for OnDemandConfig {
    fn default() -> Self {
        OnDemandConfig {
            project_children: false,
            state_budget: 1 << 20,
            budget_policy: BudgetPolicy::Error,
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
    /// Times the automaton was flushed by [`BudgetPolicy::Flush`] or
    /// [`OnDemandAutomaton::clear`].
    pub flushes: usize,
    /// Heat-guided [compaction](crate::govern) passes run so far.
    pub compactions: usize,
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
    /// Transition groups, projection table and signature interner, in
    /// the slot layout snapshots share copy-on-write (see `dense.rs`).
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
    flushes: usize,
    compactions: usize,
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
            flushes: 0,
            compactions: 0,
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
        self.flushes += 1;
        self.counters.flushes += 1;
    }

    /// The grammar this automaton selects for.
    pub fn grammar(&self) -> &Arc<NormalGrammar> {
        &self.grammar
    }

    /// The current epoch. State ids are only meaningful within one
    /// epoch; a [`clear`](OnDemandAutomaton::clear) (or a
    /// [`BudgetPolicy::Flush`]) and a
    /// [`compact`](OnDemandAutomaton::compact) (or a
    /// [`BudgetPolicy::Compact`]) each start the next one.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Freezes the automaton's current tables into an immutable
    /// [`AutomatonSnapshot`].
    ///
    /// Nothing is copied: the snapshot shares the state data and every
    /// slot array of the transition groups, projection table and
    /// signature interner by reference count, so publication costs
    /// O(operator groups + states). The master copies a shared slot
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
            flushes: 0,
            compactions: 0,
            heat: vec![0; snapshot.states_arena().len()],
        }
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
            flushes: self.flushes,
            compactions: self.compactions,
        }
    }

    /// Per-component byte accounting of the current tables — the number
    /// [`BudgetPolicy::Compact`] and service [`MemoryBudget`]s compare
    /// against. Computed the same way for live masters, published
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
    /// [`BudgetPolicy::Compact`] for when this runs automatically.
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
                project_children: self.config.project_children,
            },
            &combined,
            target_bytes,
        );
        self.states = StateSet::from_arena(compacted.states);
        self.projections = StateSet::from_arena(compacted.projections);
        self.tables = compacted.tables;
        self.heat = compacted.heat;
        self.epoch += 1;
        self.compactions += 1;
        self.counters.compactions += 1;
        self.counters.states_evicted += compacted.stats.evicted_states as u64;
        compacted.stats
    }

    /// The data of a state.
    pub fn state(&self, id: StateId) -> &StateData {
        self.states.get(id)
    }

    /// Labels a single node given its children's states.
    ///
    /// Exposed for incremental drivers (JITs that label while building the
    /// forest); most callers use
    /// [`label_forest`](OnDemandAutomaton::label_forest).
    ///
    /// # Errors
    ///
    /// [`LabelError::NoCover`] if the grammar cannot derive the node at
    /// all, [`LabelError::StateBudgetExceeded`] if the automaton grew past
    /// its budget.
    pub fn label_node(
        &mut self,
        forest: &Forest,
        node: NodeId,
        kid_states: &[StateId],
    ) -> Result<StateId, LabelError> {
        let op = forest.node(node).op();
        // Transition-key invariant (see `snapshot::MAX_ARITY`): a wider
        // operator would silently truncate the key and alias transitions.
        debug_assert!(
            op.arity() <= MAX_ARITY,
            "operator {op} has arity {} beyond what a transition key can hold",
            op.arity()
        );
        debug_assert_eq!(
            kid_states.len(),
            op.arity(),
            "label_node takes exactly op.arity() child states"
        );
        self.counters.nodes += 1;

        // 1. Evaluate dynamic costs into the scratch buffer and intern
        //    the signature (fast: most grammars have no dynamic rules at
        //    most operators).
        let sig = self.evaluate_signature(forest, node, op);

        // 2. The fast path: one bounded probe.
        let mut kids = [NO_CHILD; MAX_ARITY];
        for (i, &k) in kid_states.iter().enumerate() {
            kids[i] = if self.config.project_children {
                self.project_child(op, i, k).0
            } else {
                k.0
            };
        }
        self.counters.hash_lookups += 1;
        if let Some(state) = self.tables.lookup(op.id().0, kids, sig) {
            self.counters.memo_hits += 1;
            self.touch(state);
            return Ok(state);
        }

        // 3. The slow path: compute, intern, memoize.
        self.counters.memo_misses += 1;
        let state = self.build_state(op, kids, kid_states)?;
        let dead = self.states.get(state).is_dead();
        self.tables
            .insert_transition(op.id().0, kids, sig, state, dead);
        self.touch(state);
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

    /// Evaluates the dynamic rules relevant at `node` into the scratch
    /// buffer (where the slow path reads them back) and interns their
    /// signature.
    fn evaluate_signature(&mut self, forest: &Forest, node: NodeId, op: Op) -> SigId {
        if !self.dyn_eval.eval(forest, node, op, &mut self.scratch) {
            return SigId::EMPTY;
        }
        self.counters.dyncost_evals += self.scratch.len() as u64;
        self.counters.hash_lookups += 1;
        self.tables.signatures.intern(&self.scratch)
    }

    fn project_child(&mut self, op: Op, pos: usize, kid: StateId) -> StateId {
        let (opid, pos) = (op.id().0, pos as u8);
        self.counters.hash_lookups += 1;
        if let Some(p) = self.tables.project(kid, opid, pos) {
            return p;
        }
        let projected = self
            .states
            .get(kid)
            .project(self.grammar.operand_nts(op, pos as usize));
        let (pid, _) = self.projections.intern(projected);
        self.tables.insert_projection(kid, opid, pos, pid);
        pid
    }

    /// Computes, interns and budget-checks the state of a node whose
    /// signature was just evaluated: its dynamic costs are still in the
    /// scratch buffer.
    fn build_state(
        &mut self,
        op: Op,
        kids: [u32; MAX_ARITY],
        kid_states: &[StateId],
    ) -> Result<StateId, LabelError> {
        // Gather child state data (projected or full, matching the key).
        let kid_data: Vec<&StateData> = if self.config.project_children {
            kids[..op.arity()]
                .iter()
                .map(|&k| self.projections.get(StateId(k)))
                .collect()
        } else {
            kid_states.iter().map(|&k| self.states.get(k)).collect()
        };
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
    /// a prefix already resolved in the current epoch) and applies the
    /// [`BudgetPolicy`]:
    ///
    /// 1. a state-budget overflow returns the error under `Error`; under
    ///    `Flush` and `Compact` it [relieves](Self::relieve) the tables
    ///    and relabels the forest from scratch once (a second overflow
    ///    means the forest alone exceeds the budget);
    /// 2. then, under `Compact`, a forest that moved the freshness key
    ///    and left the accounted bytes above `byte_budget` compacts and
    ///    relabels once more, so the ids handed back belong to the epoch
    ///    the automaton is left in. The key gate keeps forests that
    ///    added no entry from paying the O(tables) accounting sweep.
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
        let Some(relief) = self.config.budget_policy.relief() else {
            return outcome;
        };
        if matches!(outcome, Err(LabelError::StateBudgetExceeded { .. })) {
            self.relieve(&relief, &heat);
            states.clear();
            outcome = self.label_from(forest, states);
        }
        if outcome.is_ok()
            && matches!(relief.action, PressureAction::Compact { .. })
            && self.freshness() != entry
            && self.accounted_bytes().total() > relief.byte_budget
        {
            // This forest's states are at peak heat, so its working set
            // survives the compaction and the relabel is cheap.
            self.relieve(&relief, &heat);
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

    /// Labels `forest` from node `states.len()` onward, one
    /// [`label_node`](Self::label_node) per node.
    fn label_from(&mut self, forest: &Forest, states: &mut Vec<StateId>) -> Result<(), LabelError> {
        let mut kid_buf: Vec<StateId> = Vec::with_capacity(MAX_ARITY);
        for idx in states.len()..forest.len() {
            let id = NodeId(idx as u32);
            let node = forest.node(id);
            kid_buf.clear();
            kid_buf.extend(node.children().iter().map(|c| states[c.index()]));
            let state = self.label_node(forest, id, &kid_buf)?;
            if self.states.get(state).is_dead() {
                return Err(LabelError::NoCover {
                    node: id,
                    op: node.op(),
                });
            }
            states.push(state);
        }
        Ok(())
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
    fn projection_mode_shares_more() {
        let (f, _) = forest_of("(StoreI8 (ConstI8 0) (AddI8 (LoadI8 (ConstI8 0)) (ConstI8 5)))");
        let g = Arc::new(parse_grammar(DEMO).unwrap().normalize());
        let mut direct = OnDemandAutomaton::new(g.clone());
        direct.label_forest(&f).unwrap();
        let mut projected = OnDemandAutomaton::with_config(
            g,
            OnDemandConfig {
                project_children: true,
                ..OnDemandConfig::default()
            },
        );
        projected.label_forest(&f).unwrap();
        // Both must produce the same number of *states*; projection can
        // only reduce the number of distinct transitions, never change
        // the states' semantics.
        assert_eq!(direct.stats().states, projected.stats().states);
        assert!(projected.stats().transitions <= direct.stats().transitions);
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
        assert_eq!(auto.stats().compactions, 1);
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
                budget_policy: BudgetPolicy::Compact {
                    byte_budget,
                    retain_fraction: 0.5,
                },
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
            auto.stats().compactions > 0,
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
