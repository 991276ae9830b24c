//! The thread-safe shared on-demand automaton for concurrent JIT
//! compilation.
//!
//! [`SharedOnDemand`] is a **snapshot-based concurrent core**. The
//! automaton's tables are published as an immutable
//! [`AutomatonSnapshot`] behind an atomically swappable pointer
//! ([`arc_swap::ArcSwap`]); reader threads label entire forests against
//! the current snapshot with **zero locks and zero shared-memory
//! writes** (one atomic pointer load per forest, one atomic counter
//! merge at the end). Only a forest that contains a transition the
//! snapshot has not seen enters the single-writer grow path: the
//! mutable master automaton behind a mutex resumes the forest where the
//! lock-free walk stopped — through the same grow function, and so the
//! same budget-policy ladder, as a single-threaded
//! [`OnDemandAutomaton`] — and publishes a fresh snapshot. Publication
//! copies no table: the snapshot shares the master's slot arrays, and
//! the master copies an array only when it next grows one a snapshot
//! still holds (see `dense.rs`), so a publication costs O(operator
//! groups + states) and the grow path copies only what a forest
//! touched. The warmer the automaton, the closer every thread is to
//! private table lookups — which is the paper's convergence argument
//! carried over to the memory system.
//!
//! Why the snapshot core scales: warm readers touch no shared cache line
//! at all (the pointer load plus one hazard slot), where a lock around
//! the whole automaton would bounce its reader count between cores on
//! every forest; and a cold forest blocks nobody — readers keep
//! answering from the still-current snapshot while the writer grows the
//! master.
//!
//! Replaced snapshots are reclaimed on publication unless something can
//! still reference them: a reader mid-forest (hazard-protected) or a
//! [`PinnedLabeling`]. The retire list is therefore bounded by live
//! pins, not by the number of publications — see the `arc_swap` shim
//! docs for the reclamation protocol.

use std::sync::Arc;

use arc_swap::ArcSwap;
use parking_lot::Mutex;

use odburg_grammar::{NormalRuleId, NtId};
use odburg_ir::{Forest, NodeId};

use crate::counters::{AtomicWorkCounters, WorkCounters};
use crate::govern::{ComponentBytes, MemoryBudget, PressureEvent};
use crate::label::{LabelError, Labeler, Labeling, StateChooser, StateLookup};
use crate::ondemand::{OnDemandAutomaton, OnDemandConfig};
use crate::snapshot::AutomatonSnapshot;
use crate::state::StateId;

/// Why [`SharedOnDemand::install_snapshot`] refused a shipped snapshot.
///
/// Installation is the replication receive path: a remote writer's
/// published tables arriving at a read replica. Every refusal is typed —
/// a replica never silently falls back to a cold start, because the
/// caller must decide whether a mismatch is fatal (wrong grammar on the
/// wire) or benign (an out-of-order shipment that newer tables already
/// supersede).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// The shipped tables were built under a different grammar.
    GrammarMismatch {
        /// Fingerprint of the grammar this automaton runs.
        expected: u64,
        /// Fingerprint carried by the shipped snapshot.
        found: u64,
    },
    /// The shipped tables were built under a different configuration
    /// (projection mode or budget policy), so their state space is not
    /// interchangeable with ours.
    ConfigMismatch {
        /// Configuration this automaton runs.
        expected: OnDemandConfig,
        /// Configuration carried by the shipped snapshot.
        found: OnDemandConfig,
    },
    /// The shipped snapshot is not strictly newer than what is already
    /// published: its `(epoch, entries)` pair is `<=` ours, where
    /// `entries` totals the states, projections, transitions,
    /// projection-cache entries and signatures. Within an epoch every
    /// table is append-only, so more entries means newer — tables that
    /// grew only transitions or signatures count as newer too; across
    /// epochs the epoch counter decides.
    Stale {
        /// `(epoch, entries)` of the currently published snapshot.
        current: (u64, usize),
        /// `(epoch, entries)` of the refused shipment.
        shipped: (u64, usize),
    },
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::GrammarMismatch { expected, found } => write!(
                f,
                "shipped tables belong to grammar {found:#018x}, automaton runs {expected:#018x}"
            ),
            InstallError::ConfigMismatch { expected, found } => write!(
                f,
                "shipped tables built under {found:?}, automaton runs {expected:?}"
            ),
            InstallError::Stale { current, shipped } => write!(
                f,
                "shipped snapshot (epoch {}, {} table entries) is not newer than \
                 published (epoch {}, {} table entries)",
                shipped.0, shipped.1, current.0, current.1
            ),
        }
    }
}

impl std::error::Error for InstallError {}

/// The snapshot-based shared on-demand automaton.
///
/// Wrap it in an `Arc` and hand clones to compilation threads. Readers
/// label lock-free against the published [`AutomatonSnapshot`]; a forest
/// with a transition the snapshot lacks enters the single-writer grow
/// path, which labels the rest of it on the master automaton and
/// publishes a fresh snapshot.
///
/// # Examples
///
/// ```
/// use odburg_core::{OnDemandAutomaton, SharedOnDemand};
/// use odburg_grammar::parse_grammar;
/// use odburg_ir::{parse_sexpr, Forest};
/// use std::sync::Arc;
///
/// let g = parse_grammar("%start reg\nreg: ConstI8 (1)\nreg: AddI8(reg, reg) (1)\n")?;
/// let shared = Arc::new(SharedOnDemand::new(OnDemandAutomaton::new(
///     Arc::new(g.normalize()),
/// )));
/// let mut handles = Vec::new();
/// for _ in 0..4 {
///     let shared = Arc::clone(&shared);
///     handles.push(std::thread::spawn(move || {
///         let mut f = Forest::new();
///         let root = parse_sexpr(&mut f, "(AddI8 (ConstI8 1) (ConstI8 2))").unwrap();
///         f.add_root(root);
///         shared.label_forest(&f).unwrap();
///     }));
/// }
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert_eq!(shared.stats().states, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SharedOnDemand {
    /// The published snapshot readers label against. A replaced snapshot
    /// is retired and stays alive exactly as long as something can still
    /// reference it — a reader mid-forest, or a [`PinnedLabeling`]
    /// holding it; every other replaced snapshot is dropped on the next
    /// publication, so grow-churn workloads do not accumulate dead
    /// tables. See [`BudgetPolicy::Flush`](crate::BudgetPolicy::Flush) for the epoch interaction.
    current: ArcSwap<AutomatonSnapshot>,
    /// The mutable master automaton — the single-writer grow path.
    writer: Mutex<OnDemandAutomaton>,
    /// Lock-free work counters of the fast path.
    counters: AtomicWorkCounters,
    /// Optional telemetry emitter (see [`crate::telemetry`]): when
    /// attached, epoch publications and governor actions leave
    /// flight-recorder events. Off the labeling hot path — only the
    /// writer-side publish/enforce paths touch it.
    events: Mutex<Option<crate::telemetry::EventScope>>,
}

/// A labeling pinned to the exact snapshot its state ids refer to.
///
/// Returned by [`SharedOnDemand::label_forest_pinned`]; this is the
/// flush-safe way to hold labelings across forests, because the pinned
/// snapshot keeps its epoch's tables alive regardless of how often the
/// shared automaton is flushed afterwards.
#[derive(Debug)]
pub struct PinnedLabeling {
    snapshot: Arc<AutomatonSnapshot>,
    labeling: Labeling,
}

impl PinnedLabeling {
    /// The per-node states.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// The snapshot the state ids belong to.
    pub fn snapshot(&self) -> &Arc<AutomatonSnapshot> {
        &self.snapshot
    }

    /// The state assigned to `node`, resolved against the pinned
    /// snapshot.
    pub fn state_data(&self, node: NodeId) -> &crate::StateData {
        self.snapshot.state(self.labeling.state_of(node))
    }

    /// A [`RuleChooser`](crate::RuleChooser) over the pinned snapshot.
    pub fn chooser(&self) -> StateChooser<'_, AutomatonSnapshot> {
        self.labeling.chooser(&self.snapshot)
    }
}

impl SharedOnDemand {
    /// Wraps an automaton for shared use, publishing its current tables
    /// as the initial snapshot.
    pub fn new(automaton: OnDemandAutomaton) -> Self {
        SharedOnDemand {
            current: ArcSwap::new(Arc::new(automaton.snapshot())),
            writer: Mutex::new(automaton),
            counters: AtomicWorkCounters::new(),
            events: Mutex::new(None),
        }
    }

    /// Warm-starts a shared automaton from a previously built (e.g.
    /// [imported](crate::persist)) snapshot: the snapshot is published
    /// as-is for lock-free readers and the master automaton is
    /// reconstructed from its tables, so workloads the snapshot has
    /// already seen never enter the grow path.
    pub fn with_seed_snapshot(snapshot: Arc<AutomatonSnapshot>) -> Self {
        let master = OnDemandAutomaton::from_snapshot(&snapshot);
        SharedOnDemand {
            current: ArcSwap::new(snapshot),
            writer: Mutex::new(master),
            counters: AtomicWorkCounters::new(),
            events: Mutex::new(None),
        }
    }

    /// Attaches a telemetry emitter: from now on, snapshot publications
    /// record [`crate::telemetry::EventKind::EpochPublish`] and governor
    /// actions record `Compact`/`Flush` in the scope's flight-recorder
    /// lane. Idempotent; replaces any previous scope.
    pub fn attach_telemetry(&self, scope: crate::telemetry::EventScope) {
        *self.events.lock() = Some(scope);
    }

    /// Labels a forest. On the warm path (every transition present in
    /// the current snapshot) this takes **no lock**: one atomic pointer
    /// load, immutable reads, one atomic counter merge.
    ///
    /// # Errors
    ///
    /// Same as [`OnDemandAutomaton::label_forest`].
    pub fn label_forest(&self, forest: &Forest) -> Result<Labeling, LabelError> {
        let snap = self.current.load();
        let (states, _) = self.label_core(&snap, forest)?;
        Ok(Labeling::from_states(states))
    }

    /// Labels a forest and pins the snapshot the resulting state ids
    /// refer to. Use this when labelings outlive the next flush (see
    /// [`BudgetPolicy::Flush`](crate::BudgetPolicy::Flush)).
    ///
    /// # Errors
    ///
    /// Same as [`OnDemandAutomaton::label_forest`].
    pub fn label_forest_pinned(&self, forest: &Forest) -> Result<PinnedLabeling, LabelError> {
        let snap = self.current.load_full();
        let (states, published) = self.label_core(&snap, forest)?;
        Ok(PinnedLabeling {
            snapshot: published.unwrap_or(snap),
            labeling: Labeling::from_states(states),
        })
    }

    /// The shared labeling algorithm: fast path against `snap`, slow
    /// path through the writer. Returns the per-node states and, if the
    /// slow path ran, the snapshot it published (whose epoch the states
    /// belong to).
    fn label_core(
        &self,
        snap: &AutomatonSnapshot,
        forest: &Forest,
    ) -> Result<(Vec<StateId>, Option<Arc<AutomatonSnapshot>>), LabelError> {
        let mut local = WorkCounters::new();

        // Fast path: level-batched walk over the snapshot's slot tables
        // — no locks, no hashing, one bounded probe per node (see
        // [`AutomatonSnapshot::label_warm`]). A miss hands the longest
        // resolved arena prefix to the grow path, exactly as the
        // per-node walk did.
        let walk = snap.label_warm(forest, &mut local);
        if let Some(id) = walk.nocover {
            self.counters.merge(&local);
            return Err(LabelError::NoCover {
                node: id,
                op: forest.node(id).op(),
            });
        }
        let mut states = walk.states;

        // Heat: one relaxed add per fast-path-resolved state, merged
        // here once per forest so the hot loop itself stays write-free.
        snap.record_heat(&states);

        // Warm path: everything answered from the snapshot.
        if states.len() == forest.len() {
            self.counters.merge(&local);
            return Ok((states, None));
        }

        // Slow path: single-writer grow, then publish a new snapshot.
        let result = {
            let mut master = self.writer.lock();

            // A flush or compaction may have started a new epoch since
            // our snapshot was loaded; prefix state ids would then be
            // meaningless in the master, so relabel the forest from the
            // top. (Within an epoch the master is append-only, so the
            // prefix is valid.)
            if master.epoch() != snap.epoch() {
                states.clear();
            }

            // The one grow path and budget-policy ladder; a compaction
            // folds in the published snapshot's fast-path heat. It
            // relabels after any compaction, so the states handed back
            // never alias a remapped id in the published snapshot.
            let outcome = master.grow(forest, &mut states, |epoch| self.published_heat(epoch));

            // Publish what the writer learned — also on failure: dead
            // states and new epochs must reach the snapshot so repeated
            // errors (and post-flush/compaction forests) are answered
            // lock-free. The returned labeling's ids belong to exactly
            // this snapshot.
            let published = self.publish(&master);
            outcome.map(|()| published)
        };

        self.counters.merge(&local);
        Ok((states, Some(result?)))
    }

    /// Publishes the master's tables — sharing, not copying, their slot
    /// arrays — carrying the replaced snapshot's fast-path heat forward
    /// when both belong to the same epoch (the arena is append-only
    /// within an epoch, so ids line up).
    fn publish(&self, master: &OnDemandAutomaton) -> Arc<AutomatonSnapshot> {
        let snap = Arc::new(master.snapshot());
        snap.adopt_heat(&self.current.load());
        self.current.store(Arc::clone(&snap));
        if let Some(scope) = self.events.lock().as_ref() {
            scope.emit(crate::telemetry::EventKind::EpochPublish, snap.epoch());
        }
        snap
    }

    /// Installs a snapshot shipped from a remote writer, publishing it
    /// through the same epoch/hazard-pointer path a local grow or
    /// compaction uses: readers mid-forest and [`PinnedLabeling`]s keep
    /// their pinned snapshot alive and unchanged, new readers see the
    /// shipped tables on their next pointer load. The master automaton is
    /// rebuilt from the shipped tables, so traffic the remote writer has
    /// already seen never enters the grow path here.
    ///
    /// The shipment is fenced, not trusted: it must carry our grammar
    /// fingerprint and configuration, and must be *strictly newer* than
    /// the published snapshot under the lexicographic `(epoch, entries)`
    /// order (see [`InstallError::Stale`]) — a late broadcast from a
    /// deposed writer, or a re-delivered duplicate, is rejected as
    /// [`InstallError::Stale`] without disturbing the published tables.
    ///
    /// Returns the installed snapshot's epoch.
    ///
    /// # Errors
    ///
    /// [`InstallError`] when the shipment is refused; the automaton is
    /// unchanged in every error case.
    pub fn install_snapshot(&self, snapshot: Arc<AutomatonSnapshot>) -> Result<u64, InstallError> {
        let current = self.current.load();
        let expected_fp = current.grammar().fingerprint();
        let found_fp = snapshot.grammar().fingerprint();
        if found_fp != expected_fp {
            return Err(InstallError::GrammarMismatch {
                expected: expected_fp,
                found: found_fp,
            });
        }
        if snapshot.config() != current.config() {
            return Err(InstallError::ConfigMismatch {
                expected: current.config(),
                found: snapshot.config(),
            });
        }
        let fence = |cur: &AutomatonSnapshot| {
            let current_key = cur.freshness();
            let shipped_key = snapshot.freshness();
            if shipped_key <= current_key {
                Err(InstallError::Stale {
                    current: current_key,
                    shipped: shipped_key,
                })
            } else {
                Ok(())
            }
        };
        // Cheap pre-check before contending on the writer lock...
        fence(&current)?;
        drop(current);

        let mut master = self.writer.lock();
        // ...re-checked under it: a concurrent grow or install may have
        // published newer tables while we waited.
        fence(&self.current.load())?;
        *master = OnDemandAutomaton::from_snapshot(&snapshot);
        let epoch = snapshot.epoch();
        self.current.store(snapshot);
        if let Some(scope) = self.events.lock().as_ref() {
            scope.emit(crate::telemetry::EventKind::EpochPublish, epoch);
        }
        Ok(epoch)
    }

    /// The published snapshot's heat counters, when they still describe
    /// the master's `epoch` (empty otherwise — stale heat must not guide
    /// eviction in a newer epoch).
    fn published_heat(&self, epoch: u64) -> Vec<u32> {
        let current = self.current.load();
        if current.epoch() == epoch {
            current.heat_counts()
        } else {
            Vec::new()
        }
    }

    /// Runs one **maintenance quantum**: the off-path slot a serving
    /// worker gives this automaton *between* jobs. The quantum is
    /// counted ([`WorkCounters::maintenance_runs`]) whether or not
    /// anything needed doing, so a report can prove governance ran in
    /// worker quanta rather than on the submit/complete hot path.
    ///
    /// A `budget` is an externally supplied [`MemoryBudget`] (the
    /// selection service's per-target budgets), independent of the
    /// automaton's own [`BudgetPolicy`](crate::BudgetPolicy): when the
    /// accounted bytes exceed it, the grow path's relief step runs the
    /// configured [`PressureAction`](crate::PressureAction) — a flush
    /// wipes the tables, a compaction evicts the cold tail — and the
    /// result is published. Pinned labelings are unaffected either way
    /// (their snapshots stay alive). Returns what happened, or `None`
    /// when there is no budget or the tables fit.
    pub fn run_maintenance(&self, budget: Option<&MemoryBudget>) -> Option<PressureEvent> {
        self.counters.merge(&WorkCounters {
            maintenance_runs: 1,
            ..WorkCounters::default()
        });
        let budget = budget?;
        let mut master = self.writer.lock();
        let bytes_before = master.accounted_bytes().total();
        if bytes_before <= budget.byte_budget {
            return None;
        }
        master.relieve(budget, |epoch| self.published_heat(epoch));
        self.publish(&master);
        let event = PressureEvent {
            action: budget.action,
            bytes_before,
            bytes_after: master.accounted_bytes().total(),
        };
        if let Some(scope) = self.events.lock().as_ref() {
            scope.emit(event.action.event_kind(), event.bytes_after as u64);
        }
        Some(event)
    }

    /// Per-component byte accounting of the master's tables (takes the
    /// writer lock; intended for monitoring, not hot paths).
    pub fn accounted_bytes(&self) -> ComponentBytes {
        self.writer.lock().accounted_bytes()
    }

    /// Work accumulated by the snapshot fast path plus the master
    /// automaton's grow path.
    pub fn counters(&self) -> WorkCounters {
        let mut c = self.counters.snapshot();
        c.merge(&self.writer.lock().counters());
        c
    }

    /// Size statistics of the master automaton (the most recent tables,
    /// published or not).
    pub fn stats(&self) -> crate::OnDemandStats {
        self.writer.lock().stats()
    }

    /// The currently published snapshot, pinned.
    pub fn snapshot(&self) -> Arc<AutomatonSnapshot> {
        self.current.load_full()
    }

    /// Number of snapshots published by the grow path so far (a measure
    /// of grow-path activity).
    pub fn snapshots_published(&self) -> usize {
        self.current.store_count()
    }

    /// Number of replaced snapshots still held alive — bounded by the
    /// live [`PinnedLabeling`]s (plus readers momentarily mid-forest),
    /// not by the number of publications.
    pub fn snapshots_retained(&self) -> usize {
        self.current.retired_len()
    }

    /// Runs `f` with shared access to the master automaton. Takes the
    /// writer lock; intended for inspection, not for hot paths.
    pub fn with_read<R>(&self, f: impl FnOnce(&OnDemandAutomaton) -> R) -> R {
        f(&self.writer.lock())
    }
}

impl StateLookup for SharedOnDemand {
    /// Resolves against the currently published snapshot. Within an
    /// epoch this is always correct (ids are append-only). Across a
    /// [`BudgetPolicy::Flush`](crate::BudgetPolicy::Flush), a stale id degrades to `None` (the
    /// snapshot's lookup is bounds-checked) — prefer
    /// [`SharedOnDemand::label_forest_pinned`] when labelings outlive
    /// flushes.
    fn rule_in_state(&self, state: StateId, nt: NtId) -> Option<NormalRuleId> {
        self.current.load().rule_in_state(state, nt)
    }
}

impl Labeler for SharedOnDemand {
    type Output = Labeling;

    fn label_forest(&mut self, forest: &Forest) -> Result<Labeling, LabelError> {
        SharedOnDemand::label_forest(self, forest)
    }

    fn counters(&self) -> WorkCounters {
        SharedOnDemand::counters(self)
    }

    fn reset_counters(&mut self) {
        self.counters.reset();
        self.writer.get_mut().reset_counters();
    }

    fn name(&self) -> &'static str {
        "shared"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odburg_grammar::parse_grammar;
    use odburg_ir::parse_sexpr;
    use std::sync::Arc;

    use crate::ondemand::{BudgetPolicy, OnDemandConfig};

    fn demo_automaton() -> OnDemandAutomaton {
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
        OnDemandAutomaton::new(Arc::new(g))
    }

    fn shared_demo() -> SharedOnDemand {
        SharedOnDemand::new(demo_automaton())
    }

    fn forest(src: &str) -> Forest {
        let mut f = Forest::new();
        let root = parse_sexpr(&mut f, src).unwrap();
        f.add_root(root);
        f
    }

    #[test]
    fn fast_path_after_warmup() {
        let shared = shared_demo();
        let f = forest("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        shared.label_forest(&f).unwrap();
        let warm_states = shared.stats().states;
        let published = shared.snapshots_published();
        // Second pass must be answered entirely from the snapshot: no
        // state growth and no new publication.
        shared.label_forest(&f).unwrap();
        assert_eq!(shared.stats().states, warm_states);
        assert_eq!(shared.snapshots_published(), published);
    }

    #[test]
    fn cold_miss_publishes_one_snapshot_per_forest() {
        let shared = shared_demo();
        assert_eq!(shared.snapshots_published(), 0);
        shared
            .label_forest(&forest("(StoreI8 (ConstI8 0) (ConstI8 1))"))
            .unwrap();
        assert_eq!(shared.snapshots_published(), 1);
        shared
            .label_forest(&forest(
                "(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))",
            ))
            .unwrap();
        assert_eq!(shared.snapshots_published(), 2);
    }

    #[test]
    fn concurrent_labeling_agrees() {
        let shared = Arc::new(shared_demo());
        let sources = [
            "(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))",
            "(StoreI8 (ConstI8 0) (LoadI8 (ConstI8 8)))",
            "(StoreI8 (ConstI8 4) (AddI8 (LoadI8 (ConstI8 0)) (ConstI8 1)))",
        ];
        let mut handles = Vec::new();
        for _ in 0..4 {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                for src in sources {
                    let f = forest(src);
                    let labeling = shared.label_forest(&f).unwrap();
                    // Root derives the start nonterminal.
                    let root = f.roots()[0];
                    let g_start = shared.with_read(|a| a.grammar().start());
                    assert!(shared
                        .rule_in_state(labeling.state_of(root), g_start)
                        .is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn no_cover_from_fast_path() {
        let shared = shared_demo();
        let f = forest("(MulF8 (ConstF8 #1.0) (ConstF8 #1.0))");
        assert!(matches!(
            shared.label_forest(&f),
            Err(LabelError::NoCover { .. })
        ));
        // And again, now that the dead transition is cached in the
        // published snapshot (this exercises the fast-path dead check).
        assert!(matches!(
            shared.label_forest(&f),
            Err(LabelError::NoCover { .. })
        ));
    }

    #[test]
    fn pinned_labeling_survives_flush() {
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
        let auto = OnDemandAutomaton::with_config(
            Arc::new(g),
            OnDemandConfig {
                // Each test forest needs 3 distinct states on its own;
                // their union needs 4, so the second forest forces a
                // flush that its solo relabel survives.
                state_budget: 3,
                budget_policy: BudgetPolicy::Flush,
                ..OnDemandConfig::default()
            },
        );
        let shared = SharedOnDemand::new(auto);

        use crate::label::RuleChooser;

        let f1 = forest("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        let pinned = shared.label_forest_pinned(&f1).unwrap();
        let epoch_before = pinned.snapshot().epoch();
        let start = pinned.snapshot().grammar().start();
        assert!(pinned.chooser().rule_for(f1.roots()[0], start).is_some());

        // The load forest needs a state the budget has no room for.
        let f2 = forest("(StoreI8 (ConstI8 0) (LoadI8 (ConstI8 4)))");
        shared.label_forest(&f2).unwrap();
        let now = shared.snapshot();
        assert!(now.epoch() > epoch_before, "flush must advance the epoch");

        // The pinned labeling still resolves against its own epoch's
        // tables even though the shared automaton has moved on.
        assert!(pinned.state_data(f1.roots()[0]).rule(start).is_some());
    }

    /// A grammar whose dynamic cost depends on the constant's value, so
    /// every distinct constant interns a new signature — each forest
    /// labeled below enters the grow path and publishes a snapshot.
    fn churn_automaton() -> OnDemandAutomaton {
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
                odburg_grammar::RuleCost::Finite((v.unsigned_abs() % 1000) as u16)
            }),
        )
        .unwrap();
        OnDemandAutomaton::new(Arc::new(g.normalize()))
    }

    #[test]
    fn grow_churn_does_not_accumulate_retired_snapshots() {
        // Regression: retire-on-store used to keep *every* replaced
        // snapshot alive for the process lifetime. Under a grow-churn
        // workload (every forest interns a new signature, so every
        // forest publishes a snapshot) the retained count must stay
        // bounded by what can still be referenced — at most the snapshot
        // a reader was holding during the latest publication — not grow
        // with the number of publications.
        let shared = SharedOnDemand::new(churn_automaton());
        for k in 1..=32 {
            shared
                .label_forest(&forest(&format!("(StoreI8 (ConstI8 {k}) (ConstI8 {k}))")))
                .unwrap();
        }
        assert!(shared.snapshots_published() >= 32);
        assert!(
            shared.snapshots_retained() <= 1,
            "retained {} snapshots across {} publications with no live pins",
            shared.snapshots_retained(),
            shared.snapshots_published()
        );
    }

    #[test]
    fn pinned_labeling_bounds_retirement() {
        let shared = SharedOnDemand::new(churn_automaton());
        let f1 = forest("(StoreI8 (ConstI8 1) (ConstI8 2))");
        let pinned = shared.label_forest_pinned(&f1).unwrap();
        // Churn past the pinned snapshot.
        for k in 3..=18 {
            shared
                .label_forest(&forest(&format!("(StoreI8 (ConstI8 {k}) (ConstI8 {k}))")))
                .unwrap();
        }
        assert!(shared.snapshots_published() >= 16);
        // Retention is bounded by live pins (plus the reader-held
        // snapshot of the latest publication), and the pinned labeling
        // still resolves against its own tables.
        assert!(shared.snapshots_retained() <= 2);
        let start = pinned.snapshot().grammar().start();
        assert!(pinned.state_data(f1.roots()[0]).rule(start).is_some());
        // Dropping the pin releases the last reference; the next
        // publication reclaims it.
        drop(pinned);
        shared
            .label_forest(&forest("(StoreI8 (ConstI8 19) (ConstI8 19))"))
            .unwrap();
        assert!(shared.snapshots_retained() <= 1);
    }

    #[test]
    fn fast_path_heat_reaches_the_published_snapshot() {
        let shared = shared_demo();
        let f = forest("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        shared.label_forest(&f).unwrap(); // cold: grows + publishes
        for _ in 0..5 {
            shared.label_forest(&f).unwrap(); // warm: lock-free, heat only
        }
        let heat = shared.snapshot().heat_counts();
        assert!(
            heat.iter().map(|&h| h as usize).sum::<usize>() >= 5 * f.len(),
            "warm forests must accumulate heat: {heat:?}"
        );
    }

    #[test]
    fn compact_policy_in_the_writer_keeps_hot_states_and_budget() {
        let byte_budget = 16 * 1024;
        let g = churn_automaton();
        let auto = OnDemandAutomaton::with_config(
            Arc::clone(g.grammar()),
            OnDemandConfig {
                budget_policy: BudgetPolicy::Compact {
                    byte_budget,
                    retain_fraction: 0.5,
                },
                ..OnDemandConfig::default()
            },
        );
        let shared = SharedOnDemand::new(auto);
        let hot = forest("(StoreI8 (ConstI8 1) (ConstI8 2))");
        for k in 0..400 {
            shared.label_forest(&hot).unwrap();
            shared
                .label_forest(&forest(&format!(
                    "(StoreI8 (ConstI8 {}) (ConstI8 {}))",
                    100 + k,
                    500 + k
                )))
                .unwrap();
            assert!(
                shared.accounted_bytes().total() <= byte_budget,
                "budget exceeded at churn step {k}"
            );
        }
        let counters = shared.counters();
        assert!(counters.compactions > 0, "churn must compact");
        assert!(counters.states_evicted > 0);
        // The hot forest's working set survived the compactions: its
        // states answer from the snapshot without entering the writer.
        let published = shared.snapshots_published();
        shared.label_forest(&hot).unwrap();
        assert_eq!(
            shared.snapshots_published(),
            published,
            "hot forest must stay on the lock-free path"
        );
    }

    #[test]
    fn maintenance_budget_flushes_or_compacts_and_spares_pins() {
        use crate::govern::MemoryBudget;

        for budget in [MemoryBudget::flush(1), MemoryBudget::compact(1, 0.5)] {
            let shared = SharedOnDemand::new(churn_automaton());
            let f1 = forest("(StoreI8 (ConstI8 1) (ConstI8 2))");
            let pinned = shared.label_forest_pinned(&f1).unwrap();
            let epoch_before = pinned.snapshot().epoch();

            // A one-byte budget always trips.
            let event = shared
                .run_maintenance(Some(&budget))
                .expect("budget must trip");
            assert!(event.bytes_before > event.bytes_after, "{event:?}");
            assert_eq!(event.action, budget.action);
            assert!(
                shared.snapshot().epoch() > epoch_before,
                "enforcement starts a new epoch"
            );
            // No state fits a one-byte budget under either action, yet
            // the pinned labeling still resolves against its own
            // epoch's tables.
            assert_eq!(shared.stats().states, 0);
            let start = pinned.snapshot().grammar().start();
            assert!(
                pinned.state_data(f1.roots()[0]).rule(start).is_some(),
                "pinned labeling must survive enforcement"
            );
        }
    }

    #[test]
    fn maintenance_quanta_are_counted_and_enforce_budgets() {
        let shared = SharedOnDemand::new(churn_automaton());
        shared
            .label_forest(&forest("(StoreI8 (ConstI8 1) (ConstI8 2))"))
            .unwrap();
        // A budget-less quantum is counted but changes nothing.
        let bytes = shared.accounted_bytes().total();
        assert!(shared.run_maintenance(None).is_none());
        assert_eq!(shared.counters().maintenance_runs, 1);
        assert_eq!(shared.accounted_bytes().total(), bytes);
        // A roomy budget: counted, no pressure.
        assert!(shared
            .run_maintenance(Some(&crate::govern::MemoryBudget::flush(1 << 30)))
            .is_none());
        // A one-byte budget trips.
        let event = shared
            .run_maintenance(Some(&crate::govern::MemoryBudget::flush(1)))
            .expect("budget must trip");
        assert!(event.bytes_before > event.bytes_after);
        assert_eq!(shared.counters().maintenance_runs, 3);
        assert_eq!(shared.counters().flushes, 1);
    }

    #[test]
    fn install_accepts_tables_that_grew_only_transitions() {
        // Within an epoch a writer's tables can grow transitions (and
        // signatures) without a new state; the replica's fence must
        // still see the newer snapshot as newer.
        let writer = SharedOnDemand::new(demo_automaton());
        let replica = SharedOnDemand::new(demo_automaton());
        writer
            .label_forest(&forest("(AddI8 (ConstI8 1) (ConstI8 2))"))
            .unwrap();
        replica.install_snapshot(writer.snapshot()).unwrap();
        let nested = forest("(AddI8 (AddI8 (ConstI8 1) (ConstI8 2)) (ConstI8 3))");
        writer.label_forest(&nested).unwrap();
        let shipped = writer.snapshot();
        assert_eq!(
            shipped.stats().states,
            replica.snapshot().stats().states,
            "the second forest adds a transition but no state"
        );
        assert_eq!(replica.install_snapshot(Arc::clone(&shipped)), Ok(0));
        let before = replica.counters();
        replica.label_forest(&nested).unwrap();
        let after = replica.counters();
        assert_eq!(after.memo_misses, before.memo_misses, "replica missed");
        assert_eq!(replica.snapshots_published(), 2, "no grow publication");
        // Re-delivering the same tables is stale, and says why.
        let err = replica.install_snapshot(shipped).unwrap_err();
        assert!(matches!(err, InstallError::Stale { current, shipped } if current == shipped));
        assert!(err.to_string().contains("table entries"), "{err}");
    }

    #[test]
    fn labeler_trait_drives_shared() {
        let mut shared = shared_demo();
        let f = forest("(StoreI8 (ConstI8 0) (ConstI8 1))");
        let labeling = Labeler::label_forest(&mut shared, &f).unwrap();
        assert_eq!(labeling.states().len(), f.len());
        assert_eq!(Labeler::name(&shared), "shared");
        assert!(Labeler::counters(&shared).nodes >= f.len() as u64);
        shared.reset_counters();
        assert_eq!(Labeler::counters(&shared).nodes, 0);
    }

    #[test]
    fn stale_state_id_after_flush_degrades_to_none() {
        // A labeling obtained through the non-pinned path before a flush
        // may hold state ids beyond the post-flush snapshot's arena; the
        // StateLookup path must answer `None` (→ `MissingRule` at
        // reduction), never panic.
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
        let auto = OnDemandAutomaton::with_config(
            Arc::new(g),
            OnDemandConfig {
                state_budget: 3,
                budget_policy: BudgetPolicy::Flush,
                ..OnDemandConfig::default()
            },
        );
        let shared = SharedOnDemand::new(auto);
        let f1 = forest("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        let stale = shared.label_forest(&f1).unwrap();
        // Flush into a new, smaller epoch.
        shared
            .label_forest(&forest("(StoreI8 (ConstI8 0) (LoadI8 (ConstI8 4)))"))
            .unwrap();
        // Highest id of the stale labeling exceeds nothing fatal: every
        // lookup either resolves (id still in range) or returns None.
        let start = shared.with_read(|a| a.grammar().start());
        for (id, _) in f1.iter() {
            let _ = shared.rule_in_state(stale.state_of(id), start);
        }
    }

    #[test]
    fn use_after_flush_epoch_restart() {
        // A reader whose loaded snapshot predates a flush must restart
        // against the new epoch and still produce a valid labeling.
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
        let auto = OnDemandAutomaton::with_config(
            Arc::new(g),
            OnDemandConfig {
                // Each test forest needs 3 distinct states on its own;
                // their union needs 4, so the second forest forces a
                // flush that its solo relabel survives.
                state_budget: 3,
                budget_policy: BudgetPolicy::Flush,
                ..OnDemandConfig::default()
            },
        );
        let shared = SharedOnDemand::new(auto);
        // Warm epoch 0, flush into epoch 1+, then label an epoch-0 shape
        // again: the snapshot path must re-enter the writer and restart.
        let small = forest("(StoreI8 (ConstI8 0) (AddI8 (ConstI8 1) (ConstI8 2)))");
        shared.label_forest(&small).unwrap();
        let big = forest("(StoreI8 (ConstI8 0) (LoadI8 (ConstI8 4)))");
        shared.label_forest(&big).unwrap();
        let labeling = shared.label_forest(&small).unwrap();
        let start = shared.with_read(|a| a.grammar().start());
        assert!(shared
            .rule_in_state(labeling.state_of(small.roots()[0]), start)
            .is_some());
    }
}
