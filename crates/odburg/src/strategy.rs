//! Runtime selection of a labeling strategy behind the unified
//! [`Labeler`] trait.
//!
//! Every selector in the workspace implements [`Labeler`]; this module
//! adds the value-level layer on top: [`Strategy`] names a selector,
//! [`AnyLabeler`] constructs and drives one chosen at runtime (a CLI
//! flag, a config file, a JIT tier), and [`AnyChooser`] feeds the result
//! into the reducer. Call sites stop hardcoding a concrete selector type
//! — the CLI, the benches and the integration tests all route through
//! here.
//!
//! # Examples
//!
//! ```
//! use odburg::strategy::{AnyLabeler, Strategy};
//! use odburg::prelude::*;
//! use odburg_ir::parse_sexpr;
//!
//! let grammar = odburg::targets::demo();
//! let mut forest = Forest::new();
//! let root = parse_sexpr(&mut forest, "(StoreI8 (AddrLocalP @x) (ConstI8 1))")?;
//! forest.add_root(root);
//!
//! for strategy in Strategy::ALL {
//!     let mut labeler = AnyLabeler::build(strategy, &grammar)?;
//!     let labeling = labeler.label_forest(&forest)?; // the Labeler trait
//!     let chooser = labeler.chooser(&labeling);
//!     let code = reduce_forest(&forest, &labeler.grammar(), &chooser)?;
//!     assert!(!code.is_empty(), "{strategy} emitted nothing");
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

use odburg_core::{
    persist, AutomatonSnapshot, LabelError, Labeler, Labeling, OfflineAutomaton, OfflineConfig,
    OfflineLabeler, OnDemandAutomaton, OnDemandConfig, PersistError, RuleChooser, SharedOnDemand,
    StateChooser, WorkCounters,
};
use odburg_dp::{DpLabeler, DpLabeling, MacroExpander, MacroLabeling};
use odburg_grammar::{Grammar, NormalGrammar, NormalRuleId, NtId};
use odburg_ir::{Forest, NodeId};

/// The selection strategies available at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The on-demand tree-parsing automaton (the paper's contribution).
    OnDemand,
    /// On-demand with transition-key projection (lazy representer
    /// states).
    OnDemandProjected,
    /// The snapshot-based shared concurrent automaton.
    Shared,
    /// The offline (ahead-of-time) automaton; dynamic-cost rules are
    /// stripped, as in burg.
    Offline,
    /// The iburg-style dynamic-programming labeler.
    Dp,
    /// The macro-expansion selector (fast first-tier JIT baseline).
    Macro,
}

impl Strategy {
    /// All strategies, in presentation order.
    pub const ALL: [Strategy; 6] = [
        Strategy::OnDemand,
        Strategy::OnDemandProjected,
        Strategy::Shared,
        Strategy::Offline,
        Strategy::Dp,
        Strategy::Macro,
    ];

    /// The on-demand configuration this strategy labels with, or `None`
    /// if the strategy is not backed by an on-demand automaton.
    ///
    /// This is the configuration persisted tables must match to
    /// [warm-start](AnyLabeler::build_warm) the strategy (see
    /// `odburg_core::persist`).
    pub fn ondemand_config(self) -> Option<OnDemandConfig> {
        match self {
            Strategy::OnDemand | Strategy::Shared => Some(OnDemandConfig::default()),
            Strategy::OnDemandProjected => Some(OnDemandConfig {
                project_children: true,
                ..OnDemandConfig::default()
            }),
            Strategy::Offline | Strategy::Dp | Strategy::Macro => None,
        }
    }

    /// Whether this is the strategy the service front end
    /// ([`SelectorServer`](crate::service::SelectorServer), also behind
    /// every shard of a [`ShardCluster`](crate::cluster::ShardCluster))
    /// labels with. It always runs the shared snapshot core — its
    /// lock-free readers are what lets a persistent worker pool label
    /// concurrently — so the CLI rejects any other `--labeler` value on
    /// `batch`, `serve` and `cluster serve`.
    pub fn serves_concurrently(self) -> bool {
        matches!(self, Strategy::Shared)
    }

    /// The flag/display name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::OnDemand => "ondemand",
            Strategy::OnDemandProjected => "ondemand-projected",
            Strategy::Shared => "shared",
            Strategy::Offline => "offline",
            Strategy::Dp => "dp",
            Strategy::Macro => "macro",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for unknown strategy names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownStrategy {
    /// The name that failed to parse.
    pub name: String,
}

impl fmt::Display for UnknownStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown labeler `{}` (expected one of: {})",
            self.name,
            Strategy::ALL.map(Strategy::name).join(", ")
        )
    }
}

impl std::error::Error for UnknownStrategy {}

/// Error for warm-starting a strategy that has no on-demand tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStartUnsupported {
    /// The strategy that cannot warm-start.
    pub strategy: Strategy,
}

impl fmt::Display for WarmStartUnsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "labeler `{}` cannot warm-start from persisted tables \
             (only ondemand, ondemand-projected and shared can)",
            self.strategy
        )
    }
}

impl std::error::Error for WarmStartUnsupported {}

/// Error of [`AnyLabeler::build_warm_from_tables`]: either the strategy
/// has no on-demand tables at all, or the table file failed to load or
/// validate against the grammar and the strategy's configuration.
#[derive(Debug)]
pub enum WarmStartError {
    /// The strategy cannot warm-start (offline, dp, macro).
    Unsupported(WarmStartUnsupported),
    /// Loading or validating the table file failed. Fingerprint and
    /// configuration mismatches land here — they are hard errors, never
    /// a silent cold start.
    Persist(PersistError),
}

impl fmt::Display for WarmStartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarmStartError::Unsupported(e) => e.fmt(f),
            WarmStartError::Persist(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for WarmStartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WarmStartError::Unsupported(e) => Some(e),
            WarmStartError::Persist(e) => Some(e),
        }
    }
}

/// Error of [`AnyLabeler::build_with_mode`]: the strategy is not backed
/// by an on-demand automaton, so an [`OnDemandConfig`] (budget policy,
/// memory budget) cannot apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigUnsupported {
    /// The strategy that takes no on-demand configuration.
    pub strategy: Strategy,
}

impl fmt::Display for ConfigUnsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "labeler `{}` is not backed by an on-demand automaton; budget \
             policies and memory budgets only apply to ondemand, \
             ondemand-projected and shared",
            self.strategy
        )
    }
}

impl std::error::Error for ConfigUnsupported {}

impl FromStr for Strategy {
    type Err = UnknownStrategy;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Strategy::ALL
            .into_iter()
            .find(|st| st.name() == s)
            .ok_or_else(|| UnknownStrategy { name: s.to_owned() })
    }
}

/// A labeler chosen at runtime; constructs and owns the underlying
/// selector and exposes it through the [`Labeler`] trait.
#[derive(Debug)]
pub enum AnyLabeler {
    /// See [`Strategy::OnDemand`] / [`Strategy::OnDemandProjected`].
    /// Boxed for the same reason as `Shared`: the automaton's inline
    /// tables dominate the enum's size.
    OnDemand(Box<OnDemandAutomaton>),
    /// See [`Strategy::Shared`]. Boxed: the snapshot core (swap slot,
    /// writer mutex, atomic counters) dwarfs every other variant, and
    /// `AnyLabeler` values move through constructors and collections by
    /// value.
    Shared(Box<SharedOnDemand>),
    /// See [`Strategy::Offline`].
    Offline {
        /// The labeler driving the automaton.
        labeler: OfflineLabeler,
        /// The automaton, shared for rule lookup after labeling.
        automaton: Arc<OfflineAutomaton>,
    },
    /// See [`Strategy::Dp`].
    Dp(DpLabeler),
    /// See [`Strategy::Macro`].
    Macro(MacroExpander),
}

/// The labeling any strategy produces, for [`AnyLabeler::chooser`].
#[derive(Debug, Clone)]
pub enum AnyLabeling {
    /// Automaton states per node (on-demand, shared, offline).
    States(Labeling),
    /// The dense dynamic-programming table.
    Dp(DpLabeling),
    /// The macro-expansion assignment.
    Macro(MacroLabeling),
}

impl AnyLabeler {
    /// Builds the selector for `strategy` over `grammar`.
    ///
    /// # Errors
    ///
    /// [`Strategy::Offline`] construction can fail (state budget,
    /// non-BURS-finite grammars); the lazy strategies cannot.
    pub fn build(strategy: Strategy, grammar: &Grammar) -> Result<AnyLabeler, LabelError> {
        let normal = Arc::new(grammar.normalize());
        Self::build_normal(strategy, normal)
    }

    /// Builds the selector for `strategy` over an already-normalized
    /// grammar.
    ///
    /// # Errors
    ///
    /// See [`AnyLabeler::build`].
    pub fn build_normal(
        strategy: Strategy,
        normal: Arc<NormalGrammar>,
    ) -> Result<AnyLabeler, LabelError> {
        Ok(match strategy {
            Strategy::OnDemand => AnyLabeler::OnDemand(Box::new(OnDemandAutomaton::new(normal))),
            Strategy::OnDemandProjected => {
                AnyLabeler::OnDemand(Box::new(OnDemandAutomaton::with_config(
                    normal,
                    OnDemandConfig {
                        project_children: true,
                        ..OnDemandConfig::default()
                    },
                )))
            }
            Strategy::Shared => AnyLabeler::Shared(Box::new(SharedOnDemand::new(
                OnDemandAutomaton::new(normal),
            ))),
            Strategy::Offline => {
                let automaton = Arc::new(OfflineAutomaton::build(
                    normal,
                    OfflineConfig {
                        dyncost_mode: odburg_core::DynCostMode::Strip,
                        ..OfflineConfig::default()
                    },
                )?);
                AnyLabeler::Offline {
                    labeler: OfflineLabeler::new(Arc::clone(&automaton)),
                    automaton,
                }
            }
            Strategy::Dp => AnyLabeler::Dp(DpLabeler::new(normal)),
            Strategy::Macro => AnyLabeler::Macro(MacroExpander::new(normal)),
        })
    }

    /// Builds an on-demand-backed selector with an explicit automaton
    /// configuration — the way the CLI's `--memory-budget` and
    /// `--budget-policy` flags reach
    /// [`BudgetPolicy`](odburg_core::BudgetPolicy). The strategy still
    /// dictates the projection mode (`mode.project_children` is
    /// overridden to match, so persisted-table compatibility via
    /// [`Strategy::ondemand_config`] is preserved).
    ///
    /// # Errors
    ///
    /// [`ConfigUnsupported`] for strategies without an on-demand
    /// automaton (offline, dp, macro).
    pub fn build_with_mode(
        strategy: Strategy,
        normal: Arc<NormalGrammar>,
        mode: OnDemandConfig,
    ) -> Result<AnyLabeler, ConfigUnsupported> {
        match strategy {
            Strategy::OnDemand => Ok(AnyLabeler::OnDemand(Box::new(
                OnDemandAutomaton::with_config(
                    normal,
                    OnDemandConfig {
                        project_children: false,
                        ..mode
                    },
                ),
            ))),
            Strategy::OnDemandProjected => Ok(AnyLabeler::OnDemand(Box::new(
                OnDemandAutomaton::with_config(
                    normal,
                    OnDemandConfig {
                        project_children: true,
                        ..mode
                    },
                ),
            ))),
            Strategy::Shared => Ok(AnyLabeler::Shared(Box::new(SharedOnDemand::new(
                OnDemandAutomaton::with_config(
                    normal,
                    OnDemandConfig {
                        project_children: false,
                        ..mode
                    },
                ),
            )))),
            Strategy::Offline | Strategy::Dp | Strategy::Macro => {
                Err(ConfigUnsupported { strategy })
            }
        }
    }

    /// Warm-starts the selector for `strategy` from a previously built
    /// (typically [imported](odburg_core::persist)) snapshot instead of
    /// cold tables. The snapshot's grammar and configuration travel with
    /// it; importing validates both, so a snapshot that loaded cleanly
    /// for [`Strategy::ondemand_config`] is the right one to pass here.
    ///
    /// # Errors
    ///
    /// [`WarmStartUnsupported`] for strategies without on-demand tables
    /// (offline, dp, macro).
    pub fn build_warm(
        strategy: Strategy,
        snapshot: Arc<AutomatonSnapshot>,
    ) -> Result<AnyLabeler, WarmStartUnsupported> {
        match strategy {
            Strategy::OnDemand | Strategy::OnDemandProjected => Ok(AnyLabeler::OnDemand(Box::new(
                OnDemandAutomaton::from_snapshot(&snapshot),
            ))),
            Strategy::Shared => Ok(AnyLabeler::Shared(Box::new(
                SharedOnDemand::with_seed_snapshot(snapshot),
            ))),
            Strategy::Offline | Strategy::Dp | Strategy::Macro => {
                Err(WarmStartUnsupported { strategy })
            }
        }
    }

    /// Warm-starts the selector for `strategy` directly from a table
    /// file: resolves the strategy's on-demand configuration, imports
    /// and validates the tables against `normal` (grammar fingerprint,
    /// configuration, integrity), and builds the warm labeler. This is
    /// the one-stop path the CLI and the service registry route through,
    /// so every caller rejects mismatched tables the same way instead of
    /// silently falling back to a cold start.
    ///
    /// # Errors
    ///
    /// [`WarmStartError::Unsupported`] for strategies without on-demand
    /// tables; [`WarmStartError::Persist`] if the file is missing,
    /// corrupted, or was exported under a different grammar or
    /// configuration.
    pub fn build_warm_from_tables(
        strategy: Strategy,
        normal: Arc<NormalGrammar>,
        path: &Path,
    ) -> Result<AnyLabeler, WarmStartError> {
        let config = strategy
            .ondemand_config()
            .ok_or(WarmStartError::Unsupported(WarmStartUnsupported {
                strategy,
            }))?;
        let snapshot =
            persist::load_tables(path, normal, config).map_err(WarmStartError::Persist)?;
        AnyLabeler::build_warm(strategy, Arc::new(snapshot)).map_err(WarmStartError::Unsupported)
    }

    /// The normalized grammar the selector labels against. Reductions of
    /// this labeler's choosers must use this grammar.
    pub fn grammar(&self) -> Arc<NormalGrammar> {
        match self {
            AnyLabeler::OnDemand(od) => Arc::clone(od.grammar()),
            AnyLabeler::Shared(sh) => {
                let snap = sh.snapshot();
                Arc::clone(snap.grammar())
            }
            AnyLabeler::Offline { automaton, .. } => Arc::clone(automaton.grammar()),
            AnyLabeler::Dp(dp) => Arc::clone(dp.grammar()),
            AnyLabeler::Macro(mx) => Arc::clone(mx.grammar()),
        }
    }

    /// Pairs a labeling produced by this labeler with the tables needed
    /// to answer rule queries, for the reducer.
    ///
    /// # Panics
    ///
    /// Panics if `labeling` was produced by a different strategy.
    pub fn chooser<'a>(&'a self, labeling: &'a AnyLabeling) -> AnyChooser<'a> {
        let inner = match (self, labeling) {
            (AnyLabeler::OnDemand(od), AnyLabeling::States(l)) => {
                ChooserInner::OnDemand(l.chooser(od))
            }
            (AnyLabeler::Shared(sh), AnyLabeling::States(l)) => ChooserInner::Shared(l.chooser(sh)),
            (AnyLabeler::Offline { automaton, .. }, AnyLabeling::States(l)) => {
                ChooserInner::Offline(l.chooser(automaton.as_ref()))
            }
            (AnyLabeler::Dp(_), AnyLabeling::Dp(l)) => ChooserInner::Dp(l),
            (AnyLabeler::Macro(_), AnyLabeling::Macro(l)) => ChooserInner::Macro(l),
            _ => panic!("labeling does not belong to this labeler"),
        };
        AnyChooser { inner }
    }

    /// A one-line summary of the selector's table sizes after labeling.
    pub fn stats_line(&self) -> String {
        match self {
            AnyLabeler::OnDemand(od) => {
                let s = od.stats();
                format!(
                    "{} states, {} transitions, {} signatures created",
                    s.states, s.transitions, s.signatures
                )
            }
            AnyLabeler::Shared(sh) => {
                let s = sh.stats();
                format!(
                    "{} states, {} transitions, {} signatures created (shared)",
                    s.states, s.transitions, s.signatures
                )
            }
            AnyLabeler::Offline { automaton, .. } => {
                let s = automaton.stats();
                format!(
                    "{} states, {} transition entries (offline, built ahead of time)",
                    s.states, s.transition_entries
                )
            }
            AnyLabeler::Dp(dp) => format!("dp: {} nodes labeled", dp.counters().nodes),
            AnyLabeler::Macro(mx) => {
                format!("macro expansion: {} nodes labeled", mx.counters().nodes)
            }
        }
    }
}

impl Labeler for AnyLabeler {
    type Output = AnyLabeling;

    fn label_forest(&mut self, forest: &Forest) -> Result<AnyLabeling, LabelError> {
        Ok(match self {
            AnyLabeler::OnDemand(od) => AnyLabeling::States(od.label_forest(forest)?),
            AnyLabeler::Shared(sh) => {
                AnyLabeling::States(Labeler::label_forest(sh.as_mut(), forest)?)
            }
            AnyLabeler::Offline { labeler, .. } => {
                AnyLabeling::States(labeler.label_forest(forest)?)
            }
            AnyLabeler::Dp(dp) => AnyLabeling::Dp(dp.label_forest(forest)?),
            AnyLabeler::Macro(mx) => AnyLabeling::Macro(mx.label_forest(forest)?),
        })
    }

    fn counters(&self) -> WorkCounters {
        match self {
            AnyLabeler::OnDemand(od) => od.counters(),
            AnyLabeler::Shared(sh) => SharedOnDemand::counters(sh),
            AnyLabeler::Offline { labeler, .. } => labeler.counters(),
            AnyLabeler::Dp(dp) => dp.counters(),
            AnyLabeler::Macro(mx) => mx.counters(),
        }
    }

    fn reset_counters(&mut self) {
        match self {
            AnyLabeler::OnDemand(od) => od.reset_counters(),
            AnyLabeler::Shared(sh) => Labeler::reset_counters(sh.as_mut()),
            AnyLabeler::Offline { labeler, .. } => labeler.reset_counters(),
            AnyLabeler::Dp(dp) => dp.reset_counters(),
            AnyLabeler::Macro(mx) => mx.reset_counters(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyLabeler::OnDemand(od) if od.config().project_children => "ondemand-projected",
            AnyLabeler::OnDemand(_) => "ondemand",
            AnyLabeler::Shared(_) => "shared",
            AnyLabeler::Offline { .. } => "offline",
            AnyLabeler::Dp(_) => "dp",
            AnyLabeler::Macro(_) => "macro",
        }
    }
}

#[derive(Debug)]
enum ChooserInner<'a> {
    OnDemand(StateChooser<'a, OnDemandAutomaton>),
    Shared(StateChooser<'a, SharedOnDemand>),
    Offline(StateChooser<'a, OfflineAutomaton>),
    Dp(&'a DpLabeling),
    Macro(&'a MacroLabeling),
}

/// A [`RuleChooser`] over any strategy's labeling; see
/// [`AnyLabeler::chooser`].
#[derive(Debug)]
pub struct AnyChooser<'a> {
    inner: ChooserInner<'a>,
}

impl RuleChooser for AnyChooser<'_> {
    fn rule_for(&self, node: NodeId, nt: NtId) -> Option<NormalRuleId> {
        match &self.inner {
            ChooserInner::OnDemand(c) => c.rule_for(node, nt),
            ChooserInner::Shared(c) => c.rule_for(node, nt),
            ChooserInner::Offline(c) => c.rule_for(node, nt),
            ChooserInner::Dp(l) => l.rule_for(node, nt),
            ChooserInner::Macro(l) => l.rule_for(node, nt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_round_trip() {
        for s in Strategy::ALL {
            assert_eq!(s.name().parse::<Strategy>().unwrap(), s);
        }
        assert!("frobnicate".parse::<Strategy>().is_err());
    }

    #[test]
    fn every_strategy_labels_and_reduces_through_the_trait() {
        use odburg_ir::parse_sexpr;

        let grammar = crate::targets::demo();
        let mut forest = Forest::new();
        let root = parse_sexpr(&mut forest, "(StoreI8 (AddrLocalP @x) (ConstI8 1))").unwrap();
        forest.add_root(root);

        // Drive every strategy through the trait-generic helper — proof
        // that the unified Labeler interface suffices.
        fn run<L: Labeler>(labeler: &mut L, forest: &Forest) -> L::Output {
            labeler.label_forest(forest).expect("labels")
        }

        for strategy in Strategy::ALL {
            let mut labeler = AnyLabeler::build(strategy, &grammar).expect("builds");
            let labeling = run(&mut labeler, &forest);
            let chooser = labeler.chooser(&labeling);
            let red = odburg_codegen::reduce_forest(&forest, &labeler.grammar(), &chooser).unwrap();
            assert_eq!(
                red.instructions.len(),
                2,
                "{strategy}: {:?}",
                red.instructions
            );
            assert!(
                labeler.counters().nodes >= forest.len() as u64,
                "{strategy}"
            );
        }
    }

    #[test]
    fn warm_from_tables_rejects_mismatches_loudly() {
        // Regression for the warm-start error path: tables exported for
        // grammar A must never build a labeler for grammar B — the
        // fingerprint-mismatch PersistError has to surface, not a silent
        // cold fallback or a mislabeling warm start.
        let dir = std::env::temp_dir().join("odburg-strategy-warm");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.odbt");

        let demo = Arc::new(crate::targets::demo().normalize());
        let mut trainer = OnDemandAutomaton::new(Arc::clone(&demo));
        let mut forest = Forest::new();
        let root =
            odburg_ir::parse_sexpr(&mut forest, "(StoreI8 (AddrLocalP @x) (ConstI8 1))").unwrap();
        forest.add_root(root);
        trainer.label_forest(&forest).unwrap();
        odburg_core::persist::save_tables(&trainer.snapshot(), &path).unwrap();

        // The matching grammar warm-starts fine for both table-backed
        // strategies.
        for strategy in [Strategy::OnDemand, Strategy::Shared] {
            let mut warm =
                AnyLabeler::build_warm_from_tables(strategy, Arc::clone(&demo), &path).unwrap();
            warm.label_forest(&forest).unwrap();
            assert_eq!(warm.counters().memo_misses, 0, "{strategy}");
        }

        // A different grammar is a hard fingerprint error.
        let other = Arc::new(crate::targets::jvmish().normalize());
        let err = AnyLabeler::build_warm_from_tables(Strategy::OnDemand, other, &path)
            .expect_err("mismatched grammar must be rejected");
        assert!(
            matches!(
                err,
                WarmStartError::Persist(PersistError::GrammarMismatch { .. })
            ),
            "{err:?}"
        );

        // A mismatched configuration (projection tables vs direct) too.
        let err = AnyLabeler::build_warm_from_tables(
            Strategy::OnDemandProjected,
            Arc::clone(&demo),
            &path,
        )
        .expect_err("mismatched config must be rejected");
        assert!(
            matches!(
                err,
                WarmStartError::Persist(PersistError::ConfigMismatch { .. })
            ),
            "{err:?}"
        );

        // And strategies without tables never load the file at all.
        let err = AnyLabeler::build_warm_from_tables(Strategy::Dp, demo, &path)
            .expect_err("dp cannot warm-start");
        assert!(matches!(err, WarmStartError::Unsupported(_)), "{err:?}");
    }

    #[test]
    fn mismatched_labeling_panics() {
        let grammar = crate::targets::demo();
        let mut dp = AnyLabeler::build(Strategy::Dp, &grammar).unwrap();
        let mut od = AnyLabeler::build(Strategy::OnDemand, &grammar).unwrap();
        let mut forest = Forest::new();
        let root =
            odburg_ir::parse_sexpr(&mut forest, "(StoreI8 (AddrLocalP @x) (ConstI8 1))").unwrap();
        forest.add_root(root);
        let dp_labeling = dp.label_forest(&forest).unwrap();
        let _od_labeling = od.label_forest(&forest).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = od.chooser(&dp_labeling);
        }));
        assert!(result.is_err());
    }
}
