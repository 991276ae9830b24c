//! **odburg** — fast and flexible instruction selection with on-demand
//! tree-parsing automata.
//!
//! This is the facade crate: it re-exports the whole workspace behind one
//! dependency. See the [`core`](odburg_core) crate for the on-demand
//! automaton itself, and the README for the architecture overview.
//!
//! | module | contents |
//! |--------|----------|
//! | [`ir`] | typed expression-tree IR (operators, forests, s-exprs) |
//! | [`grammar`] | tree grammars, the burg-style DSL, normal form, the grammar verifier |
//! | [`select`](mod@select) | the labelers: on-demand automaton, offline automaton, dynamic programming, macro expansion |
//! | [`codegen`] | the reducer and template-based emission |
//! | [`targets`] | built-in machine descriptions (x86ish, riscish, …) |
//! | [`frontend`] | MiniC: a small language lowered to IR forests |
//! | [`workloads`] | benchmark programs and random-tree workloads |
//! | [`strategy`] | runtime strategy choice behind the unified `Labeler` trait |
//! | [`service`] | multi-target selection service: grammar registry + long-running `SelectorServer` (bounded queue, deadlines, backpressure; an uncapped queue runs batches) |
//! | [`cluster`] | replicated snapshot shards: consistent-hash routing, single-writer leases, table shipping over framed transports, epoch-fenced failover |
//!
//! # Quick start
//!
//! ```
//! use odburg::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A machine description (here: a built-in target).
//! let grammar = odburg::targets::demo();
//! let normal = Arc::new(grammar.normalize());
//!
//! // 2. An IR tree.
//! let mut forest = Forest::new();
//! let root = parse_sexpr(
//!     &mut forest,
//!     "(StoreI8 (AddrLocalP @x) (AddI8 (LoadI8 (AddrLocalP @x)) (ConstI8 5)))",
//! )?;
//! forest.add_root(root);
//!
//! // 3. Label with the on-demand automaton (this *is* the paper).
//! let mut automaton = OnDemandAutomaton::new(normal.clone());
//! let labeling = automaton.label_forest(&forest)?;
//!
//! // 4. Reduce: walk the optimal derivation, emit instructions.
//! let chooser = labeling.chooser(&automaton);
//! let code = reduce_forest(&forest, &normal, &chooser)?;
//! assert_eq!(code.instructions.last().unwrap(), "add v0, (x)");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use odburg_codegen as codegen;
pub use odburg_core as select;
pub use odburg_frontend as frontend;
pub use odburg_ir as ir;
pub use odburg_targets as targets;
pub use odburg_workloads as workloads;

pub mod cluster;
pub mod service;
pub mod strategy;

pub mod grammar {
    //! Tree grammars, the burg-style DSL and normal form
    //! ([`odburg_grammar`]), with the grammar verifier in [`analysis`].
    pub use odburg_grammar::*;

    pub mod analysis {
        //! The grammar verifier and the analyses it builds on: everything
        //! in [`odburg_grammar::analysis`], plus [`analyze`] and
        //! [`analyze_full`] from [`odburg_core::verify`], which read the
        //! automaton closure.
        pub use odburg_core::verify::{analyze, analyze_full};
        pub use odburg_grammar::analysis::*;
    }
}

use std::error::Error;
use std::fmt;

use odburg_codegen::{reduce_forest, ReduceError, Reduction};
use odburg_core::{LabelError, Labeler};
use odburg_grammar::Grammar;
use odburg_ir::Forest;

/// Error of the one-shot [`select()`] convenience function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// Labeling failed (uncovered node, budget, …).
    Label(LabelError),
    /// Reduction failed (tree not derivable from the start symbol, …).
    Reduce(ReduceError),
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::Label(e) => write!(f, "labeling failed: {e}"),
            SelectError::Reduce(e) => write!(f, "reduction failed: {e}"),
        }
    }
}

impl Error for SelectError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SelectError::Label(e) => Some(e),
            SelectError::Reduce(e) => Some(e),
        }
    }
}

impl From<LabelError> for SelectError {
    fn from(e: LabelError) -> Self {
        SelectError::Label(e)
    }
}

impl From<ReduceError> for SelectError {
    fn from(e: ReduceError) -> Self {
        SelectError::Reduce(e)
    }
}

/// One-shot instruction selection: builds an on-demand automaton for
/// `grammar`, labels `forest`, and reduces every root to instructions.
///
/// Convenient for single compilations; for compiler/JIT use, keep an
/// [`OnDemandAutomaton`](odburg_core::OnDemandAutomaton) alive across
/// calls instead — its whole point is that it gets faster the longer it
/// lives.
///
/// # Errors
///
/// Returns [`SelectError`] if the grammar does not cover the forest.
///
/// # Examples
///
/// ```
/// use odburg_ir::{parse_sexpr, Forest};
///
/// let grammar = odburg::targets::demo();
/// let mut forest = Forest::new();
/// let root = parse_sexpr(&mut forest, "(StoreI8 (AddrLocalP @x) (ConstI8 1))")?;
/// forest.add_root(root);
/// let code = odburg::select(&grammar, &forest)?;
/// assert_eq!(code.instructions.len(), 2); // mov const + store
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn select(grammar: &Grammar, forest: &Forest) -> Result<Reduction, SelectError> {
    select_with(strategy::Strategy::OnDemand, grammar, forest)
}

/// Like [`select()`], but with the labeling strategy chosen at runtime —
/// everything routes through the unified [`Labeler`] trait.
///
/// # Errors
///
/// Returns [`SelectError`] if the strategy cannot be built for the
/// grammar (offline construction limits) or the grammar does not cover
/// the forest.
///
/// # Examples
///
/// ```
/// use odburg::strategy::Strategy;
/// use odburg_ir::{parse_sexpr, Forest};
///
/// let grammar = odburg::targets::demo();
/// let mut forest = Forest::new();
/// let root = parse_sexpr(&mut forest, "(StoreI8 (AddrLocalP @x) (ConstI8 1))")?;
/// forest.add_root(root);
/// let dp = odburg::select_with(Strategy::Dp, &grammar, &forest)?;
/// let od = odburg::select_with(Strategy::OnDemand, &grammar, &forest)?;
/// assert_eq!(dp.total_cost, od.total_cost); // both are optimal selectors
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn select_with(
    strategy: strategy::Strategy,
    grammar: &Grammar,
    forest: &Forest,
) -> Result<Reduction, SelectError> {
    let mut labeler = strategy::AnyLabeler::build(strategy, grammar)?;
    let labeling = labeler.label_forest(forest)?;
    let chooser = labeler.chooser(&labeling);
    Ok(reduce_forest(forest, &labeler.grammar(), &chooser)?)
}

pub use service::SelectorServer;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::cluster::{
        ChannelTransport, ClusterConfig, ClusterReport, ClusterSubmit, ClusterSubmitError,
        HashRing, RouteError, ShardCluster, ShardReport, ShipError, ShipTransport, Shipment,
        ShipmentReport, SocketTransport, WriterLease,
    };
    pub use crate::service::{
        AnalysisPolicy, CompletedJob, FairConfig, JobError, JobHandle, JobOptions, Priority,
        SelectorServer, ServeError, ServerConfig, ServerReport, ServiceError, SubmitError,
        TargetServerStats, Ticket,
    };
    pub use crate::strategy::{AnyLabeler, AnyLabeling, Strategy};
    pub use odburg_codegen::{reduce_forest, reduce_tree, Reduction};
    pub use odburg_core::telemetry::{
        write_chrome_trace, write_jsonl, AtomicHistogram, Event, EventKind, FlightRecorder,
        Histogram, JobCounts, TargetMetrics, Telemetry,
    };
    pub use odburg_core::{
        AutomatonSnapshot, CompactionStats, ComponentBytes, InstallError, LabelError, Labeler,
        Labeling, MemoryBudget, OfflineAutomaton, OfflineConfig, OfflineLabeler, OnDemandAutomaton,
        OnDemandConfig, PinnedLabeling, PressureAction, PressureEvent, RuleChooser, SharedOnDemand,
        WorkCounters,
    };
    pub use odburg_dp::{DpLabeler, MacroExpander};
    pub use odburg_grammar::{
        parse_grammar, Cost, Diagnostic, Grammar, NormalGrammar, RuleCost, Severity,
    };
    pub use odburg_ir::{
        parse_sexpr, to_sexpr, Forest, Node, NodeId, Op, OpKind, Payload, TypeTag,
    };
}
