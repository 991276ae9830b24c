//! Fast and flexible instruction selection with **on-demand tree-parsing
//! automata** — a from-scratch Rust reproduction of the system introduced
//! by Ertl, Casey and Gregg (PLDI 2006).
//!
//! # The idea
//!
//! Tree-parsing instruction selectors assign every IR node a *state*
//! describing, for each grammar nonterminal, the cheapest way to derive
//! the node's subtree. Classic implementations either
//!
//! * recompute that information at every node with dynamic programming
//!   (iburg/lburg — flexible, supports *dynamic costs*, but slow), or
//! * precompute a complete automaton offline (burg — a table lookup per
//!   node, but inflexible and expensive to generate).
//!
//! The on-demand automaton ([`OnDemandAutomaton`]) takes the third road:
//! it *is* an automaton, but its states and transitions are created
//! lazily, at instruction-selection time, the first time each transition
//! is needed — and memoized forever after. Compiler IR is repetitive, so
//! the automaton converges after a few hundred nodes and labeling becomes
//! one hash lookup per node, while dynamic costs keep working because
//! their per-node values are folded into the lookup key
//! ([`signature`] module).
//!
//! This crate also implements the offline baseline ([`OfflineAutomaton`])
//! with representer-state table compression, the shared state-computation
//! core ([`compute`]), the grammar verifier ([`verify`]), which runs the
//! offline automaton's own closure, and a thread-safe shared automaton
//! ([`SharedOnDemand`]) for parallel JIT compilation. The
//! dynamic-programming baseline lives in the `odburg-dp` crate; code
//! emission in `odburg-codegen`.
//!
//! # Quick start
//!
//! ```
//! use odburg_core::{Labeler, OnDemandAutomaton};
//! use odburg_grammar::parse_grammar;
//! use odburg_ir::{parse_sexpr, Forest};
//! use std::sync::Arc;
//!
//! let grammar = parse_grammar(
//!     r#"
//!     %start stmt
//!     addr: reg (0)
//!     reg: ConstI8 (1)
//!     reg: LoadI8(addr) (1)
//!     reg: AddI8(reg, reg) (1)
//!     stmt: StoreI8(addr, reg) (1)
//!     "#,
//! )?;
//! let mut automaton = OnDemandAutomaton::new(Arc::new(grammar.normalize()));
//!
//! let mut forest = Forest::new();
//! let root = parse_sexpr(
//!     &mut forest,
//!     "(StoreI8 (ConstI8 0) (AddI8 (LoadI8 (ConstI8 0)) (ConstI8 5)))",
//! )?;
//! forest.add_root(root);
//!
//! let labeling = automaton.label_forest(&forest)?;
//! let chooser = labeling.chooser(&automaton);
//! # let _ = chooser;
//! println!("{} states created", automaton.stats().states);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod closure;
pub mod compute;
mod counters;
mod dense;
pub mod fxhash;
mod generate;
pub mod govern;
mod label;
mod offline;
mod ondemand;
pub mod persist;
mod shared;
pub mod signature;
mod snapshot;
mod state;
pub mod telemetry;
pub mod verify;

pub use counters::{AtomicWorkCounters, WorkCounters};
pub use generate::generate_rust;
pub use govern::{CompactionStats, ComponentBytes, MemoryBudget, PressureAction, PressureEvent};
pub use label::{LabelError, Labeler, Labeling, RuleChooser, StateChooser, StateLookup};
pub use offline::{OfflineAutomaton, OfflineConfig, OfflineLabeler, OfflineStats};
pub use ondemand::{OnDemandAutomaton, OnDemandConfig, OnDemandStats};
pub use persist::PersistError;
pub use shared::{InstallError, PinnedLabeling, SharedOnDemand};
pub use snapshot::{AutomatonSnapshot, RawProjection, RawTransition, SnapshotStats, WarmWalk};
pub use state::{StateData, StateId, StateSet};
pub use telemetry::{
    AtomicHistogram, AtomicJobCounts, Event, EventKind, EventScope, FlightRecorder, Histogram,
    JobCounts, TargetMetrics, Telemetry,
};
