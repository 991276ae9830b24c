//! Machine-independent work counters.
//!
//! The paper family reports "executed instructions per node" from hardware
//! performance counters. The portable analogue used throughout this
//! library is a set of *work units*: every labeler counts the elementary
//! operations it performs (rules considered, chain-closure iterations,
//! hash probes, table lookups, states constructed). Wall-clock time is
//! measured separately by the Criterion benches.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Work performed by a labeler, accumulated across `label_forest` calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// IR nodes labeled.
    pub nodes: u64,
    /// Base rules considered (cost computed and compared).
    pub rule_checks: u64,
    /// Chain rules considered during closure.
    pub chain_checks: u64,
    /// Hash-table probes (transition cache, signature interner, …).
    pub hash_lookups: u64,
    /// Dense table lookups (offline automaton transitions).
    pub table_lookups: u64,
    /// States newly constructed.
    pub states_built: u64,
    /// Transition-cache hits (on-demand automaton fast path).
    pub memo_hits: u64,
    /// Transition-cache misses (slow path: state computation).
    pub memo_misses: u64,
    /// Dynamic-cost functions evaluated.
    pub dyncost_evals: u64,
    /// Full table flushes (every state discarded; see
    /// [`BudgetPolicy::Flush`](crate::BudgetPolicy) and budget
    /// enforcement with [`PressureAction::Flush`](crate::PressureAction)).
    pub flushes: u64,
    /// Heat-guided compaction passes (cold states evicted, hot ones
    /// remapped into a new epoch; see
    /// [`BudgetPolicy::Compact`](crate::BudgetPolicy)).
    pub compactions: u64,
    /// States evicted by compaction passes (flushes do not count here —
    /// they discard everything and are visible as `flushes`).
    pub states_evicted: u64,
    /// Jobs completed with `DeadlineExceeded` instead of being labeled
    /// (service counter; see `odburg::service::SelectorServer`).
    pub deadline_misses: u64,
    /// Submissions rejected for backpressure (`QueueFull`) or shutdown
    /// (service counter).
    pub rejected_submits: u64,
    /// Submissions shed at admission because the estimated queueing wait
    /// already exceeded the job's deadline (`Infeasible`; service
    /// counter — distinct from `rejected_submits`, which is capacity
    /// backpressure).
    pub shed_submits: u64,
    /// Maintenance quanta run between jobs (budget checks, compaction —
    /// see [`SharedOnDemand::run_maintenance`](crate::SharedOnDemand)).
    pub maintenance_runs: u64,
}

impl WorkCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        WorkCounters::default()
    }

    /// Total work units: the machine-independent "instructions" proxy.
    ///
    /// Each elementary operation counts once; states built are weighted by
    /// a nominal constant because constructing a state touches every
    /// nonterminal.
    pub fn work_units(&self) -> u64 {
        self.rule_checks
            + self.chain_checks
            + self.hash_lookups
            + self.table_lookups
            + self.memo_hits
            + self.memo_misses
            + self.dyncost_evals
            + self.states_built * 8
    }

    /// Work units per labeled node.
    pub fn work_per_node(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.work_units() as f64 / self.nodes as f64
        }
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &WorkCounters) {
        self.nodes += other.nodes;
        self.rule_checks += other.rule_checks;
        self.chain_checks += other.chain_checks;
        self.hash_lookups += other.hash_lookups;
        self.table_lookups += other.table_lookups;
        self.states_built += other.states_built;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.dyncost_evals += other.dyncost_evals;
        self.flushes += other.flushes;
        self.compactions += other.compactions;
        self.states_evicted += other.states_evicted;
        self.deadline_misses += other.deadline_misses;
        self.rejected_submits += other.rejected_submits;
        self.shed_submits += other.shed_submits;
        self.maintenance_runs += other.maintenance_runs;
    }

    /// The work performed since `earlier` was captured: the field-wise
    /// difference of two cumulative counter snapshots of the *same*
    /// labeler. Saturating, so a counter reset between the two snapshots
    /// degrades to zero instead of wrapping.
    pub fn since(&self, earlier: &WorkCounters) -> WorkCounters {
        WorkCounters {
            nodes: self.nodes.saturating_sub(earlier.nodes),
            rule_checks: self.rule_checks.saturating_sub(earlier.rule_checks),
            chain_checks: self.chain_checks.saturating_sub(earlier.chain_checks),
            hash_lookups: self.hash_lookups.saturating_sub(earlier.hash_lookups),
            table_lookups: self.table_lookups.saturating_sub(earlier.table_lookups),
            states_built: self.states_built.saturating_sub(earlier.states_built),
            memo_hits: self.memo_hits.saturating_sub(earlier.memo_hits),
            memo_misses: self.memo_misses.saturating_sub(earlier.memo_misses),
            dyncost_evals: self.dyncost_evals.saturating_sub(earlier.dyncost_evals),
            flushes: self.flushes.saturating_sub(earlier.flushes),
            compactions: self.compactions.saturating_sub(earlier.compactions),
            states_evicted: self.states_evicted.saturating_sub(earlier.states_evicted),
            deadline_misses: self.deadline_misses.saturating_sub(earlier.deadline_misses),
            rejected_submits: self
                .rejected_submits
                .saturating_sub(earlier.rejected_submits),
            shed_submits: self.shed_submits.saturating_sub(earlier.shed_submits),
            maintenance_runs: self
                .maintenance_runs
                .saturating_sub(earlier.maintenance_runs),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = WorkCounters::default();
    }
}

/// Lock-free work counters for concurrent labelers.
///
/// The snapshot-based [`SharedOnDemand`](crate::SharedOnDemand) merges
/// each forest's locally accumulated [`WorkCounters`] into one of these
/// with relaxed atomic adds — counters are statistics, not
/// synchronization, so no ordering is needed and no lock guards them.
#[derive(Debug, Default)]
pub struct AtomicWorkCounters {
    nodes: AtomicU64,
    rule_checks: AtomicU64,
    chain_checks: AtomicU64,
    hash_lookups: AtomicU64,
    table_lookups: AtomicU64,
    states_built: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    dyncost_evals: AtomicU64,
    flushes: AtomicU64,
    compactions: AtomicU64,
    states_evicted: AtomicU64,
    deadline_misses: AtomicU64,
    rejected_submits: AtomicU64,
    shed_submits: AtomicU64,
    maintenance_runs: AtomicU64,
}

impl AtomicWorkCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        AtomicWorkCounters::default()
    }

    /// Adds a locally accumulated counter set (relaxed; statistics only).
    pub fn merge(&self, local: &WorkCounters) {
        // Skip the RMW entirely for zero fields — the common warm path
        // only touches a few of them.
        let add = |cell: &AtomicU64, v: u64| {
            if v != 0 {
                cell.fetch_add(v, Ordering::Relaxed);
            }
        };
        add(&self.nodes, local.nodes);
        add(&self.rule_checks, local.rule_checks);
        add(&self.chain_checks, local.chain_checks);
        add(&self.hash_lookups, local.hash_lookups);
        add(&self.table_lookups, local.table_lookups);
        add(&self.states_built, local.states_built);
        add(&self.memo_hits, local.memo_hits);
        add(&self.memo_misses, local.memo_misses);
        add(&self.dyncost_evals, local.dyncost_evals);
        add(&self.flushes, local.flushes);
        add(&self.compactions, local.compactions);
        add(&self.states_evicted, local.states_evicted);
        add(&self.deadline_misses, local.deadline_misses);
        add(&self.rejected_submits, local.rejected_submits);
        add(&self.shed_submits, local.shed_submits);
        add(&self.maintenance_runs, local.maintenance_runs);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> WorkCounters {
        WorkCounters {
            nodes: self.nodes.load(Ordering::Relaxed),
            rule_checks: self.rule_checks.load(Ordering::Relaxed),
            chain_checks: self.chain_checks.load(Ordering::Relaxed),
            hash_lookups: self.hash_lookups.load(Ordering::Relaxed),
            table_lookups: self.table_lookups.load(Ordering::Relaxed),
            states_built: self.states_built.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.memo_misses.load(Ordering::Relaxed),
            dyncost_evals: self.dyncost_evals.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            states_evicted: self.states_evicted.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            rejected_submits: self.rejected_submits.load(Ordering::Relaxed),
            shed_submits: self.shed_submits.load(Ordering::Relaxed),
            maintenance_runs: self.maintenance_runs.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for cell in [
            &self.nodes,
            &self.rule_checks,
            &self.chain_checks,
            &self.hash_lookups,
            &self.table_lookups,
            &self.states_built,
            &self.memo_hits,
            &self.memo_misses,
            &self.dyncost_evals,
            &self.flushes,
            &self.compactions,
            &self.states_evicted,
            &self.deadline_misses,
            &self.rejected_submits,
            &self.shed_submits,
            &self.maintenance_runs,
        ] {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

impl fmt::Display for WorkCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nodes={} work={} (rules={} chains={} hash={} table={} built={} hits={} misses={} dyn={} \
             flushes={} compactions={} evicted={} deadline-missed={} rejected={} shed={} maintenance={})",
            self.nodes,
            self.work_units(),
            self.rule_checks,
            self.chain_checks,
            self.hash_lookups,
            self.table_lookups,
            self.states_built,
            self.memo_hits,
            self.memo_misses,
            self.dyncost_evals,
            self.flushes,
            self.compactions,
            self.states_evicted,
            self.deadline_misses,
            self.rejected_submits,
            self.shed_submits,
            self.maintenance_runs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = WorkCounters {
            nodes: 1,
            rule_checks: 2,
            ..WorkCounters::default()
        };
        let b = WorkCounters {
            nodes: 3,
            rule_checks: 4,
            memo_hits: 5,
            ..WorkCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.nodes, 4);
        assert_eq!(a.rule_checks, 6);
        assert_eq!(a.memo_hits, 5);
    }

    #[test]
    fn work_per_node_handles_zero() {
        assert_eq!(WorkCounters::default().work_per_node(), 0.0);
        let c = WorkCounters {
            nodes: 2,
            rule_checks: 10,
            ..WorkCounters::default()
        };
        assert_eq!(c.work_per_node(), 5.0);
    }

    #[test]
    fn governance_counters_flow_through_merge_since_and_atomics() {
        let mut a = WorkCounters {
            flushes: 1,
            compactions: 2,
            states_evicted: 10,
            ..WorkCounters::default()
        };
        let b = WorkCounters {
            flushes: 3,
            compactions: 1,
            states_evicted: 5,
            ..WorkCounters::default()
        };
        a.merge(&b);
        assert_eq!((a.flushes, a.compactions, a.states_evicted), (4, 3, 15));
        let delta = a.since(&b);
        assert_eq!(
            (delta.flushes, delta.compactions, delta.states_evicted),
            (1, 2, 10)
        );
        let atomics = AtomicWorkCounters::new();
        atomics.merge(&a);
        assert_eq!(atomics.snapshot().states_evicted, 15);
        atomics.reset();
        assert_eq!(atomics.snapshot().compactions, 0);
    }

    #[test]
    fn service_counters_flow_through_merge_since_and_atomics() {
        let mut a = WorkCounters {
            deadline_misses: 2,
            rejected_submits: 5,
            shed_submits: 4,
            maintenance_runs: 3,
            ..WorkCounters::default()
        };
        // Service outcomes are bookkeeping, not labeling work.
        assert_eq!(a.work_units(), 0);
        let b = WorkCounters {
            deadline_misses: 1,
            rejected_submits: 1,
            shed_submits: 1,
            maintenance_runs: 1,
            ..WorkCounters::default()
        };
        a.merge(&b);
        assert_eq!(
            (
                a.deadline_misses,
                a.rejected_submits,
                a.shed_submits,
                a.maintenance_runs
            ),
            (3, 6, 5, 4)
        );
        let delta = a.since(&b);
        assert_eq!(
            (
                delta.deadline_misses,
                delta.rejected_submits,
                delta.shed_submits,
                delta.maintenance_runs
            ),
            (2, 5, 4, 3)
        );
        let atomics = AtomicWorkCounters::new();
        atomics.merge(&a);
        assert_eq!(atomics.snapshot().maintenance_runs, 4);
        assert_eq!(atomics.snapshot().shed_submits, 5);
        let shown = format!("{a}");
        assert!(shown.contains("deadline-missed=3"), "{shown}");
        assert!(shown.contains("rejected=6"), "{shown}");
        assert!(shown.contains("shed=5"), "{shown}");
        assert!(shown.contains("maintenance=4"), "{shown}");
        atomics.reset();
        assert_eq!(atomics.snapshot().rejected_submits, 0);
        assert_eq!(atomics.snapshot().shed_submits, 0);
    }

    #[test]
    fn reset_zeroes() {
        let mut c = WorkCounters {
            nodes: 7,
            ..WorkCounters::default()
        };
        c.reset();
        assert_eq!(c, WorkCounters::default());
    }

    #[test]
    fn atomic_counters_merge_and_reset() {
        let shared = AtomicWorkCounters::new();
        let local = WorkCounters {
            nodes: 3,
            memo_hits: 5,
            ..WorkCounters::default()
        };
        shared.merge(&local);
        shared.merge(&local);
        let snap = shared.snapshot();
        assert_eq!(snap.nodes, 6);
        assert_eq!(snap.memo_hits, 10);
        assert_eq!(snap.rule_checks, 0);
        shared.reset();
        assert_eq!(shared.snapshot(), WorkCounters::default());
    }

    #[test]
    fn atomic_counters_merge_concurrently() {
        let shared = AtomicWorkCounters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        shared.merge(&WorkCounters {
                            nodes: 1,
                            hash_lookups: 2,
                            ..WorkCounters::default()
                        });
                    }
                });
            }
        });
        let snap = shared.snapshot();
        assert_eq!(snap.nodes, 4000);
        assert_eq!(snap.hash_lookups, 8000);
    }
}
