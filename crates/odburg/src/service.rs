//! The multi-target selection service: a **grammar registry** plus a
//! long-running **[`SelectorServer`]** front end.
//!
//! Everything below `odburg::service` drives *one* grammar per labeler.
//! A JIT service does not get that luxury: requests arrive for many
//! targets at once, continuously, and the service has to answer under
//! latency targets with bounded memory. This module is that layer:
//!
//! * **Registry** — targets map to lazily built
//!   [`SharedOnDemand`] masters under the default [`OnDemandConfig`].
//!   The six built-in grammars come pre-registered via
//!   `with_builtin_targets`; more targets can register at any time.
//! * **Warm start** — with a tables directory configured, a master is
//!   seeded from `<dir>/<target>.odbt` (the
//!   [`odburg_core::persist`] format written by
//!   `odburg tables export`). A missing file means a cold start; a
//!   *mismatched* file is a hard [`ServiceError::Tables`] carrying the
//!   target name — never a silent cold start, never a mislabel.
//! * **The server** — [`SelectorServer`] owns a persistent worker pool
//!   fed by a **bounded** two-lane (priority) job queue.
//!   [`try_submit`](SelectorServer::try_submit) either accepts a job
//!   and returns a [`JobHandle`], or rejects it with a *typed*
//!   [`SubmitError`] — [`SubmitError::QueueFull`] is backpressure as a
//!   first-class outcome, not an error to hide. Per-job
//!   [`JobOptions`] carry a deadline and a priority; a job whose
//!   deadline passes while it waits is completed with
//!   [`JobError::DeadlineExceeded`] instead of being labeled.
//!   Completion is delivered through [`JobHandle::wait`] /
//!   [`JobHandle::try_wait`] — no global drain barrier.
//! * **Overload-grade scheduling** — within each lane jobs pop earliest
//!   deadline first; jobs without a deadline keep arrival order behind
//!   every deadline, so deadline-less traffic is served exactly in
//!   arrival order. Admission control completes the picture:
//!   a full queue first **purges already-expired jobs** (completing
//!   them as `DeadlineExceeded`) before `QueueFull` rejects, and with
//!   [`ServerConfig::shed_infeasible`] set the server **sheds** jobs
//!   whose deadline the queue ahead of them already blows
//!   ([`SubmitError::Infeasible`], estimated from a per-target EWMA of
//!   observed service time). Optional [`FairConfig`] adds weighted
//!   per-target fair queueing (deficit round-robin) so one hot target
//!   cannot starve the registry.
//! * **Off-path maintenance** — the server's [`MemoryBudget`]
//!   ([`ServerConfig::memory_budget`]) is enforced per target
//!   (compaction, flushes), never on the submit or complete path.
//!   Workers run **maintenance quanta** between jobs
//!   ([`SharedOnDemand::run_maintenance`]): after a target's job
//!   completes, a quantum for that target is queued behind the
//!   remaining jobs and enforces the budget in the next gap — with a
//!   starvation bound, so sustained saturation cannot defer
//!   enforcement indefinitely. [`WorkCounters::maintenance_runs`]
//!   proves where the work happened.
//! * **One job ledger** — every job outcome (submitted, accepted,
//!   rejected, shed, completed, failed, deadline-missed, panicked) is
//!   counted once, in the per-target [`TargetMetrics`] of the server's
//!   [`Telemetry`] registry. [`ServerReport`] and its per-target
//!   [`TargetServerStats::jobs`] are read from that registry, so a
//!   report and a telemetry export read the same counters.
//! * **Wake-free handoff** — waking a parked thread costs several
//!   microseconds, as much as labeling a small job, so the common path
//!   avoids it. A worker that finishes a task and finds nothing queued
//!   spins for up to `SPIN_WINDOW` (50 µs) on an admission sequence
//!   before it parks; a submit wakes a worker only when one is parked
//!   and the pending tasks outnumber the spinning workers; a
//!   [`JobHandle::wait`] polls its result for the same window before it
//!   sleeps, and delivery wakes only a waiter that sleeps. At most one
//!   worker per server spins at a time, and only on a server whose
//!   workers leave a core free (`workers < available_parallelism()`), so
//!   a server that uses every core never spins. A futex is touched only
//!   when someone sleeps.
//! * **Graceful shutdown** — [`shutdown`](SelectorServer::shutdown)
//!   rejects new submits, finishes every accepted job (in-flight
//!   pinned labelings included), re-exports per-target tables into the
//!   configured directory so heat survives restarts, and returns a
//!   final [`ServerReport`].
//! * **Batches** — a batch is the same server with an uncapped queue
//!   (`queue_cap: usize::MAX`, no deadlines): submit every job, wait on
//!   each [`JobHandle`], then [`wait_idle`](SelectorServer::wait_idle)
//!   (or `shutdown`) before reading table sizes, so they reflect the
//!   maintenance quanta the batch scheduled. A panicking job is a
//!   [`JobError::Panicked`] there too, never a crashed caller.
//!
//! # Job lifecycle
//!
//! ```text
//! try_submit(target, forest)
//!     │            ┌──────────────── Shutdown (typed reject)
//!     ▼            │
//!  admission: full? → purge expired ─► still full? ── QueueFull
//!     │       infeasible? (EWMA × jobs-ahead > deadline) ── Infeasible (shed)
//!     ▼
//!  [bounded queue: high │ normal; earliest deadline first, optional per-target DRR]
//!     │ bump the admission sequence; notify_one only if a worker is
//!     │ parked and the pending tasks outnumber the spinning workers
//!     ▼
//!  worker (spinning on the sequence, or parked): pop (priority first)
//!     │
//!     ▼
//!  deadline passed? ──yes──► JobError::DeadlineExceeded ─┐
//!     │ no                                               │
//!     ▼                                                  ▼
//!  label_forest_pinned ──► Ok(PinnedLabeling) / JobError ──► deliver: set `ready`;
//!     │                                      wake the waiter only if it sleeps
//!     │                                                  │
//!     │                       JobHandle::wait(): poll `ready` for the spin
//!     │                       window, then sleep  /  try_wait(): poll once
//!     ▼
//!  maintenance quantum for the job's target (between jobs:
//!  budget check → compact/flush off the hot path)
//!     │
//!     ▼
//!  nothing queued: spin up to SPIN_WINDOW (one worker per server, only
//!  when the workers leave a core free), then park
//! ```
//!
//! # Epoch pinning
//!
//! Every job is labeled through
//! [`SharedOnDemand::label_forest_pinned`], so each result owns the
//! exact snapshot its state ids refer to. Results stay valid however
//! long the caller holds them — later jobs, grow-path publications,
//! compactions and flushes cannot invalidate them. The price is
//! documented snapshot retention: a held result pins one snapshot, and
//! hazard-pointer reclamation keeps `snapshots_retained()` bounded by
//! live pins, not publications.
//!
//! # Examples
//!
//! ```
//! use odburg::service::{JobOptions, SelectorServer, ServerConfig};
//! use odburg_ir::{parse_sexpr, Forest};
//!
//! let server = SelectorServer::with_builtin_targets(ServerConfig {
//!     workers: 2,
//!     queue_cap: 64,
//!     ..ServerConfig::default()
//! });
//! let mut forest = Forest::new();
//! let root = parse_sexpr(&mut forest, "(StoreI8 (AddrLocalP @x) (ConstI8 1))")?;
//! forest.add_root(root);
//! let handle = server.try_submit("demo", forest)?;
//! let done = handle.wait();
//! let code = done.reduce()?;
//! assert_eq!(code.instructions.len(), 2);
//! let report = server.shutdown();
//! assert_eq!(report.completed, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use odburg_codegen::{reduce_forest, ReduceError, Reduction};
use odburg_core::telemetry::{Event, EventKind, JobCounts, TargetMetrics, Telemetry};
use odburg_core::{
    persist, verify, LabelError, MemoryBudget, OnDemandAutomaton, OnDemandConfig, PersistError,
    PinnedLabeling, PressureEvent, SharedOnDemand, WorkCounters,
};
use odburg_grammar::{Diagnostic, Grammar, NormalGrammar, Severity};
use odburg_ir::Forest;

/// Queue capacity a [`ServerConfig`] of `queue_cap: 0` resolves to.
pub const DEFAULT_QUEUE_CAP: usize = 256;

/// What registration does with the grammar verifier's findings
/// ([`odburg_core::verify::analyze`]).
///
/// The verifier runs once per registration, before the target becomes
/// visible; its findings stay queryable afterwards via
/// [`SelectorServer::diagnostics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisPolicy {
    /// Reject grammars with error-severity findings (`NoCover` provably
    /// reachable, underivable start symbol) with
    /// [`ServiceError::Analysis`]. Warnings register fine.
    Deny,
    /// Run the verifier and record its findings, but register
    /// everything. The default: a grammar with warnings still works.
    #[default]
    WarnOnly,
}

/// Weighted per-target fair queueing (deficit round-robin). Each lane
/// splits into per-target sub-queues; a round visits every target with
/// waiting work and lets it pop up to `weight` jobs (its quantum)
/// before yielding, so a hot target can no longer starve the registry.
/// Within a sub-queue jobs still pop earliest deadline first.
#[derive(Debug, Clone, Default)]
pub struct FairConfig {
    /// Per-target weights — jobs a target may pop per round. Unlisted
    /// targets weigh 1; configured weights of 0 are clamped to 1.
    pub weights: Vec<(String, u32)>,
}

impl FairConfig {
    fn weight_of(&self, target: &str) -> u32 {
        self.weights
            .iter()
            .find(|(name, _)| name == target)
            .map(|(_, w)| *w)
            .unwrap_or(1)
            .max(1)
    }
}

/// Configuration of a [`SelectorServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Size of the persistent worker pool. `0` picks the machine's
    /// available parallelism, capped at 8.
    pub workers: usize,
    /// Capacity of the bounded job queue (waiting jobs, both priority
    /// lanes together; jobs being labeled do not count). Submissions
    /// beyond it are rejected with [`SubmitError::QueueFull`] — after
    /// already-expired queued jobs have been purged, so dead work never
    /// holds capacity against live work. `0` resolves to
    /// [`DEFAULT_QUEUE_CAP`]; a batch that must never see `QueueFull`
    /// sets `usize::MAX`.
    pub queue_cap: usize,
    /// Shed infeasible submissions at admission: when the submitting
    /// job carries a deadline and the per-target service-time EWMA says
    /// the queue ahead of it already takes longer than that deadline,
    /// reject with [`SubmitError::Infeasible`] instead of queueing work
    /// that is doomed to expire. Off by default (it changes the submit
    /// contract), and moot for deadline-less jobs.
    pub shed_infeasible: bool,
    /// Weighted per-target fair queueing; `None` (the default) keeps
    /// one sub-queue per lane.
    pub fair: Option<FairConfig>,
    /// Directory of persisted tables: masters warm-start from
    /// `<dir>/<target>.odbt` (missing files start cold; mismatched or
    /// corrupted ones are [`ServiceError::Tables`], never a silent cold
    /// start), and [`SelectorServer::shutdown`] re-exports each built
    /// master's tables back into it so the hot working set survives
    /// restarts.
    pub tables_dir: Option<PathBuf>,
    /// The memory budget every target's tables are held to, enforced in
    /// the maintenance quanta workers run between jobs — never on the
    /// submit path.
    pub memory_budget: Option<MemoryBudget>,
    /// What registration does with grammar-verifier findings.
    pub analysis_policy: AnalysisPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_cap: DEFAULT_QUEUE_CAP,
            shed_infeasible: false,
            fair: None,
            tables_dir: None,
            memory_budget: None,
            analysis_policy: AnalysisPolicy::default(),
        }
    }
}

/// Errors of the registry (unknown targets, duplicate registration,
/// rejected table files).
#[derive(Debug)]
pub enum ServiceError {
    /// The target is not registered.
    UnknownTarget {
        /// The name that failed to resolve.
        target: String,
    },
    /// A target of this name is already registered.
    DuplicateTarget {
        /// The conflicting name.
        target: String,
    },
    /// Persisted tables for the target failed to load or validate. The
    /// target name travels with the underlying [`PersistError`] so a
    /// registry over many targets pinpoints which file is wrong.
    Tables {
        /// The target whose tables were rejected.
        target: String,
        /// Why the tables were rejected.
        error: PersistError,
    },
    /// The grammar verifier found error-severity defects and the
    /// registration policy is [`AnalysisPolicy::Deny`]. Every finding
    /// (including warnings) travels with the error.
    Analysis {
        /// The target whose grammar was rejected.
        target: String,
        /// The verifier's findings, most severe first.
        diagnostics: Vec<Diagnostic>,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownTarget { target } => {
                write!(f, "unknown target `{target}` (not registered)")
            }
            ServiceError::DuplicateTarget { target } => {
                write!(f, "target `{target}` is already registered")
            }
            ServiceError::Tables { target, error } => {
                write!(f, "target `{target}`: cannot load tables: {error}")
            }
            ServiceError::Analysis {
                target,
                diagnostics,
            } => {
                let errors = diagnostics
                    .iter()
                    .filter(|d| d.severity >= Severity::Error)
                    .count();
                write!(
                    f,
                    "target `{target}`: grammar rejected by static analysis \
                     ({errors} error{} of {} finding{})",
                    if errors == 1 { "" } else { "s" },
                    diagnostics.len(),
                    if diagnostics.len() == 1 { "" } else { "s" },
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Tables { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Why [`SelectorServer::try_submit`] did not accept a job. Rejection
/// is a *typed, expected* outcome — `QueueFull` is how the server
/// exerts backpressure on an open-loop submitter.
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded queue is at capacity; the job was **not** enqueued.
    /// Resubmit later, shed the load, or raise `queue_cap`.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The server estimated the job cannot meet its deadline and shed
    /// it at admission ([`ServerConfig::shed_infeasible`]); it was
    /// **not** enqueued. Queue slots stay available for feasible work —
    /// goodput over throughput. Resubmit with a looser deadline, or
    /// when the queue drains.
    Infeasible {
        /// The estimated queueing wait at admission: per-target
        /// service-time EWMA × jobs the scheduler would serve first
        /// ÷ workers. Under EDF only earlier-deadline jobs count.
        estimated_wait: Duration,
        /// The deadline the job asked for.
        deadline: Duration,
    },
    /// The server is shutting down and accepts no new jobs.
    Shutdown,
    /// The job never reached the queue: unknown target, or its
    /// persisted tables were rejected.
    Service(ServiceError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(
                    f,
                    "job queue is full ({capacity} jobs); backpressure applies"
                )
            }
            SubmitError::Infeasible {
                estimated_wait,
                deadline,
            } => {
                write!(
                    f,
                    "infeasible: estimated queueing wait {estimated_wait:?} already exceeds \
                     the {deadline:?} deadline; job shed at admission"
                )
            }
            SubmitError::Shutdown => write!(f, "server is shutting down; submissions rejected"),
            SubmitError::Service(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SubmitError::Service(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServiceError> for SubmitError {
    fn from(e: ServiceError) -> Self {
        SubmitError::Service(e)
    }
}

/// Why an accepted job did not produce a labeling.
#[derive(Debug, Clone)]
pub enum JobError {
    /// Labeling ran and failed (uncovered node, budget error, …).
    Label(LabelError),
    /// The job's deadline passed before a worker reached it; it was
    /// completed without being labeled.
    DeadlineExceeded {
        /// How far past the deadline the job was when a worker popped
        /// it.
        missed_by: Duration,
    },
    /// Labeling panicked (e.g. inside a user-bound dynamic-cost
    /// closure). The panic is contained: the worker survives, the job
    /// completes with this error, and every other job is unaffected.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Label(e) => e.fmt(f),
            JobError::DeadlineExceeded { missed_by } => {
                write!(f, "deadline exceeded (missed by {missed_by:?})")
            }
            JobError::Panicked { message } => write!(f, "labeling panicked: {message}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Label(e) => Some(e),
            JobError::DeadlineExceeded { .. } | JobError::Panicked { .. } => None,
        }
    }
}

/// Error of [`CompletedJob::reduce`]: either the job itself failed, or
/// the labeling does not derive the start symbol.
#[derive(Debug)]
pub enum ServeError {
    /// The job completed without a labeling.
    Job(JobError),
    /// The pinned labeling does not reduce.
    Reduce(ReduceError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Job(e) => e.fmt(f),
            ServeError::Reduce(e) => write!(f, "reduction failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Job(e) => Some(e),
            ServeError::Reduce(e) => Some(e),
        }
    }
}

/// Identifies one submitted job within its server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub u64);

impl fmt::Display for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Scheduling class of a job: `High` jobs are popped before any
/// `Normal` job, regardless of arrival order. Both lanes share the
/// bounded queue's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Popped earliest deadline first, after every queued `High` job.
    #[default]
    Normal,
    /// Jumps the normal lane.
    High,
}

/// Per-job options for [`SelectorServer::try_submit_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct JobOptions {
    /// Latest acceptable start, relative to submission. A job still
    /// queued past it is completed with [`JobError::DeadlineExceeded`]
    /// instead of being labeled. A job *already being labeled* when the
    /// deadline passes finishes normally — deadlines bound queueing,
    /// not preemption. `None` means no deadline. The deadline also
    /// orders the queue (earliest first), and with
    /// [`ServerConfig::shed_infeasible`] a deadline the queue already
    /// blows is shed at submit ([`SubmitError::Infeasible`]).
    pub deadline: Option<Duration>,
    /// Scheduling class.
    pub priority: Priority,
}

/// One registered target: its grammar and the lazily built shared
/// master.
#[derive(Debug)]
struct TargetEntry {
    name: String,
    grammar: Arc<NormalGrammar>,
    /// The grammar verifier's findings at registration time.
    diagnostics: Vec<Diagnostic>,
    /// Built on first use; the flag records whether persisted tables
    /// seeded it (for the reports).
    master: Mutex<Option<(Arc<SharedOnDemand>, bool)>>,
    /// EWMA of observed labeling latency in nanoseconds (alpha = 1/4);
    /// `0` means no observation yet. Feasibility shedding multiplies
    /// the jobs ahead of a candidate by this estimate at admission.
    service_ewma_ns: AtomicU64,
    /// Number of latency samples folded into `service_ewma_ns`.
    service_samples: AtomicU64,
    /// Whether the master has had a telemetry scope attached (done once
    /// by the first enqueue that touches this entry).
    telemetry_attached: AtomicBool,
    /// The most recent pressure event a maintenance quantum produced.
    last_pressure: Mutex<Option<PressureEvent>>,
    /// Whether a maintenance quantum for this target is already queued.
    /// Cleared when the quantum is *popped*, so any job completing
    /// after that pop queues a fresh one — the final job of a burst is
    /// always followed by a quantum that sees its growth.
    maintenance_queued: AtomicBool,
}

impl TargetEntry {
    /// Returns the master, building it on first use — warm-started from
    /// `<tables_dir>/<name>.odbt` when that file exists.
    fn master(
        &self,
        tables_dir: Option<&Path>,
    ) -> Result<(Arc<SharedOnDemand>, bool), ServiceError> {
        let mut slot = self.master.lock().expect("registry lock");
        if let Some((master, warm)) = &*slot {
            return Ok((Arc::clone(master), *warm));
        }
        let mut warm = false;
        let master = match tables_dir.map(|d| d.join(format!("{}.odbt", self.name))) {
            Some(path) if path.exists() => {
                let grammar = Arc::clone(&self.grammar);
                let snapshot = persist::load_tables(&path, grammar, OnDemandConfig::default())
                    .map_err(|error| ServiceError::Tables {
                        target: self.name.clone(),
                        error,
                    })?;
                warm = true;
                SharedOnDemand::with_seed_snapshot(Arc::new(snapshot))
            }
            _ => SharedOnDemand::new(OnDemandAutomaton::new(Arc::clone(&self.grammar))),
        };
        let master = Arc::new(master);
        *slot = Some((Arc::clone(&master), warm));
        Ok((master, warm))
    }

    /// The master if it has been built, without building it.
    fn built_master(&self) -> Option<(Arc<SharedOnDemand>, bool)> {
        self.master
            .lock()
            .expect("registry lock")
            .as_ref()
            .map(|(m, w)| (Arc::clone(m), *w))
    }

    /// Feeds one observed labeling latency into the target's
    /// service-time EWMA. The read-modify-write is racy across workers;
    /// the estimate is a statistic, not an invariant.
    fn observe_service(&self, latency: Duration) {
        let sample = latency.as_nanos().min(u64::MAX as u128) as u64;
        let old = self.service_ewma_ns.load(Ordering::Relaxed);
        // max(1): a sub-nanosecond sample must not land on the
        // `0 == no observation` sentinel.
        let new = if old == 0 {
            sample.max(1)
        } else {
            (old - old / 4 + sample / 4).max(1)
        };
        self.service_ewma_ns.store(new, Ordering::Relaxed);
        self.service_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// The current service-time estimate, if any job has been observed.
    fn estimated_service(&self) -> Option<Duration> {
        match self.service_ewma_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }
}

/// The server's grammar registry.
#[derive(Debug)]
struct Registry {
    tables_dir: Option<PathBuf>,
    memory_budget: Option<MemoryBudget>,
    analysis_policy: AnalysisPolicy,
    targets: RwLock<HashMap<String, Arc<TargetEntry>>>,
}

impl Registry {
    fn register(&self, name: &str, grammar: Arc<NormalGrammar>) -> Result<(), ServiceError> {
        // Run the verifier outside the registry lock: analysis is pure
        // and the duplicate check below stays authoritative.
        let diagnostics = verify::analyze(&grammar);
        if self.analysis_policy == AnalysisPolicy::Deny
            && diagnostics.iter().any(|d| d.severity >= Severity::Error)
        {
            return Err(ServiceError::Analysis {
                target: name.to_owned(),
                diagnostics,
            });
        }
        let mut targets = self.targets.write().expect("registry lock");
        if targets.contains_key(name) {
            return Err(ServiceError::DuplicateTarget {
                target: name.to_owned(),
            });
        }
        targets.insert(
            name.to_owned(),
            Arc::new(TargetEntry {
                name: name.to_owned(),
                grammar,
                diagnostics,
                master: Mutex::new(None),
                service_ewma_ns: AtomicU64::new(0),
                service_samples: AtomicU64::new(0),
                telemetry_attached: AtomicBool::new(false),
                last_pressure: Mutex::new(None),
                maintenance_queued: AtomicBool::new(false),
            }),
        );
        Ok(())
    }

    fn entry(&self, target: &str) -> Result<Arc<TargetEntry>, ServiceError> {
        self.targets
            .read()
            .expect("registry lock")
            .get(target)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownTarget {
                target: target.to_owned(),
            })
    }

    /// All registered entries, name-sorted.
    fn entries(&self) -> Vec<Arc<TargetEntry>> {
        let mut entries: Vec<Arc<TargetEntry>> = self
            .targets
            .read()
            .expect("registry lock")
            .values()
            .cloned()
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .targets
            .read()
            .expect("registry lock")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }
}

// ---------------------------------------------------------------------
// Job plumbing: slots, handles, completed jobs.
// ---------------------------------------------------------------------

#[derive(Debug)]
enum SlotState {
    Pending,
    /// Pending, and the handle's owner sleeps on the slot's condvar:
    /// the one state in which delivery has someone to wake.
    Parked,
    // Boxed: a slot outlives its job by however long the caller sits on
    // the handle, and `CompletedJob` (forest + pinned labeling) is big.
    Ready(Box<CompletedJob>),
    Taken,
}

#[derive(Debug)]
struct Slot {
    state: Mutex<SlotState>,
    cond: Condvar,
    /// Set by [`deliver`](Self::deliver) under the lock, so a waiter can
    /// poll for its result without the lock. It publishes nothing: the
    /// result is read under the lock, so `Relaxed` suffices.
    ready: AtomicBool,
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState::Pending),
            cond: Condvar::new(),
            ready: AtomicBool::new(false),
        }
    }

    fn deliver(&self, done: CompletedJob) {
        let mut state = self.state.lock().expect("job slot lock");
        let parked = matches!(*state, SlotState::Parked);
        *state = SlotState::Ready(Box::new(done));
        self.ready.store(true, Ordering::Relaxed);
        // A handle has one owner, so at most one thread sleeps here.
        if parked {
            self.cond.notify_one();
        }
    }
}

/// The caller's side of one accepted job: wait on it (or poll it) for
/// the [`CompletedJob`]. Dropping the handle does not cancel the job.
#[derive(Debug)]
pub struct JobHandle {
    ticket: Ticket,
    target: String,
    slot: Arc<Slot>,
    /// Whether [`wait`](Self::wait) spins before it sleeps: only when
    /// the server's workers do ([`spins`]).
    spin: bool,
}

impl JobHandle {
    /// The job's ticket.
    pub fn ticket(&self) -> Ticket {
        self.ticket
    }

    /// The target the job was submitted against.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Blocks until the job completes and returns its result. On a
    /// server whose workers spin (see the [module docs](self)), it first
    /// polls for the result for up to 50 µs, so a result delivered within
    /// that window costs no wake-up.
    ///
    /// # Panics
    ///
    /// Panics if the result was already taken by
    /// [`try_wait`](Self::try_wait).
    pub fn wait(self) -> CompletedJob {
        if self.spin {
            spin_until(|| self.slot.ready.load(Ordering::Relaxed));
        }
        let mut state = self.slot.state.lock().expect("job slot lock");
        loop {
            match std::mem::replace(&mut *state, SlotState::Taken) {
                SlotState::Ready(done) => return *done,
                SlotState::Taken => panic!("job {} was already waited on", self.ticket),
                SlotState::Pending | SlotState::Parked => {
                    *state = SlotState::Parked;
                    state = self.slot.cond.wait(state).expect("job slot lock");
                }
            }
        }
    }

    /// Returns the result if the job has completed, without blocking.
    /// Once this returns `Some`, the handle is spent.
    pub fn try_wait(&mut self) -> Option<CompletedJob> {
        if !self.slot.ready.load(Ordering::Relaxed) {
            return None;
        }
        let mut state = self.slot.state.lock().expect("job slot lock");
        match &*state {
            SlotState::Ready(_) => match std::mem::replace(&mut *state, SlotState::Taken) {
                SlotState::Ready(done) => Some(*done),
                _ => unreachable!("checked Ready above"),
            },
            _ => None,
        }
    }
}

/// The outcome of one served job.
#[derive(Debug)]
pub struct CompletedJob {
    /// The ticket [`SelectorServer::try_submit`] returned for this job.
    pub ticket: Ticket,
    /// The target the job was labeled against.
    pub target: String,
    /// The submitted forest, returned to the caller.
    pub forest: Forest,
    /// The labeling, pinned to the exact snapshot its state ids refer
    /// to, or why the job produced none.
    pub outcome: Result<PinnedLabeling, JobError>,
    /// Wall-clock time the job spent labeling on its worker (zero for
    /// deadline-expired jobs, which are never labeled).
    pub latency: Duration,
    /// Time the job spent queued before a worker popped it.
    pub queued: Duration,
}

impl CompletedJob {
    /// The epoch of the snapshot this job's labeling is pinned to.
    pub fn epoch(&self) -> Option<u64> {
        self.outcome.as_ref().ok().map(|p| p.snapshot().epoch())
    }

    /// Reduces the job to instructions against its pinned snapshot's
    /// grammar.
    ///
    /// # Errors
    ///
    /// [`ServeError::Job`] if the job failed or missed its deadline,
    /// [`ServeError::Reduce`] if the forest is not derivable from the
    /// start symbol.
    pub fn reduce(&self) -> Result<Reduction, ServeError> {
        match &self.outcome {
            Ok(pinned) => {
                reduce_forest(&self.forest, pinned.snapshot().grammar(), &pinned.chooser())
                    .map_err(ServeError::Reduce)
            }
            Err(e) => Err(ServeError::Job(e.clone())),
        }
    }
}

// ---------------------------------------------------------------------
// The server core: bounded queue, worker pool, maintenance quanta.
// ---------------------------------------------------------------------

/// One accepted, not-yet-completed job.
#[derive(Debug)]
struct QueuedJob {
    ticket: Ticket,
    entry: Arc<TargetEntry>,
    master: Arc<SharedOnDemand>,
    /// The target's telemetry handle, resolved at admission so workers
    /// never re-intern on the pop path.
    metrics: Arc<TargetMetrics>,
    forest: Forest,
    deadline: Option<Instant>,
    accepted_at: Instant,
    slot: Arc<Slot>,
}

// ---------------------------------------------------------------------
// The scheduler: EDF sub-queues, optional per-target DRR lanes.
// ---------------------------------------------------------------------

/// One queued job with its scheduling key: the absolute deadline and a
/// monotone admission sequence number for the arrival-order tiebreak.
#[derive(Debug)]
struct SchedEntry {
    deadline: Option<Instant>,
    seq: u64,
    job: QueuedJob,
}

impl PartialEq for SchedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for SchedEntry {}

impl PartialOrd for SchedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SchedEntry {
    /// Earliest deadline first; `None` sorts after every deadline; the
    /// admission sequence breaks ties and orders the no-deadline tail —
    /// `seq` is unique, so this is a total order.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self.deadline, other.deadline) {
            (Some(a), Some(b)) => a.cmp(&b).then(self.seq.cmp(&other.seq)),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => self.seq.cmp(&other.seq),
        }
    }
}

/// One ordered queue of waiting jobs: earliest deadline first
/// (min-heap via `Reverse`).
#[derive(Debug, Default)]
struct SubQueue(BinaryHeap<Reverse<SchedEntry>>);

impl SubQueue {
    fn push(&mut self, entry: SchedEntry) {
        self.0.push(Reverse(entry));
    }

    fn pop(&mut self) -> Option<SchedEntry> {
        self.0.pop().map(|Reverse(e)| e)
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// Jobs this queue serves before a hypothetical new entry with
    /// absolute `deadline`: the queued jobs with an earlier-or-equal
    /// deadline.
    fn count_ahead(&self, deadline: Instant) -> usize {
        self.0
            .iter()
            .filter(|Reverse(e)| e.deadline.is_some_and(|d| d <= deadline))
            .count()
    }

    /// Removes every job whose deadline has already passed at `now`.
    fn purge_expired(&mut self, now: Instant, out: &mut Vec<QueuedJob>) {
        let (expired, live): (Vec<_>, Vec<_>) = std::mem::take(&mut self.0)
            .into_vec()
            .into_iter()
            .partition(|Reverse(e)| e.deadline.is_some_and(|d| now >= d));
        out.extend(expired.into_iter().map(|Reverse(e)| e.job));
        self.0 = BinaryHeap::from(live);
    }
}

/// One target's flow in a fair ([`DrrLane`]) lane.
#[derive(Debug)]
struct Flow {
    queue: SubQueue,
    /// Jobs this flow may still pop in its current head visit.
    deficit: u32,
    /// The quantum granted per round ([`FairConfig`] weight).
    weight: u32,
    /// Whether the flow is enlisted in the round (in `active`, or the
    /// current head). Guards against double insertion.
    enlisted: bool,
}

/// Deficit round-robin across per-target flows: each flow with waiting
/// work gets `weight` pops per round, so a hot target cannot starve a
/// cold one — the cold target's first job waits at most one round.
#[derive(Debug)]
struct DrrLane {
    fair: FairConfig,
    flows: HashMap<String, Flow>,
    /// Round-robin order of enlisted flows.
    active: VecDeque<String>,
    /// The flow currently at the head of the round (quantum not yet
    /// exhausted), kept out of `active` between pops.
    current: Option<String>,
}

impl DrrLane {
    fn push(&mut self, entry: SchedEntry) {
        let target = entry.job.entry.name.clone();
        if !self.flows.contains_key(&target) {
            self.flows.insert(
                target.clone(),
                Flow {
                    queue: SubQueue::default(),
                    deficit: 0,
                    weight: self.fair.weight_of(&target),
                    enlisted: false,
                },
            );
        }
        let flow = self.flows.get_mut(&target).expect("flow inserted above");
        flow.queue.push(entry);
        if !flow.enlisted {
            flow.enlisted = true;
            self.active.push_back(target);
        }
    }

    fn pop(&mut self) -> Option<SchedEntry> {
        loop {
            let target = match self.current.take() {
                Some(t) => t,
                None => {
                    let t = self.active.pop_front()?;
                    // A fresh head visit grants the flow its quantum.
                    let flow = self.flows.get_mut(&t).expect("enlisted flows exist");
                    flow.deficit = flow.deficit.saturating_add(flow.weight);
                    t
                }
            };
            let flow = self.flows.get_mut(&target).expect("enlisted flows exist");
            if flow.queue.is_empty() {
                // Fully purged while enlisted: leave the round.
                flow.deficit = 0;
                flow.enlisted = false;
                continue;
            }
            if flow.deficit == 0 {
                // Quantum exhausted: rotate to the back of the round.
                self.active.push_back(target);
                continue;
            }
            flow.deficit -= 1;
            let entry = flow.queue.pop().expect("checked non-empty");
            if flow.queue.is_empty() {
                flow.deficit = 0;
                flow.enlisted = false;
            } else {
                self.current = Some(target);
            }
            return Some(entry);
        }
    }

    fn purge_expired(&mut self, now: Instant, out: &mut Vec<QueuedJob>) {
        for flow in self.flows.values_mut() {
            flow.queue.purge_expired(now, out);
        }
    }

    fn len(&self) -> usize {
        self.flows.values().map(|f| f.queue.len()).sum()
    }

    fn count_ahead(&self, deadline: Instant) -> usize {
        self.flows
            .values()
            .map(|f| f.queue.count_ahead(deadline))
            .sum()
    }
}

/// One priority lane: a single [`SubQueue`], or per-target DRR flows.
#[derive(Debug)]
enum Lane {
    Single(SubQueue),
    Fair(DrrLane),
}

impl Lane {
    fn new(fair: Option<&FairConfig>) -> Self {
        match fair {
            None => Lane::Single(SubQueue::default()),
            Some(fair) => Lane::Fair(DrrLane {
                fair: fair.clone(),
                flows: HashMap::new(),
                active: VecDeque::new(),
                current: None,
            }),
        }
    }

    fn push(&mut self, entry: SchedEntry) {
        match self {
            Lane::Single(q) => q.push(entry),
            Lane::Fair(drr) => drr.push(entry),
        }
    }

    fn pop(&mut self) -> Option<SchedEntry> {
        match self {
            Lane::Single(q) => q.pop(),
            Lane::Fair(drr) => drr.pop(),
        }
    }

    fn purge_expired(&mut self, now: Instant, out: &mut Vec<QueuedJob>) {
        match self {
            Lane::Single(q) => q.purge_expired(now, out),
            Lane::Fair(drr) => drr.purge_expired(now, out),
        }
    }

    fn len(&self) -> usize {
        match self {
            Lane::Single(q) => q.len(),
            Lane::Fair(drr) => drr.len(),
        }
    }

    fn count_ahead(&self, deadline: Instant) -> usize {
        match self {
            Lane::Single(q) => q.count_ahead(deadline),
            Lane::Fair(drr) => drr.count_ahead(deadline),
        }
    }
}

/// The two-lane scheduler behind the server's bounded queue. `High`
/// still pops before `Normal`; within each lane jobs pop earliest
/// deadline first (across targets under optional fair queueing).
#[derive(Debug)]
struct Scheduler {
    high: Lane,
    normal: Lane,
    /// Waiting jobs across both lanes (maintained so capacity checks
    /// never walk the fair lanes' flow maps).
    queued: usize,
    /// Admission sequence for the arrival-order tiebreak.
    next_seq: u64,
}

impl Scheduler {
    fn new(fair: Option<&FairConfig>) -> Self {
        Scheduler {
            high: Lane::new(fair),
            normal: Lane::new(fair),
            queued: 0,
            next_seq: 0,
        }
    }

    fn push(&mut self, priority: Priority, job: QueuedJob) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = SchedEntry {
            deadline: job.deadline,
            seq,
            job,
        };
        match priority {
            Priority::High => self.high.push(entry),
            Priority::Normal => self.normal.push(entry),
        }
        self.queued += 1;
    }

    fn pop(&mut self) -> Option<QueuedJob> {
        let entry = self.high.pop().or_else(|| self.normal.pop())?;
        self.queued -= 1;
        Some(entry.job)
    }

    /// Extracts every queued job whose deadline has passed at `now`.
    /// The caller delivers them as `DeadlineExceeded` *after* releasing
    /// the state lock.
    fn purge_expired(&mut self, now: Instant) -> Vec<QueuedJob> {
        let mut out = Vec::new();
        self.high.purge_expired(now, &mut out);
        self.normal.purge_expired(now, &mut out);
        self.queued -= out.len();
        out
    }

    fn len(&self) -> usize {
        self.queued
    }

    /// Jobs the scheduler would serve before a new `priority` job with
    /// absolute `deadline` — the depth that feasibility shedding
    /// multiplies by the per-target service-time estimate. Only
    /// earlier-or-equal deadlines count (later ones will be served
    /// after the candidate). Exact for single sub-queues; approximate
    /// under fair queueing, where round-robin interleaving can reorder
    /// across flows. Costs one
    /// queue scan, only paid on deadline submissions to a capped server
    /// with shedding enabled.
    fn ahead_of(&self, priority: Priority, deadline: Instant) -> usize {
        match priority {
            Priority::High => self.high.count_ahead(deadline),
            Priority::Normal => self.high.len() + self.normal.count_ahead(deadline),
        }
    }
}

/// How many consecutive job pops may starve a pending maintenance
/// quantum before it jumps the line. Under sustained saturation the job
/// lanes never empty; without this bound a memory budget would go
/// unenforced for exactly as long as the overload lasts — the regime
/// the budget exists for.
const MAINTENANCE_STARVATION_BOUND: usize = 32;

/// How long an idle worker polls for new work before it parks, and how
/// long [`JobHandle::wait`] polls for its result before it sleeps.
///
/// Waking a parked thread costs about 7 µs on a 2-vCPU VM (a condvar
/// ping-pong between two threads measured 14.2–14.8 µs per round trip),
/// and `Condvar::notify_one` makes a futex syscall even when nobody
/// waits (229–255 ns). A handoff inside the window pays neither. On
/// perfbench `serve_cold` (1 worker, 2 vCPUs; seeds 3040–3045, 12 s
/// runs, the parent and four windows in rotated order) the median p50
/// latency ratio to the parent was 0.937 with a 15 µs window, 0.948 with
/// 30 µs, 0.911 with 50 µs and 0.884 with 100 µs. Seed by seed 50 and
/// 100 µs were within noise of each other, though at 50 µs about 17% of
/// submits still found the worker parked (5% at 100 µs). 50 µs keeps the
/// gain at half the idle cost: an idle server burns at most one window
/// of one core per idle transition. Only a server whose workers leave a
/// core free spins at all ([`spins`]).
const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// Whether a server of `workers` workers on `cores` cores spins: only
/// when its workers leave a core for the threads that submit and wait,
/// so a spinner never holds a core another thread of the server needs.
fn spins(workers: usize, cores: usize) -> bool {
    workers < cores
}

/// Polls `done` until it holds or [`SPIN_WINDOW`] has passed.
fn spin_until(done: impl Fn() -> bool) {
    let start = Instant::now();
    while !done() && start.elapsed() < SPIN_WINDOW {
        std::hint::spin_loop();
    }
}

#[derive(Debug)]
struct ServerState {
    sched: Scheduler,
    /// Targets with a pending maintenance quantum. Jobs normally pop
    /// first, so quanta run in the gaps between jobs — but after
    /// [`MAINTENANCE_STARVATION_BOUND`] consecutive job pops a pending
    /// quantum goes next, so saturation cannot defer budget
    /// enforcement indefinitely.
    maintenance: VecDeque<Arc<TargetEntry>>,
    /// Consecutive job pops since the last maintenance pop.
    jobs_since_maintenance: usize,
    /// Jobs and quanta currently being processed by workers.
    active: usize,
    /// Workers asleep on [`ServerShared::work`].
    parked: usize,
    /// Workers polling [`ServerShared::admissions`] (at most one).
    spinning: usize,
    /// Callers asleep on [`ServerShared::idle`].
    idle_waiters: usize,
    shutdown: bool,
}

impl ServerState {
    fn queued(&self) -> usize {
        self.sched.len()
    }

    /// Queued jobs and pending maintenance quanta.
    fn pending(&self) -> usize {
        self.sched.len() + self.maintenance.len()
    }

    fn is_idle(&self) -> bool {
        self.pending() == 0 && self.active == 0
    }

    /// Takes the next task, counted as active: a job, unless a pending
    /// maintenance quantum is overdue or no job waits.
    fn pop_task(&mut self) -> Option<Task> {
        let overdue = self.jobs_since_maintenance >= MAINTENANCE_STARVATION_BOUND
            && !self.maintenance.is_empty();
        let job = if overdue { None } else { self.sched.pop() };
        let task = match job {
            Some(job) => {
                self.jobs_since_maintenance += 1;
                Task::Job(job)
            }
            None => {
                let entry = self.maintenance.pop_front()?;
                entry.maintenance_queued.store(false, Ordering::Relaxed);
                self.jobs_since_maintenance = 0;
                Task::Maintain(entry)
            }
        };
        self.active += 1;
        Some(task)
    }
}

/// Flight-recorder lane of the submit path (admission events).
const SUBMIT_LANE: usize = 0;

#[derive(Debug)]
struct ServerShared {
    registry: Registry,
    /// The telemetry hub: per-target metrics registry plus the flight
    /// recorder. Lane 0 is the submit path, lanes `1..=workers` the
    /// workers, the last lane the shared core (epoch publications,
    /// governor actions).
    telemetry: Arc<Telemetry>,
    state: Mutex<ServerState>,
    /// Wakes parked workers: a job or quantum was queued, or shutdown
    /// began.
    work: Condvar,
    /// Bumped under the state lock by every queued job or quantum and by
    /// shutdown; a spinning worker polls it instead of sleeping on
    /// `work`. It publishes nothing (the worker pops under the lock), so
    /// `Relaxed` suffices.
    admissions: AtomicU64,
    /// Whether idle workers and waiting handles spin ([`spins`]).
    spin: bool,
    /// Wakes [`SelectorServer::wait_idle`] callers.
    idle: Condvar,
    queue_cap: usize,
    started: Instant,
    next_ticket: AtomicU64,
}

enum Task {
    Job(QueuedJob),
    Maintain(Arc<TargetEntry>),
    Exit,
}

impl ServerShared {
    /// The flight-recorder lane reserved for shared-core events.
    fn core_lane(&self) -> usize {
        self.telemetry.lane_names().len() - 1
    }

    /// Announces a job or quantum just queued in `st` (the locked state):
    /// bumps the sequence a spinning worker polls, and wakes a parked
    /// worker only when the pending tasks outnumber the spinning workers
    /// — a worker that is busy, spinning or waking looks at the queue
    /// again before it parks.
    fn announce(&self, st: &ServerState) {
        self.admissions.fetch_add(1, Ordering::Relaxed);
        if st.parked > 0 && st.pending() > st.spinning {
            self.work.notify_one();
        }
    }

    /// Wakes [`SelectorServer::wait_idle`] callers once `st` (the locked
    /// state) is idle, if any sleep.
    fn notify_idle(&self, st: &ServerState) {
        if st.idle_waiters > 0 && st.is_idle() {
            self.idle.notify_all();
        }
    }
}

fn worker_loop(shared: Arc<ServerShared>, lane: usize) {
    // Set by every task served: a worker spins only on its way from a
    // task to the park, never at start-up.
    let mut may_spin = false;
    loop {
        let task = {
            let mut st = shared.state.lock().expect("server state lock");
            loop {
                if let Some(task) = st.pop_task() {
                    break task;
                }
                shared.notify_idle(&st);
                if st.shutdown {
                    break Task::Exit;
                }
                if std::mem::take(&mut may_spin) && shared.spin && st.spinning == 0 {
                    st.spinning += 1;
                    let seen = shared.admissions.load(Ordering::Relaxed);
                    drop(st);
                    spin_until(|| shared.admissions.load(Ordering::Relaxed) != seen);
                    st = shared.state.lock().expect("server state lock");
                    st.spinning -= 1;
                    continue;
                }
                st.parked += 1;
                st = shared.work.wait(st).expect("server state lock");
                st.parked -= 1;
            }
        };
        match task {
            Task::Job(job) => process_job(&shared, job, lane),
            Task::Maintain(entry) => run_quantum(&shared, entry),
            Task::Exit => break,
        }
        may_spin = true;
    }
}

/// Saturating nanoseconds of a duration, the unit of every telemetry
/// histogram and event payload.
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Labels one popped job (or expires it) and delivers the result.
fn process_job(shared: &ServerShared, job: QueuedJob, lane: usize) {
    // One timestamp decides both the expiry check and `missed_by`: a
    // second read after the check would fold scheduler delay between
    // the two reads into the reported miss.
    let now = Instant::now();
    let queued = now.saturating_duration_since(job.accepted_at);
    job.metrics.queue_wait.record_duration(queued);
    shared.telemetry.emit(
        lane,
        EventKind::Pop,
        job.metrics.id(),
        job.ticket.0,
        duration_ns(queued),
    );
    let (outcome, latency) = match job.deadline {
        Some(deadline) if now >= deadline => {
            let missed_by = now.saturating_duration_since(deadline);
            job.metrics.counts.add(&JobCounts {
                deadline_missed: 1,
                ..JobCounts::default()
            });
            shared.telemetry.emit(
                lane,
                EventKind::Expire,
                job.metrics.id(),
                job.ticket.0,
                duration_ns(missed_by),
            );
            (
                Err(JobError::DeadlineExceeded { missed_by }),
                Duration::ZERO,
            )
        }
        _ => {
            // The estimate the shedder would have used for this job,
            // read before the sample below folds into the EWMA.
            let est_before = job.entry.service_ewma_ns.load(Ordering::Relaxed);
            let t = Instant::now();
            // Contain panics (user-bound dyncost closures run in here):
            // the worker must survive, and the job must still complete
            // — a hung Pending slot would deadlock wait()/wait_idle()
            // and silently lose the job from the report.
            let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                job.master.label_forest_pinned(&job.forest)
            })) {
                Ok(Ok(pinned)) => Ok(pinned),
                Ok(Err(e)) => Err(JobError::Label(e)),
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_owned());
                    Err(JobError::Panicked { message })
                }
            };
            let latency = t.elapsed();
            // Feed the admission estimator with what serving actually
            // cost — shedding projects queue wait from this EWMA.
            job.entry.observe_service(latency);
            let latency_ns = duration_ns(latency);
            job.metrics.labeling.record(latency_ns);
            if est_before != 0 {
                // How wrong the shedder's estimate would have been for
                // this job — the observability of `Infeasible` verdicts.
                job.metrics
                    .shed_error
                    .record(est_before.abs_diff(latency_ns));
            }
            let panicked = matches!(outcome, Err(JobError::Panicked { .. }));
            job.metrics.counts.add(&JobCounts {
                completed: 1,
                failed: u64::from(outcome.is_err()),
                panics: u64::from(panicked),
                ..JobCounts::default()
            });
            let kind = if panicked {
                EventKind::Panic
            } else {
                EventKind::Complete
            };
            shared
                .telemetry
                .emit(lane, kind, job.metrics.id(), job.ticket.0, latency_ns);
            (outcome, latency)
        }
    };
    job.slot.deliver(CompletedJob {
        ticket: job.ticket,
        target: job.entry.name.clone(),
        forest: job.forest,
        outcome,
        latency,
        queued,
    });

    // Between-jobs maintenance: queue a quantum for this job's target
    // (deduplicated). Queued *behind* the job lanes — budget
    // enforcement never delays a submit or the delivery above — but
    // with a starvation bound, so it still runs under saturation.
    let mut st = shared.state.lock().expect("server state lock");
    if !job.entry.maintenance_queued.swap(true, Ordering::Relaxed) {
        st.maintenance.push_back(Arc::clone(&job.entry));
        shared.announce(&st);
    }
    st.active -= 1;
    shared.notify_idle(&st);
}

/// Runs one maintenance quantum for `entry` and records any pressure
/// event for the reports.
fn run_quantum(shared: &ServerShared, entry: Arc<TargetEntry>) {
    if let Some((master, _)) = entry.built_master() {
        let budget = shared.registry.memory_budget.as_ref();
        let t = Instant::now();
        // Same containment as the labeling path: a panicking quantum
        // must not take the worker (and its `active` slot) with it.
        let event = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            master.run_maintenance(budget)
        }))
        .unwrap_or(None);
        // Any Compact/Flush the quantum triggered is recorded by the
        // master's attached core scope; here we record how long the
        // quantum itself took.
        shared
            .telemetry
            .target(&entry.name)
            .maintenance
            .record_duration(t.elapsed());
        if let Some(event) = event {
            *entry.last_pressure.lock().expect("pressure lock") = Some(event);
        }
    }
    let mut st = shared.state.lock().expect("server state lock");
    st.active -= 1;
    shared.notify_idle(&st);
}

/// The machine's available parallelism, read once per process: the call
/// reads the cgroup files and took 26–90 µs on a 2-vCPU VM, a cost no
/// server set-up should pay again.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn resolve_workers(configured: usize) -> usize {
    match configured {
        0 => cores().min(8),
        n => n,
    }
}

/// Per-target accounting in a [`ServerReport`].
#[derive(Debug, Clone)]
pub struct TargetServerStats {
    /// The target name.
    pub target: String,
    /// The target's job outcomes, read from its telemetry registry
    /// entry ([`TargetMetrics::counts`]).
    pub jobs: JobCounts,
    /// Cumulative work on the target's master, maintenance quanta
    /// included.
    pub counters: WorkCounters,
    /// Accounted bytes of the target's tables.
    pub table_bytes: usize,
    /// Whether the master was warm-started from persisted tables.
    pub warm_started: bool,
    /// The most recent maintenance pressure event, if any fired.
    pub pressure: Option<PressureEvent>,
    /// The shedding service-time EWMA at shutdown, if any job was
    /// observed — the estimate `Infeasible` verdicts multiplied.
    pub service_ewma: Option<Duration>,
    /// Latency samples folded into that EWMA.
    pub service_samples: u64,
}

/// What [`SelectorServer::shutdown`] learned over the server's
/// lifetime. The seven outcome counts are [`Telemetry::totals`] of the
/// server's registry, read after the workers have joined.
/// Conservation invariant once the queue has drained:
/// `accepted == completed + deadline_missed` and
/// `submitted == accepted + rejected + shed` — no job is ever silently
/// lost.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Jobs offered: `accepted + rejected + shed`.
    pub submitted: u64,
    /// Jobs accepted into the queue.
    pub accepted: u64,
    /// Jobs that ran labeling (successfully or not).
    pub completed: u64,
    /// Completed jobs whose labeling failed.
    pub failed: u64,
    /// Jobs expired with [`JobError::DeadlineExceeded`].
    pub deadline_missed: u64,
    /// Submissions rejected with [`SubmitError::QueueFull`] /
    /// [`SubmitError::Shutdown`].
    pub rejected: u64,
    /// Submissions shed at admission as [`SubmitError::Infeasible`].
    pub shed: u64,
    /// Per-target accounting, name-sorted, masters-built only.
    pub per_target: Vec<TargetServerStats>,
    /// Server lifetime.
    pub uptime: Duration,
    /// Worker pool size.
    pub workers: usize,
    /// Bounded queue capacity.
    pub queue_cap: usize,
    /// Targets whose tables were re-exported at shutdown (tables
    /// directory configured).
    pub exported_tables: Vec<String>,
    /// Targets whose shutdown export failed, with the reason.
    pub export_errors: Vec<(String, String)>,
}

impl ServerReport {
    /// Counters aggregated across all targets.
    pub fn counters(&self) -> WorkCounters {
        let mut total = WorkCounters::default();
        for t in &self.per_target {
            total.merge(&t.counters);
        }
        total
    }
}

/// The long-running selection server; see the [module docs](self).
#[derive(Debug)]
pub struct SelectorServer {
    shared: Arc<ServerShared>,
    workers: usize,
    /// Shed infeasible deadline submissions at admission.
    shed_infeasible: bool,
    handles: Mutex<Vec<JoinHandle<()>>>,
    down: AtomicBool,
}

impl SelectorServer {
    /// An empty server: worker pool running, no targets registered.
    pub fn new(config: ServerConfig) -> Self {
        let workers = resolve_workers(config.workers);
        // Recorder lanes: submit path, one per worker, shared core.
        let mut lanes = Vec::with_capacity(workers + 2);
        lanes.push("submit".to_string());
        lanes.extend((0..workers).map(|i| format!("worker-{i}")));
        lanes.push("core".to_string());
        let shared = Arc::new(ServerShared {
            registry: Registry {
                tables_dir: config.tables_dir,
                memory_budget: config.memory_budget,
                analysis_policy: config.analysis_policy,
                targets: RwLock::new(HashMap::new()),
            },
            telemetry: Arc::new(Telemetry::new(lanes)),
            state: Mutex::new(ServerState {
                sched: Scheduler::new(config.fair.as_ref()),
                maintenance: VecDeque::new(),
                jobs_since_maintenance: 0,
                active: 0,
                parked: 0,
                spinning: 0,
                idle_waiters: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            admissions: AtomicU64::new(0),
            spin: spins(workers, cores()),
            idle: Condvar::new(),
            queue_cap: match config.queue_cap {
                0 => DEFAULT_QUEUE_CAP,
                n => n,
            },
            started: Instant::now(),
            next_ticket: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("odburg-serve-{i}"))
                    .spawn(move || worker_loop(shared, SUBMIT_LANE + 1 + i))
                    .expect("spawn server worker")
            })
            .collect();
        SelectorServer {
            shared,
            workers,
            shed_infeasible: config.shed_infeasible,
            handles: Mutex::new(handles),
            down: AtomicBool::new(false),
        }
    }

    /// A server with all six built-in targets
    /// ([`odburg_targets::TARGET_NAMES`]) pre-registered.
    pub fn with_builtin_targets(config: ServerConfig) -> Self {
        let server = SelectorServer::new(config);
        for grammar in odburg_targets::all() {
            server
                .register(&grammar)
                .expect("built-in target names are unique");
        }
        server
    }

    /// Registers a grammar under its own name. Allowed at any time while
    /// serving.
    ///
    /// # Errors
    ///
    /// [`ServiceError::DuplicateTarget`] if the name is taken.
    pub fn register(&self, grammar: &Grammar) -> Result<(), ServiceError> {
        self.register_normal(grammar.name(), Arc::new(grammar.normalize()))
    }

    /// Registers an already-normalized grammar under `name`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::DuplicateTarget`] if the name is taken.
    pub fn register_normal(
        &self,
        name: &str,
        grammar: Arc<NormalGrammar>,
    ) -> Result<(), ServiceError> {
        self.shared.registry.register(name, grammar)
    }

    /// The registered target names, sorted.
    pub fn targets(&self) -> Vec<String> {
        self.shared.registry.names()
    }

    /// The normalized grammar a target labels against.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTarget`] if the name is not registered.
    pub fn grammar(&self, target: &str) -> Result<Arc<NormalGrammar>, ServiceError> {
        Ok(Arc::clone(&self.shared.registry.entry(target)?.grammar))
    }

    /// The grammar verifier's findings for a registered target, recorded
    /// at registration time.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTarget`] if the name is not registered.
    pub fn diagnostics(&self, target: &str) -> Result<Vec<Diagnostic>, ServiceError> {
        Ok(self.shared.registry.entry(target)?.diagnostics.clone())
    }

    /// The target's shared master, building (and warm-starting) it on
    /// first use.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTarget`] or [`ServiceError::Tables`].
    pub fn shared(&self, target: &str) -> Result<Arc<SharedOnDemand>, ServiceError> {
        let entry = self.shared.registry.entry(target)?;
        entry
            .master(self.shared.registry.tables_dir.as_deref())
            .map(|(m, _)| m)
    }

    /// Submits a job with default [`JobOptions`] (no deadline, normal
    /// priority).
    ///
    /// # Errors
    ///
    /// See [`try_submit_with`](Self::try_submit_with).
    pub fn try_submit(&self, target: &str, forest: Forest) -> Result<JobHandle, SubmitError> {
        self.try_submit_with(target, forest, JobOptions::default())
    }

    /// Submits a job, or rejects it with a typed [`SubmitError`].
    /// Acceptance is all-or-nothing: an `Ok` handle is guaranteed to
    /// resolve (labeling, label error, or deadline expiry) — even
    /// across [`shutdown`](Self::shutdown) — and an `Err` means the job
    /// never entered the queue. Nothing is ever silently dropped.
    ///
    /// No compaction or budget enforcement runs here: maintenance
    /// belongs to the worker quanta between jobs.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] (backpressure),
    /// [`SubmitError::Infeasible`] (admission shed, when
    /// [`ServerConfig::shed_infeasible`] is set),
    /// [`SubmitError::Shutdown`], or [`SubmitError::Service`] for
    /// registry/table problems.
    pub fn try_submit_with(
        &self,
        target: &str,
        forest: Forest,
        options: JobOptions,
    ) -> Result<JobHandle, SubmitError> {
        let entry = self.shared.registry.entry(target)?;
        let (master, _) = entry.master(self.shared.registry.tables_dir.as_deref())?;
        let metrics = self.shared.telemetry.target(&entry.name);
        if !entry.telemetry_attached.swap(true, Ordering::Relaxed) {
            // First admission for this target: give its master a core-lane
            // scope so epoch publications and governor actions are
            // recorded too.
            master.attach_telemetry(
                self.shared
                    .telemetry
                    .scope(self.shared.core_lane(), metrics.id()),
            );
        }
        self.shared.telemetry.emit(
            SUBMIT_LANE,
            EventKind::Submit,
            metrics.id(),
            Event::NO_TICKET,
            0,
        );
        let mut st = self.shared.state.lock().expect("server state lock");
        if st.shutdown {
            drop(st);
            metrics.counts.add(&JobCounts {
                submitted: 1,
                rejected: 1,
                ..JobCounts::default()
            });
            self.shared.telemetry.emit(
                SUBMIT_LANE,
                EventKind::Reject,
                metrics.id(),
                Event::NO_TICKET,
                0,
            );
            return Err(SubmitError::Shutdown);
        }
        // Stamped *under* the lock: deadlines measure queueing (as
        // documented), so contention on this lock must not silently eat
        // into a job's deadline budget before it is even queued.
        let accepted_at = Instant::now();
        let deadline = options.deadline.map(|d| accepted_at + d);
        // A full queue first sheds its dead weight: jobs whose deadline
        // has already passed are completed as `DeadlineExceeded` (after
        // the lock drops) instead of occupying bounded slots until a
        // worker pops them — otherwise a queue full of expired work
        // spuriously rejects fresh feasible submits.
        let mut expired = Vec::new();
        if st.queued() >= self.shared.queue_cap {
            expired = st.sched.purge_expired(accepted_at);
        }
        if st.queued() >= self.shared.queue_cap {
            drop(st);
            self.deliver_expired(expired, accepted_at);
            metrics.counts.add(&JobCounts {
                submitted: 1,
                rejected: 1,
                ..JobCounts::default()
            });
            self.shared.telemetry.emit(
                SUBMIT_LANE,
                EventKind::Reject,
                metrics.id(),
                Event::NO_TICKET,
                self.shared.queue_cap.try_into().unwrap_or(u64::MAX),
            );
            return Err(SubmitError::QueueFull {
                capacity: self.shared.queue_cap,
            });
        }
        if self.shed_infeasible {
            if let (Some(deadline), Some(abs_deadline), Some(est)) =
                (options.deadline, deadline, entry.estimated_service())
            {
                let ahead = st.sched.ahead_of(options.priority, abs_deadline);
                let depth = ahead.min(u32::MAX as usize) as u32;
                let workers = self.workers.min(u32::MAX as usize).max(1) as u32;
                let estimated_wait = est.saturating_mul(depth) / workers;
                if estimated_wait > deadline {
                    drop(st);
                    self.deliver_expired(expired, accepted_at);
                    metrics.counts.add(&JobCounts {
                        submitted: 1,
                        shed: 1,
                        ..JobCounts::default()
                    });
                    self.shared.telemetry.emit(
                        SUBMIT_LANE,
                        EventKind::Shed,
                        metrics.id(),
                        Event::NO_TICKET,
                        duration_ns(estimated_wait),
                    );
                    return Err(SubmitError::Infeasible {
                        estimated_wait,
                        deadline,
                    });
                }
            }
        }
        let ticket = Ticket(self.shared.next_ticket.fetch_add(1, Ordering::Relaxed));
        let slot = Arc::new(Slot::new());
        let handle = JobHandle {
            ticket,
            target: entry.name.clone(),
            slot: Arc::clone(&slot),
            spin: self.shared.spin,
        };
        let job = QueuedJob {
            ticket,
            entry,
            master,
            metrics: Arc::clone(&metrics),
            forest,
            deadline,
            accepted_at,
            slot,
        };
        st.sched.push(options.priority, job);
        self.shared.announce(&st);
        drop(st);
        self.deliver_expired(expired, accepted_at);
        metrics.counts.add(&JobCounts {
            submitted: 1,
            accepted: 1,
            ..JobCounts::default()
        });
        self.shared.telemetry.emit(
            SUBMIT_LANE,
            EventKind::Admit,
            metrics.id(),
            ticket.0,
            options.deadline.map_or(0, duration_ns),
        );
        Ok(handle)
    }

    /// Completes jobs the scheduler purged as already expired, exactly
    /// as a worker pop would have: tallied as deadline misses and
    /// delivered as [`JobError::DeadlineExceeded`]. Runs with the state
    /// lock released — delivery takes per-job slot locks and the purged
    /// jobs are already out of the queue.
    fn deliver_expired(&self, expired: Vec<QueuedJob>, now: Instant) {
        for job in expired {
            let deadline = job.deadline.expect("only deadline jobs expire");
            job.metrics.counts.add(&JobCounts {
                deadline_missed: 1,
                ..JobCounts::default()
            });
            self.shared.telemetry.emit(
                SUBMIT_LANE,
                EventKind::Expire,
                job.metrics.id(),
                job.ticket.0,
                duration_ns(now.saturating_duration_since(deadline)),
            );
            job.slot.deliver(CompletedJob {
                ticket: job.ticket,
                target: job.entry.name.clone(),
                forest: job.forest,
                outcome: Err(JobError::DeadlineExceeded {
                    missed_by: now.saturating_duration_since(deadline),
                }),
                latency: Duration::ZERO,
                queued: now.saturating_duration_since(job.accepted_at),
            });
        }
    }

    /// Number of jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("server state lock")
            .queued()
    }

    /// The worker pool size.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// The server's telemetry hub: per-target metrics registry (atomic
    /// counters + latency histograms) and the job-lifecycle flight
    /// recorder. Safe to snapshot and export while workers run; see
    /// [`odburg_core::telemetry`].
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.telemetry
    }

    /// The per-target shedding service-time estimates: `(target, EWMA,
    /// samples)` for every target with at least one observed labeling —
    /// the live view behind [`TargetServerStats::service_ewma`], for
    /// periodic stats lines.
    pub fn service_estimates(&self) -> Vec<(String, Duration, u64)> {
        // `entries()` is name-sorted already.
        self.shared
            .registry
            .entries()
            .into_iter()
            .filter_map(|entry| {
                let est = entry.estimated_service()?;
                Some((
                    entry.name.clone(),
                    est,
                    entry.service_samples.load(Ordering::Relaxed),
                ))
            })
            .collect()
    }

    /// Blocks until every accepted job *and* every queued maintenance
    /// quantum has finished — so table sizes read afterwards reflect
    /// the budget enforcement the finished jobs scheduled.
    pub fn wait_idle(&self) {
        let mut st = self.shared.state.lock().expect("server state lock");
        while !st.is_idle() {
            st.idle_waiters += 1;
            st = self.shared.idle.wait(st).expect("server state lock");
            st.idle_waiters -= 1;
        }
    }

    /// Gracefully shuts the server down: new submissions are rejected
    /// with [`SubmitError::Shutdown`], every already-accepted job is
    /// finished (labeled, failed, or deadline-expired — in-flight
    /// pinned labelings run to completion), pending maintenance quanta
    /// run, per-target tables are re-exported into the configured
    /// tables directory, and the final [`ServerReport`] is returned.
    ///
    /// Idempotent, and safe to race: concurrent calls serialize on the
    /// worker join, so every returned report sees the queue fully
    /// drained (conservation holds in all of them). Only the first
    /// call re-exports tables; later reports carry an empty
    /// `exported_tables`.
    pub fn shutdown(&self) -> ServerReport {
        let first = !self.down.swap(true, Ordering::SeqCst);
        {
            let mut st = self.shared.state.lock().expect("server state lock");
            st.shutdown = true;
            // Stops a spinning worker at once; `notify_all` wakes the
            // parked ones.
            self.shared.admissions.fetch_add(1, Ordering::Relaxed);
        }
        self.shared.work.notify_all();
        {
            // Hold the handles lock across the join: a second shutdown
            // (or Drop) racing the first blocks here until every worker
            // has exited, instead of snapshotting a half-drained queue.
            let mut handles = self.handles.lock().expect("worker handles");
            for handle in handles.drain(..) {
                let _ = handle.join();
            }
        }
        let (exported_tables, export_errors) = if first {
            self.export_tables()
        } else {
            (Vec::new(), Vec::new())
        };
        self.collect_report(exported_tables, export_errors)
    }

    /// Re-exports every built master's tables into the registry's
    /// tables directory (`<dir>/<target>.odbt`).
    fn export_tables(&self) -> (Vec<String>, Vec<(String, String)>) {
        let Some(dir) = self.shared.registry.tables_dir.clone() else {
            return (Vec::new(), Vec::new());
        };
        let mut exported = Vec::new();
        let mut errors = Vec::new();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            errors.push((dir.display().to_string(), e.to_string()));
            return (exported, errors);
        }
        for entry in self.shared.registry.entries() {
            let Some((master, _)) = entry.built_master() else {
                continue;
            };
            let path = dir.join(format!("{}.odbt", entry.name));
            match persist::save_tables(&master.snapshot(), &path) {
                Ok(()) => exported.push(entry.name.clone()),
                Err(e) => errors.push((entry.name.clone(), e.to_string())),
            }
        }
        (exported, errors)
    }

    fn collect_report(
        &self,
        exported_tables: Vec<String>,
        export_errors: Vec<(String, String)>,
    ) -> ServerReport {
        // The registry is the one job ledger, read after the workers
        // have joined: every job they popped has recorded its outcome.
        let totals = self.shared.telemetry.totals();
        debug_assert!(
            totals.conserved(),
            "registry conservation: submitted {} != accepted {} + rejected {} + shed {}",
            totals.submitted,
            totals.accepted,
            totals.rejected,
            totals.shed,
        );
        // Scan the interned targets: `Telemetry::target` would intern
        // one that never saw a job.
        let metrics = self.shared.telemetry.targets();
        let per_target = self
            .shared
            .registry
            .entries()
            .into_iter()
            .filter_map(|entry| {
                let (master, warm_started) = entry.built_master()?;
                Some(TargetServerStats {
                    target: entry.name.clone(),
                    jobs: metrics
                        .iter()
                        .find(|m| m.name() == entry.name)
                        .map(|m| m.counts.snapshot())
                        .unwrap_or_default(),
                    counters: master.counters(),
                    table_bytes: master.accounted_bytes().total(),
                    warm_started,
                    pressure: *entry.last_pressure.lock().expect("pressure lock"),
                    service_ewma: entry.estimated_service(),
                    service_samples: entry.service_samples.load(Ordering::Relaxed),
                })
            })
            .collect();
        ServerReport {
            submitted: totals.submitted,
            accepted: totals.accepted,
            completed: totals.completed,
            failed: totals.failed,
            deadline_missed: totals.deadline_missed,
            rejected: totals.rejected,
            shed: totals.shed,
            per_target,
            uptime: self.shared.started.elapsed(),
            workers: self.workers,
            queue_cap: self.shared.queue_cap,
            exported_tables,
            export_errors,
        }
    }
}

impl Drop for SelectorServer {
    fn drop(&mut self) {
        if !self.down.load(Ordering::SeqCst) {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odburg_core::Labeler;
    use odburg_ir::parse_sexpr;

    fn forest(src: &str) -> Forest {
        let mut f = Forest::new();
        let root = parse_sexpr(&mut f, src).unwrap();
        f.add_root(root);
        f
    }

    /// A batch server: an uncapped queue, so no job is ever rejected.
    fn batch_config(workers: usize) -> ServerConfig {
        ServerConfig {
            workers,
            queue_cap: usize::MAX,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn batch_labels_across_targets() {
        let server = SelectorServer::with_builtin_targets(batch_config(2));
        let handles: Vec<JobHandle> = [
            ("demo", "(StoreI8 (AddrLocalP @x) (ConstI8 1))"),
            ("x86ish", "(AddI4 (ConstI4 1) (ConstI4 2))"),
            ("demo", "(StoreI8 (AddrLocalP @y) (ConstI8 2))"),
        ]
        .into_iter()
        .map(|(target, src)| server.try_submit(target, forest(src)).unwrap())
        .collect();
        let tickets: Vec<Ticket> = handles.iter().map(JobHandle::ticket).collect();
        assert!(tickets.windows(2).all(|w| w[0] < w[1]), "{tickets:?}");
        for (handle, ticket) in handles.into_iter().zip(tickets) {
            let done = handle.wait();
            assert_eq!(done.ticket, ticket);
            assert!(done.epoch().is_some());
            assert!(!done.reduce().unwrap().instructions.is_empty());
        }
        let report = server.shutdown();
        assert_eq!((report.completed, report.failed), (3, 0));
        let demo = report
            .per_target
            .iter()
            .find(|t| t.target == "demo")
            .unwrap();
        assert!(demo.counters.nodes >= 6, "{:?}", demo.counters);
    }

    #[test]
    fn unknown_and_duplicate_targets_error() {
        let server = SelectorServer::with_builtin_targets(batch_config(1));
        assert!(matches!(
            server.try_submit("z80", Forest::new()),
            Err(SubmitError::Service(ServiceError::UnknownTarget { .. }))
        ));
        assert!(matches!(
            server.register(&odburg_targets::demo()),
            Err(ServiceError::DuplicateTarget { .. })
        ));
        assert_eq!(server.targets().len(), 6);
    }

    #[test]
    fn mid_batch_registration_extends_the_registry() {
        let server = SelectorServer::with_builtin_targets(batch_config(2));
        let first = server
            .try_submit("demo", forest("(StoreI8 (AddrLocalP @x) (ConstI8 1))"))
            .unwrap();
        // A target registered while jobs are queued serves the same
        // batch.
        let custom =
            odburg_grammar::parse_grammar("%start reg\nreg: ConstI8 (1) \"li {imm}\"\n").unwrap();
        server
            .register_normal("custom", Arc::new(custom.normalize()))
            .unwrap();
        let second = server.try_submit("custom", forest("(ConstI8 7)")).unwrap();
        assert!(first.wait().outcome.is_ok());
        let done = second.wait();
        assert_eq!(done.target, "custom");
        assert_eq!(done.reduce().unwrap().instructions, vec!["li 7".to_owned()]);
    }

    #[test]
    fn analysis_policy_gates_registration() {
        // A grammar with a selection-completeness hole: StoreI8 covers
        // (a, b) and (b, a) but not (a, a) — a G0003 error.
        let broken = || {
            let g = odburg_grammar::parse_grammar(
                "%start stmt\na: ConstI8 (1)\nb: ConstI4 (1)\n\
                 stmt: StoreI8(a, b) (1)\nstmt: StoreI8(b, a) (1)\n",
            )
            .unwrap();
            Arc::new(g.normalize())
        };
        let server = |analysis_policy| {
            SelectorServer::new(ServerConfig {
                workers: 1,
                analysis_policy,
                ..ServerConfig::default()
            })
        };

        // Deny: registration fails with the findings attached, and the
        // target never becomes visible.
        let deny = server(AnalysisPolicy::Deny);
        match deny.register_normal("broken", broken()) {
            Err(ServiceError::Analysis {
                target,
                diagnostics,
            }) => {
                assert_eq!(target, "broken");
                assert!(diagnostics
                    .iter()
                    .any(|d| d.severity == Severity::Error && d.code.as_str() == "G0003"));
            }
            other => panic!("expected an analysis rejection, got {other:?}"),
        }
        assert!(deny.grammar("broken").is_err());

        // WarnOnly (the default): everything registers; the findings
        // stay queryable.
        let warn = server(AnalysisPolicy::WarnOnly);
        warn.register_normal("broken", broken()).unwrap();
        let diags = warn.diagnostics("broken").unwrap();
        assert!(diags.iter().any(|d| d.code.as_str() == "G0003"));
    }

    #[test]
    fn failed_jobs_are_reported_not_fatal() {
        let server = SelectorServer::with_builtin_targets(batch_config(2));
        let bad = server
            .try_submit("demo", forest("(MulF8 (ConstF8 #1.0) (ConstF8 #1.0))"))
            .unwrap();
        let good = server
            .try_submit("demo", forest("(StoreI8 (AddrLocalP @x) (ConstI8 1))"))
            .unwrap();
        assert!(matches!(
            bad.wait().outcome,
            Err(JobError::Label(LabelError::NoCover { .. }))
        ));
        assert!(good.wait().outcome.is_ok());
        let report = server.shutdown();
        assert_eq!((report.completed, report.failed), (2, 1));
    }

    #[test]
    fn warm_started_registry_labels_without_misses() {
        let dir = std::env::temp_dir().join("odburg-service-warm");
        std::fs::create_dir_all(&dir).unwrap();
        let seen = forest("(StoreI8 (AddrLocalP @x) (AddI8 (LoadI8 (AddrLocalP @x)) (ConstI8 5)))");

        // Yesterday's process: warm a master and persist its tables.
        let normal = Arc::new(odburg_targets::demo().normalize());
        let mut trainer = OnDemandAutomaton::new(Arc::clone(&normal));
        trainer.label_forest(&seen).unwrap();
        persist::save_tables(&trainer.snapshot(), &dir.join("demo.odbt")).unwrap();

        // Today's registry warm-starts and answers the seen workload
        // without ever entering the grow path.
        let server = SelectorServer::with_builtin_targets(ServerConfig {
            tables_dir: Some(dir),
            ..batch_config(1)
        });
        assert!(server
            .try_submit("demo", seen)
            .unwrap()
            .wait()
            .outcome
            .is_ok());
        let report = server.shutdown();
        let stats = &report.per_target[0];
        assert!(stats.warm_started);
        assert_eq!(stats.counters.memo_misses, 0, "{:?}", stats.counters);
        assert_eq!(stats.counters.states_built, 0);
    }

    #[test]
    fn mismatched_tables_surface_the_target_name() {
        // Regression: tables exported for grammar A, dropped into the
        // registry's directory under grammar B's name, must surface the
        // fingerprint-mismatch PersistError with the *target* name
        // attached — never silently fall back to a cold start and never
        // mislabel.
        // A fresh directory: a table file left behind by an earlier run
        // (or an older build) must not decide how `demo` starts.
        let dir =
            std::env::temp_dir().join(format!("odburg-service-mismatch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let normal = Arc::new(odburg_targets::demo().normalize());
        let mut trainer = OnDemandAutomaton::new(normal);
        trainer
            .label_forest(&forest("(StoreI8 (AddrLocalP @x) (ConstI8 1))"))
            .unwrap();
        // demo's tables masquerading as jvmish's.
        persist::save_tables(&trainer.snapshot(), &dir.join("jvmish.odbt")).unwrap();

        let server = SelectorServer::with_builtin_targets(ServerConfig {
            tables_dir: Some(dir.clone()),
            ..batch_config(1)
        });
        let err = server
            .try_submit("jvmish", forest("(ConstI8 1)"))
            .expect_err("mismatched tables must be rejected");
        match &err {
            SubmitError::Service(ServiceError::Tables { target, error }) => {
                assert_eq!(target, "jvmish");
                assert!(
                    matches!(error, PersistError::GrammarMismatch { .. }),
                    "{error:?}"
                );
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert!(err.to_string().contains("jvmish"), "{err}");
        assert!(err.to_string().contains("different grammar"), "{err}");
        // The queue stayed clean and unaffected targets still work.
        assert_eq!(server.queue_depth(), 0);
        let done = server
            .try_submit("demo", forest("(StoreI8 (AddrLocalP @x) (ConstI8 1))"))
            .unwrap()
            .wait();
        assert!(done.outcome.is_ok());
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_on_empty_queue_is_a_cheap_no_op() {
        // Shutdown drains the queue; with nothing submitted no master is
        // built, nothing is exported, and the report is empty.
        let dir = std::env::temp_dir().join(format!("odburg-service-idle-{}", std::process::id()));
        let server = SelectorServer::with_builtin_targets(ServerConfig {
            tables_dir: Some(dir.clone()),
            ..batch_config(1)
        });
        let report = server.shutdown();
        assert_eq!((report.submitted, report.completed), (0, 0));
        assert!(report.per_target.is_empty());
        assert!(report.exported_tables.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -----------------------------------------------------------------
    // Server tests. The heavyweight stress/differential suites live in
    // `tests/server.rs`; these cover the basic contracts.
    // -----------------------------------------------------------------

    fn small_server() -> SelectorServer {
        SelectorServer::with_builtin_targets(ServerConfig {
            workers: 2,
            queue_cap: 16,
            ..ServerConfig::default()
        })
    }

    #[test]
    fn server_submits_and_waits_per_job() {
        let server = small_server();
        let h0 = server
            .try_submit("demo", forest("(StoreI8 (AddrLocalP @x) (ConstI8 1))"))
            .unwrap();
        let h1 = server
            .try_submit("x86ish", forest("(AddI4 (ConstI4 1) (ConstI4 2))"))
            .unwrap();
        assert_eq!(h0.target(), "demo");
        let d1 = h1.wait();
        let d0 = h0.wait();
        assert!(d0.outcome.is_ok());
        assert_eq!(d1.target, "x86ish");
        assert!(!d1.reduce().unwrap().instructions.is_empty());
        let report = server.shutdown();
        assert_eq!(report.submitted, 2);
        assert_eq!(report.accepted, 2);
        assert_eq!(report.completed, 2);
        assert_eq!(report.deadline_missed + report.rejected, 0);
        // Maintenance ran in worker quanta, off the submit path.
        assert!(report.counters().maintenance_runs > 0);
    }

    #[test]
    fn server_unknown_target_is_a_typed_service_error() {
        let server = small_server();
        match server.try_submit("z80", Forest::new()) {
            Err(SubmitError::Service(ServiceError::UnknownTarget { target })) => {
                assert_eq!(target, "z80")
            }
            other => panic!("wrong outcome: {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn server_try_wait_polls_without_blocking() {
        let server = small_server();
        let mut handle = server
            .try_submit("demo", forest("(StoreI8 (AddrLocalP @x) (ConstI8 1))"))
            .unwrap();
        let done = loop {
            if let Some(done) = handle.try_wait() {
                break done;
            }
            std::thread::yield_now();
        };
        assert!(done.outcome.is_ok());
        assert!(handle.try_wait().is_none(), "handle is spent");
        server.shutdown();
    }

    #[test]
    fn server_zero_deadline_expires_without_labeling() {
        let server = small_server();
        let handle = server
            .try_submit_with(
                "demo",
                forest("(StoreI8 (AddrLocalP @x) (ConstI8 1))"),
                JobOptions {
                    deadline: Some(Duration::ZERO),
                    ..JobOptions::default()
                },
            )
            .unwrap();
        let done = handle.wait();
        match &done.outcome {
            Err(JobError::DeadlineExceeded { .. }) => {}
            other => panic!("zero deadline must expire, got {other:?}"),
        }
        assert!(matches!(done.reduce(), Err(ServeError::Job(_))));
        let report = server.shutdown();
        assert_eq!(report.deadline_missed, 1);
        assert_eq!(report.completed, 0);
        let demo = report
            .per_target
            .iter()
            .find(|t| t.target == "demo")
            .unwrap();
        assert_eq!(demo.jobs.deadline_missed, 1);
    }

    #[test]
    fn saturated_job_lanes_cannot_starve_maintenance() {
        // One worker wedged on a gated job while 199 more pile up: the
        // job lanes stay non-empty from the first pop to the last, the
        // exact regime where jobs-first scheduling would defer budget
        // enforcement until the burst ends. The starvation bound must
        // interleave quanta anyway — roughly one per
        // MAINTENANCE_STARVATION_BOUND pops, not a single one at the
        // end.
        const JOBS: usize = 200;
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let server = SelectorServer::new(ServerConfig {
            workers: 1,
            queue_cap: JOBS,
            ..ServerConfig::default()
        });
        server
            .register_normal("gated", gated_grammar(&gate))
            .unwrap();
        let mut handles = vec![server.try_submit("gated", forest("(ConstI8 0)")).unwrap()];
        // Wait for the worker to wedge in the gate, then fill the lanes.
        while server.queue_depth() > 0 {
            std::thread::yield_now();
        }
        for i in 1..JOBS {
            handles.push(
                server
                    .try_submit("gated", forest(&format!("(ConstI8 {i})")))
                    .unwrap(),
            );
        }
        open_gate(&gate);
        for h in handles {
            assert!(h.wait().outcome.is_ok());
        }
        let report = server.shutdown();
        assert_eq!(report.completed, JOBS as u64);
        let quanta = report.counters().maintenance_runs;
        let expected = (JOBS / (MAINTENANCE_STARVATION_BOUND + 1)) as u64;
        assert!(
            quanta >= expected,
            "saturation starved maintenance: {quanta} quanta over {JOBS} jobs \
             (bound {MAINTENANCE_STARVATION_BOUND} implies >= {expected})"
        );
    }

    #[test]
    fn server_contains_labeling_panics_as_typed_job_errors() {
        // A user-bound dyncost closure that panics on a poison value
        // must not take the worker down: the job completes with
        // JobError::Panicked, every other job (before and after) is
        // unaffected, and shutdown still conserves the tallies.
        let mut g = odburg_grammar::parse_grammar(
            "%grammar trap\n%start reg\n%dyncost trap\nreg: ConstI8 [trap]\n",
        )
        .unwrap();
        g.bind_dyncost(
            "trap",
            Arc::new(|forest: &odburg_ir::Forest, node| {
                let v = forest.node(node).payload().as_int().unwrap_or(0);
                assert_ne!(v, 13, "poison constant");
                odburg_grammar::RuleCost::Finite(1)
            }),
        )
        .unwrap();
        let server = SelectorServer::new(ServerConfig {
            workers: 1,
            queue_cap: 16,
            ..ServerConfig::default()
        });
        server
            .register_normal("trap", Arc::new(g.normalize()))
            .unwrap();
        let good_before = server.try_submit("trap", forest("(ConstI8 1)")).unwrap();
        let poisoned = server.try_submit("trap", forest("(ConstI8 13)")).unwrap();
        let good_after = server.try_submit("trap", forest("(ConstI8 2)")).unwrap();
        assert!(good_before.wait().outcome.is_ok());
        match poisoned.wait().outcome {
            Err(JobError::Panicked { message }) => {
                assert!(message.contains("poison"), "{message}")
            }
            other => panic!("panic must surface typed, got {other:?}"),
        }
        assert!(
            good_after.wait().outcome.is_ok(),
            "the worker must survive the panic"
        );
        let report = server.shutdown();
        assert_eq!(report.completed, 3);
        assert_eq!(report.failed, 1);
        assert_eq!(report.completed + report.deadline_missed, report.accepted);
    }

    #[test]
    fn server_shutdown_rejects_new_submits_but_finishes_accepted_work() {
        let server = small_server();
        let handle = server
            .try_submit("demo", forest("(StoreI8 (AddrLocalP @x) (ConstI8 1))"))
            .unwrap();
        let report = server.shutdown();
        assert_eq!(report.completed, 1);
        // The handle still resolves after shutdown.
        assert!(handle.wait().outcome.is_ok());
        match server.try_submit("demo", forest("(ConstI8 1)")) {
            Err(SubmitError::Shutdown) => {}
            other => panic!("wrong outcome: {other:?}"),
        }
        // A second shutdown is a harmless snapshot.
        let again = server.shutdown();
        assert_eq!(again.completed, 1);
        assert_eq!(again.rejected, 1);
    }

    #[test]
    fn server_queue_full_is_a_typed_rejection() {
        // One worker deterministically wedged on a gated job, capacity
        // 1: the next submission fills the queue and the one after must
        // be rejected as QueueFull, visible in the tallies and the
        // target's counters.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let server = SelectorServer::new(ServerConfig {
            workers: 1,
            queue_cap: 1,
            ..ServerConfig::default()
        });
        server
            .register_normal("gated", gated_grammar(&gate))
            .unwrap();
        let h_plug = server.try_submit("gated", forest("(ConstI8 0)")).unwrap();
        // Wait for the worker to pop the plug (a waiting plug occupies
        // the only queue slot itself); it then wedges in the gate.
        while server.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let h_queued = server
            .try_submit("gated", forest("(ConstI8 1)"))
            .expect("capacity 1 admits one waiting job");
        match server.try_submit("gated", forest("(ConstI8 2)")) {
            Err(SubmitError::QueueFull { capacity }) => assert_eq!(capacity, 1),
            other => panic!("a full 1-slot queue must reject, got {other:?}"),
        }
        open_gate(&gate);
        assert!(h_plug.wait().outcome.is_ok());
        assert!(
            h_queued.wait().outcome.is_ok(),
            "accepted jobs are never lost"
        );
        let report = server.shutdown();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.accepted, 2);
        assert_eq!(report.accepted, report.completed);
        let gated = report
            .per_target
            .iter()
            .find(|t| t.target == "gated")
            .unwrap();
        assert_eq!(gated.jobs.rejected, 1);
    }

    /// A grammar whose dynamic cost blocks until `gate` opens — the
    /// deterministic way to wedge a worker mid-labeling.
    fn gated_grammar(gate: &Arc<(Mutex<bool>, Condvar)>) -> Arc<NormalGrammar> {
        let mut g = odburg_grammar::parse_grammar(
            "%grammar gated\n%start reg\n%dyncost gate\nreg: ConstI8 [gate]\n",
        )
        .unwrap();
        let gate = Arc::clone(gate);
        g.bind_dyncost(
            "gate",
            Arc::new(move |_f: &odburg_ir::Forest, _n| {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().expect("gate lock");
                while !*open {
                    open = cv.wait(open).expect("gate lock");
                }
                odburg_grammar::RuleCost::Finite(1)
            }),
        )
        .unwrap();
        Arc::new(g.normalize())
    }

    fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
        let (lock, cv) = &**gate;
        *lock.lock().expect("gate lock") = true;
        cv.notify_all();
    }

    /// Polls the locked server state until `f` returns a value.
    fn poll_state<T>(server: &SelectorServer, f: impl Fn(&ServerState) -> Option<T>) -> T {
        loop {
            if let Some(v) = f(&server.shared.state.lock().expect("server state lock")) {
                return v;
            }
            std::hint::spin_loop();
        }
    }

    #[test]
    fn a_server_spins_only_when_its_workers_leave_a_core_free() {
        assert!(spins(1, 2));
        assert!(spins(3, 4));
        assert!(!spins(1, 1));
        assert!(!spins(2, 2));
        assert!(!spins(8, 2));
        // Workers that fill every core never spin, and neither do the
        // server's handles: an idle worker goes straight to the park.
        let cores = cores();
        let server = SelectorServer::with_builtin_targets(batch_config(cores));
        assert!(!server.shared.spin);
        let handle = server
            .try_submit("demo", forest("(StoreI8 (AddrLocalP @x) (ConstI8 1))"))
            .unwrap();
        assert!(!handle.spin);
        assert!(handle.wait().outcome.is_ok());
        poll_state(&server, |st| {
            assert_eq!(st.spinning, 0, "a server that fills every core spun");
            (st.parked == cores).then_some(())
        });
        server.shutdown();
    }

    #[test]
    fn an_idle_worker_spins_then_parks_and_shutdown_stops_it() {
        let server = SelectorServer::new(batch_config(1));
        // Before its first task the worker parks without spinning, and a
        // submit wakes it.
        poll_state(&server, |st| {
            assert_eq!(st.spinning, 0, "the worker spun before its first task");
            (st.parked == 1).then_some(())
        });
        server.register(&odburg_targets::demo()).unwrap();
        let submit = || {
            server
                .try_submit("demo", forest("(StoreI8 (AddrLocalP @x) (ConstI8 1))"))
                .unwrap()
        };
        assert!(submit().wait().outcome.is_ok());
        let mut jobs = 1;
        if server.shared.spin {
            // After its job and quantum the worker spins, then parks; this
            // thread sees the spin unless it is descheduled for the whole
            // window, so it retries with another job.
            let caught = (0..10_000).any(|_| {
                jobs += 1;
                assert!(submit().wait().outcome.is_ok());
                poll_state(&server, |st| match (st.spinning, st.parked) {
                    (1, _) => Some(true),
                    (_, 1) => Some(false),
                    _ => None,
                })
            });
            assert!(caught, "the worker never spun");
        }
        // Shutdown bumps the sequence the spinner polls: it returns at once,
        // with every job accounted.
        let started = Instant::now();
        let report = server.shutdown();
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!((report.accepted, report.completed), (jobs, jobs));
    }

    #[test]
    fn delivery_wakes_a_parked_waiter() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let server = SelectorServer::new(batch_config(1));
        server
            .register_normal("gated", gated_grammar(&gate))
            .unwrap();
        let handle = server.try_submit("gated", forest("(ConstI8 0)")).unwrap();
        let slot = Arc::clone(&handle.slot);
        std::thread::scope(|s| {
            let waiter = s.spawn(move || handle.wait());
            // The waiter spins out its window while the job is gated, then
            // parks: only then does the job complete.
            while !matches!(
                *slot.state.lock().expect("job slot lock"),
                SlotState::Parked
            ) {
                std::hint::spin_loop();
            }
            open_gate(&gate);
            assert!(waiter.join().expect("waiter").outcome.is_ok());
        });
        server.shutdown();
    }

    #[test]
    fn server_high_priority_jumps_the_normal_lane() {
        // Wedge the single worker on a gated job, queue normals, then
        // one High: the high-priority job must be popped (and
        // completed) before any queued normal job.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let server = SelectorServer::new(ServerConfig {
            workers: 1,
            queue_cap: 64,
            ..ServerConfig::default()
        });
        server
            .register_normal("gated", gated_grammar(&gate))
            .unwrap();
        let h_plug = server.try_submit("gated", forest("(ConstI8 0)")).unwrap();
        let normals: Vec<JobHandle> = (0..3)
            .map(|i| {
                server
                    .try_submit("gated", forest(&format!("(ConstI8 {i})")))
                    .unwrap()
            })
            .collect();
        let high = server
            .try_submit_with(
                "gated",
                forest("(ConstI8 99)"),
                JobOptions {
                    priority: Priority::High,
                    ..JobOptions::default()
                },
            )
            .unwrap();
        // Everything is queued (or wedged in the gate); release.
        open_gate(&gate);
        let done = high.wait();
        assert!(done.outcome.is_ok());
        assert!(h_plug.wait().outcome.is_ok());
        // The high job was *submitted after* every normal but must be
        // *popped before* them: accepted later + started earlier means
        // its queued time is strictly below every normal's. This holds
        // regardless of scheduling jitter.
        for h in normals {
            let normal = h.wait();
            assert!(normal.outcome.is_ok());
            assert!(
                done.queued < normal.queued,
                "high priority must jump the normal lane: high queued {:?}, normal queued {:?}",
                done.queued,
                normal.queued
            );
        }
        server.shutdown();
    }
}
