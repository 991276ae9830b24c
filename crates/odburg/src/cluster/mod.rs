//! The cluster tier: replicated snapshot shards behind one submit call.
//!
//! A [`ShardCluster`] owns N [`SelectorServer`] shards and turns the
//! paper's central artifact — immutable, incrementally grown automaton
//! snapshots — into a replication primitive:
//!
//! * **Routing.** `submit(target, forest)` routes by consistent hashing
//!   on the target name ([`HashRing`]); an explicit [`pin`] overrides
//!   the ring for read traffic you want served from a specific replica.
//! * **Single writer.** Exactly one shard holds the [`WriterLease`] for
//!   each target; all unpinned traffic routes there, so the grow and
//!   compact paths run on one master per target, cluster-wide.
//! * **Table shipping.** The writer's published snapshot travels to
//!   every replica as persist-format bytes over a framed
//!   [`ShipTransport`] ([`ship_target`]); receivers re-validate magic,
//!   checksum, grammar fingerprint and table structure, then swap the
//!   snapshot in through the same epoch/hazard-pointer publication path
//!   a local compaction uses — in-flight pinned labelings are
//!   unaffected, and a stale or mismatched shipment is a typed
//!   [`ShipError`], never a silent cold start.
//! * **Failure.** [`kill_shard`] drains the dead shard (every accepted
//!   job completes — nothing is dropped), re-routes its targets to the
//!   next ring node, and re-elects writers under a monotonic lease
//!   epoch, so a deposed writer's late broadcast is fenced off
//!   ([`ShipError::StaleWriter`]). A restarted shard warm-starts from
//!   the newest shipped tables and serves warm traffic with zero
//!   grow-path entries.
//! * **Accounting.** Per-shard telemetry rolls up into a
//!   [`ClusterReport`]; conservation (`submitted == accepted + rejected
//!   + shed`) holds cluster-wide, summed across shards and incarnations.
//!
//! [`pin`]: ShardCluster::pin
//! [`ship_target`]: ShardCluster::ship_target
//! [`kill_shard`]: ShardCluster::kill_shard

pub mod ring;
pub mod transport;

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use odburg_core::persist::{read_tables_from, write_tables_to};
use odburg_core::telemetry::write_chrome_trace_multi;
use odburg_core::{Event, EventKind, InstallError, OnDemandConfig, Telemetry};
use odburg_grammar::{Grammar, NormalGrammar};
use odburg_ir::Forest;

use crate::service::{
    JobHandle, JobOptions, SelectorServer, ServerConfig, ServerReport, ServiceError, SubmitError,
};

pub use ring::HashRing;
pub use transport::{
    ChannelTransport, ShipError, ShipTransport, Shipment, SocketTransport, MAX_FRAME_BYTES,
};

/// Configuration of a [`ShardCluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shards. Three is the smallest count where killing one
    /// still leaves a replica behind the new writer.
    pub shards: usize,
    /// Virtual nodes per shard on the consistent-hash ring; more points
    /// spread targets more evenly (see [`HashRing`]).
    pub vnodes: usize,
    /// Per-shard server template. `tables_dir`, when set, becomes a
    /// `shard-<i>` subdirectory per shard so shutdown exports never
    /// collide.
    pub server: ServerConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 3,
            vnodes: 64,
            server: ServerConfig::default(),
        }
    }
}

/// Who may grow a target's tables, fenced by a monotonic epoch: every
/// re-election increments `epoch`, and replicas reject any shipment
/// carrying an older one — that is the whole zombie-writer defense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriterLease {
    /// Index of the shard holding the lease.
    pub shard: usize,
    /// Election epoch; starts at 1, bumps on every re-election.
    pub epoch: u64,
}

/// Why the cluster could not route a job to any shard.
#[derive(Debug)]
pub enum RouteError {
    /// The target was never registered with the cluster.
    UnknownTarget(String),
    /// Every shard that could serve the target is down.
    NoAliveShard(String),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::UnknownTarget(t) => write!(f, "unknown target {t:?}"),
            RouteError::NoAliveShard(t) => write!(f, "no alive shard can serve {t:?}"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Why [`ShardCluster::submit`] did not accept a job. Like
/// [`SubmitError`], every variant is a typed, expected outcome — a job
/// the cluster does not accept was never enqueued anywhere.
#[derive(Debug)]
pub enum ClusterSubmitError {
    /// No shard could even be addressed.
    Route(RouteError),
    /// The routed shard refused the job (backpressure, shedding,
    /// shutdown race with [`ShardCluster::kill_shard`], …).
    Submit {
        /// The shard that refused.
        shard: usize,
        /// Its typed refusal.
        error: SubmitError,
    },
}

impl fmt::Display for ClusterSubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterSubmitError::Route(e) => e.fmt(f),
            ClusterSubmitError::Submit { shard, error } => {
                write!(f, "shard {shard} refused the job: {error}")
            }
        }
    }
}

impl std::error::Error for ClusterSubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterSubmitError::Route(e) => Some(e),
            ClusterSubmitError::Submit { error, .. } => Some(error),
        }
    }
}

/// An accepted cluster submission: which shard took the job, and the
/// handle to wait on.
#[derive(Debug)]
pub struct ClusterSubmit {
    /// The shard the job was routed to.
    pub shard: usize,
    /// The job handle; see [`JobHandle::wait`].
    pub handle: JobHandle,
}

/// What one [`ShardCluster::ship_target`] broadcast accomplished.
#[derive(Debug, Clone)]
pub struct ShipmentReport {
    /// The shipped target.
    pub target: String,
    /// The lease under which the shipment was sent.
    pub writer: WriterLease,
    /// The shipped snapshot's epoch.
    pub snapshot_epoch: u64,
    /// Payload size in bytes (the persist-format table blob).
    pub bytes: usize,
    /// Replicas that installed the shipment.
    pub installed: Vec<usize>,
    /// Replicas that skipped it because they already hold tables at
    /// least as new (a re-broadcast is idempotent, not an error).
    pub already_current: Vec<usize>,
}

/// One shard incarnation's final accounting inside a [`ClusterReport`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The shard index the incarnation ran as.
    pub shard: usize,
    /// Whether this incarnation ended by [`ShardCluster::kill_shard`]
    /// (as opposed to cluster shutdown).
    pub killed: bool,
    /// The drained server's report; its conservation invariants hold
    /// per incarnation.
    pub report: ServerReport,
}

/// Cluster-wide accounting: per-shard reports (one per incarnation —  a
/// killed-then-restarted shard contributes two) plus their sums. The
/// cluster-level conservation identity is the per-server one summed:
/// no shard ever drops an accepted job, so neither does the cluster.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Every shard incarnation, in the order it ended.
    pub per_shard: Vec<ShardReport>,
    /// Jobs offered across all shards: `accepted + rejected + shed`.
    pub submitted: u64,
    /// Jobs accepted into some shard's queue.
    pub accepted: u64,
    /// Accepted jobs that ran labeling.
    pub completed: u64,
    /// Completed jobs whose labeling failed.
    pub failed: u64,
    /// Accepted jobs that expired in a queue.
    pub deadline_missed: u64,
    /// Submissions rejected with backpressure or during shutdown.
    pub rejected: u64,
    /// Submissions shed at admission.
    pub shed: u64,
    /// Snapshot shipments installed on replicas.
    pub shipments: u64,
    /// Shipments refused with a typed error (stale writer, stale
    /// snapshot, mismatch).
    pub ship_rejects: u64,
    /// Targets re-routed to a new shard after a kill.
    pub reroutes: u64,
    /// Writer elections, including each target's initial one.
    pub writer_elections: u64,
}

impl ClusterReport {
    /// Whether the cluster-wide conservation identities hold:
    /// `submitted == accepted + rejected + shed` and
    /// `accepted == completed + deadline_missed`.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.submitted == self.accepted + self.rejected + self.shed
            && self.accepted == self.completed + self.deadline_missed
    }
}

/// What the cluster knows about one registered target.
struct TargetSpec {
    name: String,
    grammar: Arc<NormalGrammar>,
}

/// One shard slot. `alive` is the routing fast path; the `server` slot
/// is the authority (`None` between a kill and a restart).
struct Shard {
    server: RwLock<Option<SelectorServer>>,
    alive: AtomicBool,
}

/// The cluster: N shards, one ring, one lease table. See the
/// [module docs](self).
pub struct ShardCluster {
    config: ClusterConfig,
    shards: Vec<Shard>,
    ring: HashRing,
    targets: Mutex<Vec<Arc<TargetSpec>>>,
    leases: Mutex<HashMap<String, WriterLease>>,
    pins: Mutex<HashMap<String, usize>>,
    /// Control-plane telemetry: one flight-recorder lane per shard for
    /// `Ship`/`ShipReject`/`Reroute`/`WriterElect` events.
    telemetry: Arc<Telemetry>,
    /// Every shard incarnation's telemetry, kept alive past shutdown so
    /// traces and conservation can be read from telemetry alone.
    shard_telemetry: Mutex<Vec<(String, Arc<Telemetry>)>>,
    /// Reports of incarnations that already ended (kills), merged into
    /// the final [`ClusterReport`].
    retired: Mutex<Vec<ShardReport>>,
    shipments: AtomicU64,
    ship_rejects: AtomicU64,
    reroutes: AtomicU64,
    elections: AtomicU64,
}

impl fmt::Debug for ShardCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardCluster")
            .field("shards", &self.shards.len())
            .field("targets", &self.targets.lock().expect("targets lock").len())
            .finish_non_exhaustive()
    }
}

impl ShardCluster {
    /// A cluster of `config.shards` empty shards.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0`.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.shards > 0, "a cluster needs at least one shard");
        let ring = HashRing::new(config.shards, config.vnodes);
        let mut shards = Vec::with_capacity(config.shards);
        let mut shard_telemetry = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            let server = SelectorServer::new(shard_config(&config.server, i));
            shard_telemetry.push((format!("shard-{i}"), Arc::clone(server.telemetry())));
            shards.push(Shard {
                server: RwLock::new(Some(server)),
                alive: AtomicBool::new(true),
            });
        }
        let lane_names = (0..config.shards).map(|i| format!("shard-{i}")).collect();
        ShardCluster {
            config,
            shards,
            ring,
            targets: Mutex::new(Vec::new()),
            leases: Mutex::new(HashMap::new()),
            pins: Mutex::new(HashMap::new()),
            telemetry: Arc::new(Telemetry::new(lane_names)),
            shard_telemetry: Mutex::new(shard_telemetry),
            retired: Mutex::new(Vec::new()),
            shipments: AtomicU64::new(0),
            ship_rejects: AtomicU64::new(0),
            reroutes: AtomicU64::new(0),
            elections: AtomicU64::new(0),
        }
    }

    /// A cluster with all built-in targets registered on every shard.
    #[must_use]
    pub fn with_builtin_targets(config: ClusterConfig) -> Self {
        let cluster = ShardCluster::new(config);
        for grammar in odburg_targets::all() {
            cluster
                .register(&grammar)
                .expect("built-in target names are unique");
        }
        cluster
    }

    /// Number of shard slots (dead or alive).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether shard `idx` is serving.
    #[must_use]
    pub fn is_alive(&self, idx: usize) -> bool {
        self.shards
            .get(idx)
            .is_some_and(|s| s.alive.load(Ordering::Acquire))
    }

    /// The routing ring.
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The cluster control-plane telemetry (shipments, re-routes,
    /// elections; one lane per shard).
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Every shard incarnation's telemetry hub, labeled, oldest first.
    /// Held alive by the cluster even after the servers shut down, so
    /// cluster-wide accounting can be derived from telemetry alone.
    #[must_use]
    pub fn shard_telemetries(&self) -> Vec<(String, Arc<Telemetry>)> {
        self.shard_telemetry
            .lock()
            .expect("shard telemetry lock")
            .clone()
    }

    /// Registers `grammar` on every shard under its own name and elects
    /// the target's initial writer.
    ///
    /// # Errors
    ///
    /// [`ServiceError::DuplicateTarget`] if the name is taken.
    pub fn register(&self, grammar: &Grammar) -> Result<WriterLease, ServiceError> {
        self.register_normal(grammar.name(), Arc::new(grammar.normalize()))
    }

    /// Registers an already-normalized grammar on every alive shard,
    /// records the spec for future restarts, and elects the initial
    /// writer: the ring owner of the name.
    ///
    /// # Errors
    ///
    /// [`ServiceError::DuplicateTarget`] if the name is taken.
    pub fn register_normal(
        &self,
        name: &str,
        grammar: Arc<NormalGrammar>,
    ) -> Result<WriterLease, ServiceError> {
        for shard in &self.shards {
            let guard = shard.server.read().expect("shard lock");
            if let Some(server) = guard.as_ref() {
                server.register_normal(name, Arc::clone(&grammar))?;
            }
        }
        self.targets
            .lock()
            .expect("targets lock")
            .push(Arc::new(TargetSpec {
                name: name.to_string(),
                grammar,
            }));
        let writer = self
            .ring
            .route_alive(name, |s| self.is_alive(s))
            .unwrap_or_else(|| self.ring.route(name));
        let lease = WriterLease {
            shard: writer,
            epoch: 1,
        };
        self.leases
            .lock()
            .expect("lease lock")
            .insert(name.to_string(), lease);
        self.emit(writer, EventKind::WriterElect, name, lease.epoch);
        self.elections.fetch_add(1, Ordering::Relaxed);
        Ok(lease)
    }

    /// Registered target names, sorted.
    #[must_use]
    pub fn targets(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .targets
            .lock()
            .expect("targets lock")
            .iter()
            .map(|t| t.name.clone())
            .collect();
        names.sort();
        names
    }

    /// The target's current writer lease, if registered.
    #[must_use]
    pub fn writer(&self, target: &str) -> Option<WriterLease> {
        self.leases.lock().expect("lease lock").get(target).copied()
    }

    /// Pins `target`'s *unpinned-read* routing to one shard, overriding
    /// the ring — e.g. to serve a hot target from a warm replica. The
    /// writer lease does not move: grow traffic a pin sends to a
    /// replica will grow that replica's local master, so pin targets
    /// whose tables the writer has already shipped. A pin to a dead
    /// shard falls back to the ring at routing time.
    ///
    /// # Errors
    ///
    /// [`RouteError::UnknownTarget`] for unregistered targets.
    pub fn pin(&self, target: &str, shard: usize) -> Result<(), RouteError> {
        if self.writer(target).is_none() {
            return Err(RouteError::UnknownTarget(target.to_string()));
        }
        self.pins
            .lock()
            .expect("pin lock")
            .insert(target.to_string(), shard);
        Ok(())
    }

    /// Removes a [`pin`](Self::pin); routing returns to the ring.
    pub fn unpin(&self, target: &str) {
        self.pins.lock().expect("pin lock").remove(target);
    }

    /// Where a job for `target` would go right now: pin override first
    /// (if that shard is alive), then the writer lease, then the ring's
    /// failover order.
    ///
    /// # Errors
    ///
    /// [`RouteError`] when the target is unknown or every candidate
    /// shard is down.
    pub fn route(&self, target: &str) -> Result<usize, RouteError> {
        let lease = self
            .writer(target)
            .ok_or_else(|| RouteError::UnknownTarget(target.to_string()))?;
        if let Some(&pinned) = self.pins.lock().expect("pin lock").get(target) {
            if self.is_alive(pinned) {
                return Ok(pinned);
            }
        }
        if self.is_alive(lease.shard) {
            return Ok(lease.shard);
        }
        self.ring
            .route_alive(target, |s| self.is_alive(s))
            .ok_or_else(|| RouteError::NoAliveShard(target.to_string()))
    }

    /// Submits a job with default [`JobOptions`]; see
    /// [`submit_with`](Self::submit_with).
    ///
    /// # Errors
    ///
    /// See [`submit_with`](Self::submit_with).
    pub fn submit(
        &self,
        target: &str,
        forest: Forest,
    ) -> Result<ClusterSubmit, ClusterSubmitError> {
        self.submit_with(target, forest, JobOptions::default())
    }

    /// Routes and submits a job. Acceptance is all-or-nothing, exactly
    /// as on a single server: an `Ok` handle is guaranteed to resolve
    /// even if its shard is killed before the job runs (the kill drains
    /// the queue), and an `Err` means no shard ever enqueued the job.
    ///
    /// # Errors
    ///
    /// [`ClusterSubmitError::Route`] when no shard can be addressed,
    /// [`ClusterSubmitError::Submit`] with the refusing shard's typed
    /// [`SubmitError`] otherwise.
    pub fn submit_with(
        &self,
        target: &str,
        forest: Forest,
        options: JobOptions,
    ) -> Result<ClusterSubmit, ClusterSubmitError> {
        let shard = self.route(target).map_err(ClusterSubmitError::Route)?;
        let guard = self.shards[shard].server.read().expect("shard lock");
        match guard.as_ref() {
            Some(server) => server
                .try_submit_with(target, forest, options)
                .map(|handle| ClusterSubmit { shard, handle })
                .map_err(|error| ClusterSubmitError::Submit { shard, error }),
            // Raced with a kill between routing and locking: typed
            // refusal, identical to submitting into a shutdown.
            None => Err(ClusterSubmitError::Submit {
                shard,
                error: SubmitError::Shutdown,
            }),
        }
    }

    /// Ships `target`'s newest published snapshot from its writer to
    /// every alive replica, over an in-process [`ChannelTransport`] —
    /// the same frames [`SocketTransport`] would carry between
    /// processes. Replicas already holding tables at least as new skip
    /// the shipment ([`ShipmentReport::already_current`]); any other
    /// refusal aborts with the typed error.
    ///
    /// # Errors
    ///
    /// [`ShipError`] when the writer cannot produce the shipment or a
    /// replica refuses it for a reason other than already being
    /// current.
    pub fn ship_target(&self, target: &str) -> Result<ShipmentReport, ShipError> {
        let lease = self.writer(target).ok_or_else(|| {
            ShipError::Service(ServiceError::UnknownTarget {
                target: target.to_string(),
            })
        })?;
        let shipment = self.shipment_from(target, lease)?;
        let snapshot_epoch;
        {
            // Decode our own frame once for the report: same validation
            // path a replica runs.
            let decoded = Shipment::decode(&shipment.encode())?;
            debug_assert_eq!(decoded, shipment);
            snapshot_epoch = odburg_core::persist::inspect_snapshot(&decoded.bytes[..])?.epoch;
        }
        let mut report = ShipmentReport {
            target: target.to_string(),
            writer: lease,
            snapshot_epoch,
            bytes: shipment.bytes.len(),
            installed: Vec::new(),
            already_current: Vec::new(),
        };
        for idx in 0..self.shards.len() {
            if idx == lease.shard || !self.is_alive(idx) {
                continue;
            }
            let (mut tx, mut rx) = ChannelTransport::pair();
            tx.send(&shipment.encode())?;
            let frame = rx
                .recv()?
                .expect("channel pair delivers the frame just sent");
            let received = Shipment::decode(&frame)?;
            match self.deliver_shipment(idx, &received) {
                Ok(_) => report.installed.push(idx),
                Err(ShipError::Install(InstallError::Stale { .. })) => {
                    report.already_current.push(idx);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// Serializes `target`'s newest published snapshot from its writer
    /// into a [`Shipment`] carrying the current lease epoch — the exact
    /// frame [`ship_target`](Self::ship_target) broadcasts in-process
    /// and the `cluster serve --listen` socket path sends to joining
    /// processes.
    ///
    /// # Errors
    ///
    /// [`ShipError`] when the target is unregistered or its writer
    /// shard is down.
    pub fn prepare_shipment(&self, target: &str) -> Result<Shipment, ShipError> {
        let lease = self.writer(target).ok_or_else(|| {
            ShipError::Service(ServiceError::UnknownTarget {
                target: target.to_string(),
            })
        })?;
        self.shipment_from(target, lease)
    }

    /// Serializes the writer's published snapshot under a known lease.
    fn shipment_from(&self, target: &str, lease: WriterLease) -> Result<Shipment, ShipError> {
        let guard = self.shards[lease.shard].server.read().expect("shard lock");
        let server = guard
            .as_ref()
            .ok_or(ShipError::ShardDown { shard: lease.shard })?;
        let snapshot = server.shared(target)?.snapshot();
        let mut bytes = Vec::new();
        write_tables_to(&snapshot, &mut bytes)?;
        Ok(Shipment {
            target: target.to_string(),
            writer_epoch: lease.epoch,
            bytes,
        })
    }

    /// Ships every registered target; see
    /// [`ship_target`](Self::ship_target).
    pub fn ship_all(&self) -> Vec<(String, Result<ShipmentReport, ShipError>)> {
        self.targets()
            .into_iter()
            .map(|t| {
                let r = self.ship_target(&t);
                (t, r)
            })
            .collect()
    }

    /// The receive half of table shipping: validates and installs one
    /// shipment on shard `idx`, returning the installed snapshot's
    /// epoch. This is where every fence lives, in order: the
    /// writer-lease epoch (zombie broadcast), shard liveness, persist
    /// validation (checksum, grammar fingerprint, table structure), and
    /// the receiving core's `(epoch, table entries)` monotonic fence. Public
    /// because the socket serving path ([`SocketTransport`]) and the
    /// differential tests inject frames directly.
    ///
    /// # Errors
    ///
    /// [`ShipError`]; every refusal emits a `ShipReject` event and
    /// leaves the shard's published tables untouched.
    pub fn deliver_shipment(&self, idx: usize, shipment: &Shipment) -> Result<u64, ShipError> {
        let started = Instant::now();
        let result = self.install_shipment(idx, shipment);
        match &result {
            Ok(_) => {
                #[allow(clippy::cast_possible_truncation)]
                let ns = started.elapsed().as_nanos() as u64;
                self.emit(idx, EventKind::Ship, &shipment.target, ns);
                self.shipments.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.emit(
                    idx,
                    EventKind::ShipReject,
                    &shipment.target,
                    shipment.writer_epoch,
                );
                self.ship_rejects.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    fn install_shipment(&self, idx: usize, shipment: &Shipment) -> Result<u64, ShipError> {
        if let Some(lease) = self.writer(&shipment.target) {
            if shipment.writer_epoch < lease.epoch {
                return Err(ShipError::StaleWriter {
                    target: shipment.target.clone(),
                    shipped: shipment.writer_epoch,
                    current: lease.epoch,
                });
            }
        }
        if !self.is_alive(idx) {
            return Err(ShipError::ShardDown { shard: idx });
        }
        let spec = self
            .targets
            .lock()
            .expect("targets lock")
            .iter()
            .find(|t| t.name == shipment.target)
            .cloned()
            .ok_or_else(|| {
                ShipError::Service(ServiceError::UnknownTarget {
                    target: shipment.target.clone(),
                })
            })?;
        let grammar = Arc::clone(&spec.grammar);
        let snapshot = read_tables_from(&shipment.bytes[..], grammar, OnDemandConfig::default())?;
        let guard = self.shards[idx].server.read().expect("shard lock");
        let server = guard.as_ref().ok_or(ShipError::ShardDown { shard: idx })?;
        let shared = server.shared(&shipment.target)?;
        Ok(shared.install_snapshot(Arc::new(snapshot))?)
    }

    /// Kills shard `idx`: marks it dead for routing, re-elects a writer
    /// for every target it held (bumping the lease epoch — the fence
    /// that rejects the dead writer's late shipments), then drains it.
    /// Every job the shard had *accepted* runs to completion during the
    /// drain, so a kill loses nothing; jobs arriving during the drain
    /// get a typed rejection. Returns the drained incarnation's report,
    /// or `None` if the shard was already down.
    pub fn kill_shard(&self, idx: usize) -> Option<ServerReport> {
        let shard = self.shards.get(idx)?;
        if !shard.alive.swap(false, Ordering::AcqRel) {
            return None;
        }
        // Re-elect before draining: traffic re-routes immediately, and
        // the bumped lease epoch fences any shipment the dying shard
        // still broadcasts.
        {
            let mut leases = self.leases.lock().expect("lease lock");
            for (target, lease) in leases.iter_mut() {
                if lease.shard != idx {
                    continue;
                }
                if let Some(next) = self.ring.route_alive(target, |s| self.is_alive(s)) {
                    *lease = WriterLease {
                        shard: next,
                        epoch: lease.epoch + 1,
                    };
                    self.emit(next, EventKind::WriterElect, target, lease.epoch);
                    self.elections.fetch_add(1, Ordering::Relaxed);
                    self.emit(next, EventKind::Reroute, target, next as u64);
                    self.reroutes.fetch_add(1, Ordering::Relaxed);
                }
                // No alive successor: the lease stays put; routing will
                // answer NoAliveShard until a shard returns.
            }
        }
        let server = shard.server.write().expect("shard lock").take()?;
        let report = server.shutdown();
        self.retired
            .lock()
            .expect("retired lock")
            .push(ShardReport {
                shard: idx,
                killed: true,
                report: report.clone(),
            });
        Some(report)
    }

    /// Restarts a killed shard as a fresh incarnation: a new server is
    /// spawned, every registered target re-registered, and the newest
    /// tables shipped in from each target's current writer — so the
    /// joining shard warm-starts from shipped tables, not
    /// recomputation, and serves warm traffic with zero grow-path
    /// entries. Writer leases do **not** move back (no automatic
    /// failback); the restarted shard serves as a replica until a
    /// future election. Returns the number of targets warm-started.
    ///
    /// # Errors
    ///
    /// [`ShipError`] if a warm-up shipment fails for a reason other
    /// than the replica already being current.
    pub fn restart_shard(&self, idx: usize) -> Result<usize, ShipError> {
        {
            let shard = self
                .shards
                .get(idx)
                .ok_or(ShipError::ShardDown { shard: idx })?;
            let mut guard = shard.server.write().expect("shard lock");
            if guard.is_some() {
                return Ok(0);
            }
            let server = SelectorServer::new(shard_config(&self.config.server, idx));
            for spec in self.targets.lock().expect("targets lock").iter() {
                server.register_normal(&spec.name, Arc::clone(&spec.grammar))?;
            }
            self.shard_telemetry
                .lock()
                .expect("shard telemetry lock")
                .push((format!("shard-{idx}"), Arc::clone(server.telemetry())));
            *guard = Some(server);
            shard.alive.store(true, Ordering::Release);
        }
        let mut warmed = 0;
        for target in self.targets() {
            let Some(lease) = self.writer(&target) else {
                continue;
            };
            if lease.shard == idx || !self.is_alive(lease.shard) {
                continue;
            }
            let shipment = self.shipment_from(&target, lease)?;
            match self.deliver_shipment(idx, &shipment) {
                Ok(_) => warmed += 1,
                Err(ShipError::Install(InstallError::Stale { .. })) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(warmed)
    }

    /// Shuts down every alive shard (each drains all accepted jobs) and
    /// rolls everything — including previously killed incarnations —
    /// into the final [`ClusterReport`]. Idempotent: a second call
    /// reports the same retired incarnations and no new ones.
    pub fn shutdown(&self) -> ClusterReport {
        let mut per_shard = std::mem::take(&mut *self.retired.lock().expect("retired lock"));
        for (idx, shard) in self.shards.iter().enumerate() {
            shard.alive.store(false, Ordering::Release);
            if let Some(server) = shard.server.write().expect("shard lock").take() {
                per_shard.push(ShardReport {
                    shard: idx,
                    killed: false,
                    report: server.shutdown(),
                });
            }
        }
        let mut report = ClusterReport {
            per_shard,
            submitted: 0,
            accepted: 0,
            completed: 0,
            failed: 0,
            deadline_missed: 0,
            rejected: 0,
            shed: 0,
            shipments: self.shipments.load(Ordering::Relaxed),
            ship_rejects: self.ship_rejects.load(Ordering::Relaxed),
            reroutes: self.reroutes.load(Ordering::Relaxed),
            writer_elections: self.elections.load(Ordering::Relaxed),
        };
        for s in &report.per_shard {
            report.submitted += s.report.submitted;
            report.accepted += s.report.accepted;
            report.completed += s.report.completed;
            report.failed += s.report.failed;
            report.deadline_missed += s.report.deadline_missed;
            report.rejected += s.report.rejected;
            report.shed += s.report.shed;
        }
        report
    }

    /// Writes one Chrome trace covering the whole cluster: the control
    /// plane (shipments, re-routes, elections) as one process, every
    /// shard incarnation as its own process — so a shipment span lines
    /// up with the labeling spans it overlaps.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_chrome_trace<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        let shards = self.shard_telemetries();
        let mut parts: Vec<(&str, &Telemetry)> = vec![("cluster", self.telemetry.as_ref())];
        for (name, tel) in &shards {
            parts.push((name.as_str(), tel.as_ref()));
        }
        write_chrome_trace_multi(w, &parts)
    }

    /// Records a control-plane event on shard `idx`'s lane.
    fn emit(&self, idx: usize, kind: EventKind, target: &str, arg: u64) {
        let id = self.telemetry.target(target).id();
        self.telemetry.emit(idx, kind, id, Event::NO_TICKET, arg);
    }
}

/// The per-shard variant of the cluster's server template: shutdown
/// table exports go to a `shard-<i>` subdirectory so shards never
/// overwrite each other's files.
fn shard_config(template: &ServerConfig, idx: usize) -> ServerConfig {
    let mut config = template.clone();
    if let Some(dir) = &config.tables_dir {
        let shard_dir = dir.join(format!("shard-{idx}"));
        let _ = std::fs::create_dir_all(&shard_dir);
        config.tables_dir = Some(shard_dir);
    }
    config
}
