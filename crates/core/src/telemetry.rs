//! Telemetry: lock-free per-target metrics, latency histograms, and a
//! job-lifecycle flight recorder.
//!
//! Three pieces, all designed to be read while workers keep running:
//!
//! - [`TargetMetrics`] — per-target atomic [`JobCounts`] plus five
//!   [`AtomicHistogram`]s (queue wait, labeling, reduce, maintenance-quantum
//!   duration, and EWMA-estimate-vs-actual shedding error). Everything is
//!   `Relaxed` atomics: like [`crate::WorkCounters`], these are statistics,
//!   not synchronization.
//! - [`FlightRecorder`] — bounded per-lane ring buffers of structured
//!   [`Event`]s (one lane per worker plus a submit lane and a shared-core
//!   lane). Overflow overwrites the oldest event and increments a dropped
//!   counter, so loss is visible, never silent.
//! - Exporters — [`write_jsonl`] (one JSON object per line: metadata, one
//!   metrics record per target, one record per recorded event) and
//!   [`write_chrome_trace`] (the Chrome trace-event format; open the file at
//!   `chrome://tracing` or <https://ui.perfetto.dev> for a flame chart).
//!
//! Histograms are log-linear: values are bucketed by power-of-two octave,
//! each octave split into [`HIST_SUB_BUCKETS`] linear sub-buckets, so the
//! worst-case relative quantile error is bounded by one part in
//! [`HIST_SUB_BUCKETS`] (~1.6%) regardless of magnitude. This is the same
//! shape HdrHistogram uses, sized here for nanosecond latencies up to
//! `u64::MAX`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^HIST_SUB_BITS` linear buckets.
pub const HIST_SUB_BITS: u32 = 6;

/// Linear sub-buckets per octave (`2^HIST_SUB_BITS`).
pub const HIST_SUB_BUCKETS: u64 = 1 << HIST_SUB_BITS;

/// Total bucket count covering `0..=u64::MAX`.
///
/// Values below [`HIST_SUB_BUCKETS`] index directly (one octave's worth of
/// unit buckets); each octave `2^e..2^(e+1)` for `e` in
/// `HIST_SUB_BITS..=63` contributes [`HIST_SUB_BUCKETS`] more.
pub const HIST_BUCKETS: usize = (64 - HIST_SUB_BITS as usize + 1) * HIST_SUB_BUCKETS as usize;

/// Bucket index for a value. Monotone in `value`; exact below
/// [`HIST_SUB_BUCKETS`].
#[inline]
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value < HIST_SUB_BUCKETS {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let mantissa = (value >> (exp - HIST_SUB_BITS)) & (HIST_SUB_BUCKETS - 1);
    ((exp - HIST_SUB_BITS) as u64 * HIST_SUB_BUCKETS + mantissa + HIST_SUB_BUCKETS) as usize
}

/// Inclusive lower bound and exclusive upper bound of a bucket.
#[must_use]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < HIST_SUB_BUCKETS {
        return (index, index + 1);
    }
    let rel = index - HIST_SUB_BUCKETS;
    let exp = rel / HIST_SUB_BUCKETS + u64::from(HIST_SUB_BITS);
    let mantissa = rel % HIST_SUB_BUCKETS;
    let width = 1u64 << (exp - u64::from(HIST_SUB_BITS));
    let lower = (1u64 << exp) + mantissa * width;
    (lower, lower.saturating_add(width))
}

/// A plain (non-atomic) log-linear histogram snapshot.
///
/// Obtained from [`AtomicHistogram::snapshot`], built directly with
/// [`Histogram::record`] / [`Histogram::from_durations`], and combined with
/// [`Histogram::merge`]. Merging preserves total count, sum, and max
/// exactly; quantiles are approximate with error bounded by the containing
/// bucket's width.
#[derive(Clone)]
pub struct Histogram {
    buckets: Box<[u64]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0u64; HIST_BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Builds a histogram from duration samples (recorded in nanoseconds).
    #[must_use]
    pub fn from_durations(samples: &[Duration]) -> Self {
        let mut h = Histogram::new();
        for d in samples {
            h.record(duration_ns(*d));
        }
        h
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`. Count, sum, and max combine exactly.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (exact, not bucketed). Zero when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of recorded values, zero when empty.
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`0.0..=1.0`) of recorded values.
    ///
    /// Uses the same nearest-rank convention as indexing a sorted sample
    /// array at `round(q * (len - 1))`, then interpolates within the
    /// containing bucket, so the result differs from the exact
    /// order-statistic by at most that bucket's width. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n > rank {
                let (lower, upper) = bucket_bounds(i);
                // Midpoint of the rank's share of the bucket: the k-th of n
                // values in [lower, upper) is estimated at lower +
                // width*(2k+1)/(2n). Never exceeds the recorded max.
                let width = upper - lower;
                let k = rank - seen;
                let est = lower
                    + ((u128::from(width) * u128::from(2 * k + 1)) / u128::from(2 * n)) as u64;
                return est.min(self.max);
            }
            seen += n;
        }
        self.max
    }

    /// [`Histogram::quantile`] as a [`Duration`] (values are nanoseconds).
    #[must_use]
    pub fn quantile_duration(&self, q: f64) -> Duration {
        Duration::from_nanos(self.quantile(q))
    }

    /// Non-empty buckets as `(index, count)` pairs, ascending by index.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n != 0)
            .map(|(i, &n)| (i, n))
            .collect()
    }
}

/// A lock-free log-linear histogram: concurrent `record` from any thread,
/// [`AtomicHistogram::snapshot`] without stopping writers.
///
/// All operations are `Relaxed`: a snapshot taken mid-storm may be a few
/// samples behind, but every sample lands in exactly one bucket and is never
/// lost or torn.
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for AtomicHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicHistogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(HIST_BUCKETS);
        buckets.resize_with(HIST_BUCKETS, AtomicU64::default);
        AtomicHistogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(duration_ns(d));
    }

    /// Total number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current contents into a plain [`Histogram`].
    #[must_use]
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        let mut count = 0u64;
        for (dst, src) in h.buckets.iter_mut().zip(self.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            *dst = n;
            count += n;
        }
        // Derive count from the buckets so the snapshot is internally
        // consistent even if a concurrent record is mid-flight.
        h.count = count;
        h.sum = self.sum.load(Ordering::Relaxed);
        h.max = self.max.load(Ordering::Relaxed);
        h
    }
}

#[inline]
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Per-target job-outcome counters, the registry's half of the conservation
/// identity `submitted == accepted + rejected + shed`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct JobCounts {
    /// Jobs that reached admission (accepted, rejected, or shed).
    pub submitted: u64,
    /// Jobs admitted to the queue.
    pub accepted: u64,
    /// Jobs refused with backpressure (`QueueFull` / `Shutdown`).
    pub rejected: u64,
    /// Jobs refused by feasibility shedding (`Infeasible`).
    pub shed: u64,
    /// Accepted jobs a worker finished (ok, labeling error, or panic).
    pub completed: u64,
    /// Completed jobs that ended in a labeling error or panic.
    pub failed: u64,
    /// Accepted jobs that expired in the queue.
    pub deadline_missed: u64,
    /// Completed jobs whose worker panicked.
    pub panics: u64,
}

impl JobCounts {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &JobCounts) {
        self.submitted += other.submitted;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.completed += other.completed;
        self.failed += other.failed;
        self.deadline_missed += other.deadline_missed;
        self.panics += other.panics;
    }

    /// The admission conservation identity:
    /// `submitted == accepted + rejected + shed`.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.submitted == self.accepted + self.rejected + self.shed
    }
}

/// Atomic [`JobCounts`]: `Relaxed` increments, merge-snapshot reads.
#[derive(Debug, Default)]
pub struct AtomicJobCounts {
    submitted: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    deadline_missed: AtomicU64,
    panics: AtomicU64,
}

impl AtomicJobCounts {
    /// Adds a delta. Fields within one call are incremented back to back so
    /// the conservation identity holds at every quiescent point.
    pub fn add(&self, delta: &JobCounts) {
        // Statistics, not synchronization — Relaxed is enough.
        self.submitted.fetch_add(delta.submitted, Ordering::Relaxed);
        self.accepted.fetch_add(delta.accepted, Ordering::Relaxed);
        self.rejected.fetch_add(delta.rejected, Ordering::Relaxed);
        self.shed.fetch_add(delta.shed, Ordering::Relaxed);
        self.completed.fetch_add(delta.completed, Ordering::Relaxed);
        self.failed.fetch_add(delta.failed, Ordering::Relaxed);
        self.deadline_missed
            .fetch_add(delta.deadline_missed, Ordering::Relaxed);
        self.panics.fetch_add(delta.panics, Ordering::Relaxed);
    }

    /// Reads the current values.
    #[must_use]
    pub fn snapshot(&self) -> JobCounts {
        JobCounts {
            submitted: self.submitted.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            deadline_missed: self.deadline_missed.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

/// What happened, as recorded in the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A job reached admission.
    Submit,
    /// Admission refused the job with backpressure.
    Reject,
    /// Feasibility shedding refused the job; `arg` is the estimated
    /// service-time-ahead in nanoseconds that made it infeasible.
    Shed,
    /// The job was admitted to the queue; `arg` is its relative deadline in
    /// nanoseconds (0 = none).
    Admit,
    /// A worker dequeued the job; `arg` is its queue wait in nanoseconds.
    Pop,
    /// The job expired before a worker reached it; `arg` is how far past
    /// the deadline it was, in nanoseconds.
    Expire,
    /// A worker finished the job; `arg` is the labeling latency in
    /// nanoseconds.
    Complete,
    /// The worker panicked inside labeling.
    Panic,
    /// The shared core published a new snapshot epoch; `arg` is the epoch.
    EpochPublish,
    /// The memory governor compacted tables; `arg` is bytes after.
    Compact,
    /// The memory governor flushed tables; `arg` is bytes after.
    Flush,
    /// A snapshot was shipped to (and installed on) a replica shard;
    /// `arg` is the shipment latency in nanoseconds — serialize, move the
    /// bytes, validate, install. Rendered as a span by the Chrome
    /// exporter so a shipment is visible next to the labeling it
    /// overlaps.
    Ship,
    /// A replica refused a shipment (stale epoch, zombie writer, grammar
    /// mismatch); `arg` is the writer-lease epoch the shipment carried.
    ShipReject,
    /// A target's traffic was re-routed to the next ring shard after a
    /// shard failure; `arg` is the index of the shard now serving it.
    Reroute,
    /// A new writer was elected for a target; `arg` is the new writer
    /// epoch (the monotonic fence that rejects a deposed writer's late
    /// broadcast).
    WriterElect,
}

impl EventKind {
    /// Stable lowercase name, used by both exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Submit => "submit",
            EventKind::Reject => "reject",
            EventKind::Shed => "shed",
            EventKind::Admit => "admit",
            EventKind::Pop => "pop",
            EventKind::Expire => "expire",
            EventKind::Complete => "complete",
            EventKind::Panic => "panic",
            EventKind::EpochPublish => "epoch_publish",
            EventKind::Compact => "compact",
            EventKind::Flush => "flush",
            EventKind::Ship => "ship",
            EventKind::ShipReject => "ship_reject",
            EventKind::Reroute => "reroute",
            EventKind::WriterElect => "writer_elect",
        }
    }
}

/// One fixed-size flight-recorder entry. Plain data: copying it can never
/// tear across an exporter running concurrently with workers, because rings
/// hand out clones under their lane lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the owning [`Telemetry`]'s origin.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Index of the target in the owning registry
    /// ([`Telemetry::target_name`] maps it back).
    pub target: u32,
    /// Server ticket, or [`Event::NO_TICKET`] before one is minted
    /// (submit-side rejections never get a ticket).
    pub ticket: u64,
    /// Kind-specific payload; see each [`EventKind`] variant.
    pub arg: u64,
}

impl Event {
    /// Ticket placeholder for events recorded before a ticket exists.
    pub const NO_TICKET: u64 = u64::MAX;
}

struct EventRing {
    buf: Vec<Event>,
    /// Next write position once the ring has wrapped.
    head: usize,
    wrapped: bool,
}

impl EventRing {
    fn new() -> Self {
        EventRing {
            buf: Vec::new(),
            head: 0,
            wrapped: false,
        }
    }

    /// Pushes one event, overwriting the oldest once `cap` is reached.
    /// Returns `true` if an old event was overwritten (dropped).
    fn push(&mut self, cap: usize, event: Event) -> bool {
        if cap == 0 {
            return true;
        }
        if self.buf.len() < cap {
            self.buf.push(event);
            false
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % cap;
            self.wrapped = true;
            true
        }
    }

    /// Events in recording order (oldest first).
    fn in_order(&self) -> Vec<Event> {
        if !self.wrapped {
            return self.buf.clone();
        }
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// Bounded per-lane ring buffers of [`Event`]s.
///
/// Lanes are independent (one mutex each) so workers never contend on a
/// shared ring; the convention used by the server is lane 0 for the submit
/// path, lanes `1..=workers` for workers, and the last lane for the shared
/// core (epoch publications, compactions) and maintenance quanta.
///
/// When a lane overflows, the *oldest* event is overwritten — a flight
/// recorder keeps the recent past — and [`FlightRecorder::dropped`] is
/// incremented, so overflow is observable.
pub struct FlightRecorder {
    lanes: Box<[Mutex<EventRing>]>,
    capacity: usize,
    dropped: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("lanes", &self.lanes.len())
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder with `lanes` independent rings of `capacity` events each.
    #[must_use]
    pub fn new(lanes: usize, capacity: usize) -> Self {
        let lanes = lanes.max(1);
        let mut v = Vec::with_capacity(lanes);
        v.resize_with(lanes, || Mutex::new(EventRing::new()));
        FlightRecorder {
            lanes: v.into_boxed_slice(),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Per-lane ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events overwritten (or refused, for zero capacity) so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records `event` on `lane` (clamped into range).
    pub fn record(&self, lane: usize, event: Event) {
        let lane = lane.min(self.lanes.len() - 1);
        let overwrote = self.lanes[lane].lock().push(self.capacity, event);
        if overwrote {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// All retained events across lanes as `(lane, event)`, sorted by
    /// timestamp. Non-destructive: the rings keep recording.
    #[must_use]
    pub fn events(&self) -> Vec<(usize, Event)> {
        let mut out = Vec::new();
        for (lane, ring) in self.lanes.iter().enumerate() {
            for ev in ring.lock().in_order() {
                out.push((lane, ev));
            }
        }
        out.sort_by_key(|(_, ev)| ev.ts_ns);
        out
    }
}

/// Per-target metrics: outcome counters plus stage latency histograms.
///
/// Obtained from [`Telemetry::target`]; every field is safe to read while
/// workers keep recording.
#[derive(Debug)]
pub struct TargetMetrics {
    name: String,
    id: u32,
    /// Job outcome counters.
    pub counts: AtomicJobCounts,
    /// Time from admission to a worker dequeuing the job.
    pub queue_wait: AtomicHistogram,
    /// Labeling latency inside the worker.
    pub labeling: AtomicHistogram,
    /// Reduction latency (recorded by whoever reduces — the server only
    /// labels, so this is fed by the CLI / batch layers).
    pub reduce: AtomicHistogram,
    /// Maintenance-quantum duration (budget enforcement between jobs).
    pub maintenance: AtomicHistogram,
    /// Absolute error `|EWMA estimate - actual|` of the shedding
    /// service-time estimator, in nanoseconds, per completed job with an
    /// estimate on file.
    pub shed_error: AtomicHistogram,
}

impl TargetMetrics {
    /// Target name as registered.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dense id used in [`Event::target`].
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// The telemetry hub: a per-target metrics registry plus the flight
/// recorder, sharing one time origin.
///
/// Cheap to share (`Arc`), safe to snapshot and export while workers run.
pub struct Telemetry {
    origin: Instant,
    lane_names: Box<[String]>,
    recorder: FlightRecorder,
    targets: RwLock<Vec<Arc<TargetMetrics>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("targets", &self.targets.read().len())
            .field("recorder", &self.recorder)
            .finish()
    }
}

/// Default per-lane flight-recorder capacity used by [`Telemetry::new`].
pub const DEFAULT_RING_CAPACITY: usize = 4096;

impl Telemetry {
    /// A hub with named recorder lanes (`lane_names.len()` lanes) of
    /// [`DEFAULT_RING_CAPACITY`] events each.
    #[must_use]
    pub fn new(lane_names: Vec<String>) -> Self {
        Telemetry::with_capacity(lane_names, DEFAULT_RING_CAPACITY)
    }

    /// A hub with an explicit per-lane ring capacity.
    #[must_use]
    pub fn with_capacity(lane_names: Vec<String>, ring_capacity: usize) -> Self {
        let lane_names = if lane_names.is_empty() {
            vec!["events".to_string()]
        } else {
            lane_names
        };
        let lanes = lane_names.len();
        Telemetry {
            origin: Instant::now(),
            lane_names: lane_names.into_boxed_slice(),
            recorder: FlightRecorder::new(lanes, ring_capacity),
            targets: RwLock::new(Vec::new()),
        }
    }

    /// Nanoseconds since this hub was created (the recorder timebase).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        duration_ns(self.origin.elapsed())
    }

    /// The metrics handle for `name`, interning it on first use.
    #[must_use]
    pub fn target(&self, name: &str) -> Arc<TargetMetrics> {
        if let Some(m) = self.targets.read().iter().find(|m| m.name == name) {
            return Arc::clone(m);
        }
        let mut targets = self.targets.write();
        if let Some(m) = targets.iter().find(|m| m.name == name) {
            return Arc::clone(m);
        }
        #[allow(clippy::cast_possible_truncation)]
        let id = targets.len() as u32;
        let m = Arc::new(TargetMetrics {
            name: name.to_string(),
            id,
            counts: AtomicJobCounts::default(),
            queue_wait: AtomicHistogram::new(),
            labeling: AtomicHistogram::new(),
            reduce: AtomicHistogram::new(),
            maintenance: AtomicHistogram::new(),
            shed_error: AtomicHistogram::new(),
        });
        targets.push(Arc::clone(&m));
        m
    }

    /// All interned targets, in id order.
    #[must_use]
    pub fn targets(&self) -> Vec<Arc<TargetMetrics>> {
        self.targets.read().clone()
    }

    /// Name for a dense target id, if interned.
    #[must_use]
    pub fn target_name(&self, id: u32) -> Option<String> {
        self.targets.read().get(id as usize).map(|m| m.name.clone())
    }

    /// Job counts summed across every target.
    #[must_use]
    pub fn totals(&self) -> JobCounts {
        let mut total = JobCounts::default();
        for m in self.targets.read().iter() {
            total.merge(&m.counts.snapshot());
        }
        total
    }

    /// The flight recorder.
    #[must_use]
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Recorder lane names (index = lane).
    #[must_use]
    pub fn lane_names(&self) -> &[String] {
        &self.lane_names
    }

    /// Records an event on `lane`, stamped with [`Telemetry::now_ns`].
    pub fn emit(&self, lane: usize, kind: EventKind, target: u32, ticket: u64, arg: u64) {
        self.recorder.record(
            lane,
            Event {
                ts_ns: self.now_ns(),
                kind,
                target,
                ticket,
                arg,
            },
        );
    }

    /// A cloneable emitter bound to one lane and target, for handing into
    /// components (like the shared core) that should not know about lanes
    /// or target interning.
    #[must_use]
    pub fn scope(self: &Arc<Self>, lane: usize, target: u32) -> EventScope {
        EventScope {
            telemetry: Arc::clone(self),
            lane,
            target,
        }
    }
}

/// A pre-bound event emitter: one lane, one target.
///
/// [`crate::SharedOnDemand`] holds one of these (when attached) to report
/// `EpochPublish` / `Compact` / `Flush` without depending on the service
/// layer.
#[derive(Clone)]
pub struct EventScope {
    telemetry: Arc<Telemetry>,
    lane: usize,
    target: u32,
}

impl std::fmt::Debug for EventScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventScope")
            .field("lane", &self.lane)
            .field("target", &self.target)
            .finish()
    }
}

impl EventScope {
    /// Records `kind` with a kind-specific `arg` (no ticket).
    pub fn emit(&self, kind: EventKind, arg: u64) {
        self.telemetry
            .emit(self.lane, kind, self.target, Event::NO_TICKET, arg);
    }
}

// ---------------------------------------------------------------------------
// Exporters. Hand-rolled JSON: the workspace deliberately has no serde.
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn histogram_json(h: &Histogram) -> String {
    format!(
        "{{\"count\":{},\"sum_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
        h.count(),
        h.sum(),
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.9),
        h.quantile(0.99),
        h.max(),
    )
}

/// Writes the registry and recorder as JSON Lines:
///
/// - one `{"type":"meta",...}` header with format version, dropped-event
///   count, and lane names;
/// - one `{"type":"metrics","target":...}` record per target with the
///   outcome counters and a summary of each histogram;
/// - one `{"type":"event",...}` record per retained flight-recorder event.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_jsonl<W: std::io::Write>(w: &mut W, telemetry: &Telemetry) -> std::io::Result<()> {
    let targets = telemetry.targets();
    let lanes: Vec<String> = telemetry
        .lane_names()
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect();
    writeln!(
        w,
        "{{\"type\":\"meta\",\"format\":\"odburg-telemetry-v1\",\"dropped_events\":{},\"ring_capacity\":{},\"lanes\":[{}]}}",
        telemetry.recorder().dropped(),
        telemetry.recorder().capacity(),
        lanes.join(","),
    )?;
    for m in &targets {
        let c = m.counts.snapshot();
        writeln!(
            w,
            "{{\"type\":\"metrics\",\"target\":\"{}\",\"submitted\":{},\"accepted\":{},\"rejected\":{},\"shed\":{},\"completed\":{},\"failed\":{},\"deadline_missed\":{},\"panics\":{},\"queue_wait\":{},\"labeling\":{},\"reduce\":{},\"maintenance\":{},\"shed_error\":{}}}",
            json_escape(m.name()),
            c.submitted,
            c.accepted,
            c.rejected,
            c.shed,
            c.completed,
            c.failed,
            c.deadline_missed,
            c.panics,
            histogram_json(&m.queue_wait.snapshot()),
            histogram_json(&m.labeling.snapshot()),
            histogram_json(&m.reduce.snapshot()),
            histogram_json(&m.maintenance.snapshot()),
            histogram_json(&m.shed_error.snapshot()),
        )?;
    }
    for (lane, ev) in telemetry.recorder().events() {
        let target = telemetry
            .target_name(ev.target)
            .unwrap_or_else(|| format!("#{}", ev.target));
        let ticket = if ev.ticket == Event::NO_TICKET {
            "null".to_string()
        } else {
            ev.ticket.to_string()
        };
        writeln!(
            w,
            "{{\"type\":\"event\",\"ts_ns\":{},\"kind\":\"{}\",\"target\":\"{}\",\"lane\":{},\"ticket\":{},\"arg\":{}}}",
            ev.ts_ns,
            ev.kind.name(),
            json_escape(&target),
            lane,
            ticket,
            ev.arg,
        )?;
    }
    Ok(())
}

/// Writes the flight recorder in the Chrome trace-event format
/// (`{"traceEvents":[...]}`); open the file at `chrome://tracing` or
/// <https://ui.perfetto.dev>.
///
/// `Complete` events with a duration payload become `ph:"X"` spans
/// (labeling), `Pop` queue waits become spans on the same lane ending at the
/// pop, and everything else becomes instant events. Lane names are emitted
/// as thread-name metadata so the flame chart shows `submit`, `worker-N`,
/// and `core` rows.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_chrome_trace<W: std::io::Write>(
    w: &mut W,
    telemetry: &Telemetry,
) -> std::io::Result<()> {
    write!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut first = true;
    write_trace_process(w, telemetry, 1, None, &mut first)?;
    writeln!(w, "]}}")?;
    Ok(())
}

/// Writes several telemetry registries into one Chrome trace, one
/// *process* per registry — a cluster renders as one process per shard
/// (plus one for the cluster control plane), each with its own lane rows,
/// so a shipment span on the cluster lane lines up vertically with the
/// labeling spans it overlaps on the shard lanes.
///
/// Timestamps are each registry's nanoseconds since its own creation;
/// registries created together (as a cluster does at startup) are
/// aligned to within that construction window.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_chrome_trace_multi<W: std::io::Write>(
    w: &mut W,
    parts: &[(&str, &Telemetry)],
) -> std::io::Result<()> {
    write!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut first = true;
    for (i, (name, telemetry)) in parts.iter().enumerate() {
        write_trace_process(w, telemetry, i as u64 + 1, Some(name), &mut first)?;
    }
    writeln!(w, "]}}")?;
    Ok(())
}

fn trace_sep<W: std::io::Write>(w: &mut W, first: &mut bool) -> std::io::Result<()> {
    if *first {
        *first = false;
    } else {
        write!(w, ",")?;
    }
    Ok(())
}

/// One registry's worth of trace events under process id `pid`: optional
/// process-name metadata, per-lane thread names, then the events —
/// `Complete`/`Pop`/`Ship` as `ph:"X"` spans (the event timestamp marks
/// the span *end*; `arg` is the duration in ns), everything else as
/// instants.
fn write_trace_process<W: std::io::Write>(
    w: &mut W,
    telemetry: &Telemetry,
    pid: u64,
    process_name: Option<&str>,
    first: &mut bool,
) -> std::io::Result<()> {
    if let Some(name) = process_name {
        trace_sep(w, first)?;
        write!(
            w,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            pid,
            json_escape(name),
        )?;
    }
    for (lane, name) in telemetry.lane_names().iter().enumerate() {
        trace_sep(w, first)?;
        write!(
            w,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            pid,
            lane,
            json_escape(name),
        )?;
    }
    for (lane, ev) in telemetry.recorder().events() {
        let target = telemetry
            .target_name(ev.target)
            .unwrap_or_else(|| format!("#{}", ev.target));
        let ts_us = ev.ts_ns as f64 / 1000.0;
        trace_sep(w, first)?;
        match ev.kind {
            EventKind::Complete | EventKind::Pop | EventKind::Ship => {
                let dur_us = ev.arg as f64 / 1000.0;
                let label = match ev.kind {
                    EventKind::Complete => "label",
                    EventKind::Pop => "queue-wait",
                    _ => "ship",
                };
                write!(
                    w,
                    "{{\"name\":\"{}:{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"ticket\":{}}}}}",
                    label,
                    json_escape(&target),
                    ev.kind.name(),
                    (ts_us - dur_us).max(0.0),
                    dur_us,
                    pid,
                    lane,
                    if ev.ticket == Event::NO_TICKET { -1i64 } else { ev.ticket as i64 },
                )?;
            }
            _ => {
                write!(
                    w,
                    "{{\"name\":\"{}:{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"arg\":{}}}}}",
                    ev.kind.name(),
                    json_escape(&target),
                    ev.kind.name(),
                    ts_us,
                    pid,
                    lane,
                    ev.arg,
                )?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Exact below the first octave boundary.
        for v in 0..HIST_SUB_BUCKETS {
            assert_eq!(bucket_index(v), v as usize);
        }
        // Monotone non-decreasing across octave boundaries, step <= 1.
        let mut prev = bucket_index(0);
        for shift in 0..58 {
            for off in [0u64, 1, 63, 64, 65] {
                let v = (1u64 << (shift + 6)).saturating_add(off);
                let idx = bucket_index(v);
                assert!(idx >= prev || v < 64, "non-monotone at {v}");
                prev = prev.max(idx);
            }
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 123_456_789, u64::MAX] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "{v} not in [{lo},{hi})"
            );
        }
    }

    #[test]
    fn quantile_exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..50u64 {
            h.record(v);
        }
        // Values below HIST_SUB_BUCKETS land in unit-width buckets, so
        // quantiles are exact under nearest-rank.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 25); // round(0.5 * 49) = 25 -> bucket 25
        assert_eq!(h.quantile(1.0), 49);
        assert_eq!(h.count(), 50);
        assert_eq!(h.max(), 49);
    }

    #[test]
    fn atomic_snapshot_matches_plain() {
        let a = AtomicHistogram::new();
        let mut p = Histogram::new();
        for v in [0u64, 5, 64, 100, 1_000_000, 12_345_678_901] {
            a.record(v);
            p.record(v);
        }
        let s = a.snapshot();
        assert_eq!(s.count(), p.count());
        assert_eq!(s.sum(), p.sum());
        assert_eq!(s.max(), p.max());
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(s.quantile(q), p.quantile(q));
        }
    }

    #[test]
    fn recorder_keeps_newest_and_counts_drops() {
        let rec = FlightRecorder::new(1, 4);
        for i in 0..10u64 {
            rec.record(
                0,
                Event {
                    ts_ns: i,
                    kind: EventKind::Submit,
                    target: 0,
                    ticket: i,
                    arg: i * 3 + 1,
                },
            );
        }
        assert_eq!(rec.dropped(), 6);
        let evs = rec.events();
        assert_eq!(evs.len(), 4);
        // The newest four, in timestamp order, fields intact.
        for (k, (lane, ev)) in evs.iter().enumerate() {
            assert_eq!(*lane, 0);
            assert_eq!(ev.ts_ns, 6 + k as u64);
            assert_eq!(ev.ticket, ev.ts_ns);
            assert_eq!(ev.arg, ev.ts_ns * 3 + 1);
        }
    }

    #[test]
    fn conservation_over_counts() {
        let c = AtomicJobCounts::default();
        c.add(&JobCounts {
            submitted: 1,
            accepted: 1,
            ..JobCounts::default()
        });
        c.add(&JobCounts {
            submitted: 1,
            rejected: 1,
            ..JobCounts::default()
        });
        c.add(&JobCounts {
            submitted: 1,
            shed: 1,
            ..JobCounts::default()
        });
        assert!(c.snapshot().conserved());
    }

    #[test]
    fn exporters_emit_valid_shapes() {
        let tel = Arc::new(Telemetry::with_capacity(
            vec!["submit".into(), "worker-0".into(), "core".into()],
            16,
        ));
        let m = tel.target("demo");
        m.counts.add(&JobCounts {
            submitted: 2,
            accepted: 1,
            rejected: 1,
            ..JobCounts::default()
        });
        m.labeling.record(1500);
        tel.emit(0, EventKind::Submit, m.id(), Event::NO_TICKET, 0);
        tel.emit(1, EventKind::Complete, m.id(), 7, 1500);
        tel.scope(2, m.id()).emit(EventKind::EpochPublish, 3);

        let mut jsonl = Vec::new();
        write_jsonl(&mut jsonl, &tel).unwrap();
        let text = String::from_utf8(jsonl).unwrap();
        assert_eq!(text.lines().count(), 1 + 1 + 3); // meta + metrics + events
        assert!(text.contains("\"odburg-telemetry-v1\""));
        assert!(text.contains("\"kind\":\"epoch_publish\""));

        let mut trace = Vec::new();
        write_chrome_trace(&mut trace, &tel).unwrap();
        let text = String::from_utf8(trace).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\""));
        assert!(text.contains("\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"X\"")); // the Complete span
        assert!(text.trim_end().ends_with("]}"));
    }
}
