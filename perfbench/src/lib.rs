//! End-to-end selection benchmark for odburg: s-expr (or MiniC) text in,
//! instructions out, every job checked against the `DpLabeler` oracle.
//!
//! Three seeded workloads drive the product's public front ends:
//!
//! * [`Workload::ServeWarm`] — open-loop Poisson arrivals of the
//!   mixed-traffic stream against a `SelectorServer` warm-started from
//!   tables trained on exactly that stream. The read path: intake,
//!   service overhead, warm probe and reduce; grow and publish never run.
//! * [`Workload::ServeCold`] — the same front end on another stream,
//!   closed loop with two jobs in flight, every episode starting from
//!   empty tables. The write path: grow and snapshot publication.
//! * [`Workload::MinicSession`] — the CLI `compile` path on one thread:
//!   MiniC frontend, one long-lived on-demand automaton per target, reduce.
//!
//! Inputs and expected outputs are generated before the timed window. A
//! traced run ([`trace`]) records spans around each public call and
//! replays hidden layers through their own public functions ([`replay`]).

pub mod jobs;
pub mod minic;
pub mod replay;
pub mod report;
pub mod serve;
pub mod trace;

use std::time::Duration;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop mixed traffic against warm-started tables.
    ServeWarm,
    /// Closed-loop mixed traffic against empty tables.
    ServeCold,
    /// Closed-loop MiniC compile session on one thread.
    MinicSession,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeWarm,
        Workload::ServeCold,
        Workload::MinicSession,
    ];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve_warm",
            Workload::ServeCold => "serve_cold",
            Workload::MinicSession => "minic_session",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Open-loop arrival rate of `serve_warm`, jobs per second. The client
/// parses and reduces every job, so it saturates first, at about 10k
/// jobs/s on a 2-vCPU VM. At half that, queueing amplified interference
/// from the host and the median latency of two runs differed twofold; at
/// under a third the queue stays short. At 2000 and 4000 jobs/s the
/// latencies varied more from run to run than at 3000: fewer arrivals
/// leave the worker's vCPU idle longer, so waking it costs more.
pub const WARM_RATE: f64 = 3000.0;

/// Length of one measurement segment of a timed window. The untraced
/// output lists every segment (every episode on `serve_cold`), and the
/// open loop's throughput is summed over them.
pub const SEGMENT: Duration = Duration::from_secs(1);

/// Jobs each `serve_cold` episode keeps in flight.
pub const COLD_IN_FLIGHT: usize = 2;

/// Fixed workload parameters, recorded in every run header.
#[derive(Debug, Clone)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Distinct jobs in one pass: the serve stream length, or the
    /// MiniC (program, target) pairs.
    pub pass_jobs: usize,
    /// Open-loop arrival rate in jobs per second (`serve_warm` only).
    pub rate: f64,
    /// Jobs in flight in a closed loop.
    pub in_flight: usize,
    /// Server worker threads (`nproc - 1`, at least one).
    pub workers: usize,
    /// Spare set-ups timed before the window and again after it.
    pub setups: usize,
}

impl Params {
    /// The benchmark's parameters for `workload` on `seed`.
    pub fn new(workload: Workload, seed: u64) -> Params {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (pass_jobs, rate, in_flight) = match workload {
            Workload::ServeWarm => (8192, WARM_RATE, 0),
            Workload::ServeCold => (6000, 0.0, COLD_IN_FLIGHT),
            Workload::MinicSession => (
                jobs::MINIC_TARGETS.len() * odburg::frontend::programs::all().len(),
                0.0,
                1,
            ),
        };
        Params {
            workload,
            seed,
            pass_jobs,
            rate,
            in_flight,
            workers: nproc.saturating_sub(1).max(1),
            setups: 6,
        }
    }
}

/// When a run stops taking new work.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much wall time (a pass in progress finishes for
    /// `serve_cold`, whose episodes are indivisible).
    Window(Duration),
    /// After exactly this many passes (deterministic counts).
    Passes(usize),
}

/// Deterministic counts of a run — what the determinism self-test
/// compares across seeds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Jobs attempted.
    pub jobs: u64,
    /// IR nodes of completed jobs.
    pub nodes: u64,
    /// Instructions emitted.
    pub instructions: u64,
    /// Transition-cache misses (per episode on `serve_cold`).
    pub misses: u64,
    /// States built (per episode on `serve_cold`).
    pub states_built: u64,
    /// Cache hits, for the hit ratio.
    pub hits: u64,
    /// Snapshot publications (per episode on `serve_cold`).
    pub publications: u64,
    /// Governor-accounted bytes of every target's tables at the end.
    pub table_bytes: u64,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs attempted (submitted or compiled).
    pub attempted: u64,
    /// Typed rejections, sheds, deadline misses, job or reduce errors,
    /// and oracle mismatches.
    pub failed: u64,
    /// Jobs whose output differed from the DP oracle.
    pub mismatches: u64,
    /// Completed jobs by segment.
    pub segments: Vec<Segment>,
    /// Per distinct job of a pass (a stream position, or a MiniC
    /// (program, target) pair): its fastest completion over every time
    /// the run repeated it, with its IR nodes.
    pub best: Vec<Option<(Duration, u64)>>,
    /// Open-loop generator lag (submit start minus scheduled arrival).
    pub lags: Vec<Duration>,
    /// Each set-up's duration, spare ones included.
    pub setups: Vec<Duration>,
    /// Each set-up's target-registration part.
    pub registers: Vec<Duration>,
    /// Deterministic counts.
    pub counts: Counts,
    /// Workload-validity violations (each makes the run incorrect).
    pub violations: Vec<String>,
    /// Spans, when traced.
    pub trace: Option<trace::Trace>,
    /// Inputs for the per-layer replays, when traced.
    pub replay: Option<replay::ReplayInput>,
}

/// The completed jobs of one second of the window, or of one episode.
#[derive(Debug, Default)]
pub struct Segment {
    /// Arrival to reduced instructions in hand, per completed job.
    pub latencies: Vec<Duration>,
    /// IR nodes of the jobs whose output matched the oracle.
    pub nodes: u64,
    /// Wall time the segment covers.
    pub window: Duration,
}

impl Outcome {
    /// Records a completion of distinct job `job` in segment `segment`.
    pub fn sample(&mut self, segment: usize, job: usize, latency: Duration, nodes: u64) {
        if self.segments.len() <= segment {
            self.segments.resize_with(segment + 1, Segment::default);
        }
        let s = &mut self.segments[segment];
        s.latencies.push(latency);
        s.nodes += nodes;
        if self.best.len() <= job {
            self.best.resize(job + 1, None);
        }
        match &mut self.best[job] {
            Some((fastest, _)) if *fastest <= latency => {}
            slot => *slot = Some((latency, nodes)),
        }
    }

    /// Gives [`SEGMENT`]-long segments of a `window`-long run their
    /// durations.
    pub fn close_time_segments(&mut self, window: Duration) {
        for (i, s) in self.segments.iter_mut().enumerate() {
            s.window = window.saturating_sub(SEGMENT * i as u32).min(SEGMENT);
        }
    }

    /// Every completed job's latency.
    pub fn latencies(&self) -> Vec<Duration> {
        self.segments
            .iter()
            .flat_map(|s| s.latencies.iter().copied())
            .collect()
    }

    /// Each completed distinct job's fastest latency, with its IR nodes.
    pub fn fastest(&self) -> impl Iterator<Item = (Duration, u64)> + '_ {
        self.best.iter().flatten().copied()
    }
}
