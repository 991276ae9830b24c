//! In-memory spans recorded by the benchmark around each public call it
//! makes, and the per-layer self times derived from them.
//!
//! A span's self time is its duration minus the durations of its direct
//! children; every job has one root span ([`Layer::Job`]) and each layer
//! appears at most once per job, so spans of one job share its id and a
//! child names its parent by layer.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// A span's layer: one public call (or, for `Queue` and `Label`, a
/// duration the server reports for its own worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Arrival to reduced instructions in hand (the root).
    Job,
    /// `parse_sexpr` over the job's text.
    Intake,
    /// `odburg_frontend::compile`.
    Frontend,
    /// `SelectorServer::try_submit_with`.
    Submit,
    /// Submit return to the completed job reaped on the client.
    Wait,
    /// Time the job waited in the server's queue (`CompletedJob::queued`).
    Queue,
    /// Labeling without a cache miss (`CompletedJob::latency` on the
    /// server, `OnDemandAutomaton::label_forest` in a session).
    Label,
    /// Labeling that missed the cache and grew the tables.
    Grow,
    /// `CompletedJob::reduce` or `reduce_forest`.
    Reduce,
}

impl Layer {
    /// Every layer, in presentation order.
    pub const ALL: [Layer; 9] = [
        Layer::Job,
        Layer::Intake,
        Layer::Frontend,
        Layer::Submit,
        Layer::Wait,
        Layer::Queue,
        Layer::Label,
        Layer::Grow,
        Layer::Reduce,
    ];

    /// The layer's name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Job => "job",
            Layer::Intake => "intake",
            Layer::Frontend => "frontend",
            Layer::Submit => "submit",
            Layer::Wait => "wait",
            Layer::Queue => "queue",
            Layer::Label => "label",
            Layer::Grow => "grow",
            Layer::Reduce => "reduce",
        }
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|&l| l == self)
            .expect("ALL lists every layer")
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The job the span belongs to.
    pub job: u32,
    /// Its layer.
    pub layer: Layer,
    /// The layer of the enclosing span (`None` for the root).
    pub parent: Option<Layer>,
    /// Start, relative to the trace's epoch.
    pub start: Duration,
    /// End, relative to the trace's epoch.
    pub end: Duration,
}

/// The spans of one traced run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    /// Spans in recording order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose span times count from `epoch`.
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Records a span.
    pub fn record(
        &mut self,
        job: u32,
        layer: Layer,
        parent: Option<Layer>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            job,
            layer,
            parent,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
    }

    /// Summed self time per layer, indexed like [`Layer::ALL`].
    pub fn self_times(&self) -> SelfTimes {
        let mut total = [Duration::ZERO; Layer::ALL.len()];
        let mut children = [Duration::ZERO; Layer::ALL.len()];
        for s in &self.spans {
            let d = s.end.saturating_sub(s.start);
            total[s.layer.index()] += d;
            if let Some(p) = s.parent {
                children[p.index()] += d;
            }
        }
        let mut own = [Duration::ZERO; Layer::ALL.len()];
        for i in 0..own.len() {
            own[i] = total[i].saturating_sub(children[i]);
        }
        SelfTimes { total, own }
    }

    /// Durations of every span of `layer`.
    pub fn durations(&self, layer: Layer) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.end.saturating_sub(s.start))
            .collect()
    }

    /// Writes the spans as JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// The I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"job\":{},\"span\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.job,
                s.layer.name(),
                s.parent.map_or("", Layer::name),
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        std::fs::write(path, out)
    }
}

/// Per-layer totals and self times of a trace.
#[derive(Debug, Clone, Copy)]
pub struct SelfTimes {
    total: [Duration; Layer::ALL.len()],
    own: [Duration; Layer::ALL.len()],
}

impl SelfTimes {
    /// Summed duration of `layer`'s spans.
    pub fn total(&self, layer: Layer) -> Duration {
        self.total[layer.index()]
    }

    /// Summed self time of `layer`'s spans.
    pub fn own(&self, layer: Layer) -> Duration {
        self.own[layer.index()]
    }
}
