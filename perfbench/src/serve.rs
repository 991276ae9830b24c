//! `serve_warm` and `serve_cold`: one client thread drives a
//! `SelectorServer` exactly as the CLI `serve` loop does — parse the
//! job's s-expr text, `try_submit_with`, reap the completed job and
//! `CompletedJob::reduce` it on the client thread.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use odburg::prelude::{
    AnalysisPolicy, CompletedJob, JobHandle, JobOptions, Labeler, OnDemandAutomaton,
    SelectorServer, ServerConfig,
};
use odburg::select::persist;

use crate::jobs::{parse_job, ServeStream};
use crate::replay::{ReplayInput, TargetReplay};
use crate::trace::{Layer, Trace};
use crate::{Counts, Outcome, Params, Stop, Workload, SEGMENT};

/// A serve workload's inputs, built before any timing starts.
#[derive(Debug)]
pub struct Prepared {
    /// One pass of jobs with their oracle outputs.
    pub stream: ServeStream,
    /// Where the trained tables live (`serve_warm` only).
    pub tables_dir: Option<PathBuf>,
}

impl Prepared {
    /// Generates the stream and, for `serve_warm`, trains tables on
    /// exactly that stream and persists them under `scratch`.
    ///
    /// # Errors
    ///
    /// Generation, training or persistence failures, as text.
    pub fn new(params: &Params, scratch: &Path) -> Result<Prepared, String> {
        let warm = params.workload == Workload::ServeWarm;
        let stream = ServeStream::generate(params.seed, !warm, params.pass_jobs, params.rate)?;
        let tables_dir = if warm {
            // Unique per process and per preparation: two preparations in
            // one process must not share table files.
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = scratch.join(format!("tables-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            for (i, (name, grammar)) in stream.targets.iter().enumerate() {
                let mut automaton = OnDemandAutomaton::new(Arc::clone(grammar));
                for job in stream.jobs.iter().filter(|j| j.target == i) {
                    let forest = parse_job(&job.text).map_err(|e| e.to_string())?;
                    automaton
                        .label_forest(&forest)
                        .map_err(|e| format!("training {name}: {e}"))?;
                }
                persist::save_tables(&automaton.snapshot(), &dir.join(format!("{name}.odbt")))
                    .map_err(|e| format!("saving {name} tables: {e}"))?;
            }
            Some(dir)
        } else {
            None
        };
        Ok(Prepared { stream, tables_dir })
    }
}

impl Drop for Prepared {
    fn drop(&mut self) {
        if let Some(dir) = &self.tables_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Set-up as `serve` does it: construct the server, register every
/// built-in target under `AnalysisPolicy::Deny`, and build each target's
/// master (importing its persisted tables when `tables_dir` is set).
/// Returns the server, the whole set-up time and its registration part.
fn setup(
    params: &Params,
    tables_dir: Option<&Path>,
) -> Result<(SelectorServer, Duration, Duration), String> {
    let start = Instant::now();
    let server = SelectorServer::new(ServerConfig {
        workers: params.workers,
        // Deep enough (seconds of arrivals) that a stall of the host
        // shows as latency, never as rejected jobs.
        queue_cap: 1 << 16,
        tables_dir: tables_dir.map(Path::to_path_buf),
        analysis_policy: AnalysisPolicy::Deny,
        ..ServerConfig::default()
    });
    let registering = Instant::now();
    for grammar in odburg::targets::all() {
        server
            .register(&grammar)
            .map_err(|e| format!("registering {}: {e}", grammar.name()))?;
    }
    let register = registering.elapsed();
    for name in server.targets() {
        server
            .shared(&name)
            .map_err(|e| format!("building {name}: {e}"))?;
    }
    Ok((server, start.elapsed(), register))
}

/// One accepted job the client has not reaped yet (its handle travels
/// beside it).
struct InFlight {
    id: u32,
    job: usize,
    arrival: Instant,
    submitted: Instant,
}

/// The client side shared by both loops: submission, reaping, the
/// oracle check, and span recording.
struct Client<'a> {
    stream: &'a ServeStream,
    out: &'a mut Outcome,
    trace: Option<Trace>,
    next_id: u32,
    /// Per target, one pass's forests in submission order (traced runs
    /// only).
    forests: Option<Vec<Vec<odburg::ir::Forest>>>,
    /// Forests kept so far this pass.
    kept: usize,
    /// Start of the open loop's window, whose seconds are its segments.
    origin: Instant,
    /// The closed loop's current episode, which is its segment.
    episode: Option<usize>,
}

impl Client<'_> {
    /// Parses and submits job `job`, which arrived at `arrival`.
    fn submit(
        &mut self,
        server: &SelectorServer,
        job: usize,
        arrival: Instant,
    ) -> Option<(InFlight, JobHandle)> {
        let spec = &self.stream.jobs[job];
        let id = self.next_id;
        self.next_id += 1;
        self.out.attempted += 1;
        let parsing = Instant::now();
        let Ok(forest) = parse_job(&spec.text) else {
            self.out.failed += 1;
            return None;
        };
        let parsed = Instant::now();
        if let Some(per_target) = &mut self.forests {
            if self.kept < self.stream.jobs.len() {
                per_target[spec.target].push(forest.clone());
                self.kept += 1;
            }
        }
        let target = &self.stream.targets[spec.target].0;
        let submitting = Instant::now();
        let result = server.try_submit_with(target, forest, JobOptions::default());
        let submitted = Instant::now();
        if let Some(t) = &mut self.trace {
            t.record(id, Layer::Intake, Some(Layer::Job), parsing, parsed);
            t.record(id, Layer::Submit, Some(Layer::Job), submitting, submitted);
        }
        match result {
            Ok(handle) => Some((
                InFlight {
                    id,
                    job,
                    arrival,
                    submitted,
                },
                handle,
            )),
            Err(_) => {
                self.out.failed += 1;
                if let Some(t) = &mut self.trace {
                    t.record(id, Layer::Job, None, arrival, submitted);
                }
                None
            }
        }
    }

    /// Reduces a completed job reaped at `reaped` and checks it against
    /// the oracle.
    fn complete(&mut self, f: InFlight, done: CompletedJob, reaped: Instant) {
        let reduced = done.reduce();
        let end = Instant::now();
        let spec = &self.stream.jobs[f.job];
        let mut nodes = 0;
        match &reduced {
            Ok(red) if spec.expected.matches(red) => {
                nodes = spec.nodes as u64;
                self.out.counts.instructions += red.len() as u64;
            }
            Ok(_) => {
                self.out.mismatches += 1;
                self.out.failed += 1;
            }
            Err(_) => self.out.failed += 1,
        }
        self.out.counts.nodes += nodes;
        let segment = self.episode.unwrap_or_else(|| {
            (f.arrival.saturating_duration_since(self.origin).as_nanos() / SEGMENT.as_nanos())
                as usize
        });
        self.out.sample(segment, f.job, end - f.arrival, nodes);
        if let Some(t) = &mut self.trace {
            let queued = (f.submitted + done.queued).min(reaped);
            let labeled = (queued + done.latency).min(reaped);
            t.record(f.id, Layer::Wait, Some(Layer::Job), f.submitted, reaped);
            t.record(f.id, Layer::Queue, Some(Layer::Wait), f.submitted, queued);
            t.record(f.id, Layer::Label, Some(Layer::Wait), queued, labeled);
            t.record(f.id, Layer::Reduce, Some(Layer::Job), reaped, end);
            t.record(f.id, Layer::Job, None, f.arrival, end);
        }
    }
}

/// Open loop: job `k` of pass `p` arrives at `p * span + at_k`, whether
/// or not earlier jobs finished. The client spins between arrivals,
/// reaping whatever completed. Returns when the last accepted job is
/// reduced.
fn open_loop(server: &SelectorServer, client: &mut Client<'_>, stop: Stop) {
    let stream = client.stream;
    let n = stream.jobs.len();
    let start = Instant::now();
    client.origin = start;
    let mut pending: Vec<(InFlight, JobHandle)> = Vec::new();
    let mut k = 0usize;
    loop {
        let (pass, idx) = (k / n, k % n);
        let due = start + stream.span * pass as u32 + stream.jobs[idx].at;
        let submitting = match stop {
            Stop::Window(w) => due - start < w,
            Stop::Passes(p) => pass < p,
        };
        let now = Instant::now();
        if submitting && due <= now {
            client.out.lags.push(now - due);
            if let Some(f) = client.submit(server, idx, due) {
                pending.push(f);
            }
            k += 1;
            continue;
        }
        let mut progressed = false;
        let mut i = 0;
        while i < pending.len() {
            if let Some(done) = pending[i].1.try_wait() {
                let reaped = Instant::now();
                let (f, _) = pending.remove(i);
                client.complete(f, done, reaped);
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !submitting && pending.is_empty() {
            break;
        }
        if !progressed {
            // Back off between polls so the spinning client does not
            // hammer the job-slot locks the worker delivers through.
            for _ in 0..64 {
                std::hint::spin_loop();
            }
        }
    }
}

/// Closed loop over one pass: `in_flight` jobs outstanding; each reaped
/// job is reduced, then the next is submitted. Arrival is the moment
/// the client starts parsing a job.
fn closed_loop(server: &SelectorServer, client: &mut Client<'_>, in_flight: usize) {
    let n = client.stream.jobs.len();
    let mut pending: VecDeque<(InFlight, JobHandle)> = VecDeque::new();
    let mut next = 0;
    loop {
        while next < n && pending.len() < in_flight {
            if let Some(f) = client.submit(server, next, Instant::now()) {
                pending.push_back(f);
            }
            next += 1;
        }
        let Some((f, handle)) = pending.pop_front() else {
            break;
        };
        let done = handle.wait();
        client.complete(f, done, Instant::now());
    }
}

/// Target-summed work counters, publications, states and table bytes.
fn server_counts(server: &SelectorServer) -> Result<Counts, String> {
    let mut c = Counts::default();
    for name in server.targets() {
        let master = server.shared(&name).map_err(|e| e.to_string())?;
        let w = master.counters();
        c.misses += w.memo_misses;
        c.hits += w.memo_hits;
        c.states_built += w.states_built;
        c.publications += master.snapshots_published() as u64;
        c.table_bytes += master.accounted_bytes().total() as u64;
    }
    Ok(c)
}

/// Checks telemetry conservation (`submitted == accepted + rejected +
/// shed`) and that the registry saw every submission the client made.
fn check_conservation(server: &SelectorServer, submitted: u64, out: &mut Outcome) {
    let totals = server.telemetry().totals();
    if !totals.conserved() {
        out.violations
            .push(format!("telemetry conservation broken: {totals:?}"));
    }
    if totals.submitted != submitted {
        out.violations.push(format!(
            "telemetry saw {} submissions, the client made {submitted}",
            totals.submitted
        ));
    }
}

/// Runs `serve_warm` or `serve_cold` until `stop`.
///
/// # Errors
///
/// Set-up failures, as text.
pub fn run(params: &Params, prep: &Prepared, stop: Stop, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tables = prep.tables_dir.as_deref();
    spare_setups(params, tables, &mut out)?;
    let stream = &prep.stream;
    let per_target = || Some(vec![Vec::new(); stream.targets.len()]);
    let epoch = Instant::now();
    let mut client = Client {
        stream,
        out: &mut out,
        trace: traced.then(|| Trace::new(epoch)),
        next_id: 0,
        forests: traced.then(per_target).flatten(),
        kept: 0,
        origin: epoch,
        episode: None,
    };

    let (server, counts, start_tables) = if params.workload == Workload::ServeWarm {
        let (server, took, register) = setup(params, tables)?;
        client.out.setups.push(took);
        client.out.registers.push(register);
        let start_tables = snapshots(&server, stream)?;
        open_loop(&server, &mut client, stop);
        let window = match stop {
            Stop::Window(w) => w,
            Stop::Passes(p) => stream.span * p as u32,
        };
        client.out.close_time_segments(window);
        let counts = server_counts(&server)?;
        if counts.misses != 0 || counts.publications != 0 {
            client.out.violations.push(format!(
                "serve_warm must not grow: {} misses, {} publications",
                counts.misses, counts.publications
            ));
        }
        let submitted = client.out.attempted;
        check_conservation(&server, submitted, client.out);
        (server, counts, Some(start_tables))
    } else {
        let started = Instant::now();
        let mut episodes = 0;
        loop {
            let (server, took, register) = setup(params, None)?;
            client.out.setups.push(took);
            client.out.registers.push(register);
            if let Some(f) = &mut client.forests {
                f.iter_mut().for_each(Vec::clear);
                client.kept = 0;
            }
            let submitted_before = client.out.attempted;
            client.episode = Some(episodes);
            let window = Instant::now();
            closed_loop(&server, &mut client, params.in_flight);
            let took = window.elapsed();
            if let Some(s) = client.out.segments.get_mut(episodes) {
                s.window = took;
            }
            episodes += 1;
            let counts = server_counts(&server)?;
            if counts.publications == 0 {
                client
                    .out
                    .violations
                    .push("serve_cold must publish snapshots".to_owned());
            }
            let submitted = client.out.attempted - submitted_before;
            check_conservation(&server, submitted, client.out);
            let done = match stop {
                Stop::Window(w) => started.elapsed() >= w,
                Stop::Passes(p) => episodes >= p,
            };
            if done {
                break (server, counts, None);
            }
            server.shutdown();
        }
    };

    let Client { trace, forests, .. } = client;
    let jobs = out.attempted;
    let (nodes, instructions) = (out.counts.nodes, out.counts.instructions);
    out.counts = Counts {
        jobs,
        nodes,
        instructions,
        ..counts
    };
    out.trace = trace;
    if let Some(forests) = forests {
        let last = snapshots(&server, stream)?;
        let start = start_tables.unwrap_or_default();
        out.replay = Some(ReplayInput {
            targets: stream
                .targets
                .iter()
                .zip(forests)
                .enumerate()
                .map(|(i, ((name, grammar), forests))| TargetReplay {
                    name: name.clone(),
                    grammar: Arc::clone(grammar),
                    start: start.get(i).cloned(),
                    last: Arc::clone(&last[i]),
                    forests,
                })
                .collect(),
            publishes: true,
        });
    }
    let report = server.shutdown();
    if report.failed != 0 {
        out.violations
            .push(format!("{} jobs failed on the server", report.failed));
    }
    spare_setups(params, tables, &mut out)?;
    Ok(out)
}

/// Times `params.setups` set-ups whose servers serve nothing.
fn spare_setups(params: &Params, tables: Option<&Path>, out: &mut Outcome) -> Result<(), String> {
    for _ in 0..params.setups {
        let (server, took, register) = setup(params, tables)?;
        out.setups.push(took);
        out.registers.push(register);
        server.shutdown();
    }
    Ok(())
}

/// Each target's published snapshot, in stream target order.
fn snapshots(
    server: &SelectorServer,
    stream: &ServeStream,
) -> Result<Vec<Arc<odburg::select::AutomatonSnapshot>>, String> {
    stream
        .targets
        .iter()
        .map(|(name, _)| {
            server
                .shared(name)
                .map(|m| m.snapshot())
                .map_err(|e| e.to_string())
        })
        .collect()
}
