//! Replays that split layers hidden inside one public call.
//!
//! On the server the warm probe, the grow path and snapshot publication
//! all happen inside `SharedOnDemand::label_forest_pinned`. A traced run
//! therefore replays the forests each target labeled, in order, through
//! the layers' own public functions: `OnDemandAutomaton::label_forest`
//! (grow) followed, after every forest that missed, by
//! `OnDemandAutomaton::snapshot` (publish); `AutomatonSnapshot::label_warm`
//! on the final tables (warm probe); and `persist` export and import of
//! the final tables.

use std::sync::Arc;
use std::time::{Duration, Instant};

use odburg::grammar::NormalGrammar;
use odburg::ir::Forest;
use odburg::prelude::{
    AutomatonSnapshot, Labeler, OfflineAutomaton, OfflineConfig, OfflineLabeler, OnDemandAutomaton,
    WorkCounters,
};
use odburg::select::persist;

/// Repetitions of each timed replay; the median counts.
const REPS: usize = 5;

/// One target's inputs for the replays.
#[derive(Debug)]
pub struct TargetReplay {
    /// Target name.
    pub name: String,
    /// Its grammar.
    pub grammar: Arc<NormalGrammar>,
    /// Tables the run started from (`None`: empty).
    pub start: Option<Arc<AutomatonSnapshot>>,
    /// The run's final tables.
    pub last: Arc<AutomatonSnapshot>,
    /// One pass's forests for this target, in processing order.
    pub forests: Vec<Forest>,
}

/// Inputs for the replays of one traced run.
#[derive(Debug)]
pub struct ReplayInput {
    /// Per target.
    pub targets: Vec<TargetReplay>,
    /// Whether the workload publishes snapshots (the server does; a
    /// single-threaded session does not).
    pub publishes: bool,
}

/// What the replays measured.
#[derive(Debug, Default)]
pub struct Replayed {
    /// `label_warm` on the final tables, ns per node.
    pub warm_ns_per_node: f64,
    /// `label_forest` time on forests that hit throughout.
    pub label_hit: Duration,
    /// `label_forest` time on forests that missed at least once.
    pub label_miss: Duration,
    /// Cache misses during the replay.
    pub misses: u64,
    /// Each `snapshot()` after a forest that missed.
    pub publishes: Vec<Duration>,
    /// Export of every target's final tables.
    pub export: Duration,
    /// Import of the exported bytes.
    pub import: Duration,
    /// Exported bytes.
    pub bytes: usize,
}

/// The median of `REPS` timings of `f`.
fn median_time(mut f: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    times.sort();
    times[REPS / 2]
}

/// Runs every replay over `input`.
///
/// # Errors
///
/// A replayed labeling or a persistence step failed.
pub fn replay(input: &ReplayInput) -> Result<Replayed, String> {
    let mut r = Replayed::default();

    let mut nodes = 0usize;
    let mut warm = Duration::ZERO;
    for t in &input.targets {
        nodes += t.forests.iter().map(Forest::len).sum::<usize>();
        warm += median_time(|| {
            let mut counters = WorkCounters::new();
            for f in &t.forests {
                std::hint::black_box(t.last.label_warm(f, &mut counters));
            }
        });
    }
    r.warm_ns_per_node = warm.as_nanos() as f64 / nodes.max(1) as f64;

    if input.publishes {
        for t in &input.targets {
            let mut automaton = match &t.start {
                Some(s) => OnDemandAutomaton::from_snapshot(s),
                None => OnDemandAutomaton::new(Arc::clone(&t.grammar)),
            };
            for f in &t.forests {
                let before = automaton.counters().memo_misses;
                let start = Instant::now();
                automaton
                    .label_forest(f)
                    .map_err(|e| format!("{}: replay: {e}", t.name))?;
                let took = start.elapsed();
                let missed = automaton.counters().memo_misses - before;
                if missed == 0 {
                    r.label_hit += took;
                    continue;
                }
                r.label_miss += took;
                r.misses += missed;
                let start = Instant::now();
                let snapshot = automaton.snapshot();
                r.publishes.push(start.elapsed());
                drop(snapshot);
            }
        }
    }

    for t in &input.targets {
        let mut bytes = Vec::new();
        let start = Instant::now();
        persist::write_tables_to(&t.last, &mut bytes)
            .map_err(|e| format!("{}: export: {e}", t.name))?;
        r.export += start.elapsed();
        let start = Instant::now();
        persist::read_tables_from(bytes.as_slice(), Arc::clone(&t.grammar), t.last.config())
            .map_err(|e| format!("{}: import: {e}", t.name))?;
        r.import += start.elapsed();
        r.bytes += bytes.len();
    }
    Ok(r)
}

/// The paper's comparison on the MiniC suite for x86ish: a converged
/// `OnDemandAutomaton` against the `OfflineLabeler` built from the
/// grammar without dynamic rules. Returns (on-demand, offline) ns per node.
///
/// # Errors
///
/// The offline automaton or a labeling failed.
pub fn offline_comparison() -> Result<(f64, f64), String> {
    let grammar = odburg::targets::x86ish();
    let stripped = grammar
        .without_dynamic_rules()
        .map_err(|e| e.to_string())?
        .normalize();
    let offline = OfflineAutomaton::build(Arc::new(stripped), OfflineConfig::default())
        .map_err(|e| e.to_string())?;
    let mut off = OfflineLabeler::new(Arc::new(offline));
    let mut od = OnDemandAutomaton::new(Arc::new(grammar.normalize()));
    let forests: Vec<Forest> = odburg::frontend::programs::all()
        .iter()
        .map(|p| p.compile().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let nodes: usize = forests.iter().map(Forest::len).sum();
    for f in &forests {
        od.label_forest(f).map_err(|e| e.to_string())?;
        off.label_forest(f).map_err(|e| e.to_string())?;
    }
    let pass = |l: &mut dyn FnMut(&Forest)| {
        median_time(|| forests.iter().for_each(&mut *l)).as_nanos() as f64 / nodes as f64
    };
    let od_ns = pass(&mut |f| {
        std::hint::black_box(od.label_forest(f).ok());
    });
    let off_ns = pass(&mut |f| {
        std::hint::black_box(off.label_forest(f).ok());
    });
    Ok((od_ns, off_ns))
}
