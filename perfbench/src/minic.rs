//! `minic_session`: the CLI `compile` path on one thread, no server —
//! `odburg_frontend::compile`, then `OnDemandAutomaton::label_forest` on
//! one long-lived, cold-started automaton per target, then
//! `reduce_forest`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use odburg::codegen::reduce_forest;
use odburg::grammar::analysis;
use odburg::grammar::Severity;
use odburg::prelude::{Labeler, OnDemandAutomaton};

use crate::jobs::{MinicSuite, MINIC_TARGETS};
use crate::replay::{ReplayInput, TargetReplay};
use crate::trace::{Layer, Trace};
use crate::{Counts, Outcome, Params, Stop, SEGMENT};

/// Set-up: normalize and verify each target's grammar (rejecting
/// error-severity findings, as registration under `AnalysisPolicy::Deny`
/// does), then construct its automaton. Returns the automata, the whole
/// set-up time and its verification part.
fn setup() -> Result<(Vec<OnDemandAutomaton>, Duration, Duration), String> {
    let start = Instant::now();
    let mut grammars = Vec::with_capacity(MINIC_TARGETS.len());
    for name in MINIC_TARGETS {
        let grammar = odburg::targets::by_name(name).expect("built-in target");
        let normal = Arc::new(grammar.normalize());
        if let Some(d) = analysis::analyze(&normal)
            .iter()
            .find(|d| d.severity >= Severity::Error)
        {
            return Err(format!("{name}: {}", d.message));
        }
        grammars.push(normal);
    }
    let register = start.elapsed();
    let automata = grammars.into_iter().map(OnDemandAutomaton::new).collect();
    Ok((automata, start.elapsed(), register))
}

/// Times `params.setups` set-ups whose automata label nothing.
fn spare_setups(params: &Params, out: &mut Outcome) -> Result<(), String> {
    for _ in 0..params.setups {
        let (_, took, register) = setup()?;
        out.setups.push(took);
        out.registers.push(register);
    }
    Ok(())
}

/// Runs the session until `stop`, cycling through seeded shuffles of
/// every (program, target) pair.
///
/// # Errors
///
/// Set-up failures, as text.
pub fn run(
    params: &Params,
    suite: &MinicSuite,
    stop: Stop,
    traced: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    spare_setups(params, &mut out)?;
    let (mut automata, took, register) = setup()?;
    out.setups.push(took);
    out.registers.push(register);

    let started = Instant::now();
    let mut trace = traced.then(|| Trace::new(started));
    let mut id = 0u32;
    let mut pass = 0u64;
    'session: loop {
        for (p, t) in suite.order(params.seed, pass) {
            if let Stop::Window(w) = stop {
                if started.elapsed() >= w {
                    break 'session;
                }
            }
            out.attempted += 1;
            let automaton = &mut automata[t];
            let start = Instant::now();
            let Ok(forest) = odburg::frontend::compile(suite.programs[p].source) else {
                out.failed += 1;
                continue;
            };
            let compiled = Instant::now();
            let misses = automaton.counters().memo_misses;
            let labeling = automaton.label_forest(&forest);
            let labeled = Instant::now();
            let grew = automaton.counters().memo_misses > misses;
            let reduced = labeling
                .as_ref()
                .map(|l| reduce_forest(&forest, automaton.grammar(), &l.chooser(&*automaton)));
            let end = Instant::now();
            let mut nodes = 0;
            match reduced {
                Ok(Ok(red)) if suite.expected[p][t].matches(&red) => {
                    nodes = forest.len() as u64;
                    out.counts.instructions += red.len() as u64;
                }
                Ok(Ok(_)) => {
                    out.mismatches += 1;
                    out.failed += 1;
                }
                _ => out.failed += 1,
            }
            out.counts.nodes += nodes;
            let segment = (start - started).as_nanos() / SEGMENT.as_nanos();
            let job = p * MINIC_TARGETS.len() + t;
            out.sample(segment as usize, job, end - start, nodes);
            if let Some(tr) = &mut trace {
                let label = if grew { Layer::Grow } else { Layer::Label };
                tr.record(id, Layer::Frontend, Some(Layer::Job), start, compiled);
                tr.record(id, label, Some(Layer::Job), compiled, labeled);
                tr.record(id, Layer::Reduce, Some(Layer::Job), labeled, end);
                tr.record(id, Layer::Job, None, start, end);
            }
            id += 1;
        }
        pass += 1;
        if matches!(stop, Stop::Passes(n) if pass as usize >= n) {
            break;
        }
    }
    out.close_time_segments(started.elapsed());
    spare_setups(params, &mut out)?;

    let mut counts = Counts {
        jobs: out.attempted,
        nodes: out.counts.nodes,
        instructions: out.counts.instructions,
        ..Counts::default()
    };
    for a in &automata {
        let w = a.counters();
        counts.misses += w.memo_misses;
        counts.hits += w.memo_hits;
        counts.states_built += w.states_built;
        counts.table_bytes += a.accounted_bytes().total() as u64;
    }
    out.counts = counts;
    out.trace = trace;
    if traced {
        let forests: Vec<_> = suite
            .programs
            .iter()
            .map(|p| p.compile().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        out.replay = Some(ReplayInput {
            targets: automata
                .iter()
                .zip(MINIC_TARGETS)
                .map(|(a, name)| TargetReplay {
                    name: name.to_owned(),
                    grammar: Arc::clone(a.grammar()),
                    start: None,
                    last: Arc::new(a.snapshot()),
                    forests: forests.clone(),
                })
                .collect(),
            publishes: false,
        });
    }
    Ok(out)
}
