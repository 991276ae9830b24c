//! Allocation budgets of a serve job's client-side path: parsing its
//! text into a forest, and reducing the labeled forest to instructions.
//!
//! A counting global allocator keeps one count per thread, so tests that
//! run at the same time on other threads do not disturb the figures.
//! Allocations and reallocations count; frees do not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use odburg::codegen::reduce_forest;
use odburg::ir::{parse_sexpr, to_sexpr};
use odburg::prelude::*;
use odburg::workloads::builtin_traffic;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread's count is gone while the thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are the ones `System` needs; counting touches
// only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// One forest per job, one tree per line, as the CLI and perfbench read
/// a job's text.
fn parse_job(text: &str) -> Forest {
    let mut forest = Forest::new();
    for line in text.lines() {
        let root = parse_sexpr(&mut forest, line).expect("rendered trees parse");
        forest.add_root(root);
    }
    forest
}

#[test]
fn parsing_and_reducing_traffic_stay_within_their_allocation_budgets() {
    let grammars: Vec<(String, Arc<NormalGrammar>)> = odburg::targets::all()
        .iter()
        .map(|g| (g.name().to_owned(), Arc::new(g.normalize())))
        .collect();
    let jobs: Vec<(usize, String)> = builtin_traffic(0xC0FFEE, 1000)
        .iter()
        .map(|job| {
            let target = grammars
                .iter()
                .position(|(name, _)| *name == job.target)
                .expect("traffic is addressed to built-in targets");
            let f = &job.forest;
            let lines: Vec<String> = f.roots().iter().map(|&r| to_sexpr(f, r)).collect();
            (target, lines.join("\n"))
        })
        .collect();

    let mut forests = Vec::with_capacity(jobs.len());
    let before = allocations();
    for (_, text) in &jobs {
        forests.push(parse_job(text));
    }
    let parse_allocations = allocations() - before;
    let nodes: usize = forests.iter().map(Forest::len).sum();

    let mut automata: Vec<OnDemandAutomaton> = grammars
        .iter()
        .map(|(_, g)| OnDemandAutomaton::new(Arc::clone(g)))
        .collect();
    let (mut reduce_allocations, mut instructions) = (0, 0);
    for ((target, _), forest) in jobs.iter().zip(&forests) {
        let od = &mut automata[*target];
        let labeling = od.label_forest(forest).expect("traffic labels");
        let chooser = labeling.chooser(&*od);
        let before = allocations();
        let reduction = reduce_forest(forest, &grammars[*target].1, &chooser);
        reduce_allocations += allocations() - before;
        let reduction = reduction.expect("traffic reduces");
        instructions += reduction.len() as u64;
    }

    let per_node = |n: u64| n as f64 / nodes as f64;
    let parsing = per_node(parse_allocations);
    let reducing = per_node(reduce_allocations - instructions);
    eprintln!(
        "{nodes} nodes: parse {parsing:.3} allocations/node; reduce {reducing:.3} \
         allocations/node beyond one per instruction ({:.2} instructions/node)",
        per_node(instructions)
    );
    assert!(nodes > 50_000, "only {nodes} nodes");
    assert!(
        parsing <= 0.20,
        "parsing makes {parsing:.3} allocations per node"
    );
    assert!(
        reducing <= 0.10,
        "reduce_forest makes {reducing:.3} allocations per node beyond one per instruction"
    );
}
