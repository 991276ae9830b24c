//! **A9 — Ablation of on-demand design choices.**
//!
//! A9.2, **automaton persistence**: keeping one automaton across the
//! whole method stream (the paper's deployment) vs resetting it per
//! method (every method pays warmup again).
//!
//! Regenerate with: `cargo run --release -p odburg_bench --bin ablation9_design`

use std::sync::Arc;

use odburg_bench::{f, median_time, row, rule_line};
use odburg_core::{Labeler, OnDemandAutomaton};
use odburg_frontend::programs;

fn main() {
    let normal = Arc::new(odburg::targets::x86ish().normalize());
    println!("A9.2: persistent automaton vs per-method reset (method stream x20)\n");
    let widths = [11, 9, 9, 9];
    row(
        &["automaton", "misses", "states*", "ns/node"].map(String::from),
        &widths,
    );
    rule_line(&widths);

    // Persistent: one automaton across the stream.
    let stream: Vec<_> = (0..20)
        .flat_map(|_| programs::all())
        .map(|p| p.compile().expect("compiles"))
        .collect();
    let total_nodes: usize = stream.iter().map(|f| f.len()).sum();

    let mut od = OnDemandAutomaton::new(normal.clone());
    let t = median_time(3, || {
        for forest in &stream {
            od.label_forest(forest).expect("labels");
        }
    });
    let persistent_misses = {
        let mut fresh = OnDemandAutomaton::new(normal.clone());
        for forest in &stream {
            fresh.label_forest(forest).expect("labels");
        }
        fresh.counters().memo_misses
    };
    row(
        &[
            "persistent".to_owned(),
            persistent_misses.to_string(),
            od.stats().states.to_string(),
            f(t.as_nanos() as f64 / total_nodes as f64, 1),
        ],
        &widths,
    );

    let t = median_time(3, || {
        for forest in &stream {
            let mut fresh = OnDemandAutomaton::new(normal.clone());
            fresh.label_forest(forest).expect("labels");
        }
    });
    let reset_misses: u64 = stream
        .iter()
        .map(|forest| {
            let mut fresh = OnDemandAutomaton::new(normal.clone());
            fresh.label_forest(forest).expect("labels");
            fresh.counters().memo_misses
        })
        .sum();
    let max_states = stream
        .iter()
        .map(|forest| {
            let mut fresh = OnDemandAutomaton::new(normal.clone());
            fresh.label_forest(forest).expect("labels");
            fresh.stats().states
        })
        .max()
        .unwrap_or(0);
    row(
        &[
            "per-method".to_owned(),
            reset_misses.to_string(),
            format!("≤{max_states}"),
            f(t.as_nanos() as f64 / total_nodes as f64, 1),
        ],
        &widths,
    );
    println!("  (*persistent: final size; per-method: largest single-method automaton)");
    println!();
    println!("shape check: persistence is what amortizes state construction,");
    println!("exactly the paper's deployment argument.");
}
