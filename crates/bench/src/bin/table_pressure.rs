//! **Table pressure: byte-budgeted registries under adversarial
//! multi-target churn — Compact vs Flush.**
//!
//! The memory governor's claim is that heat-tracked compaction bounds
//! table bytes like a flush does while keeping the warm working set a
//! flush throws away. This bench proves both halves on the service
//! layer: three targets sharing a value-dependent-dyncost grammar (every
//! fresh constant mints a new signature and new transitions — tables
//! grow forever without a budget) are driven for many rounds with a
//! fixed **hot** job mix (the same small constant pool every round) plus
//! **cold churn** (never-repeating constants). Both services run under
//! the same per-target byte budget; one enforces it with
//! [`PressureAction::Flush`], the other with
//! [`PressureAction::Compact`].
//!
//! Reported per mode: peak post-round table bytes (must stay ≤ budget),
//! steady-state memo-miss rate over the second half of the run, the
//! median of the steady rounds' per-batch p99 latencies, pressure-event
//! count, and budget-policy errors (must be zero). The run asserts Compact's steady-state miss rate is at
//! least 1.3x lower than Flush's — the hot set surviving eviction is
//! exactly the point.
//!
//! Results go to stdout and, as JSON, to `target/table_pressure.json`
//! (CI's `memory-smoke` job re-checks the budget and error fields from
//! the artifact and uploads it).
//!
//! Regenerate with:
//! `cargo run --release -p odburg_bench --bin table_pressure`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use odburg::service::{JobError, JobHandle, SelectorServer, ServerConfig};
use odburg_bench::{f, row, rule_line};
use odburg_core::{Histogram, LabelError, MemoryBudget, PressureAction, SharedOnDemand};
use odburg_grammar::NormalGrammar;
use odburg_ir::{parse_sexpr, Forest};

/// Per-target byte budget. The hot working set fits comfortably inside
/// `retain_fraction * budget`, the churn does not — so pressure fires
/// round after round and the two policies separate.
const BYTE_BUDGET: usize = 15 * 1024;
const RETAIN_FRACTION: f32 = 0.6;
const ROUNDS: usize = 40;
const HOT_JOBS_PER_TARGET: usize = 8;
const COLD_JOBS_PER_TARGET: usize = 2;
const TARGETS: [&str; 3] = ["churn-a", "churn-b", "churn-c"];
/// Hot jobs draw constants from this small pool, so their signatures,
/// transitions and states repeat every round.
const HOT_POOL: u64 = 20;

struct ModeResult {
    mode: &'static str,
    peak_bytes: usize,
    steady_misses: u64,
    steady_nodes: u64,
    steady_miss_rate: f64,
    /// Median of the steady rounds' per-batch p99 latencies (a stable
    /// tail proxy; not a pooled p99 across all jobs).
    batch_p99_median_ns: u128,
    pressure_events: usize,
    budget_errors: usize,
}

/// The adversarial grammar: `ConstI8` derives `imm` for free but `reg`
/// at a cost depending on the constant's *value*. Every distinct
/// constant therefore interns a distinct signature **and** a distinct
/// normalized state (the imm/reg cost spread is the value itself) —
/// the state explosion the paper warns offline tables about, arriving
/// at run time instead.
fn churn_grammar() -> Arc<NormalGrammar> {
    let mut g = odburg_grammar::parse_grammar(
        r#"
        %grammar churn
        %start stmt
        %dyncost val
        imm: ConstI8 (0)
        reg: ConstI8 [val]
        reg: AddI8(reg, imm) (1)
        reg: AddI8(reg, reg) (1)
        reg: MulI8(reg, reg) (2)
        stmt: StoreI8(reg, reg) (1)
        "#,
    )
    .expect("churn grammar parses");
    g.bind_dyncost(
        "val",
        Arc::new(|forest: &Forest, node| {
            let v = forest.node(node).payload().as_int().unwrap_or(0);
            odburg_grammar::RuleCost::Finite((v.unsigned_abs() % 769) as u16)
        }),
    )
    .expect("dyncost binds");
    Arc::new(g.normalize())
}

fn job_forest(a: u64, b: u64, c: u64) -> Forest {
    let mut forest = Forest::new();
    let root = parse_sexpr(
        &mut forest,
        &format!(
            "(StoreI8 (AddI8 (ConstI8 {a}) (ConstI8 {b})) (MulI8 (ConstI8 {c}) (ConstI8 {a})))"
        ),
    )
    .expect("bench trees parse");
    forest.add_root(root);
    forest
}

fn run_mode(mode: &'static str, action: PressureAction) -> ModeResult {
    let server = SelectorServer::new(ServerConfig {
        workers: 2,
        queue_cap: usize::MAX,
        memory_budget: Some(MemoryBudget {
            byte_budget: BYTE_BUDGET,
            action,
        }),
        ..ServerConfig::default()
    });
    let grammar = churn_grammar();
    let masters: Vec<Arc<SharedOnDemand>> = TARGETS
        .iter()
        .map(|target| {
            server
                .register_normal(target, Arc::clone(&grammar))
                .expect("bench target names are unique");
            server.shared(target).expect("registered")
        })
        .collect();

    let mut result = ModeResult {
        mode,
        peak_bytes: 0,
        steady_misses: 0,
        steady_nodes: 0,
        steady_miss_rate: 0.0,
        batch_p99_median_ns: 0,
        pressure_events: 0,
        budget_errors: 0,
    };
    let mut p99s: Vec<Duration> = Vec::new();
    let mut cold = 1_000_000u64; // never overlaps the hot pool
    for round in 0..ROUNDS {
        let before: Vec<_> = masters.iter().map(|m| m.counters()).collect();
        let mut handles: Vec<JobHandle> = Vec::new();
        for target in TARGETS {
            for i in 0..HOT_JOBS_PER_TARGET {
                let base = (round as u64 + i as u64) % HOT_POOL;
                let forest = job_forest(base, (base + 1) % HOT_POOL, (base + 2) % HOT_POOL);
                handles.push(server.try_submit(target, forest).expect("submit hot"));
            }
            for _ in 0..COLD_JOBS_PER_TARGET {
                let forest = job_forest(cold, cold + 1, cold + 2);
                handles.push(server.try_submit(target, forest).expect("submit cold"));
                cold += 3;
            }
        }
        let mut latencies = Vec::with_capacity(handles.len());
        for handle in handles {
            let done = handle.wait();
            match &done.outcome {
                Ok(_) => {}
                Err(JobError::Label(LabelError::StateBudgetExceeded { .. })) => {
                    result.budget_errors += 1;
                }
                Err(e) => panic!("bench traffic must label: {e}"),
            }
            latencies.push(done.latency);
        }
        // Table bytes after the round's maintenance quanta: the budget
        // is enforced between jobs, so this is the post-enforcement size.
        server.wait_idle();
        let steady = round >= ROUNDS / 2;
        for (master, before) in masters.iter().zip(&before) {
            let delta = master.counters().since(before);
            result.peak_bytes = result.peak_bytes.max(master.accounted_bytes().total());
            if delta.compactions + delta.flushes > 0 {
                result.pressure_events += 1;
            }
            if steady {
                result.steady_misses += delta.memo_misses;
                result.steady_nodes += delta.nodes;
            }
        }
        if steady {
            p99s.push(Histogram::from_durations(&latencies).quantile_duration(0.99));
        }
    }
    result.steady_miss_rate = result.steady_misses as f64 / result.steady_nodes.max(1) as f64;
    // Median through the shared histogram-backed quantile helper.
    result.batch_p99_median_ns = odburg_bench::quantile(&p99s, 0.5).as_nanos();
    result
}

fn main() {
    let jobs_per_round = TARGETS.len() * (HOT_JOBS_PER_TARGET + COLD_JOBS_PER_TARGET);
    println!(
        "Table pressure: {ROUNDS} rounds x {jobs_per_round} jobs over {} targets, \
         {BYTE_BUDGET}-byte budget per target\n",
        TARGETS.len()
    );

    let compact = run_mode(
        "compact",
        PressureAction::Compact {
            retain_fraction: RETAIN_FRACTION,
        },
    );
    let flush = run_mode("flush", PressureAction::Flush);

    let widths = [9, 11, 12, 12, 10, 10, 8];
    row(
        &[
            "mode",
            "peak.bytes",
            "miss.rate",
            "misses",
            "p99med.us",
            "pressure",
            "errors",
        ]
        .map(String::from),
        &widths,
    );
    rule_line(&widths);
    for r in [&compact, &flush] {
        row(
            &[
                r.mode.to_owned(),
                r.peak_bytes.to_string(),
                f(r.steady_miss_rate, 4),
                r.steady_misses.to_string(),
                f(r.batch_p99_median_ns as f64 / 1e3, 1),
                r.pressure_events.to_string(),
                r.budget_errors.to_string(),
            ],
            &widths,
        );
    }
    let ratio = flush.steady_miss_rate / compact.steady_miss_rate.max(f64::MIN_POSITIVE);
    println!(
        "\ncompact holds {:.1} KiB peak (budget {:.1} KiB) at a {:.2}x lower steady-state \
         miss rate than flush",
        compact.peak_bytes as f64 / 1024.0,
        BYTE_BUDGET as f64 / 1024.0,
        ratio,
    );

    let mut json = String::from("{\n  \"bench\": \"table_pressure\",\n");
    let _ = writeln!(json, "  \"byte_budget\": {BYTE_BUDGET},");
    let _ = writeln!(json, "  \"retain_fraction\": {RETAIN_FRACTION},");
    let _ = writeln!(json, "  \"rounds\": {ROUNDS},");
    let _ = writeln!(json, "  \"targets\": {},", TARGETS.len());
    let _ = writeln!(json, "  \"jobs_per_round\": {jobs_per_round},");
    let _ = writeln!(json, "  \"miss_rate_ratio\": {ratio:.4},");
    json.push_str("  \"modes\": [\n");
    for (i, r) in [&compact, &flush].into_iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{}\", \"peak_bytes\": {}, \"steady_miss_rate\": {:.6}, \
             \"steady_misses\": {}, \"steady_nodes\": {}, \"batch_p99_median_ns\": {}, \
             \"pressure_events\": {}, \"budget_errors\": {}}}{}",
            r.mode,
            r.peak_bytes,
            r.steady_miss_rate,
            r.steady_misses,
            r.steady_nodes,
            r.batch_p99_median_ns,
            r.pressure_events,
            r.budget_errors,
            if i == 0 { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    let path = std::path::Path::new("target/table_pressure.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }

    // The three claims this bench exists for.
    for r in [&compact, &flush] {
        assert!(
            r.peak_bytes <= BYTE_BUDGET,
            "{}: peak {} bytes exceeds the {BYTE_BUDGET}-byte budget",
            r.mode,
            r.peak_bytes
        );
        assert_eq!(
            r.budget_errors, 0,
            "{}: governed runs must finish without budget-policy errors",
            r.mode
        );
        assert!(
            r.pressure_events > 0,
            "{}: the churn must actually trip the budget",
            r.mode
        );
    }
    assert!(
        ratio >= 1.3,
        "compact must beat flush by >= 1.3x on steady-state miss rate, got {ratio:.2}x \
         (compact {:.4} vs flush {:.4})",
        compact.steady_miss_rate,
        flush.steady_miss_rate
    );
}
