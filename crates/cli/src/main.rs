//! The `odburg` command-line tool.
//!
//! ```text
//! odburg stats   <grammar>             grammar statistics and lints
//! odburg lint    <grammar>             run the grammar verifier: typed
//!                                      diagnostics (G0001...), witness trees,
//!                                      --format=text|json, --deny=warning|error
//! odburg normal  <grammar>             print the normal form
//! odburg automaton <grammar>           build the offline automaton, print sizes
//! odburg generate  <grammar>           emit a hard-coded Rust labeler (burg style)
//! odburg label   <grammar> <sexpr>     label one tree, print states and rules
//! odburg emit    <grammar> <sexpr>     select and print instructions
//! odburg compile <grammar> <file.mc>   compile a MiniC file and print assembly
//! odburg bench   <grammar>             quick cross-strategy comparison
//! odburg tables export <grammar> <out> warm an automaton, persist its tables
//!                                      (--compact-to=<n[k|m|g]> ships only the
//!                                      hot core)
//! odburg tables import <grammar> <in>  validate persisted tables, print sizes
//! odburg tables stats  <file.odbt>     per-component size breakdown of a
//!                                      persisted table file (no grammar needed)
//! odburg batch   <manifest|->          run a multi-target job manifest through
//!                                      an uncapped SelectorServer, one report
//! odburg serve   <manifest|->          stream a manifest (or stdin) through a
//!                                      long-running SelectorServer with a
//!                                      bounded queue, deadlines, backpressure
//! odburg cluster serve <manifest|->    run a manifest through an N-shard
//!                                      ShardCluster (--shards=<n>); after the
//!                                      drain, --listen=<addr> ships every
//!                                      target's tables to one joining process
//!                                      and --join=<addr> warm-starts from a
//!                                      listener before serving
//! ```
//!
//! `<grammar>` is a built-in target name (demo, x86ish, riscish, sparcish,
//! alphaish, jvmish) or a path to a `.burg` file (dynamic costs in files are
//! declared but unbound, i.e. never applicable).
//!
//! `label`, `emit`, `compile` and `bench` accept `--labeler=<name>`
//! (ondemand, shared, offline, dp, macro); every
//! strategy is constructed and driven through the unified
//! [`Labeler`](odburg_core::Labeler) trait via
//! [`odburg::strategy::AnyLabeler`]. They also accept `--tables=<path>`
//! to warm-start an on-demand strategy from tables persisted by
//! `tables export` — a mismatched or corrupted file is rejected with an
//! error, never silently mislabeled.
//!
//! `batch`, `serve` and `cluster serve` share one code path over one
//! manifest format: lines of `<target> <sexpr-file>` (or stdin, with
//! `-`), read **incrementally**; a target beyond the built-ins names a
//! `.burg` file and registers on first sight, and each file's
//! s-expressions form one job. All three print the same per-job lines
//! and close with the same telemetry epilogue (conservation re-checked
//! from the metrics registries alone and against the client's own tally
//! of submit results, then `--metrics-out`/`--trace-out`).
//!
//! `batch` submits every job to a
//! [`SelectorServer`](odburg::service::SelectorServer) with an
//! **uncapped** queue — everything accepted — waits on every job in
//! submission order, then shuts the server down (re-exporting tables
//! into `--tables-dir`) and prints a single report. A job that fails,
//! panicking labelers included, is reported `FAILED` and fails the run.
//!
//! `serve` is the streaming sibling: it feeds each job to a
//! long-running server with a
//! **bounded** queue (`--queue-cap=<n>`, default 256) and per-job
//! deadlines (`--deadline-ms=<n>`). A full queue *rejects* the job —
//! backpressure is reported, never silently dropped — and a job whose
//! deadline passes while queued completes as deadline-missed instead of
//! being labeled. The queue pops earliest deadline first; `--shed`
//! additionally sheds submissions whose deadline the queue already
//! blows, reported as `shed`, and `--fair` round-robins the queue
//! across targets so one hot target cannot starve the rest. Completed
//! jobs print as they finish, a stats line appears every 16
//! submissions, and EOF triggers a graceful shutdown (which re-exports
//! per-target tables into `--tables-dir`, so heat survives restarts).
//! `--queue-cap`/`--deadline-ms`/`--shed`/`--fair` apply to `serve`
//! and `cluster serve`, not to `batch`; all three take
//! `--workers=<n>` and `--tables-dir=<dir>`, and all three
//! reject the per-grammar `--tables=<path>` flag and non-`shared`
//! `--labeler` values — the service always labels through the shared
//! snapshot core.
//!
//! `lint` runs the grammar verifier
//! ([`odburg::grammar::analysis::analyze_full`]) and prints every
//! finding with its stable code (`G0001`…`G0008`) and severity, witness
//! trees as s-expressions, and — when the verifier's automaton closure
//! converges — the state bound: the number of states of the automaton
//! the grammar's fixed-cost rules build, per operator. `--format=json`
//! emits a machine-readable report (used by the CI `analysis-smoke`
//! job); `--deny=<severity>` picks the exit-code threshold: the default
//! `--deny=error` fails only on error-severity findings, while
//! `--deny=warning` also fails on warnings. The service subcommands
//! always register manifest grammars under the `Deny` policy: a grammar
//! with error-severity findings is rejected with one stderr line per
//! diagnostic instead of failing jobs with `NoCover` at runtime.
//!
//! `cluster serve` drives the same manifest format through an in-process
//! [`ShardCluster`](odburg::cluster::ShardCluster): `--shards=<n>`
//! (default 3) shards behind consistent-hash routing with one writer
//! lease per target. After the manifest drains, the writer's tables are
//! shipped to every replica; `--listen=<addr>` then serves one joining
//! process a shipment per target over the framed TCP transport, while
//! `--join=<addr>` connects to such a listener first and installs every
//! received shipment before serving — so the joining run's warm traffic
//! labels entirely from shipped tables (the final report prints the
//! grow-path counters to prove it). Conservation is re-checked from the
//! telemetry registries alone at shutdown, and `--trace-out` renders
//! every shard as its own Chrome-trace process with shipment spans.
//!
//! Memory governance: `--memory-budget=<bytes>` (suffixes `k`, `m`, `g`
//! accepted) caps an on-demand automaton's accounted table bytes and
//! `--budget-policy=<flush|compact>` picks the pressure response
//! (default `compact`: evict cold states, keep the hot working set); the
//! policy needs a budget. Together they name one
//! [`MemoryBudget`](odburg_core::MemoryBudget). On `label`, `emit` and
//! `compile` it bounds the labeler's automaton
//! ([`OnDemandConfig::memory_budget`](odburg_core::OnDemandConfig)), also
//! one warm-started with `--tables`; on `batch`, `serve` and `cluster
//! serve` it is the server's budget, enforced per target in the
//! maintenance quanta the workers run between jobs — never on the
//! submit path.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use odburg::grammar::analysis;
use odburg::prelude::*;
use odburg::strategy::{self, AnyLabeler, AnyLabeling, Strategy};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("odburg: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str =
    "usage: odburg <stats|lint|normal|automaton|generate|label|emit|compile|bench|tables|batch|serve|cluster> \
     <grammar|manifest> [input] [--labeler=<name>] [--tables=<path>] \
     [--workers=<n>] [--tables-dir=<dir>] [--memory-budget=<bytes>] \
     [--budget-policy=<flush|compact>] [--queue-cap=<n>] [--deadline-ms=<n>] \
     [--shed] [--fair] [--metrics-out=<path>] [--trace-out=<path>] \
     [--compact-to=<bytes>] [--format=<text|json>] [--deny=<warning|error>] \
     [--shards=<n>] [--listen=<addr>] [--join=<addr>]";

/// The `--format` flag values (lint only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum FormatFlag {
    #[default]
    Text,
    Json,
}

fn parse_format(value: &str) -> Result<FormatFlag, String> {
    match value {
        "text" => Ok(FormatFlag::Text),
        "json" => Ok(FormatFlag::Json),
        other => Err(format!(
            "unknown format `{other}` (expected one of: text, json)"
        )),
    }
}

fn parse_deny(value: &str) -> Result<Severity, String> {
    match value {
        "warning" => Ok(Severity::Warning),
        "error" => Ok(Severity::Error),
        other => Err(format!(
            "unknown deny level `{other}` (expected one of: warning, error)"
        )),
    }
}

/// The relief `--budget-policy=compact`, the default, names: keep the
/// hottest states that fit half the budget.
const COMPACT: PressureAction = PressureAction::Compact {
    retain_fraction: 0.5,
};

fn parse_policy(value: &str) -> Result<PressureAction, String> {
    match value {
        "flush" => Ok(PressureAction::Flush),
        "compact" => Ok(COMPACT),
        other => Err(format!(
            "unknown budget policy `{other}` (expected one of: flush, compact)"
        )),
    }
}

/// The one budget `--memory-budget` and `--budget-policy` name, on
/// every subcommand that takes them.
fn budget_from_flags(
    bytes: Option<usize>,
    action: Option<PressureAction>,
) -> Result<Option<MemoryBudget>, String> {
    match (bytes, action) {
        (None, None) => Ok(None),
        (None, Some(_)) => Err("--budget-policy needs --memory-budget=<bytes>".into()),
        (Some(byte_budget), action) => Ok(Some(MemoryBudget {
            byte_budget,
            action: action.unwrap_or(COMPACT),
        })),
    }
}

/// Parses a byte size with an optional `k`/`m`/`g` suffix (KiB-style
/// powers of two).
fn parse_bytes(flag: &str, value: &str) -> Result<usize, String> {
    let bad = || format!("{flag} needs a positive byte count (e.g. 512k, 4m), got `{value}`");
    let lower = value.to_ascii_lowercase();
    let (digits, shift) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(d) => (
            d,
            match lower.as_bytes()[lower.len() - 1] {
                b'k' => 10,
                b'm' => 20,
                _ => 30,
            },
        ),
        None => (lower.as_str(), 0),
    };
    match digits.parse::<usize>() {
        // checked_mul (not checked_shl: that discards shifted-out high
        // bits) so absurd sizes error instead of wrapping to tiny ones.
        Ok(n) if n >= 1 => n.checked_mul(1usize << shift).ok_or_else(bad),
        _ => Err(bad()),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    // Split off the flags; everything else is positional.
    let mut strategy = Strategy::OnDemand;
    let mut labeler_given = false;
    let mut tables: Option<String> = None;
    let mut tables_dir: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut memory_budget: Option<usize> = None;
    let mut budget_policy: Option<PressureAction> = None;
    let mut queue_cap: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut shed = false;
    let mut fair = false;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut compact_to: Option<usize> = None;
    let mut format: Option<FormatFlag> = None;
    let mut deny: Option<Severity> = None;
    let mut shards: Option<usize> = None;
    let mut listen: Option<String> = None;
    let mut join: Option<String> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    let parse_count = |flag: &str, value: &str| -> Result<usize, String> {
        match value.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("{flag} needs a positive integer, got `{value}`")),
        }
    };
    let parse_workers = |value: &str| parse_count("--workers", value);
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--labeler=") {
            strategy = name.parse().map_err(|e| format!("{e}"))?;
            labeler_given = true;
        } else if arg == "--labeler" {
            let name = iter.next().ok_or("--labeler needs a value")?;
            strategy = name.parse().map_err(|e| format!("{e}"))?;
            labeler_given = true;
        } else if let Some(path) = arg.strip_prefix("--tables=") {
            tables = Some(path.to_owned());
        } else if arg == "--tables" {
            let path = iter.next().ok_or("--tables needs a path")?;
            tables = Some(path.clone());
        } else if let Some(path) = arg.strip_prefix("--tables-dir=") {
            tables_dir = Some(path.to_owned());
        } else if arg == "--tables-dir" {
            let path = iter.next().ok_or("--tables-dir needs a directory")?;
            tables_dir = Some(path.clone());
        } else if let Some(value) = arg.strip_prefix("--workers=") {
            workers = Some(parse_workers(value)?);
        } else if arg == "--workers" {
            let value = iter.next().ok_or("--workers needs a count")?;
            workers = Some(parse_workers(value)?);
        } else if let Some(value) = arg.strip_prefix("--memory-budget=") {
            memory_budget = Some(parse_bytes("--memory-budget", value)?);
        } else if arg == "--memory-budget" {
            let value = iter.next().ok_or("--memory-budget needs a byte count")?;
            memory_budget = Some(parse_bytes("--memory-budget", value)?);
        } else if let Some(value) = arg.strip_prefix("--queue-cap=") {
            queue_cap = Some(parse_count("--queue-cap", value)?);
        } else if arg == "--queue-cap" {
            let value = iter.next().ok_or("--queue-cap needs a job count")?;
            queue_cap = Some(parse_count("--queue-cap", value)?);
        } else if let Some(value) = arg.strip_prefix("--deadline-ms=") {
            deadline_ms = Some(parse_count("--deadline-ms", value)? as u64);
        } else if arg == "--deadline-ms" {
            let value = iter
                .next()
                .ok_or("--deadline-ms needs a millisecond count")?;
            deadline_ms = Some(parse_count("--deadline-ms", value)? as u64);
        } else if arg == "--shed" {
            shed = true;
        } else if arg == "--fair" {
            fair = true;
        } else if let Some(path) = arg.strip_prefix("--metrics-out=") {
            metrics_out = Some(path.to_owned());
        } else if arg == "--metrics-out" {
            let path = iter.next().ok_or("--metrics-out needs a path")?;
            metrics_out = Some(path.clone());
        } else if let Some(path) = arg.strip_prefix("--trace-out=") {
            trace_out = Some(path.to_owned());
        } else if arg == "--trace-out" {
            let path = iter.next().ok_or("--trace-out needs a path")?;
            trace_out = Some(path.clone());
        } else if let Some(value) = arg.strip_prefix("--compact-to=") {
            compact_to = Some(parse_bytes("--compact-to", value)?);
        } else if arg == "--compact-to" {
            let value = iter.next().ok_or("--compact-to needs a byte count")?;
            compact_to = Some(parse_bytes("--compact-to", value)?);
        } else if let Some(value) = arg.strip_prefix("--budget-policy=") {
            budget_policy = Some(parse_policy(value)?);
        } else if arg == "--budget-policy" {
            let value = iter.next().ok_or("--budget-policy needs a value")?;
            budget_policy = Some(parse_policy(value)?);
        } else if let Some(value) = arg.strip_prefix("--format=") {
            format = Some(parse_format(value)?);
        } else if arg == "--format" {
            let value = iter.next().ok_or("--format needs a value")?;
            format = Some(parse_format(value)?);
        } else if let Some(value) = arg.strip_prefix("--deny=") {
            deny = Some(parse_deny(value)?);
        } else if arg == "--deny" {
            let value = iter.next().ok_or("--deny needs a severity")?;
            deny = Some(parse_deny(value)?);
        } else if let Some(value) = arg.strip_prefix("--shards=") {
            shards = Some(parse_count("--shards", value)?);
        } else if arg == "--shards" {
            let value = iter.next().ok_or("--shards needs a shard count")?;
            shards = Some(parse_count("--shards", value)?);
        } else if let Some(addr) = arg.strip_prefix("--listen=") {
            listen = Some(addr.to_owned());
        } else if arg == "--listen" {
            let addr = iter.next().ok_or("--listen needs an address")?;
            listen = Some(addr.clone());
        } else if let Some(addr) = arg.strip_prefix("--join=") {
            join = Some(addr.to_owned());
        } else if arg == "--join" {
            let addr = iter.next().ok_or("--join needs an address")?;
            join = Some(addr.clone());
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`\n{USAGE}"));
        } else {
            positional.push(arg);
        }
    }
    let tables = tables.as_deref();
    let budget = budget_from_flags(memory_budget, budget_policy)?;

    let command = positional.first().ok_or(USAGE)?;
    if (format.is_some() || deny.is_some()) && command.as_str() != "lint" {
        return Err("--format/--deny only apply to the lint subcommand".into());
    }
    if (shards.is_some() || listen.is_some() || join.is_some()) && command.as_str() != "cluster" {
        return Err("--shards/--listen/--join only apply to the cluster subcommand".into());
    }
    if compact_to.is_some()
        && !(command.as_str() == "tables"
            && positional.get(1).map(|a| a.as_str()) == Some("export"))
    {
        return Err(
            "--compact-to only applies to `tables export` (it bounds the \
             exported file's hot core)"
                .into(),
        );
    }
    if matches!(command.as_str(), "batch" | "serve" | "cluster") {
        if tables.is_some() {
            return Err(format!(
                "{command} warm-starts from --tables-dir=<dir> (one <target>.odbt per target), \
                 not from a single --tables file"
            ));
        }
        if labeler_given && !strategy.serves_concurrently() {
            return Err(format!(
                "the {command} service always labels through the shared snapshot core; \
                 drop `--labeler={strategy}` or pass --labeler=shared"
            ));
        }
        let flags = ServiceFlags {
            workers,
            tables_dir: tables_dir.as_deref(),
            memory_budget: budget,
            queue_cap,
            deadline_ms,
            shed,
            fair,
            metrics_out: metrics_out.as_deref(),
            trace_out: trace_out.as_deref(),
        };
        if command.as_str() == "batch" {
            if queue_cap.is_some() {
                return Err("--queue-cap only applies to `serve` (batch accepts every \
                     job and drains once; there is no queue to bound)"
                    .into());
            }
            if deadline_ms.is_some() {
                return Err("--deadline-ms only applies to `serve` (batch jobs have no \
                     deadline; they run to completion)"
                    .into());
            }
            if shed || fair {
                return Err("--shed/--fair only apply to `serve` (batch drains every \
                     job; there is no queue to schedule)"
                    .into());
            }
            if metrics_out.is_some() || trace_out.is_some() {
                return Err("--metrics-out/--trace-out only apply to `serve` (batch \
                     prints its report inline)"
                    .into());
            }
            let manifest = positional
                .get(1)
                .ok_or("batch needs a manifest file of `<target> <sexpr-file>` lines")?;
            return batch(manifest, &flags);
        }
        if command.as_str() == "cluster" {
            let action = positional
                .get(1)
                .ok_or("cluster needs an action: `cluster serve <manifest|->`")?;
            if action.as_str() != "serve" {
                return Err(format!(
                    "unknown cluster action `{action}` (expected `serve`)"
                ));
            }
            if listen.is_some() && join.is_some() {
                return Err(
                    "--listen and --join are mutually exclusive (a process either serves \
                     shipments to a joiner or joins a listener, not both)"
                        .into(),
                );
            }
            let manifest = positional.get(2).ok_or(
                "cluster serve needs a manifest of `<target> <sexpr-file>` lines (or `-` for stdin)",
            )?;
            return cluster_serve(
                manifest,
                shards.unwrap_or(3),
                listen.as_deref(),
                join.as_deref(),
                &flags,
            );
        }
        let manifest = positional
            .get(1)
            .ok_or("serve needs a manifest of `<target> <sexpr-file>` lines (or `-` for stdin)")?;
        return serve(manifest, &flags);
    }
    if let Some(dir) = &tables_dir {
        return Err(format!(
            "--tables-dir={dir} only applies to the batch/serve subcommand \
             (use --tables=<path> here)"
        ));
    }
    if workers.is_some() {
        return Err("--workers only applies to the batch/serve subcommand".into());
    }
    if queue_cap.is_some() || deadline_ms.is_some() {
        return Err("--queue-cap/--deadline-ms only apply to the serve subcommand".into());
    }
    if shed || fair {
        return Err("--shed/--fair only apply to the serve subcommand".into());
    }
    if metrics_out.is_some() || trace_out.is_some() {
        return Err("--metrics-out/--trace-out only apply to the serve subcommand".into());
    }
    if !matches!(command.as_str(), "label" | "emit" | "compile") && budget.is_some() {
        return Err(
            "--memory-budget/--budget-policy apply to label, emit, compile and \
             batch/serve/cluster serve"
                .into(),
        );
    }
    if command.as_str() == "tables" {
        if tables.is_some() {
            return Err(
                "the tables subcommand takes its path positionally, not via --tables".into(),
            );
        }
        return tables_command(&positional, strategy, compact_to);
    }
    let grammar_name = positional.get(1).ok_or(USAGE)?;
    let grammar = load_grammar(grammar_name)?;

    match command.as_str() {
        "stats" => stats(&grammar),
        "lint" => lint_cmd(
            &grammar,
            format.unwrap_or_default(),
            deny.unwrap_or(Severity::Error),
        ),
        "normal" => normal(&grammar),
        "automaton" => automaton(&grammar),
        "generate" => generate(&grammar),
        "label" => label(
            &grammar,
            strategy,
            tables,
            budget,
            positional.get(2).ok_or("label needs an s-expression")?,
        ),
        "emit" => emit(
            &grammar,
            strategy,
            tables,
            budget,
            positional.get(2).ok_or("emit needs an s-expression")?,
        ),
        "compile" => compile(
            &grammar,
            strategy,
            tables,
            budget,
            positional.get(2).ok_or("compile needs a MiniC file")?,
        ),
        "bench" => bench(&grammar, strategy, tables),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn load_grammar(name: &str) -> Result<Grammar, String> {
    if let Some(g) = odburg::targets::by_name(name) {
        return Ok(g);
    }
    let text =
        std::fs::read_to_string(name).map_err(|e| format!("cannot read grammar `{name}`: {e}"))?;
    parse_grammar(&text).map_err(|e| format!("{name}: {e}"))
}

/// Builds the labeler for `label`, `emit` and `compile`: warm from
/// `--tables` when given, and under `budget` when given — a mismatched
/// file is always a loud error, never a silent cold start.
fn build_labeler(
    grammar: &Grammar,
    strategy: Strategy,
    tables: Option<&str>,
    budget: Option<MemoryBudget>,
) -> Result<AnyLabeler, String> {
    if let Some(path) = tables {
        let snapshot = load_tables_for(grammar, strategy, path, budget)?;
        return AnyLabeler::build_warm(strategy, Arc::new(snapshot)).map_err(|e| format!("{e}"));
    }
    let Some(budget) = budget else {
        return AnyLabeler::build(strategy, grammar)
            .map_err(|e| format!("cannot build `{strategy}` labeler: {e}"));
    };
    let config = OnDemandConfig {
        memory_budget: Some(budget),
        ..OnDemandConfig::default()
    };
    AnyLabeler::build_with_mode(strategy, Arc::new(grammar.normalize()), config)
        .map_err(|e| format!("{e}"))
}

/// Imports persisted tables for `strategy`, validating the grammar
/// fingerprint; the tables run under `budget`.
fn load_tables_for(
    grammar: &Grammar,
    strategy: Strategy,
    path: &str,
    budget: Option<MemoryBudget>,
) -> Result<AutomatonSnapshot, String> {
    let config = strategy
        .ondemand_config()
        .ok_or_else(|| format!("--tables: {}", strategy::WarmStartUnsupported { strategy }))?;
    let config = OnDemandConfig {
        memory_budget: budget,
        ..config
    };
    odburg::select::persist::load_tables(Path::new(path), Arc::new(grammar.normalize()), config)
        .map_err(|e| format!("cannot load tables `{path}`: {e}"))
}

/// `odburg tables export <grammar> <out>` / `odburg tables import
/// <grammar> <in>` / `odburg tables stats <file>`.
fn tables_command(
    positional: &[&String],
    strategy: Strategy,
    compact_to: Option<usize>,
) -> Result<(), String> {
    const TABLES_USAGE: &str = "usage: odburg tables <export|import> <grammar> <path> \
                                [--labeler=<name>] [--compact-to=<bytes>] | \
                                odburg tables stats <file.odbt>";
    let action = positional.get(1).ok_or(TABLES_USAGE)?;
    if action.as_str() == "stats" {
        let path = positional.get(2).ok_or(TABLES_USAGE)?;
        return tables_stats(path);
    }
    let grammar = load_grammar(positional.get(2).ok_or(TABLES_USAGE)?)?;
    let path = positional.get(3).ok_or(TABLES_USAGE)?;
    let config = strategy
        .ondemand_config()
        .ok_or_else(|| format!("{}", strategy::WarmStartUnsupported { strategy }))?;

    match action.as_str() {
        "export" => {
            let normal = Arc::new(grammar.normalize());
            let mut auto = OnDemandAutomaton::with_config(Arc::clone(&normal), config);
            // Warm on the MiniC suite when the grammar covers it,
            // otherwise on trees sampled from the grammar itself.
            let suite = odburg::workloads::combined_workload();
            let workload = if auto.label_forest(&suite.forest).is_ok() {
                suite
            } else {
                odburg::workloads::random_workload(&normal, 0xD0, 256)
            };
            auto.label_forest(&workload.forest)
                .map_err(|e| format!("cannot warm the automaton on `{}`: {e}", workload.name))?;
            // Governed persistence: ship only the hot core. The same
            // heat-guided compaction pass the memory governor runs
            // rebuilds the tables down to the requested byte target
            // before they are written.
            if let Some(target_bytes) = compact_to {
                let stats = auto.compact(target_bytes, &[]);
                println!(
                    "compacted to {} bytes (target {target_bytes}): kept {} states, \
                     evicted {} states and {} transitions",
                    stats.bytes_after,
                    stats.retained_states,
                    stats.evicted_states,
                    stats.evicted_transitions,
                );
            }
            let snapshot = auto.snapshot();
            odburg::select::persist::save_tables(&snapshot, Path::new(path))
                .map_err(|e| format!("cannot write tables `{path}`: {e}"))?;
            let s = snapshot.stats();
            println!(
                "exported {}: {} states, {} transitions, {} signatures (warmed on {}, {} nodes)",
                path,
                s.states,
                s.transitions,
                s.signatures,
                workload.name,
                workload.forest.len(),
            );
            Ok(())
        }
        "import" => {
            let snapshot = load_tables_for(&grammar, strategy, path, None)?;
            let s = snapshot.stats();
            println!(
                "imported {}: epoch {}, {} states, {} transitions, {} signatures",
                path, s.epoch, s.states, s.transitions, s.signatures,
            );
            Ok(())
        }
        other => Err(format!("unknown tables action `{other}`\n{TABLES_USAGE}")),
    }
}

/// `odburg tables stats <file>`: a per-component breakdown of a
/// persisted table file via the persist layer — no grammar needed, but
/// the header, checksum and structure are fully verified.
fn tables_stats(path: &str) -> Result<(), String> {
    let info = odburg::select::persist::inspect_tables(Path::new(path))
        .map_err(|e| format!("cannot inspect tables `{path}`: {e}"))?;
    println!("tables:              {path}");
    println!("grammar fingerprint: {:#018x}", info.fingerprint);
    println!("epoch:               {}", info.epoch);
    println!("nonterminals:        {}", info.num_nts);
    println!(
        "states:              {:>8}  ({} bytes)",
        info.states, info.bytes.states
    );
    println!(
        "projections:         {:>8}  ({} bytes)",
        info.projections, info.bytes.projections
    );
    println!(
        "transitions:         {:>8}  ({} bytes)",
        info.transitions, info.bytes.transitions
    );
    println!(
        "projection cache:    {:>8}  ({} bytes)",
        info.cached_projections, info.bytes.projection_cache
    );
    println!(
        "signatures:          {:>8}  ({} bytes)",
        info.signatures, info.bytes.signatures
    );
    println!(
        "accounted bytes:     {:>8}  (file payload {} bytes)",
        info.bytes.total(),
        info.payload_bytes
    );
    Ok(())
}

/// The flags `batch`, `serve` and `cluster serve` share, validated by
/// [`run`].
struct ServiceFlags<'a> {
    workers: Option<usize>,
    tables_dir: Option<&'a str>,
    memory_budget: Option<MemoryBudget>,
    queue_cap: Option<usize>,
    deadline_ms: Option<u64>,
    shed: bool,
    fair: bool,
    metrics_out: Option<&'a str>,
    trace_out: Option<&'a str>,
}

impl ServiceFlags<'_> {
    /// The one place a [`ServerConfig`] is made: for the `serve`
    /// server, every `cluster serve` shard, and (with an uncapped
    /// queue) `batch`.
    fn server_config(&self) -> ServerConfig {
        ServerConfig {
            workers: self.workers.unwrap_or(0),
            queue_cap: self.queue_cap.unwrap_or(0),
            shed_infeasible: self.shed,
            fair: self.fair.then(FairConfig::default),
            tables_dir: self.tables_dir.map(Into::into),
            memory_budget: self.memory_budget,
            analysis_policy: AnalysisPolicy::Deny,
        }
    }

    fn job_options(&self) -> JobOptions {
        JobOptions {
            deadline: self.deadline_ms.map(Duration::from_millis),
            ..JobOptions::default()
        }
    }
}

/// What a manifest registers the targets it names beyond the built-ins
/// with: one server, or every shard of a cluster.
trait Registry {
    fn has_target(&self, target: &str) -> bool;
    fn register_target(
        &self,
        target: &str,
        grammar: Arc<NormalGrammar>,
    ) -> Result<(), ServiceError>;
}

impl Registry for SelectorServer {
    fn has_target(&self, target: &str) -> bool {
        self.grammar(target).is_ok()
    }

    fn register_target(
        &self,
        target: &str,
        grammar: Arc<NormalGrammar>,
    ) -> Result<(), ServiceError> {
        self.register_normal(target, grammar)
    }
}

impl Registry for ShardCluster {
    fn has_target(&self, target: &str) -> bool {
        self.writer(target).is_some()
    }

    fn register_target(
        &self,
        target: &str,
        grammar: Arc<NormalGrammar>,
    ) -> Result<(), ServiceError> {
        self.register_normal(target, grammar).map(drop)
    }
}

/// One manifest line: `at` is its `manifest:line` for errors.
struct ManifestJob<'a> {
    at: String,
    target: &'a str,
    file: &'a str,
}

/// The one manifest reader of the service subcommands. Reads
/// `manifest` (`-` is stdin) incrementally: each line is
/// `<target> <sexpr-file>` (blank lines and `#` comments are skipped),
/// a target beyond the built-ins registers on first sight (it names a
/// `.burg` file), and the file's s-expressions (one per line, `#`
/// comments allowed) form one forest — one job, handed to `submit`
/// with its line. Every error carries `manifest:line`; a manifest
/// without jobs is an error too.
fn read_manifest(
    manifest: &str,
    registry: &dyn Registry,
    mut submit: impl FnMut(&ManifestJob<'_>, Forest) -> Result<(), String>,
) -> Result<(), String> {
    let stdin = std::io::stdin();
    let reader: Box<dyn BufRead> = if manifest == "-" {
        Box::new(stdin.lock())
    } else {
        let file =
            File::open(manifest).map_err(|e| format!("cannot read manifest `{manifest}`: {e}"))?;
        Box::new(BufReader::new(file))
    };
    let mut jobs = 0usize;
    for (idx, raw) in reader.lines().enumerate() {
        let raw = raw.map_err(|e| format!("cannot read manifest `{manifest}`: {e}"))?;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = format!("{manifest}:{}", idx + 1);
        let (target, file) = line
            .split_once(char::is_whitespace)
            .map(|(t, f)| (t, f.trim()))
            .filter(|(t, f)| !t.is_empty() && !f.is_empty())
            .ok_or_else(|| format!("{at}: expected `<target> <sexpr-file>`, got `{line}`"))?;

        // Targets beyond the built-ins register on first sight — the
        // runtime-registration path, driven from a manifest.
        if !registry.has_target(target) {
            let grammar = load_grammar(target).map_err(|e| format!("{at}: {e}"))?;
            registry
                .register_target(target, Arc::new(grammar.normalize()))
                .map_err(|e| registration_error(&at, e))?;
        }

        let trees = std::fs::read_to_string(file)
            .map_err(|e| format!("{at}: cannot read `{file}`: {e}"))?;
        let mut forest = Forest::new();
        for line in trees.lines() {
            let tree = line.trim();
            if tree.is_empty() || tree.starts_with('#') {
                continue;
            }
            // Offsets count from the line's start, indentation included.
            let indent = line.len() - line.trim_start().len();
            let root = parse_sexpr(&mut forest, tree).map_err(|mut e| {
                e.offset += indent;
                format!("{at}: {file}: bad tree: {e}")
            })?;
            forest.add_root(root);
        }
        if forest.is_empty() {
            return Err(format!("{at}: {file}: no trees"));
        }
        submit(&ManifestJob { at, target, file }, forest)?;
        jobs += 1;
    }
    if jobs == 0 {
        return Err(format!("manifest `{manifest}` contains no jobs"));
    }
    Ok(())
}

/// Formats a manifest registration failure. When the grammar was rejected
/// by the static verifier, first prints one stderr line per diagnostic so
/// the offending findings are visible, not just the count.
fn registration_error(at: &str, e: ServiceError) -> String {
    if let ServiceError::Analysis {
        target,
        diagnostics,
    } = &e
    {
        for d in diagnostics {
            eprintln!("odburg: {at}: target `{target}`: {d}");
        }
    }
    format!("{at}: {e}")
}

/// An accepted job whose outcome is not printed yet.
struct Pending {
    handle: JobHandle,
    file: String,
    /// The shard that took the job (`cluster serve` only).
    shard: Option<usize>,
}

/// A service run's jobs: the accounting the one outcome printer feeds,
/// and the accepted jobs not printed yet, in submission order.
#[derive(Default)]
struct Jobs {
    submitted: u64,
    completed: u64,
    failed: u64,
    rejected: u64,
    shed: u64,
    missed: u64,
    first_failure: Option<String>,
    pending: Vec<Pending>,
}

impl Jobs {
    /// Submits a manifest job to `server` (`batch` and `serve`).
    fn submit_to(
        &mut self,
        server: &SelectorServer,
        job: &ManifestJob<'_>,
        forest: Forest,
        options: JobOptions,
    ) -> Result<(), String> {
        let outcome = server.try_submit_with(job.target, forest, options);
        self.tally_submit(job, outcome.map_err(|e| (None, e)).map(|h| (h, None)))
    }

    /// Tallies one submission: an accepted job waits to be printed,
    /// backpressure and shedding are printed and counted, and any
    /// other refusal ends the run. `shard` is the shard that took or
    /// refused the job (`cluster serve` only).
    fn tally_submit(
        &mut self,
        job: &ManifestJob<'_>,
        outcome: Result<(JobHandle, Option<usize>), (Option<usize>, SubmitError)>,
    ) -> Result<(), String> {
        self.submitted += 1;
        let (target, file) = (job.target, job.file);
        let (shard, error) = match outcome {
            Ok((handle, shard)) => {
                self.pending.push(Pending {
                    handle,
                    file: file.to_owned(),
                    shard,
                });
                return Ok(());
            }
            Err(refused) => refused,
        };
        let by = shard.map_or_else(String::new, |s| format!("shard {s} "));
        match error {
            SubmitError::QueueFull { capacity } => {
                self.rejected += 1;
                println!("-- {target} {file}: {by}rejected (queue full at {capacity})");
            }
            SubmitError::Infeasible {
                estimated_wait,
                deadline,
            } => {
                self.shed += 1;
                println!(
                    "-- {target} {file}: {by}shed (estimated wait {estimated_wait:?} \
                     exceeds the {deadline:?} deadline)"
                );
            }
            error => {
                return Err(match shard {
                    Some(s) => format!("{}: shard {s} refused the job: {error}", job.at),
                    None => format!("{}: {error}", job.at),
                })
            }
        }
        Ok(())
    }

    /// The one job-outcome printer: prints a finished job and tallies
    /// it. Reduction runs on this thread, so `telemetry` (the server
    /// that labeled the job) has its reduce histogram fed here rather
    /// than in the worker pop path.
    fn record(
        &mut self,
        done: &CompletedJob,
        file: &str,
        shard: Option<usize>,
        telemetry: Option<&Telemetry>,
    ) {
        let reduce_start = Instant::now();
        let reduced = done.reduce();
        if let Some(telemetry) = telemetry {
            telemetry
                .target(&done.target)
                .reduce
                .record_duration(reduce_start.elapsed());
        }
        let on_shard = shard.map_or_else(String::new, |s| format!(" [shard {s}]"));
        let job = format!("{} {} {file}{on_shard}", done.ticket, done.target);
        match reduced {
            Ok(red) => {
                self.completed += 1;
                println!(
                    "{job}: {} nodes, {} instructions, cost {}",
                    done.forest.len(),
                    red.len(),
                    red.total_cost
                );
            }
            Err(ServeError::Job(JobError::DeadlineExceeded { missed_by })) => {
                self.missed += 1;
                println!("{job}: DEADLINE MISSED by {missed_by:?}");
            }
            Err(e) => {
                self.completed += 1;
                self.failed += 1;
                println!("{job}: FAILED: {e}");
                self.first_failure.get_or_insert_with(|| {
                    format!("job {} ({}, {file}): {e}", done.ticket, done.target)
                });
            }
        }
    }

    /// Prints every pending job that has finished, without blocking.
    fn reap(&mut self, telemetry: Option<&Telemetry>) {
        let mut waiting = Vec::with_capacity(self.pending.len());
        for mut p in std::mem::take(&mut self.pending) {
            match p.handle.try_wait() {
                Some(done) => self.record(&done, &p.file, p.shard, telemetry),
                None => waiting.push(p),
            }
        }
        self.pending = waiting;
    }

    /// Waits on every pending job in submission order, printing each.
    fn wait_all(&mut self, telemetry: Option<&Telemetry>) -> Vec<CompletedJob> {
        std::mem::take(&mut self.pending)
            .into_iter()
            .map(|p| {
                let done = p.handle.wait();
                self.record(&done, &p.file, p.shard, telemetry);
                done
            })
            .collect()
    }

    /// `submitted N, completed N, failed N, rejected N, shed N,
    /// deadline-missed N`: the accounting that closes every run.
    fn summary(&self) -> String {
        format!(
            "submitted {}, completed {}, failed {}, rejected {}, shed {}, deadline-missed {}",
            self.submitted, self.completed, self.failed, self.rejected, self.shed, self.missed
        )
    }

    /// The run's exit status: any failed job fails it.
    fn status(&self) -> Result<(), String> {
        match &self.first_failure {
            Some(first) => Err(format!("{} jobs failed; first: {first}", self.failed)),
            None => Ok(()),
        }
    }
}

/// Prints a shutdown's table re-exports into `--tables-dir`.
fn print_exports(report: &ServerReport) {
    for name in &report.exported_tables {
        println!("exported tables: {name}");
    }
    for (name, error) in &report.export_errors {
        eprintln!("odburg: cannot export tables for `{name}`: {error}");
    }
}

/// The one telemetry epilogue. Conservation is recomputed purely from
/// the metrics registries of `hubs` and checked against the
/// `(submitted, rejected, shed)` the client tallied from its own
/// `try_submit` results; then `--metrics-out` gets every hub as JSONL
/// and `--trace-out` the Chrome trace `write_trace` renders.
fn telemetry_epilogue(
    flags: &ServiceFlags<'_>,
    hubs: &[Arc<Telemetry>],
    client: &Jobs,
    write_trace: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let mut totals = JobCounts::default();
    for hub in hubs {
        totals.merge(&hub.totals());
    }
    assert!(
        totals.conserved(),
        "telemetry registry must conserve jobs \
         (submitted == accepted + rejected + shed): {totals:?}"
    );
    assert_eq!(
        (totals.submitted, totals.rejected, totals.shed),
        (client.submitted, client.rejected, client.shed),
        "telemetry registry disagrees with the client's own tally"
    );
    if let Some(path) = flags.metrics_out {
        write_out("metrics", path, |out| {
            hubs.iter().try_for_each(|hub| write_jsonl(out, hub))
        })?;
    }
    if let Some(path) = flags.trace_out {
        write_out("trace", path, write_trace)?;
    }
    Ok(())
}

/// Writes one telemetry artifact to `path` and announces it on stdout.
fn write_out(
    what: &str,
    path: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let error = |e| format!("cannot write {what} `{path}`: {e}");
    let mut out = BufWriter::new(File::create(path).map_err(error)?);
    write(&mut out).and_then(|()| out.flush()).map_err(error)?;
    println!("wrote {what}: {path}");
    Ok(())
}

/// `odburg batch <manifest>`: run a multi-target job manifest through
/// a [`SelectorServer`] with an uncapped queue — every job is accepted,
/// every handle waited on in submission order — then shut it down
/// (re-exporting tables into `--tables-dir`) and print one report.
fn batch(manifest: &str, flags: &ServiceFlags<'_>) -> Result<(), String> {
    let server = SelectorServer::with_builtin_targets(ServerConfig {
        queue_cap: usize::MAX,
        ..flags.server_config()
    });
    let started = Instant::now();
    let mut jobs = Jobs::default();
    read_manifest(manifest, &server, |job, forest| {
        jobs.submit_to(&server, job, forest, JobOptions::default())
    })?;
    let results = jobs.wait_all(Some(server.telemetry()));
    let report = server.shutdown();

    // Per-target lines in first-submission order.
    let mut targets: Vec<&str> = Vec::new();
    for done in &results {
        if !targets.contains(&done.target.as_str()) {
            targets.push(&done.target);
        }
    }
    for target in targets {
        let mine = || results.iter().filter(|r| r.target == target);
        let nodes: usize = mine().map(|r| r.forest.len()).sum();
        let epochs = mine()
            .filter_map(CompletedJob::epoch)
            .fold(None, |span, e| match span {
                Some((lo, hi)) => Some((e.min(lo), e.max(hi))),
                None => Some((e, e)),
            });
        let t = report
            .per_target
            .iter()
            .find(|t| t.target == target)
            .expect("a target that ran jobs has a built master");
        println!(
            "target {target}: {} jobs, {nodes} nodes, {} misses, {} states built, epochs {}, {}, \
             {} table bytes{}",
            mine().count(),
            t.counters.memo_misses,
            t.counters.states_built,
            match epochs {
                Some((lo, hi)) => format!("{lo}..{hi}"),
                None => "-".to_owned(),
            },
            if t.warm_started { "warm" } else { "cold" },
            t.table_bytes,
            match t.pressure {
                Some(event) => format!(
                    ", {} {} -> {} bytes ({} compactions, {} flushes, {} states evicted)",
                    pressure_verb(event.action),
                    event.bytes_before,
                    event.bytes_after,
                    t.counters.compactions,
                    t.counters.flushes,
                    t.counters.states_evicted,
                ),
                None => String::new(),
            },
        );
    }
    print_exports(&report);
    let latencies: Vec<Duration> = results.iter().map(|r| r.latency).collect();
    let latency = Histogram::from_durations(&latencies);
    println!(
        "batch: {} jobs across {} workers in {:?} (p50 {:?}, p99 {:?})",
        results.len(),
        report.workers,
        started.elapsed(),
        latency.quantile_duration(0.50),
        latency.quantile_duration(0.99),
    );
    telemetry_epilogue(flags, &[Arc::clone(server.telemetry())], &jobs, |_| Ok(()))?;
    jobs.status()
}

fn pressure_verb(action: PressureAction) -> &'static str {
    match action {
        PressureAction::Flush => "flushed",
        PressureAction::Compact { .. } => "compacted",
    }
}

/// `odburg serve <manifest|->`: stream jobs through a long-running
/// [`SelectorServer`]. Each manifest job is submitted with the
/// configured deadline against the bounded queue as soon as it is
/// read, completions print as they finish, and EOF triggers a graceful
/// shutdown whose report (including the table re-exports into
/// `--tables-dir`) closes the run. A full queue rejects the job, and
/// under `--shed` a deadline the queue already blows is shed at
/// admission — both counted and printed, never silently lost. `--fair`
/// adds per-target deficit-round-robin so one hot target cannot starve
/// the rest.
///
/// Observability: the periodic stats line and the post-shutdown
/// conservation check are sourced from the server's telemetry registry
/// (not the hand-rolled loop counters), `--metrics-out=<path>` dumps
/// the registry and flight recorder as JSONL, and `--trace-out=<path>`
/// writes a Chrome trace-event file (`chrome://tracing`).
fn serve(manifest: &str, flags: &ServiceFlags<'_>) -> Result<(), String> {
    let server = SelectorServer::with_builtin_targets(flags.server_config());
    let telemetry = server.telemetry();
    let options = flags.job_options();
    let mut jobs = Jobs::default();
    read_manifest(manifest, &server, |job, forest| {
        jobs.submit_to(&server, job, forest, options)?;
        jobs.reap(Some(telemetry));
        if jobs.submitted.is_multiple_of(16) {
            // Sourced from the telemetry registry (queue depth is a
            // gauge the registry does not track, so it still comes from
            // the server); each target's shedding EWMA rides along.
            let totals = telemetry.totals();
            let mut line = format!(
                "serve: submitted={} completed={} failed={} rejected={} shed={} \
                 deadline-missed={} queue-depth={}",
                totals.submitted,
                totals.completed,
                totals.failed,
                totals.rejected,
                totals.shed,
                totals.deadline_missed,
                server.queue_depth(),
            );
            for (target, estimate, samples) in server.service_estimates() {
                let _ = write!(line, " {target}.ewma={estimate:?}/{samples}");
            }
            println!("{line}");
        }
        Ok(())
    })?;

    // EOF: finish every accepted job, then shut down gracefully.
    jobs.wait_all(Some(telemetry));
    let report = server.shutdown();
    for t in &report.per_target {
        println!(
            "target {}: {} misses, {} states built, {}, {} table bytes, \
             {} maintenance quanta, {} deadline misses, \
             {} rejected, {} shed{}{}",
            t.target,
            t.counters.memo_misses,
            t.counters.states_built,
            if t.warm_started { "warm" } else { "cold" },
            t.table_bytes,
            t.counters.maintenance_runs,
            t.jobs.deadline_missed,
            t.jobs.rejected,
            t.jobs.shed,
            match t.service_ewma {
                Some(estimate) => format!(", ewma {estimate:?} over {} samples", t.service_samples),
                None => String::new(),
            },
            match t.pressure {
                Some(event) => format!(
                    ", {} {} -> {} bytes",
                    pressure_verb(event.action),
                    event.bytes_before,
                    event.bytes_after,
                ),
                None => String::new(),
            },
        );
    }
    print_exports(&report);
    println!(
        "serve: {}, across {} workers (queue cap {}) in {:?}",
        jobs.summary(),
        report.workers,
        report.queue_cap,
        report.uptime,
    );
    debug_assert_eq!(report.completed + report.deadline_missed, report.accepted);
    debug_assert_eq!(
        report.accepted + report.rejected + report.shed,
        report.submitted
    );
    telemetry_epilogue(flags, &[Arc::clone(telemetry)], &jobs, |out| {
        write_chrome_trace(out, telemetry)
    })?;
    jobs.status()
}

/// `odburg cluster serve <manifest|->`: run a manifest through an
/// in-process N-shard [`ShardCluster`] — consistent-hash routing, one
/// writer lease per target, table shipping to replicas after the drain.
///
/// `--join=<addr>` connects to a listening peer *first* and installs
/// every shipment it sends before serving, so the manifest's warm
/// traffic labels entirely from shipped tables; the final report prints
/// the cluster-wide grow-path counters to make that visible.
/// `--listen=<addr>` is the other half: after the drain (when the
/// writers are warm), bind, accept one joining process, and send it one
/// framed shipment per registered target.
///
/// Conservation is asserted twice at shutdown: from the
/// [`ClusterReport`], and from the per-shard telemetry registries
/// against the client's own tally of submit results.
fn cluster_serve(
    manifest: &str,
    shards: usize,
    listen: Option<&str>,
    join: Option<&str>,
    flags: &ServiceFlags<'_>,
) -> Result<(), String> {
    use std::net::{TcpListener, TcpStream};

    let cluster = ShardCluster::with_builtin_targets(ClusterConfig {
        shards,
        vnodes: 64,
        server: flags.server_config(),
    });

    // Join first: every shard warm-starts from the listener's shipped
    // tables before the manifest's first job is submitted.
    if let Some(addr) = join {
        // The listener binds only after its own manifest drains, so a
        // joiner started alongside it retries for up to 30 seconds
        // instead of failing on the first connection refusal.
        let stream = {
            let mut attempt = 0u32;
            loop {
                match TcpStream::connect(addr) {
                    Ok(stream) => break stream,
                    Err(e) if attempt < 60 => {
                        if attempt == 0 {
                            println!("waiting for the listener at {addr} ({e})");
                        }
                        attempt += 1;
                        std::thread::sleep(Duration::from_millis(500));
                    }
                    Err(e) => return Err(format!("cannot join `{addr}`: {e}")),
                }
            }
        };
        let mut transport = SocketTransport::new(stream);
        let mut received = 0usize;
        while let Some(frame) = transport
            .recv()
            .map_err(|e| format!("join `{addr}`: receive failed: {e}"))?
        {
            let shipment = Shipment::decode(&frame)
                .map_err(|e| format!("join `{addr}`: bad shipment: {e}"))?;
            let mut installed = 0usize;
            for idx in 0..cluster.shard_count() {
                match cluster.deliver_shipment(idx, &shipment) {
                    Ok(_) => installed += 1,
                    Err(ShipError::Install(InstallError::Stale { .. })) => {}
                    Err(e) => {
                        return Err(format!(
                            "join `{addr}`: installing `{}` on shard {idx} failed: {e}",
                            shipment.target
                        ));
                    }
                }
            }
            println!(
                "joined: installed `{}` on {installed}/{} shards ({} bytes, writer epoch {})",
                shipment.target,
                cluster.shard_count(),
                shipment.bytes.len(),
                shipment.writer_epoch,
            );
            received += 1;
        }
        if received == 0 {
            return Err(format!("join `{addr}`: the listener sent no shipments"));
        }
    }

    let options = flags.job_options();
    let mut jobs = Jobs::default();
    read_manifest(manifest, &cluster, |job, forest| {
        let outcome = match cluster.submit_with(job.target, forest, options) {
            Ok(sub) => Ok((sub.handle, Some(sub.shard))),
            Err(ClusterSubmitError::Submit { shard, error }) => Err((Some(shard), error)),
            Err(e @ ClusterSubmitError::Route(_)) => return Err(format!("{}: {e}", job.at)),
        };
        jobs.tally_submit(job, outcome)
    })?;
    // Drain: every accepted job resolves, whichever shard took it.
    jobs.wait_all(None);

    // Replicate the warm writers' tables to every replica.
    for (target, result) in cluster.ship_all() {
        match result {
            Ok(r) => println!(
                "shipped {target}: snapshot epoch {}, {} bytes, installed on {:?}, \
                 already current on {:?}",
                r.snapshot_epoch, r.bytes, r.installed, r.already_current,
            ),
            Err(e) => eprintln!("odburg: cannot ship `{target}`: {e}"),
        }
    }

    // Listen last: the joining process receives tables the manifest has
    // already warmed.
    if let Some(addr) = listen {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("cannot listen on `{addr}`: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve the listening address: {e}"))?;
        println!("listening on {local}; waiting for one joining process");
        let (stream, peer) = listener
            .accept()
            .map_err(|e| format!("accept on `{addr}` failed: {e}"))?;
        let mut transport = SocketTransport::new(stream);
        for target in cluster.targets() {
            let shipment = cluster
                .prepare_shipment(&target)
                .map_err(|e| format!("cannot prepare a shipment for `{target}`: {e}"))?;
            let bytes = shipment.bytes.len();
            transport
                .send(&shipment.encode())
                .map_err(|e| format!("shipping `{target}` to {peer} failed: {e}"))?;
            println!("shipped {target} to {peer} ({bytes} bytes)");
        }
    }

    let report = cluster.shutdown();
    for s in &report.per_shard {
        println!(
            "shard {}{}: submitted {}, accepted {}, completed {}, failed {}, \
             deadline-missed {}, rejected {}, shed {}",
            s.shard,
            if s.killed { " (killed)" } else { "" },
            s.report.submitted,
            s.report.accepted,
            s.report.completed,
            s.report.failed,
            s.report.deadline_missed,
            s.report.rejected,
            s.report.shed,
        );
    }
    if join.is_some() {
        // The joining run's proof of warm start: everything the peer had
        // already labeled must land in shipped tables, not the grow path.
        let mut states_built = 0u64;
        let mut memo_misses = 0u64;
        for s in &report.per_shard {
            let counters = s.report.counters();
            states_built += counters.states_built;
            memo_misses += counters.memo_misses;
        }
        println!(
            "warm start: {states_built} states built, {memo_misses} memo misses across shards"
        );
    }
    println!(
        "cluster: {shards} shards, {}; {} shipments, {} ship rejects, {} reroutes, \
         {} writer elections",
        jobs.summary(),
        report.shipments,
        report.ship_rejects,
        report.reroutes,
        report.writer_elections,
    );
    assert!(
        report.conserved(),
        "cluster report must conserve jobs: {report:?}"
    );
    // The control-plane hub leads the JSONL; it records shipments and
    // elections, never job outcomes, so the conservation sums are the
    // shards' alone.
    let mut hubs = vec![Arc::clone(cluster.telemetry())];
    hubs.extend(cluster.shard_telemetries().into_iter().map(|(_, t)| t));
    telemetry_epilogue(flags, &hubs, &jobs, |out| cluster.write_chrome_trace(out))?;
    jobs.status()
}

fn stats(grammar: &Grammar) -> Result<(), String> {
    let s = grammar.stats();
    println!("grammar:        {}", s.name);
    println!("rules:          {}", s.rules);
    println!("chain rules:    {}", s.chain_rules);
    println!("dynamic rules:  {}", s.dynamic_rules);
    println!("operators:      {}", s.operators);
    println!("nonterminals:   {}", s.nonterminals);
    println!("normal rules:   {}", s.normal_rules);
    println!("normal nts:     {}", s.normal_nonterminals);
    let full = analysis::analyze_full(&grammar.normalize());
    if full.diagnostics.is_empty() {
        println!("lint:           clean");
    }
    for d in &full.diagnostics {
        println!("lint:           {d}");
    }
    if let Some(bound) = &full.state_bound {
        println!(
            "state bound:    {} automaton states (fixed-cost rules)",
            bound.states
        );
    }
    Ok(())
}

fn lint_cmd(grammar: &Grammar, format: FormatFlag, deny: Severity) -> Result<(), String> {
    let name = grammar.name().to_owned();
    let normal = grammar.normalize();
    let full = analysis::analyze_full(&normal);
    match format {
        FormatFlag::Text => print_lint_text(&name, &full),
        FormatFlag::Json => print_lint_json(&name, &normal, &full),
    }
    let denied = full
        .diagnostics
        .iter()
        .filter(|d| d.severity >= deny)
        .count();
    if denied > 0 {
        Err(format!(
            "{name}: {denied} finding(s) at {deny} severity or above (--deny={deny})"
        ))
    } else {
        Ok(())
    }
}

fn print_lint_text(name: &str, full: &analysis::Analysis) {
    if full.diagnostics.is_empty() {
        println!("{name}: clean");
    }
    for d in &full.diagnostics {
        println!("{name}: {d}");
        match &d.witness {
            Some(analysis::Witness::NoCover { forest, root }) => {
                println!("  witness: {}", to_sexpr(forest, *root));
            }
            Some(analysis::Witness::Divergence {
                forest,
                roots,
                deltas,
                ..
            }) => {
                println!(
                    "  witness: delta {} on {}",
                    deltas.0,
                    to_sexpr(forest, roots.0)
                );
                println!(
                    "  witness: delta {} on {}",
                    deltas.1,
                    to_sexpr(forest, roots.1)
                );
            }
            None => {}
        }
    }
    match &full.state_bound {
        Some(b) => {
            let per_op: Vec<String> = b.per_op.iter().map(|(op, n)| format!("{op}:{n}")).collect();
            println!("{name}: state bound {} ({})", b.states, per_op.join(", "));
        }
        None => println!("{name}: no state bound (exploration did not converge)"),
    }
}

/// Minimal JSON string escaping (the report uses no nested user text
/// beyond messages, names and s-exprs).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn print_lint_json(name: &str, normal: &NormalGrammar, full: &analysis::Analysis) {
    let count = |s: Severity| full.diagnostics.iter().filter(|d| d.severity == s).count();
    let quote_nt = |n: &odburg::grammar::NtId| format!("\"{}\"", json_escape(normal.nt_name(*n)));
    let mut findings = Vec::new();
    for d in &full.diagnostics {
        let nts: Vec<String> = d.nonterminals.iter().map(&quote_nt).collect();
        let rules: Vec<String> = d.rules.iter().map(|r| r.0.to_string()).collect();
        let ops: Vec<String> = d
            .operators
            .iter()
            .map(|op| format!("\"{}\"", json_escape(&op.to_string())))
            .collect();
        let cycle: Vec<String> = d.cycle.iter().map(&quote_nt).collect();
        let witness = match &d.witness {
            Some(analysis::Witness::NoCover { forest, root }) => format!(
                "{{\"kind\":\"no_cover\",\"tree\":\"{}\"}}",
                json_escape(&to_sexpr(forest, *root))
            ),
            Some(analysis::Witness::Divergence {
                forest,
                roots,
                nonterminals,
                deltas,
            }) => format!(
                "{{\"kind\":\"divergence\",\"nonterminals\":[\"{}\",\"{}\"],\
                 \"trees\":[{{\"delta\":{},\"tree\":\"{}\"}},{{\"delta\":{},\"tree\":\"{}\"}}]}}",
                json_escape(normal.nt_name(nonterminals.0)),
                json_escape(normal.nt_name(nonterminals.1)),
                deltas.0,
                json_escape(&to_sexpr(forest, roots.0)),
                deltas.1,
                json_escape(&to_sexpr(forest, roots.1))
            ),
            None => "null".to_owned(),
        };
        findings.push(format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\
             \"nonterminals\":[{}],\"rules\":[{}],\"operators\":[{}],\
             \"cycle\":[{}],\"witness\":{}}}",
            d.code,
            d.severity,
            json_escape(&d.message),
            nts.join(","),
            rules.join(","),
            ops.join(","),
            cycle.join(","),
            witness
        ));
    }
    let bound = match &full.state_bound {
        Some(b) => {
            let per_op: Vec<String> = b
                .per_op
                .iter()
                .map(|(op, n)| {
                    format!(
                        "{{\"op\":\"{}\",\"states\":{}}}",
                        json_escape(&op.to_string()),
                        n
                    )
                })
                .collect();
            format!(
                "{{\"states\":{},\"per_op\":[{}]}}",
                b.states,
                per_op.join(",")
            )
        }
        None => "null".to_owned(),
    };
    println!(
        "{{\"grammar\":\"{}\",\"counts\":{{\"error\":{},\"warning\":{},\"info\":{}}},\
         \"findings\":[{}],\"state_bound\":{}}}",
        json_escape(name),
        count(Severity::Error),
        count(Severity::Warning),
        count(Severity::Info),
        findings.join(","),
        bound
    );
}

fn normal(grammar: &Grammar) -> Result<(), String> {
    let normal = grammar.normalize();
    for rule in normal.rules() {
        let lhs = normal.nt_name(rule.lhs);
        let marker = if rule.is_final { "" } else { "  (helper)" };
        match &rule.rhs {
            odburg::grammar::NormalRhs::Base { op, operands } => {
                let ops: Vec<&str> = operands.iter().map(|&n| normal.nt_name(n)).collect();
                println!("{lhs}: {op}({}){marker}", ops.join(", "));
            }
            odburg::grammar::NormalRhs::Chain { from } => {
                println!("{lhs}: {}{marker}", normal.nt_name(*from));
            }
        }
    }
    Ok(())
}

fn automaton(grammar: &Grammar) -> Result<(), String> {
    let stripped = grammar
        .without_dynamic_rules()
        .map_err(|e| format!("cannot strip dynamic rules: {e}"))?;
    let auto = OfflineAutomaton::build(Arc::new(stripped.normalize()), OfflineConfig::default())
        .map_err(|e| format!("automaton construction failed: {e}"))?;
    let s = auto.stats();
    println!("states:             {}", s.states);
    println!("representer states: {}", s.representers);
    println!("transition entries: {}", s.transition_entries);
    println!("table bytes:        {}", s.bytes);
    println!("build time:         {:?}", s.build_time);
    println!("build work units:   {}", s.build_work);
    if grammar.stats().dynamic_rules > 0 {
        println!(
            "note: {} dynamic-cost rules were stripped (offline automata cannot represent them)",
            grammar.stats().dynamic_rules
        );
    }
    Ok(())
}

fn generate(grammar: &Grammar) -> Result<(), String> {
    let stripped = grammar
        .without_dynamic_rules()
        .map_err(|e| format!("cannot strip dynamic rules: {e}"))?;
    let auto = OfflineAutomaton::build(Arc::new(stripped.normalize()), OfflineConfig::default())
        .map_err(|e| format!("automaton construction failed: {e}"))?;
    print!(
        "{}",
        odburg::select::generate_rust(&auto, &format!("odburg generate {}", grammar.name()))
    );
    if grammar.stats().dynamic_rules > 0 {
        eprintln!(
            "note: {} dynamic-cost rules were stripped (hard-coded tables cannot represent them; use the on-demand automaton to keep them)",
            grammar.stats().dynamic_rules
        );
    }
    Ok(())
}

fn parse_tree(grammar_name: &str, src: &str) -> Result<(Forest, NodeId), String> {
    let mut forest = Forest::new();
    let root =
        parse_sexpr(&mut forest, src).map_err(|e| format!("{grammar_name}: bad tree: {e}"))?;
    forest.add_root(root);
    Ok((forest, root))
}

fn label(
    grammar: &Grammar,
    strategy: Strategy,
    tables: Option<&str>,
    budget: Option<MemoryBudget>,
    src: &str,
) -> Result<(), String> {
    let (forest, _) = parse_tree(grammar.name(), src)?;
    let mut labeler = build_labeler(grammar, strategy, tables, budget)?;
    let labeling = labeler
        .label_forest(&forest)
        .map_err(|e| format!("labeling failed: {e}"))?;
    let normal = labeler.grammar();

    match (&labeler, &labeling) {
        // Automaton strategies: print the state table the automaton
        // assigned, exactly as the paper's examples do.
        (AnyLabeler::OnDemand(od), AnyLabeling::States(l)) => {
            for (id, node) in forest.iter() {
                let state = l.state_of(id);
                let data = od.state(state);
                print!(
                    "{id} {:<10} -> state {:>3}:",
                    node.op().to_string(),
                    state.0
                );
                for nt in 0..normal.num_nts() {
                    let nt = odburg::grammar::NtId(nt as u16);
                    if let Some(rule) = data.rule(nt) {
                        print!(" {}={}#{}", normal.nt_name(nt), data.cost(nt), rule.0);
                    }
                }
                println!();
            }
        }
        // Every other strategy: print the chosen rule per derivable
        // nonterminal through the unified chooser.
        _ => {
            let chooser = labeler.chooser(&labeling);
            for (id, node) in forest.iter() {
                print!("{id} {:<10} ->", node.op().to_string());
                for nt in 0..normal.num_nts() {
                    let nt = odburg::grammar::NtId(nt as u16);
                    if let Some(rule) = chooser.rule_for(id, nt) {
                        print!(" {}=#{}", normal.nt_name(nt), rule.0);
                    }
                }
                println!();
            }
        }
    }
    println!("{}", labeler.stats_line());
    Ok(())
}

fn emit(
    grammar: &Grammar,
    strategy: Strategy,
    tables: Option<&str>,
    budget: Option<MemoryBudget>,
    src: &str,
) -> Result<(), String> {
    let (forest, _) = parse_tree(grammar.name(), src)?;
    let mut labeler = build_labeler(grammar, strategy, tables, budget)?;
    let labeling = labeler
        .label_forest(&forest)
        .map_err(|e| format!("labeling failed: {e}"))?;
    let chooser = labeler.chooser(&labeling);
    let red = odburg::codegen::reduce_forest(&forest, &labeler.grammar(), &chooser)
        .map_err(|e| format!("reduction failed: {e}"))?;
    print!("{red}");
    println!("; cost {}", red.total_cost);
    Ok(())
}

fn compile(
    grammar: &Grammar,
    strategy: Strategy,
    tables: Option<&str>,
    budget: Option<MemoryBudget>,
    path: &str,
) -> Result<(), String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let forest = odburg::frontend::compile(&source).map_err(|e| format!("{path}: {e}"))?;
    let mut labeler = build_labeler(grammar, strategy, tables, budget)?;
    let labeling = labeler
        .label_forest(&forest)
        .map_err(|e| format!("labeling failed: {e}"))?;
    let chooser = labeler.chooser(&labeling);
    let red = odburg::codegen::reduce_forest(&forest, &labeler.grammar(), &chooser)
        .map_err(|e| format!("reduction failed: {e}"))?;
    print!("{red}");
    eprintln!(
        "; {} nodes, {} instructions, cost {}, {}",
        forest.len(),
        red.len(),
        red.total_cost,
        labeler.stats_line()
    );
    Ok(())
}

/// Compares the chosen strategy against every other on a replicated
/// MiniC workload — all driven through the `Labeler` trait. With
/// `--tables`, every on-demand strategy is warm-started from the
/// persisted tables.
fn bench(grammar: &Grammar, chosen: Strategy, tables: Option<&str>) -> Result<(), String> {
    use std::time::Instant;
    let suite = odburg::workloads::combined_workload();
    let forest = odburg::workloads::replicate(&suite.forest, 20);
    println!("workload: MiniC suite x20 ({} nodes)", forest.len());

    // One import, shared by every strategy that can use it; it fails
    // loudly if the chosen strategy cannot.
    let snapshot = match tables {
        Some(path) => Some(Arc::new(load_tables_for(grammar, chosen, path, None)?)),
        None => None,
    };

    let mut results: Vec<(Strategy, f64)> = Vec::new();
    for strategy in Strategy::ALL {
        let warm = snapshot
            .clone()
            .and_then(|snap| AnyLabeler::build_warm(strategy, snap).ok());
        let mut labeler = match warm {
            Some(l) => l,
            None => match AnyLabeler::build(strategy, grammar) {
                Ok(l) => l,
                Err(e) => {
                    println!("{:<20} unavailable: {e}", strategy.to_string());
                    continue;
                }
            },
        };
        // Warm (matters for the automata), then measure one pass.
        if labeler.label_forest(&forest).is_err() {
            println!("{:<20} cannot label this workload", strategy.to_string());
            continue;
        }
        let t = Instant::now();
        labeler
            .label_forest(&forest)
            .map_err(|e| format!("{strategy}: {e}"))?;
        let ns = t.elapsed().as_nanos() as f64 / forest.len() as f64;
        println!("{:<20} {ns:>8.1} ns/node", strategy.to_string());
        results.push((strategy, ns));
    }
    if let (Some(&(_, chosen_ns)), Some(&(_, dp_ns))) = (
        results.iter().find(|(s, _)| *s == chosen),
        results.iter().find(|(s, _)| *s == Strategy::Dp),
    ) {
        println!(
            "{chosen} vs dp: {:.2}x {}",
            (dp_ns / chosen_ns).max(chosen_ns / dp_ns),
            if chosen_ns <= dp_ns {
                "faster"
            } else {
                "slower"
            }
        );
    }
    Ok(())
}
