//! `odburg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a run header, every metric with its unit, and as its last line
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! workload untraced for half the window and traced for the other half,
//! and reports the per-layer metrics and each layer's share of a job.
//! Exits non-zero when any job's output differs from the DP oracle or a
//! workload-validity check fails.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use odburg_perfbench::jobs::MinicSuite;
use odburg_perfbench::report::{self, Metric};
use odburg_perfbench::{minic, replay, serve, Outcome, Params, Stop, Workload};

const USAGE: &str =
    "usage: odburg_perfbench --workload <serve_warm|serve_cold|minic_session> --seed <n> \
     --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Where the benchmark keeps tables and traces: under the build
/// directory, inside the checkout.
fn scratch_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("perfbench")
}

/// The commit being measured, when the checkout is a git repository.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "none".to_owned(), |s| s.trim().to_owned())
}

fn header(args: &Args, params: &Params) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "header {{\"git_rev\": \"{}\", \"nproc\": {}, \"workload\": \"{}\", \"seed\": {}, \
         \"profile\": \"{profile}\", \"window_s\": {}, \"trace\": {}, \"rate_per_s\": {}, \
         \"pass_jobs\": {}, \"in_flight\": {}, \"workers\": {}, \"setups\": {}}}",
        git_rev(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        params.workload.name(),
        params.seed,
        args.seconds,
        args.trace,
        params.rate,
        params.pass_jobs,
        params.in_flight,
        params.workers,
        params.setups,
    )
}

enum Prepared {
    Serve(serve::Prepared),
    Minic(MinicSuite),
}

impl Prepared {
    fn run(&self, params: &Params, stop: Stop, traced: bool) -> Result<Outcome, String> {
        match self {
            Prepared::Serve(p) => serve::run(params, p, stop, traced),
            Prepared::Minic(s) => minic::run(params, s, stop, traced),
        }
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn check(out: &Outcome, what: &str) -> bool {
    for v in &out.violations {
        eprintln!("{what}: invalid workload: {v}");
    }
    if out.mismatches > 0 {
        eprintln!("{what}: {} jobs differ from the DP oracle", out.mismatches);
    }
    out.violations.is_empty() && out.mismatches == 0
}

fn bench(args: &Args) -> Result<bool, String> {
    let params = Params::new(args.workload, args.seed);
    println!("{}", header(args, &params));
    let scratch = scratch_dir();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let prepared = match args.workload {
        Workload::MinicSession => Prepared::Minic(MinicSuite::build()?),
        _ => Prepared::Serve(serve::Prepared::new(&params, &scratch)?),
    };
    let window = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let out = prepared.run(&params, Stop::Window(window), false)?;
        let metrics = report::end_to_end(&out, &params);
        let all = out.latencies();
        println!(
            "{}: {} jobs ({} distinct), {} nodes, {} failed, generator lag p99 {:.1} us, \
             every completion p50 {:.1} us p99 {:.1} us",
            args.workload.name(),
            out.attempted,
            out.fastest().count(),
            out.counts.nodes,
            out.failed,
            report::quantile(&out.lags, 0.99).as_secs_f64() * 1e6,
            report::quantile(&all, 0.5).as_secs_f64() * 1e6,
            report::quantile(&all, 0.99).as_secs_f64() * 1e6
        );
        for (i, s) in out.segments.iter().enumerate() {
            println!(
                "  segment {i:>2}: {:>6} jobs, p50 {:>9.1} us, {:>11.0} nodes/s",
                s.latencies.len(),
                report::quantile(&s.latencies, 0.5).as_secs_f64() * 1e6,
                s.nodes as f64 / s.window.as_secs_f64().max(1e-9)
            );
        }
        print_metrics(&metrics);
        let correct = check(&out, "run");
        println!(
            "{}",
            report::result_line(correct, out.attempted, out.failed, &metrics)
        );
        return Ok(correct);
    }

    let base = prepared.run(&params, Stop::Window(window / 2), false)?;
    let traced = prepared.run(&params, Stop::Window(window / 2), true)?;
    let input = traced
        .replay
        .as_ref()
        .expect("a traced run keeps replay input");
    let replayed = replay::replay(input)?;
    let offline = replay::offline_comparison()?;
    let metrics = report::per_layer(
        &traced,
        &replayed,
        report::quantile(&base.latencies(), 0.5),
        offline,
    );
    let spans = scratch.join(format!("trace-{}.jsonl", args.workload.name()));
    write_spans(&traced, &spans);
    println!(
        "{}: layer shares of a job (self time)",
        args.workload.name()
    );
    for (name, share) in report::shares(&traced, &replayed) {
        println!(
            "  {:<10} {:>6.1}%",
            name.trim_start_matches("share."),
            share * 100.0
        );
    }
    print_metrics(&metrics);
    let correct = check(&base, "untraced run") & check(&traced, "traced run");
    println!(
        "{}",
        report::result_line(
            correct,
            base.attempted + traced.attempted,
            base.failed + traced.failed,
            &metrics
        )
    );
    Ok(correct)
}

fn write_spans(out: &Outcome, path: &Path) {
    if let Some(trace) = &out.trace {
        match trace.write_jsonl(path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("odburg_perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
