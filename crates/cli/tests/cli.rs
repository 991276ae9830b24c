//! End-to-end tests of the `odburg` command-line tool.

use std::process::Command;
use std::sync::Arc;

use odburg::prelude::{Labeler, OnDemandAutomaton, OnDemandConfig};

fn odburg(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_odburg"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn stats_prints_grammar_summary() {
    let (ok, stdout, _) = odburg(&["stats", "x86ish"]);
    assert!(ok);
    assert!(stdout.contains("rules:"));
    assert!(stdout.contains("dynamic rules:"));
}

#[test]
fn normal_lists_helper_rules() {
    let (ok, stdout, _) = odburg(&["normal", "demo"]);
    assert!(ok);
    assert!(stdout.contains("(helper)"));
    assert!(stdout.contains("stmt: StoreI8"));
}

#[test]
fn automaton_reports_sizes() {
    let (ok, stdout, _) = odburg(&["automaton", "jvmish"]);
    assert!(ok);
    assert!(stdout.contains("states:"));
    assert!(stdout.contains("transition entries:"));
}

#[test]
fn emit_selects_rmw() {
    let (ok, stdout, _) = odburg(&[
        "emit",
        "demo",
        "(StoreI8 (AddrLocalP @x) (AddI8 (LoadI8 (AddrLocalP @x)) (ConstI8 5)))",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("add v0, (x)"), "{stdout}");
    assert!(stdout.contains("cost 2"), "{stdout}");
}

#[test]
fn label_shows_states() {
    let (ok, stdout, _) = odburg(&["label", "demo", "(AddI8 (ConstI8 1) (ConstI8 2))"]);
    assert!(ok);
    assert!(stdout.contains("state"));
    assert!(stdout.contains("2 states"));
}

#[test]
fn compile_runs_minic_files() {
    let dir = std::env::temp_dir().join("odburg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("prog.mc");
    std::fs::write(&path, "fn double(x) { return x + x; }\n").unwrap();
    let (ok, stdout, stderr) = odburg(&["compile", "x86ish", path.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("fn_double:"), "{stdout}");
    assert!(stderr.contains("instructions"), "{stderr}");
}

#[test]
fn grammar_files_load_from_disk() {
    let dir = std::env::temp_dir().join("odburg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.burg");
    std::fs::write(&path, "%start reg\nreg: ConstI8 (1) \"li {imm}\"\n").unwrap();
    let (ok, stdout, _) = odburg(&["emit", path.to_str().unwrap(), "(ConstI8 9)"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("li 9"), "{stdout}");
}

#[test]
fn generate_emits_rust_tables() {
    let (ok, stdout, _) = odburg(&["generate", "demo"]);
    assert!(ok);
    assert!(stdout.contains("pub fn label_node"));
    assert!(stdout.contains("static RULES"));
    // Dynamic rules are stripped with a note on stderr.
    let (ok, _, stderr) = odburg(&["generate", "x86ish"]);
    assert!(ok);
    assert!(stderr.contains("stripped"));
}

#[test]
fn labeler_flag_selects_strategies() {
    // Every strategy is constructible through the flag and produces the
    // same optimal cost on this tree (macro included: it is optimal on
    // the plain store).
    for strategy in ["ondemand", "shared", "offline", "dp", "macro"] {
        let (ok, stdout, stderr) = odburg(&[
            "emit",
            "demo",
            "(StoreI8 (AddrLocalP @x) (ConstI8 1))",
            &format!("--labeler={strategy}"),
        ]);
        assert!(ok, "{strategy}: {stderr}");
        assert!(stdout.contains("cost 2"), "{strategy}: {stdout}");
    }
}

#[test]
fn labeler_flag_changes_selection() {
    // The RMW tree: optimal strategies fold the add into the store
    // (cost 2); the offline automaton lost the dynamic rule and pays the
    // full sequence.
    let tree = "(StoreI8 (AddrLocalP @x) (AddI8 (LoadI8 (AddrLocalP @x)) (ConstI8 5)))";
    let (ok, stdout, _) = odburg(&["emit", "demo", tree, "--labeler=dp"]);
    assert!(ok);
    assert!(stdout.contains("add v0, (x)"), "{stdout}");
    let (ok, stdout, _) = odburg(&["emit", "demo", tree, "--labeler=offline"]);
    assert!(ok);
    assert!(
        !stdout.contains("add v0, (x)"),
        "offline kept RMW: {stdout}"
    );
}

#[test]
fn labeler_flag_works_on_label_and_compile() {
    let (ok, stdout, _) = odburg(&[
        "label",
        "demo",
        "(AddI8 (ConstI8 1) (ConstI8 2))",
        "--labeler=dp",
    ]);
    assert!(ok);
    assert!(stdout.contains("dp:"), "{stdout}");
    let dir = std::env::temp_dir().join("odburg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("strat.mc");
    std::fs::write(&path, "fn twice(x) { return x + x; }\n").unwrap();
    let (ok, stdout, stderr) = odburg(&[
        "compile",
        "x86ish",
        path.to_str().unwrap(),
        "--labeler=shared",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("fn_twice:"), "{stdout}");
    assert!(stderr.contains("shared"), "{stderr}");
}

#[test]
fn unknown_labeler_rejected() {
    let (ok, _, stderr) = odburg(&["emit", "demo", "(ConstI8 1)", "--labeler=z80burg"]);
    assert!(!ok);
    assert!(stderr.contains("unknown labeler"), "{stderr}");
}

#[test]
fn tables_round_trip_through_the_cli() {
    let dir = std::env::temp_dir().join("odburg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let tables = dir.join("x86ish.odbt");
    let tables = tables.to_str().unwrap();

    let (ok, stdout, stderr) = odburg(&["tables", "export", "x86ish", tables]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("exported"), "{stdout}");
    assert!(stdout.contains("states"), "{stdout}");

    let (ok, stdout, stderr) = odburg(&["tables", "import", "x86ish", tables]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("imported"), "{stdout}");

    // Warm-started compilation works end to end, for the single-threaded
    // and the shared strategy.
    let path = dir.join("warm.mc");
    std::fs::write(&path, "fn triple(x) { return x + x + x; }\n").unwrap();
    for labeler in ["ondemand", "shared"] {
        let (ok, stdout, stderr) = odburg(&[
            "compile",
            "x86ish",
            path.to_str().unwrap(),
            &format!("--tables={tables}"),
            &format!("--labeler={labeler}"),
        ]);
        assert!(ok, "{labeler}: {stderr}");
        assert!(stdout.contains("fn_triple:"), "{labeler}: {stdout}");
    }
}

#[test]
fn bad_table_files_are_rejected_not_mislabeled() {
    let dir = std::env::temp_dir().join("odburg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let tables = dir.join("reject.odbt");
    let (ok, _, stderr) = odburg(&["tables", "export", "x86ish", tables.to_str().unwrap()]);
    assert!(ok, "{stderr}");

    // Wrong grammar.
    let (ok, _, stderr) = odburg(&["tables", "import", "demo", tables.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("different grammar"), "{stderr}");

    // Another configuration is not a mismatch: tables grown under
    // another state budget import, because a file carries tables only.
    let budgeted = dir.join("budgeted.odbt");
    let normal = Arc::new(odburg::targets::x86ish().normalize());
    let mut auto = OnDemandAutomaton::with_config(
        normal,
        OnDemandConfig {
            state_budget: 4096,
            ..OnDemandConfig::default()
        },
    );
    auto.label_forest(&odburg::workloads::combined_workload().forest)
        .unwrap();
    odburg::select::persist::save_tables(&auto.snapshot(), &budgeted).unwrap();
    let (ok, stdout, stderr) = odburg(&["tables", "import", "x86ish", budgeted.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("imported"), "{stdout}");

    // Corrupted payload.
    let mut bytes = std::fs::read(&tables).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    let corrupt = dir.join("corrupt.odbt");
    std::fs::write(&corrupt, &bytes).unwrap();
    let (ok, _, stderr) = odburg(&["tables", "import", "x86ish", corrupt.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("corrupted"), "{stderr}");

    // Truncated file.
    let truncated = dir.join("truncated.odbt");
    std::fs::write(&truncated, &std::fs::read(&tables).unwrap()[..40]).unwrap();
    let (ok, _, stderr) = odburg(&["tables", "import", "x86ish", truncated.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("truncated"), "{stderr}");

    // Not a table file at all.
    let nottables = dir.join("nottables.odbt");
    std::fs::write(&nottables, "%start reg\nreg: ConstI8 (1)\n").unwrap();
    let (ok, _, stderr) = odburg(&["tables", "import", "x86ish", nottables.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("not an odburg table file"), "{stderr}");

    // Missing file, strategy without tables, unknown action and flag.
    let (ok, _, stderr) = odburg(&["emit", "demo", "(ConstI8 1)", "--tables=/no/such.odbt"]);
    assert!(!ok);
    assert!(stderr.contains("cannot load tables"), "{stderr}");
    let (ok, _, stderr) = odburg(&[
        "emit",
        "demo",
        "(ConstI8 1)",
        "--tables",
        tables.to_str().unwrap(),
        "--labeler=dp",
    ]);
    assert!(!ok);
    assert!(stderr.contains("cannot warm-start"), "{stderr}");
    let (ok, _, stderr) = odburg(&["tables", "frobnicate", "demo", "x.odbt"]);
    assert!(!ok);
    assert!(stderr.contains("unknown tables action"), "{stderr}");
    let (ok, _, stderr) = odburg(&["emit", "demo", "(ConstI8 1)", "--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"), "{stderr}");
}

#[test]
fn tables_stats_prints_a_per_component_breakdown() {
    let dir = std::env::temp_dir().join("odburg-cli-tablestats");
    std::fs::create_dir_all(&dir).unwrap();
    let tables = dir.join("x86ish.odbt");
    let tables = tables.to_str().unwrap();
    let (ok, _, stderr) = odburg(&["tables", "export", "x86ish", tables]);
    assert!(ok, "{stderr}");

    let (ok, stdout, stderr) = odburg(&["tables", "stats", tables]);
    assert!(ok, "{stderr}");
    for needle in [
        "grammar fingerprint:",
        "states:",
        "projections:",
        "transitions:",
        "projection cache:",
        "signatures:",
        "accounted bytes:",
        "epoch:",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }

    // Malformed files are rejected with a clear error and nonzero exit.
    let garbage = dir.join("garbage.odbt");
    std::fs::write(&garbage, "definitely not a table file, promise!").unwrap();
    let (ok, _, stderr) = odburg(&["tables", "stats", garbage.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("cannot inspect tables"), "{stderr}");
    assert!(stderr.contains("not an odburg table file"), "{stderr}");

    let mut corrupt = std::fs::read(tables).unwrap();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x10;
    let corrupt_path = dir.join("corrupt.odbt");
    std::fs::write(&corrupt_path, &corrupt).unwrap();
    let (ok, _, stderr) = odburg(&["tables", "stats", corrupt_path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("corrupted"), "{stderr}");

    let (ok, _, stderr) = odburg(&["tables", "stats"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn governance_flags_configure_the_labeler() {
    // A compacting budget labels fine (the budget is roomy).
    let (ok, stdout, stderr) = odburg(&[
        "emit",
        "demo",
        "(StoreI8 (AddrLocalP @x) (ConstI8 5))",
        "--memory-budget=256k",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("cost 2"), "{stdout}");
    let (ok, _, stderr) = odburg(&[
        "label",
        "demo",
        "(ConstI8 1)",
        "--memory-budget=1m",
        "--budget-policy=compact",
        "--labeler=shared",
    ]);
    assert!(ok, "{stderr}");

    // Misuse is rejected with one-line errors.
    let cases: &[(&[&str], &str)] = &[
        (
            &["emit", "demo", "(ConstI8 1)", "--budget-policy=compact"],
            "needs --memory-budget",
        ),
        (
            &["emit", "demo", "(ConstI8 1)", "--memory-budget=zero"],
            "positive byte count",
        ),
        (
            // Overflow must error, not wrap to a tiny budget.
            &[
                "emit",
                "demo",
                "(ConstI8 1)",
                "--memory-budget=18014398509481985k",
            ],
            "positive byte count",
        ),
        (
            &["emit", "demo", "(ConstI8 1)", "--budget-policy=evict"],
            "unknown budget policy",
        ),
        (
            &[
                "emit",
                "demo",
                "(ConstI8 1)",
                "--memory-budget=1m",
                "--labeler=dp",
            ],
            "not backed by an on-demand automaton",
        ),
        (
            &["bench", "demo", "--memory-budget=1m"],
            "apply to label, emit, compile and batch",
        ),
        (
            &[
                "tables",
                "export",
                "demo",
                "/tmp/x.odbt",
                "--memory-budget=1m",
            ],
            "apply to label, emit, compile and batch",
        ),
    ];
    for (args, needle) in cases {
        let (ok, _, stderr) = odburg(args);
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }

    // A byte-triggered flush bounds the labeler as a compaction does.
    let (ok, stdout, stderr) = odburg(&[
        "emit",
        "demo",
        "(StoreI8 (AddrLocalP @x) (ConstI8 5))",
        "--memory-budget=1m",
        "--budget-policy=flush",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("cost 2"), "{stdout}");

    // A budget applies to tables warm-started from a file, too: the
    // file carries no configuration to conflict with it.
    let dir = std::env::temp_dir().join("odburg-cli-govern");
    std::fs::create_dir_all(&dir).unwrap();
    let tables = dir.join("demo.odbt");
    let (ok, _, stderr) = odburg(&["tables", "export", "demo", tables.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    let (ok, stdout, stderr) = odburg(&[
        "emit",
        "demo",
        "(StoreI8 (AddrLocalP @x) (ConstI8 5))",
        &format!("--tables={}", tables.to_str().unwrap()),
        "--memory-budget=1m",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("cost 2"), "{stdout}");
}

#[test]
fn batch_applies_a_memory_budget_per_target() {
    let dir = std::env::temp_dir().join("odburg-cli-batch-budget");
    std::fs::create_dir_all(&dir).unwrap();
    let trees = dir.join("trees.sx");
    std::fs::write(
        &trees,
        "(StoreI8 (AddrLocalP @x) (AddI8 (LoadI8 (AddrLocalP @x)) (ConstI8 5)))\n",
    )
    .unwrap();
    let manifest = dir.join("jobs.txt");
    std::fs::write(&manifest, format!("demo {}\n", trees.display())).unwrap();

    // A roomy compacting budget: runs clean, reports table bytes.
    let (ok, stdout, stderr) = odburg(&[
        "batch",
        manifest.to_str().unwrap(),
        "--workers=1",
        "--memory-budget=4m",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("table bytes"), "{stdout}");

    // A one-byte flushing budget: still labels every job (enforcement
    // runs after the batch), and the report shows the flush.
    let (ok, stdout, stderr) = odburg(&[
        "batch",
        manifest.to_str().unwrap(),
        "--workers=1",
        "--memory-budget=1",
        "--budget-policy=flush",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("flushed"), "{stdout}");

    // Flag misuse.
    let (ok, _, stderr) = odburg(&[
        "batch",
        manifest.to_str().unwrap(),
        "--memory-budget=1m",
        "--budget-policy=error",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown budget policy"), "{stderr}");
    let (ok, _, stderr) = odburg(&[
        "batch",
        manifest.to_str().unwrap(),
        "--budget-policy=compact",
    ]);
    assert!(!ok);
    assert!(stderr.contains("needs --memory-budget"), "{stderr}");
}

#[test]
fn malformed_grammar_and_sexpr_inputs_error_cleanly() {
    let dir = std::env::temp_dir().join("odburg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();

    // Malformed grammar file: bad operator, bad cost, binary garbage.
    for (name, text) in [
        ("badop.burg", "%start reg\nreg: Frobnicate (1)\n"),
        ("badcost.burg", "%start reg\nreg: ConstI8 (99999)\n"),
        ("garbage.burg", "\u{1}\u{2}\u{3}"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let (ok, _, stderr) = odburg(&["stats", path.to_str().unwrap()]);
        assert!(!ok, "{name} must be rejected");
        assert!(stderr.contains(name), "{name}: {stderr}");
    }

    // Malformed s-expressions: unbalanced, empty, payload overflow.
    for sexpr in [
        "((((",
        "(AddI8 (ConstI8 1)",
        "(ConstI8 99999999999999999999999)",
    ] {
        let (ok, _, stderr) = odburg(&["label", "demo", sexpr]);
        assert!(!ok, "`{sexpr}` must be rejected");
        assert!(stderr.contains("bad tree"), "`{sexpr}`: {stderr}");
    }

    // Malformed MiniC input through compile.
    let path = dir.join("bad.mc");
    std::fs::write(&path, "fn broken( { return 1; }\n").unwrap();
    let (ok, _, stderr) = odburg(&["compile", "x86ish", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("bad.mc"), "{stderr}");
}

#[test]
fn batch_runs_a_multi_target_manifest() {
    let dir = std::env::temp_dir().join("odburg-cli-batch");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store.sx");
    std::fs::write(
        &store,
        "# two trees, one job\n(StoreI8 (AddrLocalP @x) (ConstI8 1))\n\
         (StoreI8 (AddrLocalP @y) (ConstI8 2))\n",
    )
    .unwrap();
    let add = dir.join("add.sx");
    std::fs::write(&add, "(AddI4 (ConstI4 1) (ConstI4 2))\n").unwrap();
    // A runtime-registered target from a .burg file, mixed in with the
    // built-ins.
    let tiny = dir.join("tiny.burg");
    std::fs::write(&tiny, "%start reg\nreg: ConstI8 (1) \"li {imm}\"\n").unwrap();
    let li = dir.join("li.sx");
    std::fs::write(&li, "(ConstI8 9)\n").unwrap();

    let manifest = dir.join("jobs.txt");
    std::fs::write(
        &manifest,
        format!(
            "# mixed traffic\ndemo {store}\nx86ish {add}\n{tiny} {li}\ndemo {store}\n",
            store = store.display(),
            add = add.display(),
            tiny = tiny.display(),
            li = li.display(),
        ),
    )
    .unwrap();

    let (ok, stdout, stderr) = odburg(&["batch", manifest.to_str().unwrap(), "--workers=2"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("#0 demo"), "{stdout}");
    assert!(stdout.contains("#2"), "{stdout}");
    assert!(stdout.contains("target demo: 2 jobs"), "{stdout}");
    assert!(stdout.contains("target x86ish: 1 jobs"), "{stdout}");
    assert!(stdout.contains("cold"), "{stdout}");
    assert!(
        stdout.contains("batch: 4 jobs across 2 workers"),
        "{stdout}"
    );
    assert!(stdout.contains("p99"), "{stdout}");

    // `serve` streams the same manifest through the long-running
    // server: every job completes, nothing is rejected or lost, and
    // the final accounting line reports it.
    let (ok, stdout, stderr) = odburg(&["serve", manifest.to_str().unwrap(), "--workers=1"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("#0 demo"), "{stdout}");
    assert!(
        stdout.contains(
            "serve: submitted 4, completed 4, failed 0, rejected 0, shed 0, deadline-missed 0"
        ),
        "{stdout}"
    );
    assert!(stdout.contains("maintenance quanta"), "{stdout}");
}

#[test]
fn serve_streams_with_queue_cap_and_deadline() {
    let dir = std::env::temp_dir().join("odburg-cli-serve");
    std::fs::create_dir_all(&dir).unwrap();
    let tree = dir.join("store.sx");
    std::fs::write(&tree, "(StoreI8 (AddrLocalP @x) (ConstI8 1))\n").unwrap();
    let manifest = dir.join("jobs.txt");
    let mut lines = String::new();
    for _ in 0..20 {
        lines.push_str(&format!("demo {}\n", tree.display()));
    }
    std::fs::write(&manifest, &lines).unwrap();

    // A roomy queue and deadline: everything completes; the periodic
    // stats line appears (20 submissions cross the every-16 mark).
    let (ok, stdout, stderr) = odburg(&[
        "serve",
        manifest.to_str().unwrap(),
        "--workers=1",
        "--queue-cap=64",
        "--deadline-ms=60000",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("queue-depth="), "{stdout}");
    assert!(
        stdout.contains("serve: submitted 20, completed 20, failed 0, rejected 0"),
        "{stdout}"
    );

    // Mixed traffic through a 4-slot queue with a per-target byte
    // budget, shedding and fair queueing: rejections are typed
    // backpressure, and every job is still accounted for.
    let mixed = mixed_manifest(&dir.join("mixed"), 20);
    let (ok, stdout, stderr) = odburg(&[
        "serve",
        mixed.to_str().unwrap(),
        "--workers=2",
        "--queue-cap=4",
        "--deadline-ms=5000",
        "--memory-budget=256k",
        "--shed",
        "--fair",
    ]);
    assert!(ok, "{stderr}");
    let [submitted, completed, failed, rejected, shed, missed] = serve_counts(&stdout);
    assert_eq!(submitted, 60, "{stdout}");
    assert!(completed > 0, "{stdout}");
    assert_eq!(failed, 0, "{stdout}");
    assert_eq!(completed + rejected + shed + missed, submitted, "{stdout}");
    assert!(stdout.contains("maintenance quanta"), "{stdout}");

    // Serve reads from stdin with `-`.
    use std::io::Write as _;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_odburg"))
        .args(["serve", "-", "--workers=1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(format!("demo {}\n", tree.display()).as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("completed 1"), "{stdout}");
}

#[test]
fn serve_and_batch_flag_interactions_error_one_line() {
    let dir = std::env::temp_dir().join("odburg-cli-serve-flags");
    std::fs::create_dir_all(&dir).unwrap();
    let tree = dir.join("ok.sx");
    std::fs::write(&tree, "(StoreI8 (AddrLocalP @x) (ConstI8 1))\n").unwrap();
    let manifest = dir.join("jobs.txt");
    std::fs::write(&manifest, format!("demo {}\n", tree.display())).unwrap();
    let manifest = manifest.to_str().unwrap();

    let cases: &[(&[&str], &str)] = &[
        // Streaming flags on `batch` and on non-service commands.
        (
            &["batch", manifest, "--queue-cap=8"],
            "only applies to `serve`",
        ),
        (
            &["batch", manifest, "--deadline-ms=5"],
            "only applies to `serve`",
        ),
        (&["batch", manifest, "--shed"], "only apply to `serve`"),
        // The queue order is no longer selectable.
        (&["serve", manifest, "--sched=edf"], "unknown flag"),
        (
            &["emit", "demo", "(ConstI8 1)", "--queue-cap=8"],
            "only apply to the serve subcommand",
        ),
        (
            &["label", "demo", "(ConstI8 1)", "--deadline-ms=5"],
            "only apply to the serve subcommand",
        ),
        // Bad values.
        (&["serve", manifest, "--queue-cap=0"], "--queue-cap"),
        (&["serve", manifest, "--deadline-ms=never"], "--deadline-ms"),
        // The server labels through the shared core, like batch.
        (&["serve", manifest, "--labeler=dp"], "shared snapshot core"),
        (&["serve", manifest, "--tables=/tmp/x.odbt"], "--tables-dir"),
        // Missing/empty manifests.
        (&["serve", "/no/such/manifest.txt"], "cannot read manifest"),
    ];
    for (args, needle) in cases {
        let (ok, _, stderr) = odburg(args);
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }

    // An empty manifest: no jobs is an error, same as batch.
    let empty = dir.join("empty.txt");
    std::fs::write(&empty, "# nothing\n").unwrap();
    let (ok, _, stderr) = odburg(&["serve", empty.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("no jobs"), "{stderr}");

    // A job the grammar cannot cover fails the run (exit nonzero) but
    // still reports the stream.
    let float = dir.join("float.sx");
    std::fs::write(&float, "(MulF8 (ConstF8 #1.0) (ConstF8 #1.0))\n").unwrap();
    let bad = dir.join("bad.txt");
    std::fs::write(&bad, format!("demo {}\n", float.display())).unwrap();
    let (ok, stdout, stderr) = odburg(&["serve", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stdout.contains("FAILED"), "{stdout}");
    assert!(stderr.contains("1 jobs failed"), "{stderr}");
}

#[test]
fn serve_shutdown_reexports_tables_for_warm_restart() {
    let dir = std::env::temp_dir().join("odburg-cli-serve-export");
    let tables_dir = dir.join("tables");
    let _ = std::fs::remove_dir_all(&tables_dir);
    std::fs::create_dir_all(&dir).unwrap();
    let tree = dir.join("rmw.sx");
    std::fs::write(
        &tree,
        "(StoreI8 (AddrLocalP @x) (AddI8 (LoadI8 (AddrLocalP @x)) (ConstI8 5)))\n",
    )
    .unwrap();
    let manifest = dir.join("jobs.txt");
    std::fs::write(&manifest, format!("demo {}\n", tree.display())).unwrap();

    // First run: cold, exports demo's tables at shutdown.
    let (ok, stdout, stderr) = odburg(&[
        "serve",
        manifest.to_str().unwrap(),
        &format!("--tables-dir={}", tables_dir.display()),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("exported tables: demo"), "{stdout}");
    assert!(tables_dir.join("demo.odbt").exists());

    // Second run: warm-starts from the export and labels the same
    // traffic without a single miss — heat survived the restart.
    let (ok, stdout, stderr) = odburg(&[
        "serve",
        manifest.to_str().unwrap(),
        &format!("--tables-dir={}", tables_dir.display()),
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("target demo: 0 misses, 0 states built, warm"),
        "{stdout}"
    );
}

#[test]
fn tables_export_compacts_to_a_byte_target() {
    let dir = std::env::temp_dir().join("odburg-cli-compact-to");
    std::fs::create_dir_all(&dir).unwrap();
    let full = dir.join("full.odbt");
    let small = dir.join("small.odbt");

    let (ok, _, stderr) = odburg(&["tables", "export", "x86ish", full.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    let (ok, stdout, stderr) = odburg(&[
        "tables",
        "export",
        "x86ish",
        small.to_str().unwrap(),
        "--compact-to=8k",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("compacted to"), "{stdout}");
    assert!(stdout.contains("evicted"), "{stdout}");
    // The governed export is genuinely smaller and still imports clean.
    let full_len = std::fs::metadata(&full).unwrap().len();
    let small_len = std::fs::metadata(&small).unwrap().len();
    assert!(
        small_len < full_len,
        "compacted export must shrink: {small_len} vs {full_len}"
    );
    let (ok, stdout, stderr) = odburg(&["tables", "import", "x86ish", small.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("imported"), "{stdout}");
    // And the `tables stats` accounting respects the target.
    let (ok, stdout, _) = odburg(&["tables", "stats", small.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("accounted bytes"), "{stdout}");

    // Misuse: --compact-to anywhere but `tables export`.
    for args in [
        &[
            "tables",
            "import",
            "x86ish",
            full.to_str().unwrap(),
            "--compact-to=8k",
        ][..],
        &["tables", "stats", full.to_str().unwrap(), "--compact-to=8k"][..],
        &["emit", "demo", "(ConstI8 1)", "--compact-to=8k"][..],
        &["batch", "/tmp/x.txt", "--compact-to=8k"][..],
    ] {
        let (ok, _, stderr) = odburg(args);
        assert!(!ok, "{args:?} must fail");
        assert!(
            stderr.contains("only applies to `tables export`"),
            "{args:?}: {stderr}"
        );
    }
    let (ok, _, stderr) = odburg(&[
        "tables",
        "export",
        "x86ish",
        small.to_str().unwrap(),
        "--compact-to=zero",
    ]);
    assert!(!ok);
    assert!(stderr.contains("positive byte count"), "{stderr}");
}

#[test]
fn batch_warm_starts_from_a_tables_dir() {
    let dir = std::env::temp_dir().join("odburg-cli-batch-warm");
    let tables_dir = dir.join("tables");
    std::fs::create_dir_all(&tables_dir).unwrap();
    let (ok, _, stderr) = odburg(&[
        "tables",
        "export",
        "x86ish",
        tables_dir.join("x86ish.odbt").to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");

    let job = dir.join("add.sx");
    std::fs::write(&job, "(AddI4 (ConstI4 1) (ConstI4 2))\n").unwrap();
    let manifest = dir.join("jobs.txt");
    std::fs::write(&manifest, format!("x86ish {}\n", job.display())).unwrap();

    let (ok, stdout, stderr) = odburg(&[
        "batch",
        manifest.to_str().unwrap(),
        &format!("--tables-dir={}", tables_dir.display()),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("target x86ish: 1 jobs"), "{stdout}");
    assert!(
        stdout.trim().lines().nth(1).unwrap().contains(", warm,"),
        "{stdout}"
    );

    // Mismatched tables in the directory name the *target* in the error:
    // demo's tables masquerading as jvmish's.
    let (ok, _, stderr) = odburg(&[
        "tables",
        "export",
        "demo",
        tables_dir.join("jvmish.odbt").to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let bad = dir.join("const.sx");
    std::fs::write(&bad, "(ConstI8 1)\n").unwrap();
    let manifest2 = dir.join("jobs2.txt");
    std::fs::write(&manifest2, format!("jvmish {}\n", bad.display())).unwrap();
    let (ok, _, stderr) = odburg(&[
        "batch",
        manifest2.to_str().unwrap(),
        &format!("--tables-dir={}", tables_dir.display()),
    ]);
    assert!(!ok);
    assert!(stderr.contains("jvmish"), "{stderr}");
    assert!(stderr.contains("different grammar"), "{stderr}");
}

#[test]
fn batch_rejects_malformed_manifests_cleanly() {
    let dir = std::env::temp_dir().join("odburg-cli-batch-bad");
    std::fs::create_dir_all(&dir).unwrap();
    let tree = dir.join("ok.sx");
    std::fs::write(&tree, "(StoreI8 (AddrLocalP @x) (ConstI8 1))\n").unwrap();

    // Missing manifest.
    let (ok, _, stderr) = odburg(&["batch", "/no/such/manifest.txt"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read manifest"), "{stderr}");

    // A line without a file column.
    let manifest = dir.join("short.txt");
    std::fs::write(&manifest, "demo\n").unwrap();
    let (ok, _, stderr) = odburg(&["batch", manifest.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("short.txt:1"), "{stderr}");
    assert!(
        stderr.contains("expected `<target> <sexpr-file>`"),
        "{stderr}"
    );

    // An unknown target that is not a readable grammar file either.
    let manifest = dir.join("unknown.txt");
    std::fs::write(&manifest, format!("z80 {}\n", tree.display())).unwrap();
    let (ok, _, stderr) = odburg(&["batch", manifest.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("unknown.txt:1"), "{stderr}");
    assert!(stderr.contains("z80"), "{stderr}");

    // A job file that does not exist.
    let manifest = dir.join("nofile.txt");
    std::fs::write(&manifest, "demo /no/such/job.sx\n").unwrap();
    let (ok, _, stderr) = odburg(&["batch", manifest.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("cannot read `/no/such/job.sx`"), "{stderr}");

    // A job file with a malformed tree.
    let badtree = dir.join("bad.sx");
    std::fs::write(&badtree, "((((\n").unwrap();
    let manifest = dir.join("badtree.txt");
    std::fs::write(&manifest, format!("demo {}\n", badtree.display())).unwrap();
    let (ok, _, stderr) = odburg(&["batch", manifest.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("bad tree"), "{stderr}");

    // An indented malformed tree: the offset counts the indentation, as
    // `odburg emit` counts it.
    std::fs::write(&badtree, "    (AddI8 (ConstI8 1))\n").unwrap();
    let (ok, _, stderr) = odburg(&["batch", manifest.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("at byte 5"), "{stderr}");

    // A manifest with only comments.
    let manifest = dir.join("empty.txt");
    std::fs::write(&manifest, "# nothing here\n\n").unwrap();
    let (ok, _, stderr) = odburg(&["batch", manifest.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("no jobs"), "{stderr}");

    // A job the grammar cannot cover fails that job and exits nonzero,
    // but still reports the batch.
    let float = dir.join("float.sx");
    std::fs::write(&float, "(MulF8 (ConstF8 #1.0) (ConstF8 #1.0))\n").unwrap();
    let manifest = dir.join("uncovered.txt");
    std::fs::write(
        &manifest,
        format!("demo {}\ndemo {}\n", tree.display(), float.display()),
    )
    .unwrap();
    let (ok, stdout, stderr) = odburg(&["batch", manifest.to_str().unwrap()]);
    assert!(!ok);
    assert!(stdout.contains("FAILED"), "{stdout}");
    assert!(stdout.contains("target demo: 2 jobs"), "{stdout}");
    assert!(stderr.contains("job #1"), "{stderr}");
}

#[test]
fn service_flags_and_labeler_flags_do_not_mix() {
    let dir = std::env::temp_dir().join("odburg-cli-batch-flags");
    std::fs::create_dir_all(&dir).unwrap();
    let tree = dir.join("ok.sx");
    std::fs::write(&tree, "(StoreI8 (AddrLocalP @x) (ConstI8 1))\n").unwrap();
    let manifest = dir.join("jobs.txt");
    std::fs::write(&manifest, format!("demo {}\n", tree.display())).unwrap();
    let manifest = manifest.to_str().unwrap();

    // batch x --tables: the per-grammar flag is rejected with a pointer
    // to --tables-dir.
    let (ok, _, stderr) = odburg(&["batch", manifest, "--tables=/tmp/x.odbt"]);
    assert!(!ok);
    assert!(stderr.contains("--tables-dir"), "{stderr}");

    // batch x --labeler: only `shared` is accepted (it is what the
    // service runs); everything else is an error, not a silent ignore.
    for labeler in ["ondemand", "offline", "dp", "macro"] {
        let (ok, _, stderr) = odburg(&["batch", manifest, &format!("--labeler={labeler}")]);
        assert!(!ok, "{labeler} must be rejected");
        assert!(
            stderr.contains("shared snapshot core"),
            "{labeler}: {stderr}"
        );
    }
    let (ok, _, stderr) = odburg(&["batch", manifest, "--labeler=shared"]);
    assert!(ok, "{stderr}");

    // Service flags on non-service commands.
    let (ok, _, stderr) = odburg(&["emit", "demo", "(ConstI8 1)", "--tables-dir=/tmp"]);
    assert!(!ok);
    assert!(stderr.contains("batch/serve"), "{stderr}");
    let (ok, _, stderr) = odburg(&["emit", "demo", "(ConstI8 1)", "--workers=2"]);
    assert!(!ok);
    assert!(stderr.contains("batch/serve"), "{stderr}");

    // Bad worker counts.
    for bad in ["0", "many", ""] {
        let (ok, _, stderr) = odburg(&["batch", manifest, &format!("--workers={bad}")]);
        assert!(!ok, "--workers={bad} must be rejected");
        assert!(stderr.contains("--workers"), "{stderr}");
    }
}

/// The intentionally-defective grammar checked into the repo for lint
/// tests.
fn broken_fixture() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../fixtures/broken.burg")
}

#[test]
fn lint_passes_builtins_with_a_state_bound() {
    for target in [
        "demo", "x86ish", "riscish", "sparcish", "alphaish", "jvmish",
    ] {
        let (ok, stdout, stderr) = odburg(&["lint", target, "--deny=warning"]);
        assert!(ok, "{target}: {stderr}");
        assert!(stdout.contains(&format!("{target}: clean")), "{stdout}");
        assert!(stdout.contains("state bound"), "{stdout}");
    }
}

#[test]
fn lint_flags_the_broken_fixture_with_codes_and_witness() {
    let (ok, stdout, stderr) = odburg(&["lint", broken_fixture()]);
    assert!(!ok, "broken fixture must fail the default --deny=error");
    for code in ["G0001", "G0002", "G0003", "G0004", "G0005"] {
        assert!(stdout.contains(code), "missing {code} in:\n{stdout}");
    }
    // The completeness error carries an executable witness, printed as
    // an s-expression.
    assert!(stdout.contains("witness: (StoreI8"), "{stdout}");
    assert!(stderr.contains("--deny=error"), "{stderr}");
}

#[test]
fn lint_json_reports_counts_findings_and_witnesses() {
    let (ok, stdout, _) = odburg(&["lint", broken_fixture(), "--format=json"]);
    assert!(!ok);
    assert!(stdout.contains("\"grammar\":\"broken\""), "{stdout}");
    assert!(stdout.contains("\"counts\":{\"error\":1"), "{stdout}");
    assert!(stdout.contains("\"code\":\"G0003\""), "{stdout}");
    assert!(
        stdout.contains("\"witness\":{\"kind\":\"no_cover\",\"tree\":\"(StoreI8"),
        "{stdout}"
    );

    for target in [
        "demo", "x86ish", "riscish", "sparcish", "alphaish", "jvmish",
    ] {
        let (ok, stdout, stderr) = odburg(&["lint", target, "--deny=warning", "--format=json"]);
        assert!(ok, "{target}: {stderr}");
        assert!(
            stdout.contains("\"counts\":{\"error\":0,\"warning\":0,\"info\":0}"),
            "{stdout}"
        );
        let bound = json_object(&stdout, "state_bound");
        assert!(json_number(bound, "states") > 0.0, "{stdout}");
    }
}

#[test]
fn lint_deny_warning_tightens_the_gate() {
    let dir = std::env::temp_dir().join("odburg-cli-lint");
    std::fs::create_dir_all(&dir).unwrap();
    // Complete but with a shadowed rule: a warning, not an error.
    let path = dir.join("shadow.burg");
    std::fs::write(
        &path,
        "%start reg\nreg: ConstI8 (1) \"li {imm}\"\nreg: ConstI8 (3) \"li.slow {imm}\"\n",
    )
    .unwrap();
    let path = path.to_str().unwrap();

    let (ok, stdout, stderr) = odburg(&["lint", path]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("G0004 warning"), "{stdout}");

    let (ok, _, stderr) = odburg(&["lint", path, "--deny=warning"]);
    assert!(!ok, "--deny=warning must fail on a G0004 warning");
    assert!(stderr.contains("--deny=warning"), "{stderr}");
}

#[test]
fn lint_flags_are_lint_only_and_validated() {
    let (ok, _, stderr) = odburg(&["stats", "demo", "--format=json"]);
    assert!(!ok);
    assert!(stderr.contains("lint subcommand"), "{stderr}");
    let (ok, _, stderr) = odburg(&["emit", "demo", "(ConstI8 1)", "--deny=warning"]);
    assert!(!ok);
    assert!(stderr.contains("lint subcommand"), "{stderr}");
    let (ok, _, stderr) = odburg(&["lint", "demo", "--format=xml"]);
    assert!(!ok);
    assert!(stderr.contains("unknown format"), "{stderr}");
    let (ok, _, stderr) = odburg(&["lint", "demo", "--deny=info"]);
    assert!(!ok);
    assert!(stderr.contains("unknown deny level"), "{stderr}");
}

#[test]
fn batch_and_serve_reject_analysis_gated_grammars() {
    let dir = std::env::temp_dir().join("odburg-cli-gated");
    std::fs::create_dir_all(&dir).unwrap();
    let tree = dir.join("store.sx");
    std::fs::write(&tree, "(StoreI8 (ConstI8 1) (ConstI4 2))\n").unwrap();
    let manifest = dir.join("jobs.txt");
    std::fs::write(
        &manifest,
        format!("{} {}\n", broken_fixture(), tree.display()),
    )
    .unwrap();
    let manifest = manifest.to_str().unwrap();

    // The service registers manifest grammars under the Deny policy:
    // the defective grammar is rejected at registration with one stderr
    // line per diagnostic, instead of failing jobs with NoCover later.
    for command in ["batch", "serve"] {
        let (ok, _, stderr) = odburg(&[command, manifest]);
        assert!(!ok, "{command} must reject the gated grammar");
        assert!(stderr.contains("G0003 error"), "{command}: {stderr}");
        assert!(
            stderr.contains("rejected by static analysis (1 error of 7 findings)"),
            "{command}: {stderr}"
        );
        assert!(stderr.contains("jobs.txt:1"), "{command}: {stderr}");
    }
}

#[test]
fn errors_exit_nonzero_with_messages() {
    let (ok, _, stderr) = odburg(&["stats", "z80"]);
    assert!(!ok);
    assert!(stderr.contains("z80"));
    let (ok, _, stderr) = odburg(&["frobnicate", "demo"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (ok, _, stderr) = odburg(&["emit", "demo", "(MulF4 (ConstF4 #1.0) (ConstF4 #1.0))"]);
    assert!(!ok);
    assert!(stderr.contains("labeling failed"));
    let (ok, _, stderr) = odburg(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

/// Writes a manifest of `rounds` copies of (demo, x86ish, riscish) jobs
/// into `dir` and returns its path.
fn mixed_manifest(dir: &std::path::Path, rounds: usize) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let rmw = dir.join("rmw.sx");
    std::fs::write(
        &rmw,
        "(StoreI8 (AddrLocalP @x) (AddI8 (LoadI8 (AddrLocalP @x)) (ConstI8 5)))\n",
    )
    .unwrap();
    let add = dir.join("add.sx");
    std::fs::write(
        &add,
        "(AddI4 (ConstI4 1) (MulI4 (ConstI4 3) (ConstI4 4)))\n",
    )
    .unwrap();
    let mut lines = String::new();
    for _ in 0..rounds {
        lines.push_str(&format!(
            "demo {rmw}\nx86ish {add}\nriscish {add}\n",
            rmw = rmw.display(),
            add = add.display()
        ));
    }
    let manifest = dir.join("jobs.txt");
    std::fs::write(&manifest, lines).unwrap();
    manifest
}

/// The counts of `serve`'s final accounting line: submitted, completed,
/// failed, rejected, shed and deadline-missed.
fn serve_counts(stdout: &str) -> [u64; 6] {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("serve: submitted "))
        .unwrap_or_else(|| panic!("no accounting line in:\n{stdout}"));
    let line = &line["serve: ".len()..];
    let counts: Vec<u64> = line
        .split(", ")
        .take(6)
        .map(|field| {
            let count = field.split_once(' ').and_then(|(_, n)| n.parse().ok());
            count.unwrap_or_else(|| panic!("bad field `{field}` in: {line}"))
        })
        .collect();
    counts.try_into().unwrap()
}

// String scanning is enough for the CLI's JSON: its strings hold no
// braces, brackets or escaped quotes.

/// The number after the first `"key":` in `json`.
fn json_number(json: &str, key: &str) -> f64 {
    let rest = json_after(json, &format!("\"{key}\":"));
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|e| panic!("`{key}` in {json}: {e}"))
}

/// The string after the first `"key":` in `json`.
fn json_str<'a>(json: &'a str, key: &str) -> &'a str {
    let rest = json_after(json, &format!("\"{key}\":\""));
    &rest[..rest.find('"').unwrap()]
}

/// The flat object after the first `"key":` in `json`, up to its first
/// closing brace.
fn json_object<'a>(json: &'a str, key: &str) -> &'a str {
    let rest = json_after(json, &format!("\"{key}\":{{"));
    &rest[..rest.find('}').unwrap()]
}

fn json_after<'a>(json: &'a str, pattern: &str) -> &'a str {
    let start = json
        .find(pattern)
        .unwrap_or_else(|| panic!("no `{pattern}` in {json}"));
    &json[start + pattern.len()..]
}

/// The top-level objects of the JSON array that `array` starts inside.
fn json_elements(array: &str) -> Vec<&str> {
    let (mut depth, mut start, mut elements) = (0, 0, Vec::new());
    for (i, c) in array.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    elements.push(&array[start..=i]);
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    elements
}

#[test]
fn cluster_serve_reports_every_shard_and_conserves_jobs() {
    let manifest = mixed_manifest(&std::env::temp_dir().join("odburg-cli-cluster"), 4);
    let (ok, stdout, stderr) = odburg(&[
        "cluster",
        "serve",
        manifest.to_str().unwrap(),
        "--shards=2",
        "--workers=1",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("[shard "), "{stdout}");
    for shard in ["shard 0: submitted", "shard 1: submitted"] {
        assert!(stdout.contains(shard), "missing `{shard}` in:\n{stdout}");
    }
    assert!(
        stdout.contains("cluster: 2 shards, submitted 12, completed 12, failed 0, "),
        "{stdout}"
    );
}

#[test]
fn serve_writes_metrics_and_trace_under_edf_and_fair() {
    let dir = std::env::temp_dir().join("odburg-cli-serve-telemetry");
    let manifest = mixed_manifest(&dir, 6);
    let metrics = dir.join("metrics.jsonl");
    let trace = dir.join("trace.json");
    let _ = std::fs::remove_file(&metrics);
    let _ = std::fs::remove_file(&trace);
    let (ok, stdout, stderr) = odburg(&[
        "serve",
        manifest.to_str().unwrap(),
        "--workers=2",
        "--deadline-ms=60000",
        "--shed",
        "--fair",
        &format!("--metrics-out={}", metrics.display()),
        &format!("--trace-out={}", trace.display()),
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains(&format!("wrote metrics: {}", metrics.display())),
        "{stdout}"
    );
    assert!(
        stdout.contains(&format!("wrote trace: {}", trace.display())),
        "{stdout}"
    );
    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    let mut records = jsonl.lines();
    let meta = records.next().unwrap_or_default();
    assert!(meta.starts_with("{\"type\":\"meta\""), "{meta}");
    assert_eq!(json_str(meta, "format"), "odburg-telemetry-v1");
    assert!(
        meta.contains("\"lanes\":[\"submit\",\"worker-0\",\"worker-1\",\"core\"]"),
        "{meta}"
    );
    // Conservation from the per-target registry records alone, and a
    // real latency histogram for every stage of every served target.
    let (mut sums, mut kinds) = ([0; 5], std::collections::BTreeSet::new());
    for record in records {
        if json_str(record, "type") == "event" {
            kinds.insert(json_str(record, "kind"));
            continue;
        }
        assert_eq!(json_str(record, "type"), "metrics", "{record}");
        let keys = ["submitted", "accepted", "rejected", "shed", "completed"];
        for (sum, key) in sums.iter_mut().zip(keys) {
            *sum += json_number(record, key) as u64;
        }
        if json_number(record, "completed") == 0.0 {
            continue;
        }
        for stage in ["queue_wait", "labeling", "reduce"] {
            let h = json_object(record, stage);
            let [p50, p99, max] = ["p50_ns", "p99_ns", "max_ns"].map(|q| json_number(h, q));
            assert!(json_number(h, "count") > 0.0, "{stage}: {record}");
            assert!(p50 <= p99 && p99 <= max, "{stage}: {record}");
        }
    }
    let [submitted, accepted, rejected, shed, completed] = sums;
    assert_eq!(submitted, 18, "{jsonl}");
    assert_eq!(submitted, accepted + rejected + shed, "{jsonl}");
    assert!(completed > 0, "{jsonl}");
    for kind in ["submit", "admit", "pop", "complete", "epoch_publish"] {
        assert!(kinds.contains(kind), "no `{kind}` event in {kinds:?}");
    }

    let trace = std::fs::read_to_string(&trace).unwrap();
    let mut phases = std::collections::BTreeSet::new();
    for event in json_elements(json_after(&trace, "\"traceEvents\":[")) {
        let phase = json_str(event, "ph");
        if phase == "X" {
            let (ts, dur) = (json_number(event, "ts"), json_number(event, "dur"));
            assert!(ts >= 0.0 && dur >= 0.0, "{event}");
        }
        phases.insert(phase);
    }
    for phase in ["M", "X", "i"] {
        assert!(phases.contains(phase), "no `{phase}` event in {trace}");
    }
}

#[test]
fn batch_reexports_tables_for_a_warm_second_run() {
    let dir = std::env::temp_dir().join("odburg-cli-batch-reexport");
    let tables_dir = dir.join("tables");
    let _ = std::fs::remove_dir_all(&tables_dir);
    std::fs::create_dir_all(&dir).unwrap();
    let tree = dir.join("rmw.sx");
    std::fs::write(
        &tree,
        "(StoreI8 (AddrLocalP @x) (AddI8 (LoadI8 (AddrLocalP @x)) (ConstI8 5)))\n",
    )
    .unwrap();
    let manifest = dir.join("jobs.txt");
    std::fs::write(&manifest, format!("demo {}\n", tree.display())).unwrap();
    let run = || {
        odburg(&[
            "batch",
            manifest.to_str().unwrap(),
            &format!("--tables-dir={}", tables_dir.display()),
        ])
    };

    // First run: cold, and shutdown exports demo's tables.
    let (ok, stdout, stderr) = run();
    assert!(ok, "{stderr}");
    assert!(stdout.contains(", cold,"), "{stdout}");
    assert!(tables_dir.join("demo.odbt").exists(), "{stdout}");

    // Second run: warm from that export, with no grow-path work.
    let (ok, stdout, stderr) = run();
    assert!(ok, "{stderr}");
    assert!(stdout.contains("target demo: 1 jobs"), "{stdout}");
    assert!(stdout.contains(" 0 misses, 0 states built,"), "{stdout}");
    assert!(stdout.contains(", warm,"), "{stdout}");
}
