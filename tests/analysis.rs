//! Property-based testing of the grammar verifier: defects injected into
//! random grammars must be detected, completeness witnesses must be
//! *executable* (the DP oracle reproduces the failure), and grammars the
//! verifier calls complete must never fail selection on their own
//! workloads.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use odburg::grammar::analysis::{self, Code, Witness};
use odburg::prelude::*;
use odburg::workloads::TreeSampler;

use common::random_grammar;

/// Renders a grammar back to DSL text so defects can be injected as
/// appended lines (round-tripping is covered by `random_grammars.rs`).
fn dsl_of(grammar: &Grammar) -> String {
    grammar.to_string()
}

fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code.as_str()).collect()
}

/// Asserts that a G0003 witness really is executable: labeling the
/// witness forest with the DP oracle fails with `NoCover`.
fn assert_witness_reproduces_nocover(normal: &Arc<NormalGrammar>, diag: &Diagnostic) {
    let Some(Witness::NoCover { forest, root }) = &diag.witness else {
        panic!("G0003 diagnostic without a NoCover witness: {diag}");
    };
    assert_eq!(forest.roots(), &[*root], "witness forest has one root");
    let mut dp = DpLabeler::new(Arc::clone(normal));
    match dp.label_forest(forest) {
        Err(LabelError::NoCover { .. }) => {}
        other => panic!("witness for `{diag}` did not reproduce NoCover: {other:?}"),
    }
}

#[test]
fn cross_product_hole_yields_an_executable_witness() {
    // Store covers (a, b) and (b, a) but not (a, a): the canonical
    // cross-product incompleteness. The witness must fail the DP oracle.
    let grammar = parse_grammar(
        "%start stmt\na: ConstI8 (1)\nb: ConstI4 (1)\n\
         stmt: StoreI8(a, b) (1)\nstmt: StoreI8(b, a) (1)\n",
    )
    .unwrap();
    let normal = Arc::new(grammar.normalize());
    let diags = analysis::analyze(&normal);
    let g0003: Vec<_> = diags
        .iter()
        .filter(|d| d.code == Code::IncompleteOperator)
        .collect();
    assert_eq!(g0003.len(), 1, "{diags:?}");
    assert_eq!(g0003[0].severity, Severity::Error);
    assert_witness_reproduces_nocover(&normal, g0003[0]);
}

/// Asserts that a converged bound counts the states of the offline
/// automaton built from the same dynamic-free grammar, and that its
/// per-operator counts partition them.
fn assert_bound_is_the_offline_size(normal: &NormalGrammar, bound: &analysis::StateBound) {
    let offline = OfflineAutomaton::build(Arc::new(normal.clone()), OfflineConfig::default())
        .unwrap_or_else(|e| panic!("{}: offline build failed: {e}", normal.name()));
    assert_eq!(bound.states, offline.num_states(), "{}", normal.name());
    let per_op: usize = bound.per_op.iter().map(|&(_, n)| n).sum();
    assert_eq!(
        per_op,
        bound.states,
        "{}: {:?}",
        normal.name(),
        bound.per_op
    );
}

#[test]
fn state_bound_is_the_offline_automaton_size() {
    // The verifier and the offline automaton run one closure: on a grammar
    // without dynamic rules the bound is the automaton's state count.
    let fixture = parse_grammar(include_str!("../fixtures/broken.burg")).unwrap();
    let fixed: Vec<NormalGrammar> = odburg::targets::all()
        .iter()
        .map(|g| g.normalize().strip_dynamic().unwrap())
        .chain([fixture.normalize()])
        .collect();
    for normal in &fixed {
        let full = analysis::analyze_full(normal);
        let bound = full
            .state_bound
            .unwrap_or_else(|| panic!("{} did not converge", normal.name()));
        assert_bound_is_the_offline_size(normal, &bound);
    }
    let mut converged = 0;
    for seed in 0..200 {
        let normal = random_grammar(seed).normalize();
        if normal.has_dynamic_rules() {
            continue;
        }
        if let Some(bound) = analysis::analyze_full(&normal).state_bound {
            assert_bound_is_the_offline_size(&normal, &bound);
            converged += 1;
        }
    }
    assert!(
        converged >= 70,
        "only {converged} dynamic-free seeds converged"
    );
}

/// FNV-1a, as `tests/persist.rs` hashes its golden export.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The offline automaton of every stripped built-in, pinned: its size
/// (`states`, `representers`, `transition_entries`), the exact bytes
/// `odburg generate <target>` prints (length and FNV-1a), and the
/// accounted bytes of the tables its labeler reads (`OfflineStats::bytes`).
/// A change to the closure or to the offline table layout must reproduce
/// all six.
#[test]
fn offline_tables_of_the_built_ins_are_pinned() {
    let golden: [(&str, [usize; 3], (usize, u64)); 6] = [
        ("demo", [6, 10, 3], (4_712, 0xed6a_68c2_f577_ab01)),
        ("x86ish", [101, 240, 94], (84_349, 0x2166_74ab_d7ae_c5ad)),
        ("riscish", [73, 210, 65], (60_358, 0x113a_a102_96ad_b446)),
        ("sparcish", [73, 210, 65], (60_361, 0x58d3_e625_a6ae_2757)),
        ("alphaish", [74, 211, 66], (61_552, 0x4ab7_cc53_8ac5_8632)),
        ("jvmish", [38, 100, 32], (22_786, 0xfe80_bc21_1ada_8eb6)),
    ];
    let table_bytes = [3_464, 39_800, 22_316, 22_316, 23_432, 12_056];
    let built_ins = odburg::targets::all();
    assert_eq!(built_ins.len(), golden.len());
    let golden = golden.into_iter().zip(table_bytes);
    for (grammar, ((name, size, bytes), table_bytes)) in built_ins.iter().zip(golden) {
        assert_eq!(grammar.name(), name);
        let stripped = Arc::new(grammar.without_dynamic_rules().unwrap().normalize());
        let auto = OfflineAutomaton::build(stripped, OfflineConfig::default()).unwrap();
        let s = auto.stats();
        assert_eq!(
            [s.states, s.representers, s.transition_entries],
            size,
            "{name}"
        );
        let src = odburg::select::generate_rust(&auto, &format!("odburg generate {name}"));
        assert_eq!((src.len(), fnv1a(src.as_bytes())), bytes, "{name}");
        assert_eq!(s.bytes, table_bytes, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn injected_defects_are_detected(seed in 0u64..100_000) {
        // Append one defect of each class to a random well-formed
        // grammar; the verifier must flag every one of them, whatever
        // else it finds in the random part.
        let base = dsl_of(&random_grammar(seed));
        let defective = format!(
            "{base}\n\
             # injected: shadowed rule (G0004)\n\
             zz_sh: ConstI8 (1)\n\
             zz_sh: ConstI8 (3)\n\
             # injected: underivable nonterminal (G0001)\n\
             zz_und: LoadI8(zz_und) (1)\n\
             # injected: zero-cost chain cycle (G0005) + unreachable (G0002)\n\
             zz_cyc_a: ConstI8 (1)\n\
             zz_cyc_a: zz_cyc_b (0)\n\
             zz_cyc_b: zz_cyc_a (0)\n\
             # injected: cross-product completeness hole (G0003)\n\
             zz_ga: ConstI4 (1)\n\
             zz_gb: ConstI2 (1)\n\
             zz_gs: StoreI4(zz_ga, zz_gb) (1)\n\
             zz_gs: StoreI4(zz_gb, zz_ga) (1)\n"
        );
        let grammar = parse_grammar(&defective)
            .unwrap_or_else(|e| panic!("defective grammar must still parse: {e}\n{defective}"));
        let normal = Arc::new(grammar.normalize());
        let diags = analysis::analyze(&normal);

        let has = |code: Code, subject: &str| {
            diags.iter().any(|d| d.code == code && d.message.contains(subject))
        };
        prop_assert!(has(Code::DominatedRule, "zz_sh"), "{:?}", codes(&diags));
        prop_assert!(has(Code::UnderivableNonterminal, "zz_und"), "{:?}", codes(&diags));
        prop_assert!(has(Code::ZeroCostChainCycle, "zz_cyc_a"), "{:?}", codes(&diags));
        prop_assert!(has(Code::UnreachableNonterminal, "zz_cyc_b"), "{:?}", codes(&diags));
        prop_assert!(has(Code::IncompleteOperator, "StoreI4"), "{:?}", codes(&diags));

        // The injected hole's witness is executable regardless of what
        // the random part contains: StoreI4's operands derive only the
        // injected nonterminals, so the DP oracle must fail on it.
        let hole = diags
            .iter()
            .find(|d| d.code == Code::IncompleteOperator && d.message.contains("StoreI4"))
            .unwrap();
        assert_witness_reproduces_nocover(&normal, hole);
    }

    #[test]
    fn g0003_witnesses_reproduce_nocover(seed in 0u64..100_000) {
        // Whatever completeness holes the verifier finds in a raw random
        // grammar, every witness it attaches must reproduce the failure.
        let grammar = random_grammar(seed);
        let normal = Arc::new(grammar.normalize());
        let diags = analysis::analyze(&normal);
        for d in diags.iter().filter(|d| d.code == Code::IncompleteOperator) {
            if d.severity == Severity::Error {
                // Error severity means no dynamic rule could save the
                // tree: the oracle must agree unconditionally.
                assert_witness_reproduces_nocover(&normal, d);
            }
        }
    }

    #[test]
    fn verifier_complete_grammars_never_nocover(seed in 0u64..100_000) {
        // Soundness direction: when the verifier reports no completeness
        // hole (and its exploration neither diverged nor truncated), the
        // grammar's own workloads must never fail selection.
        let grammar = random_grammar(seed);
        let normal = Arc::new(grammar.normalize());
        let full = analysis::analyze_full(&normal);
        let suspect = full.diagnostics.iter().any(|d| {
            matches!(
                d.code,
                Code::IncompleteOperator | Code::CostDivergence | Code::AnalysisTruncated
            )
        });
        if suspect {
            // Nothing to check: the verifier itself says selection may
            // fail (or it could not finish exploring).
            return Ok(());
        }
        let mut sampler = TreeSampler::new(&normal, seed ^ 0xC0FFEE);
        let forest = sampler.sample_forest(40);
        let mut dp = DpLabeler::new(Arc::clone(&normal));
        match dp.label_forest(&forest) {
            Ok(_) => {}
            Err(LabelError::NoCover { op, .. }) => {
                prop_assert!(false, "verifier-clean grammar seed {seed} NoCovered at {op}");
            }
            Err(other) => prop_assert!(false, "unexpected label error: {other}"),
        }
    }

    #[test]
    fn diagnostics_are_deterministic(seed in 0u64..100_000) {
        // Two runs over the same grammar agree exactly — codes, order,
        // messages, payloads (the CLI and CI depend on stable output).
        let normal = random_grammar(seed).normalize();
        let a = analysis::analyze(&normal);
        let b = analysis::analyze(&normal);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
