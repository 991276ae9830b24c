//! Cross-crate integration: the full pipeline (MiniC → IR → label →
//! reduce → emit) for every target grammar and every benchmark program,
//! across all four selector implementations.

use std::sync::Arc;

use odburg::frontend::programs;
use odburg::prelude::*;

/// Runs one labeler over a forest and reduces; returns (cost, instrs).
fn run_reduction(
    forest: &Forest,
    normal: &Arc<NormalGrammar>,
    chooser: &dyn RuleChooser,
) -> (Cost, Vec<String>) {
    let red = odburg::codegen::reduce_forest(forest, normal, chooser)
        .expect("reduction must succeed after labeling");
    (red.total_cost, red.instructions)
}

#[test]
fn every_selector_handles_every_program_on_every_target() {
    for grammar in odburg::targets::all().into_iter().skip(1) {
        let normal = Arc::new(grammar.normalize());
        let stripped = Arc::new(
            grammar
                .without_dynamic_rules()
                .expect("targets keep fixed fallbacks")
                .normalize(),
        );
        let offline = Arc::new(
            OfflineAutomaton::build(stripped.clone(), OfflineConfig::default())
                .unwrap_or_else(|e| panic!("offline build for {}: {e}", grammar.name())),
        );

        let mut dp = DpLabeler::new(normal.clone());
        let mut od = OnDemandAutomaton::new(normal.clone());
        let mut off = OfflineLabeler::new(offline.clone());
        let mut mx = MacroExpander::new(normal.clone());
        let mut dp_stripped = DpLabeler::new(stripped.clone());

        for program in programs::all() {
            let forest = program.compile().expect("programs compile");
            let name = format!("{}/{}", grammar.name(), program.name);

            let dp_labeling = dp.label_forest(&forest).expect(&name);
            let (dp_cost, dp_instrs) = run_reduction(&forest, &normal, &dp_labeling);

            let od_labeling = od.label_forest(&forest).expect(&name);
            let od_chooser = od_labeling.chooser(&od);
            let (od_cost, od_instrs) = run_reduction(&forest, &normal, &od_chooser);

            // The on-demand automaton computes exactly the DP optimum —
            // same costs AND the same code.
            assert_eq!(dp_cost, od_cost, "{name}: dp vs ondemand cost");
            assert_eq!(dp_instrs, od_instrs, "{name}: dp vs ondemand code");

            // The offline automaton on the stripped grammar equals DP on
            // the stripped grammar, and can only be worse than full DP.
            let off_labeling = off.label_forest(&forest).expect(&name);
            let off_chooser = off_labeling.chooser(&*offline);
            let (off_cost, off_instrs) = run_reduction(&forest, &stripped, &off_chooser);
            let dps_labeling = dp_stripped.label_forest(&forest).expect(&name);
            let (dps_cost, dps_instrs) = run_reduction(&forest, &stripped, &dps_labeling);
            assert_eq!(off_cost, dps_cost, "{name}: offline vs stripped dp");
            assert_eq!(
                off_instrs, dps_instrs,
                "{name}: offline vs stripped dp code"
            );
            assert!(
                off_cost >= dp_cost,
                "{name}: stripping dynamic rules cannot improve cost"
            );

            // Macro expansion is the worst optimal-less baseline.
            let mx_labeling = mx.label_forest(&forest).expect(&name);
            let (mx_cost, mx_instrs) = run_reduction(&forest, &normal, &mx_labeling);
            assert!(
                mx_cost >= dp_cost,
                "{name}: macro expansion cannot beat the optimum"
            );
            assert!(!mx_instrs.is_empty(), "{name}: macro emitted nothing");
        }
    }
}

#[test]
fn emitted_code_renders_without_placeholders() {
    // Every template placeholder must resolve on the real grammars — an
    // unresolved `?…` means a template references an operand the rule
    // cannot see.
    for grammar in odburg::targets::all().into_iter().skip(1) {
        let normal = Arc::new(grammar.normalize());
        let mut dp = DpLabeler::new(normal.clone());
        for program in programs::all() {
            let forest = program.compile().unwrap();
            let labeling = dp.label_forest(&forest).unwrap();
            let red = odburg::codegen::reduce_forest(&forest, &normal, &labeling).unwrap();
            let bad = red.lint_rendering();
            assert!(
                bad.is_empty(),
                "{}/{}: unresolved placeholders in {:?}",
                grammar.name(),
                program.name,
                bad
            );
        }
    }
}

#[test]
fn relabeling_is_stable_and_all_hits() {
    let grammar = odburg::targets::x86ish();
    let normal = Arc::new(grammar.normalize());
    let forest = programs::combined_forest().unwrap();
    let mut od = OnDemandAutomaton::new(normal.clone());
    let first = od.label_forest(&forest).unwrap();
    od.reset_counters();
    let second = od.label_forest(&forest).unwrap();
    assert_eq!(first, second, "labeling must be deterministic");
    assert_eq!(
        od.counters().memo_misses,
        0,
        "second pass must be pure hits"
    );
}

#[test]
fn rmw_improves_code_on_matcherarch() {
    // The matcherarch benchmark is built to contain RMW opportunities;
    // the dynamic-cost grammar must beat the stripped grammar on it.
    let grammar = odburg::targets::x86ish();
    let normal = Arc::new(grammar.normalize());
    let stripped = Arc::new(grammar.without_dynamic_rules().unwrap().normalize());
    let forest = programs::by_name("matcherarch").unwrap().compile().unwrap();

    let mut dp_full = DpLabeler::new(normal.clone());
    let full_labeling = dp_full.label_forest(&forest).unwrap();
    let (full_cost, full_instrs) = run_reduction(&forest, &normal, &full_labeling);

    let mut dp_stripped = DpLabeler::new(stripped.clone());
    let s_labeling = dp_stripped.label_forest(&forest).unwrap();
    let (s_cost, s_instrs) = run_reduction(&forest, &stripped, &s_labeling);

    assert!(
        full_cost < s_cost,
        "dynamic rules must pay off: {full_cost} vs {s_cost}"
    );
    assert!(
        full_instrs.len() < s_instrs.len(),
        "dynamic rules must shrink code: {} vs {}",
        full_instrs.len(),
        s_instrs.len()
    );
    // And an actual RMW instruction must appear.
    assert!(
        full_instrs.iter().any(|i| i.contains(", (")),
        "expected a memory-destination instruction"
    );
}

#[test]
fn labelers_agree_on_sexpr_corpus() {
    // A hand-picked corpus of shapes that exercise helper nonterminals,
    // folded operands, and payload-dependent rules.
    let corpus = [
        "(StoreI8 (AddrLocalP @x) (ConstI8 7))",
        "(StoreI8 (AddrLocalP @x) (AddI8 (LoadI8 (AddrLocalP @x)) (ConstI8 1)))",
        "(StoreI8 (AddP (LoadP (AddrFrameP @p)) (MulI8 (LoadI8 (AddrLocalP @i)) (ConstI8 8))) (ConstI8 0))",
        "(BrLtI8 @L0 (LoadI8 (AddrLocalP @i)) (ConstI8 100))",
        "(RetI8 (MulI8 (LoadI8 (AddrLocalP @x)) (ConstI8 16)))",
        "(RetI8 (DivI8 (LoadI8 (AddrLocalP @x)) (LoadI8 (AddrLocalP @y))))",
        "(StoreF8 (AddrLocalP @f) (MulF8 (LoadF8 (AddrLocalP @f)) (ConstF8 #2.0)))",
    ];
    let grammar = odburg::targets::x86ish();
    let normal = Arc::new(grammar.normalize());
    let mut dp = DpLabeler::new(normal.clone());
    let mut od = OnDemandAutomaton::new(normal.clone());
    for src in corpus {
        let mut forest = Forest::new();
        let root = parse_sexpr(&mut forest, src).unwrap();
        forest.add_root(root);
        let dp_l = dp
            .label_forest(&forest)
            .unwrap_or_else(|e| panic!("{src}: {e}"));
        let od_l = od.label_forest(&forest).unwrap();
        let od_c = od_l.chooser(&od);
        let (c1, i1) = run_reduction(&forest, &normal, &dp_l);
        let (c2, i2) = run_reduction(&forest, &normal, &od_c);
        assert_eq!(c1, c2, "{src}");
        assert_eq!(i1, i2, "{src}");
    }
}
