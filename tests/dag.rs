//! DAG instruction selection: tree grammars over hash-consed IR
//! (the Ertl-1999 extension the paper's system family supports).

use std::sync::Arc;

use odburg::frontend::programs;
use odburg::ir::cse_forest;
use odburg::prelude::*;

#[test]
fn dag_labeling_matches_tree_labeling_costs() {
    // Labeling a CSE'd forest must assign every shared node the same
    // state a tree labeler would, so per-root optimal costs agree.
    let grammar = odburg::targets::x86ish();
    let normal = Arc::new(grammar.normalize());
    for program in programs::all() {
        let tree = program.compile().unwrap();
        let dag = cse_forest(&tree);
        assert!(dag.len() <= tree.len());

        let mut dp = DpLabeler::new(normal.clone());
        let tree_labeling = dp.label_forest(&tree).unwrap();
        let dag_labeling = dp.label_forest(&dag).unwrap();
        for (t_root, d_root) in tree.roots().iter().zip(dag.roots()) {
            assert_eq!(
                tree_labeling.cost_of(*t_root, normal.start()),
                dag_labeling.cost_of(*d_root, normal.start()),
                "{}: root cost differs between tree and DAG",
                program.name
            );
        }
    }
}

#[test]
fn dag_reduction_emits_shared_subtrees_once() {
    let grammar = odburg::targets::x86ish();
    let normal = Arc::new(grammar.normalize());
    // Two statements recomputing the same expensive product.
    let mut forest = Forest::new();
    let r1 = parse_sexpr(
        &mut forest,
        "(StoreI8 (AddrLocalP @a) (MulI8 (LoadI8 (AddrLocalP @x)) (LoadI8 (AddrLocalP @y))))",
    )
    .unwrap();
    let r2 = parse_sexpr(
        &mut forest,
        "(StoreI8 (AddrLocalP @b) (MulI8 (LoadI8 (AddrLocalP @x)) (LoadI8 (AddrLocalP @y))))",
    )
    .unwrap();
    forest.add_root(r1);
    forest.add_root(r2);
    let dag = cse_forest(&forest);
    assert!(dag.len() < forest.len());

    let mut od = OnDemandAutomaton::new(normal.clone());
    let tree_labeling = od.label_forest(&forest).unwrap();
    let tree_chooser = tree_labeling.chooser(&od);
    let tree_red = odburg::codegen::reduce_forest(&forest, &normal, &tree_chooser).unwrap();

    let dag_labeling = od.label_forest(&dag).unwrap();
    let dag_chooser = dag_labeling.chooser(&od);
    let dag_red = odburg::codegen::reduce_forest(&dag, &normal, &dag_chooser).unwrap();

    assert!(
        dag_red.len() < tree_red.len(),
        "sharing must save instructions: {} vs {}",
        dag_red.len(),
        tree_red.len()
    );
    assert!(dag_red.total_cost < tree_red.total_cost);
    // The shared product must appear exactly once.
    let muls = |r: &odburg::codegen::Reduction| {
        r.instructions
            .iter()
            .filter(|i| i.starts_with("imul"))
            .count()
    };
    assert_eq!(muls(&tree_red), 2);
    assert_eq!(muls(&dag_red), 1);
}

#[test]
fn rmw_dynamic_cost_sees_shared_address_identity() {
    // On a DAG the RMW address check is plain node identity — the fast
    // path the paper family mentions for DAG matchers.
    let grammar = odburg::targets::x86ish();
    let normal = Arc::new(grammar.normalize());
    let mut forest = Forest::new();
    let root = parse_sexpr(
        &mut forest,
        "(StoreI8 (AddrLocalP @x) (AddI8 (LoadI8 (AddrLocalP @x)) (ConstI8 1)))",
    )
    .unwrap();
    forest.add_root(root);
    let dag = cse_forest(&forest);

    let mut od = OnDemandAutomaton::new(normal.clone());
    let labeling = od.label_forest(&dag).unwrap();
    let chooser = labeling.chooser(&od);
    let red = odburg::codegen::reduce_forest(&dag, &normal, &chooser).unwrap();
    assert!(
        red.instructions.iter().any(|i| i.starts_with("addq")),
        "RMW must fire on the shared-address DAG: {:?}",
        red.instructions
    );
}

#[test]
fn service_labels_shared_dag_nodes_once_and_agrees_with_trees() {
    let grammar = odburg::targets::x86ish();
    let normal = Arc::new(grammar.normalize());

    // Two statements recomputing the same expensive product; CSE shares
    // the product subtree.
    let mut tree = Forest::new();
    for local in ["@a", "@b"] {
        let root = parse_sexpr(
            &mut tree,
            &format!(
                "(StoreI8 (AddrLocalP {local}) \
                 (MulI8 (LoadI8 (AddrLocalP @x)) (LoadI8 (AddrLocalP @y))))"
            ),
        )
        .unwrap();
        tree.add_root(root);
    }
    let dag = cse_forest(&tree);
    assert!(dag.len() < tree.len(), "CSE must share something");

    let server = SelectorServer::with_builtin_targets(ServerConfig {
        workers: 2,
        queue_cap: usize::MAX,
        ..ServerConfig::default()
    });
    let master = server.shared("x86ish").unwrap();
    let cold = server.try_submit("x86ish", dag.clone()).unwrap().wait();
    assert!(cold.outcome.is_ok());
    assert_eq!(cold.forest.len(), dag.len());

    // Shared nodes are labeled exactly once: a second submission of the
    // DAG is answered with exactly one memo hit per DAG node — not one
    // per tree occurrence — and no misses.
    server.wait_idle();
    let before = master.counters();
    assert!(server
        .try_submit("x86ish", dag.clone())
        .unwrap()
        .wait()
        .outcome
        .is_ok());
    let warm = master.counters().since(&before);
    assert_eq!(warm.nodes, dag.len() as u64, "{warm:?}");
    assert_eq!(warm.memo_hits, dag.len() as u64, "{warm:?}");
    assert_eq!(warm.memo_misses, 0, "{warm:?}");

    // The service's DAG reduction is bit-identical (instructions and
    // cost) to a fresh DP-oracle reduction of the same DAG…
    let service_red = cold.reduce().unwrap();
    let mut dp = DpLabeler::new(normal.clone());
    let dp_labeling = dp.label_forest(&dag).unwrap();
    let oracle_red = odburg::codegen::reduce_forest(&dag, &normal, &dp_labeling).unwrap();
    assert_eq!(service_red.instructions, oracle_red.instructions);
    assert_eq!(service_red.total_cost, oracle_red.total_cost);

    // …and per-root optimal costs agree with the un-shared tree forest
    // (sharing changes emission, never the selected derivations' costs).
    let tree_labeling = dp.label_forest(&tree).unwrap();
    for (t_root, d_root) in tree.roots().iter().zip(dag.roots()) {
        assert_eq!(
            tree_labeling.cost_of(*t_root, normal.start()),
            dp_labeling.cost_of(*d_root, normal.start()),
        );
    }
    // The shared product is emitted exactly once through the service.
    let muls = service_red
        .instructions
        .iter()
        .filter(|i| i.starts_with("imul"))
        .count();
    assert_eq!(muls, 1, "{:?}", service_red.instructions);
}

#[test]
fn whole_suite_compiles_as_dags() {
    let grammar = odburg::targets::riscish();
    let normal = Arc::new(grammar.normalize());
    let mut od = OnDemandAutomaton::new(normal.clone());
    for program in programs::all() {
        let dag = cse_forest(&program.compile().unwrap());
        let labeling = od.label_forest(&dag).unwrap();
        let chooser = labeling.chooser(&od);
        let red = odburg::codegen::reduce_forest(&dag, &normal, &chooser)
            .unwrap_or_else(|e| panic!("{}: {e}", program.name));
        assert!(!red.is_empty());
    }
}
