//! Differential properties of the automaton's slot tables.
//!
//! Master and snapshots keep their transitions, projections and
//! signatures in one layout — per-operand-class projection arrays,
//! per-operator open-addressed transition groups and a signature slot
//! table, shared copy-on-write (`dense.rs` in `odburg_core`). These
//! properties check that layout against test-local hash tables built
//! from a snapshot's raw entries: every memoized key hits, near-miss
//! mutations of memoized keys and random unseen keys hit exactly when
//! the hash tables say so, and the signature probe agrees with a hash
//! map over the raw signatures. On top of the probes, the warm walk must
//! agree node for node with the master automaton's labeling and with the
//! snapshot's per-node lookups, and its selections must match the
//! `DpLabeler` oracle. All of it is checked over random grammars and
//! random forests and — because compaction rebuilds the tables from
//! remapped ids — across a compacting `MemoryBudget`'s epoch change. The
//! operand classes themselves are checked on the built-in grammars.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use odburg::grammar::{NormalRuleId, NtId};
use odburg::ir::{OpId, NUM_OPS};
use odburg::prelude::*;
use odburg::select::signature::SigId;
use odburg::select::{StateId, StateLookup};
use odburg::workloads::TreeSampler;

use common::{dp_reduction, random_grammar};

/// Labels `trees` sampled forests through a fresh shared automaton so
/// its snapshot memoizes a realistic mix of transitions, projections
/// and signatures.
fn warmed(seed: u64, trees: usize) -> (Arc<NormalGrammar>, Vec<Forest>, SharedOnDemand) {
    let normal = Arc::new(random_grammar(seed).normalize());
    let shared = SharedOnDemand::new(OnDemandAutomaton::new(Arc::clone(&normal)));
    let mut sampler = TreeSampler::new(&normal, seed ^ 0xD15E);
    let forests: Vec<Forest> = (0..trees).map(|_| sampler.sample_forest(6)).collect();
    for forest in &forests {
        shared.label_forest(forest).expect("sampled forests label");
    }
    (normal, forests, shared)
}

/// Transition key in raw form: `(op, kids, sig)`.
type RawKey = (u16, [u32; 2], u32);

/// Test-local hash tables over a snapshot's raw entries.
struct HashTables {
    transitions: HashMap<RawKey, StateId>,
    projections: HashMap<(StateId, u32), StateId>,
    signatures: HashMap<Vec<RuleCost>, SigId>,
}

impl HashTables {
    fn of(snap: &AutomatonSnapshot) -> Self {
        let stats = snap.stats();
        let tables = HashTables {
            transitions: snap
                .raw_transitions()
                .iter()
                .map(|t| ((t.op, t.kids, t.sig), t.state))
                .collect(),
            projections: snap
                .raw_projections()
                .iter()
                .map(|p| ((p.full, p.class), p.projection))
                .collect(),
            signatures: snap
                .raw_signatures()
                .into_iter()
                .enumerate()
                .map(|(id, costs)| (costs, SigId(id as u32)))
                .collect(),
        };
        // Raw entries are distinct and complete.
        assert_eq!(tables.transitions.len(), stats.transitions);
        assert_eq!(tables.projections.len(), stats.cached_projections);
        assert_eq!(tables.signatures.len(), stats.signatures);
        tables
    }

    fn transition(&self, (op, kids, sig): RawKey) -> Option<StateId> {
        self.transitions.get(&(op, kids, sig)).copied()
    }

    /// The projection of `full` as operand `pos` of operator `op`.
    fn projection(&self, normal: &NormalGrammar, (full, op, pos): ProjKey) -> Option<StateId> {
        let op = Op::from_id(OpId(op)).filter(|_| pos < 2)?;
        let class = normal.operand_class(op, pos as usize);
        self.projections.get(&(full, class)).copied()
    }
}

/// Projection key in raw form: `(full state, op, pos)`.
type ProjKey = (StateId, u16, u8);

/// Every memoized transition and projection hits, and single-component
/// mutations of every memoized key (a near-collision stress for the
/// open-addressed probe, an off-by-one for the class arrays) hit exactly
/// when the hash tables hold them.
fn assert_tables_agree(normal: &NormalGrammar, snap: &AutomatonSnapshot, hash: &HashTables) {
    assert!(
        !hash.transitions.is_empty(),
        "warmed snapshot has transitions"
    );
    for (&(op, kids, sig), &state) in &hash.transitions {
        assert_eq!(
            snap.lookup_raw(op, kids, sig),
            Some(state),
            "memoized key missed the slot probe"
        );
        for (dop, dk0, dk1, ds) in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)] {
            let key = (
                op.wrapping_add(dop),
                [kids[0].wrapping_add(dk0), kids[1].wrapping_add(dk1)],
                sig.wrapping_add(ds),
            );
            assert_eq!(
                snap.lookup_raw(key.0, key.1, key.2),
                hash.transition(key),
                "mutated key {key:?} disagrees"
            );
        }
    }
    // Every memoized projection answers at every operand position of
    // its class.
    for &op in normal.ops_used() {
        for pos in 0..op.arity() as u8 {
            let class = normal.operand_class(op, pos as usize);
            let op = op.id().0;
            for (&(full, _), &projection) in hash.projections.iter().filter(|(k, _)| k.1 == class) {
                assert_eq!(snap.project_raw(full, op, pos), Some(projection));
                for key in [
                    (StateId(full.0.wrapping_add(1)), op, pos),
                    (full, op.wrapping_add(1), pos),
                    (full, op, pos.wrapping_add(1)),
                ] {
                    assert_eq!(
                        snap.project_raw(key.0, key.1, key.2),
                        hash.projection(normal, key),
                        "mutated projection key {key:?} disagrees"
                    );
                }
            }
        }
    }
    for (costs, &id) in &hash.signatures {
        assert_eq!(snap.find_signature(costs), Some(id));
    }
}

/// Random keys and cost vectors — nearly all unseen — hit exactly when
/// the hash tables hold them.
fn assert_random_keys_agree(
    normal: &NormalGrammar,
    snap: &AutomatonSnapshot,
    hash: &HashTables,
    rng: &mut StdRng,
) {
    for _ in 0..32 {
        let key = (
            rng.gen_range(0..u16::MAX),
            [rng.gen_range(0..u32::MAX), rng.gen_range(0..u32::MAX)],
            rng.gen_range(0..u32::MAX),
        );
        assert_eq!(snap.lookup_raw(key.0, key.1, key.2), hash.transition(key));
        // Small ids land on the memoized ones far more often.
        let small = (
            rng.gen_range(0..64u16),
            [rng.gen_range(0..8u32), rng.gen_range(0..8u32)],
            rng.gen_range(0..4u32),
        );
        assert_eq!(
            snap.lookup_raw(small.0, small.1, small.2),
            hash.transition(small)
        );
        let proj = (
            StateId(rng.gen_range(0..8u32)),
            rng.gen_range(0..64u16),
            rng.gen_range(0..2u8),
        );
        assert_eq!(
            snap.project_raw(proj.0, proj.1, proj.2),
            hash.projection(normal, proj)
        );
    }
    for _ in 0..16 {
        let costs: Vec<RuleCost> = (0..rng.gen_range(0..4usize))
            .map(|_| {
                if rng.gen_bool(0.3) {
                    RuleCost::Infinite
                } else {
                    RuleCost::Finite(rng.gen_range(0..8))
                }
            })
            .collect();
        assert_eq!(
            snap.find_signature(&costs),
            hash.signatures.get(&costs).copied(),
            "signature probe disagrees on {costs:?}"
        );
    }
}

/// The warm walk over `forest` agrees node for node with the master
/// automaton's labeling of the same forest (the master rebuilt from the
/// snapshot, so both speak the snapshot's ids), and stops exactly where
/// the snapshot's own per-node lookups — signature probe, then
/// transition lookup — first miss or reach a dead state. A fully warm
/// forest resolves completely, and the master relabels it without a
/// miss.
fn assert_walk_agrees(
    normal: &NormalGrammar,
    snap: &AutomatonSnapshot,
    forest: &Forest,
    fully_warm: bool,
) {
    let walk = snap.label_warm(forest, &mut WorkCounters::new());
    let mut master = OnDemandAutomaton::from_snapshot(snap);
    let labeled = master.label_forest(forest).expect("sampled forests label");
    let labeled = labeled.states();

    let mut expected = Vec::new();
    let mut nocover = None;
    for (id, node) in forest.iter() {
        let op = node.op();
        let kids: Vec<StateId> = node.children().iter().map(|c| labeled[c.index()]).collect();
        let costs: Vec<RuleCost> = normal
            .dynamic_base_rules(op)
            .iter()
            .chain(normal.dynamic_chain_rules())
            .map(|&r| normal.rule_cost_at(r, forest, id))
            .collect();
        let Some(sig) = snap.find_signature(&costs) else {
            break;
        };
        let Some(state) = snap.lookup(op, &kids, sig) else {
            break;
        };
        if snap.state(state).is_dead() {
            nocover = Some(id);
            break;
        }
        assert_eq!(state, labeled[id.index()], "snapshot and master disagree");
        expected.push(state);
    }
    assert_eq!(walk.states, expected, "walk prefix diverges");
    assert_eq!(walk.nocover, nocover, "walk NoCover outcomes diverge");
    if fully_warm {
        assert_eq!(walk.states.len(), forest.len(), "warm forest missed");
        assert!(walk.nocover.is_none());
        assert_eq!(master.counters().memo_misses, 0, "master missed");
    }
}

/// Selections read from a warm walk's states through the snapshot.
struct WalkChooser<'a> {
    snap: &'a AutomatonSnapshot,
    states: &'a [StateId],
}

impl RuleChooser for WalkChooser<'_> {
    fn rule_for(&self, node: NodeId, nt: NtId) -> Option<NormalRuleId> {
        self.snap.rule_in_state(self.states[node.index()], nt)
    }
}

/// The warm walk's selections match the `DpLabeler` oracle: identical
/// instructions at identical total cost.
fn assert_selections_match_dp(
    normal: &Arc<NormalGrammar>,
    snap: &AutomatonSnapshot,
    forest: &Forest,
) {
    let walk = snap.label_warm(forest, &mut WorkCounters::new());
    assert_eq!(walk.states.len(), forest.len(), "warm forest missed");
    let chooser = WalkChooser {
        snap,
        states: &walk.states,
    };
    let got = reduce_forest(forest, normal, &chooser).expect("warm walk reduces");
    let expected = dp_reduction(forest, normal);
    assert_eq!(got.instructions, expected.instructions);
    assert_eq!(got.total_cost, expected.total_cost);
}

/// Everything above, on one snapshot and its warm forests.
fn assert_snapshot_agrees(
    normal: &Arc<NormalGrammar>,
    snap: &AutomatonSnapshot,
    warm: &[Forest],
    rng: &mut StdRng,
) {
    let hash = HashTables::of(snap);
    assert_tables_agree(normal, snap, &hash);
    assert_random_keys_agree(normal, snap, &hash, rng);
    for forest in warm {
        assert_walk_agrees(normal, snap, forest, true);
        assert_selections_match_dp(normal, snap, forest);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Class arrays and slot tables vs hash tables on every memoized
    /// key, near-miss mutations of them, random unseen keys and the
    /// signature probe; warm walks vs the master and the DP oracle.
    #[test]
    fn dense_index_agrees_with_hash_tables(seed in 0u64..(1u64 << 48)) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA9EE);
        let (normal, forests, shared) = warmed(seed, 10);
        assert_snapshot_agrees(&normal, &shared.snapshot(), &forests, &mut rng);
    }

    /// A forest the snapshot has never seen stops the warm walk exactly
    /// where the snapshot's per-node lookups first miss, with the
    /// master's states as the prefix (the resume contract of the grow
    /// path).
    #[test]
    fn unseen_forests_miss_identically(seed in 0u64..(1u64 << 48)) {
        let (normal, _, shared) = warmed(seed, 4);
        let snap = shared.snapshot();
        let mut sampler = TreeSampler::new(&normal, seed ^ 0xF4E57);
        for _ in 0..6 {
            let fresh = sampler.sample_forest(6);
            assert_walk_agrees(&normal, &snap, &fresh, false);
        }
    }

    /// Compaction rebuilds the tables over a remapped state arena (new
    /// `StateId`s, retained-entry subsets): the rebuilt tables must
    /// satisfy exactly the same agreement properties as the original.
    #[test]
    fn dense_index_survives_compact_rebuild(seed in 0u64..(1u64 << 48)) {
        // Measure how big the warm tables get, then replay the same
        // workload under half that budget so compaction must trigger.
        let (normal, forests, shared) = warmed(seed, 14);
        let full_bytes = shared.accounted_bytes().total();
        let compacting = SharedOnDemand::new(OnDemandAutomaton::with_config(
            Arc::clone(&normal),
            OnDemandConfig {
                memory_budget: Some(MemoryBudget::compact((full_bytes / 2).max(2048), 0.5)),
                ..OnDemandConfig::default()
            },
        ));
        let mut sampler = TreeSampler::new(&normal, seed ^ 0xC0117AC7);
        for forest in &forests {
            compacting.label_forest(forest).expect("labels under budget");
        }
        for _ in 0..10 {
            let forest = sampler.sample_forest(8);
            compacting.label_forest(&forest).expect("labels under budget");
        }
        // Tiny grammars can stay under the floor budget; the rebuilt
        // tables are only observable when compaction actually ran.
        if compacting.counters().compactions > 0 {
            let snap = compacting.snapshot();
            prop_assert!(snap.epoch() > 0, "compaction advances the epoch");
            // Forests labeled through the compacting automaton most
            // recently are warm in the fresh epoch.
            let warm = sampler.sample_forest(8);
            compacting.label_forest(&warm).expect("labels");
            let snap = compacting.snapshot();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0);
            assert_snapshot_agrees(&normal, &snap, &[warm], &mut rng);
        }
    }
}

/// Operand classes partition the operand positions exactly by operand
/// set: on every built-in grammar two `(op, pos)` pairs share a class if
/// and only if their operand nonterminals are equal. Class ids follow
/// first appearance over both positions of the used operators, and every
/// other operator maps to the class of the empty set.
#[test]
fn operand_classes_follow_operand_sets() {
    for grammar in odburg::targets::all() {
        let normal = grammar.normalize();
        let name = normal.name().to_owned();
        let positions: Vec<(Op, usize)> = normal
            .ops_used()
            .iter()
            .flat_map(|&op| [(op, 0), (op, 1)])
            .collect();
        let mut seen = 0u32;
        for &(a, i) in &positions {
            let class = normal.operand_class(a, i);
            assert!(class <= seen, "{name}: class {class} out of order");
            seen = seen.max(class + 1);
            assert_eq!(
                normal.operand_nts(a, i).is_empty(),
                i >= a.arity(),
                "{name}: {a}/{i}"
            );
            for &(b, j) in &positions {
                assert_eq!(
                    class == normal.operand_class(b, j),
                    normal.operand_nts(a, i) == normal.operand_nts(b, j),
                    "{name}: {a}/{i} vs {b}/{j}"
                );
            }
        }
        assert_eq!(normal.operand_classes().len(), seen as usize, "{name}");
        let used = |id: usize| {
            normal
                .ops_used()
                .iter()
                .any(|op| usize::from(op.id().0) == id)
        };
        let empty = positions.iter().find(|&&(op, pos)| pos >= op.arity());
        let empty = empty.map(|&(op, pos)| normal.operand_class(op, pos));
        for id in 0..NUM_OPS as u16 {
            match Op::from_id(OpId(id)) {
                Some(op) if !used(id.into()) => {
                    let classes = [0, 1].map(|pos| Some(normal.operand_class(op, pos)));
                    assert_eq!(classes, [empty; 2], "{name}: op {op}");
                }
                _ => {}
            }
        }
    }
}

/// The warm walk on fully warmed tables, over every built-in target: a
/// sampled forest of 400 trees, labeled once through the shared
/// automaton, is answered by the published snapshot with zero misses and
/// no `NoCover`, and the walk's states equal the master automaton's
/// labeling of the same forest (the shared automaton's own, and a
/// single-threaded automaton's fed the same forest).
#[test]
fn warm_walk_answers_every_built_in_without_a_miss() {
    const SEED: u64 = 0x0db * 1_000_003;
    for grammar in odburg::targets::all() {
        let normal = Arc::new(grammar.normalize());
        let name = normal.name().to_owned();
        let forest = TreeSampler::new(&normal, SEED).sample_forest(400);
        let shared = SharedOnDemand::new(OnDemandAutomaton::new(Arc::clone(&normal)));
        let labeled = shared.label_forest(&forest).expect("workload labels");
        let mut single = OnDemandAutomaton::new(Arc::clone(&normal));
        let single = single.label_forest(&forest).expect("workload labels");

        let mut counters = WorkCounters::new();
        let walk = shared.snapshot().label_warm(&forest, &mut counters);
        assert!(walk.nocover.is_none(), "{name}: warm walk hit NoCover");
        assert_eq!(walk.states.len(), forest.len(), "{name}: warm misses");
        assert_eq!(counters.memo_hits, forest.len() as u64, "{name}");
        assert_eq!(walk.states, labeled.states(), "{name}: shared master");
        assert_eq!(walk.states, single.states(), "{name}: single master");
    }
}

/// A node's dynamic costs are evaluated once, on the grow path too: the
/// probe that stops at a node hands the costs it evaluated to the miss
/// step. So a cold pass over the MiniC suite (one forest) counts exactly
/// the `dyncost_evals` of a warm relabel, on the single-threaded
/// automaton and on a fresh shared one.
#[test]
fn a_cold_pass_evaluates_each_dynamic_cost_once() {
    let suite = odburg::workloads::combined_workload().forest;
    for name in ["x86ish", "riscish", "jvmish"] {
        let normal = Arc::new(odburg::targets::by_name(name).unwrap().normalize());
        let mut single = OnDemandAutomaton::new(Arc::clone(&normal));
        single.label_forest(&suite).expect("suite labels");
        let cold = single.counters().dyncost_evals;
        single.reset_counters();
        single.label_forest(&suite).expect("suite relabels");
        let warm = single.counters();
        assert_eq!(warm.memo_misses, 0, "{name}: the relabel is warm");
        assert!(warm.dyncost_evals > 0, "{name}");
        assert_eq!(cold, warm.dyncost_evals, "{name}: single-threaded");

        let shared = SharedOnDemand::new(OnDemandAutomaton::new(normal));
        shared.label_forest(&suite).expect("suite labels");
        let evals = shared.counters().dyncost_evals;
        assert_eq!(evals, warm.dyncost_evals, "{name}: shared");
    }
}
