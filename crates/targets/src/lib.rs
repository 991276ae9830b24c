//! Machine descriptions for the `odburg` instruction selector.
//!
//! Six targets, standing in for the grammars the paper family evaluates
//! on (lcc's x86/MIPS/SPARC/Alpha grammars and the CACAO AMD64 grammar):
//!
//! | target | style | flavour |
//! |--------|-------|---------|
//! | [`demo`]     | the running example + 2 address rules | AMD64 |
//! | [`x86ish`]   | CISC: memory operands, RMW stores, scaled indexing | lcc x86linux.md |
//! | [`riscish`]  | load/store, 16-bit immediates | lcc mips.md |
//! | [`sparcish`] | load/store, 13-bit immediates, spill-offset example | lcc sparc.md |
//! | [`alphaish`] | load/store, 8-bit literals, scaled adds | lcc alpha.md |
//! | [`jvmish`]   | small JIT grammar | CACAO AMD64 |
//!
//! Every dynamic-cost rule uses its dynamic cost as an *applicability
//! test*, mirroring the empirical observation (from the paper family)
//! that nearly all dynamic costs in real lburg grammars are applicability
//! tests. The implementations live in [`dyncosts`].
//!
//! # Examples
//!
//! ```
//! let g = odburg_targets::x86ish();
//! assert!(g.rules().len() > 100);
//! let names = odburg_targets::TARGET_NAMES;
//! assert!(names.contains(&"x86ish"));
//! ```

pub mod dyncosts;

use std::sync::Arc;

use odburg_grammar::{parse_grammar, DynCostFn, Grammar};

/// The names of all built-in targets, in presentation order.
pub const TARGET_NAMES: [&str; 6] = [
    "demo", "x86ish", "riscish", "sparcish", "alphaish", "jvmish",
];

fn build(name: &str, text: &str, bindings: &[(&str, DynCostFn)]) -> Grammar {
    let mut g = parse_grammar(text)
        .unwrap_or_else(|e| panic!("built-in grammar `{name}` failed to parse: {e}"));
    for (dc_name, func) in bindings {
        g.bind_dyncost(dc_name, func.clone())
            .unwrap_or_else(|e| panic!("grammar `{name}`: {e}"));
    }
    g
}

fn f(func: fn(&odburg_ir::Forest, odburg_ir::NodeId) -> odburg_grammar::RuleCost) -> DynCostFn {
    Arc::new(func)
}

/// The 6-rule running example of the paper family, with the
/// read-modify-write rule guarded by a `memop` dynamic cost.
pub fn demo() -> Grammar {
    build(
        "demo",
        include_str!("../grammars/demo.burg"),
        &[("memop", f(dyncosts::memop_left))],
    )
}

/// The CISC grammar: memory operands, RMW stores, scaled-index addressing,
/// 8/32-bit immediate tests, strength reduction.
pub fn x86ish() -> Grammar {
    build(
        "x86ish",
        include_str!("../grammars/x86ish.burg"),
        &[
            ("imm32", f(dyncosts::imm32)),
            ("memop_add", f(dyncosts::memop_left)),
            ("memop_add_r", f(dyncosts::memop_right)),
            ("memop_sub", f(dyncosts::memop_left)),
            ("memop_and", f(dyncosts::memop_left)),
            ("memop_or", f(dyncosts::memop_left)),
            ("memop_xor", f(dyncosts::memop_left)),
            ("scale_index", f(dyncosts::scale_index)),
            ("mul_pow2", f(dyncosts::mul_pow2)),
        ],
    )
}

/// The MIPS-flavoured load/store grammar with 16-bit immediate tests.
pub fn riscish() -> Grammar {
    build(
        "riscish",
        include_str!("../grammars/riscish.burg"),
        &[
            ("imm16", f(dyncosts::imm16)),
            ("addr_disp16", f(dyncosts::addr_disp16)),
            ("zero_const", f(dyncosts::zero_const)),
        ],
    )
}

/// The SPARC-flavoured grammar with 13-bit immediates and the
/// spill-offset dynamic-cost example.
pub fn sparcish() -> Grammar {
    build(
        "sparcish",
        include_str!("../grammars/sparcish.burg"),
        &[
            ("imm13", f(dyncosts::imm13)),
            ("addr_disp13", f(dyncosts::addr_disp13)),
            ("off13", f(dyncosts::off13)),
        ],
    )
}

/// The Alpha-flavoured grammar with 8-bit literals and scaled adds.
pub fn alphaish() -> Grammar {
    build(
        "alphaish",
        include_str!("../grammars/alphaish.burg"),
        &[
            ("lit8", f(dyncosts::imm8)),
            ("addr_disp16", f(dyncosts::addr_disp16)),
            ("alpha_scale", f(dyncosts::alpha_scale)),
            ("zero_const", f(dyncosts::zero_const)),
        ],
    )
}

/// The small CACAO-sized JIT grammar.
pub fn jvmish() -> Grammar {
    build(
        "jvmish",
        include_str!("../grammars/jvmish.burg"),
        &[
            ("imm32", f(dyncosts::imm32)),
            ("memop_add", f(dyncosts::memop_left)),
        ],
    )
}

/// All built-in targets, in [`TARGET_NAMES`] order.
pub fn all() -> Vec<Grammar> {
    vec![
        demo(),
        x86ish(),
        riscish(),
        sparcish(),
        alphaish(),
        jvmish(),
    ]
}

/// Looks up a built-in target by name.
pub fn by_name(name: &str) -> Option<Grammar> {
    match name {
        "demo" => Some(demo()),
        "x86ish" => Some(x86ish()),
        "riscish" => Some(riscish()),
        "sparcish" => Some(sparcish()),
        "alphaish" => Some(alphaish()),
        "jvmish" => Some(jvmish()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odburg_core::verify;
    use odburg_grammar::analysis;

    #[test]
    fn all_targets_analyze_clean() {
        // The shipped grammars must pass the verifier at `--deny=warning`
        // strength: no findings at warning severity or above (this backs
        // the CI analysis-smoke job).
        for g in all() {
            let diags = verify::analyze(&g.normalize());
            let bad: Vec<String> = diags
                .iter()
                .filter(|d| d.severity >= analysis::Severity::Warning)
                .map(|d| d.to_string())
                .collect();
            assert!(bad.is_empty(), "grammar {}: {:?}", g.name(), bad);
        }
    }

    #[test]
    fn all_targets_have_a_state_bound() {
        // Every shipped grammar is BURS-finite: the achievable-state
        // exploration converges and yields a table-size bound whose
        // per-operator counts partition its states.
        for g in all() {
            let full = verify::analyze_full(&g.normalize());
            let bound = full
                .state_bound
                .unwrap_or_else(|| panic!("grammar {} did not converge", g.name()));
            assert!(bound.states > 0, "grammar {}", g.name());
            assert!(
                bound.per_op.iter().all(|&(_, n)| n >= 1),
                "grammar {}: {:?}",
                g.name(),
                bound.per_op
            );
            let per_op: usize = bound.per_op.iter().map(|&(_, n)| n).sum();
            assert_eq!(per_op, bound.states, "grammar {}", g.name());
        }
    }

    #[test]
    fn names_match_registry() {
        for name in TARGET_NAMES {
            let g = by_name(name).unwrap();
            assert_eq!(g.name(), name);
        }
        assert!(by_name("z80").is_none());
        assert_eq!(all().len(), TARGET_NAMES.len());
    }

    #[test]
    fn grammar_sizes_are_realistic() {
        let stats: Vec<_> = all().iter().map(|g| g.stats()).collect();
        // demo is tiny; jvmish small; the three lcc-style grammars have
        // grammar sizes of the order the paper family reports.
        assert_eq!(stats[0].rules, 8); // the 6 paper rules + 2 local-address rules
        assert!(stats[1].rules >= 120, "x86ish has {}", stats[1].rules);
        assert!(stats[2].rules >= 80, "riscish has {}", stats[2].rules);
        assert!(stats[3].rules >= 80, "sparcish has {}", stats[3].rules);
        assert!(stats[4].rules >= 90, "alphaish has {}", stats[4].rules);
        assert!(
            (30..80).contains(&stats[5].rules),
            "jvmish has {}",
            stats[5].rules
        );
        for s in &stats[1..] {
            assert!(s.dynamic_rules > 0, "{} lacks dynamic rules", s.name);
        }
    }

    #[test]
    fn every_target_has_bound_dyncosts() {
        // An unbound dynamic cost silently disables its rules; guard
        // against typos between the .burg files and the bindings.
        for g in all() {
            let mut forest = odburg_ir::Forest::new();
            let node = forest.leaf(
                odburg_ir::Op::new(odburg_ir::OpKind::Const, odburg_ir::TypeTag::I8),
                odburg_ir::Payload::Int(0),
            );
            for dc in g.dyncosts() {
                // Calling must not panic; unbound defaults return
                // Infinite for everything including Const 0, which all
                // shipped immediate tests accept.
                let _ = (dc.func)(&forest, node);
            }
        }
    }
}
