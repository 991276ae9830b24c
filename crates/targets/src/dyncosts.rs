//! Implementations of the dynamic-cost functions referenced by the
//! machine descriptions.
//!
//! Every function is an *applicability test* in the lcc sense: it returns
//! a small finite cost when the rule's extra-grammatical side condition
//! holds at the matched node, and [`RuleCost::Infinite`] otherwise. The
//! functions receive the node matched by the rule's pattern root and may
//! inspect the whole subtree through the forest.

use odburg_grammar::RuleCost;
use odburg_ir::{Forest, NodeId, OpKind, Payload};

/// Structural equality of two subtrees (same operators, payloads and
/// shape). This is the "closer inspection of the leaf nodes" that lcc's
/// `memop()` performs to decide whether a load and a store refer to the
/// same location.
///
/// The pairs left to compare sit on an explicit stack, so an address of
/// any depth compares on any thread's stack. The first 16 pending pairs
/// live in an array and only further ones spill to the heap, so common
/// addresses compare without allocating.
pub fn same_tree(forest: &Forest, a: NodeId, b: NodeId) -> bool {
    const INLINE: usize = 16;
    let mut inline = [(a, b); INLINE];
    // Pairs spill only while the array is full, so popping the spill
    // first keeps one last-in-first-out order.
    let (mut len, mut spill) = (1, Vec::new());
    loop {
        let (a, b) = match spill.pop() {
            Some(pair) => pair,
            None if len > 0 => {
                len -= 1;
                inline[len]
            }
            None => return true,
        };
        if a == b {
            continue;
        }
        let (na, nb) = (forest.node(a), forest.node(b));
        if na.op() != nb.op() || na.payload() != nb.payload() {
            return false;
        }
        for (&ca, &cb) in na.children().iter().zip(nb.children()) {
            if len < INLINE {
                inline[len] = (ca, cb);
                len += 1;
            } else {
                spill.push((ca, cb));
            }
        }
    }
}

/// The integer constant the rule's immediate test concerns: the node's own
/// payload (leaf-constant rules) or the payload of its second child
/// (`Op(reg, ConstX)`-shaped rules).
fn relevant_const(forest: &Forest, node: NodeId) -> Option<i64> {
    let n = forest.node(node);
    if let Payload::Int(v) = n.payload() {
        if n.op().arity() == 0 {
            return Some(v);
        }
    }
    if n.op().arity() == 2 {
        if let Payload::Int(v) = forest.node(n.child(1)).payload() {
            return Some(v);
        }
    }
    None
}

fn fits_signed(v: i64, bits: u32) -> bool {
    let half = 1i64 << (bits - 1);
    (-half..half).contains(&v)
}

/// Immediate test with the given signed bit width; applicable rules cost
/// `cost`.
fn imm(forest: &Forest, node: NodeId, bits: u32, cost: u16) -> RuleCost {
    match relevant_const(forest, node) {
        Some(v) if fits_signed(v, bits) => RuleCost::Finite(cost),
        _ => RuleCost::Infinite,
    }
}

/// 8-bit immediate test (cost 1).
pub fn imm8(forest: &Forest, node: NodeId) -> RuleCost {
    imm(forest, node, 8, 1)
}

/// 13-bit immediate test (SPARC, cost 1).
pub fn imm13(forest: &Forest, node: NodeId) -> RuleCost {
    imm(forest, node, 13, 1)
}

/// 16-bit immediate test (MIPS, cost 1).
pub fn imm16(forest: &Forest, node: NodeId) -> RuleCost {
    imm(forest, node, 16, 1)
}

/// 32-bit immediate test (cost 1).
pub fn imm32(forest: &Forest, node: NodeId) -> RuleCost {
    imm(forest, node, 32, 1)
}

/// Address displacement fits 13 bits: the fold costs nothing.
pub fn addr_disp13(forest: &Forest, node: NodeId) -> RuleCost {
    imm(forest, node, 13, 0)
}

/// Address displacement fits 16 bits: the fold costs nothing.
pub fn addr_disp16(forest: &Forest, node: NodeId) -> RuleCost {
    imm(forest, node, 16, 0)
}

/// The constant is exactly zero (MIPS `$zero` register).
pub fn zero_const(forest: &Forest, node: NodeId) -> RuleCost {
    match relevant_const(forest, node) {
        Some(0) => RuleCost::Finite(1),
        _ => RuleCost::Infinite,
    }
}

/// Read-modify-write applicability: `node` is a `Store(addr, Op(Load(addr'),
/// value))` match and the rule requires `addr == addr'`. `load_side` says
/// which operand of the inner ALU op the pattern placed the load on.
fn memop(forest: &Forest, node: NodeId, load_side: usize) -> RuleCost {
    let store = forest.node(node);
    if store.op().kind != OpKind::Store {
        return RuleCost::Infinite;
    }
    let alu = forest.node(store.child(1));
    if alu.op().arity() != 2 {
        return RuleCost::Infinite;
    }
    let load = forest.node(alu.child(load_side));
    if load.op().kind != OpKind::Load {
        return RuleCost::Infinite;
    }
    if same_tree(forest, store.child(0), load.child(0)) {
        RuleCost::Finite(1)
    } else {
        RuleCost::Infinite
    }
}

/// RMW test for patterns with the load as the *left* ALU operand.
pub fn memop_left(forest: &Forest, node: NodeId) -> RuleCost {
    memop(forest, node, 0)
}

/// RMW test for patterns with the load as the *right* ALU operand.
pub fn memop_right(forest: &Forest, node: NodeId) -> RuleCost {
    memop(forest, node, 1)
}

/// Scaled-index addressing: `Add(reg, Mul(reg, k))` with `k ∈ {1,2,4,8}`,
/// or `Add(reg, Shl(reg, k))` with `k ∈ {0,1,2,3}`. Folds for free.
pub fn scale_index(forest: &Forest, node: NodeId) -> RuleCost {
    let add = forest.node(node);
    if add.op().arity() != 2 {
        return RuleCost::Infinite;
    }
    let inner = forest.node(add.child(1));
    if inner.op().arity() != 2 {
        return RuleCost::Infinite;
    }
    let Payload::Int(k) = forest.node(inner.child(1)).payload() else {
        return RuleCost::Infinite;
    };
    let ok = match inner.op().kind {
        OpKind::Mul => matches!(k, 1 | 2 | 4 | 8),
        OpKind::Shl => (0..=3).contains(&k),
        _ => false,
    };
    if ok {
        RuleCost::Finite(0)
    } else {
        RuleCost::Infinite
    }
}

/// Alpha s4addq/s8addq: a multiply by 4/8 (or shift by 2/3) folded into
/// an add. The scaled operand may be either child of the add.
pub fn alpha_scale(forest: &Forest, node: NodeId) -> RuleCost {
    let add = forest.node(node);
    if add.op().arity() != 2 {
        return RuleCost::Infinite;
    }
    for side in 0..2 {
        let inner = forest.node(add.child(side));
        if inner.op().arity() != 2 {
            continue;
        }
        let Payload::Int(k) = forest.node(inner.child(1)).payload() else {
            continue;
        };
        let ok = match inner.op().kind {
            OpKind::Mul => matches!(k, 4 | 8),
            OpKind::Shl => matches!(k, 2 | 3),
            _ => false,
        };
        if ok {
            return RuleCost::Finite(1);
        }
    }
    RuleCost::Infinite
}

/// Multiply by a power of two: strength-reduce to a shift (cost 1).
pub fn mul_pow2(forest: &Forest, node: NodeId) -> RuleCost {
    match relevant_const(forest, node) {
        Some(v) if v > 0 && (v as u64).is_power_of_two() => RuleCost::Finite(1),
        _ => RuleCost::Infinite,
    }
}

/// Shift count is a valid immediate (0..64), cost 1.
pub fn shift_count(forest: &Forest, node: NodeId) -> RuleCost {
    match relevant_const(forest, node) {
        Some(v) if (0..64).contains(&v) => RuleCost::Finite(1),
        _ => RuleCost::Infinite,
    }
}

/// The SPARC "spill" example: a local variable's frame offset fits in 13
/// bits. Frame offsets are modelled deterministically as
/// `8 × symbol-index`.
pub fn off13(forest: &Forest, node: NodeId) -> RuleCost {
    match forest.node(node).payload() {
        Payload::Sym(s) => {
            if (s.0 as i64) * 8 < 4096 {
                RuleCost::Finite(0)
            } else {
                RuleCost::Infinite
            }
        }
        _ => RuleCost::Infinite,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odburg_ir::parse_sexpr;

    fn forest(src: &str) -> (Forest, NodeId) {
        let mut f = Forest::new();
        let root = parse_sexpr(&mut f, src).unwrap();
        (f, root)
    }

    #[test]
    fn same_tree_structural() {
        let (f, root) = forest(
            "(StoreI8 (AddP (LoadP (AddrLocalP @p)) (ConstI8 8)) \
             (AddI8 (LoadI8 (AddP (LoadP (AddrLocalP @p)) (ConstI8 8))) (ConstI8 1)))",
        );
        let store = f.node(root);
        let load = f.node(f.node(store.child(1)).child(0));
        assert!(same_tree(&f, store.child(0), load.child(0)));
        // Different displacement is a different address.
        let (f2, root2) = forest(
            "(StoreI8 (AddP (LoadP (AddrLocalP @p)) (ConstI8 8)) \
             (AddI8 (LoadI8 (AddP (LoadP (AddrLocalP @p)) (ConstI8 16))) (ConstI8 1)))",
        );
        let store2 = f2.node(root2);
        let load2 = f2.node(f2.node(store2.child(1)).child(0));
        assert!(!same_tree(&f2, store2.child(0), load2.child(0)));
    }

    #[test]
    fn a_million_deep_address_labels_on_a_two_mib_stack() {
        use odburg_core::{Labeler, OnDemandAutomaton};
        use odburg_ir::{Op, OpKind, Payload, TypeTag};

        // Built through the arena API. `parse_sexpr` reads any depth too
        // (the IR crate round-trips a million-deep chain), but two
        // million levels of text would only slow the test down.
        const DEPTH: usize = 1_000_000;
        let mut f = Forest::new();
        let x = Payload::Sym(f.intern("x"));
        let address = |f: &mut Forest| {
            let mut node = f.leaf(Op::new(OpKind::AddrLocal, TypeTag::P), x);
            for _ in 0..DEPTH {
                node = f.unary(Op::new(OpKind::Load, TypeTag::P), node);
            }
            node
        };
        let (stored, loaded) = (address(&mut f), address(&mut f));
        let load = f.unary(Op::new(OpKind::Load, TypeTag::I8), loaded);
        let five = f.leaf(Op::new(OpKind::Const, TypeTag::I8), Payload::Int(5));
        let add = f.binary(Op::new(OpKind::Add, TypeTag::I8), load, five);
        let store = f.binary(Op::new(OpKind::Store, TypeTag::I8), stored, add);
        f.add_root(store);

        // Rust's default stack for spawned threads, and so for every
        // server worker.
        let worker = std::thread::Builder::new().stack_size(2 << 20);
        let (labeled, rmw) = worker
            .spawn(move || {
                let mut od =
                    OnDemandAutomaton::new(std::sync::Arc::new(crate::x86ish().normalize()));
                (od.label_forest(&f).is_ok(), memop_left(&f, store))
            })
            .unwrap()
            .join()
            .unwrap();
        assert!(labeled);
        assert_eq!(rmw, RuleCost::Finite(1));
    }

    #[test]
    fn memop_checks_side_and_address() {
        let (f, root) =
            forest("(StoreI8 (AddrLocalP @x) (AddI8 (LoadI8 (AddrLocalP @x)) (ConstI8 1)))");
        assert_eq!(memop_left(&f, root), RuleCost::Finite(1));
        assert_eq!(memop_right(&f, root), RuleCost::Infinite);
        let (f2, root2) =
            forest("(StoreI8 (AddrLocalP @x) (AddI8 (ConstI8 1) (LoadI8 (AddrLocalP @x))))");
        assert_eq!(memop_right(&f2, root2), RuleCost::Finite(1));
        assert_eq!(memop_left(&f2, root2), RuleCost::Infinite);
        let (f3, root3) =
            forest("(StoreI8 (AddrLocalP @x) (AddI8 (LoadI8 (AddrLocalP @y)) (ConstI8 1)))");
        assert_eq!(memop_left(&f3, root3), RuleCost::Infinite);
    }

    #[test]
    fn immediates_respect_width() {
        let (f, n) = forest("(ConstI8 100)");
        assert_eq!(imm8(&f, n), RuleCost::Finite(1));
        let (f, n) = forest("(ConstI8 200)");
        assert_eq!(imm8(&f, n), RuleCost::Infinite);
        assert_eq!(imm13(&f, n), RuleCost::Finite(1));
        let (f, n) = forest("(ConstI8 40000)");
        assert_eq!(imm16(&f, n), RuleCost::Infinite);
        assert_eq!(imm32(&f, n), RuleCost::Finite(1));
        let (f, n) = forest("(ConstI8 5000000000)");
        assert_eq!(imm32(&f, n), RuleCost::Infinite);
    }

    #[test]
    fn binary_shapes_use_right_child() {
        let (f, n) = forest("(AddI8 (ConstI8 99999) (ConstI8 4))");
        // The left (reg) operand's value is irrelevant; the right child is
        // the immediate.
        assert_eq!(imm8(&f, n), RuleCost::Finite(1));
    }

    #[test]
    fn scale_index_variants() {
        let (f, n) = forest("(AddP (ConstP 0) (MulI8 (ConstI8 3) (ConstI8 8)))");
        assert_eq!(scale_index(&f, n), RuleCost::Finite(0));
        let (f, n) = forest("(AddP (ConstP 0) (MulI8 (ConstI8 3) (ConstI8 6)))");
        assert_eq!(scale_index(&f, n), RuleCost::Infinite);
        let (f, n) = forest("(AddP (ConstP 0) (ShlI8 (ConstI8 3) (ConstI8 2)))");
        assert_eq!(scale_index(&f, n), RuleCost::Finite(0));
        let (f, n) = forest("(AddP (ConstP 0) (ShlI8 (ConstI8 3) (ConstI8 9)))");
        assert_eq!(scale_index(&f, n), RuleCost::Infinite);
    }

    #[test]
    fn strength_reduction_tests() {
        let (f, n) = forest("(MulI8 (ConstI8 3) (ConstI8 16))");
        assert_eq!(mul_pow2(&f, n), RuleCost::Finite(1));
        let (f, n) = forest("(MulI8 (ConstI8 3) (ConstI8 12))");
        assert_eq!(mul_pow2(&f, n), RuleCost::Infinite);
        let (f, n) = forest("(ShlI8 (ConstI8 3) (ConstI8 63))");
        assert_eq!(shift_count(&f, n), RuleCost::Finite(1));
        let (f, n) = forest("(ShlI8 (ConstI8 3) (ConstI8 64))");
        assert_eq!(shift_count(&f, n), RuleCost::Infinite);
    }

    #[test]
    fn zero_and_offsets() {
        let (f, n) = forest("(ConstI8 0)");
        assert_eq!(zero_const(&f, n), RuleCost::Finite(1));
        let (f, n) = forest("(ConstI8 1)");
        assert_eq!(zero_const(&f, n), RuleCost::Infinite);
        let (f, n) = forest("(AddrLocalP @x)");
        assert_eq!(off13(&f, n), RuleCost::Finite(0));
    }
}
