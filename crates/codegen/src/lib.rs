//! The **reducer**: the second pass of tree-parsing instruction selection.
//!
//! After the labeler has recorded, for every node, the optimal rule per
//! nonterminal, the reducer walks the derivation tree top-down from the
//! start nonterminal at each root, fires each rule's emission action in
//! bottom-up (post-order) position, and assembles the selected
//! instructions. It works identically over every labeler through the
//! [`RuleChooser`](odburg_core::RuleChooser) interface — which is how the
//! benchmarks can show that all optimal labelers produce *identical code*.
//!
//! # Emission templates
//!
//! A source rule may carry a template string; the template is rendered
//! once per application of the rule, after its operand derivations have
//! been reduced. `;` separates machine instructions within one template.
//! Placeholders:
//!
//! | placeholder | meaning |
//! |-------------|---------|
//! | `{dst}`     | a fresh virtual register holding the rule's result |
//! | `{a}` … `{d}` | results of the pattern's nonterminal leaves, in order (falls back to the leaf's payload for folded operands) |
//! | `{pa}` … `{pd}` | payload of the node bound to the corresponding nonterminal leaf |
//! | `{imm}`     | payload of the first payload-carrying operator node matched by the pattern (falls back to the root node's payload) |
//! | `{sym}`     | like `{imm}` but rendered as a symbol name |
//! | `{lbl}`     | payload of the matched root node (branch/jump targets) |
//!
//! Rules without a template pass their operand's value through (chain
//! rules) or produce no value (statements, addressing modes folded into
//! their consumer).
//!
//! # One pass, no recursion
//!
//! Templates are not parsed while reducing: normalization compiles every
//! source rule's template once into a flat piece list
//! ([`odburg_grammar::template`], read through
//! [`NormalGrammar::templates`](odburg_grammar::NormalGrammar::templates)),
//! and the reducer interprets those pieces as it walks the derivation.
//!
//! * **Bookkeeping is O(nodes + derivations).** Each node heads a list of
//!   slots in one arena, one slot per `(node, nonterminal)` derivation,
//!   whose state is "on the stack", "reduced without a value" or
//!   "reduced into register *v*". There is no table with a column per
//!   nonterminal and no hashing.
//! * **No recursion.** The walk runs on an explicit stack of
//!   `(node, derivation, rule, next operand)` frames, so a forest of any
//!   depth reduces without overflowing the thread's stack. A slot is
//!   looked up when its frame is pushed and filled when the frame is
//!   popped, which fires actions in post-order and emits a derivation
//!   shared by several parents (in a DAG) once. A chooser whose answers
//!   loop at one node (`a: b`, `b: a`) finds its own slot still on the
//!   stack and fails with [`ReduceError::CyclicDerivation`].
//! * **One allocation per instruction.** Each instruction is rendered
//!   into one scratch buffer kept for the whole reduction and then
//!   copied out at its exact length. Every other buffer, the output
//!   lists included, is sized once from the forest's node count, for two
//!   derivations and two instructions per node; a reduction within that
//!   makes seven allocations besides.
//!
//! The applied rules' costs are re-evaluated at their nodes while
//! reducing, dynamic ones included: [`ReduceError::InapplicableRule`] is
//! the check that a labeler and the reducer agree.

mod reduce;

pub use reduce::{reduce_forest, reduce_tree, ReduceError, Reduction, VReg};
