//! S-expression syntax for IR trees, used by tests, the CLI, and examples.
//!
//! Grammar (whitespace-separated):
//!
//! ```text
//! tree    ::= "(" op payload? tree* ")" | op payload?     (leaves may omit parens)
//! payload ::= integer | "#" float | "@" symbol
//! ```
//!
//! Example: `(StoreI8 (AddrLocalP @x) (AddI8 (LoadI8 (AddrLocalP @x)) 5))`.
//!
//! # One pass, no recursion
//!
//! [`parse_sexpr`] reads its input once, left to right, and looks each
//! byte's class (whitespace, parenthesis, other) up in one table. Each
//! `(` opens a frame on an explicit stack that holds the operator, the
//! payload and the children parsed so far, as a [`Node`](crate::Node)
//! holds them; the matching `)` checks the arity, pushes the node and
//! hands it to the frame below. The first 32 frames live in an array and
//! only deeper ones spill to the heap, so an ordinary tree parses with no
//! allocation of its own, and a tree of any depth parses on any thread's
//! stack. [`write_sexpr`] prints on the same kind of stack.

use std::error::Error;
use std::fmt;

use crate::forest::Forest;
use crate::node::{NodeId, Payload};
use crate::op::{Op, OpKind, TypeTag};

/// Error produced by [`parse_sexpr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SexprError {
    message: String,
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
}

impl SexprError {
    fn new(message: impl Into<String>, offset: usize) -> Self {
        SexprError {
            message: message.into(),
            offset,
        }
    }
}

impl fmt::Display for SexprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl Error for SexprError {}

/// Byte class of ASCII whitespace, as [`u8::is_ascii_whitespace`] has it.
const SPACE: u8 = 1;
/// Byte class of `(` and `)`, which end a token as whitespace does.
const PAREN: u8 = 2;

/// The class of every byte; 0 for bytes that continue a token.
const CLASS: [u8; 256] = {
    let mut class = [0; 256];
    let mut b = 0;
    while b < 256 {
        if (b as u8).is_ascii_whitespace() {
            class[b] = SPACE;
        }
        b += 1;
    }
    class[b'(' as usize] = PAREN;
    class[b')' as usize] = PAREN;
    class
};

/// Frames kept in an array before a stack spills to the heap.
const INLINE: usize = 32;

/// A stack whose first [`INLINE`] entries live in an array. Entries
/// spill to the heap only while the array is full, so popping the spill
/// first keeps one last-in-first-out order.
struct Stack<T> {
    inline: [T; INLINE],
    len: usize,
    spill: Vec<T>,
}

impl<T: Copy> Stack<T> {
    /// An empty stack; `fill` only initializes the array.
    fn new(fill: T) -> Self {
        Stack {
            inline: [fill; INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, entry: T) {
        if self.len < INLINE {
            self.inline[self.len] = entry;
            self.len += 1;
        } else {
            self.spill.push(entry);
        }
    }

    fn pop(&mut self) -> Option<T> {
        if let Some(entry) = self.spill.pop() {
            return Some(entry);
        }
        self.len = self.len.checked_sub(1)?;
        Some(self.inline[self.len])
    }

    fn last_mut(&mut self) -> Option<&mut T> {
        if self.spill.is_empty() {
            self.inline[..self.len].last_mut()
        } else {
            self.spill.last_mut()
        }
    }
}

/// A tree whose operator and payload are read; a parenthesized one
/// collects its children until its `)`.
#[derive(Debug, Clone, Copy)]
struct Frame {
    op: Op,
    /// Where the operator name starts: an arity error points there.
    at: usize,
    payload: Payload,
    kids: [NodeId; 2],
    /// Children parsed so far. It may pass 2: the arity check at the `)`
    /// reports how many there were.
    n: usize,
}

impl Frame {
    const FILL: Frame = Frame {
        op: Op {
            kind: OpKind::Const,
            ty: TypeTag::I1,
        },
        at: 0,
        payload: Payload::None,
        kids: [NodeId(0); 2],
        n: 0,
    };

    fn add(&mut self, kid: NodeId) {
        if let Some(slot) = self.kids.get_mut(self.n) {
            *slot = kid;
        }
        self.n += 1;
    }

    /// Checks the arity and pushes the node.
    fn finish(self, forest: &mut Forest) -> Result<NodeId, SexprError> {
        let arity = self.op.arity();
        if self.n != arity {
            return Err(SexprError::new(
                format!(
                    "operator {} expects {arity} children, got {}",
                    self.op, self.n
                ),
                self.at,
            ));
        }
        Ok(forest.push(self.op, &self.kids[..arity], self.payload))
    }
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        let bytes = self.input.as_bytes();
        while bytes
            .get(self.pos)
            .is_some_and(|&b| CLASS[b as usize] == SPACE)
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    /// The bytes up to the next whitespace, parenthesis or end. They end
    /// at an ASCII byte, so they are whole characters.
    fn token(&mut self) -> &'a str {
        let start = self.pos;
        let bytes = self.input.as_bytes();
        while bytes.get(self.pos).is_some_and(|&b| CLASS[b as usize] == 0) {
            self.pos += 1;
        }
        &self.input[start..self.pos]
    }

    /// Reads the operator and the payload that start a tree.
    fn head(&mut self, forest: &mut Forest) -> Result<Frame, SexprError> {
        let at = self.pos;
        let name = self.token();
        if name.is_empty() {
            return Err(SexprError::new("expected operator name", self.pos));
        }
        let op: Op = name
            .parse()
            .map_err(|e| SexprError::new(format!("{e}"), at))?;
        self.skip_ws();
        let payload = match self.peek() {
            Some(b'@') => {
                self.pos += 1;
                let name = self.token();
                if name.is_empty() {
                    return Err(SexprError::new("expected symbol name after `@`", self.pos));
                }
                Payload::Sym(forest.intern(name))
            }
            Some(b'#') => {
                self.pos += 1;
                let start = self.pos;
                let v: f64 = self
                    .token()
                    .parse()
                    .map_err(|_| SexprError::new("invalid float payload", start))?;
                Payload::FloatBits(v.to_bits())
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                let v: i64 = self
                    .token()
                    .parse()
                    .map_err(|_| SexprError::new("invalid integer payload", start))?;
                Payload::Int(v)
            }
            _ => Payload::None,
        };
        Ok(Frame {
            op,
            at,
            payload,
            ..Frame::FILL
        })
    }
}

/// Parses one s-expression tree into `forest` and returns its root.
///
/// The root is **not** registered with [`Forest::add_root`]; callers decide.
///
/// # Errors
///
/// Returns [`SexprError`] on malformed input, unknown operators, or arity
/// mismatches.
///
/// # Examples
///
/// ```
/// use odburg_ir::{parse_sexpr, Forest};
///
/// let mut f = Forest::new();
/// let root = parse_sexpr(&mut f, "(AddI8 (ConstI8 1) (ConstI8 2))")?;
/// assert_eq!(f.node(root).children().len(), 2);
/// # Ok::<(), odburg_ir::SexprError>(())
/// ```
pub fn parse_sexpr(forest: &mut Forest, input: &str) -> Result<NodeId, SexprError> {
    let mut p = Parser { input, pos: 0 };
    let mut open = Stack::new(Frame::FILL);
    loop {
        // A tree starts: `(`? op payload?
        p.skip_ws();
        let paren = p.peek() == Some(b'(');
        if paren {
            p.pos += 1;
            p.skip_ws();
        }
        let head = p.head(forest)?;
        let mut done = if paren {
            open.push(head);
            None
        } else {
            Some(head.finish(forest)?)
        };
        // Hand each finished tree to its parent and close the trees that
        // end here, until a child starts.
        loop {
            if let Some(id) = done.take() {
                match open.last_mut() {
                    Some(parent) => parent.add(id),
                    None => {
                        p.skip_ws();
                        if p.pos != input.len() {
                            return Err(SexprError::new("trailing input", p.pos));
                        }
                        return Ok(id);
                    }
                }
            }
            p.skip_ws();
            match p.peek() {
                Some(b')') => {
                    p.pos += 1;
                    let frame = open.pop().expect("a tree is open");
                    done = Some(frame.finish(forest)?);
                }
                Some(_) => break,
                None => return Err(SexprError::new("missing `)`", p.pos)),
            }
        }
    }
}

/// Writes the subtree rooted at `id` as an s-expression.
pub fn write_sexpr(out: &mut dyn fmt::Write, forest: &Forest, id: NodeId) -> fmt::Result {
    // Each open tree, with the index of its next child to write.
    let mut open = Stack::new((id, 0));
    write_head(out, forest, id)?;
    open.push((id, 0));
    while let Some((node, next)) = open.last_mut() {
        match forest.node(*node).children().get(*next) {
            Some(&child) => {
                *next += 1;
                out.write_char(' ')?;
                write_head(out, forest, child)?;
                open.push((child, 0));
            }
            None => {
                out.write_char(')')?;
                open.pop();
            }
        }
    }
    Ok(())
}

/// Writes `(`, the operator and the payload of `id`.
fn write_head(out: &mut dyn fmt::Write, forest: &Forest, id: NodeId) -> fmt::Result {
    let node = forest.node(id);
    write!(out, "({}", node.op())?;
    match node.payload() {
        Payload::None => Ok(()),
        Payload::Int(v) => write!(out, " {v}"),
        Payload::FloatBits(b) => write!(out, " #{}", f64::from_bits(b)),
        Payload::Sym(s) => write!(out, " @{}", forest.symbol(s)),
    }
}

/// Renders the subtree rooted at `id` as an s-expression string.
pub fn to_sexpr(forest: &Forest, id: NodeId) -> String {
    let mut s = String::new();
    write_sexpr(&mut s, forest, id).expect("write to String cannot fail");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{OpKind, TypeTag};

    #[test]
    fn parse_simple_add() {
        let mut f = Forest::new();
        let root = parse_sexpr(&mut f, "(AddI8 (ConstI8 1) (ConstI8 -2))").unwrap();
        let n = f.node(root);
        assert_eq!(n.op(), Op::new(OpKind::Add, TypeTag::I8));
        assert_eq!(f.node(n.child(1)).payload().as_int(), Some(-2));
    }

    #[test]
    fn parse_symbols_and_nesting() {
        let mut f = Forest::new();
        let src = "(StoreI8 (AddrLocalP @x) (AddI8 (LoadI8 (AddrLocalP @x)) (ConstI8 5)))";
        let root = parse_sexpr(&mut f, src).unwrap();
        assert_eq!(to_sexpr(&f, root), src);
        // Both @x payloads intern to the same symbol.
        let store = f.node(root);
        let a1 = f.node(store.child(0)).payload().as_sym().unwrap();
        let add = f.node(store.child(1));
        let load = f.node(add.child(0));
        let a2 = f.node(load.child(0)).payload().as_sym().unwrap();
        assert_eq!(a1, a2);
    }

    #[test]
    fn leaves_may_omit_parens() {
        let mut f = Forest::new();
        let root = parse_sexpr(&mut f, "(NegI4 (ConstI4 3))").unwrap();
        let root2 = parse_sexpr(&mut f, "(NegI4 ConstI4 3)").unwrap();
        // Second form: leaf without parens but payload binds to... the leaf.
        assert_eq!(to_sexpr(&f, root), to_sexpr(&f, root2));
    }

    #[test]
    fn float_payload_round_trips() {
        let mut f = Forest::new();
        let root = parse_sexpr(&mut f, "ConstF8 #2.5").unwrap();
        assert_eq!(to_sexpr(&f, root), "(ConstF8 #2.5)");
    }

    #[test]
    fn a_million_deep_chain_round_trips_on_a_two_mib_stack() {
        const DEPTH: usize = 1_000_000;
        let mut text = "(NegI8 ".repeat(DEPTH);
        text.push_str("(ConstI8 1)");
        text.push_str(&")".repeat(DEPTH));
        // Rust's default stack for spawned threads, and so for every
        // server worker.
        let worker = std::thread::Builder::new().stack_size(2 << 20);
        let printed = worker
            .spawn(move || {
                let mut f = Forest::new();
                let root = parse_sexpr(&mut f, &text).expect("the chain parses");
                assert_eq!(f.len(), DEPTH + 1);
                (to_sexpr(&f, root) == text).then_some(())
            })
            .unwrap()
            .join()
            .unwrap();
        assert!(printed.is_some(), "the chain prints back byte-identically");
    }

    #[test]
    fn errors_are_reported() {
        let mut f = Forest::new();
        assert!(parse_sexpr(&mut f, "(AddI8 (ConstI8 1))").is_err());
        assert!(parse_sexpr(&mut f, "(WeirdOp)").is_err());
        assert!(parse_sexpr(&mut f, "(AddI8 ConstI8 1 ConstI8 2").is_err());
        assert!(parse_sexpr(&mut f, "").is_err());
        assert!(parse_sexpr(&mut f, "ConstI8 1 garbage").is_err());
    }
}
