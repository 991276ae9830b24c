//! Operators: operator kinds, type tags, and their dense numbering.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// The type a node operates on, in the style of lcc's type suffixes.
///
/// `I*` are signed integers of the given byte width, `F*` floats, `P`
/// pointers/addresses, and `V` "no value" (used by control-flow operators).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TypeTag {
    /// 1-byte integer.
    I1 = 0,
    /// 2-byte integer.
    I2 = 1,
    /// 4-byte integer.
    I4 = 2,
    /// 8-byte integer.
    I8 = 3,
    /// 4-byte float.
    F4 = 4,
    /// 8-byte float.
    F8 = 5,
    /// Pointer / address.
    P = 6,
    /// No value (control flow and other statements).
    V = 7,
}

/// All type tags, in id order.
pub const ALL_TYPE_TAGS: [TypeTag; 8] = [
    TypeTag::I1,
    TypeTag::I2,
    TypeTag::I4,
    TypeTag::I8,
    TypeTag::F4,
    TypeTag::F8,
    TypeTag::P,
    TypeTag::V,
];

impl TypeTag {
    /// Size in bytes of a value of this type, if it has one.
    ///
    /// # Examples
    ///
    /// ```
    /// # use odburg_ir::TypeTag;
    /// assert_eq!(TypeTag::I4.size(), Some(4));
    /// assert_eq!(TypeTag::V.size(), None);
    /// ```
    pub fn size(self) -> Option<u8> {
        match self {
            TypeTag::I1 => Some(1),
            TypeTag::I2 => Some(2),
            TypeTag::I4 => Some(4),
            TypeTag::I8 | TypeTag::F8 | TypeTag::P => Some(8),
            TypeTag::F4 => Some(4),
            TypeTag::V => None,
        }
    }

    fn suffix(self) -> &'static str {
        match self {
            TypeTag::I1 => "I1",
            TypeTag::I2 => "I2",
            TypeTag::I4 => "I4",
            TypeTag::I8 => "I8",
            TypeTag::F4 => "F4",
            TypeTag::F8 => "F8",
            TypeTag::P => "P",
            TypeTag::V => "V",
        }
    }
}

impl fmt::Display for TypeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// The operator kind of an IR node, independent of its type tag.
///
/// The set mirrors lcc's IR: leaf operators for constants and addresses,
/// unary operators for loads and conversions, binary operators for
/// arithmetic, stores and compare-and-branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum OpKind {
    // ---- leaves (arity 0) ----
    /// Integer or float constant; payload holds the value.
    Const = 0,
    /// Address of a global symbol; payload holds the symbol.
    AddrGlobal,
    /// Address of a formal parameter; payload holds the symbol.
    AddrFrame,
    /// Address of a local variable; payload holds the symbol.
    AddrLocal,
    /// Label definition (a statement); payload holds the label symbol.
    Label,
    /// Unconditional jump (a statement); payload holds the target label.
    Jump,
    // ---- unary ----
    /// Load from the address computed by the child.
    Load,
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement.
    Com,
    /// Conversion to this node's type from the child's type.
    Cvt,
    /// Return the child's value (a statement).
    Ret,
    /// Pass the child's value as an outgoing call argument (a statement).
    Arg,
    /// Call the function whose address is the child; yields a value.
    Call,
    // ---- binary ----
    /// Store: left child is the address, right child the stored value.
    Store,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder.
    Mod,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Shift right.
    Shr,
    /// Branch to the payload label if the children compare equal.
    BrEq,
    /// Branch if not equal.
    BrNe,
    /// Branch if less than.
    BrLt,
    /// Branch if less or equal.
    BrLe,
    /// Branch if greater than.
    BrGt,
    /// Branch if greater or equal.
    BrGe,
}

/// All operator kinds, in id order.
pub const ALL_KINDS: [OpKind; 30] = [
    OpKind::Const,
    OpKind::AddrGlobal,
    OpKind::AddrFrame,
    OpKind::AddrLocal,
    OpKind::Label,
    OpKind::Jump,
    OpKind::Load,
    OpKind::Neg,
    OpKind::Com,
    OpKind::Cvt,
    OpKind::Ret,
    OpKind::Arg,
    OpKind::Call,
    OpKind::Store,
    OpKind::Add,
    OpKind::Sub,
    OpKind::Mul,
    OpKind::Div,
    OpKind::Mod,
    OpKind::And,
    OpKind::Or,
    OpKind::Xor,
    OpKind::Shl,
    OpKind::Shr,
    OpKind::BrEq,
    OpKind::BrNe,
    OpKind::BrLt,
    OpKind::BrLe,
    OpKind::BrGt,
    OpKind::BrGe,
];

/// Total number of distinct [`OpId`]s (`kinds × type tags`).
pub const NUM_OPS: usize = ALL_KINDS.len() * ALL_TYPE_TAGS.len();

impl OpKind {
    /// Number of children a node with this kind has (0, 1 or 2).
    ///
    /// # Examples
    ///
    /// ```
    /// # use odburg_ir::OpKind;
    /// assert_eq!(OpKind::Const.arity(), 0);
    /// assert_eq!(OpKind::Load.arity(), 1);
    /// assert_eq!(OpKind::Store.arity(), 2);
    /// ```
    pub fn arity(self) -> usize {
        match self {
            OpKind::Const
            | OpKind::AddrGlobal
            | OpKind::AddrFrame
            | OpKind::AddrLocal
            | OpKind::Label
            | OpKind::Jump => 0,
            OpKind::Load
            | OpKind::Neg
            | OpKind::Com
            | OpKind::Cvt
            | OpKind::Ret
            | OpKind::Arg
            | OpKind::Call => 1,
            _ => 2,
        }
    }

    /// `true` if this kind is a statement (yields no value).
    pub fn is_statement(self) -> bool {
        matches!(
            self,
            OpKind::Label
                | OpKind::Jump
                | OpKind::Ret
                | OpKind::Arg
                | OpKind::Store
                | OpKind::BrEq
                | OpKind::BrNe
                | OpKind::BrLt
                | OpKind::BrLe
                | OpKind::BrGt
                | OpKind::BrGe
        )
    }

    const fn name(self) -> &'static str {
        match self {
            OpKind::Const => "Const",
            OpKind::AddrGlobal => "AddrGlobal",
            OpKind::AddrFrame => "AddrFrame",
            OpKind::AddrLocal => "AddrLocal",
            OpKind::Label => "Label",
            OpKind::Jump => "Jump",
            OpKind::Load => "Load",
            OpKind::Neg => "Neg",
            OpKind::Com => "Com",
            OpKind::Cvt => "Cvt",
            OpKind::Ret => "Ret",
            OpKind::Arg => "Arg",
            OpKind::Call => "Call",
            OpKind::Store => "Store",
            OpKind::Add => "Add",
            OpKind::Sub => "Sub",
            OpKind::Mul => "Mul",
            OpKind::Div => "Div",
            OpKind::Mod => "Mod",
            OpKind::And => "And",
            OpKind::Or => "Or",
            OpKind::Xor => "Xor",
            OpKind::Shl => "Shl",
            OpKind::Shr => "Shr",
            OpKind::BrEq => "BrEq",
            OpKind::BrNe => "BrNe",
            OpKind::BrLt => "BrLt",
            OpKind::BrLe => "BrLe",
            OpKind::BrGt => "BrGt",
            OpKind::BrGe => "BrGe",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A full operator: an [`OpKind`] together with a [`TypeTag`].
///
/// Operators print and parse as the kind name followed by the type suffix,
/// e.g. `AddI4`, `LoadP`, `JumpV`.
///
/// # Examples
///
/// ```
/// # use odburg_ir::{Op, OpKind, TypeTag};
/// let op: Op = "AddI4".parse()?;
/// assert_eq!(op, Op::new(OpKind::Add, TypeTag::I4));
/// assert_eq!(op.to_string(), "AddI4");
/// # Ok::<(), odburg_ir::ParseOpError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Op {
    /// The operator kind.
    pub kind: OpKind,
    /// The operand/result type.
    pub ty: TypeTag,
}

/// Dense numeric id of an [`Op`], usable as a table index in `0..NUM_OPS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u16);

impl Op {
    /// Creates an operator from a kind and a type tag.
    pub fn new(kind: OpKind, ty: TypeTag) -> Self {
        Op { kind, ty }
    }

    /// Number of children a node with this operator has.
    pub fn arity(self) -> usize {
        self.kind.arity()
    }

    /// The dense id of this operator.
    pub fn id(self) -> OpId {
        OpId(self.kind as u16 * ALL_TYPE_TAGS.len() as u16 + self.ty as u16)
    }

    /// Reconstructs the operator from its dense id.
    ///
    /// Returns `None` if `id` is out of range.
    pub fn from_id(id: OpId) -> Option<Self> {
        let kinds = ALL_KINDS.len() as u16;
        let tys = ALL_TYPE_TAGS.len() as u16;
        if id.0 >= kinds * tys {
            return None;
        }
        let kind = ALL_KINDS[(id.0 / tys) as usize];
        let ty = ALL_TYPE_TAGS[(id.0 % tys) as usize];
        Some(Op { kind, ty })
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.kind, self.ty)
    }
}

/// Error returned when parsing an operator name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOpError {
    text: String,
}

impl fmt::Display for ParseOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown operator name `{}`", self.text)
    }
}

impl Error for ParseOpError {}

impl FromStr for Op {
    type Err = ParseOpError;

    /// Parses `<kind><type>`, e.g. `AddI4`, in O(1): the last one or two
    /// bytes name the type tag (no suffix ends another), and the rest is
    /// one probe of a perfect hash over the kind names.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        split_type(s.as_bytes())
            .and_then(|(kind, ty)| Some(Op::new(OpKind::from_name(kind)?, ty)))
            .ok_or_else(|| ParseOpError { text: s.to_owned() })
    }
}

/// Splits a type suffix off the end of an operator name.
fn split_type(name: &[u8]) -> Option<(&[u8], TypeTag)> {
    let (&last, rest) = name.split_last()?;
    match last {
        b'P' => return Some((rest, TypeTag::P)),
        b'V' => return Some((rest, TypeTag::V)),
        _ => {}
    }
    let (&class, rest) = rest.split_last()?;
    let ty = match (class, last) {
        (b'I', b'1') => TypeTag::I1,
        (b'I', b'2') => TypeTag::I2,
        (b'I', b'4') => TypeTag::I4,
        (b'I', b'8') => TypeTag::I8,
        (b'F', b'4') => TypeTag::F4,
        (b'F', b'8') => TypeTag::F8,
        _ => return None,
    };
    Some((rest, ty))
}

/// Slot of a kind name in [`KIND_SLOTS`]: a multiplicative hash of its
/// first byte, its last two bytes and its length. The multiplier was
/// chosen so that the 30 kind names land in 30 distinct slots; building
/// the table checks it.
const fn kind_slot(name: &[u8]) -> usize {
    let n = name.len();
    let key =
        name[0] as u32 | (name[n - 2] as u32) << 8 | (name[n - 1] as u32) << 16 | (n as u32) << 24;
    (key.wrapping_mul(0xEEBB_6119) >> 26) as usize
}

/// Index into [`ALL_KINDS`] of the kind whose name hashes to each slot,
/// or `u8::MAX`.
const KIND_SLOTS: [u8; 64] = {
    let mut slots = [u8::MAX; 64];
    let mut k = 0;
    while k < ALL_KINDS.len() {
        let slot = kind_slot(ALL_KINDS[k].name().as_bytes());
        assert!(slots[slot] == u8::MAX, "two kind names share a slot");
        slots[slot] = k as u8;
        k += 1;
    }
    slots
};

impl OpKind {
    /// The kind named exactly `name`.
    fn from_name(name: &[u8]) -> Option<OpKind> {
        if name.len() < 2 {
            return None;
        }
        let kind = *ALL_KINDS.get(KIND_SLOTS[kind_slot(name)] as usize)?;
        (kind.name().as_bytes() == name).then_some(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for kind in ALL_KINDS {
            for ty in ALL_TYPE_TAGS {
                let op = Op::new(kind, ty);
                assert_eq!(Op::from_id(op.id()), Some(op));
                assert!((op.id().0 as usize) < NUM_OPS);
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in ALL_KINDS {
            for ty in ALL_TYPE_TAGS {
                let op = Op::new(kind, ty);
                let parsed: Op = op.to_string().parse().expect("parse back");
                assert_eq!(parsed, op);
            }
        }
    }

    #[test]
    fn bad_names_rejected() {
        assert!("Frobnicate".parse::<Op>().is_err());
        assert!("AddI3".parse::<Op>().is_err());
        assert!("".parse::<Op>().is_err());
        assert!("addI4".parse::<Op>().is_err());
    }

    #[test]
    fn arity_is_consistent() {
        assert_eq!(Op::new(OpKind::Const, TypeTag::I4).arity(), 0);
        assert_eq!(Op::new(OpKind::Cvt, TypeTag::I8).arity(), 1);
        assert_eq!(Op::new(OpKind::BrLt, TypeTag::I4).arity(), 2);
    }

    #[test]
    fn from_id_rejects_out_of_range() {
        assert_eq!(Op::from_id(OpId(NUM_OPS as u16)), None);
        assert_eq!(Op::from_id(OpId(u16::MAX)), None);
    }

    #[test]
    fn statements_classified() {
        assert!(OpKind::Store.is_statement());
        assert!(OpKind::BrEq.is_statement());
        assert!(!OpKind::Add.is_statement());
        assert!(!OpKind::Load.is_statement());
    }
}
