//! Compiled emission templates.
//!
//! A source rule's template is text such as `"add {a}, {b}; mov {b}, {dst}"`.
//! [`Grammar::normalize`](crate::Grammar::normalize) compiles every template
//! once into [`Templates`]: all literal text of the grammar goes into one
//! buffer, and each rule gets a flat range of [`Piece`]s that the reducer
//! (`odburg_codegen`) interprets per rule firing, without parsing text.
//!
//! Compilation keeps the rendering rules of the text form exactly:
//!
//! * `;` separates instructions; each part is trimmed and empty parts are
//!   skipped. Every non-empty part ends with [`Piece::End`].
//! * `{dst}`, `{a}`…`{d}`, `{pa}`…`{pd}`, `{imm}`, `{sym}` and `{lbl}`
//!   become placeholders; the reducer renders them (and their `?…`
//!   fallbacks).
//! * An unknown `{key}` and an unterminated `{` are literal text.

use crate::grammar::{Rule, RuleId};

/// One piece of a compiled template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Piece {
    /// Literal text: the byte range `start..end` of [`Templates::text`].
    Lit(u32, u32),
    /// `{dst}`: the rule's fresh result register.
    Dst,
    /// `{a}`…`{d}`: the result of the pattern's nth nonterminal leaf.
    Leaf(u8),
    /// `{pa}`…`{pd}`: the payload of the node bound to the nth leaf.
    LeafPayload(u8),
    /// `{imm}`: the first payload the pattern's operators match.
    Imm,
    /// `{sym}`: like `{imm}`, rendered as a symbol name.
    Sym,
    /// `{lbl}`: the payload of the matched root node.
    Lbl,
    /// The end of one instruction.
    End,
}

/// The compiled form of one rule's template.
#[derive(Debug, Clone, Copy)]
struct Compiled {
    start: u32,
    end: u32,
    emits: bool,
    dst: bool,
}

/// The compiled templates of a grammar's source rules, indexed by
/// [`RuleId`]. Read through
/// [`NormalGrammar::templates`](crate::NormalGrammar::templates).
#[derive(Debug, Clone)]
pub struct Templates {
    text: String,
    pieces: Vec<Piece>,
    rules: Vec<Compiled>,
}

impl Templates {
    /// Compiles the templates of `rules` (indexed by their position).
    pub fn compile(rules: &[Rule]) -> Templates {
        // Sized up front, since normalization runs in set-up: literal text
        // never exceeds the template text, and the built-in grammars
        // compile to about one piece per three bytes of it.
        let text_len: usize = rules
            .iter()
            .flat_map(|r| &r.template)
            .map(String::len)
            .sum();
        let mut t = Templates {
            text: String::with_capacity(text_len),
            pieces: Vec::with_capacity(text_len / 3),
            rules: Vec::with_capacity(rules.len()),
        };
        for rule in rules {
            let start = t.pieces.len() as u32;
            let mut dst = false;
            if let Some(template) = &rule.template {
                for part in template.split(';').map(str::trim) {
                    if !part.is_empty() {
                        dst |= t.compile_part(part);
                        t.pieces.push(Piece::End);
                    }
                }
            }
            t.rules.push(Compiled {
                start,
                end: t.pieces.len() as u32,
                emits: rule.template.is_some(),
                dst,
            });
        }
        t
    }

    /// Compiles one instruction; returns whether its text mentions
    /// `{dst}`.
    fn compile_part(&mut self, part: &str) -> bool {
        let mut dst = false;
        let mut rest = part;
        while let Some(open) = rest.find('{') {
            self.literal(&rest[..open]);
            let Some(close) = rest[open..].find('}') else {
                rest = &rest[open..];
                break;
            };
            // Text outside `{…}` holds no `{`, so any `{dst}` in the part
            // ends at the `}` that closes a key: `{dst}`, or `{{dst}`.
            dst |= rest[open..=open + close].ends_with("{dst}");
            let key = &rest[open + 1..open + close];
            let piece = match key.as_bytes() {
                b"dst" => Some(Piece::Dst),
                [c @ b'a'..=b'd'] => Some(Piece::Leaf(c - b'a')),
                [b'p', c @ b'a'..=b'd'] => Some(Piece::LeafPayload(c - b'a')),
                b"imm" => Some(Piece::Imm),
                b"sym" => Some(Piece::Sym),
                b"lbl" => Some(Piece::Lbl),
                _ => None,
            };
            match piece {
                Some(p) => self.pieces.push(p),
                None => self.literal(&rest[open..=open + close]),
            }
            rest = &rest[open + close + 1..];
        }
        self.literal(rest);
        dst
    }

    /// Appends literal text, extending the previous piece when it is the
    /// literal just before it in the buffer.
    fn literal(&mut self, s: &str) {
        if s.is_empty() {
            return;
        }
        let start = self.text.len() as u32;
        self.text.push_str(s);
        let end = self.text.len() as u32;
        match self.pieces.last_mut() {
            Some(Piece::Lit(_, e)) if *e == start => *e = end,
            _ => self.pieces.push(Piece::Lit(start, end)),
        }
    }

    /// The buffer every [`Piece::Lit`] points into.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The pieces of `rule`'s template; empty if it has none.
    pub fn pieces(&self, rule: RuleId) -> &[Piece] {
        let c = self.rules[rule.0 as usize];
        &self.pieces[c.start as usize..c.end as usize]
    }

    /// `true` if `rule` has a template (possibly an empty one).
    pub fn emits(&self, rule: RuleId) -> bool {
        self.rules[rule.0 as usize].emits
    }

    /// `true` if `rule`'s template mentions `{dst}` anywhere, so firing
    /// it allocates a result register.
    pub fn dst(&self, rule: RuleId) -> bool {
        self.rules[rule.0 as usize].dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostExpr;
    use crate::grammar::NtId;
    use crate::pattern::Pattern;

    fn compile(templates: &[Option<&str>]) -> Templates {
        let rules: Vec<Rule> = templates
            .iter()
            .enumerate()
            .map(|(i, t)| Rule {
                id: RuleId(i as u32),
                lhs: NtId(0),
                pattern: Pattern::nt(NtId(0)),
                cost: CostExpr::Fixed(0),
                template: t.map(str::to_owned),
            })
            .collect();
        Templates::compile(&rules)
    }

    /// Renders pieces back to text, placeholders as `<name>`.
    fn show(t: &Templates, rule: u32) -> String {
        let mut s = String::new();
        for p in t.pieces(RuleId(rule)) {
            match *p {
                Piece::Lit(a, b) => s.push_str(&t.text()[a as usize..b as usize]),
                Piece::Dst => s.push_str("<dst>"),
                Piece::Leaf(i) => s.push_str(&format!("<{i}>")),
                Piece::LeafPayload(i) => s.push_str(&format!("<p{i}>")),
                Piece::Imm => s.push_str("<imm>"),
                Piece::Sym => s.push_str("<sym>"),
                Piece::Lbl => s.push_str("<lbl>"),
                Piece::End => s.push('|'),
            }
        }
        s
    }

    #[test]
    fn parts_are_trimmed_and_empty_parts_skipped() {
        let t = compile(&[Some(" add {a}, {b} ;; mov {b}, {dst};  ")]);
        assert_eq!(show(&t, 0), "add <0>, <1>|mov <1>, <dst>|");
        assert!(t.emits(RuleId(0)) && t.dst(RuleId(0)));
    }

    #[test]
    fn every_placeholder_compiles() {
        let t = compile(&[Some("{a}{b}{c}{d}{pa}{pd}{imm}{sym}{lbl}{dst}")]);
        assert_eq!(show(&t, 0), "<0><1><2><3><p0><p3><imm><sym><lbl><dst>|");
    }

    #[test]
    fn unknown_keys_and_open_braces_stay_literal() {
        let t = compile(&[
            Some("x {e} {pe} {} {{dst}} y {a"),
            Some("j {lbl"),
            Some("k {x {dst} {dst"),
        ]);
        assert_eq!(show(&t, 0), "x {e} {pe} {} {{dst}} y {a|");
        // `{{dst}` is not the `dst` key, but the text mentions `{dst}`.
        assert!(t.dst(RuleId(0)));
        // Adjacent literals share one piece.
        assert_eq!(t.pieces(RuleId(0)).len(), 2);
        assert_eq!(show(&t, 1), "j {lbl|");
        assert!(!t.dst(RuleId(1)));
        assert_eq!(show(&t, 2), "k {x {dst} {dst|");
        assert!(t.dst(RuleId(2)));
    }

    #[test]
    fn missing_and_empty_templates_differ() {
        let t = compile(&[None, Some(""), Some(" ; ")]);
        assert!(!t.emits(RuleId(0)));
        assert!(t.emits(RuleId(1)) && t.emits(RuleId(2)));
        for r in 0..3 {
            assert!(t.pieces(RuleId(r)).is_empty());
        }
    }
}
