//! The one-pass s-expr parser against the recursive parser it replaced.
//!
//! The old parser lives on below as `reference`, together with the old
//! operator-name scan. Every input, well-formed or mutated, must give
//! the same result under both: on success the same nodes (operators,
//! children, payloads, symbol ids), symbol names and roots; on failure
//! the same message at the same byte offset, and the same forest left
//! behind.

use odburg::ir::{parse_sexpr, to_sexpr, Forest, Op, ALL_KINDS, ALL_TYPE_TAGS};
use odburg::workloads::builtin_traffic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The recursive parser and the linear operator scan as they were
/// before the one-pass parser.
mod reference {
    use odburg::ir::{Forest, NodeId, Op, Payload, ALL_KINDS, ALL_TYPE_TAGS};

    /// The old `Op::from_str`: kinds in order, then an exact suffix.
    pub fn parse_op(s: &str) -> Result<Op, String> {
        for kind in ALL_KINDS {
            if let Some(rest) = s.strip_prefix(&kind.to_string()) {
                for ty in ALL_TYPE_TAGS {
                    if rest == ty.to_string() {
                        return Ok(Op::new(kind, ty));
                    }
                }
            }
        }
        Err(format!("unknown operator name `{s}`"))
    }

    /// The old `parse_sexpr`; errors are `(message, offset)`.
    pub fn parse_sexpr(forest: &mut Forest, input: &str) -> Result<NodeId, (String, usize)> {
        let mut p = Parser { input, pos: 0 };
        let id = p.parse_tree(forest)?;
        p.skip_ws();
        if p.pos != input.len() {
            return Err(("trailing input".into(), p.pos));
        }
        Ok(id)
    }

    struct Parser<'a> {
        input: &'a str,
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn skip_ws(&mut self) {
            let bytes = self.input.as_bytes();
            while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.input.as_bytes().get(self.pos).copied()
        }

        fn token(&mut self) -> &'a str {
            let start = self.pos;
            let bytes = self.input.as_bytes();
            while self.pos < bytes.len()
                && !bytes[self.pos].is_ascii_whitespace()
                && bytes[self.pos] != b'('
                && bytes[self.pos] != b')'
            {
                self.pos += 1;
            }
            &self.input[start..self.pos]
        }

        fn parse_tree(&mut self, forest: &mut Forest) -> Result<NodeId, (String, usize)> {
            self.skip_ws();
            let parenthesized = self.peek() == Some(b'(');
            if parenthesized {
                self.pos += 1;
                self.skip_ws();
            }
            let op_start = self.pos;
            let op_tok = self.token();
            if op_tok.is_empty() {
                return Err(("expected operator name".into(), self.pos));
            }
            let op = parse_op(op_tok).map_err(|e| (e, op_start))?;

            self.skip_ws();
            let mut payload = Payload::None;
            if let Some(c) = self.peek() {
                if c == b'@' {
                    self.pos += 1;
                    let name = self.token();
                    if name.is_empty() {
                        return Err(("expected symbol name after `@`".into(), self.pos));
                    }
                    payload = Payload::Sym(forest.intern(name));
                } else if c == b'#' {
                    self.pos += 1;
                    let start = self.pos;
                    let tok = self.token();
                    let v: f64 = tok
                        .parse()
                        .map_err(|_| ("invalid float payload".to_string(), start))?;
                    payload = Payload::FloatBits(v.to_bits());
                } else if c == b'-' || c.is_ascii_digit() {
                    let start = self.pos;
                    let tok = self.token();
                    let v: i64 = tok
                        .parse()
                        .map_err(|_| ("invalid integer payload".to_string(), start))?;
                    payload = Payload::Int(v);
                }
            }

            let mut children = Vec::new();
            if parenthesized {
                loop {
                    self.skip_ws();
                    match self.peek() {
                        Some(b')') => {
                            self.pos += 1;
                            break;
                        }
                        Some(_) => children.push(self.parse_tree(forest)?),
                        None => return Err(("missing `)`".into(), self.pos)),
                    }
                }
            }
            if children.len() != op.arity() {
                return Err((
                    format!(
                        "operator {op} expects {} children, got {}",
                        op.arity(),
                        children.len()
                    ),
                    op_start,
                ));
            }
            Ok(forest.push(op, &children, payload))
        }
    }
}

/// Parses `input` into both forests and requires the same outcome and
/// the same forests afterwards. Returns whether it parsed.
fn check(input: &str, new: &mut Forest, old: &mut Forest) -> bool {
    let got = parse_sexpr(new, input);
    let want = reference::parse_sexpr(old, input);
    match (&got, &want) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "roots differ on {input:?}");
            new.add_root(*a);
            old.add_root(*b);
        }
        (Err(e), Err((message, offset))) => {
            assert_eq!(
                (e.to_string(), e.offset),
                (format!("{message} at byte {offset}"), *offset),
                "errors differ on {input:?}"
            );
        }
        _ => panic!("{input:?}: one-pass {got:?}, recursive {want:?}"),
    }
    assert_eq!(new.nodes(), old.nodes(), "nodes differ after {input:?}");
    assert_eq!(new.roots(), old.roots(), "roots differ after {input:?}");
    for node in new.nodes() {
        if let Some(sym) = node.payload().as_sym() {
            assert_eq!(
                new.symbol(sym),
                old.symbol(sym),
                "symbols differ after {input:?}"
            );
        }
    }
    got.is_ok()
}

/// Every line of `builtin_traffic(seed, jobs)`, one `Vec` per job, as
/// `to_sexpr` renders it.
fn traffic_lines(seed: u64, jobs: usize) -> Vec<Vec<String>> {
    builtin_traffic(seed, jobs)
        .iter()
        .map(|job| {
            let f = &job.forest;
            f.roots().iter().map(|&r| to_sexpr(f, r)).collect()
        })
        .collect()
}

/// The byte span of a random parenthesized subtree of `line` below its
/// root, if it has one.
fn subtree(rng: &mut StdRng, line: &str) -> Option<(usize, usize)> {
    let opens: Vec<usize> = line.match_indices('(').map(|(i, _)| i).skip(1).collect();
    if opens.is_empty() {
        return None;
    }
    let start = opens[rng.gen_range(0..opens.len())];
    let mut depth = 0usize;
    for (i, b) in line.bytes().enumerate().skip(start) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some((start, i + 1));
                }
            }
            _ => {}
        }
    }
    None
}

/// A random char boundary of `s`, `s.len()` included.
fn boundary(rng: &mut StdRng, s: &str) -> usize {
    let mut at = rng.gen_range(0..s.len() + 1);
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

const OPERATOR_NAMES: [&str; 12] = [
    "AddI9",
    "Ad",
    "I8",
    "AddrI8",
    "ConstI3",
    "constI8",
    "ConstI8x",
    "é",
    "AddI8é",
    "BrEqP0",
    "P",
    "AddrLocal",
];
const PAYLOADS: [&str; 22] = [
    "@",
    "@)",
    "@ x",
    "@é",
    "#",
    "#x",
    "#1.5.2",
    "#inf",
    "#NaN",
    "#-0",
    "#1e400",
    "-",
    "--1",
    "1a",
    "-0",
    "007",
    "+5",
    "0x10",
    "99999999999999999999",
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
];
const BYTES: [&str; 18] = [
    "(", ")", " ", "\t", "\n", "\r", "\x0b", "\x0c", "@", "#", "-", "1", "é", "\u{a0}", "\u{2028}",
    "日本", "\0", "  ",
];
const TRAILERS: [&str; 6] = [" x", ")", " (ConstI8 1)", "  \n", "\x0b", "("];

/// One random mutation of a well-formed `line`.
fn mutate(rng: &mut StdRng, line: &str) -> String {
    let mut s = line.to_owned();
    match rng.gen_range(0..9u32) {
        // Truncation.
        0 => s.truncate(boundary(rng, line)),
        // A missing child.
        1 => {
            if let Some((a, b)) = subtree(rng, line) {
                s.replace_range(a..b, "");
            }
        }
        // An extra child.
        2 => {
            if let Some((a, b)) = subtree(rng, line) {
                s.insert_str(b, &format!(" {}", &line[a..b]));
            }
        }
        // A bad operator name.
        3 => {
            let opens: Vec<usize> = line.match_indices('(').map(|(i, _)| i + 1).collect();
            let at = opens[rng.gen_range(0..opens.len())];
            let end = at + line[at..].find([' ', ')']).unwrap_or(line.len() - at);
            s.replace_range(
                at..end,
                OPERATOR_NAMES[rng.gen_range(0..OPERATOR_NAMES.len())],
            );
        }
        // A bad or unusual payload, replacing one or added after an
        // operator.
        4 => {
            let payload = PAYLOADS[rng.gen_range(0..PAYLOADS.len())];
            let starts: Vec<usize> = line
                .match_indices([' '])
                .map(|(i, _)| i + 1)
                .filter(|&i| line[i..].starts_with(['@', '#', '-', '0', '1', '2', '3', '4']))
                .collect();
            if starts.is_empty() || rng.gen_bool(0.3) {
                let at = line.find(' ').unwrap_or(line.len());
                s.insert_str(at, &format!(" {payload}"));
            } else {
                let at = starts[rng.gen_range(0..starts.len())];
                let end = at + line[at..].find([' ', ')']).unwrap_or(line.len() - at);
                s.replace_range(at..end, payload);
            }
        }
        // A byte or character inserted anywhere.
        5 => s.insert_str(boundary(rng, line), BYTES[rng.gen_range(0..BYTES.len())]),
        // A byte deleted.
        6 => {
            let at = rng.gen_range(0..line.len());
            s.remove(at);
        }
        // Trailing input.
        7 => s.push_str(TRAILERS[rng.gen_range(0..TRAILERS.len())]),
        // Other whitespace, or none, between tokens.
        _ => {
            let spaces: Vec<usize> = line.match_indices(' ').map(|(i, _)| i).collect();
            if let Some(&at) = spaces.get(rng.gen_range(0..spaces.len().max(1))) {
                let with = ["\t", "\n", "\x0c", "\r", "\x0b", "", "   "][rng.gen_range(0..7usize)];
                s.replace_range(at..at + 1, with);
            }
        }
    }
    s
}

#[test]
fn well_formed_traffic_parses_identically() {
    let mut lines = 0;
    for job in traffic_lines(0x5E4B_0001, 300) {
        let (mut new, mut old) = (Forest::new(), Forest::new());
        for line in &job {
            assert!(check(line, &mut new, &mut old), "{line:?} must parse");
            lines += 1;
        }
        // The whole job as one input is trailing input after its first
        // tree, unless it has only one.
        check(&job.join("\n"), &mut Forest::new(), &mut Forest::new());
    }
    assert!(lines > 500, "only {lines} lines");
}

#[test]
fn mutated_traffic_fails_or_parses_identically() {
    let mut rng = StdRng::seed_from_u64(0x5E4B_0002);
    let (mut parsed, mut failed) = (0, 0);
    for job in traffic_lines(0x5E4B_0003, 150) {
        // One forest per job, as a client parses it: failures leave
        // their interned names and finished children behind, and the
        // lines after them see that state.
        let (mut new, mut old) = (Forest::new(), Forest::new());
        for line in &job {
            for _ in 0..12 {
                let input = mutate(&mut rng, line);
                if check(&input, &mut new, &mut old) {
                    parsed += 1;
                } else {
                    failed += 1;
                }
            }
        }
    }
    // Both outcomes are exercised in bulk.
    assert!(
        parsed > 500 && failed > 2000,
        "{parsed} parsed, {failed} failed"
    );
}

#[test]
fn hand_written_inputs_parse_identically() {
    let inputs = [
        "",
        " ",
        "(",
        ")",
        "()",
        "( )",
        "(ConstI8 1",
        "(ConstI8 1))",
        "ConstI8 1",
        "ConstI8",
        "  ConstI8 -7  ",
        "(NegI4 ConstI4 3)",
        "(NegI4 (ConstI4 3) (ConstI4 4) (ConstI4 5))",
        "(NegI4 (ConstI4 3) (WeirdOp))",
        "(AddI8 (ConstI8 1))",
        "(AddI8 ConstI8 1 ConstI8 2",
        "ConstI8 1 garbage",
        "(ConstI8 -)",
        "(ConstI8 -0)",
        "(ConstI8 1-2)",
        "(ConstI8 -9223372036854775808)",
        "(ConstI8 -9223372036854775809)",
        "(ConstI8 9223372036854775808)",
        "(ConstF8 #2.5)",
        "ConstF8 #-1e-3",
        "(AddrLocalP @x)",
        "(AddrLocalP @)",
        "(AddrLocalP @x@y)",
        "(AddrLocalP @(x))",
        "(JumpV @L1)",
        "(ConstI8 1(ConstI8 2))",
        "(StoreI8(AddrLocalP @x)(ConstI8 1))",
        "(LabelV @é)",
        "(ConstI8\u{a0}1)",
        "\u{2028}(ConstI8 1)",
        "(ConstI8 1)\u{a0}",
        "(ConstI8\x0b1)",
        "\t(ConstI8\x0c1\r)\n",
        "(LoadI8 (LoadP (LoadP (LoadP (AddrLocalP @p)))))",
        "(BrEqI4 (ConstI4 1) (ConstI4 2) @L)",
        "(BrEqI4 @L (ConstI4 1) (ConstI4 2))",
    ];
    for input in inputs {
        check(input, &mut Forest::new(), &mut Forest::new());
    }
    // Depth past the inline frames, and past them again after a pop.
    let deep = format!("{}(ConstI8 1){}", "(NegI8 ".repeat(100), ")".repeat(100));
    assert!(check(&deep, &mut Forest::new(), &mut Forest::new()));
    let wide = format!(
        "(AddI8 {} {})",
        deep,
        deep.replace("(ConstI8 1)", "(ConstI8 2)")
    );
    assert!(check(&wide, &mut Forest::new(), &mut Forest::new()));
    check(
        &deep[..deep.len() - 1],
        &mut Forest::new(),
        &mut Forest::new(),
    );
    check(&format!("{deep})"), &mut Forest::new(), &mut Forest::new());
}

#[test]
fn every_operator_name_and_junk_token_parses_as_the_old_scan_did() {
    let mut names = Vec::new();
    for kind in ALL_KINDS {
        for ty in ALL_TYPE_TAGS {
            names.push(format!("{kind}{ty}"));
        }
    }
    assert_eq!(names.len(), 240);
    let mut junk: Vec<String> = Vec::new();
    for name in &names {
        junk.push(name[..name.len() - 1].to_owned());
        junk.push(name[1..].to_owned());
        junk.push(format!("{name}x"));
        junk.push(format!("x{name}"));
        junk.push(format!("{name}é"));
        junk.push(name.to_lowercase());
        junk.push(name.replace('I', "F"));
    }
    for kind in ALL_KINDS {
        junk.push(kind.to_string());
        for suffix in ["I3", "F2", "F1", "PP", "VV", "I", "F", "8", "é", ""] {
            junk.push(format!("{kind}{suffix}"));
        }
    }
    for ty in ALL_TYPE_TAGS {
        junk.push(ty.to_string());
    }
    junk.extend(
        [
            "", "é", "P", "V", "I8", "Br", "BrI8", "AddrI8", "Addr", "OrP", "OrI9", "ÿV",
        ]
        .map(String::from),
    );
    // Random strings over the bytes of the names.
    let alphabet: Vec<char> = "ACDFGIJLMNOPRSVXabdeghlmnoqrstuvx12348".chars().collect();
    let mut rng = StdRng::seed_from_u64(0x5E4B_0004);
    for _ in 0..20_000 {
        let len = rng.gen_range(0..12usize);
        junk.push(
            (0..len)
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                .collect(),
        );
    }
    let mut accepted = 0;
    for s in names.iter().chain(&junk) {
        let got = s.parse::<Op>().map_err(|e| e.to_string());
        assert_eq!(got, reference::parse_op(s), "{s:?}");
        accepted += usize::from(got.is_ok());
    }
    assert!(accepted >= 240, "{accepted} accepted");
}
