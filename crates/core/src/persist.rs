//! Persistent automaton tables: a versioned, compact binary
//! (de)serialization of [`AutomatonSnapshot`] for warm-starting fresh
//! processes.
//!
//! # Why
//!
//! The on-demand automaton's whole trade-off is paying table
//! construction lazily instead of offline — which means every fresh
//! process pays the cold-start cost again (the `figure7_coldstart`
//! bench measures it). For a long-running service that restarts under
//! traffic, the bridge between "on-demand" and "offline" is to persist
//! the learned tables: export a snapshot before shutdown, import it at
//! startup, and label at warm hit rates from the first request. The
//! warm-started master
//! ([`OnDemandAutomaton::from_snapshot`](crate::OnDemandAutomaton::from_snapshot),
//! [`SharedOnDemand::with_seed_snapshot`](crate::SharedOnDemand::with_seed_snapshot))
//! keeps growing from wherever the tables left off.
//!
//! # Format
//!
//! Little-endian throughout:
//!
//! ```text
//! magic    b"ODBT"
//! version  u32      (FORMAT_VERSION; unknown versions are rejected)
//! length   u64      payload byte count
//! checksum u64      FNV-1a over the payload bytes
//! payload:
//!   grammar fingerprint   u64  (NormalGrammar::fingerprint)
//!   config                project_children u8, budget_policy u8
//!                         (0=error, 1=flush, 2=compact; compact is
//!                         followed by byte_budget u64 +
//!                         retain_fraction f32 bits u32),
//!                         state_budget u64
//!   epoch                 u64
//!   num_nts               u32
//!   signatures            count; per sig: len + RuleCost entries
//!   state arena           count; per state: len + (cost, rule) pairs
//!   projection arena      same encoding
//!   transition table      count; per entry: op, kids[MAX_ARITY], sig, state
//!   projection cache      count; per entry: (state, op, pos) -> projected
//! ```
//!
//! Table entries are written in sorted order, so exporting the same
//! snapshot twice produces identical bytes.
//!
//! # Integrity
//!
//! A table file is only meaningful relative to the exact grammar and
//! automaton configuration it was built from — state and rule ids are
//! indices into those structures, so importing mismatched tables would
//! produce *wrong labelings*, not just errors. Import therefore rejects,
//! with a specific [`PersistError`]:
//!
//! * files that are not table files, or from another format version;
//! * truncated files and payload corruption (checksum);
//! * a grammar whose [`fingerprint`](odburg_grammar::NormalGrammar::fingerprint)
//!   differs from the one the tables were exported under;
//! * a configuration (projection mode, budget, budget policy) differing
//!   from the expected one;
//! * internally inconsistent tables (out-of-range ids) — defense in
//!   depth behind the checksum.
//!
//! Two caveats. Dynamic-cost *functions* cannot be serialized; the
//! fingerprint covers their names and rule positions, so rebinding a
//! name to a different closure between export and import is not
//! detected — keep bindings stable across restarts. And the epoch
//! travels with the snapshot: importing tables resumes the epoch
//! numbering of the exporting process, so pre-export pinned labelings
//! are not resurrected (state ids never cross process boundaries except
//! through the snapshot itself).
//!
//! The format lists table *entries*, not the in-memory slot layout (see
//! `dense.rs`): import inserts every entry into fresh slot tables, and
//! since slot counts are a function of entry counts, [`inspect_tables`]
//! reports exactly the [`ComponentBytes`] the imported snapshot will
//! have.

use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use odburg_grammar::{Cost, NormalGrammar, RuleCost};
use odburg_ir::NUM_OPS;

use crate::dense::Tables;
use crate::govern::{self, ComponentBytes};
use crate::ondemand::{BudgetPolicy, OnDemandConfig};
use crate::signature::SigId;
use crate::snapshot::{AutomatonSnapshot, DynEvalTable, MAX_ARITY, NO_CHILD};
use crate::state::{StateData, StateId};

/// The current table-file format version. Version 2 added the
/// byte-budget fields of [`BudgetPolicy::Compact`] to the configuration
/// section; version-1 files are rejected with
/// [`PersistError::UnsupportedVersion`] (re-export them).
pub const FORMAT_VERSION: u32 = 2;

const MAGIC: [u8; 4] = *b"ODBT";

/// Errors produced while exporting or importing automaton tables.
#[derive(Debug)]
pub enum PersistError {
    /// Reading or writing the underlying stream failed.
    Io(std::io::Error),
    /// The input does not start with the table-file magic.
    BadMagic,
    /// The file uses a format version this build does not understand.
    UnsupportedVersion {
        /// The version found in the file.
        found: u32,
    },
    /// The file ends before the declared payload does.
    Truncated,
    /// The payload checksum does not match — the file is corrupted.
    ChecksumMismatch,
    /// The tables were exported under a different grammar.
    GrammarMismatch {
        /// Fingerprint of the grammar the caller supplied.
        expected: u64,
        /// Fingerprint recorded in the file.
        found: u64,
    },
    /// The tables were exported under a different automaton
    /// configuration.
    ConfigMismatch {
        /// Configuration the caller expects.
        expected: OnDemandConfig,
        /// Configuration recorded in the file.
        found: OnDemandConfig,
    },
    /// The payload is internally inconsistent (out-of-range ids or
    /// malformed sections) despite a valid checksum.
    Malformed(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "table file I/O error: {e}"),
            PersistError::BadMagic => {
                write!(f, "not an odburg table file (bad magic)")
            }
            PersistError::UnsupportedVersion { found } => write!(
                f,
                "unsupported table format version {found} (this build reads version {FORMAT_VERSION})"
            ),
            PersistError::Truncated => write!(f, "table file is truncated"),
            PersistError::ChecksumMismatch => {
                write!(f, "table file is corrupted (checksum mismatch)")
            }
            PersistError::GrammarMismatch { expected, found } => write!(
                f,
                "tables were exported for a different grammar \
                 (fingerprint {found:#018x}, expected {expected:#018x}); re-export them"
            ),
            PersistError::ConfigMismatch { expected, found } => write!(
                f,
                "tables were exported under a different automaton configuration \
                 ({found:?}, expected {expected:?})"
            ),
            PersistError::Malformed(what) => {
                write!(f, "table file is malformed: {what}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------- export

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn rule_cost(&mut self, c: RuleCost) {
        self.u32(match c {
            RuleCost::Finite(v) => v as u32,
            RuleCost::Infinite => u32::MAX,
        });
    }
    fn state(&mut self, s: &StateData) {
        let (costs, rules) = s.raw_parts();
        self.u32(costs.len() as u32);
        for (&c, &r) in costs.iter().zip(rules.iter()) {
            self.u32(c.raw());
            self.u32(r);
        }
    }
}

/// Serializes a snapshot's tables into `writer`; see the
/// [module docs](self) for the format.
///
/// # Errors
///
/// [`PersistError::Io`] if writing fails.
pub fn export_snapshot<W: Write>(
    snapshot: &AutomatonSnapshot,
    mut writer: W,
) -> Result<(), PersistError> {
    let mut e = Enc { buf: Vec::new() };
    let config = snapshot.config();

    e.u64(snapshot.grammar().fingerprint());
    e.u8(config.project_children as u8);
    match config.budget_policy {
        BudgetPolicy::Error => e.u8(0),
        BudgetPolicy::Flush => e.u8(1),
        BudgetPolicy::Compact {
            byte_budget,
            retain_fraction,
        } => {
            e.u8(2);
            e.u64(byte_budget as u64);
            e.u32(retain_fraction.to_bits());
        }
    }
    e.u64(config.state_budget as u64);
    e.u64(snapshot.epoch());
    e.u32(snapshot.grammar().num_nts() as u32);

    let tables = snapshot.tables();
    let sigs = &tables.signatures;
    e.u32(sigs.len() as u32);
    for sig in sigs.iter() {
        e.u32(sig.len() as u32);
        for &c in sig {
            e.rule_cost(c);
        }
    }

    for arena in [snapshot.states_arena(), snapshot.projections_arena()] {
        e.u32(arena.len() as u32);
        for state in arena {
            e.state(state);
        }
    }

    let mut transitions: Vec<_> = tables.transitions().collect();
    transitions.sort_unstable_by_key(|t| (t.op, t.kids, t.sig));
    e.u32(transitions.len() as u32);
    for t in transitions {
        e.u16(t.op);
        for kid in t.kids {
            e.u32(kid);
        }
        e.u32(t.sig);
        e.u32(t.state.0);
    }

    let mut cache: Vec<_> = tables.projections().collect();
    cache.sort_unstable_by_key(|p| (p.full, p.op, p.pos));
    e.u32(cache.len() as u32);
    for p in cache {
        e.u32(p.full.0);
        e.u16(p.op);
        e.u8(p.pos);
        e.u32(p.projection.0);
    }

    writer.write_all(&MAGIC)?;
    writer.write_all(&FORMAT_VERSION.to_le_bytes())?;
    writer.write_all(&(e.buf.len() as u64).to_le_bytes())?;
    writer.write_all(&fnv1a(&e.buf).to_le_bytes())?;
    writer.write_all(&e.buf)?;
    writer.flush()?;
    Ok(())
}

// ---------------------------------------------------------------- import

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(PersistError::Truncated)?;
        let bytes = &self.buf[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }
    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Bounds a `count` field before anything is allocated for it: each
    /// counted item occupies at least `min_item_bytes` of remaining
    /// payload, so a count beyond that is malformed (and would otherwise
    /// let a 12-byte file request gigabytes).
    fn count(&mut self, what: &str, min_item_bytes: usize) -> Result<usize, PersistError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item_bytes) > self.buf.len() - self.pos {
            return Err(PersistError::Malformed(format!(
                "{what} count {n} exceeds remaining payload"
            )));
        }
        Ok(n)
    }
    fn rule_cost(&mut self) -> Result<RuleCost, PersistError> {
        match self.u32()? {
            u32::MAX => Ok(RuleCost::Infinite),
            v if v <= u16::MAX as u32 => Ok(RuleCost::Finite(v as u16)),
            v => Err(PersistError::Malformed(format!(
                "rule cost {v} out of range"
            ))),
        }
    }
    /// Decodes one state. Rule ids are range-checked later, against the
    /// grammar, by [`import_snapshot`]; [`inspect_snapshot`] has no
    /// grammar to check them against.
    fn state(&mut self) -> Result<StateData, PersistError> {
        let slots = self.count("state slot", 8)?;
        let mut costs = Vec::with_capacity(slots);
        let mut rules = Vec::with_capacity(slots);
        for _ in 0..slots {
            let raw = self.u32()?;
            costs.push(if raw == u32::MAX {
                Cost::INFINITE
            } else {
                Cost::finite(raw)
            });
            rules.push(self.u32()?);
        }
        Ok(StateData::from_raw_parts(
            costs.into_boxed_slice(),
            rules.into_boxed_slice(),
        ))
    }
}

/// The decoded, structurally validated contents of a table file —
/// everything checkable without the grammar. Grammar-dependent checks
/// (fingerprint, rule-id ranges, nonterminal count) happen in
/// [`import_snapshot`]; [`inspect_tables`] stops here.
struct RawTables {
    fingerprint: u64,
    config: OnDemandConfig,
    epoch: u64,
    num_nts: usize,
    states: Vec<Arc<StateData>>,
    projections: Vec<Arc<StateData>>,
    tables: Tables,
}

/// Reads and verifies the file header, returning the checksummed
/// payload.
fn read_payload<R: Read>(mut reader: R) -> Result<Vec<u8>, PersistError> {
    let mut header = [0u8; 24];
    read_exact_or_truncated(&mut reader, &mut header)?;
    if header[0..4] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version });
    }
    let length = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let checksum = u64::from_le_bytes(header[16..24].try_into().unwrap());
    if length > u32::MAX as u64 {
        return Err(PersistError::Malformed(format!(
            "payload length {length} is implausible"
        )));
    }
    // Read through `take` rather than preallocating `length` bytes, so a
    // corrupted length field cannot request a giant allocation.
    let mut payload = Vec::new();
    reader.by_ref().take(length).read_to_end(&mut payload)?;
    if (payload.len() as u64) < length {
        return Err(PersistError::Truncated);
    }
    if fnv1a(&payload) != checksum {
        return Err(PersistError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Decodes a verified payload, enforcing every internal-consistency
/// invariant that does not need the grammar.
fn parse_payload(payload: &[u8]) -> Result<RawTables, PersistError> {
    let mut d = Dec {
        buf: payload,
        pos: 0,
    };

    let fingerprint = d.u64()?;
    let project_children = match d.u8()? {
        0 => false,
        1 => true,
        v => {
            return Err(PersistError::Malformed(format!(
                "projection flag {v} out of range"
            )))
        }
    };
    let budget_policy = match d.u8()? {
        0 => BudgetPolicy::Error,
        1 => BudgetPolicy::Flush,
        2 => {
            let byte_budget = d.u64()? as usize;
            let retain_fraction = f32::from_bits(d.u32()?);
            if !retain_fraction.is_finite() {
                return Err(PersistError::Malformed(format!(
                    "retain fraction {retain_fraction} is not finite"
                )));
            }
            BudgetPolicy::Compact {
                byte_budget,
                retain_fraction,
            }
        }
        v => {
            return Err(PersistError::Malformed(format!(
                "budget policy {v} out of range"
            )))
        }
    };
    let state_budget = d.u64()? as usize;
    let config = OnDemandConfig {
        project_children,
        state_budget,
        budget_policy,
    };
    let epoch = d.u64()?;
    let num_nts = d.u32()? as usize;

    let num_sigs = d.count("signature", 4)?;
    if num_sigs == 0 {
        return Err(PersistError::Malformed(
            "signature section lost the empty signature".into(),
        ));
    }
    let mut tables = Tables::default();
    for i in 0..num_sigs {
        let len = d.count("signature entry", 4)?;
        let mut costs = Vec::with_capacity(len);
        for _ in 0..len {
            costs.push(d.rule_cost()?);
        }
        if i == 0 {
            if !costs.is_empty() {
                return Err(PersistError::Malformed(
                    "signature 0 must be the empty signature".into(),
                ));
            }
            continue; // pre-interned by every signature interner
        }
        if costs.is_empty() || tables.signatures.intern(&costs) != SigId(i as u32) {
            return Err(PersistError::Malformed(format!(
                "signature {i} is empty or a duplicate"
            )));
        }
    }

    let mut arenas: Vec<Vec<Arc<StateData>>> = Vec::with_capacity(2);
    for (name, fixed_slots) in [("state", Some(num_nts)), ("projection", None)] {
        let count = d.count(name, 4)?;
        let mut arena = Vec::with_capacity(count);
        for _ in 0..count {
            let state = d.state()?;
            if fixed_slots.is_some_and(|n| state.len() != n) {
                return Err(PersistError::Malformed(format!(
                    "{name} has {} slots, expected {num_nts}",
                    state.len()
                )));
            }
            arena.push(Arc::new(state));
        }
        arenas.push(arena);
    }
    let projections = arenas.pop().expect("two arenas");
    let states = arenas.pop().expect("two arenas");
    // In projection mode transition keys reference the projection arena,
    // otherwise the state arena.
    let kid_arena_len = if project_children {
        projections.len()
    } else {
        states.len()
    } as u32;

    let num_transitions = d.count("transition", 2 + 4 * MAX_ARITY + 8)?;
    for _ in 0..num_transitions {
        let op = d.u16()?;
        if op as usize >= NUM_OPS {
            return Err(PersistError::Malformed(format!(
                "transition operator {op} of {NUM_OPS}"
            )));
        }
        let mut kids = [NO_CHILD; MAX_ARITY];
        for kid in kids.iter_mut() {
            *kid = d.u32()?;
            if *kid != NO_CHILD && *kid >= kid_arena_len {
                return Err(PersistError::Malformed(format!(
                    "transition child state {kid} of {kid_arena_len}"
                )));
            }
        }
        let sig = d.u32()?;
        if sig as usize >= num_sigs {
            return Err(PersistError::Malformed(format!(
                "transition signature {sig} of {num_sigs}"
            )));
        }
        let state = d.u32()?;
        if state as usize >= states.len() {
            return Err(PersistError::Malformed(format!(
                "transition target state {state} of {}",
                states.len()
            )));
        }
        let (sig, state) = (SigId(sig), StateId(state));
        if tables.lookup(op, kids, sig).is_some() {
            return Err(PersistError::Malformed("duplicate transition key".into()));
        }
        let dead = states[state.0 as usize].is_dead();
        tables.insert_transition(op, kids, sig, state, dead);
    }

    let num_cached = d.count("projection cache entry", 11)?;
    for _ in 0..num_cached {
        let state = d.u32()?;
        let op = d.u16()?;
        let pos = d.u8()?;
        let projected = d.u32()?;
        if state as usize >= states.len() || projected as usize >= projections.len() {
            return Err(PersistError::Malformed(
                "projection cache id out of range".into(),
            ));
        }
        if tables.project(StateId(state), op, pos).is_some() {
            return Err(PersistError::Malformed(
                "duplicate projection cache key".into(),
            ));
        }
        tables.insert_projection(StateId(state), op, pos, StateId(projected));
    }

    if d.pos != payload.len() {
        return Err(PersistError::Malformed(format!(
            "{} trailing bytes after the last section",
            payload.len() - d.pos
        )));
    }

    Ok(RawTables {
        fingerprint,
        config,
        epoch,
        num_nts,
        states,
        projections,
        tables,
    })
}

/// Deserializes tables exported by [`export_snapshot`], validating them
/// against the grammar and configuration the importing automaton will
/// run with.
///
/// # Errors
///
/// See the integrity discussion in the [module docs](self).
pub fn import_snapshot<R: Read>(
    reader: R,
    grammar: Arc<NormalGrammar>,
    expected: OnDemandConfig,
) -> Result<AutomatonSnapshot, PersistError> {
    let payload = read_payload(reader)?;
    let raw = parse_payload(&payload)?;

    let expected_fp = grammar.fingerprint();
    if raw.fingerprint != expected_fp {
        return Err(PersistError::GrammarMismatch {
            expected: expected_fp,
            found: raw.fingerprint,
        });
    }
    if raw.config != expected {
        return Err(PersistError::ConfigMismatch {
            expected,
            found: raw.config,
        });
    }
    if raw.num_nts != grammar.num_nts() {
        return Err(PersistError::Malformed(format!(
            "tables carry {} nonterminals, grammar has {}",
            raw.num_nts,
            grammar.num_nts()
        )));
    }
    let num_rules = grammar.rules().len() as u32;
    for (name, arena) in [("state", &raw.states), ("projection", &raw.projections)] {
        for state in arena {
            let (_, rules) = state.raw_parts();
            if let Some(&rule) = rules.iter().find(|&&r| r != u32::MAX && r >= num_rules) {
                return Err(PersistError::Malformed(format!(
                    "{name} references rule {rule} of {num_rules}"
                )));
            }
        }
    }

    let dyn_eval = Arc::new(DynEvalTable::build(&grammar));
    Ok(AutomatonSnapshot::new(
        raw.epoch,
        grammar,
        raw.config,
        raw.states,
        raw.projections,
        raw.tables,
        dyn_eval,
    ))
}

/// A grammar-free summary of a persisted table file, as printed by
/// `odburg tables stats`: identity (fingerprint, configuration, epoch),
/// per-section entry counts, and the same per-component byte accounting
/// ([`ComponentBytes`]) a live snapshot reports — so a budget can be
/// sized from files on disk.
#[derive(Debug, Clone)]
pub struct TableFileInfo {
    /// Fingerprint of the grammar the tables were exported under.
    pub fingerprint: u64,
    /// The automaton configuration the tables were exported under.
    pub config: OnDemandConfig,
    /// The epoch the snapshot belonged to.
    pub epoch: u64,
    /// Nonterminal count of the exporting grammar's normal form.
    pub num_nts: usize,
    /// States in the arena.
    pub states: usize,
    /// Projected states.
    pub projections: usize,
    /// Memoized transitions.
    pub transitions: usize,
    /// Projection-cache entries.
    pub cached_projections: usize,
    /// Interned dynamic-cost signatures.
    pub signatures: usize,
    /// Accounted bytes per component (identical to what
    /// [`AutomatonSnapshot::stats`] reports for the imported snapshot).
    pub bytes: ComponentBytes,
    /// Raw payload size of the file (excluding the 24-byte header).
    pub payload_bytes: usize,
}

/// Summarizes a table file without a grammar: the header, checksum and
/// every structural invariant are still verified, but fingerprint and
/// rule-range validation (which need the grammar) are skipped — this
/// inspects, it does not import.
///
/// # Errors
///
/// [`PersistError`] for unreadable, truncated, corrupted or malformed
/// files, exactly as [`import_snapshot`] would report them.
pub fn inspect_snapshot<R: Read>(reader: R) -> Result<TableFileInfo, PersistError> {
    let payload = read_payload(reader)?;
    let raw = parse_payload(&payload)?;
    Ok(TableFileInfo {
        fingerprint: raw.fingerprint,
        config: raw.config,
        epoch: raw.epoch,
        num_nts: raw.num_nts,
        states: raw.states.len(),
        projections: raw.projections.len(),
        transitions: raw.tables.transition_count(),
        cached_projections: raw.tables.projection_count(),
        signatures: raw.tables.signatures.len(),
        bytes: govern::account_tables(&raw.states, &raw.projections, &raw.tables),
        payload_bytes: payload.len(),
    })
}

/// Summarizes a table file on disk; see [`inspect_snapshot`].
///
/// # Errors
///
/// See [`inspect_snapshot`], plus [`PersistError::Io`] if the file
/// cannot be opened.
pub fn inspect_tables(path: &Path) -> Result<TableFileInfo, PersistError> {
    let file = std::fs::File::open(path)?;
    inspect_snapshot(std::io::BufReader::new(file))
}

fn read_exact_or_truncated<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<(), PersistError> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            PersistError::Truncated
        } else {
            PersistError::Io(e)
        }
    })
}

// ------------------------------------------------- streaming entry points

/// Streams a snapshot's tables to any [`Write`] sink. This is the single
/// serialization entry point: the file path ([`save_tables`]) and the
/// cluster table-shipping path both produce bytes through it, so a
/// shipped snapshot is bit-identical to a file export of the same
/// snapshot.
///
/// # Errors
///
/// [`PersistError::Io`] if writing fails.
pub fn write_tables_to<W: Write>(
    snapshot: &AutomatonSnapshot,
    writer: W,
) -> Result<(), PersistError> {
    export_snapshot(snapshot, writer)
}

/// Reads tables from any [`Read`] source, validating them against the
/// grammar and configuration the importing automaton will run with.
/// Counterpart of [`write_tables_to`]; the file path ([`load_tables`])
/// and the cluster table-shipping path both consume bytes through it.
///
/// # Errors
///
/// See [`import_snapshot`].
pub fn read_tables_from<R: Read>(
    reader: R,
    grammar: Arc<NormalGrammar>,
    expected: OnDemandConfig,
) -> Result<AutomatonSnapshot, PersistError> {
    import_snapshot(reader, grammar, expected)
}

// ------------------------------------------------------------ file paths

/// Exports a snapshot to a file; see [`write_tables_to`].
///
/// The write is crash-safe: the bytes go to a uniquely named sibling
/// temp file, which is synced to disk and then renamed over `path`
/// (and, on Unix, the directory synced). A concurrent reader, or the
/// next process after a crash mid-export, sees either the previous file
/// or the new one — never a torn mix.
///
/// # Errors
///
/// [`PersistError::Io`] if the temp file cannot be created, written,
/// synced or renamed; the temp file is removed on every error path.
pub fn save_tables(snapshot: &AutomatonSnapshot, path: &Path) -> Result<(), PersistError> {
    static NEXT_TEMP: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("`{}` does not name a file", path.display()),
        )
    })?;
    let mut temp_name = std::ffi::OsString::from(".");
    temp_name.push(name);
    temp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        NEXT_TEMP.fetch_add(1, Ordering::Relaxed)
    ));
    let temp = path.with_file_name(temp_name);
    let file = std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&temp)?;
    let written = (|| {
        write_tables_to(snapshot, std::io::BufWriter::new(&file))?;
        file.sync_all()?;
        std::fs::rename(&temp, path)?;
        // The rename is durable only once the directory entry is.
        #[cfg(unix)]
        {
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        }
        Ok(())
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&temp);
    }
    written
}

/// Imports tables from a file; see [`read_tables_from`].
///
/// # Errors
///
/// See [`import_snapshot`], plus [`PersistError::Io`] if the file cannot
/// be opened.
pub fn load_tables(
    path: &Path,
    grammar: Arc<NormalGrammar>,
    expected: OnDemandConfig,
) -> Result<AutomatonSnapshot, PersistError> {
    let file = std::fs::File::open(path)?;
    read_tables_from(std::io::BufReader::new(file), grammar, expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Labeler;
    use crate::ondemand::OnDemandAutomaton;
    use odburg_grammar::parse_grammar;
    use odburg_ir::{parse_sexpr, Forest};

    fn warmed() -> (OnDemandAutomaton, Forest) {
        let g = parse_grammar(
            r#"
            %start stmt
            addr: reg (0)
            reg: ConstI8 (1)
            reg: LoadI8(addr) (1)
            reg: AddI8(reg, reg) (1)
            stmt: StoreI8(addr, reg) (1)
            "#,
        )
        .unwrap()
        .normalize();
        let mut auto = OnDemandAutomaton::new(Arc::new(g));
        let mut f = Forest::new();
        let root = parse_sexpr(
            &mut f,
            "(StoreI8 (ConstI8 0) (AddI8 (LoadI8 (ConstI8 4)) (ConstI8 2)))",
        )
        .unwrap();
        f.add_root(root);
        auto.label_forest(&f).unwrap();
        (auto, f)
    }

    fn round_trip(auto: &OnDemandAutomaton) -> AutomatonSnapshot {
        let snap = auto.snapshot();
        let mut bytes = Vec::new();
        export_snapshot(&snap, &mut bytes).unwrap();
        import_snapshot(&bytes[..], Arc::clone(auto.grammar()), auto.config()).unwrap()
    }

    #[test]
    fn export_import_preserves_tables_and_labelings() {
        let (auto, forest) = warmed();
        let original = auto.snapshot();
        let imported = round_trip(&auto);
        assert_eq!(imported.stats(), original.stats());

        // The warm-started master labels the workload with zero misses
        // and assigns the same states.
        let mut warm = OnDemandAutomaton::from_snapshot(&imported);
        let relabeled = warm.label_forest(&forest).unwrap();
        assert_eq!(warm.counters().memo_misses, 0, "warm start must not miss");
        let mut cold = OnDemandAutomaton::new(Arc::clone(auto.grammar()));
        assert_eq!(cold.label_forest(&forest).unwrap(), relabeled);
    }

    #[test]
    fn export_is_deterministic() {
        let (auto, _) = warmed();
        let snap = auto.snapshot();
        let mut a = Vec::new();
        let mut b = Vec::new();
        export_snapshot(&snap, &mut a).unwrap();
        export_snapshot(&snap, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn compact_policy_round_trips() {
        let g = parse_grammar(
            r#"
            %start stmt
            addr: reg (0)
            reg: ConstI8 (1)
            reg: LoadI8(addr) (1)
            reg: AddI8(reg, reg) (1)
            stmt: StoreI8(addr, reg) (1)
            "#,
        )
        .unwrap()
        .normalize();
        let config = OnDemandConfig {
            budget_policy: BudgetPolicy::Compact {
                byte_budget: 123_456,
                retain_fraction: 0.375,
            },
            ..OnDemandConfig::default()
        };
        let mut auto = crate::OnDemandAutomaton::with_config(Arc::new(g), config);
        let mut f = Forest::new();
        let root = parse_sexpr(&mut f, "(StoreI8 (ConstI8 0) (ConstI8 1))").unwrap();
        f.add_root(root);
        auto.label_forest(&f).unwrap();

        let mut bytes = Vec::new();
        export_snapshot(&auto.snapshot(), &mut bytes).unwrap();
        let imported = import_snapshot(&bytes[..], Arc::clone(auto.grammar()), config).unwrap();
        assert_eq!(imported.config(), config);
        // And a different compact budget is a config mismatch, not a
        // silent acceptance.
        let other = OnDemandConfig {
            budget_policy: BudgetPolicy::Compact {
                byte_budget: 999,
                retain_fraction: 0.375,
            },
            ..OnDemandConfig::default()
        };
        let err = import_snapshot(&bytes[..], Arc::clone(auto.grammar()), other).unwrap_err();
        assert!(matches!(err, PersistError::ConfigMismatch { .. }), "{err}");
    }

    #[test]
    fn inspect_matches_the_imported_snapshot() {
        let (auto, _) = warmed();
        let snap = auto.snapshot();
        let mut bytes = Vec::new();
        export_snapshot(&snap, &mut bytes).unwrap();
        let info = inspect_snapshot(&bytes[..]).unwrap();
        let stats = snap.stats();
        assert_eq!(info.fingerprint, auto.grammar().fingerprint());
        assert_eq!(info.config, auto.config());
        assert_eq!(info.epoch, stats.epoch);
        assert_eq!(info.states, stats.states);
        assert_eq!(info.projections, stats.projections);
        assert_eq!(info.transitions, stats.transitions);
        assert_eq!(info.cached_projections, stats.cached_projections);
        assert_eq!(info.signatures, stats.signatures);
        assert_eq!(info.bytes, stats.bytes, "file and live accounting agree");
        assert_eq!(info.payload_bytes, bytes.len() - 24);
    }

    #[test]
    fn inspect_rejects_malformed_files() {
        assert!(matches!(
            inspect_snapshot(&b"not a table file (header-sized filler!)"[..]),
            Err(PersistError::BadMagic)
        ));
        let (auto, _) = warmed();
        let mut bytes = Vec::new();
        export_snapshot(&auto.snapshot(), &mut bytes).unwrap();
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert!(matches!(
            inspect_snapshot(&corrupt[..]),
            Err(PersistError::ChecksumMismatch)
        ));
        assert!(matches!(
            inspect_snapshot(&bytes[..bytes.len() / 2]),
            Err(PersistError::Truncated)
        ));
    }

    #[test]
    fn wrong_grammar_is_rejected() {
        let (auto, _) = warmed();
        let mut bytes = Vec::new();
        export_snapshot(&auto.snapshot(), &mut bytes).unwrap();
        let other = parse_grammar("%start reg\nreg: ConstI8 (2)\n")
            .unwrap()
            .normalize();
        let err = import_snapshot(&bytes[..], Arc::new(other), auto.config()).unwrap_err();
        assert!(matches!(err, PersistError::GrammarMismatch { .. }), "{err}");
    }

    #[test]
    fn wrong_config_is_rejected() {
        let (auto, _) = warmed();
        let mut bytes = Vec::new();
        export_snapshot(&auto.snapshot(), &mut bytes).unwrap();
        let projected = OnDemandConfig {
            project_children: true,
            ..auto.config()
        };
        let err = import_snapshot(&bytes[..], Arc::clone(auto.grammar()), projected).unwrap_err();
        assert!(matches!(err, PersistError::ConfigMismatch { .. }), "{err}");
    }

    #[test]
    fn truncation_and_corruption_are_rejected() {
        let (auto, _) = warmed();
        let mut bytes = Vec::new();
        export_snapshot(&auto.snapshot(), &mut bytes).unwrap();
        let grammar = Arc::clone(auto.grammar());
        for cut in [0, 3, 10, 24, bytes.len() / 2, bytes.len() - 1] {
            let err = import_snapshot(&bytes[..cut], Arc::clone(&grammar), auto.config())
                .expect_err("truncated file must be rejected");
            assert!(
                matches!(err, PersistError::Truncated | PersistError::BadMagic),
                "cut at {cut}: {err}"
            );
        }
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                import_snapshot(&corrupt[..], Arc::clone(&grammar), auto.config()).is_err(),
                "bit flip at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn out_of_range_operator_is_rejected() {
        let (auto, _) = warmed();
        let mut bytes = Vec::new();
        export_snapshot(&auto.snapshot(), &mut bytes).unwrap();
        // The payload ends with the transitions (18 bytes each, op
        // first) and an empty projection cache (a zero count). Point the
        // first transition at an operator id no IR operator has, and
        // re-seal the checksum so only the range check can object.
        let transitions = auto.stats().transitions;
        let first_op = bytes.len() - 4 - 18 * transitions;
        bytes[first_op..first_op + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        let checksum = fnv1a(&bytes[24..]);
        bytes[16..24].copy_from_slice(&checksum.to_le_bytes());
        let err =
            import_snapshot(&bytes[..], Arc::clone(auto.grammar()), auto.config()).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(what) if what.contains("operator")),
            "{err}"
        );
    }

    #[test]
    fn not_a_table_file_is_rejected() {
        let (auto, _) = warmed();
        let err = import_snapshot(
            &b"%start reg\nreg: ConstI8 (1)\n"[..],
            Arc::clone(auto.grammar()),
            auto.config(),
        )
        .unwrap_err();
        assert!(matches!(err, PersistError::BadMagic), "{err}");
    }

    #[test]
    fn future_version_is_rejected() {
        let (auto, _) = warmed();
        let mut bytes = Vec::new();
        export_snapshot(&auto.snapshot(), &mut bytes).unwrap();
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let err =
            import_snapshot(&bytes[..], Arc::clone(auto.grammar()), auto.config()).unwrap_err();
        assert!(
            matches!(err, PersistError::UnsupportedVersion { .. }),
            "{err}"
        );
    }

    #[test]
    fn saves_replace_the_file_atomically() {
        use std::sync::atomic::AtomicBool;

        let (auto, _) = warmed();
        let snapshot = auto.snapshot();
        let dir =
            std::env::temp_dir().join(format!("odburg-persist-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.odbt");
        save_tables(&snapshot, &path).unwrap();

        // A reader racing a writer that re-exports over and over must
        // always load a whole file: never a truncated or half-written one.
        let saving = AtomicBool::new(true);
        let loads = std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..200 {
                    save_tables(&snapshot, &path).unwrap();
                }
                saving.store(false, Ordering::Release);
            });
            let mut loads = 0u32;
            while saving.load(Ordering::Acquire) || loads == 0 {
                load_tables(&path, Arc::clone(auto.grammar()), auto.config())
                    .unwrap_or_else(|e| panic!("load {loads} saw a torn file: {e}"));
                loads += 1;
            }
            loads
        });
        assert!(loads > 0);

        // A failed save (the target is a directory, so the rename fails)
        // reports the error and cleans its temp file up too.
        let blocked = dir.join("blocked.odbt");
        std::fs::create_dir_all(&blocked).unwrap();
        assert!(matches!(
            save_tables(&snapshot, &blocked),
            Err(PersistError::Io(_))
        ));

        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(left, ["blocked.odbt", "t.odbt"], "temp files left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
