//! The verdict cache: incremental re-analysis across engine runs
//! (DESIGN.md §15), one of the two files of the verdict store.
//!
//! This module keys each loop's verdict by a 128-bit [`Fingerprint`] over
//! exactly the inputs it is a function of and persists the map as
//! schema-versioned JSON (schema [`SCHEMA`]), so a re-run of an unchanged
//! program skips golden recording and permuted replay entirely. The
//! record codec, checksum step and atomic write are the store's
//! (`super`); what is the cache's own is the key, the cacheable set,
//! the whole-document file layout and the save at the end of a run.
//!
//! # Key derivation
//!
//! The **base** fingerprint absorbs, in order: the schema string; every
//! [`DcaConfig`] knob that can change a verdict (permutation preset,
//! seed, verify scope, float tolerance bits, digest mode, invocations,
//! step budget, trip limit — *not* `threads` or `obs`, which are
//! guaranteed verdict-neutral); the entry arguments; and the canonical
//! text of the whole module ([`dca_ir::canonical_module`] — the verdict
//! depends on the whole program: callees run inside the loop, and
//! program-end verification observes everything downstream). The
//! **per-loop** key extends a copy of the base with the loop's identity
//! and its canonical body text. Any change to any component lands in the
//! digest, so invalidation is automatic: the old entry simply never
//! matches again. Entries are never evicted; the file is a content-keyed
//! map, not an LRU. The run journal uses the same keys.
//!
//! # Integrity
//!
//! A cache file is advisory input from disk and is never trusted:
//!
//! * file-level damage (unreadable, truncated, non-JSON, wrong schema)
//!   bypasses the cache for the whole run — analysis proceeds from
//!   scratch and the damaged file is left untouched for inspection;
//! * entry-level damage is caught by a per-entry checksum over the
//!   entry's key and fields, so a mutated-but-still-parseable entry is
//!   dropped rather than replayed as a wrong verdict.
//!
//! Both paths increment the `engine.cache_fault` counter and neither can
//! panic — the `cache_fuzz` test drives [`dca_rng`]-seeded byte
//! mutations through the loader to hold that line.
//!
//! # What is never cached
//!
//! Verdicts that are not functions of the key: `SkipReason::Deadline`
//! (host speed), `SkipReason::EngineFault` (contained panic) and
//! `SkipReason::Cancelled` (operator action). Runs with
//! verdict-perturbing fault injection or wall deadlines bypass the cache
//! wholesale for the same reason.

use super::{absorb_fields, absorb_key, write_atomic, CachedVerdict, VERDICTS};
use crate::config::{DcaConfig, DigestMode, PermutationSet, VerifyScope};
use crate::fault::FaultPlan;
use dca_interp::Value;
use dca_ir::{canonical_loop_body, canonical_module, FuncView, Module};
use dca_obs::{parse_json, Json};
use dca_rng::Fingerprint;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Schema identifier of the on-disk format. Bumping it orphans every
/// existing file (they load as a schema mismatch → bypass), so bump only
/// when the entry layout itself changes incompatibly; key-derivation
/// changes need no bump — they change the keys, which invalidates
/// entries individually.
const SCHEMA: &str = "dca-cache/1";

/// Cache statistics for one analysis run, surfaced as
/// [`crate::DcaReport::cache`] and printed by the CLI footer. All fields
/// are derived from the ordered result vector after the deterministic
/// fold, so they are identical at every worker-thread count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// The cache file consulted (or that would have been).
    pub path: PathBuf,
    /// True when the whole run bypassed the cache (damaged file, fault
    /// injection, or wall deadlines).
    pub bypassed: bool,
    /// Loops served from the cache.
    pub hits: u64,
    /// Loops consulted but not found.
    pub misses: u64,
    /// New entries written back this run.
    pub stores: u64,
    /// Integrity faults absorbed: file-level damage, checksum-rejected
    /// entries, or a failed write-back. Mirrored as the
    /// `engine.cache_fault` counter.
    pub faults: u64,
}

impl CacheStats {
    /// The statistics of two runs against one cache: counts add, either
    /// run's bypass marks both, and the path is the first run's.
    pub(crate) fn merge(self, other: CacheStats) -> CacheStats {
        CacheStats {
            path: self.path,
            bypassed: self.bypassed || other.bypassed,
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            stores: self.stores + other.stores,
            faults: self.faults + other.faults,
        }
    }
}

/// The keys of every loop of `module` under one configuration and
/// workload, in the engine's deterministic (function, loop) analysis
/// order — index-aligned with the work list `analyze` builds.
///
/// One streaming fingerprint pass absorbs the verdict-affecting
/// configuration, the workload and the whole module into a base; each
/// loop's key is a copy of the base plus the loop's identity and
/// canonical body text.
pub(super) fn loop_keys(config: &DcaConfig, args: &[Value], module: &Module) -> Vec<u128> {
    let mut fp = Fingerprint::new();
    fp.push_str(SCHEMA);
    match &config.permutations {
        PermutationSet::Presets { shuffles } => {
            fp.push(0);
            fp.push(u64::from(*shuffles));
        }
        PermutationSet::ReverseOnly => fp.push(1),
        PermutationSet::Shuffles { shuffles } => {
            fp.push(2);
            fp.push(u64::from(*shuffles));
        }
        PermutationSet::Exhaustive {
            max_trip,
            fallback_shuffles,
        } => {
            fp.push(3);
            fp.push(*max_trip as u64);
            fp.push(u64::from(*fallback_shuffles));
        }
    }
    fp.push(config.seed);
    // Tag 1 was the loop-exit scope whose reference came from an
    // identity replay; retiring it keeps those entries from serving
    // verdicts or step counts checked against the golden run.
    fp.push(match config.verify_scope {
        VerifyScope::ProgramEnd => 0,
        VerifyScope::LoopExit => 2,
    });
    fp.push(config.float_tolerance.to_bits());
    fp.push(match config.digest {
        DigestMode::Auto => 0,
        DigestMode::Structural => 1,
    });
    fp.push(u64::from(config.invocations));
    fp.push(config.max_steps);
    fp.push(config.max_trip as u64);
    // The heap budget changes verdicts (a budgeted replay can skip
    // where an unbudgeted one commits), so it is part of the key.
    match config.max_heap_cells {
        None => fp.push(0),
        Some(cells) => {
            fp.push(1);
            fp.push(cells);
        }
    }
    fp.push(args.len() as u64);
    for v in args {
        match v {
            Value::Int(i) => {
                fp.push(1);
                fp.push(*i as u64);
            }
            Value::Float(x) => {
                fp.push(2);
                fp.push(x.to_bits());
            }
            Value::Bool(b) => {
                fp.push(3);
                fp.push(u64::from(*b));
            }
            // Entry pointers cannot be constructed portably; absorb
            // their debug rendering so distinct values stay distinct.
            other => {
                fp.push(4);
                fp.push_str(&format!("{other:?}"));
            }
        }
    }
    fp.push_str(&canonical_module(module));
    let mut out = Vec::new();
    for i in 0..module.funcs.len() {
        let view = FuncView::new(module, dca_ir::FuncId(i as u32));
        for l in view.loops.iter() {
            let mut key = fp;
            key.push(u64::from(view.id.0));
            key.push(u64::from(l.id.0));
            key.push_str(&canonical_loop_body(view.func, l));
            out.push(key.digest());
        }
    }
    out
}

/// An open verdict cache: the entries loaded from disk plus those stored
/// this run. Lookups are read-only and thread-safe by `&self`; stores
/// happen from the single-threaded close of the store.
#[derive(Debug, Default)]
pub(super) struct VerdictCache {
    path: PathBuf,
    entries: BTreeMap<u128, Entry>,
    /// File-level damage: consult nothing, store nothing.
    bypassed: bool,
    /// Integrity faults observed while loading.
    load_faults: u64,
    /// Entries added this run (subset of `entries`' keys).
    added: u64,
}

/// One cache entry: its canonical line, encoded once — when it is stored,
/// or when its check is verified on load — and written as is by every
/// save; and its record, decoded from the line when first served.
#[derive(Debug, Default)]
struct Entry {
    line: String,
    record: OnceLock<Option<CachedVerdict>>,
}

impl Entry {
    fn new(line: String, v: Option<CachedVerdict>) -> Self {
        Entry {
            line,
            record: match v {
                Some(v) => OnceLock::from(Some(v)),
                None => OnceLock::new(),
            },
        }
    }
}

impl VerdictCache {
    /// Opens the cache at `path`. A missing file is an empty cache; a
    /// damaged one (unreadable, truncated, non-JSON, schema mismatch)
    /// yields a bypassed cache that serves no hits and writes nothing,
    /// leaving the damaged file in place. Never panics and never errors —
    /// degradation is the contract.
    pub(super) fn open(path: &Path) -> Self {
        let mut cache = VerdictCache {
            path: path.to_path_buf(),
            ..VerdictCache::default()
        };
        if !path.exists() {
            return cache;
        }
        let parsed = std::fs::read_to_string(path)
            .map_err(drop)
            .and_then(|text| parse_file(&text));
        match parsed {
            Ok((entries, dropped)) => {
                cache.entries = entries;
                cache.load_faults = dropped;
            }
            Err(()) => {
                cache.bypassed = true;
                cache.load_faults = 1;
            }
        }
        cache
    }

    /// A cache that refuses all lookups and stores — used when fault
    /// injection or wall deadlines make verdicts non-functions of the
    /// key. Carries the path so [`CacheStats`] can still report it.
    pub(super) fn bypass(path: &Path) -> Self {
        VerdictCache {
            path: path.to_path_buf(),
            bypassed: true,
            ..VerdictCache::default()
        }
    }

    /// True when the whole run is bypassing this cache.
    pub(super) fn bypassed(&self) -> bool {
        self.bypassed
    }

    /// This run's statistics before any lookup is counted: the path, the
    /// bypass and the faults met while loading.
    pub(super) fn stats(&self) -> CacheStats {
        CacheStats {
            path: self.path.clone(),
            bypassed: self.bypassed,
            faults: self.load_faults,
            ..CacheStats::default()
        }
    }

    /// The verdict stored under `key`, unless the cache is bypassed.
    pub(super) fn get(&self, key: u128) -> Option<&CachedVerdict> {
        if self.bypassed {
            return None;
        }
        let e = self.entries.get(&key)?;
        e.record
            .get_or_init(|| {
                let json = parse_json(&e.line).ok()?;
                decode_entry(&json).map(|(_, v)| v)
            })
            .as_ref()
    }

    /// Stores a verdict under `key` if it is cacheable (see the module
    /// docs) and not already present. Returns whether it was stored.
    pub(super) fn store(&mut self, key: u128, v: CachedVerdict) -> bool {
        if self.bypassed || self.entries.contains_key(&key) {
            return false;
        }
        // Only a cacheable verdict encodes.
        let Some(line) = encode_entry(key, &v) else {
            return false;
        };
        self.entries
            .insert(key, Entry::new(line.to_string(), Some(v)));
        self.added += 1;
        true
    }

    /// Writes the cache back to disk through [`write_atomic`], which may
    /// inject a [`crate::FaultKind::KillSave`] from `fault`. A no-op when
    /// bypassed or when nothing was added this run.
    ///
    /// # Errors
    ///
    /// Returns the I/O error (injected or real); the store degrades it to
    /// a cache fault.
    pub(super) fn save(&self, fault: Option<&FaultPlan>) -> std::io::Result<()> {
        if self.bypassed || self.added == 0 {
            return Ok(());
        }
        let mut doc = String::from("{\"schema\": \"");
        doc.push_str(SCHEMA);
        doc.push_str("\", \"tool\": \"dca ");
        doc.push_str(env!("CARGO_PKG_VERSION"));
        doc.push_str(ENTRIES_OPEN);
        for (i, e) in self.entries.values().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str("\n  ");
            doc.push_str(&e.line);
        }
        doc.push_str(ENTRIES_CLOSE);
        write_atomic(&self.path, &doc, fault)
    }
}

/// The text between a saved document's tool name and its first entry,
/// and after its last.
const ENTRIES_OPEN: &str = "\", \"entries\": [";
const ENTRIES_CLOSE: &str = "\n]}\n";

/// Parses a whole cache document. `Err(())` means file-level damage
/// (bypass); `Ok` carries the surviving entries plus the count of
/// dropped (checksum- or shape-rejected) ones.
///
/// A document laid out as [`VerdictCache::save`] writes it is read line
/// by line: each entry line whose fields are in canonical form and whose
/// check holds is kept as it stands, with no JSON tree built. Any other
/// document goes through the JSON parser, and each surviving entry's
/// line is re-encoded.
fn parse_file(text: &str) -> Result<(BTreeMap<u128, Entry>, u64), ()> {
    parse_saved(text).map_or_else(|| parse_tree(text), Ok)
}

/// [`parse_file`] through the JSON parser.
fn parse_tree(text: &str) -> Result<(BTreeMap<u128, Entry>, u64), ()> {
    let doc = parse_json(text).map_err(|_| ())?;
    let obj = doc.as_object().ok_or(())?;
    if obj.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(());
    }
    let list = obj.get("entries").and_then(Json::as_array).ok_or(())?;
    let mut out = BTreeMap::new();
    let mut dropped = 0u64;
    for e in list {
        match decode_entry(e).and_then(|(key, v)| Some((key, encode_entry(key, &v)?, v))) {
            Some((key, line, v)) => {
                out.insert(key, Entry::new(line.to_string(), Some(v)));
            }
            None => dropped += 1,
        }
    }
    Ok((out, dropped))
}

/// [`parse_file`]'s line reader, for a document in the saved layout;
/// `None` sends the document to the JSON parser.
fn parse_saved(text: &str) -> Option<(BTreeMap<u128, Entry>, u64)> {
    let rest = text.strip_prefix("{\"schema\": \"")?.strip_prefix(SCHEMA)?;
    let rest = rest.strip_prefix("\", \"tool\": \"")?;
    let (tool, rest) = rest.split_once('"')?;
    if tool.contains('\\') {
        return None;
    }
    let body = rest
        .strip_prefix(", \"entries\": [")?
        .strip_suffix(ENTRIES_CLOSE)?;
    let mut out = BTreeMap::new();
    let mut dropped = 0u64;
    let mut lines = body.split(",\n  ").peekable();
    // The first entry follows the header's newline.
    let first = lines.next()?.strip_prefix("\n  ")?;
    for line in std::iter::once(first).chain(lines) {
        if let Some(key) = saved_entry(line) {
            out.insert(key, Entry::new(line.to_string(), None));
            continue;
        }
        // Not canonical, or its check fails: decide as the JSON parser
        // would, unless the line is not JSON on its own.
        let json = parse_json(line).ok()?;
        match decode_entry(&json).and_then(|(key, v)| Some((key, encode_entry(key, &v)?, v))) {
            Some((key, line, v)) => {
                out.insert(key, Entry::new(line.to_string(), Some(v)));
            }
            None => dropped += 1,
        }
    }
    Some((out, dropped))
}

/// The key of an entry line in canonical form whose check holds, read
/// without a JSON tree: the fields in the encoder's order and spelling,
/// the verdict's text taken as its canonical text, which the check
/// covers. `None` for any other line.
fn saved_entry(line: &str) -> Option<u128> {
    let (check, s) = hex(line.strip_prefix("{\"check\": \"")?)?;
    let (key, s) = hex(s.strip_prefix("\", \"key\": \"")?)?;
    let (perms, s) = num(s.strip_prefix("\", \"perms\": ")?)?;
    let (steps, s) = num(s.strip_prefix(", \"replay_steps\": ")?)?;
    let s = s.strip_prefix(", \"tag\": ")?;
    let (tag, s) = match s.strip_prefix("null") {
        Some(s) => (None, s),
        None => {
            let (t, s) = s.strip_prefix('"')?.split_once('"')?;
            // Escapes and control characters take the JSON parser.
            if t.contains(|c: char| c == '\\' || c.is_control()) {
                return None;
            }
            (Some(t), s)
        }
    };
    let (trips, s) = num(s.strip_prefix(", \"trips\": ")?)?;
    let verdict = s.strip_prefix(", \"verdict\": ")?.strip_suffix('}')?;
    let mut fp = Fingerprint::new();
    absorb_key(&mut fp, key);
    absorb_fields(&mut fp, tag, verdict, [trips, perms, steps]);
    (fp.digest() == check).then_some(key)
}

/// A key or check as the encoder writes it, 32 lowercase hex digits,
/// and the text after it.
fn hex(s: &str) -> Option<(u128, &str)> {
    let (h, rest) = s.split_at_checked(32)?;
    let canonical = h.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    Some((
        u128::from_str_radix(h, 16).ok().filter(|_| canonical)?,
        rest,
    ))
}

/// A count as the encoder writes it, a JSON number in canonical digits
/// (exact below 2^53), and the text after it.
fn num(s: &str) -> Option<(u64, &str)> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let (digits, rest) = s.split_at(end);
    let n: u64 = digits.parse().ok()?;
    let canonical = n < 1 << 53 && (digits == "0" || !digits.starts_with('0'));
    canonical.then_some((n, rest))
}

/// The per-entry checksum: the key, then the shared field step.
fn entry_check(key: u128, v: &CachedVerdict, verdict_text: &str) -> u128 {
    let mut fp = Fingerprint::new();
    absorb_key(&mut fp, key);
    v.absorb(&mut fp, verdict_text);
    fp.digest()
}

fn encode_entry(key: u128, v: &CachedVerdict) -> Option<Json> {
    VERDICTS.encode(key, v, &entry_check).map(Json::Obj)
}

fn decode_entry(e: &Json) -> Option<(u128, CachedVerdict)> {
    VERDICTS.decode(e.as_object()?, &entry_check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::LoopVerdict;

    /// True when the verdict is a pure function of the cache key.
    fn cacheable(v: &LoopVerdict) -> bool {
        super::super::encode_verdict(v).is_some()
    }
    use crate::fault::FaultKind;
    use crate::outcome::Divergence;
    use crate::report::{SkipReason, Violation};
    use dca_analysis::ExclusionReason;
    use dca_interp::Trap;

    fn tmpdir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dca-cache-unit-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn sample_verdicts() -> Vec<LoopVerdict> {
        vec![
            LoopVerdict::Commutative,
            LoopVerdict::NotExercised,
            LoopVerdict::Excluded(ExclusionReason::PerformsIo),
            LoopVerdict::Excluded(ExclusionReason::EmptyPayload),
            LoopVerdict::Skipped(SkipReason::TripLimit),
            LoopVerdict::Skipped(SkipReason::GoldenBudget),
            LoopVerdict::Skipped(SkipReason::ReplayBudget),
            LoopVerdict::Skipped(SkipReason::MemoryBudget),
            LoopVerdict::Skipped(SkipReason::GoldenTrapped(Trap::DivByZero)),
            LoopVerdict::NonCommutative(Violation::ReplayDiverged),
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(None)),
            LoopVerdict::NonCommutative(Violation::ReplayTrapped(Trap::OutOfBounds {
                len: 8,
                index: -3,
            })),
            LoopVerdict::NonCommutative(Violation::ReplayTrapped(Trap::ArityMismatch {
                expected: 2,
                given: 3,
            })),
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(Some(Divergence::Root {
                name: "s".into(),
                golden: "1".into(),
                permuted: "2".into(),
            }))),
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(Some(
                Divergence::ObjectCount {
                    golden: 3,
                    permuted: 4,
                },
            ))),
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(Some(
                Divergence::ObjectShape {
                    object: 7,
                    golden: "array[4]".into(),
                    permuted: "array[5]".into(),
                },
            ))),
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(Some(Divergence::Cell {
                object: 1,
                cell: 2,
                golden: "9".into(),
                permuted: "q\"\n".into(),
            }))),
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(Some(Divergence::OutputLen {
                golden: 1,
                permuted: 0,
            }))),
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(Some(Divergence::Output {
                index: 0,
                golden: "a".into(),
                permuted: "b".into(),
            }))),
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(Some(Divergence::Ret {
                golden: "1".into(),
                permuted: "2".into(),
            }))),
        ]
    }

    fn cached(verdict: LoopVerdict) -> CachedVerdict {
        CachedVerdict {
            tag: Some("t".into()),
            verdict,
            trips: 4,
            permutations_tested: 3,
            replay_steps: 123,
        }
    }

    #[test]
    fn every_cacheable_verdict_round_trips() {
        for (i, v) in sample_verdicts().into_iter().enumerate() {
            let entry = cached(v.clone());
            let key = 0x1234_5678_9abc_def0_u128 + i as u128;
            let json = encode_entry(key, &entry).expect("cacheable");
            let (k2, back) =
                decode_entry(&parse_json(&json.to_string()).expect("parse")).expect("round trip");
            assert_eq!(k2, key);
            assert_eq!(back, entry, "verdict {v:?}");
        }
    }

    #[test]
    fn non_key_verdicts_are_never_cacheable() {
        for v in [
            LoopVerdict::Skipped(SkipReason::Deadline),
            LoopVerdict::Skipped(SkipReason::Cancelled),
            LoopVerdict::Skipped(SkipReason::EngineFault("boom".into())),
            LoopVerdict::NonCommutative(Violation::ReplayTrapped(Trap::IllTyped("op"))),
            LoopVerdict::NonCommutative(Violation::ReplayTrapped(Trap::Injected)),
            LoopVerdict::Skipped(SkipReason::GoldenTrapped(Trap::NotRunning)),
        ] {
            assert!(!cacheable(&v), "{v:?} must not be cacheable");
        }
    }

    #[test]
    fn save_load_round_trips_and_dedups() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("cache.json");
        let mut c = VerdictCache::open(&path);
        assert!(c.entries.is_empty());
        for (i, v) in sample_verdicts().into_iter().enumerate() {
            assert!(c.store(i as u128, cached(v)));
        }
        // Storing the same key again is a no-op.
        assert!(!c.store(0, cached(LoopVerdict::Commutative)));
        // Non-cacheable verdicts are refused.
        assert!(!c.store(999, cached(LoopVerdict::Skipped(SkipReason::Deadline))));
        c.save(None).expect("save");
        let back = VerdictCache::open(&path);
        assert_eq!(back.load_faults, 0);
        assert_eq!(back.entries.len(), sample_verdicts().len());
        for (i, v) in sample_verdicts().into_iter().enumerate() {
            assert_eq!(back.get(i as u128), Some(&cached(v)), "expected a hit");
        }
        assert_eq!(back.get(999), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saved_files_load_line_by_line_as_the_json_parser_loads_them() {
        let dir = tmpdir("lines");
        let path = dir.join("cache.json");
        let mut vc = VerdictCache::open(&path);
        for (i, v) in sample_verdicts().into_iter().enumerate() {
            vc.store(0x5EED_0000 + i as u128, cached(v));
        }
        vc.save(None).expect("save");
        let text = std::fs::read_to_string(&path).expect("read");
        // The untouched file, one field tampered with, one entry's spacing
        // changed and one tag spelled with an escape.
        let tampered = text.replacen("\"trips\": 4", "\"trips\": 5", 1);
        let spaced = text.replacen("\"perms\": ", "\"perms\":  ", 1);
        let escaped = text.replacen("\"tag\": \"t\"", "\"tag\": \"\\u0074\"", 1);
        assert_ne!(tampered, text);
        assert_ne!(spaced, text);
        assert_ne!(escaped, text);
        for doc in [&text, &tampered, &spaced, &escaped] {
            let (lines, dropped) = parse_saved(doc).expect("the saved layout");
            let (tree, tree_dropped) = parse_tree(doc).expect("valid JSON");
            assert_eq!(dropped, tree_dropped);
            let line_view: Vec<_> = lines.iter().map(|(k, e)| (k, &e.line)).collect();
            let tree_view: Vec<_> = tree.iter().map(|(k, e)| (k, &e.line)).collect();
            assert_eq!(line_view, tree_view);
        }
        assert_eq!(parse_saved(&tampered).expect("layout").1, 1);
        // Every line read as it stands is the canonical one, so a save
        // rewrites the file byte for byte.
        let mut back = VerdictCache::open(&path);
        assert!(back.entries.values().all(|e| e.record.get().is_none()));
        back.added = 1;
        back.save(None).expect("save");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), text);
        for key in vc.entries.keys() {
            assert_eq!(back.get(*key), vc.get(*key));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_empty_not_bypassed() {
        let dir = tmpdir("missing");
        let c = VerdictCache::open(&dir.join("nope.json"));
        assert!(!c.bypassed);
        assert_eq!(c.load_faults, 0);
        assert_eq!(c.get(1), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_files_degrade_to_bypass() {
        let dir = tmpdir("damaged");
        for (name, text) in [
            ("garbage.json", "not json at all"),
            (
                "truncated.json",
                "{\"schema\": \"dca-cache/1\", \"entries\": [",
            ),
            (
                "wrong_schema.json",
                "{\"schema\": \"dca-cache/999\", \"entries\": []}",
            ),
            ("not_object.json", "[1, 2, 3]"),
            ("no_entries.json", "{\"schema\": \"dca-cache/1\"}"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, text).expect("write");
            let c = VerdictCache::open(&path);
            assert!(c.bypassed, "{name} must bypass");
            assert_eq!(c.load_faults, 1, "{name} counts one fault");
            assert_eq!(c.get(1), None);
            // Bypassed caches never write: the damaged file survives for
            // inspection.
            let mut c = c;
            assert!(!c.store(1, cached(LoopVerdict::Commutative)));
            c.save(None).expect("no-op save");
            assert_eq!(
                std::fs::read_to_string(&path).expect("read"),
                text,
                "{name} left untouched"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_rejects_field_tampering() {
        let dir = tmpdir("tamper");
        let path = dir.join("cache.json");
        let mut c = VerdictCache::open(&path);
        assert!(c.store(7, cached(LoopVerdict::Commutative)));
        c.save(None).expect("save");
        let text = std::fs::read_to_string(&path).expect("read");
        // Flip the verdict while keeping the JSON valid: the checksum
        // must reject the entry rather than serve a wrong verdict.
        let tampered = text.replace("commutative", "not_exercised");
        assert_ne!(text, tampered, "substitution applied");
        std::fs::write(&path, &tampered).expect("write");
        let back = VerdictCache::open(&path);
        assert!(!back.bypassed, "entry damage is not file damage");
        assert_eq!(back.load_faults, 1);
        assert_eq!(back.get(7), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_save_fault_never_touches_the_real_file() {
        let dir = tmpdir("killsave");
        let path = dir.join("cache.json");
        let mut c = VerdictCache::open(&path);
        assert!(c.store(1, cached(LoopVerdict::Commutative)));
        c.save(None).expect("clean save");
        let before = std::fs::read_to_string(&path).expect("read");
        let mut c = VerdictCache::open(&path);
        assert!(c.store(2, cached(LoopVerdict::NotExercised)));
        for stage in [0u64, 1] {
            let plan = FaultPlan {
                kind: FaultKind::KillSave { stage },
                loop_ordinal: 0,
                replay: 0,
            };
            let err = c.save(Some(&plan)).expect_err("injected kill");
            assert!(err.to_string().contains("injected kill"), "{err}");
            assert_eq!(
                std::fs::read_to_string(&path).expect("read"),
                before,
                "stage {stage} left the real file untouched"
            );
        }
        // A later clean save overwrites the stale temp file and lands.
        c.save(None).expect("save");
        let back = VerdictCache::open(&path);
        assert_eq!(back.load_faults, 0);
        assert_eq!(back.entries.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn key_builder_separates_config_args_and_program() {
        let m1 = dca_ir::compile(
            "fn main() -> int { let i: int = 0; let s: int = 0;
             @l: while (i < 4) { s = s + i; i = i + 1; } return s; }",
        )
        .expect("compile");
        let m2 = dca_ir::compile(
            "fn main() -> int { let i: int = 0; let s: int = 0;
             @l: while (i < 5) { s = s + i; i = i + 1; } return s; }",
        )
        .expect("compile");
        let cfg = DcaConfig::fast();
        let base = loop_keys(&cfg, &[], &m1);
        assert_eq!(base.len(), 1);
        // Same everything → same key.
        assert_eq!(base, loop_keys(&cfg, &[], &m1));
        // Different program → different key.
        assert_ne!(base, loop_keys(&cfg, &[], &m2));
        // Different verdict-affecting knobs → different keys.
        let mut seen = vec![base[0]];
        for other in [
            DcaConfig {
                seed: 43,
                ..DcaConfig::fast()
            },
            DcaConfig {
                permutations: PermutationSet::ReverseOnly,
                ..DcaConfig::fast()
            },
            DcaConfig {
                float_tolerance: 0.0,
                ..DcaConfig::fast()
            },
            DcaConfig {
                verify_scope: VerifyScope::LoopExit,
                ..DcaConfig::fast()
            },
            DcaConfig {
                digest: DigestMode::Structural,
                ..DcaConfig::fast()
            },
            DcaConfig {
                invocations: 2,
                ..DcaConfig::fast()
            },
            DcaConfig {
                max_steps: 1,
                ..DcaConfig::fast()
            },
            DcaConfig {
                max_trip: 3,
                ..DcaConfig::fast()
            },
            DcaConfig {
                max_heap_cells: Some(1 << 20),
                ..DcaConfig::fast()
            },
        ] {
            let k = loop_keys(&other, &[], &m1)[0];
            assert!(!seen.contains(&k), "knob change must change the key");
            seen.push(k);
        }
        // Thread count and obs options are verdict-neutral: same key.
        let threads = DcaConfig {
            threads: 7,
            obs: crate::ObsOptions::metrics(),
            ..DcaConfig::fast()
        };
        assert_eq!(base[0], loop_keys(&threads, &[], &m1)[0]);
        // Different workload arguments → different key.
        let k_args = loop_keys(&cfg, &[Value::Int(3)], &m1)[0];
        assert_ne!(base[0], k_args);
        assert_ne!(
            k_args,
            loop_keys(&cfg, &[Value::Float(3.0)], &m1)[0],
            "arg type is part of the key"
        );
        std::mem::drop(seen);
    }

    #[test]
    fn scope_tags_keep_program_end_keys_and_retire_old_loop_exit_keys() {
        let m = dca_ir::compile(
            "fn main() -> int { let i: int = 0; let s: int = 0;
             @l: while (i < 4) { s = s + i; i = i + 1; } return s; }",
        )
        .expect("compile");
        let key = |cfg: &DcaConfig| loop_keys(cfg, &[], &m)[0];
        // Program-end keys are unchanged, so existing cache files still hit.
        assert_eq!(
            key(&DcaConfig::default()),
            0x0cc9_a98e_ae65_a18c_1045_9cda_f387_8d95
        );
        // Loop-exit verdicts written when the scope's reference was an
        // identity replay must never be served again.
        assert_ne!(
            key(&DcaConfig::exact()),
            0xe375_723c_d68b_c81c_333c_ee1a_e8c1_75ce
        );
    }
}
