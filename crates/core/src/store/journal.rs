//! The write-ahead run journal: crash-safe resume for `Dca::analyze`
//! (DESIGN.md §16), the other file of the verdict store.
//!
//! The verdict cache (DESIGN.md §15) makes *completed* runs cheap to
//! repeat; it says nothing about a run that dies halfway. The journal
//! closes that gap: before a loop is verified the store appends a
//! `start` record, and as soon as its verdict folds out it appends a
//! `verdict` record — one line each, flushed immediately, so the file on
//! disk is never more than one loop behind the computation. A re-run
//! against the same `DCA_JOURNAL` replays those records and serves the
//! already-decided loops without recording or replaying anything,
//! producing a final report bit-identical to an uninterrupted run.
//!
//! The journal shares the cache's keys and the store's record layer, so
//! one file serves any number of programs and workloads. What is its own
//! is coverage: it also carries `EngineFault` *quarantine* records — a
//! loop that exhausted its fault retries is skipped by later runs instead
//! of re-tripping the same contained panic — and it keeps recording them
//! under verdict-perturbing fault injection, which the cache bypasses.
//! `Cancelled` and `Deadline` verdicts are never journaled: a cancelled
//! loop must re-run on resume, and a deadline skip is a property of the
//! host's speed, not of the loop.
//!
//! # Integrity
//!
//! The file is line-oriented JSON: a header line naming [`SCHEMA`], then
//! one self-contained record per line, each carrying a fingerprint
//! checksum over its own fields. A process killed mid-append leaves at
//! worst one torn final line; on open, torn or garbled lines are dropped
//! (counted, never a panic or a wrong verdict) and the file is rewritten
//! compacted through the store's atomic write. A header from a different
//! schema orphans every record: the journal rotates to a fresh file. I/O
//! failure at any point degrades to a bypassed journal that serves
//! nothing and writes nothing.

use super::{
    absorb_key, decode_verdict, encode_verdict, hex, unhex, write_atomic, CachedVerdict,
    VerdictCodec,
};
use crate::report::{LoopVerdict, SkipReason};
use dca_obs::{parse_json, Json};
use dca_rng::Fingerprint;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Schema identifier of the on-disk journal format. A file with a
/// different schema is rotated (its records orphaned), never
/// misinterpreted.
const SCHEMA: &str = "dca-journal/1";

/// One decided loop recovered from the journal.
#[derive(Debug)]
pub(super) struct JournalEntry {
    /// The loop's `func:loop` reference, for display on resume.
    pub(super) lref: String,
    /// The verdict and its deterministic counters.
    pub(super) cached: CachedVerdict,
    /// True when this entry is a retry-exhausted quarantine record:
    /// subsequent runs skip the loop immediately.
    pub(super) quarantined: bool,
}

/// Journal statistics for one analysis run, surfaced as
/// [`crate::DcaReport::journal`] and printed by the CLI footer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunJournalStats {
    /// The journal file consulted (or that would have been).
    pub path: PathBuf,
    /// True when the journal was unusable this run (I/O failure).
    pub bypassed: bool,
    /// Loops served from the journal instead of being re-verified.
    pub resumed: u64,
    /// Verdict records appended this run.
    pub recorded: u64,
    /// Quarantined loops known to the journal (loaded plus added).
    pub quarantined: u64,
    /// Torn or garbled lines dropped while loading.
    pub dropped: u64,
    /// Append failures absorbed after open.
    pub faults: u64,
}

impl RunJournalStats {
    /// The statistics of two runs against one journal: counts add, the
    /// quarantine count is the larger (the second run loaded the first's),
    /// either run's bypass marks both, and the path is the first run's.
    pub(crate) fn merge(self, other: RunJournalStats) -> RunJournalStats {
        RunJournalStats {
            path: self.path,
            bypassed: self.bypassed || other.bypassed,
            resumed: self.resumed + other.resumed,
            recorded: self.recorded + other.recorded,
            quarantined: self.quarantined.max(other.quarantined),
            dropped: self.dropped + other.dropped,
            faults: self.faults + other.faults,
        }
    }
}

/// An open run journal: the decided loops loaded from disk plus an
/// append handle for this run's records. Lookups are read-only and
/// thread-safe by `&self`; appends serialize on an internal mutex and
/// are line-atomic, so records written from the parallel verification
/// workers interleave without tearing.
#[derive(Debug, Default)]
pub(super) struct RunJournal {
    path: PathBuf,
    bypassed: bool,
    entries: BTreeMap<u128, JournalEntry>,
    dropped: u64,
    writer: Option<Mutex<File>>,
    /// Set on the first append failure: later appends are skipped so one
    /// full disk does not produce a fault per loop.
    dead: AtomicBool,
    recorded: AtomicU64,
    /// Quarantined loops, loaded plus recorded this run.
    quarantined: AtomicU64,
    faults: AtomicU64,
}

impl RunJournal {
    /// Opens (or creates) the journal at `path`, replaying its records.
    /// Damage degrades, never errors: torn lines are dropped and the
    /// file rewritten compacted; a wrong-schema header rotates the file;
    /// I/O failure yields a bypassed journal. Never panics.
    pub(super) fn open(path: &Path) -> Self {
        let mut j = RunJournal {
            path: path.to_path_buf(),
            ..RunJournal::default()
        };
        if path.exists() {
            match std::fs::read_to_string(path) {
                Ok(text) => {
                    let (entries, dropped) = parse_file(&text);
                    j.entries = entries;
                    j.dropped = dropped;
                }
                Err(_) => {
                    j.bypassed = true;
                    j.faults = AtomicU64::new(1);
                    return j;
                }
            }
        }
        let quarantined = j.entries.values().filter(|e| e.quarantined).count();
        j.quarantined = AtomicU64::new(quarantined as u64);
        // Rewrite compacted (header plus one line per surviving verdict),
        // then reopen for appending. Stale `start` lines from an
        // interrupted run are dropped here: their loops re-run and
        // re-announce themselves.
        let mut doc = line(BTreeMap::from([
            ("schema".to_string(), Json::Str(SCHEMA.to_string())),
            (
                "tool".to_string(),
                Json::Str(format!("dca {}", env!("CARGO_PKG_VERSION"))),
            ),
        ]));
        for (&key, e) in &j.entries {
            if let Some(line) = encode_verdict_line(key, &e.lref, &e.cached, e.quarantined) {
                doc.push_str(&line);
            }
        }
        let writer = write_atomic(path, &doc, None)
            .and_then(|()| OpenOptions::new().append(true).open(path));
        match writer {
            Ok(f) => j.writer = Some(Mutex::new(f)),
            Err(_) => {
                j.bypassed = true;
                j.faults.fetch_add(1, Ordering::SeqCst);
            }
        }
        j
    }

    /// True when the journal is unusable this run.
    pub(super) fn bypassed(&self) -> bool {
        self.bypassed
    }

    /// The loop keyed by `key`, if an earlier (interrupted) run decided
    /// it: its verdict can be served without re-verification.
    pub(super) fn get(&self, key: u128) -> Option<&JournalEntry> {
        if self.bypassed {
            return None;
        }
        self.entries.get(&key)
    }

    /// Appends a write-ahead `start` record announcing that the loop
    /// keyed by `key` is about to be verified. Purely informational on
    /// resume (an unmatched start means the kill landed mid-loop and the
    /// loop simply re-runs), but it timestamps progress in the file for
    /// operators tailing it.
    pub(super) fn record_start(&self, key: u128, lref: &str) {
        self.append(&line(BTreeMap::from([
            ("rec".to_string(), Json::Str("start".to_string())),
            ("key".to_string(), hex(key)),
            ("lref".to_string(), Json::Str(lref.to_string())),
            ("check".to_string(), hex(start_check(key, lref))),
        ])));
    }

    /// Appends a `verdict` record for the loop keyed by `key`. Returns
    /// whether the verdict was journalable: [`SkipReason::Cancelled`]
    /// and [`SkipReason::Deadline`] are refused (they must re-run on
    /// resume), everything else — including the quarantine-carrying
    /// [`SkipReason::EngineFault`] — is recorded.
    pub(super) fn record_verdict(
        &self,
        key: u128,
        lref: &str,
        v: &CachedVerdict,
        quarantined: bool,
    ) -> bool {
        let Some(line) = encode_verdict_line(key, lref, v, quarantined) else {
            return false;
        };
        if self.bypassed || self.dead.load(Ordering::SeqCst) {
            return false;
        }
        self.append(&line);
        self.recorded.fetch_add(1, Ordering::SeqCst);
        if quarantined {
            self.quarantined.fetch_add(1, Ordering::SeqCst);
        }
        true
    }

    /// This run's statistics. `resumed` is filled by the store from the
    /// folded result vector (the journal cannot know which of its
    /// entries were actually consulted).
    pub(super) fn stats(&self) -> RunJournalStats {
        RunJournalStats {
            path: self.path.clone(),
            bypassed: self.bypassed,
            resumed: 0,
            recorded: self.recorded.load(Ordering::SeqCst),
            quarantined: self.quarantined.load(Ordering::SeqCst),
            dropped: self.dropped,
            faults: self.faults.load(Ordering::SeqCst),
        }
    }

    /// Appends one line (terminated by the caller) and flushes it, so a
    /// kill immediately after tears at most the line being written.
    fn append(&self, line: &str) {
        if self.bypassed || self.dead.load(Ordering::SeqCst) {
            return;
        }
        let Some(w) = &self.writer else { return };
        let mut f = w.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let res = f.write_all(line.as_bytes()).and_then(|()| f.flush());
        if res.is_err() {
            self.faults.fetch_add(1, Ordering::SeqCst);
            self.dead.store(true, Ordering::SeqCst);
        }
    }
}

/// One journal line: the object's JSON and a newline.
fn line(m: BTreeMap<String, Json>) -> String {
    let mut s = Json::Obj(m).to_string();
    s.push('\n');
    s
}

/// Parses every record line of a journal document. Returns the decided
/// loops plus the count of dropped (torn, garbled or checksum-rejected)
/// lines. A missing or wrong-schema header orphans everything: all
/// record lines count as dropped and the caller rotates the file.
fn parse_file(text: &str) -> (BTreeMap<u128, JournalEntry>, u64) {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_ok = lines.next().is_some_and(|h| {
        parse_json(h).is_ok_and(|j| {
            j.as_object()
                .and_then(|m| m.get("schema"))
                .and_then(Json::as_str)
                == Some(SCHEMA)
        })
    });
    let mut out = BTreeMap::new();
    let mut dropped = 0u64;
    for line in lines {
        if !header_ok {
            dropped += 1;
            continue;
        }
        match decode_line(line) {
            Some(Record::Verdict(key, e)) => {
                out.insert(key, e);
            }
            Some(Record::Start) => {}
            None => dropped += 1,
        }
    }
    (out, dropped)
}

enum Record {
    Start,
    Verdict(u128, JournalEntry),
}

/// Decodes one record line; `None` for a damaged one.
fn decode_line(line: &str) -> Option<Record> {
    let j = parse_json(line).ok()?;
    let m = j.as_object()?;
    let lref = m.get("lref")?.as_str()?.to_string();
    match m.get("rec")?.as_str()? {
        "start" => {
            let key = unhex(m.get("key")?)?;
            (start_check(key, &lref) == unhex(m.get("check")?)?).then_some(Record::Start)
        }
        "verdict" => {
            let quarantined = m.get("quarantined")?.as_bool()?;
            let (key, cached) = JOURNAL_VERDICTS.decode(m, &|key, v, text| {
                verdict_check(key, &lref, v, text, quarantined)
            })?;
            Some(Record::Verdict(
                key,
                JournalEntry {
                    lref,
                    cached,
                    quarantined,
                },
            ))
        }
        _ => None,
    }
}

/// `None` when the verdict is not journalable (cancelled / deadline).
fn encode_verdict_line(
    key: u128,
    lref: &str,
    v: &CachedVerdict,
    quarantined: bool,
) -> Option<String> {
    let mut m = JOURNAL_VERDICTS.encode(key, v, &|key, v, text| {
        verdict_check(key, lref, v, text, quarantined)
    })?;
    m.insert("rec".to_string(), Json::Str("verdict".to_string()));
    m.insert("lref".to_string(), Json::Str(lref.to_string()));
    m.insert("quarantined".to_string(), Json::Bool(quarantined));
    Some(line(m))
}

fn start_check(key: u128, lref: &str) -> u128 {
    let mut fp = Fingerprint::new();
    fp.push_str(SCHEMA);
    fp.push_str("start");
    absorb_key(&mut fp, key);
    fp.push_str(lref);
    fp.digest()
}

/// A verdict record's checksum: the schema, the record kind, the key and
/// the `lref`, then the shared field step, then the quarantine flag.
fn verdict_check(
    key: u128,
    lref: &str,
    v: &CachedVerdict,
    verdict_text: &str,
    quarantined: bool,
) -> u128 {
    let mut fp = Fingerprint::new();
    fp.push_str(SCHEMA);
    fp.push_str("verdict");
    absorb_key(&mut fp, key);
    fp.push_str(lref);
    v.absorb(&mut fp, verdict_text);
    fp.push(u64::from(quarantined));
    fp.digest()
}

// The journal's verdict codec is the shared one, widened by one kind:
// `engine_fault` carries a quarantine's contained-panic message, which
// the cache deliberately refuses to persist.

const JOURNAL_VERDICTS: VerdictCodec = VerdictCodec {
    to_json: encode_journal_verdict,
    from_json: decode_journal_verdict,
};

fn encode_journal_verdict(v: &LoopVerdict) -> Option<Json> {
    if let LoopVerdict::Skipped(SkipReason::EngineFault(msg)) = v {
        let mut m = BTreeMap::new();
        m.insert("kind".to_string(), Json::Str("engine_fault".to_string()));
        m.insert("msg".to_string(), Json::Str(msg.clone()));
        return Some(Json::Obj(m));
    }
    encode_verdict(v)
}

fn decode_journal_verdict(j: &Json) -> Option<LoopVerdict> {
    let kind = j
        .as_object()
        .and_then(|m| m.get("kind"))
        .and_then(Json::as_str);
    if kind == Some("engine_fault") {
        let msg = j.as_object()?.get("msg")?.as_str()?.to_string();
        return Some(LoopVerdict::Skipped(SkipReason::EngineFault(msg)));
    }
    decode_verdict(j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Violation;

    fn tmpdir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dca-journal-unit-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
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
    fn verdicts_round_trip_across_reopen() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("run.journal");
        let j = RunJournal::open(&path);
        assert!(!j.bypassed);
        assert!(j.entries.is_empty());
        j.record_start(1, "main:l0");
        assert!(j.record_verdict(1, "main:l0", &cached(LoopVerdict::Commutative), false));
        j.record_start(2, "main:l1");
        assert!(j.record_verdict(
            2,
            "main:l1",
            &cached(LoopVerdict::NonCommutative(Violation::ReplayDiverged)),
            false,
        ));
        // An in-flight loop: start without a verdict.
        j.record_start(3, "main:l2");
        assert_eq!(j.stats().recorded, 2);
        let back = RunJournal::open(&path);
        assert_eq!(back.entries.len(), 2);
        assert_eq!(back.stats().dropped, 0);
        let e = back.get(1).expect("decided");
        assert_eq!(e.lref, "main:l0");
        assert_eq!(e.cached, cached(LoopVerdict::Commutative));
        assert!(!e.quarantined);
        assert!(back.get(3).is_none(), "start records decide nothing");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_records_survive_and_flag() {
        let dir = tmpdir("quarantine");
        let path = dir.join("run.journal");
        let j = RunJournal::open(&path);
        let fault = cached(LoopVerdict::Skipped(SkipReason::EngineFault(
            "injected panic".into(),
        )));
        assert!(j.record_verdict(7, "f:l0", &fault, true));
        assert_eq!(j.stats().quarantined, 1);
        let back = RunJournal::open(&path);
        let e = back.get(7).expect("decided");
        assert!(e.quarantined);
        assert_eq!(e.cached.verdict, fault.verdict);
        assert_eq!(back.stats().quarantined, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelled_and_deadline_verdicts_are_refused() {
        let dir = tmpdir("refused");
        let path = dir.join("run.journal");
        let j = RunJournal::open(&path);
        for v in [
            LoopVerdict::Skipped(SkipReason::Cancelled),
            LoopVerdict::Skipped(SkipReason::Deadline),
        ] {
            assert!(
                !j.record_verdict(9, "f:l0", &cached(v.clone()), false),
                "{v:?}"
            );
        }
        assert_eq!(j.stats().recorded, 0);
        assert!(RunJournal::open(&path).entries.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_lines_are_dropped_and_compacted_away() {
        let dir = tmpdir("torn");
        let path = dir.join("run.journal");
        let j = RunJournal::open(&path);
        assert!(j.record_verdict(1, "main:l0", &cached(LoopVerdict::Commutative), false));
        drop(j);
        // Simulate a kill mid-append: a torn half-line at the tail.
        let text = std::fs::read_to_string(&path).expect("read");
        let torn = format!("{text}{{\"rec\": \"verdict\", \"key\": \"00");
        std::fs::write(&path, &torn).expect("write");
        let back = RunJournal::open(&path);
        assert!(!back.bypassed);
        assert_eq!(back.stats().dropped, 1);
        assert_eq!(back.get(1).expect("survives").lref, "main:l0");
        // The compacting rewrite removed the torn line from disk.
        let compacted = std::fs::read_to_string(&path).expect("read");
        assert!(!compacted.contains("\"key\": \"00\n"));
        assert_eq!(RunJournal::open(&path).stats().dropped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_lines_fail_their_checksum() {
        let dir = tmpdir("tamper");
        let path = dir.join("run.journal");
        let j = RunJournal::open(&path);
        assert!(j.record_verdict(1, "main:l0", &cached(LoopVerdict::Commutative), false));
        drop(j);
        let text = std::fs::read_to_string(&path).expect("read");
        let tampered = text.replace("\"commutative\"", "\"not_exercised\"");
        assert_ne!(text, tampered);
        std::fs::write(&path, &tampered).expect("write");
        let back = RunJournal::open(&path);
        assert_eq!(back.stats().dropped, 1);
        assert!(back.get(1).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_schema_header_rotates_the_file() {
        let dir = tmpdir("rotate");
        let path = dir.join("run.journal");
        std::fs::write(
            &path,
            "{\"schema\": \"dca-journal/999\"}\n{\"rec\": \"verdict\"}\n",
        )
        .expect("write");
        let j = RunJournal::open(&path);
        assert!(!j.bypassed);
        assert!(j.entries.is_empty());
        assert_eq!(j.stats().dropped, 1, "orphaned records count as dropped");
        assert!(j.record_verdict(1, "main:l0", &cached(LoopVerdict::Commutative), false));
        drop(j);
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.starts_with("{\"schema\": \"dca-journal/1\""));
        assert!(!text.contains("dca-journal/999"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_path_degrades_to_bypass() {
        let dir = tmpdir("bypass");
        // A directory cannot be read as a journal file.
        let j = RunJournal::open(&dir);
        assert!(j.bypassed);
        assert_eq!(j.stats().faults, 1);
        assert!(j.get(1).is_none());
        assert!(!j.record_verdict(1, "main:l0", &cached(LoopVerdict::Commutative), false));
        assert_eq!(j.stats().recorded, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
