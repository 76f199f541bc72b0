//! The verdict store: the persistent verdict cache and the write-ahead
//! run journal behind one engine-facing type (DESIGN.md §15, §16).
//!
//! A verdict is a pure function of the program, its workload and the
//! verdict-affecting configuration (paper §IV-B), so both files key it
//! by one 128-bit fingerprint of those inputs ([`cache::loop_keys`]).
//! Each file keeps its own policy: the [`cache`] holds the verdicts that
//! are functions of the key and is saved at the end of a run; the
//! [`journal`] appends start, verdict and quarantine records as they
//! happen, so a killed run resumes where it stopped.
//!
//! What they share is written once, here: the record fields
//! ([`CachedVerdict`]) and their JSON codec with the hex key and the
//! `check` field, the checksum step [`CachedVerdict::absorb`] that each
//! file wraps in its own prefix and suffix, the verdict codec the journal
//! widens, and [`write_atomic`].
//!
//! The engine sees only [`VerdictStore`]: it opens one per `analyze`
//! call, asks it to serve each loop, announces each loop it verifies,
//! records each verdict, and closes it after the fold for the run's
//! [`CacheStats`] and [`RunJournalStats`].

mod cache;
mod journal;

pub use cache::CacheStats;
pub use journal::RunJournalStats;

use crate::config::DcaConfig;
use crate::fault::{FaultKind, FaultPlan};
use crate::outcome::Divergence;
use crate::report::{LoopResult, LoopVerdict, SkipReason, Violation};
use cache::{loop_keys, VerdictCache};
use dca_analysis::ExclusionReason;
use dca_interp::{Trap, Value};
use dca_ir::{LoopRef, Module};
use dca_obs::{Json, Obs};
use dca_rng::Fingerprint;
use journal::RunJournal;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The verdict files of one `analyze` call and the policy between them.
pub(crate) struct VerdictStore {
    cache: Option<VerdictCache>,
    journal: Option<RunJournal>,
    /// Per-loop keys in analysis order; empty when neither file is
    /// usable, so every call below is then a no-op.
    keys: Vec<u128>,
    /// The run's fault plan perturbs verdicts: the journal serves and
    /// records quarantines only.
    perturbing: bool,
    /// The run's fault plan, for a `KillSave` aimed at the cache's save.
    fault: Option<FaultPlan>,
}

impl VerdictStore {
    /// Opens the files configured for a run of `module` on `args`: the
    /// `DCA_CACHE` and `DCA_JOURNAL` environment variables win over
    /// [`DcaConfig::cache`] and [`DcaConfig::journal`]. A run with a
    /// verdict-perturbing fault plan or wall limits bypasses the cache
    /// wholesale: its verdicts are not functions of the key. The journal
    /// stays open under fault injection — that is how quarantine records
    /// land.
    pub(crate) fn open(
        config: &DcaConfig,
        fault: Option<&FaultPlan>,
        module: &Module,
        args: &[Value],
        obs: &Obs,
    ) -> Self {
        let path = |var: &str, configured: &Option<PathBuf>| {
            std::env::var_os(var)
                .map(PathBuf::from)
                .or_else(|| configured.clone())
        };
        let perturbing = fault.is_some_and(|p| p.kind.perturbs_verdicts());
        let cache = path("DCA_CACHE", &config.cache).map(|p| {
            if perturbing || !config.max_wall.is_unlimited() {
                VerdictCache::bypass(&p)
            } else {
                VerdictCache::open(&p)
            }
        });
        let journal = path("DCA_JOURNAL", &config.journal).map(|p| RunJournal::open(&p));
        let usable = cache.as_ref().is_some_and(|c| !c.bypassed())
            || journal.as_ref().is_some_and(|j| !j.bypassed());
        let keys = if usable {
            let t = obs.span_start();
            let keys = loop_keys(config, args, module);
            obs.span_end("cache.keying", t);
            keys
        } else {
            Vec::new()
        };
        VerdictStore {
            cache,
            journal,
            keys,
            perturbing,
            fault: fault.cloned(),
        }
    }

    /// The stored verdict of loop `i` of the analysis order, if a file
    /// holds one. The journal comes first: an interrupted run's decided
    /// loops are served exactly as recorded, including skips the cache
    /// refuses to keep; under a perturbing plan only its quarantines are.
    pub(crate) fn serve(&self, i: usize, lref: LoopRef) -> Option<LoopResult> {
        let key = *self.keys.get(i)?;
        if let Some(e) = self.journal.as_ref().and_then(|j| j.get(key)) {
            if e.quarantined || !self.perturbing {
                return Some(LoopResult {
                    resumed: true,
                    ..e.cached.result(lref)
                });
            }
        }
        let hit = self.cache.as_ref()?.get(key)?;
        Some(LoopResult {
            cached: true,
            ..hit.result(lref)
        })
    }

    /// Write-ahead: journals that loop `i` is about to be verified, so an
    /// operator tailing the journal sees what was in flight when a kill
    /// lands.
    pub(crate) fn announce(&self, i: usize, lref: LoopRef) {
        if let (Some(j), Some(&key)) = (&self.journal, self.keys.get(i)) {
            j.record_start(key, &lref.to_string());
        }
    }

    /// Journals loop `i`'s verdict as soon as it exists — the file on
    /// disk is never more than one in-flight loop behind. A verdict still
    /// `EngineFault` after the retry budget is a quarantine record:
    /// subsequent runs skip the loop immediately.
    pub(crate) fn record(&self, i: usize, r: &LoopResult) {
        let (Some(j), Some(&key)) = (&self.journal, self.keys.get(i)) else {
            return;
        };
        let quarantine = matches!(r.verdict, LoopVerdict::Skipped(SkipReason::EngineFault(_)));
        if quarantine || !self.perturbing {
            j.record_verdict(key, &r.lref.to_string(), &CachedVerdict::of(r), quarantine);
        }
    }

    /// Closes the store after the fold over the ordered `results`: the
    /// cache stores every verdict it did not serve and is saved, and both
    /// files' statistics are counted. Counting from the result vector
    /// keeps `cache.*` and `journal.*` as thread-count-invariant as the
    /// verdict tallies. Journal-served results take the cache's miss
    /// path, so a resumed run backfills the cache it never got to write
    /// before the interrupt.
    pub(crate) fn close(
        self,
        results: &[LoopResult],
        obs: &Obs,
    ) -> (Option<CacheStats>, Option<RunJournalStats>) {
        let cache = self.cache.map(|mut vc| {
            let mut stats = vc.stats();
            if !stats.bypassed {
                for (r, &key) in results.iter().zip(&self.keys) {
                    if r.cached {
                        stats.hits += 1;
                    } else {
                        stats.misses += 1;
                        stats.stores += u64::from(vc.store(key, CachedVerdict::of(r)));
                    }
                }
                if vc.save(self.fault.as_ref()).is_err() {
                    stats.faults += 1;
                }
            }
            obs.count("cache.hits", stats.hits);
            obs.count("cache.misses", stats.misses);
            obs.count("cache.stores", stats.stores);
            obs.count("engine.cache_fault", stats.faults);
            stats
        });
        let journal = self.journal.map(|j| {
            let mut s = j.stats();
            s.resumed = results.iter().filter(|r| r.resumed).count() as u64;
            obs.count("journal.resumed", s.resumed);
            obs.count("journal.recorded", s.recorded);
            obs.count("journal.dropped", s.dropped);
            obs.count("engine.journal_fault", s.faults);
            s
        });
        (cache, journal)
    }
}

// ---- the record layer ------------------------------------------------------

/// The stored portion of a [`LoopResult`]: the verdict plus the
/// deterministic counters that ride with it. `wall` is deliberately
/// absent (never reproducible), as is `lref` (implied by the key).
#[derive(Debug, Clone, PartialEq)]
struct CachedVerdict {
    tag: Option<String>,
    verdict: LoopVerdict,
    trips: usize,
    permutations_tested: usize,
    replay_steps: u64,
}

/// One file's verdict codec: the shared one, or the journal's widening
/// of it. `None` from `to_json` means "not storable in this file"; `None`
/// from `from_json` means a damaged record.
struct VerdictCodec {
    to_json: fn(&LoopVerdict) -> Option<Json>,
    from_json: fn(&Json) -> Option<LoopVerdict>,
}

/// A record's checksum over its key, its fields and the canonical text
/// of its verdict; each file adds its own prefix and suffix around
/// [`CachedVerdict::absorb`].
type Seal<'a> = &'a dyn Fn(u128, &CachedVerdict, &str) -> u128;

impl CachedVerdict {
    /// The stored portion of `r`.
    fn of(r: &LoopResult) -> Self {
        CachedVerdict {
            tag: r.tag.clone(),
            verdict: r.verdict.clone(),
            trips: r.trips,
            permutations_tested: r.permutations_tested,
            replay_steps: r.replay_steps,
        }
    }

    /// The result `lref` is served with: this verdict, nothing run.
    fn result(&self, lref: LoopRef) -> LoopResult {
        LoopResult {
            lref,
            tag: self.tag.clone(),
            verdict: self.verdict.clone(),
            trips: self.trips,
            permutations_tested: self.permutations_tested,
            replay_steps: self.replay_steps,
            wall: Duration::ZERO,
            cached: false,
            resumed: false,
        }
    }

    /// Absorbs every field into a record checksum — `verdict_text` is the
    /// verdict's canonical JSON — so any single-field mutation that
    /// survives JSON parsing is still rejected.
    fn absorb(&self, fp: &mut Fingerprint, verdict_text: &str) {
        match &self.tag {
            Some(t) => {
                fp.push(1);
                fp.push_str(t);
            }
            None => fp.push(0),
        }
        fp.push_str(verdict_text);
        fp.push(self.trips as u64);
        fp.push(self.permutations_tested as u64);
        fp.push(self.replay_steps);
    }
}

/// Pushes a 128-bit key into a checksum, low half first.
fn absorb_key(fp: &mut Fingerprint, key: u128) {
    fp.push(key as u64);
    fp.push((key >> 64) as u64);
}

/// A key or checksum as the files write it: 32 hex digits.
fn hex(x: u128) -> Json {
    Json::Str(format!("{x:032x}"))
}

fn unhex(j: &Json) -> Option<u128> {
    u128::from_str_radix(j.as_str()?, 16).ok()
}

impl VerdictCodec {
    /// The fields every record carries — `key`, `tag`, `verdict`,
    /// `trips`, `perms`, `replay_steps` and `check` — or `None` when the
    /// codec refuses the verdict.
    fn encode(
        &self,
        key: u128,
        v: &CachedVerdict,
        seal: Seal<'_>,
    ) -> Option<BTreeMap<String, Json>> {
        let verdict = (self.to_json)(&v.verdict)?;
        let check = seal(key, v, &verdict.to_string());
        let mut m = BTreeMap::new();
        m.insert("key".to_string(), hex(key));
        m.insert("check".to_string(), hex(check));
        m.insert(
            "tag".to_string(),
            v.tag.as_ref().map_or(Json::Null, |t| Json::Str(t.clone())),
        );
        m.insert("verdict".to_string(), verdict);
        m.insert("trips".to_string(), Json::Num(v.trips as f64));
        m.insert("perms".to_string(), Json::Num(v.permutations_tested as f64));
        m.insert("replay_steps".to_string(), Json::Num(v.replay_steps as f64));
        Some(m)
    }

    /// Decodes the shared fields of a record and checks its `check`;
    /// `None` when a field is missing or malformed or the check fails.
    fn decode(&self, m: &BTreeMap<String, Json>, seal: Seal<'_>) -> Option<(u128, CachedVerdict)> {
        let key = unhex(m.get("key")?)?;
        let check = unhex(m.get("check")?)?;
        let tag = match m.get("tag")? {
            Json::Null => None,
            Json::Str(s) => Some(s.clone()),
            _ => return None,
        };
        let v = CachedVerdict {
            tag,
            verdict: (self.from_json)(m.get("verdict")?)?,
            trips: m.get("trips")?.as_u64()? as usize,
            permutations_tested: m.get("perms")?.as_u64()? as usize,
            replay_steps: m.get("replay_steps")?.as_u64()?,
        };
        // Re-encode the verdict through the writer so the checksum covers
        // the canonical text, not whatever byte soup the file held.
        let canon = (self.to_json)(&v.verdict)?.to_string();
        (seal(key, &v, &canon) == check).then_some((key, v))
    }
}

/// Writes `doc` to `path` through a sibling temp file and a rename, so a
/// crash mid-write cannot truncate the previous file in place.
///
/// `fault` may carry a [`FaultKind::KillSave`] plan simulating a process
/// kill during the write: stage `0` dies after the temp file is fully
/// written but before the rename; any other stage dies mid temp-file
/// write, leaving a torn temp file. Either way the previous file is
/// untouched — the atomicity property the chaos suite asserts.
///
/// # Errors
///
/// Returns the I/O error, injected or real; callers degrade it to a
/// fault of their file.
fn write_atomic(path: &Path, doc: &str, fault: Option<&FaultPlan>) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    match fault.map(|p| p.kind) {
        Some(FaultKind::KillSave { stage: 0 }) => {
            std::fs::write(&tmp, doc)?;
            return Err(std::io::Error::other(
                "injected kill after temp write, before rename",
            ));
        }
        Some(FaultKind::KillSave { .. }) => {
            std::fs::write(&tmp, &doc[..doc.len() / 2])?;
            return Err(std::io::Error::other("injected kill mid temp write"));
        }
        _ => {}
    }
    std::fs::write(&tmp, doc)?;
    std::fs::rename(&tmp, path)
}

// ---- verdict serialization -------------------------------------------------
//
// `None` from an encoder means "not storable" (deadline/fault verdicts,
// traps carrying non-reconstructible payloads); `None` from a decoder
// means "damaged record" — both are handled by dropping the record.

/// The verdict codec both files share.
const VERDICTS: VerdictCodec = VerdictCodec {
    to_json: encode_verdict,
    from_json: decode_verdict,
};

fn obj(kind: &str) -> BTreeMap<String, Json> {
    let mut m = BTreeMap::new();
    m.insert("kind".to_string(), Json::Str(kind.to_string()));
    m
}

fn encode_verdict(v: &LoopVerdict) -> Option<Json> {
    let m = match v {
        LoopVerdict::Commutative => obj("commutative"),
        LoopVerdict::NonCommutative(violation) => {
            let mut m = obj("non_commutative");
            m.insert("violation".to_string(), encode_violation(violation)?);
            m
        }
        LoopVerdict::Excluded(r) => {
            let mut m = obj("excluded");
            m.insert(
                "reason".to_string(),
                Json::Str(
                    match r {
                        ExclusionReason::PerformsIo => "performs_io",
                        ExclusionReason::EmptyPayload => "empty_payload",
                    }
                    .to_string(),
                ),
            );
            m
        }
        LoopVerdict::NotExercised => obj("not_exercised"),
        LoopVerdict::Skipped(r) => {
            let mut m = obj("skipped");
            m.insert("reason".to_string(), encode_skip(r)?);
            m
        }
    };
    Some(Json::Obj(m))
}

fn decode_verdict(j: &Json) -> Option<LoopVerdict> {
    let m = j.as_object()?;
    Some(match m.get("kind")?.as_str()? {
        "commutative" => LoopVerdict::Commutative,
        "non_commutative" => LoopVerdict::NonCommutative(decode_violation(m.get("violation")?)?),
        "excluded" => LoopVerdict::Excluded(match m.get("reason")?.as_str()? {
            "performs_io" => ExclusionReason::PerformsIo,
            "empty_payload" => ExclusionReason::EmptyPayload,
            _ => return None,
        }),
        "not_exercised" => LoopVerdict::NotExercised,
        "skipped" => LoopVerdict::Skipped(decode_skip(m.get("reason")?)?),
        _ => return None,
    })
}

fn encode_violation(v: &Violation) -> Option<Json> {
    let m = match v {
        Violation::OutcomeMismatch(d) => {
            let mut m = obj("outcome_mismatch");
            if let Some(d) = d {
                m.insert("divergence".to_string(), encode_divergence(d));
            }
            m
        }
        Violation::ReplayTrapped(t) => {
            let mut m = obj("replay_trapped");
            m.insert("trap".to_string(), encode_trap(t)?);
            m
        }
        Violation::ReplayDiverged => obj("replay_diverged"),
    };
    Some(Json::Obj(m))
}

fn decode_violation(j: &Json) -> Option<Violation> {
    let m = j.as_object()?;
    Some(match m.get("kind")?.as_str()? {
        "outcome_mismatch" => Violation::OutcomeMismatch(match m.get("divergence") {
            Some(d) => Some(decode_divergence(d)?),
            None => None,
        }),
        "replay_trapped" => Violation::ReplayTrapped(decode_trap(m.get("trap")?)?),
        "replay_diverged" => Violation::ReplayDiverged,
        _ => return None,
    })
}

fn encode_skip(r: &SkipReason) -> Option<Json> {
    let m = match r {
        SkipReason::TripLimit => obj("trip_limit"),
        SkipReason::GoldenTrapped(t) => {
            let mut m = obj("golden_trapped");
            m.insert("trap".to_string(), encode_trap(t)?);
            m
        }
        SkipReason::GoldenBudget => obj("golden_budget"),
        SkipReason::ReplayBudget => obj("replay_budget"),
        // The heap budget is part of the cache key, so a budget skip is a
        // pure function of it — cacheable like the step-budget skips.
        SkipReason::MemoryBudget => obj("memory_budget"),
        // Host-speed, contained-panic and operator-cancellation verdicts
        // are not functions of the key; replaying them from a cache would
        // be a wrong verdict.
        SkipReason::Deadline | SkipReason::EngineFault(_) | SkipReason::Cancelled => return None,
    };
    Some(Json::Obj(m))
}

fn decode_skip(j: &Json) -> Option<SkipReason> {
    let m = j.as_object()?;
    Some(match m.get("kind")?.as_str()? {
        "trip_limit" => SkipReason::TripLimit,
        "golden_trapped" => SkipReason::GoldenTrapped(decode_trap(m.get("trap")?)?),
        "golden_budget" => SkipReason::GoldenBudget,
        "replay_budget" => SkipReason::ReplayBudget,
        "memory_budget" => SkipReason::MemoryBudget,
        _ => return None,
    })
}

fn encode_trap(t: &Trap) -> Option<Json> {
    let m = match t {
        Trap::NullDeref => obj("null_deref"),
        Trap::OutOfBounds { len, index } => {
            let mut m = obj("out_of_bounds");
            m.insert("len".to_string(), Json::Num(*len as f64));
            m.insert("index".to_string(), Json::Num(*index as f64));
            m
        }
        Trap::DivByZero => obj("div_by_zero"),
        Trap::StackOverflow => obj("stack_overflow"),
        Trap::OutOfMemory => obj("out_of_memory"),
        Trap::ArityMismatch { expected, given } => {
            let mut m = obj("arity_mismatch");
            m.insert("expected".to_string(), Json::Num(*expected as f64));
            m.insert("given".to_string(), Json::Num(*given as f64));
            m
        }
        // `IllTyped` carries a `&'static str` that cannot be
        // reconstructed from a file; `Injected`/`NotRunning` are
        // harness-internal and never legitimate verdict payloads.
        Trap::IllTyped(_) | Trap::Injected | Trap::NotRunning => return None,
    };
    Some(Json::Obj(m))
}

fn as_i64(j: &Json) -> Option<i64> {
    match j {
        Json::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
        _ => None,
    }
}

fn decode_trap(j: &Json) -> Option<Trap> {
    let m = j.as_object()?;
    Some(match m.get("kind")?.as_str()? {
        "null_deref" => Trap::NullDeref,
        "out_of_bounds" => Trap::OutOfBounds {
            len: m.get("len")?.as_u64()? as usize,
            index: as_i64(m.get("index")?)?,
        },
        "div_by_zero" => Trap::DivByZero,
        "stack_overflow" => Trap::StackOverflow,
        "out_of_memory" => Trap::OutOfMemory,
        "arity_mismatch" => Trap::ArityMismatch {
            expected: m.get("expected")?.as_u64()? as usize,
            given: m.get("given")?.as_u64()? as usize,
        },
        _ => return None,
    })
}

fn encode_divergence(d: &Divergence) -> Json {
    let s = |v: &String| Json::Str(v.clone());
    let n = |v: usize| Json::Num(v as f64);
    let id = |v: &u32| Json::Num(f64::from(*v));
    // Every kind carries `golden` and `permuted`; some add fields.
    let (kind, golden, permuted, extra) = match d {
        Divergence::Root {
            name,
            golden,
            permuted,
        } => ("root", s(golden), s(permuted), vec![("name", s(name))]),
        Divergence::ObjectCount { golden, permuted } => {
            ("object_count", n(*golden), n(*permuted), vec![])
        }
        Divergence::ObjectShape {
            object,
            golden,
            permuted,
        } => (
            "object_shape",
            s(golden),
            s(permuted),
            vec![("object", id(object))],
        ),
        Divergence::Cell {
            object,
            cell,
            golden,
            permuted,
        } => (
            "cell",
            s(golden),
            s(permuted),
            vec![("object", id(object)), ("cell", id(cell))],
        ),
        Divergence::OutputLen { golden, permuted } => {
            ("output_len", n(*golden), n(*permuted), vec![])
        }
        Divergence::Output {
            index,
            golden,
            permuted,
        } => ("output", s(golden), s(permuted), vec![("index", n(*index))]),
        Divergence::Ret { golden, permuted } => ("ret", s(golden), s(permuted), vec![]),
    };
    let mut m = obj(kind);
    m.insert("golden".to_string(), golden);
    m.insert("permuted".to_string(), permuted);
    for (k, v) in extra {
        m.insert(k.to_string(), v);
    }
    Json::Obj(m)
}

fn decode_divergence(j: &Json) -> Option<Divergence> {
    let m = j.as_object()?;
    let s = |k: &str| -> Option<String> { Some(m.get(k)?.as_str()?.to_string()) };
    let n = |k: &str| -> Option<usize> { Some(m.get(k)?.as_u64()? as usize) };
    let id = |k: &str| -> Option<u32> { u32::try_from(m.get(k)?.as_u64()?).ok() };
    Some(match m.get("kind")?.as_str()? {
        "root" => Divergence::Root {
            name: s("name")?,
            golden: s("golden")?,
            permuted: s("permuted")?,
        },
        "object_count" => Divergence::ObjectCount {
            golden: n("golden")?,
            permuted: n("permuted")?,
        },
        "object_shape" => Divergence::ObjectShape {
            object: id("object")?,
            golden: s("golden")?,
            permuted: s("permuted")?,
        },
        "cell" => Divergence::Cell {
            object: id("object")?,
            cell: id("cell")?,
            golden: s("golden")?,
            permuted: s("permuted")?,
        },
        "output_len" => Divergence::OutputLen {
            golden: n("golden")?,
            permuted: n("permuted")?,
        },
        "output" => Divergence::Output {
            index: n("index")?,
            golden: s("golden")?,
            permuted: s("permuted")?,
        },
        "ret" => Divergence::Ret {
            golden: s("golden")?,
            permuted: s("permuted")?,
        },
        _ => return None,
    })
}
