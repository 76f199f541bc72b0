//! Pins the on-disk formats of the verdict cache (`dca-cache/1`) and the
//! run journal (`dca-journal/1`) byte for byte.
//!
//! The fixtures under `tests/fixtures/store_format/` were written by the
//! engine for the fixed program below at one worker thread:
//!
//! * `cache.json` by one clean run with a cache path;
//! * `run.journal` by the same clean run, then a second run against the
//!   same journal with an injected replay panic in `@fill` and no
//!   retries. A perturbing run journals only its quarantine record, so
//!   the file holds the clean verdict records, the second run's start
//!   records and one quarantine record.
//!
//! A fresh run must write the same bytes, and the committed files must
//! load with no fault and no dropped record and serve every loop. A
//! change that fails here changes a file format: it must bump the
//! format's schema string, not regenerate the fixtures.

use dca::core::{Dca, DcaConfig, DcaReport, FaultPlan, LoopVerdict, SkipReason};
use std::path::{Path, PathBuf};

/// Five loops, one per verdict class the files must carry: a map, a
/// reduction, an order-sensitive recurrence (with a divergence
/// payload), an excluded printing loop and a never-exercised loop.
const SRC: &str = "fn main() -> int { \
     let a: [int; 16]; let s: int = 0; let n: int = 0; \
     @fill: for (let i: int = 0; i < 12; i = i + 1) { a[i] = i * 7 % 11; } \
     @sum: for (let i: int = 0; i < 12; i = i + 1) { s = s + a[i]; } \
     @rec: for (let i: int = 1; i < 12; i = i + 1) { a[i] = a[i - 1] * 2 + 1; } \
     @io: for (let i: int = 0; i < 2; i = i + 1) { print(i); } \
     @cold: for (let i: int = 0; i < n; i = i + 1) { a[0] = i; } \
     return s + a[11]; }";

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/store_format")
        .join(name)
}

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dca-store-format-{label}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn config() -> DcaConfig {
    DcaConfig {
        threads: 1,
        ..DcaConfig::default()
    }
}

fn analyze(cfg: DcaConfig) -> DcaReport {
    let m = dca::ir::compile(SRC).expect("compile");
    Dca::new(cfg).analyze_module(&m).expect("analyze")
}

/// The clean run, then the faulted run against the same journal.
fn write_fresh(cache: &Path, journal: &Path) -> DcaReport {
    let clean = analyze(DcaConfig {
        cache: Some(cache.to_path_buf()),
        journal: Some(journal.to_path_buf()),
        ..config()
    });
    let fill = clean
        .iter()
        .position(|r| r.tag.as_deref() == Some("fill"))
        .expect("fill loop");
    let faulted = analyze(DcaConfig {
        journal: Some(journal.to_path_buf()),
        fault: Some(FaultPlan::parse(&format!("panic@replay:0,loop:{fill}")).expect("valid")),
        fault_retries: 0,
        ..config()
    });
    let js = faulted.journal.as_ref().expect("journal stats");
    assert_eq!(js.quarantined, 1, "the faulted loop is quarantined");
    assert_eq!(
        js.recorded, 1,
        "a perturbing run journals its quarantine only"
    );
    clean
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn fresh_runs_write_the_pinned_files() {
    let dir = scratch("fresh");
    let (cache, journal) = (dir.join("cache.json"), dir.join("run.journal"));
    let clean = write_fresh(&cache, &journal);
    // Every verdict class the files are meant to carry is present.
    let verdict = |tag: &str| &clean.by_tag(tag).expect("tagged loop").verdict;
    assert_eq!(verdict("fill"), &LoopVerdict::Commutative);
    assert_eq!(verdict("sum"), &LoopVerdict::Commutative);
    assert!(matches!(verdict("rec"), LoopVerdict::NonCommutative(_)));
    assert!(matches!(verdict("io"), LoopVerdict::Excluded(_)));
    assert_eq!(verdict("cold"), &LoopVerdict::NotExercised);
    assert_eq!(
        read(&cache),
        read(&fixture("cache.json")),
        "cache file bytes changed (fresh file kept at {})",
        cache.display()
    );
    assert_eq!(
        read(&journal),
        read(&fixture("run.journal")),
        "journal file bytes changed (fresh file kept at {})",
        journal.display()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pinned_files_load_clean_and_serve_every_loop() {
    let dir = scratch("load");
    let (cache, journal) = (dir.join("cache.json"), dir.join("run.journal"));
    std::fs::copy(fixture("cache.json"), &cache).expect("copy cache fixture");
    std::fs::copy(fixture("run.journal"), &journal).expect("copy journal fixture");
    let fresh = analyze(config());

    let warm = analyze(DcaConfig {
        cache: Some(cache.clone()),
        ..config()
    });
    let cs = warm.cache.as_ref().expect("cache stats");
    assert!(!cs.bypassed);
    assert_eq!(cs.faults, 0, "the pinned cache loads without a fault");
    assert_eq!(cs.hits as usize, warm.len(), "the cache serves every loop");
    assert_eq!((cs.misses, cs.stores), (0, 0));
    for (f, w) in fresh.iter().zip(warm.iter()) {
        assert!(w.cached);
        assert_eq!(
            f, w,
            "cached verdict of {} differs from a fresh one",
            f.lref
        );
    }

    let resumed = analyze(DcaConfig {
        journal: Some(journal.clone()),
        ..config()
    });
    let js = resumed.journal.as_ref().expect("journal stats");
    assert!(!js.bypassed);
    assert_eq!(js.faults, 0, "the pinned journal loads without a fault");
    assert_eq!(js.dropped, 0, "no pinned journal record is dropped");
    assert_eq!(
        js.resumed as usize,
        resumed.len(),
        "the journal serves every loop"
    );
    assert_eq!(js.quarantined, 1);
    for (f, r) in fresh.iter().zip(resumed.iter()) {
        assert!(r.resumed);
        if r.tag.as_deref() == Some("fill") {
            assert!(matches!(
                r.verdict,
                LoopVerdict::Skipped(SkipReason::EngineFault(_))
            ));
        } else {
            assert_eq!(
                f, r,
                "journaled verdict of {} differs from a fresh one",
                f.lref
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
