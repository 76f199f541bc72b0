//! Integration tests for the persistent verdict cache: warm runs must be
//! indistinguishable from cold runs in every outcome-bearing field, at
//! every worker-thread width, and no file damage may ever panic the
//! engine or change a verdict.

use dca::core::{Dca, DcaConfig, DcaReport, ObsOptions};
use dca_rng::Rng;
use std::path::PathBuf;
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

/// `DCA_CACHE` is process-global and wins over every configured cache
/// path, so no other test here may analyze while
/// `dca_cache_env_var_enables_the_cache` has it set: the others hold this
/// lock for reading, that test holds it for writing.
static DCA_CACHE_ENV: RwLock<()> = RwLock::new(());

/// Keeps `DCA_CACHE` unset for the rest of the calling test.
fn env_unset() -> RwLockReadGuard<'static, ()> {
    DCA_CACHE_ENV.read().unwrap_or_else(PoisonError::into_inner)
}

/// A unique scratch directory per test (the suite runs tests in
/// parallel, so cache files must never be shared implicitly).
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dca-cache-it-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn with_cache(path: &std::path::Path, threads: usize) -> DcaConfig {
    DcaConfig {
        cache: Some(path.to_path_buf()),
        threads,
        obs: ObsOptions::metrics(),
        ..DcaConfig::fast()
    }
}

/// A generated mixed-verdict program: commutative maps and reductions, an
/// order-sensitive recurrence, an excluded (printing) loop and a
/// never-exercised one, so the cache sees every cacheable verdict class.
fn gen_program(rng: &mut Rng) -> dca::ir::Module {
    let n = rng.range_usize(4, 24);
    let c = rng.range_i64(2, 9);
    let src = format!(
        "fn main() -> int {{ \
         let a: [int; 32]; let s: int = 0; \
         @map: for (let i: int = 0; i < {n}; i = i + 1) {{ a[i] = i * {c} % 13; }} \
         @red: for (let i: int = 0; i < {n}; i = i + 1) {{ s = s + a[i] * (i + 1); }} \
         @ncr: for (let i: int = 0; i < {n}; i = i + 1) {{ s = s * 2 + i; }} \
         @io: for (let i: int = 0; i < 2; i = i + 1) {{ print(i); }} \
         @cold: for (let i: int = 0; i < 0; i = i + 1) {{ a[0] = i; }} \
         return s + a[{n} - 1]; }}"
    );
    dca::ir::compile(&src).expect("generated program compiles")
}

/// Full-report equality modulo the documented non-outcome fields
/// (`wall`, `cached`): everything else — verdicts with payloads, trips,
/// permutation counts, replay-step accounting, loop order — must match.
fn assert_reports_equal_modulo_cache(a: &DcaReport, b: &DcaReport, context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: loop counts differ");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x, y, "{context}: outcome differs at {}", x.lref);
        assert_eq!(
            x.replay_steps, y.replay_steps,
            "{context}: replay accounting differs at {}",
            x.lref
        );
    }
}

#[test]
fn cached_verdict_equals_fresh_verdict() {
    let _env = env_unset();
    let dir = scratch("property");
    let mut rng = Rng::seed_from_u64(21);
    for case in 0..6 {
        let m = gen_program(&mut rng);
        let path = dir.join(format!("case-{case}.json"));
        // The oracle: a fresh analysis with no cache at all.
        let fresh = Dca::new(DcaConfig {
            threads: 1,
            ..DcaConfig::fast()
        })
        .analyze_module(&m)
        .expect("fresh analysis");
        // Cold run populates the cache; its report must already equal the
        // cacheless oracle, with nothing marked cached.
        let cold = Dca::new(with_cache(&path, 1))
            .analyze_module(&m)
            .expect("cold analysis");
        assert_reports_equal_modulo_cache(&fresh, &cold, &format!("case {case} cold"));
        assert_eq!(cold.cached_count(), 0, "case {case}: cold run has no hits");
        let stats = cold.cache.clone().expect("cache configured");
        assert!(!stats.bypassed);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, cold.len() as u64);
        assert!(stats.stores > 0, "case {case}: cold run stores verdicts");
        // Warm runs at every width serve the same full report.
        for threads in [1, 2, 4] {
            let warm = Dca::new(with_cache(&path, threads))
                .analyze_module(&m)
                .expect("warm analysis");
            let context = format!("case {case} warm threads={threads}");
            assert_reports_equal_modulo_cache(&fresh, &warm, &context);
            let stats = warm.cache.clone().expect("cache configured");
            assert_eq!(stats.misses, 0, "{context}: every consult hits");
            assert_eq!(stats.stores, 0, "{context}: nothing new to store");
            assert_eq!(stats.faults, 0, "{context}: no integrity faults");
            assert_eq!(
                warm.cached_count() as u64,
                stats.hits,
                "{context}: per-loop cached flags mirror the hit count"
            );
            assert!(
                warm.cached_count() > 0,
                "{context}: warm run must serve hits"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_obs_rollups_identical_across_widths() {
    let _env = env_unset();
    // Cache hits ride the same deterministic fold as everything else:
    // counter values (including `cache.{hits,misses,stores}`) and span
    // counts must not depend on the worker count.
    let dir = scratch("rollup");
    let path = dir.join("cache.json");
    let m = gen_program(&mut Rng::seed_from_u64(22));
    let deterministic_view = |r: &DcaReport| {
        let obs = r.obs.clone().expect("metrics enabled");
        let spans: Vec<(String, u64)> = obs
            .spans
            .iter()
            .map(|(k, s)| (k.clone(), s.count))
            .collect();
        (obs.counters, spans)
    };
    // Pre-warm, then compare fully-warm runs across widths.
    Dca::new(with_cache(&path, 1))
        .analyze_module(&m)
        .expect("pre-warm");
    let seq = Dca::new(with_cache(&path, 1))
        .analyze_module(&m)
        .expect("warm sequential");
    assert!(seq.cached_count() > 0, "warm run hits");
    let reference = deterministic_view(&seq);
    assert!(
        reference.0.get("cache.hits").copied().unwrap_or(0) > 0,
        "cache.hits counter present in the rollup"
    );
    for threads in [2, 4, 7] {
        let par = Dca::new(with_cache(&path, threads))
            .analyze_module(&m)
            .expect("warm parallel");
        assert_reports_equal_modulo_cache(&seq, &par, &format!("warm threads={threads}"));
        assert_eq!(
            deterministic_view(&par),
            reference,
            "warm rollup differs at threads={threads}"
        );
    }
    // Cold runs are equally deterministic: fresh file per width, same
    // rollup (cache.misses/stores counters included).
    let cold_view = |threads: usize| {
        let p = dir.join(format!("cold-{threads}.json"));
        let r = Dca::new(with_cache(&p, threads))
            .analyze_module(&m)
            .expect("cold run");
        deterministic_view(&r)
    };
    let cold_ref = cold_view(1);
    assert!(cold_ref.0.get("cache.misses").copied().unwrap_or(0) > 0);
    for threads in [2, 4] {
        assert_eq!(
            cold_view(threads),
            cold_ref,
            "cold rollup differs at threads={threads}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn key_changes_invalidate_stale_verdicts() {
    let _env = env_unset();
    let dir = scratch("invalidate");
    let path = dir.join("cache.json");
    let mut rng = Rng::seed_from_u64(23);
    let m1 = gen_program(&mut rng);
    let m2 = gen_program(&mut rng);
    let cold = Dca::new(with_cache(&path, 2))
        .analyze_module(&m1)
        .expect("cold");
    assert_eq!(cold.cached_count(), 0);
    // A different program against the same file: all misses, no stale
    // verdicts served.
    let other = Dca::new(with_cache(&path, 2))
        .analyze_module(&m2)
        .expect("other program");
    assert_eq!(other.cached_count(), 0, "different program never hits");
    // A verdict-affecting knob change also misses, while the original
    // configuration still hits.
    let reseeded = Dca::new(DcaConfig {
        seed: 4242,
        ..with_cache(&path, 2)
    })
    .analyze_module(&m1)
    .expect("reseeded");
    assert_eq!(reseeded.cached_count(), 0, "knob change never hits");
    let warm = Dca::new(with_cache(&path, 2))
        .analyze_module(&m1)
        .expect("warm");
    assert!(warm.cached_count() > 0, "original key still hits");
    assert_reports_equal_modulo_cache(&cold, &warm, "warm after interleaved runs");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_cache_bypasses_with_fault_counter_and_correct_verdicts() {
    let _env = env_unset();
    let dir = scratch("damage");
    let path = dir.join("cache.json");
    let m = gen_program(&mut Rng::seed_from_u64(24));
    let fresh = Dca::new(DcaConfig {
        threads: 2,
        ..DcaConfig::fast()
    })
    .analyze_module(&m)
    .expect("fresh");
    std::fs::write(&path, "{\"schema\": \"dca-cache/1\", \"entries\": [trunc").expect("write");
    let damaged = Dca::new(with_cache(&path, 2))
        .analyze_module(&m)
        .expect("analysis survives damage");
    assert_reports_equal_modulo_cache(&fresh, &damaged, "damaged file");
    assert_eq!(damaged.cached_count(), 0);
    let stats = damaged.cache.clone().expect("cache configured");
    assert!(stats.bypassed, "damage degrades to bypass");
    assert_eq!(stats.faults, 1);
    let obs = damaged.obs.expect("metrics enabled");
    assert_eq!(
        obs.counters.get("engine.cache_fault").copied(),
        Some(1),
        "fault surfaces as the engine.cache_fault counter"
    );
    assert_eq!(
        std::fs::read_to_string(&path).expect("read"),
        "{\"schema\": \"dca-cache/1\", \"entries\": [trunc",
        "the damaged file is left for inspection"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_injection_and_deadlines_bypass_the_cache() {
    let _env = env_unset();
    let dir = scratch("bypass");
    let path = dir.join("cache.json");
    let m = gen_program(&mut Rng::seed_from_u64(25));
    // Pre-warm with the plain config.
    Dca::new(with_cache(&path, 1))
        .analyze_module(&m)
        .expect("pre-warm");
    let faulty = Dca::new(DcaConfig {
        fault: Some(dca::core::FaultPlan::parse("panic@replay:1").expect("fault spec")),
        ..with_cache(&path, 1)
    })
    .analyze_module(&m)
    .expect("fault-injected run");
    let stats = faulty.cache.clone().expect("cache configured");
    assert!(stats.bypassed, "fault injection must not consult the cache");
    assert_eq!(faulty.cached_count(), 0);
    let deadline = Dca::new(DcaConfig {
        max_wall: dca::core::WallLimits {
            analysis: Some(std::time::Duration::from_secs(3600)),
            replay: None,
        },
        ..with_cache(&path, 1)
    })
    .analyze_module(&m)
    .expect("deadline run");
    assert!(
        deadline.cache.expect("cache configured").bypassed,
        "wall deadlines must not consult the cache"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_file_fuzz_never_panics_or_serves_wrong_verdicts() {
    let _env = env_unset();
    // `dca-rng`-driven byte mutations of a valid cache file: whatever the
    // mutation does — file-level damage (bypass), entry-level damage
    // (checksum drop → recompute) or no semantic change (hit) — the
    // report must equal the cacheless oracle and nothing may panic.
    let dir = scratch("fuzz");
    let path = dir.join("cache.json");
    let m = gen_program(&mut Rng::seed_from_u64(26));
    let fresh = Dca::new(DcaConfig {
        threads: 2,
        ..DcaConfig::fast()
    })
    .analyze_module(&m)
    .expect("fresh");
    Dca::new(with_cache(&path, 2))
        .analyze_module(&m)
        .expect("populate");
    let pristine = std::fs::read(&path).expect("read cache file");
    assert!(!pristine.is_empty());
    let mut rng = Rng::seed_from_u64(27);
    for case in 0..40 {
        let mut bytes = pristine.clone();
        match rng.below(4) {
            // Truncate at a random point.
            0 => bytes.truncate(rng.range_usize(0, bytes.len())),
            // Flip bits in a few random bytes.
            1 => {
                for _ in 0..rng.range_usize(1, 6) {
                    let i = rng.range_usize(0, bytes.len());
                    bytes[i] ^= 1 << rng.range_usize(0, 8);
                }
            }
            // Overwrite a random span with random bytes.
            2 => {
                let start = rng.range_usize(0, bytes.len());
                let len = rng.range_usize(1, 24).min(bytes.len() - start);
                for b in &mut bytes[start..start + len] {
                    *b = rng.range_u64(0, 256) as u8;
                }
            }
            // Splice a chunk of the file into itself (shuffles entries
            // and separators around while staying mostly textual).
            _ => {
                let start = rng.range_usize(0, bytes.len());
                let len = rng.range_usize(1, 48).min(bytes.len() - start);
                let chunk: Vec<u8> = bytes[start..start + len].to_vec();
                let at = rng.range_usize(0, bytes.len());
                for (i, b) in chunk.into_iter().enumerate() {
                    bytes.insert(at + i, b);
                }
            }
        }
        std::fs::write(&path, &bytes).expect("write mutated file");
        let mutated = Dca::new(with_cache(&path, 2))
            .analyze_module(&m)
            .expect("analysis survives any mutation");
        assert_reports_equal_modulo_cache(&fresh, &mutated, &format!("fuzz case {case}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dca_cache_env_var_enables_the_cache() {
    // The env path is what CI's cache job uses. Setting env vars is
    // process-global, so this test talks to a subprocess-free seam
    // instead: config wins only when the env is unset, which it is for
    // the rest of this suite — here we set it around a single analyze.
    let dir = scratch("env");
    let path = dir.join("env-cache.json");
    let m = gen_program(&mut Rng::seed_from_u64(28));
    // Isolation: every other test in this file holds `DCA_CACHE_ENV`
    // for reading, so none analyzes while the variable is set; it is
    // removed again before the lock is released.
    let env = DCA_CACHE_ENV
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    std::env::set_var("DCA_CACHE", &path);
    let cold = Dca::new(DcaConfig::fast())
        .analyze_module(&m)
        .expect("cold");
    let warm = Dca::new(DcaConfig::fast())
        .analyze_module(&m)
        .expect("warm");
    std::env::remove_var("DCA_CACHE");
    drop(env);
    assert_eq!(cold.cached_count(), 0);
    assert!(warm.cached_count() > 0, "env-configured cache serves hits");
    assert_eq!(
        warm.cache.expect("stats").path,
        path,
        "stats report the env-resolved path"
    );
    std::fs::remove_dir_all(&dir).ok();
}
