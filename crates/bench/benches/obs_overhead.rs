//! Asserts that observability and the robustness layer are free when
//! disabled.
//!
//! Measurements: the raw cost of calling the [`dca_core::Obs`]
//! primitives on a disabled handle (must be branch-on-`Option` cheap,
//! with no clock reads); a whole `analyze` run with obs disabled vs
//! metrics enabled; and the same run with the wall-clock governor armed
//! (a generous deadline, so its cooperative checks run but never fire),
//! with a fault plan armed that targets a loop that does not exist
//! (the full targeting machinery runs, nothing is injected), with a
//! cancel token installed that never trips, and against a run paying
//! for real write-ahead journaling (proving the journal-disabled branch
//! is free). Every gate is evaluated and each failure printed, then the
//! process exits non-zero when any failed, so a
//! `cargo bench --bench obs_overhead` in CI guards the "disabled — or
//! armed-but-idle — adds no measurable overhead" claims.

use dca_bench::harness::Harness;
use dca_core::{CancelToken, Dca, DcaConfig, FaultPlan, Obs, ObsOptions, WallLimits};
use dca_interp::{Machine, NoHooks};
use std::hint::black_box;
use std::time::Duration;

/// Heap writes in the journal fixture's loop; the per-write gate divides
/// by this.
const JOURNAL_WRITES: usize = 4096;

fn fixture() -> dca_ir::Module {
    dca_ir::compile(
        "fn main() -> int { let a: [int; 48]; let s: int = 0; \
         @fill: for (let i: int = 0; i < 48; i = i + 1) { a[i] = i * 3 % 17; } \
         @sum: for (let i: int = 0; i < 48; i = i + 1) { s = s + a[i]; } \
         return s; }",
    )
    .expect("fixture compiles")
}

fn median_of(h: &Harness, name: &str) -> std::time::Duration {
    h.results()
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("bench {name} did not run"))
        .median
}

fn main() {
    let mut h = Harness::new().sample_size(10);

    // 1000 disabled-primitive calls per iteration: a count, a span
    // start/end pair, and a trace event. Each must reduce to an Option
    // branch.
    let disabled = Obs::disabled();
    h.bench_function("obs/disabled_calls_x1000", |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                disabled.count("bench.counter", black_box(i));
                let t = disabled.span_start();
                disabled.span_end("bench.span", t);
            }
        })
    });

    let m = fixture();
    let off = Dca::new(DcaConfig::fast());
    // One untimed analysis first: `obs/analyze_disabled` is the first
    // timed analysis of the process, and every gate below compares
    // against it, so it must not pay for cold caches and a cold heap.
    black_box(off.analyze_module(&m).expect("analyze"));
    h.bench_function("obs/analyze_disabled", |b| {
        b.iter(|| black_box(off.analyze_module(&m).expect("analyze")))
    });
    let on = Dca::new(DcaConfig {
        obs: ObsOptions::metrics(),
        ..DcaConfig::fast()
    });
    h.bench_function("obs/analyze_metrics", |b| {
        b.iter(|| black_box(on.analyze_module(&m).expect("analyze")))
    });

    // Governor armed with a deadline far beyond the run: every
    // cooperative check executes, none fires.
    let governed = Dca::new(DcaConfig {
        max_wall: WallLimits {
            replay: Some(Duration::from_secs(3600)),
            analysis: Some(Duration::from_secs(3600)),
        },
        ..DcaConfig::fast()
    });
    h.bench_function("robust/analyze_governed", |b| {
        b.iter(|| black_box(governed.analyze_module(&m).expect("analyze")))
    });

    // Fault plan armed at a loop ordinal that does not exist: positional
    // targeting is evaluated for every replay, nothing injects.
    let armed = Dca::new(DcaConfig {
        fault: Some(FaultPlan::parse("panic@replay:0,loop:99").expect("valid spec")),
        ..DcaConfig::fast()
    });
    h.bench_function("robust/analyze_fault_armed_idle", |b| {
        b.iter(|| black_box(armed.analyze_module(&m).expect("analyze")))
    });

    // Cancel token installed but never tripped: every cooperative check
    // in the interpreter granules and at stage boundaries executes (an
    // atomic load), none fires.
    let cancel_armed = Dca::new(DcaConfig {
        cancel: Some(CancelToken::new()),
        ..DcaConfig::fast()
    });
    h.bench_function("robust/analyze_cancel_armed_idle", |b| {
        b.iter(|| black_box(cancel_armed.analyze_module(&m).expect("analyze")))
    });

    // Run journal actually recording (the file is removed each iteration
    // so every run is a cold, fully-written one) — the comparison
    // baseline proving the journal-disabled path adds nothing.
    let jdir = std::env::temp_dir().join(format!("dca-bench-journal-{}", std::process::id()));
    std::fs::create_dir_all(&jdir).expect("mkdir");
    let jpath = jdir.join("bench.journal");
    let journaled = Dca::new(DcaConfig {
        journal: Some(jpath.clone()),
        ..DcaConfig::fast()
    });
    h.bench_function("robust/analyze_journaled_cold", |b| {
        b.iter(|| {
            std::fs::remove_file(&jpath).ok();
            black_box(journaled.analyze_module(&m).expect("analyze"))
        })
    });
    std::fs::remove_dir_all(&jdir).ok();

    // Write journal (DESIGN.md §13): a write-heavy replay with the
    // journal disarmed (the recording path, and any machine outside a
    // permuted replay) vs the same replay armed. The disarmed store hook
    // must reduce to a branch on `Option`.
    let jm = dca_ir::compile(&format!(
        "let g: [int; {JOURNAL_WRITES}];\n\
         fn main() {{\n\
           for (let i: int = 0; i < {JOURNAL_WRITES}; i = i + 1) {{ g[i] = g[i] + i; }}\n\
         }}"
    ))
    .expect("journal fixture compiles");
    let mut machine = Machine::new(&jm);
    machine
        .push_call(jm.main().expect("main"), &[])
        .expect("push");
    let snap = machine.snapshot();
    h.bench_function("journal/replay_disarmed", |b| {
        b.iter(|| {
            machine.run(&mut NoHooks, u64::MAX).expect("replay");
            machine.restore(&snap);
        })
    });
    machine.restore(&snap);
    h.bench_function("journal/replay_armed", |b| {
        b.iter(|| {
            machine.begin_journal();
            machine.run(&mut NoHooks, u64::MAX).expect("replay");
            machine.rollback();
        })
    });

    h.finish();

    // Every gate is evaluated, so one failing gate cannot hide another.
    let mut failures: Vec<String> = Vec::new();
    let mut check = |gate: u32, ok: bool, msg: String| {
        if !ok {
            failures.push(format!("gate {gate} failed: {msg}"));
        }
    };

    // Gate 1: a disabled primitive call must cost nanoseconds, not
    // microseconds. 1000 calls (3 primitives each) under 50 µs leaves a
    // ~15 ns/call budget — an order of magnitude above the real cost,
    // far below anything lock- or clock-bound.
    let calls = median_of(&h, "obs/disabled_calls_x1000");
    check(
        1,
        calls.as_micros() < 50,
        format!("disabled obs calls cost {calls:?} per 1000 — no longer branch-cheap"),
    );

    // Gate 2: an analysis with obs disabled must not be slower than the
    // same analysis paying for metrics (1.25x headroom for scheduler
    // noise on shared runners).
    let off_t = median_of(&h, "obs/analyze_disabled");
    let on_t = median_of(&h, "obs/analyze_metrics");
    check(
        2,
        off_t.as_secs_f64() <= on_t.as_secs_f64() * 1.25,
        format!("obs-disabled analyze ({off_t:?}) slower than metrics-enabled ({on_t:?})"),
    );
    // Gate 3: cooperative deadline checks (one clock read per ~1 Ki
    // steps plus a per-replay governor branch) must stay in the noise of
    // a full analysis.
    let governed_t = median_of(&h, "robust/analyze_governed");
    check(
        3,
        governed_t.as_secs_f64() <= off_t.as_secs_f64() * 1.25,
        format!("governed analyze ({governed_t:?}) measurably slower than ungoverned ({off_t:?})"),
    );

    // Gate 4: an armed-but-idle fault plan (positional targeting checked
    // per replay, never matching) must cost nothing measurable.
    let armed_t = median_of(&h, "robust/analyze_fault_armed_idle");
    check(
        4,
        armed_t.as_secs_f64() <= off_t.as_secs_f64() * 1.25,
        format!("fault-armed analyze ({armed_t:?}) measurably slower than fault-free ({off_t:?})"),
    );

    // Gate 5: a disarmed cancellation check — one relaxed atomic load
    // per interpreter granule and stage boundary — must stay in the
    // noise of a full analysis.
    let cancel_t = median_of(&h, "robust/analyze_cancel_armed_idle");
    check(
        5,
        cancel_t.as_secs_f64() <= off_t.as_secs_f64() * 1.25,
        format!("cancel-armed analyze ({cancel_t:?}) measurably slower than tokenless ({off_t:?})"),
    );

    // Gate 6: with no journal configured the per-loop consultation is a
    // branch on `None` — a run without one must not be slower than a run
    // paying for real write-ahead journaling.
    let journaled_t = median_of(&h, "robust/analyze_journaled_cold");
    check(
        6,
        off_t.as_secs_f64() <= journaled_t.as_secs_f64() * 1.25,
        format!(
            "journal-disabled analyze ({off_t:?}) slower than a journaling one ({journaled_t:?})"
        ),
    );

    // Gate 7: the disarmed journal's store hook must be free. The
    // disarmed replay rewinds by full restore and the armed one by
    // rollback, so at this write footprint (every heap cell dirtied)
    // their rewind work is comparable and the ratio isolates the
    // per-store branch; 1.25x headroom as above, plus a generous
    // absolute per-write ceiling far above a plain interpreter store.
    let disarmed = median_of(&h, "journal/replay_disarmed");
    let journal_armed = median_of(&h, "journal/replay_armed");
    check(
        7,
        disarmed.as_secs_f64() <= journal_armed.as_secs_f64() * 1.25,
        format!(
            "disarmed-journal replay ({disarmed:?}) measurably slower than an armed one \
             ({journal_armed:?}) — the disarmed store hook is no longer branch-cheap"
        ),
    );
    let per_write = disarmed.as_secs_f64() / JOURNAL_WRITES as f64;
    check(
        7,
        per_write < 1e-6,
        format!(
            "disarmed replay costs {:.0} ns per heap write — store hook overhead",
            per_write * 1e9
        ),
    );

    for f in &failures {
        eprintln!("{f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!(
        "obs overhead gates passed: disabled calls {calls:?}/1000, analyze {off_t:?} (off) vs \
         {on_t:?} (metrics), {governed_t:?} (governed), {armed_t:?} (fault armed, idle), \
         {cancel_t:?} (cancel armed, idle), {journaled_t:?} (run journal cold), \
         replay {disarmed:?} (journal disarmed) vs {journal_armed:?} (armed)"
    );
}
