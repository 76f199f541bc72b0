//! Asserts the footprint dependence subsystem (DESIGN.md §18) is free
//! when disarmed and cheap when armed.
//!
//! Measurements: golden recording of a read/write-heavy loop through
//! [`dca_core::record_golden`] without a probe (what the executor does
//! when neither the pre-check nor [`Schedule::Auto`] wants a profile) vs
//! with a [`FootprintProbe`], which pays for the per-access footprint
//! bookkeeping; and a whole [`execute_loop`] run with
//! the pre-check disabled vs enabled. Two claims are gated, so a
//! `cargo bench --bench deps_overhead` in CI guards them:
//!
//! * **Disarmed = zero cost** — the unprofiled paths must not be slower
//!   than the profiled ones (1.25x headroom for scheduler noise).
//! * **Armed ≤ 1.3x** — the probe (a per-cell fold per heap access
//!   plus, per iteration, a sort of the cells it touched) must keep
//!   profiled recording within 1.3x of plain recording, and the
//!   end-to-end pre-checked execution within 1.3x of an unchecked one.
//!
//! Gates compare each benchmark's *fastest* sample (see [`min_of`]), and
//! the two arms of each gate are measured interleaved. Every gate is
//! evaluated and each failure printed, then the process exits non-zero
//! when any failed.

use dca_analysis::{EffectMap, IteratorSlice};
use dca_bench::harness::Harness;
use dca_core::{record_golden, DcaConfig, Obs};
use dca_deps::FootprintProbe;
use dca_interp::Machine;
use dca_ir::FuncView;
use dca_parallel::{execute_loop, ExecConfig};
use std::hint::black_box;

/// A doall whose payload both reads and writes the heap every iteration,
/// with the modular arithmetic a real kernel does between accesses —
/// representative of the suite's loops (the probe's per-access cost is
/// fixed, so an artificial all-memory loop would only measure how little
/// other work the loop does).
fn fixture() -> (dca_ir::Module, dca_ir::LoopRef) {
    let m = dca_ir::compile(
        "fn main() -> int { let a: [int; 1024]; let b: [int; 16]; let s: int = 0; \
         for (let i: int = 0; i < 16; i = i + 1) { b[i] = i * 7 + 1; } \
         @hot: for (let i: int = 0; i < 1024; i = i + 1) { \
           let x: int = a[i]; let y: int = b[i % 16]; \
           let t: int = (x * 3 + y) % 1021; \
           let u: int = (t * t + i * 5 + 3) % 4093; \
           a[i] = u + (y - t) * 2; } \
         for (let i: int = 0; i < 1024; i = i + 1) { s = s + a[i]; } \
         return s; }",
    )
    .expect("fixture compiles");
    let lref = dca_ir::all_loops(&m)
        .into_iter()
        .find(|(_, t)| t.as_deref() == Some("hot"))
        .expect("tagged loop")
        .0;
    (m, lref)
}

/// Fastest sample — what the gates compare. Minima approximate the
/// uncontended speed of each path; medians wobble with scheduler noise
/// far more than the margins under test.
fn min_of(h: &Harness, name: &str) -> std::time::Duration {
    h.results()
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("bench {name} did not run"))
        .min
}

fn main() {
    let mut h = Harness::new().sample_size(10);
    let (m, lref) = fixture();
    let cfg = DcaConfig::fast();
    let main_fn = m.main().expect("main");
    let view = FuncView::new(&m, lref.func);
    let l = view.loops.get(lref.loop_id).clone();
    let effects = EffectMap::new(&m);
    let slice = IteratorSlice::compute_with(&view, &l, &effects);

    // Each pair of arms a gate compares is measured side by side: every
    // arm is warmed by one untimed run, then their samples alternate, so
    // no arm pays alone for a cold process or a slow stretch of the host
    // (see `Harness::bench_interleaved`).
    let record = |probe: Option<&mut FootprintProbe>| {
        let mut rec = Machine::new(&m);
        let g = record_golden(
            &mut rec,
            main_fn,
            &[],
            lref.func,
            &l,
            &slice,
            0,
            0,
            cfg.max_trip,
            cfg.max_steps,
            None,
            None,
            false,
            probe,
        )
        .expect("record");
        black_box(g.iters.len())
    };
    h.bench_interleaved(&mut [
        ("deps/record_plain", &mut || {
            record(None);
        }),
        ("deps/record_profiled", &mut || {
            let mut probe = FootprintProbe::new();
            let n = record(Some(&mut probe));
            assert_eq!(probe.finish().len(), n, "full profile expected");
        }),
    ]);

    let obs = Obs::disabled();
    let ecfg = |precheck: bool| ExecConfig {
        threads: 2,
        deps_precheck: precheck,
        ..ExecConfig::from_dca(&cfg)
    };
    let (disarmed_cfg, armed_cfg) = (ecfg(false), ecfg(true));
    let execute = |ecfg: &ExecConfig| {
        let out = execute_loop(&m, &[], lref, ecfg, &obs).expect("execute");
        assert!(out.validated, "fixture must validate");
        black_box(out.fingerprint);
    };
    h.bench_interleaved(&mut [
        ("deps/exec_disarmed", &mut || execute(&disarmed_cfg)),
        ("deps/exec_armed", &mut || execute(&armed_cfg)),
    ]);

    h.finish();

    // Every gate is evaluated, so one failing gate cannot hide another.
    let mut failures: Vec<String> = Vec::new();
    let mut check = |gate: u32, ok: bool, msg: String| {
        if !ok {
            failures.push(format!("gate {gate} failed: {msg}"));
        }
    };

    // Gate 1: the plain recording path must pay nothing for the probe's
    // existence — it has no hooks at all, so it can only be slower than
    // the profiled path through a regression.
    let plain = min_of(&h, "deps/record_plain");
    let profiled = min_of(&h, "deps/record_profiled");
    check(
        1,
        plain.as_secs_f64() <= profiled.as_secs_f64() * 1.25,
        format!(
            "plain recording ({plain:?}) slower than profiled ({profiled:?}) — \
             the disarmed path is no longer free"
        ),
    );
    // Gate 2: the armed probe must stay within its 1.3x budget on a
    // heap-access-heavy loop.
    check(
        2,
        profiled.as_secs_f64() <= plain.as_secs_f64() * 1.3,
        format!(
            "profiled recording ({profiled:?}) exceeds 1.3x plain ({plain:?}) — \
             the footprint probe got expensive"
        ),
    );

    // Gates 3 and 4: same two claims end to end through `execute_loop`,
    // where the armed run also pays for the overlap sweep itself.
    let disarmed = min_of(&h, "deps/exec_disarmed");
    let armed = min_of(&h, "deps/exec_armed");
    check(
        3,
        disarmed.as_secs_f64() <= armed.as_secs_f64() * 1.25,
        format!("pre-check-disabled execution ({disarmed:?}) slower than enabled ({armed:?})"),
    );
    check(
        4,
        armed.as_secs_f64() <= disarmed.as_secs_f64() * 1.3,
        format!("pre-checked execution ({armed:?}) exceeds 1.3x unchecked ({disarmed:?})"),
    );

    for f in &failures {
        eprintln!("{f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!(
        "deps overhead gates passed: record {plain:?} (plain) vs {profiled:?} (profiled), \
         execute {disarmed:?} (disarmed) vs {armed:?} (armed)"
    );
}
