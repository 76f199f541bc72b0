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
//! Gates compare each benchmark's *fastest* sample (see [`min_of`]).

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

    h.bench_function("deps/record_plain", |b| {
        b.iter(|| {
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
                None,
            )
            .expect("record");
            black_box(g.iters.len())
        })
    });
    h.bench_function("deps/record_profiled", |b| {
        b.iter(|| {
            let mut rec = Machine::new(&m);
            let mut probe = FootprintProbe::new();
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
                Some(&mut probe),
            )
            .expect("record");
            let p = probe.finish();
            assert_eq!(p.len(), g.iters.len(), "full profile expected");
            black_box(g.iters.len())
        })
    });

    let obs = Obs::disabled();
    for (name, precheck) in [("deps/exec_disarmed", false), ("deps/exec_armed", true)] {
        let ecfg = ExecConfig {
            threads: 2,
            deps_precheck: precheck,
            ..ExecConfig::from_dca(&cfg)
        };
        h.bench_function(name, |b| {
            b.iter(|| {
                let out = execute_loop(&m, &[], lref, &ecfg, &obs).expect("execute");
                assert!(out.validated, "fixture must validate");
                out.fingerprint
            })
        });
    }

    h.finish();

    // Gate 1: the plain recording path must pay nothing for the probe's
    // existence — it has no hooks at all, so it can only be slower than
    // the profiled path through a regression.
    let plain = min_of(&h, "deps/record_plain");
    let profiled = min_of(&h, "deps/record_profiled");
    assert!(
        plain.as_secs_f64() <= profiled.as_secs_f64() * 1.25,
        "plain recording ({plain:?}) slower than profiled ({profiled:?}) — \
         the disarmed path is no longer free"
    );
    // Gate 2: the armed probe must stay within its 1.3x budget on a
    // heap-access-heavy loop.
    assert!(
        profiled.as_secs_f64() <= plain.as_secs_f64() * 1.3,
        "profiled recording ({profiled:?}) exceeds 1.3x plain ({plain:?}) — \
         the footprint probe got expensive"
    );

    // Gates 3 and 4: same two claims end to end through `execute_loop`,
    // where the armed run also pays for the overlap sweep itself.
    let disarmed = min_of(&h, "deps/exec_disarmed");
    let armed = min_of(&h, "deps/exec_armed");
    assert!(
        disarmed.as_secs_f64() <= armed.as_secs_f64() * 1.25,
        "pre-check-disabled execution ({disarmed:?}) slower than enabled ({armed:?})"
    );
    assert!(
        armed.as_secs_f64() <= disarmed.as_secs_f64() * 1.3,
        "pre-checked execution ({armed:?}) exceeds 1.3x unchecked ({disarmed:?})"
    );

    println!(
        "deps overhead gates passed: record {plain:?} (plain) vs {profiled:?} (profiled), \
         execute {disarmed:?} (disarmed) vs {armed:?} (armed)"
    );
}
