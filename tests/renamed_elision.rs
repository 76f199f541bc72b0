//! Program-end suffix elision up to a renaming of heap objects.
//!
//! A replay that leaves the loop in the golden exit state except for
//! which objects the loop allocated where may still skip the rest of the
//! program: the suffix can compare pointers only for equality and cannot
//! print them, so on renamed objects it runs step for step as the golden
//! suffix did. These cases pin where the renaming check admits a replay
//! and where it must refuse one. `tests/suffix_elision.rs` checks every
//! elided result against full-suffix replays.

use dca::analysis::{EffectMap, IteratorSlice, Liveness};
use dca::core::{
    digest_roots, record_golden, run_replay, Dca, DcaConfig, GoldenRecord, LoopVerdict, ObsOptions,
    ReplayController, ReplayEnd, ReplayGovernor,
};
use dca::interp::{Limits, Machine};
use dca::ir::{FuncView, VarId};

/// Records `@l` of `src` to the program end, replays it reversed to the
/// loop exit on a machine with `limits`, and hands `check` the golden
/// record, the replay machine and the exit's live roots.
fn reverse_to_exit(
    src: &str,
    limits: impl Fn(&GoldenRecord) -> Limits,
    check: impl FnOnce(&GoldenRecord, &Machine<'_>, &[VarId]),
) {
    let m = dca::ir::compile(src).expect("compile");
    let (lref, _) = dca::ir::all_loops(&m)
        .into_iter()
        .find(|(_, t)| t.as_deref() == Some("l"))
        .expect("loop @l");
    let view = FuncView::new(&m, lref.func);
    let l = view.loops.get(lref.loop_id);
    let slice = IteratorSlice::compute_with(&view, l, &EffectMap::new(&m));
    let roots = digest_roots(&view, &Liveness::new(&view), l);
    let cfg = DcaConfig::fast();
    let mut machine = Machine::new(&m);
    let golden = record_golden(
        &mut machine,
        m.main().expect("main"),
        &[],
        lref.func,
        l,
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
    let mut machine = Machine::with_limits(&m, limits(&golden));
    machine.restore(&golden.snapshot);
    machine.begin_journal();
    let perm: Vec<usize> = (0..golden.iters.len()).rev().collect();
    let mut ctl = ReplayController::new(lref.func, view.func, l, &slice, &golden, &perm);
    let end = run_replay(
        &mut machine,
        &mut ctl,
        true,
        cfg.max_steps,
        ReplayGovernor::default(),
    );
    assert_eq!(end, ReplayEnd::LoopExited);
    check(&golden, &machine, &roots.vars);
}

/// The run's verdict for `@l` and its elided-suffix count.
fn analyze(src: &str) -> (LoopVerdict, u64) {
    let m = dca::ir::compile(src).expect("compile");
    let cfg = DcaConfig {
        obs: ObsOptions::metrics(),
        ..DcaConfig::fast()
    };
    let report = Dca::new(cfg).analyze_module(&m).expect("analyze");
    let r = report.by_tag("l").expect("loop @l");
    let elided = report
        .obs
        .as_ref()
        .expect("metrics on")
        .counter("verify.suffix_elided");
    (r.verdict.clone(), elided)
}

/// One node kept out of six allocated alike: reversed, the kept node is
/// another object with the same contents.
const KEPT_NODE: &str = "struct N { v: int, next: *N }\n\
     fn build() -> *N { let keep: *N = null; \
       @l: for (let i: int = 0; i < 6; i = i + 1) { \
         let n: *N = new N; n.v = 7; if (i == 2) { keep = n; } } \
       return keep; }\n";

#[test]
fn a_renamed_reachable_object_elides() {
    let src =
        format!("{KEPT_NODE}fn main() -> int {{ let k: *N = build(); print(k.v); return k.v; }}");
    reverse_to_exit(
        &src,
        |_| Limits::default(),
        |golden, machine, roots| {
            assert!(
                !golden.exit_matches(machine, roots),
                "the kept pointer differs"
            );
            assert!(golden.exit_matches_renamed(machine, roots));
        },
    );
    let (verdict, elided) = analyze(&src);
    assert_eq!(verdict, LoopVerdict::Commutative);
    assert!(elided > 0);
}

#[test]
fn garbage_that_differs_elides() {
    // Each iteration's scratch array holds its own index: reversed, the
    // scratch objects hold other values, but nothing reaches them.
    let src = "let a: [int; 8];\n\
         fn main() -> int { \
           @l: for (let i: int = 0; i < 6; i = i + 1) { \
             let t: *int = new [int; 2]; t[0] = i; a[i] = i * 2; } \
           print(a[3]); return a[5]; }";
    reverse_to_exit(
        src,
        |_| Limits::default(),
        |golden, machine, roots| {
            assert!(!golden.exit_matches(machine, roots), "the garbage differs");
            assert!(golden.exit_matches_renamed(machine, roots));
        },
    );
    let (verdict, elided) = analyze(src);
    assert_eq!(verdict, LoopVerdict::Commutative);
    assert!(elided > 0);
}

#[test]
fn a_pointer_returning_main_does_not_elide() {
    let src =
        format!("{KEPT_NODE}fn main() -> *N {{ let k: *N = build(); print(k.v); return k; }}");
    reverse_to_exit(
        &src,
        |_| Limits::default(),
        |golden, machine, roots| {
            assert!(!golden.exit_matches_renamed(machine, roots));
        },
    );
    let (_, elided) = analyze(&src);
    assert_eq!(elided, 0);
}

#[test]
fn a_heap_limit_the_suffix_would_pass_does_not_elide() {
    // The scratch array's size is carried from the previous iteration:
    // reversed, the loop allocates 50 cells more, and the suffix's 100
    // cells would pass a limit the golden run meets exactly.
    let src = "let a: [int; 8];\n\
         fn main() -> int { let k: int = 0; \
           @l: for (let i: int = 0; i < 6; i = i + 1) { \
             let t: *int = new [int; k + 1]; k = i * 10; a[i] = i; } \
           let b: *int = new [int; 100]; b[0] = a[5]; print(b[0]); return a[3]; }";
    reverse_to_exit(
        src,
        |_| Limits::default(),
        |golden, machine, roots| {
            assert!(golden.exit_matches_renamed(machine, roots), "unlimited");
        },
    );
    let exact = |g: &GoldenRecord| Limits {
        max_heap_cells: g.end_heap_cells,
        ..Limits::default()
    };
    reverse_to_exit(src, exact, |golden, machine, roots| {
        assert!(machine.heap_cells() > golden.exit.heap_cells);
        assert!(!golden.exit_matches_renamed(machine, roots));
    });
}

#[test]
fn a_caller_frame_pointer_into_the_renamed_structure_does_not_elide() {
    // `head` ends on `b` in the golden run and on `a` reversed. The two
    // nodes are alike, but `main` holds both: swapping them is no
    // renaming of the state it can reach.
    let src = "struct N { v: int }\n\
         let head: *N;\n\
         fn pick(a: *N, b: *N) { \
           @l: for (let i: int = 0; i < 4; i = i + 1) { \
             if (i % 2 == 0) { head = a; } else { head = b; } } }\n\
         fn main() -> int { let a: *N = new N; let b: *N = new N; a.v = 3; b.v = 3; \
           pick(a, b); print(head.v); return head.v + a.v; }";
    reverse_to_exit(
        src,
        |_| Limits::default(),
        |golden, machine, roots| {
            assert!(!golden.exit_matches(machine, roots));
            assert!(!golden.exit_matches_renamed(machine, roots));
        },
    );
}
