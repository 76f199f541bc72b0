//! Program-end suffix elision against a full-suffix oracle.
//!
//! Under the default program-end scope the engine stops each permuted
//! replay at the loop exit and, when the replay's state there is the
//! golden run's bit for bit, counts the golden suffix's steps instead of
//! interpreting them. These tests recompute every tested loop the slow
//! way, with full-suffix replays through the public API
//! (`record_golden`, then `run_replay(.., false, ..)`), and
//! require the engine's verdict, permutation count and replay steps to
//! match exactly. They also pin the states that must not elide (and one
//! that must), and check where an identity replay to the loop exit lands
//! against the golden run's own exit state, the reference the parallel
//! executor and the loop-exit scope compare against.

use dca::analysis::{EffectMap, IteratorSlice, Liveness};
use dca::core::perm::{derive_seed, schedules};
use dca::core::{
    digest_roots, hash_live_state, read_roots, record_golden, run_replay, Dca, DcaConfig,
    DigestScratch, FaultKind, FaultPlan, GoldenRecord, LoopVerdict, ObsOptions, RecordError,
    ReplayController, ReplayEnd, ReplayGovernor, Violation,
};
use dca::interp::{Machine, Trap, Value};
use dca::ir::{FuncView, LoopRef, Module, VarId};
use dca_rng::Rng;
use support::ARCHETYPES;

mod support;

fn config() -> DcaConfig {
    DcaConfig {
        obs: ObsOptions::metrics(),
        ..DcaConfig::fast()
    }
}

/// One loop's dynamic-stage result: verdict, permutations tested and
/// replay steps — the fields suffix elision must leave untouched.
type Outcome = (LoopVerdict, usize, u64);

/// Recomputes loop `lref`'s dynamic stage with every replay run to the
/// end of the program, mirroring the engine's sequential semantics.
fn full_suffix(m: &Module, args: &[Value], lref: LoopRef, cfg: &DcaConfig) -> Outcome {
    let main = m.main().expect("main");
    let view = FuncView::new(m, lref.func);
    let l = view.loops.get(lref.loop_id);
    let slice = IteratorSlice::compute_with(&view, l, &EffectMap::new(m));
    let (mut perms_total, mut steps_total) = (0, 0);
    for invocation in 0..cfg.invocations {
        let mut machine = Machine::new(m);
        let golden = match record_golden(
            &mut machine,
            main,
            args,
            lref.func,
            l,
            &slice,
            invocation,
            2,
            cfg.max_trip,
            cfg.max_steps,
            None,
            None,
            false,
            None,
        ) {
            Ok(g) => g,
            Err(RecordError::NotExercised) => break,
            Err(e) => panic!("{lref}: golden run failed: {e:?}"),
        };
        let trip = golden.iters.len();
        if trip < 2 {
            continue;
        }
        let seed = derive_seed(cfg.seed, lref.func.0, lref.loop_id.0, invocation);
        let perms = schedules(&cfg.permutations, trip, seed);
        for (slot, perm) in perms.iter().enumerate() {
            machine.restore(&golden.snapshot);
            let before = machine.steps();
            let mut ctl = ReplayController::new(lref.func, view.func, l, &slice, &golden, perm);
            let end = run_replay(
                &mut machine,
                &mut ctl,
                false,
                cfg.max_steps,
                ReplayGovernor::default(),
            );
            steps_total += machine.steps() - before;
            let tol = cfg.float_tolerance;
            let violation = match end {
                ReplayEnd::Finished(ret) => {
                    (!golden.outcome.matches_parts(machine.output(), &ret, tol)).then(|| {
                        Violation::OutcomeMismatch(golden.outcome.first_divergence(
                            machine.output(),
                            &ret,
                            tol,
                        ))
                    })
                }
                ReplayEnd::Trapped(t) => Some(Violation::ReplayTrapped(t)),
                other => panic!("{lref}: unexpected replay end {other:?}"),
            };
            if let Some(v) = violation {
                return (
                    LoopVerdict::NonCommutative(v),
                    perms_total + slot,
                    steps_total,
                );
            }
        }
        perms_total += perms.len();
    }
    (LoopVerdict::Commutative, perms_total, steps_total)
}

/// Analyzes `m`, checks every tested loop against [`full_suffix`], and
/// returns the run's `verify.suffix_elided` count.
fn check_against_oracle(name: &str, m: &Module, args: &[Value], cfg: &DcaConfig) -> u64 {
    let report = Dca::new(cfg.clone()).analyze(m, args).expect("analyze");
    for r in report.iter() {
        if matches!(
            r.verdict,
            LoopVerdict::Commutative | LoopVerdict::NonCommutative(_)
        ) {
            let engine = (r.verdict.clone(), r.permutations_tested, r.replay_steps);
            assert_eq!(
                engine,
                full_suffix(m, args, r.lref, cfg),
                "{name} {}",
                r.lref
            );
        }
    }
    report
        .obs
        .expect("metrics enabled")
        .counter("verify.suffix_elided")
}

#[test]
fn elided_results_equal_full_suffix_replays_on_the_suite() {
    let cfg = config();
    let mut elided = 0;
    for p in dca::suite::all_programs() {
        elided += check_against_oracle(p.name, &p.module(), &p.targs(), &cfg);
    }
    assert!(elided > 0, "the suite elided no suffix");
}

#[test]
fn elided_results_equal_full_suffix_replays_on_generated_loops() {
    let cfg = config();
    let mut rng = Rng::seed_from_u64(0x5FF1);
    let mut elided = 0;
    for case in 0..24 {
        let arch = *rng.choose(&ARCHETYPES).expect("non-empty");
        let n = rng.range_usize(4, 48);
        let k = rng.range_i64(1, 12);
        let m = dca::ir::compile(&arch.source(n, k)).expect("generated programs compile");
        let name = format!("case {case}: {arch:?} n={n} k={k}");
        elided += check_against_oracle(&name, &m, &[], &cfg);
    }
    assert!(elided > 0, "no generated loop elided its suffix");
}

/// What [`identity_exit_misses`] found: loops checked, and the
/// `"{name} {tag}"` of each loop whose identity replay missed the golden
/// exit state bit for bit, and of each whose live-root fingerprint missed.
#[derive(Default)]
struct ExitMisses {
    checked: usize,
    state: Vec<String>,
    live_roots: Vec<String>,
}

/// Records each loop of `m` the way the parallel executor does (first
/// invocation, stopping at its exit), replays it in identity order to the
/// loop exit, and checks that the replay restores the iterator's exit
/// values. Compares the replay with the recording machine at the exit
/// twice: the golden exit state bit for bit (which only a recording of
/// the whole program keeps), and the live-root fingerprint the executor
/// validates with. Loops whose recording fails are skipped, as the
/// executor refuses them too.
fn identity_exit_misses(name: &str, m: &Module, args: &[Value], out: &mut ExitMisses) {
    let cfg = DcaConfig::fast();
    let main = m.main().expect("main");
    let mut scratch = DigestScratch::new();
    let mut vals = Vec::new();
    let mut fingerprint = |machine: &Machine<'_>, roots: &[VarId]| {
        read_roots(machine, roots, &mut vals);
        hash_live_state(machine, &vals, &mut scratch).0
    };
    for (lref, tag) in dca::ir::all_loops(m) {
        let view = FuncView::new(m, lref.func);
        let l = view.loops.get(lref.loop_id);
        let slice = IteratorSlice::compute_with(&view, l, &EffectMap::new(m));
        let roots = digest_roots(&view, &Liveness::new(&view), l);
        let mut machine = Machine::new(m);
        let Ok(golden) = record_golden(
            &mut machine,
            main,
            args,
            lref.func,
            l,
            &slice,
            0,
            0,
            cfg.max_trip,
            cfg.max_steps,
            None,
            None,
            true,
            None,
        ) else {
            continue;
        };
        let golden_fp = fingerprint(&machine, &roots.vars);
        let identity: Vec<usize> = (0..golden.iters.len()).collect();
        machine.restore(&golden.snapshot);
        machine.begin_journal();
        let mut ctl = ReplayController::new(lref.func, view.func, l, &slice, &golden, &identity);
        let end = run_replay(
            &mut machine,
            &mut ctl,
            true,
            cfg.max_steps,
            ReplayGovernor::default(),
        );
        assert_eq!(end, ReplayEnd::LoopExited, "{name} {lref}");
        // The exit phase restores every recorded iterator variable, live
        // or dead, to its golden exit value.
        let raw_eq = |a: Value, b: Value| match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        };
        for &v in &golden.rec_vars {
            assert!(
                raw_eq(machine.read_var(v), golden.exit.vars[v.index()]),
                "{name} {lref}: iterator variable {} missed its exit value",
                view.func.var(v).name
            );
        }
        out.checked += 1;
        let loop_name = format!("{name} {}", tag.unwrap_or_else(|| lref.to_string()));
        if fingerprint(&machine, &roots.vars) != golden_fp {
            out.live_roots.push(loop_name.clone());
        }
        let whole = record_golden(
            &mut Machine::new(m),
            main,
            args,
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
        .expect("the rest of the program runs");
        if !whole.exit_matches(&machine, &roots.vars) {
            out.state.push(loop_name);
        }
    }
}

/// The loops whose identity replay does not reproduce the golden exit
/// state, with why. Each is a worklist whose pushes run in payload code
/// the iterator pre-pass skips, so the replay follows the recorded
/// iterator values instead of rebuilding the worklist.
const IDENTITY_EXIT_MISSES: [(&str, &str); 3] = [
    (
        "perimeter perimeter",
        "the payload's pushes allocate worklist cells the replay never \
         creates: heap length differs, live roots and golden cells agree",
    ),
    (
        "treeadd tree_add",
        "the payload's pushes allocate worklist cells the replay never \
         creates: heap length differs, live roots and golden cells agree",
    ),
    (
        "bfs bfs_levels",
        "the level loop's condition reads the frontier that the payload \
         refills, so the pre-pass ends after one level: `dist` differs and \
         both verification scopes refute the loop",
    ),
];

#[test]
fn identity_replays_reach_the_golden_exit_state() {
    let mut out = ExitMisses::default();
    for p in dca::suite::all_programs() {
        identity_exit_misses(p.name, &p.module(), &p.targs(), &mut out);
    }
    for arch in ARCHETYPES {
        for (n, k) in [(4, 1), (17, 5), (48, 11)] {
            let m = dca::ir::compile(&arch.source(n, k)).expect("generated programs compile");
            identity_exit_misses(&format!("{arch:?} n={n} k={k}"), &m, &[], &mut out);
        }
    }
    assert!(out.checked > 100, "only {} loops checked", out.checked);
    let expected: Vec<&str> = IDENTITY_EXIT_MISSES.iter().map(|&(l, _)| l).collect();
    assert_eq!(out.state, expected);
    // Missing the exact exit state is not missing the live-out state:
    // the worklist loops leave extra, unreachable heap objects behind in
    // the golden run, and their live roots agree. Only `bfs_levels`
    // reaches a different live-out state, which is why validating
    // against the golden run refutes it where an identity replay did not.
    assert_eq!(out.live_roots, ["bfs bfs_levels"]);
}

/// Records `main`'s loop `@l` and replays it in reverse to the loop exit,
/// the way the engine does before deciding to elide. Hands `check` the
/// golden record, the replay machine, the exit's live roots and the
/// loop's function.
fn reverse_to_exit(
    src: &str,
    check: impl FnOnce(&GoldenRecord, &Machine<'_>, &[VarId], &FuncView<'_>),
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
    let main = m.main().expect("main");
    let golden = record_golden(
        &mut machine,
        main,
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
    let perm: Vec<usize> = (0..golden.iters.len()).rev().collect();
    machine.restore(&golden.snapshot);
    machine.begin_journal();
    let mut ctl = ReplayController::new(lref.func, view.func, l, &slice, &golden, &perm);
    assert_eq!(
        run_replay(
            &mut machine,
            &mut ctl,
            true,
            cfg.max_steps,
            ReplayGovernor::default()
        ),
        ReplayEnd::LoopExited
    );
    check(&golden, &machine, &roots.vars, &view);
}

/// Analyzes a program whose only loop is `@l`; returns its verdict and
/// the run's elided-suffix count, after checking it against the oracle.
fn analyze_single_loop(src: &str) -> (LoopVerdict, u64) {
    let m = dca::ir::compile(src).expect("compile");
    let cfg = config();
    let elided = check_against_oracle("pinned", &m, &[], &cfg);
    let report = Dca::new(cfg).analyze_module(&m).expect("analyze");
    assert_eq!(report.iter().count(), 1, "one loop only");
    let r = report.by_tag("l").expect("loop @l");
    (r.verdict.clone(), elided)
}

#[test]
fn caller_array_written_through_a_dead_pointer_does_not_elide() {
    // `a` is dead in `fill` after the loop, so no root reaches the
    // array; the last writer of each cell still differs under reversal.
    let src = "fn fill(a: *int, n: int) { \
                 @l: for (let i: int = 0; i < n; i = i + 1) { a[i % 2] = i; } }\n\
               fn main() -> int { let a: *int = new [int; 2]; fill(a, 6); \
                 print(a[0], a[1]); return a[0] * 10 + a[1]; }";
    reverse_to_exit(src, |golden, machine, roots, view| {
        let a = (0..view.func.vars.len())
            .map(|i| VarId(i as u32))
            .find(|&v| view.func.var(v).name == "a")
            .expect("param a");
        assert!(!roots.contains(&a), "the pointer is dead at the exit");
        assert!(!golden.exit_matches(machine, roots));
    });
    let (verdict, elided) = analyze_single_loop(src);
    assert!(
        matches!(verdict, LoopVerdict::NonCommutative(_)),
        "{verdict}"
    );
    assert_eq!(elided, 0);
}

#[test]
fn cell_only_the_replay_writes_does_not_elide() {
    // Whichever iteration runs first writes `a[i + 1]`. The golden run's
    // write to `a[1]` is silent (the prelude stored the same value), so
    // every cell it wrote agrees; only the reversed replay's write to
    // `a[8]` differs from the loop-entry state.
    let src = "let a: [int; 10];\n\
               fn main() -> int { a[1] = 5; \
                 @l: for (let i: int = 0; i < 8; i = i + 1) { \
                   if (a[0] == 0) { a[i + 1] = 5; } a[0] = a[0] + 1; } \
                 print(a[8]); return a[8]; }";
    reverse_to_exit(src, |golden, machine, roots, _| {
        assert!(golden
            .exit
            .cells
            .iter()
            .all(|&(c, v)| machine.read_cell(c) == v));
        assert!(!golden.exit_matches(machine, roots));
    });
    let (verdict, elided) = analyze_single_loop(src);
    assert!(
        matches!(verdict, LoopVerdict::NonCommutative(_)),
        "{verdict}"
    );
    assert_eq!(elided, 0);
}

#[test]
fn negative_zero_does_not_elide() {
    // Reversed, `a[0]` ends on 0.0 * -4.0 = -0.0 instead of +0.0:
    // canonically equal, but `1.0 / a[0]` prints -inf instead of inf.
    let src = "let a: [float; 2];\n\
               fn main() -> int { \
                 @l: for (let i: int = 0; i < 8; i = i + 1) { \
                   a[i % 2] = 0.0 * (i - 4) as float; } \
                 print(1.0 / a[0]); return 0; }";
    reverse_to_exit(src, |golden, machine, roots, _| {
        assert!(!golden.exit_matches(machine, roots));
    });
    let (verdict, elided) = analyze_single_loop(src);
    assert!(
        matches!(verdict, LoopVerdict::NonCommutative(_)),
        "{verdict}"
    );
    assert_eq!(elided, 0);
}

#[test]
fn dead_loop_temporary_that_differs_still_elides() {
    // `t` ends on a different iteration's value under reversal, but
    // nothing reads it after the loop.
    let src = "let a: [int; 8];\n\
               fn main() -> int { \
                 @l: for (let i: int = 0; i < 8; i = i + 1) { \
                   let t: int = i * 3; a[i] = t + 1; } \
                 print(a[3] + a[5]); return a[7]; }";
    reverse_to_exit(src, |golden, machine, roots, view| {
        let t = (0..view.func.vars.len())
            .map(|i| VarId(i as u32))
            .find(|&v| view.func.var(v).name == "t")
            .expect("local t");
        assert_ne!(
            machine.read_var(t),
            golden.exit.vars[t.index()],
            "the temporary differs"
        );
        assert!(golden.exit_matches(machine, roots));
    });
    let (verdict, elided) = analyze_single_loop(src);
    assert_eq!(verdict, LoopVerdict::Commutative);
    assert!(elided > 0);
}

#[test]
fn injected_faults_still_run_the_suffix() {
    // A commutative loop whose suffix allocates: a fault aimed past the
    // loop exit must still fire, so a faulted replay never elides.
    let src = "let a: [int; 8];\n\
               fn main() -> int { \
                 @l: for (let i: int = 0; i < 8; i = i + 1) { a[i] = i * i; } \
                 let b: *int = new [int; 4]; b[0] = a[3]; \
                 print(b[0] + a[5]); return a[7]; }";
    let m = dca::ir::compile(src).expect("compile");
    let lref = dca::ir::all_loops(&m)[0].0;
    // Slot 0's replay steps to the loop exit.
    let cfg = config();
    let view = FuncView::new(&m, lref.func);
    let l = view.loops.get(lref.loop_id);
    let slice = IteratorSlice::compute_with(&view, l, &EffectMap::new(&m));
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
    let perms = schedules(
        &cfg.permutations,
        golden.iters.len(),
        derive_seed(cfg.seed, lref.func.0, lref.loop_id.0, 0),
    );
    machine.restore(&golden.snapshot);
    let before = machine.steps();
    let mut ctl = ReplayController::new(lref.func, view.func, l, &slice, &golden, &perms[0]);
    assert_eq!(
        run_replay(
            &mut machine,
            &mut ctl,
            true,
            cfg.max_steps,
            ReplayGovernor::default()
        ),
        ReplayEnd::LoopExited
    );
    let to_exit = machine.steps() - before;
    for (kind, trap) in [
        (FaultKind::Trap { at_step: to_exit }, Trap::Injected),
        (FaultKind::AllocFail { allocs: 0 }, Trap::OutOfMemory),
    ] {
        let faulted = DcaConfig {
            fault: Some(FaultPlan {
                kind,
                loop_ordinal: 0,
                replay: 0,
            }),
            ..cfg.clone()
        };
        let report = Dca::new(faulted).analyze_module(&m).expect("analyze");
        let r = report.by_tag("l").expect("loop @l");
        assert_eq!(
            r.verdict,
            LoopVerdict::NonCommutative(Violation::ReplayTrapped(trap)),
            "{kind:?}"
        );
        assert_eq!(r.permutations_tested, 0);
    }
    // Unfaulted, every replay elides.
    let (verdict, elided) = analyze_single_loop(src);
    assert_eq!(verdict, LoopVerdict::Commutative);
    assert_eq!(elided, perms.len() as u64);
}
