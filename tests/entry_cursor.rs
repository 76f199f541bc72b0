//! The entry cursor against recordings from program start.
//!
//! The parallel executor records each loop's first invocation from the
//! module's entry cursor: one plain run of the program per argument
//! list, which keeps the machine at the first entry of every loop header
//! it passes. The interpreter is deterministic, so a recording started
//! there must be exactly the one `record_program` makes from program
//! start for the same request: the entry snapshot, the iterations, the
//! exit state, the steps, the footprint profile with its per-iteration
//! steps (chunk autotuning reads them), and every failure. This checks
//! it on every loop of every suite program at both workloads, in either
//! request order, and on the edge cases: budgets ending around the
//! entry, a trapping prefix, an arity mismatch, a loop never entered, a
//! module clone, and two threads sharing one module.

use dca::analysis::{EffectMap, IteratorSlice};
use dca::core::{record_program, DcaConfig, Obs, RecordError, RecordRequest};
use dca::interp::{first_entry, Machine, Value};
use dca::ir::{FuncId, FuncView, Loop, LoopRef, Module};
use dca::parallel::{execute_loop, ExecConfig};
use dca_deps::FootprintProbe;
use std::collections::hash_map::DefaultHasher;
use std::fmt::{Debug, Write};
use std::hash::Hasher;
use std::sync::Barrier;

/// A digest of `value`'s debug form, streamed into the hasher: states
/// compare by it bit for bit in effect (floats print `-0.0` and NaN
/// apart from `0.0`), without keeping two copies around.
fn digest(value: &impl Debug) -> u64 {
    struct Sink(DefaultHasher);
    impl Write for Sink {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut sink = Sink(DefaultHasher::new());
    write!(sink, "{value:?}").expect("formatting into a hasher");
    sink.0.finish()
}

/// What one recording of a loop's first invocation gave, digested.
#[derive(Debug, PartialEq)]
enum Summary {
    Recorded {
        snapshot: u64,
        entry_steps: u64,
        iters: usize,
        iters_digest: u64,
        exit: u64,
        total_steps: u64,
        profile: u64,
        iter_steps: Vec<u64>,
    },
    Failed(String),
}

/// The executor's request for `l`'s first invocation, with a probe.
fn request<'a>(
    func: FuncId,
    l: &'a Loop,
    slice: &'a IteratorSlice,
    probe: &'a mut FootprintProbe,
    max_trip: usize,
) -> RecordRequest<'a> {
    RecordRequest {
        func,
        l,
        slice,
        invocations: 0..1,
        min_trip: 0,
        max_trip,
        probe: Some(probe),
        stop_at_fresh: true,
    }
}

/// Records `l`'s first invocation on `machine`, from where it stands.
fn record(
    machine: &mut Machine<'_>,
    args: &[Value],
    func: FuncId,
    l: &Loop,
    slice: &IteratorSlice,
    budget: u64,
) -> Summary {
    let cfg = DcaConfig::default();
    let mut probe = FootprintProbe::new();
    let main = machine.module().main().expect("main");
    let run = record_program(
        machine,
        main,
        args,
        vec![request(func, l, slice, &mut probe, cfg.max_trip)],
        budget,
        None,
        None,
        true,
        &mut |_, _| {},
    );
    let profile = probe.finish();
    match run.loops.into_iter().flatten().next().expect("one result") {
        Ok(g) => Summary::Recorded {
            snapshot: digest(&*g.snapshot),
            entry_steps: g.snapshot.steps(),
            iters: g.iters.len(),
            iters_digest: digest(&g.iters),
            exit: digest(&g.exit),
            total_steps: g.total_steps,
            profile: digest(&profile),
            iter_steps: profile.iter_steps(),
        },
        Err(RecordError::FreshAccess(at)) => {
            Summary::Failed(format!("fresh access, entry {:x}", digest(&*at)))
        }
        Err(e) => Summary::Failed(format!("{e:?}")),
    }
}

/// The recording from program start.
fn from_start(
    m: &Module,
    args: &[Value],
    func: FuncId,
    l: &Loop,
    slice: &IteratorSlice,
    budget: u64,
) -> Summary {
    record(&mut Machine::new(m), args, func, l, slice, budget)
}

/// The recording started from the module's entry cursor, as the
/// executor starts it, and the steps the cursor ran for it.
fn from_cursor(
    m: &Module,
    args: &[Value],
    func: FuncId,
    l: &Loop,
    slice: &IteratorSlice,
    budget: u64,
) -> (Summary, u64) {
    let main = m.main().expect("main");
    let entry = first_entry(m, main, args, func, l.header, budget);
    let summary = match entry.at {
        Ok(at) => {
            let mut machine = Machine::new(m);
            machine.restore(&at);
            record(&mut machine, args, func, l, slice, budget)
        }
        Err(miss) => Summary::Failed(format!("{:?}", RecordError::from(miss))),
    };
    (summary, entry.steps)
}

/// Every loop of `m` with its function and iterator slice.
fn loops_of<'m>(
    m: &'m Module,
    views: &'m [FuncView<'m>],
) -> Vec<(FuncId, &'m Loop, IteratorSlice)> {
    let effects = EffectMap::new(m);
    views
        .iter()
        .flat_map(|view| {
            let effects = &effects;
            view.loops
                .iter()
                .map(move |l| (view.id, l, IteratorSlice::compute_with(view, l, effects)))
        })
        .collect()
}

fn views(m: &Module) -> Vec<FuncView<'_>> {
    (0..m.funcs.len())
        .map(|i| FuncView::new(m, FuncId(i as u32)))
        .collect()
}

/// Compares every loop of one program in the given order on a fresh
/// module; returns the loops compared and the steps the cursor ran.
fn check_program(name: &str, source: &Module, args: &[Value], reverse: bool) -> (usize, u64) {
    let budget = DcaConfig::default().max_steps;
    // A clone starts without the cursor the source module may hold.
    let m = source.clone();
    let views = views(&m);
    let mut loops = loops_of(&m, &views);
    if reverse {
        loops.reverse();
    }
    let mut cursor_steps = 0;
    for (func, l, slice) in &loops {
        let (cursor, steps) = from_cursor(&m, args, *func, l, slice, budget);
        cursor_steps += steps;
        let start = from_start(&m, args, *func, l, slice, budget);
        assert_eq!(
            cursor, start,
            "{name} {func}:{} (reverse {reverse})",
            l.id.0
        );
    }
    (loops.len(), cursor_steps)
}

#[test]
fn cursor_recordings_equal_recordings_from_program_start_on_the_suite() {
    let mut compared = 0;
    for p in dca::suite::all_programs() {
        let m = p.module();
        for args in [p.targs(), p.args()] {
            let (n, forward) = check_program(p.name, &m, &args, false);
            let (_, reverse) = check_program(p.name, &m, &args, true);
            // The cursor runs up to the furthest first entry once,
            // whichever loop asks first.
            assert_eq!(forward, reverse, "{}: cursor steps", p.name);
            compared += n;
        }
    }
    assert!(compared > 400, "only {compared} loops compared");
}

/// Compiles `src` and returns its module with the loop tagged `tag`.
fn tagged(src: &str, tag: &str) -> (Module, LoopRef) {
    let m = dca::ir::compile(src).expect("compile");
    let lref = dca::ir::all_loops(&m)
        .into_iter()
        .find(|(_, t)| t.as_deref() == Some(tag))
        .unwrap_or_else(|| panic!("no loop tagged @{tag}"))
        .0;
    (m, lref)
}

/// Both recordings of `lref` in `m`, once per budget, in order, on one
/// module: the cursor keeps what earlier budgets ran.
fn compare_budgets(m: &Module, args: &[Value], lref: LoopRef, budgets: &[u64]) -> Vec<Summary> {
    let view = FuncView::new(m, lref.func);
    let l = view.loops.get(lref.loop_id);
    let slice = IteratorSlice::compute_with(&view, l, &EffectMap::new(m));
    budgets
        .iter()
        .map(|&budget| {
            let (cursor, _) = from_cursor(m, args, lref.func, l, &slice, budget);
            let start = from_start(m, args, lref.func, l, &slice, budget);
            assert_eq!(cursor, start, "budget {budget}");
            cursor
        })
        .collect()
}

const TWO_LOOPS: &str = "fn main() -> int { let a: [int; 16]; let s: int = 0; \
     @fill: for (let i: int = 0; i < 16; i = i + 1) { a[i] = i * 5 % 11; } \
     @sum: for (let i: int = 0; i < 16; i = i + 1) { s = s + a[i]; } \
     return s; }";

#[test]
fn budgets_ending_before_at_and_after_the_entry() {
    let (m, lref) = tagged(TWO_LOOPS, "sum");
    let budget = DcaConfig::default().max_steps;
    let entry = match compare_budgets(&m.clone(), &[], lref, &[budget])[..] {
        [Summary::Recorded { entry_steps, .. }] => entry_steps,
        ref other => panic!("{other:?}"),
    };
    let exhausted = Summary::Failed("BudgetExhausted".into());
    // Rising budgets advance one cursor step by step; the budget that
    // ends at the entry reaches it and runs out there, as a run from
    // program start does.
    let rising = compare_budgets(
        &m,
        &[],
        lref,
        &[entry - 1, entry, entry + 1, budget, entry - 1],
    );
    assert_eq!(rising[0], exhausted);
    assert_eq!(rising[1], exhausted);
    assert_eq!(rising[2], exhausted, "the loop runs longer than a step");
    assert!(matches!(rising[3], Summary::Recorded { iters: 16, .. }));
    assert_eq!(rising[4], exhausted, "a passed entry beyond the budget");
    // The cursor never runs past the largest budget asked for.
    let m = m.clone();
    let main = m.main().expect("main");
    let view = FuncView::new(&m, lref.func);
    let header = view.loops.get(lref.loop_id).header;
    let first = first_entry(&m, main, &[], lref.func, header, entry - 1);
    assert_eq!((first.steps, first.started), (entry - 1, true));
    let second = first_entry(&m, main, &[], lref.func, header, budget);
    assert_eq!((second.steps, second.started), (1, false));
    let hit = first_entry(&m, main, &[], lref.func, header, budget);
    assert_eq!((hit.steps, hit.started, hit.snapshot_cells), (0, false, 0));
    assert_eq!(hit.at.expect("entered").steps(), entry);
}

#[test]
fn a_trapping_prefix_fails_like_a_run_from_program_start() {
    let src = "fn main() -> int { let a: [int; 4]; let z: int = 0; let s: int = 0; \
         @first: for (let i: int = 0; i < 4; i = i + 1) { a[i] = i; } \
         s = a[z - 1]; \
         @second: for (let j: int = 0; j < 4; j = j + 1) { s = s + a[j]; } \
         return s; }";
    let (m, second) = tagged(src, "second");
    let (_, first) = tagged(src, "first");
    let budget = DcaConfig::default().max_steps;
    // The trap is met once the prefix ran far enough, and a later
    // request with a budget that ends before it still runs out instead.
    let seconds = compare_budgets(&m, &[], second, &[budget, 5, budget]);
    assert!(
        matches!(&seconds[0], Summary::Failed(e) if e.starts_with("Trapped(OutOfBounds")),
        "{seconds:?}"
    );
    assert_eq!(seconds[1], Summary::Failed("BudgetExhausted".into()));
    assert_eq!(seconds[2], seconds[0]);
    // The first loop was passed on the way, before the trap.
    let firsts = compare_budgets(&m, &[], first, &[budget]);
    assert!(matches!(firsts[0], Summary::Recorded { iters: 4, .. }));
}

#[test]
fn an_arity_mismatch_and_a_loop_never_entered() {
    let (m, lref) = tagged(
        "fn main(n: int) -> int { let s: int = 0; \
         @l: for (let i: int = 0; i < n; i = i + 1) { s = s + i; } return s; }",
        "l",
    );
    let budget = DcaConfig::default().max_steps;
    let missing = compare_budgets(&m, &[], lref, &[budget]);
    assert_eq!(
        missing[0],
        Summary::Failed("Trapped(ArityMismatch { expected: 1, given: 0 })".into())
    );
    // Another argument list is another cursor, and NaN matches NaN.
    let ok = compare_budgets(&m, &[Value::Int(5)], lref, &[budget]);
    assert!(matches!(ok[0], Summary::Recorded { iters: 5, .. }));
    let main = m.main().expect("main");
    let header = FuncView::new(&m, lref.func).loops.get(lref.loop_id).header;
    let nan = [Value::Float(f64::NAN)];
    let a = first_entry(&m, main, &nan, lref.func, header, budget);
    let b = first_entry(&m, main, &nan, lref.func, header, budget);
    assert!(a.started && !b.started, "NaN arguments are one list");

    let (m, dead) = tagged(
        "fn dead() { @never: while (false) { let x: int = 1; x = x + 1; } }\n\
         fn main() -> int { let s: int = 0; \
         @live: for (let i: int = 0; i < 3; i = i + 1) { s = s + i; } return s; }",
        "never",
    );
    let never = compare_budgets(&m, &[], dead, &[budget, budget]);
    assert_eq!(never[0], Summary::Failed("NotExercised".into()));
    assert_eq!(never[1], never[0]);
}

/// The executor's counters for `lref`'s execution on `m`.
fn exec_counters(m: &Module, lref: LoopRef) -> (u64, u64, u64) {
    let obs = Obs::enabled();
    let cfg = ExecConfig {
        threads: 2,
        ..ExecConfig::from_dca(&DcaConfig::fast())
    };
    let out = execute_loop(m, &[], lref, &cfg, &obs).expect("execute");
    assert!(out.validated);
    let r = obs.rollup().expect("enabled");
    (
        r.counter("exec.program_starts"),
        r.counter("exec.record_idle_steps"),
        r.counter("exec.record_tracked_steps"),
    )
}

#[test]
fn a_module_clone_starts_its_own_cursor() {
    let (m, sum) = tagged(TWO_LOOPS, "sum");
    let (starts, idle, tracked) = exec_counters(&m, sum);
    assert_eq!(starts, 1);
    assert!(idle > 0);
    assert_eq!(
        exec_counters(&m, sum),
        (0, 0, tracked),
        "a hit on the same module"
    );
    let clone = m.clone();
    assert_eq!(exec_counters(&clone, sum), (1, idle, tracked));
}

#[test]
fn two_threads_share_one_cursor() {
    let (m, sum) = tagged(TWO_LOOPS, "sum");
    let (_, fill) = tagged(TWO_LOOPS, "fill");
    let cfg = ExecConfig {
        threads: 2,
        ..ExecConfig::from_dca(&DcaConfig::fast())
    };
    let alone: Vec<_> = [fill, sum]
        .iter()
        .map(|&l| {
            execute_loop(&m.clone(), &[], l, &cfg, &Obs::disabled())
                .expect("execute")
                .oracle_fingerprint
        })
        .collect();
    let obs = Obs::enabled();
    // Both calls start together, so one waits while the other runs the
    // cursor.
    let start = Barrier::new(2);
    let (m, cfg, obs_ref, start) = (&m, &cfg, &obs, &start);
    let shared: Vec<_> = std::thread::scope(|s| {
        let runs: Vec<_> = [sum, fill]
            .iter()
            .map(|&l| {
                s.spawn(move || {
                    start.wait();
                    execute_loop(m, &[], l, cfg, obs_ref)
                })
            })
            .collect();
        runs.into_iter()
            .map(|h| {
                h.join()
                    .expect("no panic")
                    .expect("execute")
                    .oracle_fingerprint
            })
            .collect()
    });
    assert_eq!(shared, [alone[1], alone[0]]);
    let r = obs.rollup().expect("enabled");
    assert_eq!(r.counter("exec.program_starts"), 1);
}
