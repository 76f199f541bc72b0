//! The golden run's work, split at its live activations.
//!
//! A recording runs the program under the loop tracker only while a
//! requested loop is live; the stretches between run under a hook that
//! looks at block entries alone. These tests pin the split the recorder
//! and the executor report (`ProgramRecording::steps`, the executor's
//! `exec.record_idle_steps` and `exec.record_tracked_steps` counters)
//! against the activations' own entry and exit steps, and check that
//! the deadline and the cancel token still stop a run in an idle stretch.

use dca::core::{
    record_program, CancelToken, DcaConfig, GoldenRecord, LoopFacts, Obs, RecordError,
    RecordRequest,
};
use dca::interp::Machine;
use dca::ir::{LoopRef, Module};
use dca::parallel::{execute_loop, ExecConfig};
use std::time::{Duration, Instant};

/// Interpreter steps per deadline and cancel check.
const GRANULE: u64 = dca::core::replay::GOVERN_GRANULE;

fn loop_by_tag(m: &Module, tag: &str) -> LoopRef {
    dca::ir::all_loops(m)
        .into_iter()
        .find(|(_, t)| t.as_deref() == Some(tag))
        .unwrap_or_else(|| panic!("no loop tagged @{tag}"))
        .0
}

/// Records invocation `invocation` of the loop tagged `tag`, counting
/// invocations of at least `min_trip` iterations, stopping at its exit;
/// returns the record and the run's idle and tracked steps.
fn record(
    m: &Module,
    tag: &str,
    invocation: u32,
    min_trip: usize,
) -> (Result<GoldenRecord, RecordError>, u64, u64) {
    let cfg = DcaConfig::fast();
    let lref = loop_by_tag(m, tag);
    let facts = LoopFacts::for_loop(m, lref, &Obs::disabled());
    let request = RecordRequest {
        func: lref.func,
        l: facts.l(),
        slice: &facts.slice,
        invocations: invocation..invocation + 1,
        min_trip,
        max_trip: cfg.max_trip,
        probe: None,
        stop_at_fresh: false,
    };
    let run = record_program(
        &mut Machine::new(m),
        m.main().expect("main"),
        &[],
        vec![request],
        cfg.max_steps,
        None,
        None,
        true,
        &mut |_, _| {},
    );
    let g = run.loops.into_iter().flatten().next().expect("one result");
    (g, run.steps.idle, run.steps.tracked)
}

/// A record's entry and exit steps.
fn span(m: &Module, g: &GoldenRecord) -> (u64, u64) {
    let mut at_entry = Machine::new(m);
    at_entry.restore(&g.snapshot);
    (at_entry.steps(), g.exit.steps)
}

#[test]
fn the_executor_counts_idle_and_tracked_steps() {
    let m = dca::ir::compile(
        "fn main() -> int { let a: [int; 64]; let s: int = 0; \
         for (let i: int = 0; i < 64; i = i + 1) { a[i] = i * 3 % 7; } \
         @l: for (let i: int = 0; i < 64; i = i + 1) { s = s + a[i]; } \
         for (let i: int = 0; i < 64; i = i + 1) { s = s + i; } return s; }",
    )
    .expect("compile");
    let (g, idle, tracked) = record(&m, "l", 0, 0);
    let (entry, exit) = span(&m, &g.expect("record"));
    assert_eq!((idle, tracked), (entry, exit - entry));
    let obs = Obs::enabled();
    let cfg = ExecConfig {
        threads: 2,
        ..ExecConfig::from_dca(&DcaConfig::fast())
    };
    let out = execute_loop(&m, &[], loop_by_tag(&m, "l"), &cfg, &obs).expect("execute");
    assert!(out.validated);
    let counters = obs.rollup().expect("enabled").counters;
    assert_eq!(counters.get("exec.record_idle_steps"), Some(&idle));
    assert_eq!(counters.get("exec.record_tracked_steps"), Some(&tracked));
}

#[test]
fn a_passed_over_invocation_is_tracked_and_the_gap_after_it_idle() {
    // work(1) is too short to count and is passed over; a long idle gap
    // separates it from work(4), the invocation recorded.
    let m = dca::ir::compile(
        "fn work(n: int) -> int { let s: int = 0; \
           @w: for (let i: int = 0; i < n; i = i + 1) { s = s + i; } return s; }\n\
         fn main() -> int { let t: int = work(1); \
           for (let k: int = 0; k < 500; k = k + 1) { t = t + k % 3; } \
           return t + work(4); }",
    )
    .expect("compile");
    let (first, _, _) = record(&m, "w", 0, 0);
    let (skipped_entry, skipped_exit) = span(&m, &first.expect("work(1)"));
    let (g, idle, tracked) = record(&m, "w", 0, 2);
    let g = g.expect("work(4)");
    assert_eq!(g.iters.len(), 4);
    let (entry, exit) = span(&m, &g);
    assert_eq!(
        tracked,
        (skipped_exit - skipped_entry) + (exit - entry),
        "the passed-over activation is tracked while live"
    );
    assert_eq!(idle + tracked, exit);
    assert!(entry - skipped_exit > 500, "an idle gap between the two");
}

#[test]
fn deeper_recursive_activations_stay_tracked() {
    // rec(2)'s loop is live while rec(1) and rec(0) run theirs deeper;
    // main's rec(1) runs after the outermost activation exited.
    let m = dca::ir::compile(
        "fn rec(n: int) -> int { let s: int = 0; \
           @r: for (let i: int = 0; i < n + 2; i = i + 1) { \
             if (n > 0) { if (i == 0) { s = s + rec(n - 1); } } s = s + 1; } \
           return s; }\n\
         fn main() -> int { let t: int = rec(2); \
           for (let k: int = 0; k < 100; k = k + 1) { t = t + k; } \
           return t + rec(1); }",
    )
    .expect("compile");
    let (outer, idle, tracked) = record(&m, "r", 0, 2);
    let (entry, exit) = span(&m, &outer.expect("rec(2)"));
    assert_eq!((idle, tracked), (entry, exit - entry));
    let (later, idle, tracked) = record(&m, "r", 1, 2);
    let (later_entry, later_exit) = span(&m, &later.expect("main's rec(1)"));
    assert_eq!(
        (idle, tracked),
        (
            entry + (later_entry - exit),
            (exit - entry) + (later_exit - later_entry)
        )
    );
}

/// A program whose second tested loop runs after an idle gap of many
/// check granules.
const GAP: &str = "fn main() -> int { let a: [int; 8]; let s: int = 0; \
     @first: for (let i: int = 0; i < 8; i = i + 1) { a[i] = i; } \
     for (let k: int = 0; k < 20000; k = k + 1) { s = s + k % 5; } \
     @second: for (let i: int = 0; i < 8; i = i + 1) { s = s + a[i]; } \
     return s; }";

/// Records both loops of [`GAP`] in one run with `deadline` and
/// `cancel`, calling `at_first_exit` when `@first` exits; returns the
/// two results and the steps the run took.
fn record_gap(
    deadline: Option<Instant>,
    cancel: Option<&CancelToken>,
    at_first_exit: &dyn Fn(),
) -> (Vec<Result<usize, RecordError>>, u64, u64) {
    let m = dca::ir::compile(GAP).expect("compile");
    let cfg = DcaConfig::fast();
    let facts: Vec<LoopFacts<'_>> = ["first", "second"]
        .iter()
        .map(|t| LoopFacts::for_loop(&m, loop_by_tag(&m, t), &Obs::disabled()))
        .collect();
    let requests = facts
        .iter()
        .map(|f| RecordRequest {
            func: f.lref.func,
            l: f.l(),
            slice: &f.slice,
            invocations: 0..1,
            min_trip: 2,
            max_trip: cfg.max_trip,
            probe: None,
            stop_at_fresh: false,
        })
        .collect();
    let mut machine = Machine::new(&m);
    let mut first_exit = 0;
    let run = record_program(
        &mut machine,
        m.main().expect("main"),
        &[],
        requests,
        cfg.max_steps,
        deadline,
        cancel,
        true,
        &mut |r, machine| {
            if r == 0 {
                first_exit = machine.steps();
                at_first_exit();
            }
        },
    );
    let results = run
        .loops
        .into_iter()
        .map(|mut r| r.remove(0).map(|g| g.iters.len()))
        .collect();
    (results, first_exit, machine.steps())
}

#[test]
fn governed_runs_check_idle_stretches() {
    let (free, _, free_steps) = record_gap(None, None, &|| {});
    assert_eq!(free, [Ok(8), Ok(8)]);
    let token = CancelToken::new();
    let (governed, _, steps) = record_gap(
        Some(Instant::now() + Duration::from_secs(600)),
        Some(&token),
        &|| {},
    );
    assert_eq!((governed, steps), (free, free_steps));

    // Cancelled at the first loop's exit: the second fails within a
    // granule of the idle gap that follows.
    let (cancelled, first_exit, steps) = record_gap(None, Some(&token), &|| token.cancel());
    assert_eq!(cancelled, [Ok(8), Err(RecordError::Cancelled)]);
    assert!(steps <= first_exit + GRANULE, "{steps} vs {first_exit}");

    // The deadline passes while the first loop's exit is handled.
    let deadline = Instant::now() + Duration::from_secs(1);
    let wait = || std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
    let (expired, first_exit, steps) = record_gap(Some(deadline), None, &wait);
    assert_eq!(expired, [Ok(8), Err(RecordError::DeadlineExpired)]);
    assert!(steps <= first_exit + GRANULE, "{steps} vs {first_exit}");
}
