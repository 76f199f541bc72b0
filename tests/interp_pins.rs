//! Pins the interpreter's observable behaviour, so that a change to how
//! programs are executed shows up as a diff here rather than as a drift
//! in some verdict far downstream.
//!
//! Three tables, all in `tests/interp_pins.txt`:
//!
//! * `run`: each suite program at its evaluation and test workloads,
//!   executed plainly: return value, step count, a digest of the output
//!   stream and the machine's heap-operation counts;
//! * `loop`: each suite loop at the evaluation workload under the default
//!   configuration on one thread: verdict, trips, permutations tested and
//!   replay steps;
//! * `gen`: generated loop programs (`tests/support`) for a fixed seed
//!   set: return value or trap, and step count.
//!
//! Beside the tables, the steps the suite's replays actually interpret
//! (`engine.replay_interp_steps`) are pinned as one total.

mod support;

use dca::core::{Dca, DcaConfig, ObsOptions};
use dca::interp::{Machine, NoHooks, Outcome, OutputItem, Value};
use dca_rng::Rng;
use support::ARCHETYPES;

const PINS: &str = include_str!("interp_pins.txt");

/// Interpreter steps the replays of the suite's loops at `args()`
/// interpret, suffix elision excluded.
const SUITE_REPLAY_INTERP_STEPS: u64 = 53_956_065;

/// The pinned lines of one table.
fn pinned(table: &str) -> Vec<&'static str> {
    PINS.lines()
        .filter(|l| l.split_whitespace().next() == Some(table))
        .collect()
}

/// Compares the computed lines of one table with the pinned ones and
/// names every line that differs.
fn check(table: &str, actual: &[String]) {
    let expected = pinned(table);
    let diffs: Vec<String> = (0..expected.len().max(actual.len()))
        .filter_map(|i| {
            let (e, a) = (expected.get(i).copied(), actual.get(i).map(String::as_str));
            (e != a).then(|| format!("  pinned: {e:?}\n  actual: {a:?}"))
        })
        .collect();
    assert!(
        diffs.is_empty(),
        "{} of {} `{table}` lines differ:\n{}\nactual table:\n{}",
        diffs.len(),
        expected.len(),
        diffs.join("\n"),
        actual.join("\n")
    );
}

/// FNV-1a over the output stream; floats by their bit pattern.
fn digest(output: &[OutputItem]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for item in output {
        match item {
            OutputItem::Label(s) => {
                eat(b"L");
                eat(s.as_bytes());
            }
            OutputItem::Value(Value::Float(x)) => {
                eat(b"F");
                eat(&x.to_bits().to_le_bytes());
            }
            OutputItem::Value(v) => {
                eat(b"V");
                eat(v.to_string().as_bytes());
            }
        }
    }
    h
}

/// Runs `main(args)` of `m` with no hooks: the outcome (or trap) and the
/// machine it ran on.
fn run<'m>(m: &'m dca::ir::Module, args: &[Value]) -> (String, Machine<'m>) {
    let mut machine = Machine::new(m);
    let end = machine
        .push_call(m.main().expect("main"), args)
        .and_then(|()| machine.run(&mut NoHooks, u64::MAX));
    let end = match end {
        Ok(Outcome::Finished(ret)) => format!("ret={ret:?}"),
        Ok(other) => panic!("unbudgeted run ended with {other:?}"),
        Err(t) => format!("trap={t:?}"),
    };
    (end, machine)
}

#[test]
fn suite_runs_are_pinned() {
    let mut actual = Vec::new();
    for p in dca::suite::all_programs() {
        let m = p.module();
        for (workload, args) in [("args", p.args()), ("targs", p.targs())] {
            let (end, machine) = run(&m, &args);
            let ops = machine.op_counts();
            actual.push(format!(
                "run {} {workload} {end} steps={} out={:016x} allocs={} cells={} reads={} writes={}",
                p.name,
                machine.steps(),
                digest(machine.output()),
                ops.heap_allocs,
                ops.heap_cells_allocated,
                ops.heap_reads,
                ops.heap_writes
            ));
        }
    }
    check("run", &actual);
}

#[test]
fn suite_verdicts_and_replay_work_are_pinned() {
    let cfg = DcaConfig {
        threads: 1,
        obs: ObsOptions::metrics(),
        ..DcaConfig::default()
    };
    let mut actual = Vec::new();
    let mut interp_steps = 0;
    for p in dca::suite::all_programs() {
        let m = p.module();
        let report = Dca::new(cfg.clone())
            .analyze(&m, &p.args())
            .expect("analyze");
        for r in report.iter() {
            actual.push(format!(
                "loop {} {} {:?} trips={} perms={} replay_steps={} {}",
                p.name,
                r.lref,
                r.tag.as_deref().unwrap_or("-"),
                r.trips,
                r.permutations_tested,
                r.replay_steps,
                r.verdict
            ));
        }
        let obs = report.obs.as_ref().expect("metrics on");
        interp_steps += obs.counter("engine.replay_interp_steps");
    }
    check("loop", &actual);
    assert_eq!(interp_steps, SUITE_REPLAY_INTERP_STEPS);
}

#[test]
fn generated_programs_are_pinned() {
    let mut actual = Vec::new();
    for seed in 0..8 {
        let mut rng = Rng::seed_from_u64(seed);
        for a in ARCHETYPES {
            // Trip counts past the 64-cell arrays make some programs trap.
            let n = rng.range_usize(2, 80);
            let k = rng.range_i64(-5, 30);
            let m = dca::ir::compile(&a.source(n, k)).expect("generated program compiles");
            let (end, machine) = run(&m, &[]);
            actual.push(format!(
                "gen {seed} {a:?} n={n} k={k} {end} steps={}",
                machine.steps()
            ));
        }
    }
    check("gen", &actual);
}
