//! Block plans against the per-instruction hooks they replaced.
//!
//! The interpreter asks hooks for one plan per block instead of calling
//! them on every instruction. Two consumers changed with it, and each
//! former form is kept as a test reference that behaves as the
//! per-instruction hooks did:
//!
//! * the replay controller (`crates/core/src/replay/reference.rs`): every
//!   tested loop's replay must leave the machine exactly where the
//!   reference leaves it, steps included — under reversed, identity,
//!   shuffled and worker-share orders, at the loop exit, at the program
//!   end, under an injected trap and under a 7-step budget;
//! * the dependence tracer (`crates/baselines/src/trace/reference.rs`):
//!   the shadow table must give every loop the reference's `LoopDeps`.
//!
//! Both run over the suite at its test and evaluation workloads and over
//! 48 generated archetype programs.

mod support;

#[path = "../crates/core/src/replay/reference.rs"]
mod replay_reference;
#[path = "../crates/baselines/src/trace/reference.rs"]
mod trace_reference;

use dca::analysis::{EffectMap, IteratorSlice};
use dca::baselines::{trace_dependences, LoopDeps};
use dca::core::replay::GOVERN_GRANULE;
use dca::core::{
    record_golden, run_replay, DcaConfig, GoldenRecord, IterOrder, ReplayController, ReplayEnd,
    ReplayGovernor,
};
use dca::interp::{Hooks, Machine, Plan, Site, Snapshot, TermAction, Trap, Value};
use dca::ir::{BlockId, FuncId, FuncView, Function, Loop, Module, Terminator, VarId};
use dca_rng::Rng;
use replay_reference::{run_reference, ReferenceController};
use support::ARCHETYPES;

/// A replay order over a fixed list of recorded iterations. As a worker's
/// share it also resets variable `reset` to 0 at every chunk of `chunk`
/// iterations, as the executor's workers reset their accumulators.
#[derive(Clone)]
struct Order {
    iters: Vec<usize>,
    k: usize,
    reset: Option<(VarId, usize)>,
}

impl IterOrder for Order {
    fn next_iter(&mut self, vars: &mut [Value]) -> Option<usize> {
        let i = *self.iters.get(self.k)?;
        if let Some((v, chunk)) = self.reset {
            if self.k.is_multiple_of(chunk) {
                if let Some(x @ Value::Int(_)) = vars.get_mut(v.index()) {
                    *x = Value::Int(0);
                }
            }
        }
        self.k += 1;
        Some(i)
    }
}

/// The orders a loop of `trip` recorded iterations is replayed in.
fn orders(trip: usize, seed: u64, reset: Option<VarId>) -> Vec<Order> {
    let order = |iters: Vec<usize>, reset| Order { iters, k: 0, reset };
    let mut shuffled: Vec<usize> = (0..trip).collect();
    Rng::seed_from_u64(seed).shuffle(&mut shuffled);
    // Worker 1 of 2 under static chunks of 2.
    let share = (0..trip).filter(|i| (i / 2) % 2 == 1).collect();
    vec![
        order((0..trip).rev().collect(), None),
        order((0..trip).collect(), None),
        order(shuffled, None),
        order(share, reset.map(|v| (v, 2))),
    ]
}

/// How a replay ends.
#[derive(Debug, Clone, Copy)]
enum Ending {
    LoopExit,
    ProgramEnd,
    Trap(u64),
    Budget(u64),
}

/// Replays `golden` of loop `l` in `order` to `ending` under the planned
/// controller and under the reference, and returns where each left the
/// machine.
#[allow(clippy::too_many_arguments)]
fn both(
    m: &Module,
    func: FuncId,
    f: &Function,
    l: &Loop,
    slice: &IteratorSlice,
    golden: &GoldenRecord,
    order: &Order,
    ending: Ending,
) -> [(ReplayEnd, u64, Snapshot); 2] {
    let max_steps = match ending {
        Ending::Budget(n) => n,
        _ => DcaConfig::default().max_steps,
    };
    let gov = ReplayGovernor {
        trap_at_step: match ending {
            Ending::Trap(n) => Some(n),
            _ => None,
        },
        ..ReplayGovernor::default()
    };
    let stop = matches!(ending, Ending::LoopExit);
    let mut machine = Machine::new(m);
    machine.restore(&golden.snapshot);
    let mut ctl = ReplayController::with_order(func, f, l, slice, golden, order.clone());
    let start = machine.steps();
    let end = run_replay(&mut machine, &mut ctl, stop, max_steps, gov);
    let planned = (end, machine.steps() - start, machine.snapshot());
    machine.restore(&golden.snapshot);
    let mut reference = ReferenceController::new(func, f, l, slice, golden, order.clone());
    let end = run_reference(&mut machine, &mut reference, stop, max_steps, gov);
    [planned, (end, machine.steps() - start, machine.snapshot())]
}

/// Checks every loop of `m` that records at least two iterations;
/// returns how many replays were compared. With `full`, every order runs
/// to every ending; otherwise the program-end runs take the reversed
/// order only.
fn check_program(name: &str, m: &Module, args: &[Value], full: bool) -> usize {
    let cfg = DcaConfig::default();
    let main = m.main().expect("main");
    let effects = EffectMap::new(m);
    let mut compared = 0;
    for (lref, tag) in dca::ir::all_loops(m) {
        let view = FuncView::new(m, lref.func);
        let l = view.loops.get(lref.loop_id);
        let slice = IteratorSlice::compute_with(&view, l, &effects);
        let mut machine = Machine::new(m);
        let Ok(golden) = record_golden(
            &mut machine,
            main,
            args,
            lref.func,
            l,
            &slice,
            0,
            2,
            cfg.max_trip,
            cfg.max_steps,
            None,
            None,
            false,
            None,
        ) else {
            continue;
        };
        let reset = slice.iter_vars.iter().next().copied();
        let seed = u64::from(lref.func.0) << 32 | u64::from(lref.loop_id.0);
        for (o, order) in orders(golden.iters.len(), seed, reset).iter().enumerate() {
            let mut endings = vec![Ending::LoopExit, Ending::Budget(7)];
            if full || o == 0 {
                endings.push(Ending::ProgramEnd);
            }
            // Where the reference reached the loop exit decides the trap:
            // halfway there, and past a governor granule when it is long.
            let [(_, to_exit, _), _] = both(
                m,
                lref.func,
                view.func,
                l,
                &slice,
                &golden,
                order,
                Ending::LoopExit,
            );
            endings.push(Ending::Trap(to_exit / 2 + 1));
            if to_exit > GOVERN_GRANULE {
                endings.push(Ending::Trap(GOVERN_GRANULE + 3));
            }
            for &ending in &endings {
                let [planned, reference] =
                    both(m, lref.func, view.func, l, &slice, &golden, order, ending);
                assert!(
                    planned == reference,
                    "{name} {} order {o} {ending:?}: planned {:?} after {} steps, \
                     reference {:?} after {}",
                    tag.as_deref().unwrap_or("-"),
                    planned.0,
                    planned.1,
                    reference.0,
                    reference.1
                );
                compared += 1;
            }
        }
    }
    compared
}

/// The 48 generated archetype programs.
fn generated() -> Vec<(String, Module)> {
    let mut out = Vec::new();
    for arch in ARCHETYPES {
        for (n, k) in [
            (4, 1),
            (9, 2),
            (17, 5),
            (23, 3),
            (31, 7),
            (40, 4),
            (48, 11),
            (63, 6),
        ] {
            let m = dca::ir::compile(&arch.source(n, k)).expect("generated programs compile");
            out.push((format!("{arch:?} n={n} k={k}"), m));
        }
    }
    out
}

#[test]
fn planned_replays_leave_the_reference_machine() {
    let mut compared = 0;
    for p in dca::suite::all_programs() {
        compared += check_program(p.name, &p.module(), &p.targs(), true);
    }
    for (name, m) in generated() {
        compared += check_program(&name, &m, &[], true);
    }
    assert!(compared > 3000, "only {compared} replays compared");
}

#[test]
fn planned_replays_leave_the_reference_machine_at_evaluation_scale() {
    let mut compared = 0;
    for p in dca::suite::all_programs() {
        compared += check_program(p.name, &p.module(), &p.args(), false);
    }
    assert!(compared > 1000, "only {compared} replays compared");
}

/// Every loop's facts from the shadow-table tracer and the reference.
fn deps_agree(name: &str, m: &Module, args: &[Value]) -> usize {
    let max_steps = 500_000_000;
    let report = trace_dependences(m, args, max_steps).expect("trace");
    let reference = trace_reference::reference_deps(m, args, max_steps).expect("reference");
    let loops = dca::ir::all_loops(m);
    for (lref, tag) in &loops {
        let want = reference.get(lref).copied().unwrap_or_default();
        assert_eq!(
            report.deps(*lref),
            want,
            "{name} {}",
            tag.as_deref().unwrap_or("-")
        );
    }
    loops.len()
}

#[test]
fn shadow_table_deps_equal_the_reference() {
    let mut loops = 0;
    for p in dca::suite::all_programs() {
        let m = p.module();
        let n = deps_agree(p.name, &m, &p.args());
        assert_eq!(deps_agree(p.name, &m, &p.targs()), n);
        loops += n;
    }
    assert_eq!(loops, 247, "the suite's loops");
    for (name, m) in generated() {
        deps_agree(&name, &m, &[]);
    }
}
