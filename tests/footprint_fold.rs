//! The footprint probe's per-cell fold against the event log it replaced.
//!
//! `FootprintProbe` folds each heap access into its cell's state for the
//! iteration as the golden run makes it. Its former commit, which logged
//! every access and sorted the log once per iteration, is kept as a test
//! reference (`crates/deps/src/profile/event_log.rs`). Here a sink of its
//! own follows the executor's recording rules — the first invocation,
//! iterations that end at header re-arrivals, each access on the side of
//! the recorded frame's last instruction — and logs the probe calls they
//! make. The recorder's probe must give the profile the log gives: for
//! every suite loop the static stage admits, for the generated
//! archetypes, and at access caps small enough to truncate.

mod support;

#[path = "../crates/deps/src/profile/event_log.rs"]
mod event_log;

use dca::analysis::{exclusion, EffectMap, IteratorSlice};
use dca::core::{record_golden, DcaConfig};
use dca::interp::{Addr, LoopSink, LoopTracker, Machine, Value};
use dca::ir::{BlockId, FuncView, Loop, LoopRef, Module};
use dca_deps::{
    canonical_bits, CellWrite, FootprintProbe, IterFootprint, LoopProfile, DEFAULT_FOOTPRINT_CAP,
};
use event_log::{same_profile, EventLog, ProbeCall};
use std::collections::BTreeSet;
use support::ARCHETYPES;

/// Where the taped invocation stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Waiting,
    Recording,
    Done,
}

/// Logs the probe calls the executor's recording of one loop's first
/// invocation makes. An activation's state is whether it is recorded.
struct Tape<'a> {
    slice: &'a IteratorSlice,
    max_trip: usize,
    phase: Phase,
    /// The last instruction the recorded frame ran.
    at: (BlockId, usize),
    /// Whether the in-flight iteration ran a payload instruction.
    payload_ran: bool,
    iters: usize,
    calls: Vec<ProbeCall>,
}

impl LoopSink for Tape<'_> {
    type Act = bool;

    fn enter(&mut self, _: LoopRef, steps: u64, _: bool, _: &[Value]) -> bool {
        if self.phase != Phase::Waiting {
            return false;
        }
        self.phase = Phase::Recording;
        self.calls.push(ProbeCall::Begin(steps));
        true
    }

    fn iterate(&mut self, act: &mut bool, steps: u64, _: &[Value]) {
        if *act && self.phase == Phase::Recording {
            self.payload_ran = false;
            self.calls.push(ProbeCall::Commit(steps));
            self.iters += 1;
            if self.iters > self.max_trip {
                self.phase = Phase::Done;
            }
        }
    }

    fn inst(&mut self, frame: &mut [bool], block: BlockId, idx: usize, _: &[Value]) {
        if self.phase == Phase::Recording && frame.contains(&true) {
            self.at = (block, idx);
            self.payload_ran |= !self.slice.contains((block, idx));
        }
    }

    fn exit(&mut self, _: LoopRef, act: bool, steps: Option<u64>) {
        if let (true, Phase::Recording, Some(steps)) = (act, self.phase, steps) {
            if self.payload_ran {
                self.calls.push(ProbeCall::Commit(steps));
            }
            self.calls.push(ProbeCall::DropPartial);
            self.phase = Phase::Done;
        }
    }

    fn access(&mut self, live: &mut [bool], addr: Addr, store: Option<(Value, Value)>) {
        if self.phase != Phase::Recording || !live.contains(&true) {
            return;
        }
        self.calls
            .push(ProbeCall::Payload(!self.slice.contains(self.at)));
        self.calls.push(match store {
            None => ProbeCall::Read(addr.obj.0, addr.cell),
            Some((old, new)) => ProbeCall::Store(addr.obj.0, addr.cell, old, new),
        });
    }

    fn stop(&self) -> bool {
        self.phase == Phase::Done
    }
}

/// Checks loop `l` of `view`: the recorder's probe against the event log
/// fed from the tape, at the default cap and at a cap that truncates.
/// Returns the heap events of the taped invocation.
fn check(
    what: &str,
    m: &Module,
    args: &[Value],
    view: &FuncView<'_>,
    l: &Loop,
    slice: &IteratorSlice,
) -> usize {
    let cfg = DcaConfig::fast();
    let main = m.main().expect("main");
    let lref = LoopRef {
        func: view.id,
        loop_id: l.id,
    };
    let tape = Tape {
        slice,
        max_trip: cfg.max_trip,
        phase: Phase::Waiting,
        at: (l.header, 0),
        payload_ran: false,
        iters: 0,
        calls: Vec::new(),
    };
    let mut machine = Machine::new(m);
    machine.push_call(main, args).expect("push");
    let mut tracker = LoopTracker::watching(m, &BTreeSet::from([lref]), tape);
    // A trap or an exhausted budget ends both runs at the same step.
    let _ = tracker.run(&mut machine, cfg.max_steps);
    let calls = tracker.finish().calls;
    let events = calls
        .iter()
        .filter(|c| matches!(c, ProbeCall::Read(..) | ProbeCall::Store(..)))
        .count();
    for cap in [DEFAULT_FOOTPRINT_CAP, events / 2] {
        let mut probe = FootprintProbe::with_cap(cap);
        let _ = record_golden(
            &mut Machine::new(m),
            main,
            args,
            view.id,
            l,
            slice,
            0,
            0,
            cfg.max_trip,
            cfg.max_steps,
            None,
            None,
            true,
            Some(&mut probe),
        );
        let fold = probe.finish();
        let mut log = EventLog::with_cap(cap);
        for &c in &calls {
            log.call(c);
        }
        let log = log.finish();
        assert_eq!(fold.truncated, cap < events, "{what} (cap {cap})");
        assert!(
            same_profile(&fold, &log),
            "{what} (cap {cap}): fold {} iterations, truncated {}; log {}, truncated {}",
            fold.len(),
            fold.truncated,
            log.len(),
            log.truncated
        );
    }
    events
}

/// Checks every loop of `m` that the static stage admits, and returns
/// how many were checked and the heap events they made.
fn check_module(name: &str, m: &Module, args: &[Value]) -> (usize, usize) {
    let effects = EffectMap::new(m);
    let io = effects.io_funcs();
    let (mut loops, mut events) = (0, 0);
    for i in 0..m.funcs.len() {
        let view = FuncView::new(m, dca::ir::FuncId(i as u32));
        for l in view.loops.iter() {
            let slice = IteratorSlice::compute_with(&view, l, &effects);
            if exclusion(&view, l, &slice, &io).is_none() {
                let what = format!("{name} {}:{}", view.id, l.id.0);
                events += check(&what, m, args, &view, l, &slice);
                loops += 1;
            }
        }
    }
    (loops, events)
}

#[test]
fn fold_equals_the_event_log_on_the_suite() {
    let (mut loops, mut events) = (0, 0);
    for p in dca::suite::all_programs() {
        let (l, e) = check_module(p.name, &p.module(), &p.targs());
        loops += l;
        events += e;
    }
    assert!(loops > 200, "only {loops} loops checked");
    assert!(events > 50_000, "only {events} heap events");
}

#[test]
fn fold_equals_the_event_log_on_the_archetypes() {
    for a in ARCHETYPES {
        for (n, k) in [(2, 1), (9, 3), (64, 7)] {
            let src = a.source(n, k);
            let m = dca::ir::compile(&src).expect("archetype compiles");
            let (loops, _) = check_module(&format!("{a:?} n={n} k={k}"), &m, &[]);
            assert!(loops > 0);
        }
    }
}
