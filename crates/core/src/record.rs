//! Golden execution: iterator recording (paper §IV-B1).
//!
//! One instrumented run of the program in its original, programmer-intended
//! order does three jobs at once:
//!
//! 1. **Linearization** — at every header arrival of the target loop
//!    invocation, the values of the iterator-slice variables are captured
//!    into a random-access sequence (Fig. 4(c));
//! 2. **Snapshotting** — machine state is saved at the invocation's first
//!    header arrival, so permuted replays start from identical state;
//! 3. **Golden reference** — the run's outcome is the reference that every
//!    permuted execution is verified against (§IV-B3). Alongside it, the
//!    state the run left the loop in ([`ExitState`]) lets a permuted
//!    replay that leaves the loop in that same state skip the rest of the
//!    program ([`GoldenRecord::exit_matches`]).
//!
//! The run follows the tested loop with a [`LoopTracker`], the tracker
//! behind every whole-program instrumented run; a private [`LoopSink`]
//! keeps the recording rules: which activation is recorded, where each
//! iteration's values freeze and when one commits. A
//! [`dca_deps::FootprintProbe`] passed to [`record_golden`] rides inside
//! that sink and takes its iteration boundaries from the same commits.

use crate::outcome::ProgramOutcome;
use crate::parallel::CancelToken;
use crate::replay::GOVERN_GRANULE;
use dca_analysis::IteratorSlice;
use dca_deps::FootprintProbe;
use dca_interp::{
    Addr, LoopSink, LoopTracker, Machine, Obj, ObjId, OutputItem, Position, Snapshot, Trap, Value,
};
use dca_ir::{BlockId, FuncId, Loop, LoopRef, VarId};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Everything recorded about one tested loop invocation.
#[derive(Debug, Clone)]
pub struct GoldenRecord {
    /// Machine state at the invocation's first header arrival. Shared
    /// behind an [`Arc`]: every parallel verification worker restores
    /// from (and the engine clones records around) this one immutable
    /// snapshot instead of deep-copying the heap per consumer.
    pub snapshot: Arc<Snapshot>,
    /// Committed per-iteration values of the recorded variables, in
    /// original order.
    pub iters: Vec<Vec<Value>>,
    /// The recorded variables, in the order values are stored.
    pub rec_vars: Vec<VarId>,
    /// The golden program outcome. A recording stopped at the loop exit
    /// (`stop_at_exit`) holds the output up to the exit and no return
    /// value.
    pub outcome: ProgramOutcome,
    /// Total steps of the golden run (up to the loop exit for a
    /// recording stopped there).
    pub total_steps: u64,
    /// The machine state the tested invocation exited in.
    pub exit: ExitState,
}

/// The golden run's state at the moment the tested invocation exited:
/// what a program-end replay is compared against to skip the rest of
/// the program ([`GoldenRecord::exit_matches`]). Its size follows the
/// invocation's work — cells written, objects allocated — not the size
/// of the heap.
#[derive(Debug, Clone)]
pub struct ExitState {
    /// Where control stood: the first instruction of the exit target
    /// (the first out-of-loop block control reached), at the frame depth
    /// the invocation ran at.
    pub position: Position,
    /// Every cell of a pre-existing object the invocation wrote, with
    /// its value at the exit; sorted by address, one entry per cell.
    pub cells: Vec<(Addr, Value)>,
    /// The objects allocated during the invocation, in allocation order;
    /// they occupy the last `new_objs.len()` heap slots.
    pub new_objs: Vec<Obj>,
    /// Heap objects at the exit.
    pub heap_len: usize,
    /// Heap cells allocated at the exit.
    pub heap_cells: u64,
    /// Output items printed before the invocation started.
    pub output_start: usize,
    /// The items the invocation printed.
    pub output: Vec<OutputItem>,
    /// Every variable of the running frame at the exit.
    pub vars: Vec<Value>,
    /// Machine steps at the exit.
    pub steps: u64,
}

impl ExitState {
    /// Captures the exit state of a machine whose journal was armed at
    /// the invocation's entry, when the heap held `base_heap` objects
    /// and the output `base_output` items.
    fn capture(machine: &Machine<'_>, base_heap: usize, base_output: usize) -> ExitState {
        let mut cells: Vec<(Addr, Value)> = machine
            .journal_writes()
            .map(|(a, _)| (a, machine.read_cell(a)))
            .collect();
        cells.sort_unstable_by_key(|&(a, _)| a);
        cells.dedup_by_key(|&mut (a, _)| a);
        let position = machine.position().expect("a live frame at the loop exit");
        let nvars = machine.module().func(position.func).vars.len();
        ExitState {
            position,
            cells,
            new_objs: machine.heap()[base_heap..].to_vec(),
            heap_len: machine.heap().len(),
            heap_cells: machine.heap_cells(),
            output_start: base_output,
            output: machine.output()[base_output..].to_vec(),
            vars: (0..nvars)
                .map(|i| machine.read_var(VarId(i as u32)))
                .collect(),
            steps: machine.steps(),
        }
    }
}

/// Bit-exact value equality: floats compare by raw `to_bits`, so `-0.0`
/// and `+0.0` differ, as do NaNs with different payloads. Suffix elision
/// needs this strength; canonical equality
/// ([`dca_deps::canon_f64_bits`]) would be unsound there, because
/// canonically equal states can still run different suffixes.
fn raw_eq(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (a, b) => a == b,
    }
}

fn raw_eq_output(a: &OutputItem, b: &OutputItem) -> bool {
    match (a, b) {
        (OutputItem::Value(x), OutputItem::Value(y)) => raw_eq(*x, *y),
        (a, b) => a == b,
    }
}

impl GoldenRecord {
    /// Steps the golden run took after the loop exit.
    #[must_use]
    pub fn suffix_steps(&self) -> u64 {
        self.total_steps - self.exit.steps
    }

    /// True when `machine` — a replay from [`GoldenRecord::snapshot`]
    /// with its write journal armed at the snapshot, stopped at the loop
    /// exit — stands in the golden run's exit state, so the rest of its
    /// run must repeat the golden run's step for step: the interpreter is
    /// deterministic and the rest of the program can observe nothing
    /// else. `roots` are the variables of the running frame that the
    /// rest of the program may read (live at the exit); the others are
    /// dead and may differ.
    ///
    /// The comparison is bit-exact (raw `to_bits` for floats) and costs
    /// O(cells written + objects allocated + roots) — the cells either
    /// run wrote, not the heap. Caller frames need no check: nothing
    /// runs in them while the loop does. A machine without an armed
    /// journal never matches, since its write-set is unknown.
    #[must_use]
    pub fn exit_matches(&self, machine: &Machine<'_>, roots: &[VarId]) -> bool {
        let x = &self.exit;
        if !machine.journal_armed()
            || machine.position() != Some(x.position)
            || machine.heap().len() != x.heap_len
            || machine.heap_cells() != x.heap_cells
        {
            return false;
        }
        let out = machine.output();
        if out.len() != x.output_start + x.output.len()
            || !out[x.output_start..]
                .iter()
                .zip(&x.output)
                .all(|(a, b)| raw_eq_output(a, b))
        {
            return false;
        }
        if !roots
            .iter()
            .all(|&v| raw_eq(machine.read_var(v), x.vars[v.index()]))
        {
            return false;
        }
        if !x
            .cells
            .iter()
            .all(|&(a, v)| raw_eq(machine.read_cell(a), v))
        {
            return false;
        }
        // Cells only the replay wrote must hold their loop-entry values,
        // as they do in the golden run.
        let golden_wrote = |a: Addr| x.cells.binary_search_by_key(&a, |&(c, _)| c).is_ok();
        if !machine.journal_writes().all(|(a, _)| {
            golden_wrote(a) || raw_eq(machine.read_cell(a), self.snapshot.read_cell(a))
        }) {
            return false;
        }
        let base = x.heap_len - x.new_objs.len();
        x.new_objs.iter().enumerate().all(|(i, o)| {
            let cells = machine.obj_cells(ObjId((base + i) as u32));
            cells.len() == o.cells.len() && cells.iter().zip(&o.cells).all(|(a, b)| raw_eq(*a, *b))
        })
    }
}

/// Why recording failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    /// The loop's chosen invocation never started.
    NotExercised,
    /// The program trapped during the golden run.
    Trapped(Trap),
    /// The step budget ran out.
    BudgetExhausted,
    /// The loop iterated more times than the configured trip limit.
    TripLimit,
    /// A wall-clock deadline ([`crate::config::WallLimits`]) expired
    /// during the golden run.
    DeadlineExpired,
    /// The run's [`CancelToken`] was tripped during the golden run.
    Cancelled,
}

/// The golden-recording [`LoopSink`]: picks the invocation to record
/// among the tested loop's activations and records it. Each activation's
/// state is whether it is the one being recorded.
///
/// The sink cannot touch the machine; it asks the stepping driver to
/// snapshot, to drop the snapshot or to capture the exit state through
/// its request flags, which the driver reads after every step.
struct GoldenSink<'p> {
    rec_vars: Vec<VarId>,
    /// For each block of the recorded function, whether each instruction
    /// is payload (`true`) or iterator-slice work; empty outside the loop.
    payload: Vec<Vec<bool>>,
    /// Invocations with fewer committed iterations than this are skipped
    /// (there is nothing to permute below two iterations).
    min_trip: usize,
    max_trip: usize,
    /// Eligible (long-enough) invocations still to skip before keeping
    /// one: the caller's invocation index counts *eligible* invocations.
    skips_left: u32,
    probe: Option<&'p mut FootprintProbe>,
    /// An activation is being recorded.
    recording: bool,
    /// The last instruction the recorded activation's frame ran; an
    /// access takes its side.
    at: (BlockId, usize),
    /// The recorded invocation was kept; nothing more is recorded.
    kept: bool,
    /// The iterator values of the in-flight iteration, frozen at its first
    /// payload instruction (the point Fig. 4(c)'s `rt_iterator_linearize`
    /// placement corresponds to): by then a `for` iterator still holds its
    /// pre-increment value while a destructive pop has already produced
    /// this iteration's element.
    pending: Option<Vec<Value>>,
    iters: Vec<Vec<Value>>,
    /// Request: the recorded activation started; snapshot now and arm the
    /// write journal.
    want_snapshot: bool,
    /// Request: the recorded activation was discarded; drop its snapshot.
    discard_snapshot: bool,
    /// Request: the kept invocation exited; capture the [`ExitState`].
    want_exit: bool,
    trip_overflow: bool,
}

impl GoldenSink<'_> {
    fn capture(&self, vars: &[Value]) -> Vec<Value> {
        self.rec_vars.iter().map(|v| vars[v.index()]).collect()
    }

    /// Commits one iteration that ended at step `steps`.
    fn commit(&mut self, tuple: Vec<Value>, steps: u64) {
        self.iters.push(tuple);
        if let Some(p) = self.probe.as_deref_mut() {
            p.commit_iter(steps);
        }
    }
}

impl LoopSink for GoldenSink<'_> {
    type Act = bool;

    fn enter(&mut self, _: LoopRef, steps: u64, _: bool, _: &[Value]) -> bool {
        // An activation starting while one is recorded runs in a deeper
        // recursive frame of the recorded one: it is not an invocation.
        if self.recording || self.kept {
            return false;
        }
        self.recording = true;
        self.want_snapshot = true;
        if let Some(p) = self.probe.as_deref_mut() {
            p.begin_invocation(steps);
        }
        true
    }

    fn iterate(&mut self, recorded: &mut bool, steps: u64, vars: &[Value]) {
        if !*recorded {
            return;
        }
        // All-slice iterations (no payload executed) commit their
        // header-arrival values; payload never reads them during replay.
        let tuple = self.pending.take().unwrap_or_else(|| self.capture(vars));
        self.commit(tuple, steps);
        if self.iters.len() > self.max_trip {
            self.trip_overflow = true;
        }
    }

    fn inst(&mut self, recorded: &mut bool, block: BlockId, idx: usize, vars: &[Value]) {
        if !*recorded {
            return;
        }
        self.at = (block, idx);
        if self.pending.is_none() && self.payload[block.index()][idx] {
            self.pending = Some(self.capture(vars));
        }
    }

    fn exit(&mut self, _: LoopRef, recorded: bool, steps: Option<u64>) {
        let (true, Some(steps)) = (recorded, steps) else {
            return;
        };
        self.recording = false;
        // The final partial iteration commits only if it did payload work
        // (a break), not when the header check simply failed.
        if let Some(tuple) = self.pending.take() {
            self.commit(tuple, steps);
        }
        let eligible = self.iters.len() >= self.min_trip;
        if !eligible || self.skips_left > 0 {
            // Too short to permute (does not use up a skip), or an
            // eligible invocation the caller asked to pass over: wait for
            // the next one.
            self.skips_left -= u32::from(eligible);
            self.iters.clear();
            self.discard_snapshot = true;
            if let Some(p) = self.probe.as_deref_mut() {
                p.abort_invocation();
            }
        } else {
            self.kept = true;
            self.want_exit = true;
            // What accumulated since the last commit belongs to the failed
            // header check, not to an iteration.
            if let Some(p) = self.probe.as_deref_mut() {
                p.drop_partial();
            }
        }
    }

    fn access(&mut self, _: &mut [bool], addr: Addr, store: Option<(Value, Value)>) {
        let Some(p) = self.probe.as_deref_mut() else {
            return;
        };
        if self.recording {
            // An access in a callee takes the side of the calling
            // instruction: the last one the recorded frame ran.
            let (block, idx) = self.at;
            p.set_payload(self.payload[block.index()][idx]);
        }
        match store {
            None => p.read(addr.obj.0, addr.cell),
            Some((old, new)) => p.store(addr.obj.0, addr.cell, old, new),
        }
    }
}

/// Runs the golden execution for `l`, a loop of `func`, and records
/// everything replay needs about its invocation `invocation`, counted
/// among the invocations with at least `min_trip` committed iterations;
/// shorter ones are passed over. The recorded variables are the loop's
/// iterator-slice variables.
///
/// The machine is stepped under a [`LoopTracker`] watching `l`, with an
/// optional wall-clock deadline and an optional [`CancelToken`], both
/// checked cooperatively every [`GOVERN_GRANULE`] steps. `None` for both
/// keeps the recording loop free of clock reads and atomic loads. The
/// write journal is armed at each invocation's entry snapshot, so at the
/// exit its write-set gives the [`ExitState`]; it is disarmed, without
/// rewinding, when the invocation is discarded or exits, and the rest of
/// the program runs unjournaled.
///
/// With `stop_at_exit` the run ends at the invocation's exit instead of
/// the program's (mirroring [`crate::replay::run_replay`]'s
/// `stop_at_loop_exit`): for consumers that need the loop-entry snapshot
/// and the iterator record but not the golden outcome, such as the
/// parallel executor. The record's `outcome` and `total_steps` then
/// describe the run up to the exit.
///
/// A `probe` mines a per-iteration memory and cost footprint from the
/// same run: it sees every heap access and every step, attributed to the
/// committed iteration and the slice or payload side it belongs to. The
/// iterations of its [`FootprintProbe::finish`] profile align 1:1 with
/// the record's.
///
/// # Errors
///
/// See [`RecordError`]; expiry yields [`RecordError::DeadlineExpired`],
/// a tripped token yields [`RecordError::Cancelled`].
#[allow(clippy::too_many_arguments)]
pub fn record_golden(
    machine: &mut Machine<'_>,
    main: FuncId,
    args: &[Value],
    func: FuncId,
    l: &Loop,
    slice: &IteratorSlice,
    invocation: u32,
    min_trip: usize,
    max_trip: usize,
    max_steps: u64,
    deadline: Option<Instant>,
    cancel: Option<&CancelToken>,
    stop_at_exit: bool,
    probe: Option<&mut FootprintProbe>,
) -> Result<GoldenRecord, RecordError> {
    let module = machine.module();
    let f = module.func(func);
    let payload = f
        .block_ids()
        .map(|b| {
            if l.blocks.contains(&b) {
                (0..f.block(b).insts.len())
                    .map(|idx| !slice.contains((b, idx)))
                    .collect()
            } else {
                Vec::new()
            }
        })
        .collect();
    let sink = GoldenSink {
        rec_vars: slice.slice_vars.iter().copied().collect(),
        payload,
        min_trip,
        max_trip,
        skips_left: invocation,
        probe,
        recording: false,
        at: (l.header, 0),
        kept: false,
        pending: None,
        iters: Vec::new(),
        want_snapshot: false,
        discard_snapshot: false,
        want_exit: false,
        trip_overflow: false,
    };
    let lref = LoopRef {
        func,
        loop_id: l.id,
    };
    let mut tracker = LoopTracker::watching(module, &BTreeSet::from([lref]), sink);
    machine
        .push_call(main, args)
        .map_err(RecordError::Trapped)?;
    // Step manually so the snapshot lands exactly at the header arrival.
    let budget = machine.steps().saturating_add(max_steps);
    let mut snapshot: Option<Snapshot> = None;
    let mut exit: Option<ExitState> = None;
    let mut base = (0, 0);
    let mut n: u64 = 0;
    let ret = loop {
        if machine.result().is_some() {
            break machine.result().expect("checked");
        }
        if machine.steps() >= budget {
            return Err(RecordError::BudgetExhausted);
        }
        // Cooperative deadline and cancellation, one clock read / atomic
        // load per granule (checked at n == 0 too, so a zero deadline or
        // pre-tripped token fires deterministically).
        if deadline.is_some() || cancel.is_some() {
            if n.is_multiple_of(GOVERN_GRANULE) {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Err(RecordError::DeadlineExpired);
                    }
                }
                if let Some(c) = cancel {
                    if c.is_cancelled() {
                        return Err(RecordError::Cancelled);
                    }
                }
            }
            n += 1;
        }
        match machine.step(&mut tracker) {
            Ok(()) => {}
            Err(Trap::NotRunning) => break machine.result().unwrap_or(None),
            Err(t) => return Err(RecordError::Trapped(t)),
        }
        let sink = tracker.sink_mut();
        if sink.want_snapshot {
            sink.want_snapshot = false;
            snapshot = Some(machine.snapshot());
            base = (machine.heap().len(), machine.output().len());
            machine.begin_journal();
        }
        if sink.discard_snapshot {
            sink.discard_snapshot = false;
            snapshot = None;
            machine.disarm_journal();
        }
        if sink.trip_overflow {
            return Err(RecordError::TripLimit);
        }
        if sink.want_exit {
            sink.want_exit = false;
            exit = Some(ExitState::capture(machine, base.0, base.1));
            machine.disarm_journal();
            if stop_at_exit {
                break None;
            }
        }
    };
    let snapshot = snapshot.ok_or(RecordError::NotExercised)?;
    let exit = exit.ok_or(RecordError::NotExercised)?;
    let sink = tracker.finish();
    Ok(GoldenRecord {
        snapshot: Arc::new(snapshot),
        iters: sink.iters,
        rec_vars: sink.rec_vars,
        outcome: ProgramOutcome::capture(machine, ret),
        total_steps: machine.steps(),
        exit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DcaConfig;
    use dca_analysis::IteratorSlice;
    use dca_ir::FuncView;

    /// Records invocation `skip` of the loop tagged `tag` in `src`,
    /// counting invocations of at least `min_trip` iterations, with an
    /// optional probe.
    fn record(
        src: &str,
        tag: &str,
        skip: u32,
        min_trip: usize,
        probe: Option<&mut FootprintProbe>,
    ) -> Result<GoldenRecord, RecordError> {
        let m = dca_ir::compile(src).expect("compile");
        // Find the tagged loop anywhere in the module.
        for (i, _) in m.funcs.iter().enumerate() {
            let fid = dca_ir::FuncId(i as u32);
            let view = FuncView::new(&m, fid);
            if let Some(l) = view.loops.by_tag(tag) {
                let slice = IteratorSlice::compute(&view, l);
                return record_golden(
                    &mut Machine::new(&m),
                    m.main().expect("main"),
                    &[],
                    fid,
                    l,
                    &slice,
                    skip,
                    min_trip,
                    DcaConfig::DEFAULT_MAX_TRIP,
                    DcaConfig::TEST_STEP_BUDGET,
                    None,
                    None,
                    false,
                    probe,
                );
            }
        }
        panic!("no loop tagged @{tag}");
    }

    fn golden(src: &str, tag: &str) -> Result<GoldenRecord, RecordError> {
        record(src, tag, 0, 0, None)
    }

    #[test]
    fn records_counted_loop_iterations() {
        let g = golden(
            "fn main() -> int { let s: int = 0; \
             @l: for (let i: int = 0; i < 5; i = i + 1) { s = s + i; } return s; }",
            "l",
        )
        .expect("record");
        assert_eq!(g.iters.len(), 5);
        assert_eq!(g.outcome.ret, Some(Value::Int(10)));
        // The recorded tuples include the induction variable's values
        // 0,1,2,3,4 in order (among any other slice temps).
        let positions: Vec<Vec<i64>> = g
            .iters
            .iter()
            .map(|vals| {
                vals.iter()
                    .filter_map(|v| match v {
                        Value::Int(x) => Some(*x),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        for (k, vals) in positions.iter().enumerate() {
            assert!(
                vals.contains(&(k as i64)),
                "iteration {k} should capture i == {k}, got {vals:?}"
            );
        }
    }

    #[test]
    fn records_pointer_chase_iterations() {
        let g = golden(
            "struct N { v: int, next: *N }\n\
             fn main() -> int { let head: *N = null; \
             for (let i: int = 0; i < 4; i = i + 1) { \
               let n: *N = new N; n.v = i; n.next = head; head = n; } \
             let s: int = 0; let p: *N = head; \
             @walk: while (p != null) { s = s + p.v; p = p.next; } return s; }",
            "walk",
        )
        .expect("record");
        assert_eq!(g.iters.len(), 4);
        assert_eq!(g.outcome.ret, Some(Value::Int(6)));
        // Each iteration captures a distinct node pointer.
        let ptrs: Vec<Vec<Value>> = g.iters.clone();
        for w in ptrs.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn break_iteration_is_committed() {
        let g = golden(
            "fn main() -> int { let s: int = 0; \
             @l: for (let i: int = 0; i < 100; i = i + 1) { \
               s = s + i; if (i == 2) { break; } } return s; }",
            "l",
        )
        .expect("record");
        // Iterations 0, 1, 2 all executed payload.
        assert_eq!(g.iters.len(), 3);
        assert_eq!(g.outcome.ret, Some(Value::Int(3)));
    }

    #[test]
    fn unexercised_loop_reports_not_exercised() {
        let err = golden(
            "fn dead() { @never: while (false) { let x: int = 1; x = x + 1; } }\n\
             fn main() { }",
            "never",
        )
        .expect_err("should fail");
        assert_eq!(err, RecordError::NotExercised);
        // A loop whose header runs but whose body never executes still
        // records (with zero iterations).
        let g = golden(
            "fn main() { let s: int = 0; \
             @zero: for (let i: int = 5; i < 0; i = i + 1) { s = s + 1; } }",
            "zero",
        )
        .expect("record");
        assert_eq!(g.iters.len(), 0);
    }

    #[test]
    fn second_invocation_can_be_selected() {
        let src = "fn work(n: int) -> int { let s: int = 0; \
             @w: for (let i: int = 0; i < n; i = i + 1) { s = s + i; } return s; }\n\
             fn main() -> int { return work(3) + work(5); }";
        let g = record(src, "w", 1, 0, None).expect("record");
        assert_eq!(g.iters.len(), 5, "second invocation has 5 iterations");
    }

    #[test]
    fn invocation_indices_count_eligible_invocations() {
        // Invocations run with trips 0, 3, 1, 5: indices must select the
        // 3-trip and then the 5-trip invocation (short ones don't count).
        let src = "fn work(n: int) -> int { let s: int = 0; \
             @w: for (let i: int = 0; i < n; i = i + 1) { s = s + i; } return s; }\n\
             fn main() -> int { return work(0) + work(3) + work(1) + work(5); }";
        let trips_of = |skip: u32| record(src, "w", skip, 2, None).map(|g| g.iters.len());
        assert_eq!(trips_of(0).expect("first eligible"), 3);
        assert_eq!(trips_of(1).expect("second eligible"), 5);
        assert_eq!(trips_of(2), Err(RecordError::NotExercised));
    }

    #[test]
    fn deeper_recursive_activations_are_not_invocations() {
        // `rec(n)` runs @r for n + 2 trips and recurses from its first
        // iteration: rec(2) is live at depth 1 while rec(1) and rec(0) run
        // @r deeper. Only activations starting while none is recorded
        // count, so the invocations are rec(2) and main's rec(1), even
        // when the recorded rec(2) is skipped.
        let src = "fn rec(n: int) -> int { let s: int = 0; \
             @r: for (let i: int = 0; i < n + 2; i = i + 1) { \
               if (n > 0) { if (i == 0) { s = s + rec(n - 1); } } s = s + 1; } \
             return s; }\n\
             fn main() -> int { return rec(2) + rec(1); }";
        let record = |skip: u32| record(src, "r", skip, 2, None);
        let g = record(0).expect("rec(2)");
        assert_eq!((g.iters.len(), g.exit.position.depth), (4, 1));
        let g = record(1).expect("main's rec(1)");
        assert_eq!((g.iters.len(), g.exit.position.depth), (3, 1));
        assert_eq!(
            record(2).map(|g| g.iters.len()),
            Err(RecordError::NotExercised)
        );
    }

    #[test]
    fn early_return_exits_to_the_return_block() {
        let src = "fn find(n: int) -> int { \
             @l: for (let i: int = 0; i < 10; i = i + 1) { if (i == n) { return i; } } \
             return 0 - 1; }\n\
             fn main() -> int { return find(3); }";
        let g = golden(src, "l").expect("record");
        // Iterations 0..=2 run to the latch. The `i == n` test decides the
        // exit, so it is iterator-slice work: the fourth arrival runs no
        // payload before the `return` and commits nothing.
        assert_eq!(g.iters.len(), 3);
        assert_eq!(g.outcome.ret, Some(Value::Int(3)));
        let m = dca_ir::compile(src).expect("compile");
        let fid = m.func_by_name("find").expect("find");
        let exit = g.exit.position;
        assert_eq!(exit.func, fid);
        let view = FuncView::new(&m, fid);
        let l = view.loops.by_tag("l").expect("tag");
        assert!(!l.blocks.contains(&exit.block));
        assert!(matches!(
            m.func(fid).block(exit.block).term,
            dca_ir::Terminator::Return(_)
        ));
    }

    #[test]
    fn probed_recording_aligns_after_a_skipped_invocation() {
        // The probe starts on work(1), aborts when it is skipped, and
        // restarts on work(4).
        let src = "fn work(n: int) -> int { let a: [int; 8]; let s: int = 0; \
             @w: for (let i: int = 0; i < n; i = i + 1) { a[i] = i; s = s + a[i]; } \
             return s; }\n\
             fn main() -> int { return work(1) + work(4); }";
        let mut probe = FootprintProbe::new();
        let probed = record(src, "w", 1, 0, Some(&mut probe)).expect("probed record");
        let profile = probe.finish();
        let plain = record(src, "w", 1, 0, None).expect("plain record");
        assert_eq!(probed.iters.len(), 4);
        assert_eq!(profile.iters.len(), probed.iters.len());
        assert_eq!(probed.iters, plain.iters);
        assert!(profile.iters.iter().all(|it| it.writes.len() == 1));
    }

    #[test]
    fn probe_sides_follow_the_recorded_frame() {
        // Popping the global `top` is iterator-slice work; reading the
        // stack and writing `out`, in the loop and in the callee `bump`,
        // is payload work.
        let src = "let top: int;\n\
             let stack: [int; 8];\n\
             fn bump(a: *int, i: int) { a[i] = a[i] + 1; }\n\
             fn main() -> int { let out: *int = new [int; 8]; \
               for (let i: int = 0; i < 5; i = i + 1) { stack[i] = i + 2; } top = 5; \
               @w: while (top > 0) { top = top - 1; let x: int = stack[top]; \
                 out[x] = x * 3; bump(out, x); } \
               return out[2] + out[6]; }";
        let mut probe = FootprintProbe::new();
        let g = record(src, "w", 0, 0, Some(&mut probe)).expect("record");
        let profile = probe.finish();
        assert_eq!(g.outcome.ret, Some(Value::Int(26)));
        let cells = |ws: &[dca_deps::CellWrite]| -> Vec<(u32, u32)> {
            ws.iter().map(|w| (w.obj, w.cell)).collect()
        };
        let (top, stack, out) = (0, 1, 2);
        for (k, it) in profile.iters.iter().enumerate() {
            let x = 6 - k as u32;
            assert_eq!(it.reads, vec![(stack, x - 2)], "iteration {k}");
            assert_eq!(cells(&it.writes), vec![(out, x)], "iteration {k}");
            assert_eq!(it.slice_reads, vec![(top, 0)], "iteration {k}");
            assert_eq!(cells(&it.slice_writes), vec![(top, 0)], "iteration {k}");
        }
        assert_eq!(profile.iters.len(), 5);
    }

    #[test]
    fn trip_limit_enforced() {
        let err = golden(
            "fn main() { let s: int = 0; \
             @big: for (let i: int = 0; i < 100000; i = i + 1) { s = s + i; } }",
            "big",
        );
        // Default limit in this helper is 65536 < 100000.
        assert_eq!(err.expect_err("should overflow"), RecordError::TripLimit);
    }

    #[test]
    fn exit_target_is_outside_the_loop() {
        let src = "fn main() -> int { let s: int = 0; \
             @l: for (let i: int = 0; i < 3; i = i + 1) { s = s + i; } return s; }";
        let g = golden(src, "l").expect("record");
        let m = dca_ir::compile(src).expect("compile");
        let view = FuncView::new(&m, m.main().expect("main"));
        let l = view.loops.by_tag("l").expect("tag");
        let x = &g.exit;
        assert!(!l.blocks.contains(&x.position.block));
        assert_eq!((x.position.inst, x.position.depth), (0, 0));
        // The exit state holds the final iterator state (i == 3 among the
        // recorded variables).
        assert!(g
            .rec_vars
            .iter()
            .any(|v| matches!(x.vars[v.index()], Value::Int(3))));
    }
}
