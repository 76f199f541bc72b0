//! Golden execution: iterator recording (paper §IV-B1).
//!
//! One instrumented run of the program in its original, programmer-intended
//! order does three jobs at once:
//!
//! 1. **Linearization** — at every header arrival of a tested loop
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
//! The interpreter is deterministic, so one run serves every loop of the
//! program: [`record_program`] records all the loops it is asked for in a
//! single run, and each loop gets the records a run of its own would give.
//! The run follows the tested loops with a [`LoopTracker`], the tracker
//! behind every whole-program instrumented run; a private [`LoopSink`]
//! keeps the recording rules for each loop: which activation is recorded,
//! where each iteration's values freeze and when one commits. Each
//! recorded activation has its own snapshot and its own write set, so
//! nested tested loops record side by side. [`record_golden`] is the
//! one-loop, one-invocation form; a [`dca_deps::FootprintProbe`] passed to
//! it rides inside the sink and takes its iteration boundaries from the
//! same commits.

use crate::outcome::ProgramOutcome;
use crate::parallel::CancelToken;
use crate::replay::GOVERN_GRANULE;
use dca_analysis::IteratorSlice;
use dca_deps::FootprintProbe;
use dca_interp::{
    AccessAt, Addr, Heap, LoopSink, LoopTracker, Machine, ObjId, OutputItem, Position, Snapshot,
    TrackedSteps, Trap, Value,
};
use dca_ir::{BlockId, FuncId, Function, Loop, LoopRef, VarId};
use std::collections::HashMap;
use std::ops::Range;
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
    /// Heap cells allocated at the end of the golden run (at the loop
    /// exit for a recording stopped there).
    pub end_heap_cells: u64,
    /// The machine state the tested invocation exited in.
    pub exit: ExitState,
}

/// The golden run's state at the moment the tested invocation exited:
/// what a program-end replay is compared against to skip the rest of
/// the program ([`GoldenRecord::exit_matches`]). Its size follows the
/// invocation's work — cells written, objects allocated — not the size
/// of the heap. A record stopped at the loop exit (`stop_at_exit`) is
/// never compared so: its consumers read only `position` and `vars`, and
/// it keeps no written cells and no new objects.
#[derive(Debug, Clone, PartialEq)]
pub struct ExitState {
    /// Where control stood: the first instruction of the exit target
    /// (the first out-of-loop block control reached), at the frame depth
    /// the invocation ran at.
    pub position: Position,
    /// Every cell of a pre-existing object the invocation wrote, with
    /// its value at the exit; sorted by address, one entry per cell.
    pub cells: Vec<(Addr, Value)>,
    /// The objects allocated during the invocation, in allocation order
    /// and numbered from 0, as one flat copy; they occupy the last
    /// `new_objs.len()` heap slots.
    pub new_objs: Heap,
    /// Whether `cells` and `new_objs` were kept: false for a record
    /// stopped at the loop exit, which never matches.
    pub heap_kept: bool,
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
    /// Captures the exit state of a machine whose invocation started when
    /// the heap held `base_heap` objects and the output `base_output`
    /// items, and stored to the cells `writes` of those objects. Only
    /// with `heap` are the written cells and the new objects kept.
    fn capture(
        machine: &Machine<'_>,
        base_heap: usize,
        base_output: usize,
        mut writes: Vec<Addr>,
        heap: bool,
    ) -> ExitState {
        writes.sort_unstable();
        writes.dedup();
        let cells = writes
            .into_iter()
            .map(|a| (a, machine.read_cell(a)))
            .collect();
        let position = machine.position().expect("a live frame at the loop exit");
        let nvars = machine.module().func(position.func).vars.len();
        ExitState {
            position,
            cells,
            new_objs: if heap {
                machine.heap_tail(base_heap)
            } else {
                Heap::default()
            },
            heap_kept: heap,
            heap_len: machine.heap_len(),
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
    /// journal never matches, since its write-set is unknown, and
    /// neither does any machine against a record stopped at the loop
    /// exit, which keeps no exit heap.
    #[must_use]
    pub fn exit_matches(&self, machine: &Machine<'_>, roots: &[VarId]) -> bool {
        let x = &self.exit;
        if !self.same_position_and_output(machine)
            || machine.heap_len() != x.heap_len
            || machine.heap_cells() != x.heap_cells
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
        if !machine.journal_writes().all(|(a, _)| {
            self.golden_wrote(a) || raw_eq(machine.read_cell(a), self.snapshot.read_cell(a))
        }) {
            return false;
        }
        let base = x.heap_len - x.new_objs.len();
        x.new_objs.objs().enumerate().all(|(i, golden)| {
            let cells = machine.obj_cells(ObjId((base + i) as u32));
            cells.len() == golden.len() && cells.iter().zip(golden).all(|(a, b)| raw_eq(*a, *b))
        })
    }

    /// [`GoldenRecord::exit_matches`] up to a renaming of the objects the
    /// invocations allocated: true when `machine`'s state at the loop
    /// exit is the golden exit state under a bijection between the
    /// objects each run allocated in the loop and can still reach. The
    /// rest of the run then repeats the golden suffix step for step on
    /// renamed objects: a program can compare pointers only for equality,
    /// which a bijection keeps, and cannot print them.
    ///
    /// Objects that existed at the loop entry map to themselves. Globals
    /// and caller frames hold only such objects, as nothing ran in the
    /// callers, so they need no walk: the walk starts from the running
    /// frame's `roots` and the cells of older objects either run wrote,
    /// which must then agree up to the renaming, and pairs each allocated
    /// object it reaches with the other run's, cell by cell. Allocated
    /// objects neither run can reach are garbage and may differ.
    ///
    /// Refused when `main`'s golden result is a pointer (the replay's
    /// would name its own object), and when the replay's heap plus the
    /// golden suffix's allocations would pass the machine's heap limit,
    /// where the suffix could trap in the replay alone. Costs
    /// O(cells written + reachable allocated cells + roots).
    #[must_use]
    pub fn exit_matches_renamed(&self, machine: &Machine<'_>, roots: &[VarId]) -> bool {
        let x = &self.exit;
        let suffix_cells = self.end_heap_cells - x.heap_cells;
        if !self.same_position_and_output(machine)
            || matches!(self.outcome.ret, Some(Value::Ptr(_)))
            || machine.heap_cells().saturating_add(suffix_cells) > machine.limits().max_heap_cells
        {
            return false;
        }
        let base = x.heap_len - x.new_objs.len();
        let mut walk = Renaming {
            base,
            golden: vec![u32::MAX; x.new_objs.len()],
            replay: vec![u32::MAX; machine.heap_len().saturating_sub(base)],
            pending: Vec::new(),
        };
        let agree = roots
            .iter()
            .all(|&v| walk.pair(x.vars[v.index()], machine.read_var(v)))
            && x.cells
                .iter()
                .all(|&(a, v)| walk.pair(v, machine.read_cell(a)))
            && machine.journal_writes().all(|(a, _)| {
                a.obj.index() >= base
                    || self.golden_wrote(a)
                    || walk.pair(self.snapshot.read_cell(a), machine.read_cell(a))
            });
        if !agree {
            return false;
        }
        while let Some((g, r)) = walk.pending.pop() {
            let golden = x.new_objs.obj(ObjId(g - base as u32));
            let replay = machine.obj_cells(ObjId(r));
            if golden.len() != replay.len()
                || !golden.iter().zip(replay).all(|(&a, &b)| walk.pair(a, b))
            {
                return false;
            }
        }
        true
    }

    /// The checks both exit comparisons start with: a kept exit heap, an
    /// armed journal, the exit position, and the same output, bit for
    /// bit.
    fn same_position_and_output(&self, machine: &Machine<'_>) -> bool {
        let x = &self.exit;
        let out = machine.output();
        x.heap_kept
            && machine.journal_armed()
            && machine.position() == Some(x.position)
            && out.len() == x.output_start + x.output.len()
            && out[x.output_start..]
                .iter()
                .zip(&x.output)
                .all(|(a, b)| raw_eq_output(a, b))
    }

    /// Whether the golden invocation stored to `a`.
    fn golden_wrote(&self, a: Addr) -> bool {
        self.exit
            .cells
            .binary_search_by_key(&a, |&(c, _)| c)
            .is_ok()
    }
}

/// The object pairing of [`GoldenRecord::exit_matches_renamed`]'s walk.
struct Renaming {
    /// Objects below this index existed at the loop entry in both runs.
    base: usize,
    /// For each object the golden invocation allocated, the replay object
    /// paired with it (`u32::MAX` for none yet); `replay` the reverse.
    golden: Vec<u32>,
    replay: Vec<u32>,
    /// Newly paired objects whose cells are still to compare.
    pending: Vec<(u32, u32)>,
}

impl Renaming {
    /// Whether golden value `g` and replay value `r` agree up to the
    /// pairing, which a first meeting of two allocated objects extends.
    fn pair(&mut self, g: Value, r: Value) -> bool {
        let (Value::Ptr(a), Value::Ptr(b)) = (g, r) else {
            return raw_eq(g, r);
        };
        if a.index() < self.base || b.index() < self.base {
            return a == b;
        }
        let (ga, rb) = (a.index() - self.base, b.index() - self.base);
        match (self.golden[ga], self.replay[rb]) {
            (u32::MAX, u32::MAX) => {
                self.golden[ga] = b.0;
                self.replay[rb] = a.0;
                self.pending.push((a.0, b.0));
                true
            }
            (paired, back) => paired == b.0 && back == a.0,
        }
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
    /// The invocation's payload touched an object allocated since its
    /// entry ([`RecordRequest::stop_at_fresh`]), and the recording
    /// stopped there. Carries the invocation's entry snapshot.
    FreshAccess(Arc<Snapshot>),
}

/// One loop for [`record_program`] to record.
pub struct RecordRequest<'a> {
    /// The function the loop belongs to.
    pub func: FuncId,
    /// The loop.
    pub l: &'a Loop,
    /// The loop's iterator slice: its variables are the recorded ones, and
    /// every loop instruction outside it is payload.
    pub slice: &'a IteratorSlice,
    /// The invocations to record, counted among the invocations with at
    /// least `min_trip` committed iterations; shorter ones are passed over.
    pub invocations: Range<u32>,
    /// The fewest committed iterations an invocation needs to count.
    pub min_trip: usize,
    /// More committed iterations than this fail the loop with
    /// [`RecordError::TripLimit`].
    pub max_trip: usize,
    /// A footprint probe for a one-invocation request (see
    /// [`record_golden`]).
    pub probe: Option<&'a mut FootprintProbe>,
    /// Stop at the invocation's first payload access to an object
    /// allocated since its entry that joins the probe's footprint (as
    /// an upward-exposed read or a write), failing the loop with
    /// [`RecordError::FreshAccess`]. For a request with a probe, of its
    /// loop's first invocation with `min_trip` 0: the parallel executor's
    /// pre-check refuses such a loop whatever the rest of the run does.
    pub stop_at_fresh: bool,
}

/// One request's results: one per requested invocation, in invocation
/// order, ending at the first that failed.
pub type LoopRecords = Vec<Result<GoldenRecord, RecordError>>;

/// What one [`record_program`] run produced.
#[derive(Debug)]
pub struct ProgramRecording {
    /// Each request's records, in request order.
    pub loops: Vec<LoopRecords>,
    /// The most heap cells the run's golden snapshots held at once. A kept
    /// record holds its snapshot to the end of the run.
    pub snapshot_cells_peak: u64,
    /// The run's steps, split by whether a requested loop was live: the
    /// idle ones ran without the recorder's hooks.
    pub steps: TrackedSteps,
}

/// Where a watched loop stands in the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for its next candidate invocation.
    Waiting,
    /// An activation is being recorded.
    Recording,
    /// Every requested invocation was kept, or the loop failed.
    Done,
}

/// One watched loop's recording state. At most one of its activations
/// is recorded at a time.
struct Watch<'p> {
    rec_vars: Vec<VarId>,
    /// The loop's iterator slice: an instruction outside it is payload.
    slice: &'p IteratorSlice,
    /// Per block of the function, the index of its first payload
    /// instruction: `u32::MAX` for an all-slice block, 0 outside the loop.
    first_payload: Vec<u32>,
    /// Invocations with fewer committed iterations than this are skipped
    /// (there is nothing to permute below two iterations).
    min_trip: usize,
    max_trip: usize,
    /// Eligible (long-enough) invocations still to skip before keeping
    /// one: the requested invocations count *eligible* invocations.
    skips_left: u32,
    /// Invocations still to keep.
    keeps_left: u32,
    probe: Option<&'p mut FootprintProbe>,
    /// See [`RecordRequest::stop_at_fresh`].
    stop_at_fresh: bool,
    phase: Phase,
    /// The last call the recorded activation's frame made: an access in a
    /// callee takes its side.
    call_at: (BlockId, usize),
    /// The iterator values of the in-flight iteration, frozen at its first
    /// payload instruction (the point Fig. 4(c)'s `rt_iterator_linearize`
    /// placement corresponds to): by then a `for` iterator still holds its
    /// pre-increment value while a destructive pop has already produced
    /// this iteration's element.
    pending: Option<Vec<Value>>,
    iters: Vec<Vec<Value>>,
    /// Heap objects at the recorded activation's entry, set by the driver
    /// with the snapshot: younger objects are fresh.
    base_heap: usize,
    /// Stores to objects below this index join `writes`: `base_heap`
    /// when the exit state is kept for comparison, 0 for a record that
    /// stops at the loop exit.
    writes_below: usize,
    /// The cells of pre-existing objects the recorded activation stored
    /// to, once per store.
    writes: Vec<Addr>,
    /// The invocations requested.
    wanted: usize,
    /// Set by the driver: the recorded activation's entry snapshot with
    /// its heap cells, and the output items at its entry.
    snapshot: Option<(Snapshot, u64)>,
    base_output: usize,
    /// The invocations kept so far.
    kept: Vec<GoldenRecord>,
    /// Why the loop failed on its own, if it did.
    failure: Option<RecordError>,
}

impl Watch<'_> {
    fn capture(&self, vars: &[Value]) -> Vec<Value> {
        self.rec_vars.iter().map(|v| vars[v.index()]).collect()
    }

    /// The index of `block`'s first payload instruction (past its end if
    /// it has none).
    #[inline(always)]
    fn first_payload(&self, block: BlockId) -> usize {
        self.first_payload
            .get(block.index())
            .map_or(0, |&i| i as usize)
    }

    /// Hands an access by instruction `at` to the probe, on that
    /// instruction's side; true when it decides a `stop_at_fresh` watch.
    /// Out of line, so that the run loop's access sites stay small for
    /// unprofiled recordings.
    #[inline(never)]
    fn profile(&mut self, at: (BlockId, usize), addr: Addr, store: Option<(Value, Value)>) -> bool {
        let Some(p) = self.probe.as_deref_mut() else {
            return false;
        };
        let payload = !self.slice.contains(at);
        p.set_payload(payload);
        match store {
            None => p.read(addr.obj.0, addr.cell),
            Some((old, new)) => p.store(addr.obj.0, addr.cell, old, new),
        }
        self.stop_at_fresh
            && payload
            && addr.obj.index() >= self.base_heap
            && p.payload_touched(addr.obj.0, addr.cell)
    }

    /// Freezes the in-flight iteration's values.
    #[cold]
    #[inline(never)]
    fn freeze(&mut self, vars: &[Value]) {
        self.pending = Some(self.capture(vars));
    }

    /// Commits one iteration that ended at step `steps`.
    fn commit(&mut self, tuple: Vec<Value>, steps: u64) {
        self.iters.push(tuple);
        if let Some(p) = self.probe.as_deref_mut() {
            p.commit_iter(steps);
        }
    }
}

/// Each block's first payload instruction: the index of its first
/// instruction outside `slice`, `u32::MAX` for an all-slice block of `l`,
/// and 0 for a block outside `l`, where every instruction is payload.
fn first_payloads(f: &Function, l: &Loop, slice: &IteratorSlice) -> Vec<u32> {
    f.block_ids()
        .map(|b| {
            if !l.contains(b) {
                return 0;
            }
            (0..f.block(b).insts.len())
                .find(|&i| !slice.contains((b, i)))
                .map_or(u32::MAX, |i| i as u32)
        })
        .collect()
}

/// What `record_program` must do for one watched loop where the run stopped;
/// the sink cannot touch the machine.
enum Event {
    /// The recorded activation started: snapshot now.
    Enter,
    /// The recorded activation was passed over, or failed: drop its
    /// snapshot.
    Discard,
    /// The recorded activation exited and is kept: capture its
    /// [`ExitState`] now.
    Keep {
        iters: Vec<Vec<Value>>,
        writes: Vec<Addr>,
    },
    /// The recorded activation's payload touched a fresh object under
    /// `stop_at_fresh`: fail the loop with its snapshot.
    Fresh,
}

/// The golden-recording [`LoopSink`]: picks, among each watched loop's
/// activations, the invocations to record and records them. An
/// activation's state is the index of the watch recording it, if any.
struct GoldenSink<'p> {
    watches: Vec<Watch<'p>>,
    /// The watch of each watched loop.
    by_loop: HashMap<LoopRef, usize>,
    /// Requests to `record_program`: while there are any, the sink stops
    /// the run, and `record_program` acts on them with the machine where
    /// it stands.
    events: Vec<(usize, Event)>,
}

impl<'p> GoldenSink<'p> {
    /// The watch recording activation `act`, while it records.
    #[inline(always)]
    fn recording(&mut self, act: Option<usize>) -> Option<&mut Watch<'p>> {
        act.map(|r| &mut self.watches[r])
            .filter(|w| w.phase == Phase::Recording)
    }
}

impl LoopSink for GoldenSink<'_> {
    type Act = Option<usize>;

    fn enter(&mut self, lref: LoopRef, steps: u64, _: bool, _: &[Value]) -> Option<usize> {
        let r = self.by_loop[&lref];
        let w = &mut self.watches[r];
        // An activation starting while one is recorded runs in a deeper
        // recursive frame of the recorded one: it is not an invocation.
        if w.phase != Phase::Waiting {
            return None;
        }
        w.phase = Phase::Recording;
        w.base_heap = 0;
        if let Some(p) = w.probe.as_deref_mut() {
            p.begin_invocation(steps);
        }
        self.events.push((r, Event::Enter));
        Some(r)
    }

    fn iterate(&mut self, act: &mut Option<usize>, steps: u64, vars: &[Value]) {
        let Some(w) = self.recording(*act) else {
            return;
        };
        // All-slice iterations (no payload executed) commit their
        // header-arrival values; payload never reads them during replay.
        let tuple = w.pending.take().unwrap_or_else(|| w.capture(vars));
        w.commit(tuple, steps);
        if w.iters.len() > w.max_trip {
            w.phase = Phase::Done;
            w.failure = Some(RecordError::TripLimit);
            self.events.push((act.expect("recorded"), Event::Discard));
        }
    }

    // Each iteration's values freeze at its first payload instruction:
    // a block runs from its first instruction on, so that is one of its
    // blocks' first payload instructions, and the machine reports it.
    // Every recorded activation of the frame runs it, an outer loop's
    // included while an inner one is live.
    fn plan(&self, frame: &[Option<usize>], block: BlockId, from: usize) -> Option<usize> {
        frame
            .iter()
            .filter_map(|&act| {
                let w = &self.watches[act?];
                let first = w.first_payload(block);
                (w.phase == Phase::Recording && w.pending.is_none() && first != u32::MAX as usize)
                    .then(|| first.max(from))
            })
            .min()
    }

    fn inst(&mut self, frame: &mut [Option<usize>], block: BlockId, idx: usize, vars: &[Value]) {
        for &mut act in frame {
            let Some(w) = self.recording(act) else {
                continue;
            };
            if w.pending.is_none() && idx >= w.first_payload(block) {
                w.freeze(vars);
            }
        }
    }

    fn call(&mut self, frame: &mut [Option<usize>], block: BlockId, idx: usize) {
        for &mut act in frame {
            if let Some(w) = self.recording(act) {
                w.call_at = (block, idx);
            }
        }
    }

    fn stop(&self) -> bool {
        !self.events.is_empty()
    }

    fn exit(&mut self, _: LoopRef, act: Option<usize>, steps: Option<u64>) {
        let (Some(r), Some(steps)) = (act, steps) else {
            return;
        };
        let Some(w) = self.recording(act) else {
            return;
        };
        // The final partial iteration commits only if it did payload work
        // (a break), not when the header check simply failed.
        if let Some(tuple) = w.pending.take() {
            w.commit(tuple, steps);
        }
        let eligible = w.iters.len() >= w.min_trip;
        if !eligible || w.skips_left > 0 {
            // Too short to permute (does not use up a skip), or an
            // eligible invocation the caller asked to pass over: wait for
            // the next one.
            w.skips_left -= u32::from(eligible);
            w.iters.clear();
            w.writes.clear();
            w.phase = Phase::Waiting;
            if let Some(p) = w.probe.as_deref_mut() {
                p.abort_invocation();
            }
            self.events.push((r, Event::Discard));
        } else {
            w.keeps_left -= 1;
            w.phase = if w.keeps_left == 0 {
                Phase::Done
            } else {
                Phase::Waiting
            };
            // What accumulated since the last commit belongs to the failed
            // header check, not to an iteration.
            if let Some(p) = w.probe.as_deref_mut() {
                p.drop_partial();
            }
            let event = Event::Keep {
                iters: std::mem::take(&mut w.iters),
                writes: std::mem::take(&mut w.writes),
            };
            self.events.push((r, event));
        }
    }

    // Runs on every heap access while an activation is live, inlined
    // into the tracker's read and store hooks; the probe's share is out
    // of line. Each recorded activation's probe sees the access, and no
    // other probe: a probe is only ever fed while its watch records.
    #[inline(always)]
    fn access(
        &mut self,
        live: &mut [Option<usize>],
        at: AccessAt,
        addr: Addr,
        store: Option<(Value, Value)>,
    ) {
        for (k, &mut act) in live.iter_mut().enumerate() {
            let Some(r) = act else {
                continue;
            };
            let w = &mut self.watches[r];
            if w.phase != Phase::Recording {
                continue;
            }
            if store.is_some() && addr.obj.index() < w.writes_below {
                w.writes.push(addr);
            }
            if w.probe.is_some() {
                // An access in a callee takes the side of the call.
                let pos = if k >= at.frame {
                    (at.block, at.idx)
                } else {
                    w.call_at
                };
                if w.profile(pos, addr, store) {
                    w.phase = Phase::Done;
                    self.events.push((r, Event::Fresh));
                }
            }
        }
    }
}

/// Runs the golden execution once and records every requested loop from
/// that one run: for each request, what replay needs about each of its
/// invocations. The interpreter is deterministic, so each loop's records
/// are the ones a run recording that loop alone would give.
///
/// The machine is driven by one [`LoopTracker`] watching every requested
/// loop ([`LoopTracker::run`]: the stretches where none of them is live
/// run without the recorder's hooks), with an optional wall-clock
/// deadline and an optional [`CancelToken`], both checked cooperatively
/// every [`GOVERN_GRANULE`] steps, idle stretches included. `None` for
/// both keeps the recording loop free of clock reads and atomic loads. Each recorded activation keeps its own entry
/// snapshot and its own write set, the stored cells of objects that
/// existed at its entry, from which its [`ExitState`] is built at the
/// exit; nested tested loops and loops of different functions are
/// recorded side by side.
///
/// With `stop_at_exit` each record ends at its invocation's exit instead
/// of the program's (mirroring [`crate::replay::run_replay`]'s
/// `stop_at_loop_exit`): its `outcome` and `total_steps` describe the run
/// up to that exit, its [`ExitState`] keeps no heap, and the run stops
/// once every request has finished, so the machine stands at the last
/// kept exit. `on_exit(request, machine)` is called at every kept exit
/// with the machine standing there.
///
/// Failures follow the runs each loop would get alone. A trap or an
/// exhausted step budget, a deadline or a cancel fails every loop that has
/// not finished; under the program-end scope no loop finishes before the
/// program does. [`RecordError::TripLimit`] fails only its own loop, and
/// a loop whose invocations never all run is
/// [`RecordError::NotExercised`]. A request with `stop_at_fresh` fails
/// with [`RecordError::FreshAccess`] at its deciding access, before any
/// later failure.
#[allow(clippy::too_many_arguments)]
pub fn record_program(
    machine: &mut Machine<'_>,
    main: FuncId,
    args: &[Value],
    requests: Vec<RecordRequest<'_>>,
    max_steps: u64,
    deadline: Option<Instant>,
    cancel: Option<&CancelToken>,
    stop_at_exit: bool,
    on_exit: &mut dyn FnMut(usize, &Machine<'_>),
) -> ProgramRecording {
    let module = machine.module();
    let loops: Vec<(FuncId, &Loop)> = requests.iter().map(|q| (q.func, q.l)).collect();
    let mut by_loop = HashMap::new();
    let watches: Vec<Watch<'_>> = requests
        .into_iter()
        .enumerate()
        .map(|(r, q)| {
            let lref = LoopRef {
                func: q.func,
                loop_id: q.l.id,
            };
            assert!(by_loop.insert(lref, r).is_none(), "one request per loop");
            debug_assert!(
                !q.stop_at_fresh || q.probe.is_some(),
                "stop_at_fresh reads the probe"
            );
            let keeps = q.invocations.end.saturating_sub(q.invocations.start);
            Watch {
                rec_vars: q.slice.slice_vars.iter().copied().collect(),
                slice: q.slice,
                first_payload: first_payloads(module.func(q.func), q.l, q.slice),
                min_trip: q.min_trip,
                max_trip: q.max_trip,
                skips_left: q.invocations.start,
                keeps_left: keeps,
                probe: q.probe,
                stop_at_fresh: q.stop_at_fresh,
                phase: if keeps == 0 {
                    Phase::Done
                } else {
                    Phase::Waiting
                },
                call_at: (q.l.header, 0),
                pending: None,
                iters: Vec::new(),
                base_heap: 0,
                writes_below: 0,
                writes: Vec::new(),
                wanted: keeps as usize,
                snapshot: None,
                base_output: 0,
                kept: Vec::new(),
                failure: None,
            }
        })
        .collect();
    let idle = watches.iter().all(|w| w.phase == Phase::Done);
    let sink = GoldenSink {
        watches,
        events: Vec::new(),
        by_loop,
    };
    let mut tracker = LoopTracker::over(module, &loops, sink);
    let mut live_cells = 0u64;
    let mut peak = 0u64;
    let end: Result<Option<Value>, RecordError> = 'run: {
        if idle {
            break 'run Ok(None);
        }
        if let Err(t) = machine.push_call(main, args) {
            break 'run Err(RecordError::Trapped(t));
        }
        // The sink stops the run whenever it has events, so each snapshot
        // lands exactly at its header arrival.
        let start = machine.steps();
        let budget = start.saturating_add(max_steps);
        loop {
            if let Some(ret) = machine.result() {
                break 'run Ok(ret);
            }
            let now = machine.steps();
            if now >= budget {
                break 'run Err(RecordError::BudgetExhausted);
            }
            let mut end = budget;
            // Cooperative deadline and cancellation, one clock read /
            // atomic load per granule (checked at the first step too, so
            // a zero deadline or pre-tripped token fires
            // deterministically).
            if deadline.is_some() || cancel.is_some() {
                let n = now - start;
                if n.is_multiple_of(GOVERN_GRANULE) {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        break 'run Err(RecordError::DeadlineExpired);
                    }
                    if cancel.is_some_and(CancelToken::is_cancelled) {
                        break 'run Err(RecordError::Cancelled);
                    }
                }
                end = end.min(now - n % GOVERN_GRANULE + GOVERN_GRANULE);
            }
            match tracker.run(machine, end - now) {
                Ok(_) => {}
                Err(Trap::NotRunning) => break 'run Ok(machine.result().unwrap_or(None)),
                Err(t) => break 'run Err(RecordError::Trapped(t)),
            }
            let sink = tracker.sink_mut();
            if sink.events.is_empty() {
                continue;
            }
            for (r, event) in std::mem::take(&mut sink.events) {
                let w = &mut sink.watches[r];
                match event {
                    Event::Enter => {
                        let cells = machine.heap_cells();
                        live_cells += cells;
                        peak = peak.max(live_cells);
                        w.snapshot = Some((machine.snapshot(), cells));
                        w.base_heap = machine.heap_len();
                        w.writes_below = if stop_at_exit { 0 } else { w.base_heap };
                        w.base_output = machine.output().len();
                    }
                    Event::Discard => {
                        if let Some((_, cells)) = w.snapshot.take() {
                            live_cells -= cells;
                        }
                    }
                    Event::Fresh => {
                        let (snapshot, cells) =
                            w.snapshot.take().expect("a refused activation entered");
                        live_cells -= cells;
                        w.failure = Some(RecordError::FreshAccess(Arc::new(snapshot)));
                    }
                    Event::Keep { iters, writes } => {
                        let (snapshot, _) = w.snapshot.take().expect("a kept activation entered");
                        let exit = ExitState::capture(
                            machine,
                            w.base_heap,
                            w.base_output,
                            writes,
                            !stop_at_exit,
                        );
                        on_exit(r, machine);
                        w.kept.push(GoldenRecord {
                            snapshot: Arc::new(snapshot),
                            iters,
                            rec_vars: w.rec_vars.clone(),
                            // A record of the whole program gets its
                            // outcome at the program end.
                            outcome: ProgramOutcome {
                                output: if stop_at_exit {
                                    machine.output().to_vec()
                                } else {
                                    Vec::new()
                                },
                                ret: None,
                            },
                            total_steps: machine.steps(),
                            end_heap_cells: machine.heap_cells(),
                            exit,
                        });
                    }
                }
            }
            // Every loop finished: stop, unless a kept record still waits
            // for the program-end outcome.
            if sink.watches.iter().all(|w| w.phase == Phase::Done)
                && (stop_at_exit || sink.watches.iter().all(|w| w.kept.is_empty()))
            {
                break 'run Ok(None);
            }
        }
    };
    let program_end = end.as_ref().map(|&ret| {
        (
            ProgramOutcome::capture(machine, ret),
            machine.steps(),
            machine.heap_cells(),
        )
    });
    let steps = tracker.steps();
    let loops = tracker
        .finish()
        .watches
        .into_iter()
        .map(|w| {
            let mut out = LoopRecords::with_capacity(w.wanted);
            for mut g in w.kept {
                if !stop_at_exit {
                    match &program_end {
                        Ok((outcome, steps, cells)) => {
                            g.outcome = outcome.clone();
                            g.total_steps = *steps;
                            g.end_heap_cells = *cells;
                        }
                        Err(e) => {
                            out.push(Err((*e).clone()));
                            return out;
                        }
                    }
                }
                out.push(Ok(g));
            }
            if out.len() < w.wanted {
                let e = w.failure.or_else(|| end.clone().err());
                out.push(Err(e.unwrap_or(RecordError::NotExercised)));
            }
            out
        })
        .collect();
    ProgramRecording {
        loops,
        snapshot_cells_peak: peak,
        steps,
    }
}

/// Runs the golden execution for `l`, a loop of `func`, and records
/// everything replay needs about its invocation `invocation`, counted
/// among the invocations with at least `min_trip` committed iterations;
/// shorter ones are passed over. The recorded variables are the loop's
/// iterator-slice variables.
///
/// This is [`record_program`] with one request for one invocation; see
/// there for the deadline, the cancel token and `stop_at_exit`. With
/// `stop_at_exit` the machine is left standing at the invocation's exit:
/// for consumers that need the loop-entry snapshot, the iterator record
/// and the sequential exit state but not the golden outcome, such as the
/// parallel executor.
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
    let request = RecordRequest {
        func,
        l,
        slice,
        invocations: invocation..invocation + 1,
        min_trip,
        max_trip,
        probe,
        stop_at_fresh: false,
    };
    let run = record_program(
        machine,
        main,
        args,
        vec![request],
        max_steps,
        deadline,
        cancel,
        stop_at_exit,
        &mut |_, _| {},
    );
    run.loops
        .into_iter()
        .flatten()
        .next()
        .expect("one result for the one requested invocation")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DcaConfig;
    use dca_analysis::IteratorSlice;
    use dca_ir::{FuncView, Module};
    use std::ops::Range;

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
        assert_eq!(profile.len(), probed.iters.len());
        assert_eq!(probed.iters, plain.iters);
        assert!(profile.iters().all(|it| it.writes.len() == 1));
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
        for (k, it) in profile.iters().enumerate() {
            let x = 6 - k as u32;
            assert_eq!(it.reads, [(stack, x - 2)], "iteration {k}");
            assert_eq!(cells(it.writes), vec![(out, x)], "iteration {k}");
            assert_eq!(it.slice_reads, [(top, 0)], "iteration {k}");
            assert_eq!(cells(it.slice_writes), vec![(top, 0)], "iteration {k}");
        }
        assert_eq!(profile.len(), 5);
    }

    /// Records the loops tagged in `wanted` — (tag, invocations,
    /// trip limit) — from one run of `m`, counting invocations of at
    /// least two iterations.
    fn record_many(
        m: &Module,
        wanted: &[(&str, Range<u32>, usize)],
        stop_at_exit: bool,
    ) -> ProgramRecording {
        let views: Vec<FuncView<'_>> = (0..m.funcs.len())
            .map(|i| FuncView::new(m, FuncId(i as u32)))
            .collect();
        let found: Vec<_> = wanted
            .iter()
            .map(|(tag, invocations, max_trip)| {
                let (view, l) = views
                    .iter()
                    .find_map(|v| v.loops.by_tag(tag).map(|l| (v, l)))
                    .expect("tag");
                (
                    view,
                    l,
                    IteratorSlice::compute(view, l),
                    invocations,
                    max_trip,
                )
            })
            .collect();
        let requests = found
            .iter()
            .map(|(view, l, slice, invocations, &max_trip)| RecordRequest {
                func: view.id,
                l,
                slice,
                invocations: (*invocations).clone(),
                min_trip: 2,
                max_trip,
                probe: None,
                stop_at_fresh: false,
            })
            .collect();
        record_program(
            &mut Machine::new(m),
            m.main().expect("main"),
            &[],
            requests,
            DcaConfig::TEST_STEP_BUDGET,
            None,
            None,
            stop_at_exit,
            &mut |_, _| {},
        )
    }

    const MAX: usize = DcaConfig::DEFAULT_MAX_TRIP;

    /// The `Int` values of each recorded iteration.
    fn ints(g: &GoldenRecord) -> Vec<Vec<i64>> {
        g.iters
            .iter()
            .map(|vals| {
                vals.iter()
                    .filter_map(|v| match v {
                        Value::Int(x) => Some(*x),
                        _ => None,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn nested_tested_loops_freeze_the_outer_values_in_the_inner_header() {
        // The outer body starts with the inner loop, so the outer loop's
        // first payload instruction is in the inner loop's header block:
        // the outer activation must see it while the inner one is live.
        let src = "fn main() -> int { let a: [int; 8]; let k: int = 0; \
             @outer: for (let i: int = 0; i < 3; i = i + 1) { \
               @inner: while (k < (i + 1) * 2) { a[k] = i; k = k + 1; } } \
             return a[1] + a[3] + a[5]; }";
        let m = dca_ir::compile(src).expect("compile");
        let run = record_many(&m, &[("outer", 0..1, MAX), ("inner", 0..2, MAX)], false);
        let [outer, inner] = &run.loops[..] else {
            panic!("two loops")
        };
        let outer = outer[0].as_ref().expect("outer");
        let alone = record(src, "outer", 0, 2, None).expect("outer alone");
        assert_eq!(outer.iters, alone.iters);
        assert_eq!(outer.exit, alone.exit);
        // Frozen before the latch increments `i`: 0, 1, 2, not 1, 2, 3.
        let i_vals: Vec<i64> = ints(outer).iter().map(|v| v[0]).collect();
        assert_eq!(i_vals, [0, 1, 2]);
        assert_eq!(outer.outcome.ret, Some(Value::Int(3)));
        for (k, g) in inner.iter().enumerate() {
            let g = g.as_ref().expect("inner");
            let alone = record(src, "inner", k as u32, 2, None).expect("inner alone");
            assert_eq!((g.iters.len(), &g.iters), (2, &alone.iters));
            assert_eq!(g.exit, alone.exit);
            assert!(*g.snapshot == *alone.snapshot);
        }
    }

    #[test]
    fn trip_limit_fails_only_its_own_loop() {
        let src = "fn main() -> int { let s: int = 0; let t: int = 0; \
             @long: for (let i: int = 0; i < 5; i = i + 1) { s = s + i; } \
             @short: for (let j: int = 0; j < 3; j = j + 1) { t = t + j; } \
             return s * 10 + t; }";
        let m = dca_ir::compile(src).expect("compile");
        let run = record_many(&m, &[("long", 0..1, 3), ("short", 0..1, 3)], false);
        assert!(matches!(run.loops[0][..], [Err(RecordError::TripLimit)]));
        let short = run.loops[1][0].as_ref().expect("short records");
        assert_eq!(short.iters.len(), 3);
        // The run went on to the program end for the sibling.
        assert_eq!(short.outcome.ret, Some(Value::Int(103)));
        assert_eq!(
            short.total_steps,
            golden(src, "short").expect("alone").total_steps
        );
    }

    #[test]
    fn three_invocations_from_one_run() {
        // Trips 3, 1, 4, 5: the 1-trip invocation does not count.
        let src = "fn work(n: int) -> int { let a: [int; 8]; let s: int = 0; \
             @w: for (let i: int = 0; i < n; i = i + 1) { a[i] = i; s = s + a[i]; } \
             return s; }\n\
             fn main() -> int { return work(3) + work(1) + work(4) + work(5); }";
        let m = dca_ir::compile(src).expect("compile");
        let run = record_many(&m, &[("w", 0..3, MAX)], false);
        let records = &run.loops[0];
        assert_eq!(records.len(), 3);
        for (k, (g, trips)) in records.iter().zip([3, 4, 5]).enumerate() {
            let g = g.as_ref().expect("record");
            let alone = record(src, "w", k as u32, 2, None).expect("alone");
            assert_eq!(g.iters.len(), trips);
            assert_eq!(g.iters, alone.iters);
            assert_eq!(g.exit, alone.exit);
            assert_eq!(
                (&g.outcome, g.total_steps),
                (&alone.outcome, alone.total_steps)
            );
            assert!(*g.snapshot == *alone.snapshot);
        }
        // Each call allocates its 8-cell frame array, so the kept
        // snapshots hold 8, 24 and 32 cells, all alive at the end; the
        // skipped work(1) snapshot (16 cells) was dropped at its exit.
        assert_eq!(run.snapshot_cells_peak, 8 + 24 + 32);
        // A fourth eligible invocation never runs.
        assert_eq!(
            record_many(&m, &[("w", 2..4, MAX)], false).loops[0]
                .iter()
                .map(|g| g.as_ref().map(|g| g.iters.len()).map_err(Clone::clone))
                .collect::<Vec<_>>(),
            [Ok(5), Err(RecordError::NotExercised)]
        );
    }

    #[test]
    fn trap_between_exits_fails_only_the_later_loop_at_the_loop_exit() {
        let src = "fn main() -> int { let a: [int; 4]; let s: int = 0; let z: int = 0; \
             @first: for (let i: int = 0; i < 4; i = i + 1) { a[i] = i; } \
             s = a[z - 1]; \
             @second: for (let j: int = 0; j < 4; j = j + 1) { s = s + a[j]; } \
             return s; }";
        let m = dca_ir::compile(src).expect("compile");
        let wanted = [("first", 0..1, MAX), ("second", 0..1, MAX)];
        let at_exit = record_many(&m, &wanted, true);
        let first = at_exit.loops[0][0]
            .as_ref()
            .expect("first keeps its record");
        assert_eq!(first.iters.len(), 4);
        assert_eq!(first.total_steps, first.exit.steps);
        assert!(matches!(
            at_exit.loops[1][..],
            [Err(RecordError::Trapped(_))]
        ));
        // Each record a run of its loop alone gives.
        let m2 = dca_ir::compile(src).expect("compile");
        let views = FuncView::new(&m2, m2.main().expect("main"));
        let l = views.loops.by_tag("first").expect("tag");
        let alone = record_golden(
            &mut Machine::new(&m2),
            m2.main().expect("main"),
            &[],
            views.id,
            l,
            &IteratorSlice::compute(&views, l),
            0,
            2,
            MAX,
            DcaConfig::TEST_STEP_BUDGET,
            None,
            None,
            true,
            None,
        )
        .expect("alone");
        assert_eq!((&first.iters, &first.exit), (&alone.iters, &alone.exit));
        // Under the program-end scope the trap fails both.
        let to_end = record_many(&m, &wanted, false);
        for records in &to_end.loops {
            assert!(matches!(records[..], [Err(RecordError::Trapped(_))]));
        }
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
