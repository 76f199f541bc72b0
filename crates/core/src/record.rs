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

use crate::outcome::ProgramOutcome;
use crate::parallel::CancelToken;
use crate::replay::GOVERN_GRANULE;
use dca_analysis::IteratorSlice;
use dca_deps::{FootprintProbe, LoopProfile};
use dca_interp::{
    Addr, Hooks, InstAction, Machine, Obj, ObjId, OutputItem, Position, Site, Snapshot, Trap, Value,
};
use dca_ir::{BlockId, FuncId, Function, Loop, VarId};
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
    /// Values of the recorded variables at the moment the loop exited.
    pub exit_vals: Vec<Value>,
    /// The first out-of-loop block control reached (the golden exit
    /// target).
    pub exit_target: BlockId,
    /// Frame depth the invocation ran at.
    pub depth: usize,
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
    /// Where control stood: the first instruction of the exit target,
    /// at the invocation's depth.
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

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the loop header.
    Waiting,
    /// Inside an invocation, recording it.
    Recording,
    /// Invocation kept; running to program end.
    Finishing,
}

struct Recorder<'a> {
    func: FuncId,
    header: BlockId,
    blocks: &'a BTreeSet<BlockId>,
    rec_vars: &'a [VarId],
    slice: &'a IteratorSlice,
    max_trip: usize,
    /// Invocations with fewer committed iterations than this are skipped
    /// (there is nothing to permute below two iterations); the recorder
    /// moves on to the next invocation.
    min_trip: usize,
    /// Eligible (long-enough) invocations still to skip before keeping
    /// one: the caller's invocation index counts *eligible* invocations.
    skips_left: u32,
    /// Tells the driver to drop the snapshot of a too-short invocation.
    discard_snapshot: bool,
    phase: Phase,
    /// Depth at which the tested invocation runs.
    depth: Option<usize>,
    /// Request flag: the driver should snapshot now.
    want_snapshot: bool,
    /// Request flag: the kept invocation just exited; the driver should
    /// capture the [`ExitState`] now.
    want_exit: bool,
    /// The iterator values of the in-flight iteration, frozen at its first
    /// payload instruction (the point Fig. 4(c)'s `rt_iterator_linearize`
    /// placement corresponds to): by then a `for` iterator still holds its
    /// pre-increment value while a destructive pop has already produced
    /// this iteration's element.
    pending: Option<Vec<Value>>,
    /// True between a header arrival and the loop exit/next arrival.
    in_iteration: bool,
    iters: Vec<Vec<Value>>,
    exit_vals: Vec<Value>,
    exit_target: Option<BlockId>,
    trip_overflow: bool,
}

impl Recorder<'_> {
    fn capture(&self, vars: &[Value]) -> Vec<Value> {
        self.rec_vars.iter().map(|v| vars[v.index()]).collect()
    }

    /// Discards the in-flight invocation and waits for the next one.
    fn restart(&mut self) {
        self.iters.clear();
        self.pending = None;
        self.in_iteration = false;
        self.discard_snapshot = true;
        self.depth = None;
        self.phase = Phase::Waiting;
    }
}

impl Hooks for Recorder<'_> {
    fn on_block(&mut self, site: Site, block: BlockId, vars: &mut [Value]) {
        if site.func != self.func {
            return;
        }
        match self.phase {
            Phase::Waiting => {
                if block == self.header {
                    self.phase = Phase::Recording;
                    self.depth = Some(site.depth);
                    self.want_snapshot = true;
                    self.pending = None;
                    self.in_iteration = true;
                }
            }
            Phase::Recording => {
                if Some(site.depth) != self.depth {
                    return;
                }
                if block == self.header {
                    // Iteration boundary: commit the finished iteration.
                    // All-slice iterations (no payload executed) commit
                    // their end-of-iteration values; payload never reads
                    // them during replay.
                    if self.in_iteration {
                        let tuple = self.pending.take().unwrap_or_else(|| self.capture(vars));
                        self.iters.push(tuple);
                        if self.iters.len() > self.max_trip {
                            self.trip_overflow = true;
                        }
                    }
                    self.in_iteration = true;
                    self.pending = None;
                } else if !self.blocks.contains(&block) {
                    // Loop exit: commit the final partial iteration only if
                    // it did payload work (a break), not when the header
                    // check simply failed.
                    if let Some(p) = self.pending.take() {
                        self.iters.push(p);
                    }
                    self.in_iteration = false;
                    if self.iters.len() < self.min_trip {
                        // Too short to permute: look for a longer
                        // invocation instead (does not consume a skip).
                        self.restart();
                    } else if self.skips_left > 0 {
                        // An eligible invocation the caller asked us to
                        // pass over.
                        self.skips_left -= 1;
                        self.restart();
                    } else {
                        self.exit_vals = self.capture(vars);
                        self.exit_target = Some(block);
                        self.want_exit = true;
                        self.phase = Phase::Finishing;
                    }
                }
            }
            Phase::Finishing => {}
        }
    }

    fn before_inst(
        &mut self,
        site: Site,
        block: BlockId,
        idx: usize,
        vars: &mut [Value],
    ) -> InstAction {
        if let Phase::Recording = self.phase {
            if self.pending.is_none()
                && site.func == self.func
                && Some(site.depth) == self.depth
                && self.blocks.contains(&block)
                && !self.slice.contains((block, idx))
            {
                // First payload instruction of this iteration: freeze the
                // iterator values the payload instance will consume.
                self.pending = Some(self.capture(vars));
            }
        }
        InstAction::Run
    }

    fn on_return(&mut self, site: Site, func: FuncId) {
        // The tested invocation's frame returned (the loop exited through
        // a `return` block that itself sits outside the loop — on_block
        // handles that first — or the whole function ended). Keep what was
        // recorded if it qualifies; otherwise look for another invocation.
        if let Phase::Recording = self.phase {
            if func == self.func && Some(site.depth) == self.depth {
                if self.iters.len() < self.min_trip || self.skips_left > 0 {
                    self.skips_left = self
                        .skips_left
                        .saturating_sub(u32::from(self.iters.len() >= self.min_trip));
                    self.restart();
                } else {
                    self.phase = Phase::Finishing;
                }
            }
        }
    }
}

/// Runs the golden execution for `l` (invocation `skip_invocations`) and
/// records everything replay needs.
///
/// `rec_vars` determines which variables are captured per iteration —
/// normally the loop's iterator-slice variables.
///
/// With `stop_at_exit` the run ends at the invocation's exit instead of
/// the program's (mirroring [`crate::replay::run_replay`]'s
/// `stop_at_loop_exit`): for consumers that need the loop-entry snapshot
/// and the iterator record but not the golden outcome, such as the
/// parallel executor. The record's `outcome` and `total_steps` then
/// describe the run up to the exit.
///
/// # Errors
///
/// See [`RecordError`].
#[allow(clippy::too_many_arguments)]
pub fn record_golden(
    machine: &mut Machine<'_>,
    main: FuncId,
    args: &[Value],
    func: FuncId,
    l: &Loop,
    slice: &IteratorSlice,
    skip_invocations: u32,
    max_trip: usize,
    max_steps: u64,
    stop_at_exit: bool,
) -> Result<GoldenRecord, RecordError> {
    let rec_vars: Vec<VarId> = slice.slice_vars.iter().copied().collect();
    machine
        .push_call(main, args)
        .map_err(RecordError::Trapped)?;
    let mut rec = new_recorder(func, l, &rec_vars, slice, skip_invocations, max_trip, 0);
    let run = drive(machine, &mut rec, max_steps, None, None, stop_at_exit)?;
    seal(rec, run, machine)
}

/// Like [`record_golden`], but skips invocations shorter than `min_trip`
/// committed iterations, recording the first one long enough to permute,
/// under an optional wall-clock deadline and an optional [`CancelToken`],
/// both checked cooperatively every [`GOVERN_GRANULE`] steps. `None` for
/// both keeps the recording loop free of clock reads and atomic loads.
///
/// # Errors
///
/// See [`RecordError`]; expiry yields [`RecordError::DeadlineExpired`],
/// a tripped token yields [`RecordError::Cancelled`].
#[allow(clippy::too_many_arguments)]
pub fn record_golden_governed(
    machine: &mut Machine<'_>,
    main: FuncId,
    args: &[Value],
    func: FuncId,
    l: &Loop,
    slice: &IteratorSlice,
    skip_invocations: u32,
    max_trip: usize,
    max_steps: u64,
    min_trip: usize,
    deadline: Option<Instant>,
    cancel: Option<&CancelToken>,
) -> Result<GoldenRecord, RecordError> {
    let rec_vars: Vec<VarId> = slice.slice_vars.iter().copied().collect();
    machine
        .push_call(main, args)
        .map_err(RecordError::Trapped)?;
    let mut rec = new_recorder(
        func,
        l,
        &rec_vars,
        slice,
        skip_invocations,
        max_trip,
        min_trip,
    );
    let run = drive(machine, &mut rec, max_steps, deadline, cancel, false)?;
    seal(rec, run, machine)
}

/// Like [`record_golden`], but additionally mines a per-iteration
/// memory/cost footprint ([`dca_deps::LoopProfile`]) from the same run: a
/// [`dca_deps::FootprintProbe`] composed with the recorder attributes
/// every heap access and every step to the committed iteration (and the
/// slice/payload side) it belongs to. The profile's iterations align 1:1
/// with the golden record's.
///
/// The plain recording path is untouched — disarmed recording pays
/// nothing for the probe's existence. `stop_at_exit` is as for
/// [`record_golden`].
///
/// # Errors
///
/// See [`RecordError`].
#[allow(clippy::too_many_arguments)]
pub fn record_golden_profiled(
    machine: &mut Machine<'_>,
    main: FuncId,
    args: &[Value],
    func: FuncId,
    func_ir: &Function,
    l: &Loop,
    slice: &IteratorSlice,
    skip_invocations: u32,
    max_trip: usize,
    max_steps: u64,
    stop_at_exit: bool,
) -> Result<(GoldenRecord, LoopProfile), RecordError> {
    let rec_vars: Vec<VarId> = slice.slice_vars.iter().copied().collect();
    machine
        .push_call(main, args)
        .map_err(RecordError::Trapped)?;
    let rec = new_recorder(func, l, &rec_vars, slice, skip_invocations, max_trip, 0);
    let mut probe = FootprintProbe::new();
    // Per-block attribution, resolved once. Most loop blocks are *uniform*
    // (all-slice or all-payload, the way the front end lowers them), and a
    // uniform block attributes once at block entry — the per-instruction
    // hook stays a pure delegation unless some block genuinely interleaves
    // slice and payload instructions.
    let mut attrs: Vec<BlockAttr> = (0..func_ir.blocks.len())
        .map(|_| BlockAttr::Outside)
        .collect();
    let mut any_mixed = false;
    for &b in &l.blocks {
        let ia: Vec<bool> = (0..func_ir.block(b).insts.len())
            .map(|idx| !slice.contains((b, idx)))
            .collect();
        attrs[b.index()] = match ia.split_first() {
            // An instruction-free block flips nothing — same as the
            // per-instruction path, which would never fire in it.
            None => BlockAttr::Outside,
            Some((&first, rest)) if rest.iter().all(|&p| p == first) => {
                BlockAttr::Uniform { payload: first }
            }
            Some(_) => {
                any_mixed = true;
                BlockAttr::Mixed(ia)
            }
        };
    }
    // Monomorphize the mixed-block flag away: with no mixed block (the
    // common case) the per-instruction hook compiles to the plain
    // recorder's, paying nothing per executed instruction.
    let (run, rec) = if any_mixed {
        let mut h = ProfiledRecorder::<true> {
            rec,
            attrs,
            probe: &mut probe,
        };
        let run = drive(machine, &mut h, max_steps, None, None, stop_at_exit)?;
        (run, h.rec)
    } else {
        let mut h = ProfiledRecorder::<false> {
            rec,
            attrs,
            probe: &mut probe,
        };
        let run = drive(machine, &mut h, max_steps, None, None, stop_at_exit)?;
        (run, h.rec)
    };
    let golden = seal(rec, run, machine)?;
    let profile = probe.finish();
    debug_assert_eq!(
        profile.iters.len(),
        golden.iters.len(),
        "profile iterations must align with the golden record"
    );
    Ok((golden, profile))
}

#[allow(clippy::too_many_arguments)]
fn new_recorder<'a>(
    func: FuncId,
    l: &'a Loop,
    rec_vars: &'a [VarId],
    slice: &'a IteratorSlice,
    skip_invocations: u32,
    max_trip: usize,
    min_trip: usize,
) -> Recorder<'a> {
    Recorder {
        func,
        header: l.header,
        blocks: &l.blocks,
        rec_vars,
        slice,
        max_trip,
        min_trip,
        skips_left: skip_invocations,
        discard_snapshot: false,
        phase: Phase::Waiting,
        depth: None,
        want_snapshot: false,
        want_exit: false,
        pending: None,
        in_iteration: false,
        iters: Vec::new(),
        exit_vals: Vec::new(),
        exit_target: None,
        trip_overflow: false,
    }
}

/// Hook stacks the recording driver accepts: the plain [`Recorder`] or a
/// composition wrapping one. The driver reads the recorder's request
/// flags (snapshot, discard, trip overflow) through this access.
trait RecAccess<'a>: Hooks {
    fn rec(&mut self) -> &mut Recorder<'a>;
}

impl<'a> RecAccess<'a> for Recorder<'a> {
    fn rec(&mut self) -> &mut Recorder<'a> {
        self
    }
}

/// What one recording run produced.
struct Run {
    /// `main`'s return value (`None` for a run stopped at the loop exit).
    ret: Option<Value>,
    /// The kept invocation's entry snapshot.
    snapshot: Option<Snapshot>,
    /// The kept invocation's exit state.
    exit: Option<ExitState>,
}

/// Steps the machine to completion — or, with `stop_at_exit`, to the
/// kept invocation's exit — under recording hooks `h`: the
/// manual-stepping loop shared by every `record_golden*` flavor, kept
/// generic so the plain path monomorphizes without any probe overhead.
///
/// The machine's write journal is armed at each invocation's entry
/// snapshot, so at the exit its write-set gives the [`ExitState`]; it
/// is disarmed, without rewinding, when the invocation is discarded or
/// exits, and the rest of the program runs unjournaled.
fn drive<'a, H: RecAccess<'a>>(
    machine: &mut Machine<'_>,
    h: &mut H,
    max_steps: u64,
    deadline: Option<Instant>,
    cancel: Option<&CancelToken>,
    stop_at_exit: bool,
) -> Result<Run, RecordError> {
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
        match machine.step(h) {
            Ok(()) => {}
            Err(Trap::NotRunning) => break machine.result().unwrap_or(None),
            Err(t) => return Err(RecordError::Trapped(t)),
        }
        let rec = h.rec();
        if rec.want_snapshot {
            rec.want_snapshot = false;
            snapshot = Some(machine.snapshot());
            base = (machine.heap().len(), machine.output().len());
            machine.begin_journal();
        }
        if rec.discard_snapshot {
            rec.discard_snapshot = false;
            snapshot = None;
            machine.disarm_journal();
        }
        if rec.trip_overflow {
            return Err(RecordError::TripLimit);
        }
        if rec.want_exit {
            rec.want_exit = false;
            exit = Some(ExitState::capture(machine, base.0, base.1));
            machine.disarm_journal();
            if stop_at_exit {
                break None;
            }
        }
    };
    Ok(Run {
        ret,
        snapshot,
        exit,
    })
}

/// Packages a finished recording into the [`GoldenRecord`].
fn seal(rec: Recorder<'_>, run: Run, machine: &Machine<'_>) -> Result<GoldenRecord, RecordError> {
    let snapshot = run.snapshot.ok_or(RecordError::NotExercised)?;
    let exit_target = rec.exit_target.ok_or(RecordError::NotExercised)?;
    let exit = run.exit.ok_or(RecordError::NotExercised)?;
    let rec_vars = rec.rec_vars.to_vec();
    let (iters, exit_vals, depth) = (rec.iters, rec.exit_vals, rec.depth);
    Ok(GoldenRecord {
        snapshot: Arc::new(snapshot),
        iters,
        rec_vars,
        exit_vals,
        exit_target,
        depth: depth.expect("recording started"),
        outcome: ProgramOutcome::capture(machine, run.ret),
        total_steps: machine.steps(),
        exit,
    })
}

/// Probe attribution for one block of the recorded function: whether its
/// instructions' memory effects are payload or iterator-slice work.
enum BlockAttr {
    /// Outside the loop (or instruction-free): entering it changes no
    /// attribution. Effects in callees keep the calling side's flag.
    Outside,
    /// Every instruction sits on one side — attributed once at block
    /// entry; the whole block executes once entered (a trap mid-block
    /// aborts the recording entirely), so entry attribution equals
    /// per-instruction attribution.
    Uniform {
        /// The single side of every instruction in the block: payload
        /// (`true`) or iterator slice (`false`).
        payload: bool,
    },
    /// Slice and payload instructions interleave: attribution must track
    /// each instruction (the loop header's compare-and-branch block
    /// sometimes carries a leading payload store). One side flag per
    /// instruction.
    Mixed(Vec<bool>),
}

/// The [`Recorder`] composed with a [`FootprintProbe`]: delegates every
/// recording decision to the inner recorder unchanged and mirrors its
/// phase transitions into probe lifecycle calls, so the profile's
/// iteration boundaries are *defined by* the recorder's commits — the
/// two can never disagree about what iteration `k` was.
/// `MIXED` mirrors whether any loop block is [`BlockAttr::Mixed`]; with
/// `false` (the common case) the per-instruction hook monomorphizes to a
/// pure delegation.
struct ProfiledRecorder<'a, 'p, const MIXED: bool> {
    rec: Recorder<'a>,
    /// A [`BlockAttr`] for every block of the recorded function.
    attrs: Vec<BlockAttr>,
    probe: &'p mut FootprintProbe,
}

impl<'a, const MIXED: bool> RecAccess<'a> for ProfiledRecorder<'a, '_, MIXED> {
    fn rec(&mut self) -> &mut Recorder<'a> {
        &mut self.rec
    }
}

impl<const MIXED: bool> ProfiledRecorder<'_, '_, MIXED> {
    /// Translates a recorder phase/commit transition (observed around a
    /// delegated hook call) into probe lifecycle events.
    fn sync(&mut self, was: (Phase, usize), steps: u64) {
        let now = (self.rec.phase, self.rec.iters.len());
        match (was.0, now.0) {
            (Phase::Waiting, Phase::Recording) => self.probe.begin_invocation(steps),
            (Phase::Recording, Phase::Waiting) => self.probe.abort_invocation(),
            _ => {}
        }
        if now.1 > was.1 {
            self.probe.commit_iter(steps);
        }
        if now.0 == Phase::Finishing && was.0 != Phase::Finishing {
            // Loop exited; whatever accumulated since the last commit
            // belongs to the failed header check, not to an iteration.
            self.probe.drop_partial();
        }
    }
}

impl<const MIXED: bool> Hooks for ProfiledRecorder<'_, '_, MIXED> {
    fn on_block(&mut self, site: Site, block: BlockId, vars: &mut [Value]) {
        if site.func != self.rec.func || self.rec.phase == Phase::Finishing {
            // The plain recorder ignores foreign-function blocks and is
            // inert once the kept invocation exited, so there is no
            // transition to mirror and no attribution to flip (callee
            // effects keep the calling side's flag).
            return;
        }
        let was = (self.rec.phase, self.rec.iters.len());
        self.rec.on_block(site, block, vars);
        self.sync(was, site.steps);
        if self.rec.phase == Phase::Recording && Some(site.depth) == self.rec.depth {
            if let BlockAttr::Uniform { payload } = self.attrs[block.index()] {
                self.probe.set_payload(payload);
            }
        }
    }

    fn before_inst(
        &mut self,
        site: Site,
        block: BlockId,
        idx: usize,
        vars: &mut [Value],
    ) -> InstAction {
        let act = self.rec.before_inst(site, block, idx, vars);
        // Attribute subsequent memory effects: payload or slice. Uniform
        // blocks were attributed at entry; only a mixed block needs the
        // flag tracked per instruction, and only loop-level instructions
        // flip it, so effects inside callees attribute to the calling
        // instruction's side.
        if MIXED
            && self.rec.phase == Phase::Recording
            && site.func == self.rec.func
            && Some(site.depth) == self.rec.depth
        {
            if let BlockAttr::Mixed(sides) = &self.attrs[block.index()] {
                self.probe.set_payload(sides[idx]);
            }
        }
        act
    }

    fn on_return(&mut self, site: Site, func: FuncId) {
        if func != self.rec.func || self.rec.phase != Phase::Recording {
            return;
        }
        let was = (self.rec.phase, self.rec.iters.len());
        self.rec.on_return(site, func);
        self.sync(was, site.steps);
    }

    fn on_read(&mut self, _site: Site, addr: Addr) {
        self.probe.read(addr.obj.0, addr.cell);
    }

    fn on_store(&mut self, _site: Site, addr: Addr, old: Value, new: Value) {
        self.probe.store(addr.obj.0, addr.cell, old, new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DcaConfig;
    use dca_analysis::IteratorSlice;
    use dca_ir::FuncView;

    fn golden(src: &str, tag: &str) -> Result<GoldenRecord, RecordError> {
        let m = dca_ir::compile(src).expect("compile");
        let main = m.main().expect("main");
        // Find the tagged loop anywhere in the module.
        for (i, _) in m.funcs.iter().enumerate() {
            let fid = dca_ir::FuncId(i as u32);
            let view = FuncView::new(&m, fid);
            if let Some(l) = view.loops.by_tag(tag) {
                let slice = IteratorSlice::compute(&view, l);
                let mut machine = Machine::new(&m);
                return record_golden(
                    &mut machine,
                    main,
                    &[],
                    fid,
                    l,
                    &slice,
                    0,
                    DcaConfig::DEFAULT_MAX_TRIP,
                    DcaConfig::TEST_STEP_BUDGET,
                    false,
                );
            }
        }
        panic!("no loop tagged @{tag}");
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
        let m = dca_ir::compile(src).expect("compile");
        let main = m.main().expect("main");
        let fid = m.func_by_name("work").expect("work");
        let view = FuncView::new(&m, fid);
        let l = view.loops.by_tag("w").expect("tag");
        let slice = IteratorSlice::compute(&view, l);
        let mut machine = Machine::new(&m);
        let g = record_golden(
            &mut machine,
            main,
            &[],
            fid,
            l,
            &slice,
            1,
            DcaConfig::DEFAULT_MAX_TRIP,
            DcaConfig::TEST_STEP_BUDGET,
            false,
        )
        .expect("record");
        assert_eq!(g.iters.len(), 5, "second invocation has 5 iterations");
    }

    #[test]
    fn invocation_indices_count_eligible_invocations() {
        // Invocations run with trips 0, 3, 1, 5: indices must select the
        // 3-trip and then the 5-trip invocation (short ones don't count).
        let src = "fn work(n: int) -> int { let s: int = 0; \
             @w: for (let i: int = 0; i < n; i = i + 1) { s = s + i; } return s; }\n\
             fn main() -> int { return work(0) + work(3) + work(1) + work(5); }";
        let m = dca_ir::compile(src).expect("compile");
        let fid = m.func_by_name("work").expect("work");
        let view = FuncView::new(&m, fid);
        let l = view.loops.by_tag("w").expect("tag");
        let slice = IteratorSlice::compute(&view, l);
        let trips_of = |skip: u32| {
            let mut machine = Machine::new(&m);
            crate::record::record_golden_governed(
                &mut machine,
                m.main().expect("main"),
                &[],
                fid,
                l,
                &slice,
                skip,
                DcaConfig::DEFAULT_MAX_TRIP,
                DcaConfig::TEST_STEP_BUDGET,
                2,
                None,
                None,
            )
            .map(|g| g.iters.len())
        };
        assert_eq!(trips_of(0).expect("first eligible"), 3);
        assert_eq!(trips_of(1).expect("second eligible"), 5);
        assert_eq!(trips_of(2), Err(RecordError::NotExercised));
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
        let g = golden(
            "fn main() -> int { let s: int = 0; \
             @l: for (let i: int = 0; i < 3; i = i + 1) { s = s + i; } return s; }",
            "l",
        )
        .expect("record");
        // exit_vals captured the final iterator state (i == 3 among them).
        assert!(g.exit_vals.iter().any(|v| matches!(v, Value::Int(3))));
        assert_eq!(g.depth, 0);
    }
}
