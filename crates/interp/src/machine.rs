//! The IR interpreter.
//!
//! A [`Machine`] executes one program with an explicit frame stack, a
//! growable object heap, and an output stream. Execution is fully
//! deterministic and can be:
//!
//! * **snapshotted** and restored ([`Machine::snapshot`] /
//!   [`Machine::restore`]) — how DCA re-runs a loop invocation under
//!   permuted iteration orders from identical initial state,
//! * **observed and steered** through [`Hooks`] — how instrumentation
//!   (iterator recording, dependence profiling, replay control) attaches
//!   without touching program code,
//! * **metered** — every instruction and terminator costs one step, giving
//!   the per-iteration cost profiles the multicore simulator consumes.
//!
//! It runs the module's compiled code (`code.rs`): each frame owns a
//! window of one shared register stack, its function's variables followed
//! by the function's constants, and [`Machine::run`] is the one dispatch
//! loop. Hooks see only the variables of a window.

use crate::code::{const_value, zero_of, Code, FuncCode, Op, PrintItem, Slot, Term, NO_SLOT};
use crate::heap::Heap;
use crate::hooks::{Hooks, Plan, Site, TermAction};
use crate::value::{Addr, ObjId, Value};
use dca_ir::{BinOp, BlockId, FuncId, Intrinsic, Module, Ty, VarId};
use std::fmt;

/// One entry of the program's observable output stream.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputItem {
    /// A literal label from a `print` statement.
    Label(String),
    /// A printed value.
    Value(Value),
}

impl fmt::Display for OutputItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutputItem::Label(s) => write!(f, "{s}"),
            OutputItem::Value(v) => write!(f, "{v}"),
        }
    }
}

/// A runtime fault. Well-typed programs can still trap (null dereference,
/// out-of-bounds index, division by zero, runaway recursion or allocation);
/// ill-typed entry arguments surface as [`Trap::IllTyped`] or
/// [`Trap::ArityMismatch`] rather than aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// Dereferenced a null pointer.
    NullDeref,
    /// Indexed outside an object.
    OutOfBounds {
        /// Object length in cells.
        len: usize,
        /// Attempted index.
        index: i64,
    },
    /// Integer division or remainder by zero.
    DivByZero,
    /// Call stack exceeded the configured limit.
    StackOverflow,
    /// Heap exceeded the configured cell limit.
    OutOfMemory,
    /// Stepped a machine with no live frames.
    NotRunning,
    /// A call was made with the wrong number of arguments.
    ArityMismatch {
        /// Parameters the callee declares.
        expected: usize,
        /// Arguments actually supplied.
        given: usize,
    },
    /// An operation received a value of the wrong kind. Only reachable
    /// when entry arguments bypass the checker (IR produced by `compile`
    /// is type-correct internally); the payload names the operation.
    IllTyped(&'static str),
    /// A synthetic fault injected by a test harness (never produced by
    /// program execution itself).
    Injected,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::NullDeref => write!(f, "null pointer dereference"),
            Trap::OutOfBounds { len, index } => {
                write!(f, "index {index} out of bounds for object of {len} cells")
            }
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::StackOverflow => write!(f, "call stack overflow"),
            Trap::OutOfMemory => write!(f, "heap limit exceeded"),
            Trap::NotRunning => write!(f, "machine is not running"),
            Trap::ArityMismatch { expected, given } => {
                write!(f, "call expected {expected} argument(s), got {given}")
            }
            Trap::IllTyped(what) => write!(f, "ill-typed value in {what}"),
            Trap::Injected => write!(f, "injected synthetic fault"),
        }
    }
}

impl std::error::Error for Trap {}

/// Result of [`Machine::run`].
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The entry function returned; its return value, if any.
    Finished(Option<Value>),
    /// The step budget was exhausted before completion.
    Paused,
    /// [`Hooks::stop`] asked for the run to end, after a block entry or
    /// a return; the next step has not run.
    Stopped,
}

/// One call frame: where it stands, and where its register window starts
/// in the machine's register stack.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Frame {
    func: FuncId,
    block: BlockId,
    inst: u32,
    base: u32,
    /// The caller's slot for the return value ([`NO_SLOT`] for none).
    ret_dst: Slot,
}

/// Execution limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limits {
    /// Maximum call-stack depth.
    pub max_depth: usize,
    /// Maximum total heap cells. The heap's cell offsets are 32-bit, so
    /// a heap never holds more than `u32::MAX` cells whatever the limit.
    pub max_heap_cells: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_depth: 4096,
            max_heap_cells: 256 << 20,
        }
    }
}

/// A full copy of machine state, restorable with [`Machine::restore`].
///
/// `PartialEq` compares full state field-wise (floats by IEEE equality),
/// which differential tests use to assert two restore paths converge on
/// identical machines. The heap is one arena ([`Heap`]), so taking,
/// cloning and dropping a snapshot costs a few buffer copies or frees,
/// not one per object.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    heap: Heap,
    frames: Vec<Frame>,
    regs: Vec<Value>,
    output: Vec<OutputItem>,
    steps: u64,
    heap_cells: u64,
    finished: Option<Option<Value>>,
    entry_pending: bool,
}

impl Snapshot {
    /// Reads one heap cell of the captured state.
    ///
    /// # Panics
    ///
    /// Panics if `addr` does not name a cell of the captured heap.
    pub fn read_cell(&self, addr: Addr) -> Value {
        self.heap.get(addr)
    }

    /// Heap cells allocated in the captured state: what a restore copies.
    pub fn heap_cells(&self) -> u64 {
        self.heap_cells
    }
}

/// Where execution currently stands (used by stepping drivers to decide
/// when to snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Position {
    /// Current function.
    pub func: FuncId,
    /// Current block.
    pub block: BlockId,
    /// Next instruction index within the block (`== insts.len()` means the
    /// terminator is next).
    pub inst: usize,
    /// Frame depth (0 = entry frame).
    pub depth: usize,
}

/// Monotonic operation counters for one machine's lifetime.
///
/// Unlike [`Machine::steps`], these are **not** part of machine state:
/// [`Machine::restore`] does not rewind them, so they keep counting across
/// snapshot/restore cycles. Observability consumers read deltas around
/// the region they care about ([`OpCounts::since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Heap objects allocated (frame-local arrays, `new` structs/arrays).
    pub heap_allocs: u64,
    /// Heap cells allocated in total.
    pub heap_cells_allocated: u64,
    /// Heap cell reads (indexed, field and global loads).
    pub heap_reads: u64,
    /// Heap cell writes (indexed, field and global stores).
    pub heap_writes: u64,
}

impl OpCounts {
    /// The counts accumulated since `earlier` was captured.
    #[must_use]
    pub fn since(&self, earlier: &OpCounts) -> OpCounts {
        OpCounts {
            heap_allocs: self.heap_allocs - earlier.heap_allocs,
            heap_cells_allocated: self.heap_cells_allocated - earlier.heap_cells_allocated,
            heap_reads: self.heap_reads - earlier.heap_reads,
            heap_writes: self.heap_writes - earlier.heap_writes,
        }
    }

    /// Field-wise sum.
    #[must_use]
    pub fn plus(&self, other: &OpCounts) -> OpCounts {
        OpCounts {
            heap_allocs: self.heap_allocs + other.heap_allocs,
            heap_cells_allocated: self.heap_cells_allocated + other.heap_cells_allocated,
            heap_reads: self.heap_reads + other.heap_reads,
            heap_writes: self.heap_writes + other.heap_writes,
        }
    }
}

/// Undo record for one journaled heap-cell overwrite.
#[derive(Debug, Clone, Copy)]
struct CellUndo {
    addr: Addr,
    old: Value,
}

/// An armed write journal: everything needed to rewind the machine to
/// the state it had at [`Machine::begin_journal`] in time proportional
/// to the work performed since, not to total machine state.
///
/// Heap-cell overwrites are logged individually (old value per cell);
/// objects allocated after arming need no per-cell log because the heap
/// is append-only during execution, so truncating the arena back to the
/// armed length discards them wholesale. Frames and their registers are
/// captured by copy at arming time: [`Hooks`] implementations receive
/// `&mut [Value]` views of frame variables and may rewrite them without
/// the machine seeing the store, so per-write register journaling is
/// impossible — but the register stack is small next to the heap, so the
/// O(writes) bound still holds where it matters. Output is append-only
/// and rewound by watermark.
#[derive(Debug, Clone)]
struct Journal {
    base_heap_len: usize,
    base_heap_cells: u64,
    base_output_len: usize,
    base_steps: u64,
    base_finished: Option<Option<Value>>,
    base_entry_pending: bool,
    base_frames: Vec<Frame>,
    base_regs: Vec<Value>,
    cells: Vec<CellUndo>,
}

/// Monotonic journal counters for one machine's lifetime.
///
/// Like [`OpCounts`], these are harness state, not program state:
/// neither [`Machine::restore`] nor [`Machine::rollback`] rewinds them,
/// and observability consumers read deltas ([`JournalStats::since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Completed [`Machine::rollback`] calls.
    pub rollbacks: u64,
    /// Heap-cell undo records replayed by rollbacks.
    pub cells_undone: u64,
    /// Post-arming heap objects discarded by rollback truncation.
    pub objs_discarded: u64,
}

impl JournalStats {
    /// The counts accumulated since `earlier` was captured.
    #[must_use]
    pub fn since(&self, earlier: &JournalStats) -> JournalStats {
        JournalStats {
            rollbacks: self.rollbacks - earlier.rollbacks,
            cells_undone: self.cells_undone - earlier.cells_undone,
            objs_discarded: self.objs_discarded - earlier.objs_discarded,
        }
    }

    /// Field-wise sum.
    #[must_use]
    pub fn plus(&self, other: &JournalStats) -> JournalStats {
        JournalStats {
            rollbacks: self.rollbacks + other.rollbacks,
            cells_undone: self.cells_undone + other.cells_undone,
            objs_discarded: self.objs_discarded + other.objs_discarded,
        }
    }
}

/// Where a new frame's arguments come from.
enum Args<'a> {
    /// Values supplied by the embedder ([`Machine::push_call`]).
    Values(&'a [Value]),
    /// Slots of the caller's window at `from` (a call instruction).
    Slots { from: usize, slots: &'a [Slot] },
}

/// The interpreter state for one program execution.
#[derive(Debug, Clone)]
pub struct Machine<'m> {
    module: &'m Module,
    code: &'m Code,
    heap: Heap,
    frames: Vec<Frame>,
    /// The register stack: each frame's window, its variables followed by
    /// its function's constants, in frame order.
    regs: Vec<Value>,
    output: Vec<OutputItem>,
    steps: u64,
    heap_cells: u64,
    limits: Limits,
    finished: Option<Option<Value>>,
    /// The entry block of a frame pushed by [`Machine::push_call`] has
    /// not been reported to [`Hooks::on_block`] yet.
    entry_pending: bool,
    ops: OpCounts,
    /// Fault injection: allocations remaining before the next [`Machine::alloc`]
    /// traps with [`Trap::OutOfMemory`]. Like [`OpCounts`], this is harness
    /// state, not program state: [`Machine::restore`] does not reset it.
    alloc_fault: Option<u64>,
    /// Armed write journal, if any. `None` (the common case) costs one
    /// branch per heap store.
    journal: Option<Journal>,
    journal_stats: JournalStats,
}

impl<'m> Machine<'m> {
    /// Creates a machine with globals allocated and initialized; no frame
    /// is live until [`Machine::push_call`]. The first machine created
    /// for a module compiles its code, which every later one shares.
    pub fn new(module: &'m Module) -> Self {
        Self::with_limits(module, Limits::default())
    }

    /// Creates a machine with explicit execution limits.
    pub fn with_limits(module: &'m Module, limits: Limits) -> Self {
        let mut heap = Heap::default();
        for g in &module.globals {
            match &g.ty {
                Ty::Array(elem, n) => heap.push_filled(zero_of(elem), *n),
                ty => heap.push_filled(g.init.as_ref().map_or(zero_of(ty), const_value), 1),
            };
        }
        let heap_cells = heap.cell_count() as u64;
        Machine {
            module,
            code: Code::of(module),
            heap,
            frames: Vec::new(),
            regs: Vec::new(),
            output: Vec::new(),
            steps: 0,
            heap_cells,
            limits,
            finished: None,
            entry_pending: false,
            ops: OpCounts::default(),
            alloc_fault: None,
            journal: None,
            journal_stats: JournalStats::default(),
        }
    }

    /// Arms deterministic allocation-failure injection: the next `n` heap
    /// allocations succeed, the one after traps with [`Trap::OutOfMemory`].
    /// Exercises the genuine out-of-memory path without a huge heap.
    pub fn fail_alloc_after(&mut self, n: u64) {
        self.alloc_fault = Some(n);
    }

    /// Disarms allocation-failure injection. Harnesses that reuse one
    /// machine across replays call this between replays, since neither
    /// [`Machine::restore`] nor [`Machine::rollback`] resets it.
    pub fn clear_alloc_fault(&mut self) {
        self.alloc_fault = None;
    }

    /// The module being executed.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// Number of heap objects (globals first); the next allocation gets
    /// this id.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// The cells of one heap object — the accessor the streaming
    /// live-out digest walks with (no per-call allocation, no copy).
    ///
    /// # Panics
    ///
    /// Panics if `o` does not name a live heap object.
    pub fn obj_cells(&self, o: ObjId) -> &[Value] {
        self.heap.obj(o)
    }

    /// A copy of the heap objects from the `from`th on, renumbered from
    /// 0 ([`Heap::tail`]).
    pub fn heap_tail(&self, from: usize) -> Heap {
        self.heap.tail(from)
    }

    /// Number of global heap objects (they occupy the first heap slots,
    /// in declaration order).
    pub fn globals_len(&self) -> usize {
        self.module.globals.len()
    }

    /// The heap object backing global `g`.
    pub fn global_obj(&self, g: dca_ir::GlobalId) -> ObjId {
        ObjId(g.0)
    }

    /// The output stream so far.
    pub fn output(&self) -> &[OutputItem] {
        &self.output
    }

    /// Instructions and terminators executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Heap cells currently allocated — the quantity
    /// [`Limits::max_heap_cells`] bounds.
    pub fn heap_cells(&self) -> u64 {
        self.heap_cells
    }

    /// The machine's execution limits.
    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// Monotonic heap-operation counters for this machine's lifetime.
    /// Not rewound by [`Machine::restore`] — see [`OpCounts`].
    pub fn op_counts(&self) -> OpCounts {
        self.ops
    }

    /// The entry function's return value, once finished.
    pub fn result(&self) -> Option<Option<Value>> {
        self.finished
    }

    /// Current execution position, `None` when no frame is live.
    pub fn position(&self) -> Option<Position> {
        self.frames.last().map(|f| Position {
            func: f.func,
            block: f.block,
            inst: f.inst as usize,
            depth: self.frames.len() - 1,
        })
    }

    /// Where the current frame's variables sit in the register stack.
    fn var_range(&self) -> std::ops::Range<usize> {
        // invariant: documented API contract — callers only inspect
        // variables while a frame is live (never reachable from program
        // input, only from caller misuse).
        let f = self.frames.last().expect("no live frame");
        let base = f.base as usize;
        base..base + self.code.func(f.func).nvars as usize
    }

    /// Reads a variable of the *current* frame.
    ///
    /// # Panics
    ///
    /// Panics if no frame is live.
    pub fn read_var(&self, v: VarId) -> Value {
        self.regs[self.var_range()][v.index()]
    }

    /// Overwrites a variable of the *current* frame.
    ///
    /// # Panics
    ///
    /// Panics if no frame is live.
    pub fn write_var(&mut self, v: VarId, value: Value) {
        let vars = self.var_range();
        self.regs[vars][v.index()] = value;
    }

    /// Reads a memory cell directly (no hook events).
    pub fn read_cell(&self, addr: Addr) -> Value {
        self.heap.get(addr)
    }

    /// Overwrites a memory cell directly — no hook events, no journal
    /// entry, no op counting. Test and bench harnesses use this to build
    /// heap states source programs cannot express (specific NaN
    /// payloads, signed zeros); engine replay code never calls it.
    ///
    /// # Panics
    ///
    /// Panics if `addr` does not name a live cell.
    pub fn poke_cell(&mut self, addr: Addr, value: Value) {
        self.heap.set(addr, value);
    }

    /// Captures a restorable copy of the full machine state: a copy of
    /// each of the machine's buffers.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            heap: self.heap.clone(),
            frames: self.frames.clone(),
            regs: self.regs.clone(),
            output: self.output.clone(),
            steps: self.steps,
            heap_cells: self.heap_cells,
            finished: self.finished,
            entry_pending: self.entry_pending,
        }
    }

    /// Restores a snapshot (on this machine or any machine for the same
    /// module); the output stream is reset to the snapshot point. An
    /// armed journal is discarded: the snapshot wins.
    ///
    /// The output stream is append-only during execution, so a machine
    /// whose stream has reached or passed the snapshot watermark still
    /// holds the snapshot's prefix unchanged — truncating to the
    /// watermark is then equivalent to the old full clone without
    /// re-allocating every label. A shorter stream (e.g. a freshly
    /// constructed worker machine) genuinely lacks the prefix and takes
    /// the clone path. Restoring onto a machine whose output history
    /// diverged from the snapshot's (only possible by interleaving
    /// restores from unrelated snapshots) is unsupported and
    /// debug-checked.
    ///
    /// The heap and the register stack are copied into the buffers the
    /// machine already has.
    pub fn restore(&mut self, snap: &Snapshot) {
        self.journal = None;
        self.heap.clone_from(&snap.heap);
        self.frames.clone_from(&snap.frames);
        self.regs.clone_from(&snap.regs);
        if self.output.len() >= snap.output.len() {
            debug_assert!(
                output_prefix_eq(&self.output, &snap.output),
                "restore target's output diverged from the snapshot prefix"
            );
            self.output.truncate(snap.output.len());
        } else {
            self.output = snap.output.clone();
        }
        self.steps = snap.steps;
        self.heap_cells = snap.heap_cells;
        self.finished = snap.finished;
        self.entry_pending = snap.entry_pending;
    }

    /// Arms the write journal: until [`Machine::rollback`], every heap
    /// store logs the cell's prior value (for pre-existing objects) and
    /// the heap/output high-water marks are remembered, so the machine
    /// can be rewound to this exact state in O(writes performed) instead
    /// of O(total state). Frames and their registers are captured by
    /// copy here — hooks may rewrite variables through `&mut [Value]`
    /// without the machine observing the store, so they cannot be
    /// journaled per write.
    ///
    /// # Panics
    ///
    /// Panics if a journal is already armed; regions never nest.
    pub fn begin_journal(&mut self) {
        assert!(self.journal.is_none(), "journal already armed");
        self.journal = Some(Journal {
            base_heap_len: self.heap.len(),
            base_heap_cells: self.heap_cells,
            base_output_len: self.output.len(),
            base_steps: self.steps,
            base_finished: self.finished,
            base_entry_pending: self.entry_pending,
            base_frames: self.frames.clone(),
            base_regs: self.regs.clone(),
            cells: Vec::new(),
        });
    }

    /// Whether a journal is currently armed.
    pub fn journal_armed(&self) -> bool {
        self.journal.is_some()
    }

    /// The armed journal's heap-cell undo records, oldest first: one
    /// `(addr, prior_value)` pair per logged overwrite of a pre-existing
    /// object (a cell overwritten several times appears once per write,
    /// and its *first* record holds the value from before the region).
    /// Empty when no journal is armed. The parallel executor reads this
    /// as each worker's write-set: the touched cells are exactly these
    /// addresses, and the worker's contribution is the machine's current
    /// value at each of them.
    pub fn journal_writes(&self) -> impl Iterator<Item = (Addr, Value)> + '_ {
        self.journal
            .iter()
            .flat_map(|j| j.cells.iter().map(|u| (u.addr, u.old)))
    }

    /// Monotonic journal counters for this machine's lifetime. Not
    /// rewound by [`Machine::restore`] or [`Machine::rollback`] — see
    /// [`JournalStats`].
    pub fn journal_stats(&self) -> JournalStats {
        self.journal_stats
    }

    /// Rewinds the machine to the state it had at [`Machine::begin_journal`]
    /// and disarms the journal. Undo records are replayed newest-first,
    /// so a cell overwritten several times ends on its original value;
    /// objects allocated since arming are discarded by truncating the
    /// (append-only) heap arena. Safe after any exit from the journaled
    /// region — clean finish, trap mid-write, budget pause, or a panic caught
    /// by the engine's containment layer, in which case the *next* user
    /// of the machine rolls the armed journal back.
    ///
    /// # Panics
    ///
    /// Panics if no journal is armed.
    pub fn rollback(&mut self) {
        let j = self.journal.take().expect("rollback without armed journal");
        for u in j.cells.iter().rev() {
            self.heap.set(u.addr, u.old);
        }
        self.journal_stats.cells_undone += j.cells.len() as u64;
        self.journal_stats.objs_discarded += (self.heap.len() - j.base_heap_len) as u64;
        self.heap.truncate(j.base_heap_len);
        self.output.truncate(j.base_output_len);
        // Copied in, not moved: the register stack keeps the capacity
        // the run grew it to.
        self.frames.clone_from(&j.base_frames);
        self.regs.clone_from(&j.base_regs);
        self.steps = j.base_steps;
        self.heap_cells = j.base_heap_cells;
        self.finished = j.base_finished;
        self.entry_pending = j.base_entry_pending;
        self.journal_stats.rollbacks += 1;
    }

    /// Logs the prior value of a heap cell about to be overwritten, when
    /// a journal is armed and the object predates it (younger objects
    /// are discarded wholesale by rollback truncation).
    #[inline]
    fn journal_cell(&mut self, addr: Addr) {
        if let Some(j) = &mut self.journal {
            if addr.obj.index() < j.base_heap_len {
                j.cells.push(CellUndo {
                    addr,
                    old: self.heap.get(addr),
                });
            }
        }
    }

    /// Pushes a call frame for `func` with the given arguments, making it
    /// the running frame. `main` is typically pushed exactly once.
    ///
    /// The frame's entry block is reported to [`Hooks::on_block`] by the
    /// next [`Machine::run`] or [`Machine::step`], before its first step;
    /// a frame pushed by a call instruction has its entry reported as
    /// part of the call's step.
    ///
    /// # Errors
    ///
    /// Traps on stack overflow, if frame-array allocation exhausts the
    /// heap limit, or with [`Trap::ArityMismatch`] when the argument count
    /// does not match the signature.
    pub fn push_call(&mut self, func: FuncId, args: &[Value]) -> Result<(), Trap> {
        self.push_frame(func, Args::Values(args), NO_SLOT)?;
        self.entry_pending = true;
        Ok(())
    }

    /// Pushes a frame: a fresh register window from the function's
    /// template, its arguments bound and its frame arrays allocated. Once
    /// the register stack has grown to the run's deepest call chain, a
    /// call allocates nothing but its frame arrays' heap objects.
    fn push_frame(&mut self, func: FuncId, args: Args<'_>, ret_dst: Slot) -> Result<(), Trap> {
        if self.frames.len() >= self.limits.max_depth {
            return Err(Trap::StackOverflow);
        }
        let fc = self.code.func(func);
        let given = match args {
            Args::Values(v) => v.len(),
            Args::Slots { slots, .. } => slots.len(),
        };
        if given != fc.nparams as usize {
            return Err(Trap::ArityMismatch {
                expected: fc.nparams as usize,
                given,
            });
        }
        let base = self.regs.len();
        self.regs.extend_from_slice(&fc.template);
        match args {
            Args::Values(v) => self.regs[base..base + v.len()].copy_from_slice(v),
            Args::Slots { from, slots } => {
                for (i, &s) in slots.iter().enumerate() {
                    self.regs[base + i] = self.regs[from + s as usize];
                }
            }
        }
        for &(slot, zero, n) in &fc.arrays {
            match self.alloc(Fill::Value(zero, n)) {
                Ok(obj) => self.regs[base + slot as usize] = Value::Ptr(obj),
                Err(t) => {
                    self.regs.truncate(base);
                    return Err(t);
                }
            }
        }
        self.frames.push(Frame {
            func,
            block: BlockId(0),
            inst: 0,
            base: base as u32,
            ret_dst,
        });
        self.finished = None;
        Ok(())
    }

    /// Allocates one object at the end of the heap arena.
    fn alloc(&mut self, fill: Fill<'_>) -> Result<ObjId, Trap> {
        if let Some(left) = &mut self.alloc_fault {
            if *left == 0 {
                return Err(Trap::OutOfMemory);
            }
            *left -= 1;
        }
        let n = match fill {
            Fill::Value(_, n) => n,
            Fill::Copy(cells) => cells.len(),
        };
        self.ops.heap_allocs += 1;
        self.ops.heap_cells_allocated += n as u64;
        self.heap_cells += n as u64;
        if self.heap_cells > self.limits.max_heap_cells
            || (self.heap.cell_count() + n) as u64 > Heap::MAX_CELLS
        {
            return Err(Trap::OutOfMemory);
        }
        Ok(match fill {
            Fill::Value(v, n) => self.heap.push_filled(v, n),
            Fill::Copy(cells) => self.heap.push_copy(cells),
        })
    }

    /// Runs until the entry frame returns, `max_steps` are exhausted, or
    /// `hooks` ask to stop.
    ///
    /// The hooks' [`Hooks::stop`] is polled after each block entry and
    /// each return, before the next step: a `true` ends the run with
    /// [`Outcome::Stopped`], and a later `run` continues exactly there.
    /// Each block's instructions run under the [`Hooks::plan`] the hooks
    /// give for it, with no call between instructions.
    /// A frame pushed by [`Machine::push_call`] has its entry block
    /// reported first (see there).
    ///
    /// # Errors
    ///
    /// Propagates the first [`Trap`]; [`Trap::NotRunning`] when no frame
    /// is live and the machine has not finished.
    pub fn run<H: Hooks>(&mut self, hooks: &mut H, max_steps: u64) -> Result<Outcome, Trap> {
        self.exec(hooks, self.steps.saturating_add(max_steps), true)
    }

    /// Executes one instruction or terminator: [`Machine::run`] for one
    /// step, with the same hook events (a pending entry block included)
    /// and without polling [`Hooks::stop`].
    ///
    /// # Errors
    ///
    /// Returns the first [`Trap`], including [`Trap::NotRunning`] when no
    /// frame is live.
    pub fn step<H: Hooks>(&mut self, hooks: &mut H) -> Result<(), Trap> {
        if self.frames.is_empty() {
            return Err(Trap::NotRunning);
        }
        self.exec(hooks, self.steps + 1, false).map(drop)
    }

    /// The window of the frame at `base` running `fc`: its variables.
    ///
    /// The range is always in bounds; the empty fallback only keeps a
    /// panic path out of the step loop, so that hooks which ignore the
    /// variables cost nothing to call.
    #[inline(always)]
    fn window(&mut self, base: usize, fc: &FuncCode) -> &mut [Value] {
        let end = base + fc.nvars as usize;
        debug_assert!(end <= self.regs.len(), "a live frame's window");
        self.regs.get_mut(base..end).unwrap_or_default()
    }

    /// The dispatch loop: steps until the machine finishes, the step
    /// count reaches `budget_end`, a trap, or (when `poll`) the hooks ask
    /// to stop. A frame's position lives in locals while it runs and is
    /// written back whenever control leaves it.
    fn exec<H: Hooks>(
        &mut self,
        hooks: &mut H,
        budget_end: u64,
        poll: bool,
    ) -> Result<Outcome, Trap> {
        let code = self.code;
        if std::mem::take(&mut self.entry_pending) {
            if let Some(&fr) = self.frames.last() {
                let site = Site {
                    func: fr.func,
                    depth: self.frames.len() - 1,
                    steps: self.steps,
                    block: fr.block,
                    inst: 0,
                };
                let vars = self.window(fr.base as usize, code.func(fr.func));
                hooks.on_block(site, fr.block, vars);
                if poll && hooks.stop() {
                    return Ok(Outcome::Stopped);
                }
            }
        }
        'frames: loop {
            if let Some(ret) = self.finished {
                return Ok(Outcome::Finished(ret));
            }
            let depth = match self.frames.len() {
                0 if self.steps >= budget_end => return Ok(Outcome::Paused),
                0 => return Err(Trap::NotRunning),
                n => n - 1,
            };
            let fr = self.frames[depth];
            let func = fr.func;
            let fc = code.func(func);
            let base = fr.base as usize;
            let mut block = fr.block;
            let mut idx = fr.inst as usize;
            // Runs this frame until it calls or returns (both continue
            // `'frames`), or the run ends here.
            let end: Result<Outcome, Trap> = 'frame: loop {
                let bc = fc.blocks[block.index()];
                let ops = &fc.ops[bc.start as usize..bc.end as usize];
                // The block's instructions, one 64-instruction window at a
                // time, each window under the plan the hooks give for it.
                while idx < ops.len() {
                    let site = Site {
                        func,
                        depth,
                        steps: self.steps,
                        block,
                        inst: idx as u32,
                    };
                    let mut plan = hooks.plan(site, block, idx);
                    let wbase = idx & !63;
                    let wend = ops.len().min(wbase + 64);
                    while idx < wend {
                        // The next instruction the plan acts on: the
                        // reported one or the first skipped one.
                        let notify = plan.notify as usize;
                        let ahead = plan.skip >> (idx - wbase);
                        let mut stop = match ahead {
                            0 => wend,
                            _ => wend.min(idx + ahead.trailing_zeros() as usize),
                        };
                        if (idx..stop).contains(&notify) {
                            stop = notify;
                        }
                        while idx < stop {
                            if self.steps >= budget_end {
                                break 'frame Ok(Outcome::Paused);
                            }
                            let site = Site {
                                func,
                                depth,
                                steps: self.steps,
                                block,
                                inst: idx as u32,
                            };
                            self.steps += 1;
                            let i = idx;
                            idx += 1;
                            if let Op::Call {
                                dst,
                                func: callee,
                                args,
                            } = ops[i]
                            {
                                let top = &mut self.frames[depth];
                                top.block = block;
                                top.inst = idx as u32;
                                let callee = FuncId(callee);
                                hooks.on_call(site, callee);
                                let args = Args::Slots {
                                    from: base,
                                    slots: fc.args(args),
                                };
                                self.push_frame(callee, args, dst)?;
                                let site = Site {
                                    func: callee,
                                    depth: depth + 1,
                                    steps: self.steps,
                                    block: BlockId(0),
                                    inst: 0,
                                };
                                let cfc = code.func(callee);
                                let cbase = self.regs.len() - cfc.template.len();
                                hooks.on_block(site, BlockId(0), self.window(cbase, cfc));
                                if poll && hooks.stop() {
                                    return Ok(Outcome::Stopped);
                                }
                                continue 'frames;
                            }
                            if let Err(t) = self.exec_op(hooks, site, base, fc, ops[i]) {
                                break 'frame Err(t);
                            }
                        }
                        if idx == wend {
                            break;
                        }
                        if self.steps >= budget_end {
                            break 'frame Ok(Outcome::Paused);
                        }
                        let site = Site {
                            func,
                            depth,
                            steps: self.steps,
                            block,
                            inst: idx as u32,
                        };
                        if idx == notify {
                            hooks.inst(site, block, idx, self.window(base, fc));
                            plan = hooks.plan(site, block, idx);
                            if plan.notify as usize == idx {
                                plan.notify = Plan::NO_INST;
                            }
                            continue;
                        }
                        // A run of skipped instructions, up to the
                        // reported one: charged whole when the budget
                        // covers it, else up to the budget.
                        let mut run_end = wend.min(idx + (!ahead).trailing_zeros() as usize);
                        if (idx..run_end).contains(&notify) {
                            run_end = notify;
                        }
                        let n = (run_end - idx) as u64;
                        let room = budget_end - self.steps;
                        if n > room {
                            self.steps += room;
                            idx += room as usize;
                            break 'frame Ok(Outcome::Paused);
                        }
                        self.steps += n;
                        idx = run_end;
                    }
                }
                // The terminator.
                if self.steps >= budget_end {
                    break 'frame Ok(Outcome::Paused);
                }
                let site = Site {
                    func,
                    depth,
                    steps: self.steps,
                    block,
                    inst: ops.len() as u32,
                };
                self.steps += 1;
                let default_target = match bc.term {
                    Term::Jump(t) => Some(t),
                    Term::Branch {
                        cond,
                        then_bb,
                        else_bb,
                    } => match self.regs[base + cond as usize] {
                        Value::Bool(c) => Some(if c { then_bb } else { else_bb }),
                        // Reachable with a non-bool value when an entry
                        // argument of the wrong type flows into the
                        // condition.
                        _ => break 'frame Err(Trap::IllTyped("branch condition")),
                    },
                    Term::Return { .. } => None,
                };
                let action = hooks.on_term(site, block, default_target, self.window(base, fc));
                let target = match action {
                    TermAction::Goto(b) => Some(b),
                    TermAction::Default => default_target,
                };
                if let Some(t) = target {
                    block = t;
                    idx = 0;
                    let site = Site {
                        block: t,
                        inst: 0,
                        ..site
                    };
                    hooks.on_block(site, t, self.window(base, fc));
                    if poll && hooks.stop() {
                        break 'frame Ok(Outcome::Stopped);
                    }
                    continue 'frame;
                }
                // Return.
                let value = match bc.term {
                    Term::Return { value } if value != NO_SLOT => {
                        Some(self.regs[base + value as usize])
                    }
                    _ => None,
                };
                self.frames.pop();
                self.regs.truncate(base);
                let site = Site {
                    depth: self.frames.len(),
                    steps: self.steps,
                    ..site
                };
                hooks.on_return(site, func);
                match self.frames.last() {
                    None => {
                        self.finished = Some(value);
                        return Ok(Outcome::Finished(value));
                    }
                    Some(caller) => {
                        if fr.ret_dst != NO_SLOT {
                            // invariant: the IR checker rejects binding the
                            // result of a unit-returning call, so a frame
                            // with a result slot always returns a value.
                            self.regs[caller.base as usize + fr.ret_dst as usize] =
                                value.expect("checker: non-unit call has a value");
                        }
                    }
                }
                if poll && hooks.stop() {
                    return Ok(Outcome::Stopped);
                }
                continue 'frames;
            };
            let top = &mut self.frames[depth];
            top.block = block;
            top.inst = idx as u32;
            return end;
        }
    }

    /// Executes one instruction other than a call.
    #[inline(always)]
    fn exec_op<H: Hooks>(
        &mut self,
        hooks: &mut H,
        site: Site,
        base: usize,
        fc: &FuncCode,
        op: Op,
    ) -> Result<(), Trap> {
        macro_rules! reg {
            ($s:expr) => {
                self.regs[base + $s as usize]
            };
        }
        match op {
            Op::Copy { dst, src } => reg!(dst) = reg!(src),
            Op::Neg { dst, a } => {
                reg!(dst) = match reg!(a) {
                    Value::Int(x) => Value::Int(x.wrapping_neg()),
                    Value::Float(x) => Value::Float(-x),
                    _ => return Err(Trap::IllTyped("unary operation")),
                }
            }
            Op::Not { dst, a } => {
                reg!(dst) = match reg!(a) {
                    Value::Bool(x) => Value::Bool(!x),
                    _ => return Err(Trap::IllTyped("unary operation")),
                }
            }
            Op::Add { dst, a, b } => reg!(dst) = eval_bin(BinOp::Add, reg!(a), reg!(b))?,
            Op::Sub { dst, a, b } => reg!(dst) = eval_bin(BinOp::Sub, reg!(a), reg!(b))?,
            Op::Mul { dst, a, b } => reg!(dst) = eval_bin(BinOp::Mul, reg!(a), reg!(b))?,
            Op::Lt { dst, a, b } => reg!(dst) = eval_bin(BinOp::Lt, reg!(a), reg!(b))?,
            Op::Le { dst, a, b } => reg!(dst) = eval_bin(BinOp::Le, reg!(a), reg!(b))?,
            Op::Gt { dst, a, b } => reg!(dst) = eval_bin(BinOp::Gt, reg!(a), reg!(b))?,
            Op::Ge { dst, a, b } => reg!(dst) = eval_bin(BinOp::Ge, reg!(a), reg!(b))?,
            Op::Bin { dst, op, a, b } => reg!(dst) = eval_bin(op, reg!(a), reg!(b))?,
            Op::Intrin { dst, op, a, b } => {
                let b = (b != NO_SLOT).then(|| reg!(b));
                reg!(dst) = eval_intrin(op, reg!(a), b)?;
            }
            Op::LoadIndex {
                dst,
                base: p,
                index,
            } => {
                let addr = self.index_addr(ptr_base(reg!(p))?, reg!(index))?;
                reg!(dst) = self.load(hooks, site, addr);
            }
            Op::LoadGlobalIndex { dst, obj, index } => {
                let addr = self.index_addr(ObjId(obj), reg!(index))?;
                reg!(dst) = self.load(hooks, site, addr);
            }
            Op::StoreIndex {
                base: p,
                index,
                value,
            } => {
                let addr = self.index_addr(ptr_base(reg!(p))?, reg!(index))?;
                self.store(hooks, site, addr, reg!(value));
            }
            Op::StoreGlobalIndex { obj, index, value } => {
                let addr = self.index_addr(ObjId(obj), reg!(index))?;
                self.store(hooks, site, addr, reg!(value));
            }
            Op::LoadField { dst, obj, field } => {
                let addr = self.field_addr(reg!(obj), field)?;
                reg!(dst) = self.load(hooks, site, addr);
            }
            Op::StoreField { obj, field, value } => {
                let addr = self.field_addr(reg!(obj), field)?;
                self.store(hooks, site, addr, reg!(value));
            }
            Op::LoadGlobal { dst, obj } => {
                reg!(dst) = self.load(
                    hooks,
                    site,
                    Addr {
                        obj: ObjId(obj),
                        cell: 0,
                    },
                );
            }
            Op::StoreGlobal { obj, value } => {
                self.store(
                    hooks,
                    site,
                    Addr {
                        obj: ObjId(obj),
                        cell: 0,
                    },
                    reg!(value),
                );
            }
            Op::AllocStruct { dst, sid } => {
                let obj = self.alloc(Fill::Copy(&self.code.structs[sid as usize]))?;
                reg!(dst) = Value::Ptr(obj);
            }
            Op::AllocArray { dst, len } => {
                let n = match reg!(len) {
                    Value::Int(n) => n,
                    _ => return Err(Trap::IllTyped("array length")),
                };
                if n < 0 {
                    return Err(Trap::OutOfBounds { len: 0, index: n });
                }
                let obj = self.alloc(Fill::Value(Value::Int(0), n as usize))?;
                reg!(dst) = Value::Ptr(obj);
            }
            Op::Print { items } => {
                for item in &fc.prints[items as usize] {
                    self.output.push(match item {
                        PrintItem::Label(l) => OutputItem::Label(l.clone()),
                        &PrintItem::Value(s) => OutputItem::Value(reg!(s)),
                    });
                }
            }
            // invariant: the dispatch loop runs calls itself.
            Op::Call { .. } => unreachable!("calls are dispatched by `exec`"),
        }
        Ok(())
    }

    /// A heap read: counted, reported, performed.
    #[inline(always)]
    fn load<H: Hooks>(&mut self, hooks: &mut H, site: Site, addr: Addr) -> Value {
        self.ops.heap_reads += 1;
        hooks.on_read(site, addr);
        self.heap.get(addr)
    }

    /// A heap store: counted, reported with the old and new values,
    /// journaled, performed.
    #[inline(always)]
    fn store<H: Hooks>(&mut self, hooks: &mut H, site: Site, addr: Addr, v: Value) {
        self.ops.heap_writes += 1;
        hooks.on_write(site, addr);
        let old = self.heap.get(addr);
        hooks.on_store(site, addr, old, v);
        self.journal_cell(addr);
        self.heap.set(addr, v);
    }

    #[inline(always)]
    fn index_addr(&self, obj: ObjId, index: Value) -> Result<Addr, Trap> {
        let i = match index {
            Value::Int(i) => i,
            _ => return Err(Trap::IllTyped("index operand")),
        };
        let len = self.heap.obj_len(obj);
        if i < 0 || i as usize >= len {
            return Err(Trap::OutOfBounds { len, index: i });
        }
        Ok(Addr {
            obj,
            cell: i as u32,
        })
    }

    #[inline(always)]
    fn field_addr(&self, obj: Value, field: u32) -> Result<Addr, Trap> {
        let o = match obj {
            Value::Ptr(o) => o,
            Value::Null => return Err(Trap::NullDeref),
            _ => return Err(Trap::IllTyped("field base")),
        };
        // invariant: the checker bounds field indices by the struct layout,
        // and every pointer to a struct of that type has that many cells.
        debug_assert!((field as usize) < self.heap.obj_len(o));
        Ok(Addr {
            obj: o,
            cell: field,
        })
    }
}

/// What a new object's cells start as.
enum Fill<'a> {
    /// `n` copies of one value.
    Value(Value, usize),
    /// A copy of a template.
    Copy(&'a [Value]),
}

/// The object an indexed access goes through.
#[inline(always)]
fn ptr_base(v: Value) -> Result<ObjId, Trap> {
    match v {
        Value::Ptr(o) => Ok(o),
        Value::Null => Err(Trap::NullDeref),
        _ => Err(Trap::IllTyped("index base")),
    }
}

/// Debug check for [`Machine::restore`]'s truncate fast path: the target
/// machine's output must begin with the snapshot's stream. Floats compare
/// by bit pattern so a NaN printed before the snapshot point does not
/// fail the check against its own copy. (Compiled in release too —
/// `debug_assert!` type-checks its condition in every profile — but only
/// evaluated under `debug_assertions`.)
fn output_prefix_eq(long: &[OutputItem], prefix: &[OutputItem]) -> bool {
    long.len() >= prefix.len()
        && long[..prefix.len()]
            .iter()
            .zip(prefix)
            .all(|(a, b)| match (a, b) {
                (OutputItem::Value(Value::Float(x)), OutputItem::Value(Value::Float(y))) => {
                    x.to_bits() == y.to_bits()
                }
                _ => a == b,
            })
}

/// A binary operation. Inlined: the run loop's ops for the hot
/// operators pass a constant `op`, so each of them compiles to just its
/// own int and float cases and the trap.
#[inline(always)]
fn eval_bin(op: BinOp, a: Value, b: Value) -> Result<Value, Trap> {
    use BinOp::*;
    Ok(match (op, a, b) {
        (Add, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_add(y)),
        (Sub, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_sub(y)),
        (Mul, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_mul(y)),
        (Div, Value::Int(_), Value::Int(0)) | (Rem, Value::Int(_), Value::Int(0)) => {
            return Err(Trap::DivByZero)
        }
        (Div, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_div(y)),
        (Rem, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_rem(y)),
        (Add, Value::Float(x), Value::Float(y)) => Value::Float(x + y),
        (Sub, Value::Float(x), Value::Float(y)) => Value::Float(x - y),
        (Mul, Value::Float(x), Value::Float(y)) => Value::Float(x * y),
        (Div, Value::Float(x), Value::Float(y)) => Value::Float(x / y),
        (Eq, x, y) => Value::Bool(value_eq(x, y)?),
        (Ne, x, y) => Value::Bool(!value_eq(x, y)?),
        (Lt, Value::Int(x), Value::Int(y)) => Value::Bool(x < y),
        (Le, Value::Int(x), Value::Int(y)) => Value::Bool(x <= y),
        (Gt, Value::Int(x), Value::Int(y)) => Value::Bool(x > y),
        (Ge, Value::Int(x), Value::Int(y)) => Value::Bool(x >= y),
        (Lt, Value::Float(x), Value::Float(y)) => Value::Bool(x < y),
        (Le, Value::Float(x), Value::Float(y)) => Value::Bool(x <= y),
        (Gt, Value::Float(x), Value::Float(y)) => Value::Bool(x > y),
        (Ge, Value::Float(x), Value::Float(y)) => Value::Bool(x >= y),
        (BitAnd, Value::Int(x), Value::Int(y)) => Value::Int(x & y),
        (BitOr, Value::Int(x), Value::Int(y)) => Value::Int(x | y),
        (BitXor, Value::Int(x), Value::Int(y)) => Value::Int(x ^ y),
        (Shl, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_shl(y as u32 & 63)),
        (Shr, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_shr(y as u32 & 63)),
        _ => return Err(Trap::IllTyped("binary operation")),
    })
}

fn value_eq(a: Value, b: Value) -> Result<bool, Trap> {
    Ok(match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Ptr(x), Value::Ptr(y)) => x == y,
        (Value::Null, Value::Null) => true,
        (Value::Ptr(_), Value::Null) | (Value::Null, Value::Ptr(_)) => false,
        _ => return Err(Trap::IllTyped("equality comparison")),
    })
}

fn eval_intrin(op: Intrinsic, a: Value, b: Option<Value>) -> Result<Value, Trap> {
    use Intrinsic::*;
    fn flt(v: Value) -> Result<f64, Trap> {
        match v {
            Value::Float(x) => Ok(x),
            _ => Err(Trap::IllTyped("float intrinsic operand")),
        }
    }
    fn int(v: Value) -> Result<i64, Trap> {
        match v {
            Value::Int(x) => Ok(x),
            _ => Err(Trap::IllTyped("int intrinsic operand")),
        }
    }
    // invariant: the checker fixes intrinsic arity, so two-argument
    // intrinsics always arrive with `b` present; only the value *kinds*
    // can be wrong (via ill-typed entry arguments).
    let b2 = |b: Option<Value>| b.expect("checker: two-argument intrinsic");
    Ok(match op {
        Sqrt => Value::Float(flt(a)?.sqrt()),
        Sin => Value::Float(flt(a)?.sin()),
        Cos => Value::Float(flt(a)?.cos()),
        Exp => Value::Float(flt(a)?.exp()),
        Log => Value::Float(flt(a)?.ln()),
        Fabs => Value::Float(flt(a)?.abs()),
        Pow => Value::Float(flt(a)?.powf(flt(b2(b))?)),
        Fmin => Value::Float(flt(a)?.min(flt(b2(b))?)),
        Fmax => Value::Float(flt(a)?.max(flt(b2(b))?)),
        Iabs => Value::Int(int(a)?.wrapping_abs()),
        Imin => Value::Int(int(a)?.min(int(b2(b))?)),
        Imax => Value::Int(int(a)?.max(int(b2(b))?)),
        IntToFloat => Value::Float(int(a)? as f64),
        FloatToInt => Value::Int(flt(a)? as i64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;
    use dca_ir::{compile, Terminator};

    /// The parallel DCA engine runs one [`Machine`] per worker thread,
    /// all restored from one shared [`Snapshot`] of a shared [`Module`].
    /// That requires `Machine: Send` (created inside a worker) and
    /// `Snapshot`/`Value`/`Module`: `Sync` (borrowed across workers) —
    /// all automatic today because the interpreter state is plain owned
    /// data (no `Rc`, `RefCell` or raw pointers). This assertion turns a
    /// future regression into a compile error at the point of cause.
    #[test]
    fn machine_state_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Machine<'_>>();
        assert_send_sync::<Snapshot>();
        assert_send_sync::<Value>();
        assert_send_sync::<dca_ir::Module>();
    }

    fn run_main(src: &str) -> (Option<Value>, Vec<OutputItem>) {
        let m = compile(src).expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push main");
        match machine.run(&mut NoHooks, u64::MAX).expect("run") {
            Outcome::Finished(v) => (v, machine.output().to_vec()),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn ret_int(src: &str) -> i64 {
        run_main(src).0.expect("return value").as_int()
    }

    #[test]
    fn arithmetic_and_control_flow() {
        assert_eq!(ret_int("fn main() -> int { return 6 * 7; }"), 42);
        assert_eq!(
            ret_int(
                "fn main() -> int { let s: int = 0; \
                 for (let i: int = 0; i < 10; i = i + 1) { s = s + i; } return s; }"
            ),
            45
        );
        assert_eq!(
            ret_int(
                "fn main() -> int { let x: int = 5; \
                 if (x > 3 && x < 7) { return 1; } return 0; }"
            ),
            1
        );
    }

    #[test]
    fn recursion() {
        assert_eq!(
            ret_int(
                "fn fib(n: int) -> int { if (n < 2) { return n; } \
                 return fib(n - 1) + fib(n - 2); }\n\
                 fn main() -> int { return fib(12); }"
            ),
            144
        );
    }

    #[test]
    fn heap_structs_and_lists() {
        assert_eq!(
            ret_int(
                "struct Node { val: int, next: *Node }\n\
                 fn main() -> int {\n\
                   let head: *Node = null;\n\
                   for (let i: int = 0; i < 5; i = i + 1) {\n\
                     let n: *Node = new Node; n.val = i; n.next = head; head = n;\n\
                   }\n\
                   let s: int = 0; let p: *Node = head;\n\
                   while (p != null) { s = s + p.val; p = p.next; }\n\
                   return s;\n\
                 }"
            ),
            10
        );
    }

    #[test]
    fn fixed_and_heap_arrays() {
        assert_eq!(
            ret_int(
                "fn main() -> int { let a: [int; 8]; let b: *int = new [int; 8];\n\
                 for (let i: int = 0; i < 8; i = i + 1) { a[i] = i; b[i] = i * 10; }\n\
                 let s: int = 0;\n\
                 for (let i: int = 0; i < 8; i = i + 1) { s = s + a[i] + b[i]; }\n\
                 return s; }"
            ),
            28 + 280
        );
    }

    #[test]
    fn globals_shared_across_functions() {
        assert_eq!(
            ret_int(
                "let counter: int = 10;\nlet arr: [int; 4];\n\
                 fn bump() { counter = counter + 1; arr[0] = arr[0] + 2; }\n\
                 fn main() -> int { bump(); bump(); return counter + arr[0]; }"
            ),
            16
        );
    }

    #[test]
    fn float_math_and_casts() {
        let (v, _) = run_main(
            "fn main() -> float { let x: float = sqrt(16.0); \
             let i: int = 3; return x + i as float + fmax(0.5, 0.25); }",
        );
        let f = v.expect("value").as_float();
        assert!((f - 7.5).abs() < 1e-12);
    }

    #[test]
    fn print_produces_output() {
        let (_, out) = run_main(r#"fn main() { print("x", 1 + 1); print(3.5); }"#);
        assert_eq!(
            out,
            vec![
                OutputItem::Label("x".into()),
                OutputItem::Value(Value::Int(2)),
                OutputItem::Value(Value::Float(3.5)),
            ]
        );
    }

    #[test]
    fn traps() {
        let m = compile("fn main() -> int { let a: [int; 2]; return a[5]; }").expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        assert_eq!(
            machine.run(&mut NoHooks, u64::MAX),
            Err(Trap::OutOfBounds { len: 2, index: 5 })
        );

        let m = compile("struct N { v: int } fn main() -> int { let p: *N = null; return p.v; }")
            .expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        assert_eq!(machine.run(&mut NoHooks, u64::MAX), Err(Trap::NullDeref));

        let m = compile("fn main() -> int { let z: int = 0; return 1 / z; }").expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        assert_eq!(machine.run(&mut NoHooks, u64::MAX), Err(Trap::DivByZero));
    }

    #[test]
    fn arity_mismatch_traps_instead_of_panicking() {
        let m = compile("fn main(n: int) -> int { return n; }").expect("compile");
        let mut machine = Machine::new(&m);
        assert_eq!(
            machine.push_call(m.main().expect("main"), &[]),
            Err(Trap::ArityMismatch {
                expected: 1,
                given: 0
            })
        );
        assert_eq!(
            machine.push_call(m.main().expect("main"), &[Value::Int(1), Value::Int(2)]),
            Err(Trap::ArityMismatch {
                expected: 1,
                given: 2
            })
        );
    }

    #[test]
    fn ill_typed_entry_arguments_trap_instead_of_panicking() {
        // A bool where an int is expected flows into `n + 1`.
        let m = compile("fn main(n: int) -> int { return n + 1; }").expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[Value::Bool(true)])
            .expect("push");
        assert_eq!(
            machine.run(&mut NoHooks, u64::MAX),
            Err(Trap::IllTyped("binary operation"))
        );

        // An int where a bool is expected flows into a branch condition.
        let m =
            compile("fn main(f: bool) -> int { if (f) { return 1; } return 0; }").expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[Value::Int(7)])
            .expect("push");
        assert_eq!(
            machine.run(&mut NoHooks, u64::MAX),
            Err(Trap::IllTyped("branch condition"))
        );

        // An int where a pointer is expected flows into an indexed load.
        let m = compile("fn main(p: *int) -> int { return p[0]; }").expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[Value::Int(3)])
            .expect("push");
        assert_eq!(
            machine.run(&mut NoHooks, u64::MAX),
            Err(Trap::IllTyped("index base"))
        );
    }

    #[test]
    fn alloc_fault_injection_fails_the_nth_alloc() {
        let m = compile(
            "fn main() -> int { let a: *int = new [int; 4]; let b: *int = new [int; 4]; \
             let c: *int = new [int; 4]; return a[0] + b[0] + c[0]; }",
        )
        .expect("compile");
        let mut machine = Machine::new(&m);
        machine.fail_alloc_after(2);
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        assert_eq!(machine.run(&mut NoHooks, u64::MAX), Err(Trap::OutOfMemory));
        // Exactly two allocations succeeded before the injected failure.
        assert_eq!(machine.op_counts().heap_allocs, 2);
    }

    #[test]
    fn stack_overflow_trap() {
        let m = compile(
            "fn loopy(n: int) -> int { return loopy(n + 1); }\n\
             fn main() -> int { return loopy(0); }",
        )
        .expect("compile");
        let mut machine = Machine::with_limits(
            &m,
            Limits {
                max_depth: 64,
                ..Limits::default()
            },
        );
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        assert_eq!(
            machine.run(&mut NoHooks, u64::MAX),
            Err(Trap::StackOverflow)
        );
    }

    #[test]
    fn heap_limit_traps() {
        let m = compile(
            "struct N { v: int, next: *N }\n\
             fn main() { let head: *N = null; \
             for (let i: int = 0; i < 1000000; i = i + 1) { \
               let n: *N = new N; n.next = head; head = n; } }",
        )
        .expect("compile");
        let mut machine = Machine::with_limits(
            &m,
            Limits {
                max_heap_cells: 1024,
                ..Limits::default()
            },
        );
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        assert_eq!(machine.run(&mut NoHooks, u64::MAX), Err(Trap::OutOfMemory));
    }

    #[test]
    fn step_budget_pauses() {
        let m = compile("fn main() { while (true) { } }").expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        assert_eq!(
            machine.run(&mut NoHooks, 1000).expect("run"),
            Outcome::Paused
        );
        assert!(machine.steps() >= 1000);
    }

    #[test]
    fn snapshot_restore_is_identity() {
        let m = compile(
            "fn main() -> int { let s: int = 0; \
             for (let i: int = 0; i < 100; i = i + 1) { s = s + i; } return s; }",
        )
        .expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        // Run partway, snapshot, run to the end, restore, run again.
        machine.run(&mut NoHooks, 50).expect("run");
        let snap = machine.snapshot();
        let r1 = machine.run(&mut NoHooks, u64::MAX).expect("run");
        let steps1 = machine.steps();
        machine.restore(&snap);
        let r2 = machine.run(&mut NoHooks, u64::MAX).expect("run");
        assert_eq!(r1, r2);
        assert_eq!(steps1, machine.steps());
        assert_eq!(r1, Outcome::Finished(Some(Value::Int(4950))));
    }

    #[test]
    fn op_counts_track_heap_ops_and_survive_restore() {
        let m = compile(
            "fn main() -> int { let a: [int; 8]; let s: int = 0; \
             for (let i: int = 0; i < 8; i = i + 1) { a[i] = i; } \
             for (let i: int = 0; i < 8; i = i + 1) { s = s + a[i]; } return s; }",
        )
        .expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        // The frame-local array allocation is one heap alloc of 8 cells.
        assert_eq!(machine.op_counts().heap_allocs, 1);
        assert_eq!(machine.op_counts().heap_cells_allocated, 8);
        let snap = machine.snapshot();
        machine.run(&mut NoHooks, u64::MAX).expect("run");
        let after_first = machine.op_counts();
        assert_eq!(after_first.heap_writes, 8);
        assert_eq!(after_first.heap_reads, 8);
        // Restore rewinds steps but NOT the monotonic op counters; a
        // second run adds the same deltas on top.
        machine.restore(&snap);
        assert_eq!(machine.op_counts(), after_first);
        machine.run(&mut NoHooks, u64::MAX).expect("run");
        let delta = machine.op_counts().since(&after_first);
        assert_eq!(delta.heap_writes, 8);
        assert_eq!(delta.heap_reads, 8);
        assert_eq!(delta.heap_allocs, 0);
    }

    #[test]
    fn snapshot_truncates_output_on_restore() {
        let m = compile(r#"fn main() { print(1); print(2); }"#).expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        let snap = machine.snapshot();
        machine.run(&mut NoHooks, u64::MAX).expect("run");
        assert_eq!(machine.output().len(), 2);
        machine.restore(&snap);
        assert!(machine.output().is_empty());
        machine.run(&mut NoHooks, u64::MAX).expect("run");
        assert_eq!(machine.output().len(), 2);

        // Watermark path: a snapshot taken after the first print has a
        // non-empty output prefix. A machine that ran past it rewinds by
        // truncation; a fresh machine (shorter stream) takes the clone
        // path. Both end bit-identical to the snapshot.
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        while machine.output().is_empty() {
            machine.step(&mut NoHooks).expect("step");
        }
        let mid = machine.snapshot();
        machine.run(&mut NoHooks, u64::MAX).expect("run");
        assert_eq!(machine.output().len(), 2);
        machine.restore(&mid);
        assert_eq!(machine.output(), &[OutputItem::Value(Value::Int(1))]);
        machine.run(&mut NoHooks, u64::MAX).expect("run");
        assert_eq!(machine.output().len(), 2);

        let mut fresh = Machine::new(&m);
        assert!(fresh.output().is_empty());
        fresh.restore(&mid);
        assert_eq!(fresh.output(), &[OutputItem::Value(Value::Int(1))]);
        assert_eq!(fresh.snapshot(), mid);
    }

    #[test]
    fn journal_rollback_matches_full_restore() {
        // Touch every journaled dimension: pre-existing heap (the global
        // array), fresh allocations, frame vars, output, steps.
        let m = compile(
            "let acc: [int; 4];\n\
             fn main() -> int {\n\
               for (let i: int = 0; i < 4; i = i + 1) { acc[i] = acc[i] + i; }\n\
               let n: *int = new [int; 2];\n\
               n[0] = 7; print(acc[3]);\n\
               return acc[0] + acc[3] + n[0];\n\
             }",
        )
        .expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        machine.run(&mut NoHooks, 2).expect("run partway");
        let snap = machine.snapshot();
        machine.begin_journal();
        assert!(machine.journal_armed());
        let r1 = machine.run(&mut NoHooks, u64::MAX).expect("run");
        machine.rollback();
        assert!(!machine.journal_armed());
        // Rolled-back state is bit-identical to a full restore target.
        assert_eq!(machine.snapshot(), snap);
        let stats = machine.journal_stats();
        assert_eq!(stats.rollbacks, 1);
        assert!(stats.cells_undone >= 4, "global writes must be logged");
        assert!(stats.objs_discarded >= 1, "new [int; 2] must be discarded");
        // And re-running from the rolled-back state reproduces the run.
        let r2 = machine.run(&mut NoHooks, u64::MAX).expect("rerun");
        assert_eq!(r1, r2);
    }

    #[test]
    fn journal_rollback_is_safe_after_trap_mid_write() {
        // The second store traps out of bounds after the first landed;
        // rollback must still rewind the completed write.
        let m = compile(
            "let g: [int; 2];\n\
             fn main(i: int) { g[0] = 1; g[i] = 2; }",
        )
        .expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[Value::Int(9)])
            .expect("push");
        let snap = machine.snapshot();
        machine.begin_journal();
        assert_eq!(
            machine.run(&mut NoHooks, u64::MAX),
            Err(Trap::OutOfBounds { len: 2, index: 9 })
        );
        assert_eq!(
            machine.read_cell(Addr {
                obj: ObjId(0),
                cell: 0
            }),
            Value::Int(1)
        );
        machine.rollback();
        assert_eq!(machine.snapshot(), snap);
        assert_eq!(
            machine.read_cell(Addr {
                obj: ObjId(0),
                cell: 0
            }),
            Value::Int(0)
        );
    }

    #[test]
    fn restore_disarms_an_armed_journal() {
        let m = compile("let g: int = 3; fn main() { g = g + 1; }").expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        let snap = machine.snapshot();
        machine.begin_journal();
        machine.run(&mut NoHooks, u64::MAX).expect("run");
        machine.restore(&snap);
        assert!(!machine.journal_armed());
        assert_eq!(machine.snapshot(), snap);
        // The discarded journal contributed no rollback stats.
        assert_eq!(machine.journal_stats().rollbacks, 0);
    }

    /// Structs, heap arrays, a global array and a callee's frame arrays,
    /// all allocated and written on every pass of the loop.
    const HEAP_MIX: &str = "struct N { v: int, next: *N }\n\
         let g: [int; 3];\n\
         fn leaf(k: int) -> int { let t: [int; 4]; t[k % 4] = k; return t[k % 4] + 1; }\n\
         fn main() -> int {\n\
           let head: *N = null; let s: int = 0;\n\
           for (let i: int = 0; i < 12; i = i + 1) {\n\
             let n: *N = new N; n.v = leaf(i); n.next = head; head = n;\n\
             let a: *int = new [int; 5]; a[i % 5] = i; g[i % 3] = g[i % 3] + a[i % 5];\n\
           }\n\
           let p: *N = head;\n\
           while (p != null) { s = s + p.v; p = p.next; }\n\
           return s + g[0] + g[1] + g[2];\n\
         }";

    #[test]
    fn arena_snapshot_restore_and_rollback_return_to_the_snapshot() {
        let m = compile(HEAP_MIX).expect("compile");
        let main = m.main().expect("main");
        let mut machine = Machine::new(&m);
        machine.push_call(main, &[]).expect("push");
        machine.run(&mut NoHooks, 60).expect("run partway");
        let snap = machine.snapshot();
        let objs = machine.heap_len();
        assert!(objs > 3, "the loop allocated before the snapshot");

        // A journaled run allocates structs, arrays and frame arrays;
        // rollback truncates the arena back to the snapshot.
        machine.begin_journal();
        let r1 = machine.run(&mut NoHooks, u64::MAX).expect("run");
        let end = machine.snapshot();
        assert!(machine.heap_len() > objs);
        machine.rollback();
        assert_eq!(machine.snapshot(), snap);
        assert_eq!(machine.heap_len(), objs);

        // Restore after a full run, and onto a fresh machine.
        let r2 = machine.run(&mut NoHooks, u64::MAX).expect("rerun");
        assert_eq!(r1, r2);
        assert_eq!(machine.snapshot(), end);
        machine.restore(&snap);
        assert_eq!(machine.snapshot(), snap);
        let mut fresh = Machine::new(&m);
        fresh.restore(&snap);
        assert_eq!(fresh.snapshot(), snap);
        assert_eq!(fresh.run(&mut NoHooks, u64::MAX).expect("run"), r1);
        assert_eq!(fresh.snapshot(), end);

        // Every object reads back through the arena as it was written.
        let tail = fresh.heap_tail(objs);
        assert_eq!(tail.len(), fresh.heap_len() - objs);
        for (i, cells) in tail.objs().enumerate() {
            assert_eq!(cells, fresh.obj_cells(ObjId((objs + i) as u32)));
        }
        assert_eq!(
            tail.cell_count(),
            tail.objs().map(<[Value]>::len).sum::<usize>()
        );
    }

    #[test]
    fn heap_limit_traps_at_the_same_allocation_after_rollback_and_restore() {
        let m = compile(HEAP_MIX).expect("compile");
        let main = m.main().expect("main");
        let limits = Limits {
            max_heap_cells: 40,
            ..Limits::default()
        };
        let trap_at = |machine: &mut Machine<'_>| {
            let allocs = machine.op_counts().heap_allocs;
            let t = machine.run(&mut NoHooks, u64::MAX);
            (t, machine.steps(), machine.op_counts().heap_allocs - allocs)
        };
        let mut straight = Machine::with_limits(&m, limits);
        straight.push_call(main, &[]).expect("push");
        straight.run(&mut NoHooks, 40).expect("run partway");
        let snap = straight.snapshot();
        let first = trap_at(&mut straight);
        assert_eq!(first.0, Err(Trap::OutOfMemory));

        let mut machine = Machine::with_limits(&m, limits);
        machine.restore(&snap);
        machine.begin_journal();
        assert_eq!(trap_at(&mut machine), first);
        machine.rollback();
        assert_eq!(machine.snapshot(), snap);
        assert_eq!(trap_at(&mut machine), first);
        machine.restore(&snap);
        assert_eq!(trap_at(&mut machine), first);
    }

    #[test]
    fn arguments_passed_to_entry() {
        let m = compile("fn main(n: int) -> int { return n * 2; }").expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[Value::Int(21)])
            .expect("push");
        assert_eq!(
            machine.run(&mut NoHooks, u64::MAX).expect("run"),
            Outcome::Finished(Some(Value::Int(42)))
        );
    }

    #[test]
    fn hooks_observe_memory_and_blocks() {
        #[derive(Default)]
        struct Counter {
            reads: usize,
            writes: usize,
            blocks: usize,
            calls: usize,
        }
        impl Hooks for Counter {
            fn on_read(&mut self, _: Site, _: Addr) {
                self.reads += 1;
            }
            fn on_write(&mut self, _: Site, _: Addr) {
                self.writes += 1;
            }
            fn on_block(&mut self, _: Site, _: BlockId, _: &mut [Value]) {
                self.blocks += 1;
            }
            fn on_call(&mut self, _: Site, _: FuncId) {
                self.calls += 1;
            }
        }
        let m = compile(
            "fn touch(a: *int) { a[0] = a[0] + 1; }\n\
             fn main() { let a: *int = new [int; 4]; touch(a); touch(a); }",
        )
        .expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        let mut c = Counter::default();
        machine.run(&mut c, u64::MAX).expect("run");
        assert_eq!(c.calls, 2);
        assert_eq!(c.reads, 2);
        assert_eq!(c.writes, 2);
        assert!(c.blocks >= 1);
    }

    /// Logs block entries and returns, and stops the run after each of
    /// them when `stopping`.
    struct Blocks {
        events: Vec<(usize, BlockId, u64)>,
        stopping: bool,
    }

    impl Hooks for Blocks {
        fn on_block(&mut self, site: Site, block: BlockId, _: &mut [Value]) {
            self.events.push((site.depth, block, site.steps));
        }

        fn on_return(&mut self, site: Site, _: FuncId) {
            self.events
                .push((site.depth, BlockId(u32::MAX), site.steps));
        }

        fn stop(&self) -> bool {
            self.stopping
        }
    }

    #[test]
    fn entry_blocks_are_reported_once_under_run_step_and_stops() {
        let m = compile(
            "fn f(n: int) -> int { if (n > 1) { return n; } return 0; }\n\
             fn main() -> int { let s: int = 0; \
             for (let i: int = 0; i < 3; i = i + 1) { s = s + f(i); } return s; }",
        )
        .expect("compile");
        let drive = |how: u8| {
            let mut machine = Machine::new(&m);
            machine
                .push_call(m.main().expect("main"), &[])
                .expect("push");
            let mut hooks = Blocks {
                events: Vec::new(),
                stopping: how == 2,
            };
            let mut runs = 0;
            while machine.result().is_none() {
                match how {
                    1 => machine.step(&mut hooks).expect("step"),
                    _ => {
                        runs += 1;
                        machine.run(&mut hooks, u64::MAX).expect("run");
                    }
                }
            }
            (hooks.events, machine.result(), machine.steps(), runs)
        };
        let (events, ret, steps, runs) = drive(0);
        assert_eq!(runs, 1);
        // The entry block of `main` is reported first, at step 0.
        assert_eq!(events[0], (0, BlockId(0), 0));
        assert_eq!(ret, Some(Some(Value::Int(2))));
        let (stepped, ret1, steps1, _) = drive(1);
        assert_eq!((&events, ret, steps), (&stepped, ret1, steps1));
        // Stopping after every block entry and return splits the run
        // without adding or losing an event: each run but the last ends
        // right after one event, the last when `main` returns.
        let (stopped, ret2, steps2, runs2) = drive(2);
        assert_eq!((&events, ret, steps), (&stopped, ret2, steps2));
        assert_eq!(runs2, events.len());
    }

    #[test]
    fn hooks_can_skip_instructions() {
        // Skip every instruction.
        struct Skipper;
        impl Hooks for Skipper {
            fn plan(&self, _: Site, _: BlockId, _: usize) -> Plan {
                Plan::SKIP
            }
        }
        let m = compile("fn main() -> int { let x: int = 5; return x; }").expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        let out = machine.run(&mut Skipper, u64::MAX).expect("run");
        // With the `x = 5` copy skipped, x keeps its zero initialization.
        assert_eq!(out, Outcome::Finished(Some(Value::Int(0))));
    }

    #[test]
    fn planned_blocks_match_single_steps_under_any_budget() {
        /// Skips every third instruction of a block and every instruction
        /// of each fifth block entry, reports each block's second
        /// instruction, and logs the reports with their steps.
        #[derive(Default)]
        struct Planner {
            entries: u64,
            seen: Vec<(BlockId, usize, u64)>,
        }
        impl Hooks for Planner {
            fn on_block(&mut self, _: Site, _: BlockId, _: &mut [Value]) {
                self.entries += 1;
            }
            fn plan(&self, _: Site, _: BlockId, from: usize) -> Plan {
                if self.entries.is_multiple_of(5) {
                    return Plan::SKIP;
                }
                let mask = (0..64).step_by(3).fold(0u64, |m, k| m | 1 << k);
                let plan = Plan {
                    skip: mask,
                    notify: Plan::NO_INST,
                };
                if from <= 1 {
                    plan.notifying(1)
                } else {
                    plan
                }
            }
            fn inst(&mut self, site: Site, block: BlockId, idx: usize, _: &mut [Value]) {
                self.seen.push((block, idx, site.steps));
            }
        }
        // `g` is one block of over 64 instructions: two plan windows.
        let long: String = (0..40).map(|k| format!("y = y * 3 + {k}; ")).collect();
        let m = compile(&format!(
            "fn f(n: int) -> int {{ let a: int = n * 2; let b: int = a + 1; return a * b; }}\n\
             fn g(x: int) -> int {{ let y: int = x; {long}return y; }}\n\
             fn main() -> int {{ let s: int = 0; \
             for (let i: int = 0; i < 6; i = i + 1) {{ \
               let t: int = i + 1; let u: int = t * t; s = s + u + f(i) + g(i); }} return s; }}"
        ))
        .expect("compile");
        let drive = |budget: u64| {
            let mut machine = Machine::new(&m);
            machine
                .push_call(m.main().expect("main"), &[])
                .expect("push");
            let mut h = Planner::default();
            let mut runs = 0;
            while machine.result().is_none() {
                runs += 1;
                match budget {
                    0 => machine.step(&mut h).expect("step"),
                    b => drop(machine.run(&mut h, b).expect("run")),
                }
            }
            (h.seen, machine.result(), machine.steps(), runs)
        };
        let (seen, ret, steps, _) = drive(u64::MAX);
        assert!(!seen.is_empty());
        for budget in [0, 1, 2, 7, 64, 65] {
            let (s, r, n, runs) = drive(budget);
            assert_eq!((&s, r, n), (&seen, ret, steps), "budget {budget}");
            if budget > 0 {
                assert_eq!(runs as u64, steps.div_ceil(budget), "budget {budget}");
            }
        }
    }

    #[test]
    fn hooks_can_redirect_terminators() {
        struct ForceExit {
            exit: BlockId,
            fired: bool,
        }
        impl Hooks for ForceExit {
            fn on_term(
                &mut self,
                _: Site,
                _: BlockId,
                default_target: Option<BlockId>,
                _: &mut [Value],
            ) -> TermAction {
                if !self.fired && default_target.is_some() {
                    self.fired = true;
                    return TermAction::Goto(self.exit);
                }
                TermAction::Default
            }
        }
        // Without intervention this loops forever; redirecting the first
        // jump to the return block terminates immediately.
        let m = compile("fn main() -> int { while (true) { } return 9; }").expect("compile");
        let f = &m.funcs[0];
        let ret_block = f
            .block_ids()
            .find(|&b| matches!(f.block(b).term, Terminator::Return(Some(_))))
            .expect("return block");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        let mut h = ForceExit {
            exit: ret_block,
            fired: false,
        };
        assert_eq!(
            machine.run(&mut h, u64::MAX).expect("run"),
            Outcome::Finished(Some(Value::Int(9)))
        );
    }

    #[test]
    fn hooks_can_rewrite_variables() {
        struct Override;
        impl Hooks for Override {
            fn on_block(&mut self, site: Site, _: BlockId, vars: &mut [Value]) {
                // Overwrite every int var named by index 0 (parameter) once.
                if site.depth == 0 && !vars.is_empty() {
                    if let Value::Int(_) = vars[0] {
                        vars[0] = Value::Int(100);
                    }
                }
            }
        }
        let m = compile("fn main(n: int) -> int { return n; }").expect("compile");
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[Value::Int(1)])
            .expect("push");
        assert_eq!(
            machine.run(&mut Override, u64::MAX).expect("run"),
            Outcome::Finished(Some(Value::Int(100)))
        );
    }
}
