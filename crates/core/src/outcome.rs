//! Outcome capture and comparison — the "live-out verification" step
//! (paper §IV-B3).
//!
//! Two capture scopes exist (see [`crate::config::VerifyScope`]): the whole
//! program's observable outcome, and a loop-exit state digest built from
//! live-out scalars plus a *canonical* serialization of the reachable heap.
//! Canonicalization numbers objects by first visit during a deterministic
//! traversal from the roots, so heaps that differ only in allocation order
//! (as permuted executions legitimately do) still compare equal.

use crate::config::DigestMode;
pub use dca_deps::canon_f64_bits;
use dca_interp::{Machine, ObjId, OutputItem, Value};
use dca_rng::{Block4, Fingerprint};
use std::collections::HashMap;
use std::fmt;

/// Compares two floats under a relative tolerance.
///
/// Canonically-bitwise-equal floats always match, *before* any finiteness
/// or tolerance logic: NaN equals NaN (any payloads), equal infinities
/// match, and `-0.0 == +0.0`. A NaN never matches a non-NaN, and opposite
/// infinities never match. Finite, bitwise-distinct floats fall through
/// to the relative-tolerance comparison.
pub fn float_close(a: f64, b: f64, rel_tol: f64) -> bool {
    if canon_f64_bits(a) == canon_f64_bits(b) {
        return true;
    }
    if !a.is_finite() || !b.is_finite() {
        return false;
    }
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= rel_tol * scale.max(1.0)
}

fn value_close(a: &Value, b: &Value, rel_tol: f64) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => float_close(*x, *y, rel_tol),
        (x, y) => x == y,
    }
}

/// The first point where a permuted execution's live-out state diverged
/// from the golden reference — carried by
/// [`crate::Violation::OutcomeMismatch`] so reports can say *what*
/// differed, not just that something did.
///
/// Produced by a deterministic walk of both states in canonical order
/// (scalars, then heap objects in first-visit order, then cells), so the
/// reported divergence is identical at every worker-thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// A live-out root variable differs.
    Root {
        /// Source name of the variable.
        name: String,
        /// Its value in the golden reference, rendered.
        golden: String,
        /// Its value in the permuted replay, rendered.
        permuted: String,
    },
    /// The reachable heaps differ in object count.
    ObjectCount {
        /// Objects reachable in the reference.
        golden: usize,
        /// Objects reachable in the permuted replay.
        permuted: usize,
    },
    /// A canonical object differs in identity class or size.
    ObjectShape {
        /// The object's canonical (first-visit) number.
        object: u32,
        /// Its class and size in the reference, rendered.
        golden: String,
        /// Its class and size in the permuted replay, rendered.
        permuted: String,
    },
    /// One cell of a canonical object differs in value.
    Cell {
        /// The object's canonical (first-visit) number.
        object: u32,
        /// The differing cell's index.
        cell: u32,
        /// The cell in the golden reference, rendered.
        golden: String,
        /// The cell in the permuted replay, rendered.
        permuted: String,
    },
    /// The output streams differ in length.
    OutputLen {
        /// Items printed by the golden run.
        golden: usize,
        /// Items printed by the permuted replay.
        permuted: usize,
    },
    /// One printed item differs.
    Output {
        /// The differing item's index in the output stream.
        index: usize,
        /// The item in the golden run, rendered.
        golden: String,
        /// The item in the permuted replay, rendered.
        permuted: String,
    },
    /// The return values differ.
    Ret {
        /// The golden run's return value, rendered.
        golden: String,
        /// The permuted replay's return value, rendered.
        permuted: String,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Root {
                name,
                golden,
                permuted,
            } => write!(f, "live-out `{name}`: golden {golden}, permuted {permuted}"),
            Divergence::ObjectCount { golden, permuted } => {
                write!(f, "reachable objects: golden {golden}, permuted {permuted}")
            }
            Divergence::ObjectShape {
                object,
                golden,
                permuted,
            } => write!(f, "object #{object}: golden {golden}, permuted {permuted}"),
            Divergence::Cell {
                object,
                cell,
                golden,
                permuted,
            } => write!(
                f,
                "object #{object} cell {cell}: golden {golden}, permuted {permuted}"
            ),
            Divergence::OutputLen { golden, permuted } => write!(
                f,
                "output length: golden {golden} item(s), permuted {permuted}"
            ),
            Divergence::Output {
                index,
                golden,
                permuted,
            } => write!(f, "output[{index}]: golden {golden}, permuted {permuted}"),
            Divergence::Ret { golden, permuted } => {
                write!(f, "return value: golden {golden}, permuted {permuted}")
            }
        }
    }
}

/// Renders an optional return value for divergence reports.
fn ret_str(v: &Option<Value>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "(no value)".to_string(),
    }
}

/// A program's observable outcome: output stream and return value.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramOutcome {
    /// Everything printed.
    pub output: Vec<OutputItem>,
    /// `main`'s return value.
    pub ret: Option<Value>,
}

impl ProgramOutcome {
    /// Captures the outcome of a finished machine.
    pub fn capture(machine: &Machine<'_>, ret: Option<Value>) -> Self {
        ProgramOutcome {
            output: machine.output().to_vec(),
            ret,
        }
    }

    /// True if two outcomes agree (floats under `rel_tol`).
    pub fn matches(&self, other: &ProgramOutcome, rel_tol: f64) -> bool {
        self.matches_parts(&other.output, &other.ret, rel_tol)
    }

    /// [`ProgramOutcome::matches`] against a *borrowed* output stream and
    /// return value — the per-replay hot path compares a finished
    /// machine's output in place instead of cloning it into a fresh
    /// `ProgramOutcome` first.
    pub fn matches_parts(&self, output: &[OutputItem], ret: &Option<Value>, rel_tol: f64) -> bool {
        if self.output.len() != output.len() {
            return false;
        }
        let ret_ok = match (&self.ret, ret) {
            (None, None) => true,
            (Some(a), Some(b)) => value_close(a, b, rel_tol),
            _ => false,
        };
        if !ret_ok {
            return false;
        }
        self.output
            .iter()
            .zip(output.iter())
            .all(|(a, b)| match (a, b) {
                (OutputItem::Label(x), OutputItem::Label(y)) => x == y,
                (OutputItem::Value(x), OutputItem::Value(y)) => value_close(x, y, rel_tol),
                _ => false,
            })
    }

    /// The first divergence between this (golden) outcome and a permuted
    /// run's output/return value, in deterministic order: output length,
    /// return value, then output items left to right. `None` when they
    /// match under `rel_tol`.
    pub fn first_divergence(
        &self,
        output: &[OutputItem],
        ret: &Option<Value>,
        rel_tol: f64,
    ) -> Option<Divergence> {
        if self.output.len() != output.len() {
            return Some(Divergence::OutputLen {
                golden: self.output.len(),
                permuted: output.len(),
            });
        }
        let ret_ok = match (&self.ret, ret) {
            (None, None) => true,
            (Some(a), Some(b)) => value_close(a, b, rel_tol),
            _ => false,
        };
        if !ret_ok {
            return Some(Divergence::Ret {
                golden: ret_str(&self.ret),
                permuted: ret_str(ret),
            });
        }
        for (index, (a, b)) in self.output.iter().zip(output.iter()).enumerate() {
            let ok = match (a, b) {
                (OutputItem::Label(x), OutputItem::Label(y)) => x == y,
                (OutputItem::Value(x), OutputItem::Value(y)) => value_close(x, y, rel_tol),
                _ => false,
            };
            if !ok {
                return Some(Divergence::Output {
                    index,
                    golden: a.to_string(),
                    permuted: b.to_string(),
                });
            }
        }
        None
    }
}

/// One cell of a canonical heap digest.
#[derive(Debug, Clone, PartialEq)]
pub enum CanonValue {
    /// A scalar value.
    Scalar(Value),
    /// A pointer, as the canonical (traversal-order) number of its target.
    Ref(u32),
}

impl fmt::Display for CanonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CanonValue::Scalar(v) => write!(f, "{v}"),
            CanonValue::Ref(n) => write!(f, "→#{n}"),
        }
    }
}

/// Reusable scratch for the canonical heap traversal: the first-visit
/// numbering map and the BFS order/queue. One lives inside each
/// `ReplayWorker`, cleared (capacity kept) between replays, so steady-
/// state digest capture — hashed or structural — allocates nothing.
#[derive(Debug, Default)]
pub struct DigestScratch {
    canon: HashMap<ObjId, u32>,
    order: Vec<ObjId>,
}

impl DigestScratch {
    /// Fresh, empty scratch.
    #[must_use]
    pub fn new() -> Self {
        DigestScratch::default()
    }

    /// Numbers `o` by first visit and enqueues it for the BFS; no-op for
    /// an already-visited object.
    fn visit(&mut self, o: ObjId) {
        if let std::collections::hash_map::Entry::Vacant(e) = self.canon.entry(o) {
            e.insert(self.order.len() as u32);
            self.order.push(o);
        }
    }

    /// Numbers the traversal roots afresh: the globals (in fixed
    /// declaration order), then the pointers among the live-out values.
    fn seed(&mut self, machine: &Machine<'_>, roots: &[Value]) {
        self.canon.clear();
        self.order.clear();
        for g in 0..machine.globals_len() {
            self.visit(ObjId(g as u32));
        }
        for v in roots {
            if let Value::Ptr(o) = v {
                self.visit(*o);
            }
        }
    }

    /// Runs the canonical traversal from the [`DigestScratch::seed`]
    /// roots, leaving the numbering in `canon` and the visit order in
    /// `order`.
    fn traverse(&mut self, machine: &Machine<'_>, roots: &[Value]) {
        self.seed(machine, roots);
        // BFS in canonical order; `order` doubles as the work queue (its
        // tail is the frontier).
        let mut i = 0;
        while i < self.order.len() {
            let o = self.order[i];
            i += 1;
            for cell in machine.obj_cells(o) {
                if let Value::Ptr(t) = cell {
                    self.visit(*t);
                }
            }
        }
    }
}

/// Absorption tags for the streaming digest: every cell contributes
/// exactly one payload word to the fingerprint plus a 3-bit tag folded
/// into a side lane, and sections are length-prefixed (the root count,
/// then each self-delimiting heap record's cell count; the object count
/// trails the heap section, since streaming discovers objects as it
/// goes), so a decoder replaying the length words can classify every
/// absorbed word — the stream parses back unambiguously, and two states
/// stream identical words iff their structural digests match under
/// canonical (tolerance-zero) float equality.
mod tag {
    pub const INT: u64 = 1;
    pub const FLOAT: u64 = 2;
    pub const BOOL: u64 = 3;
    pub const REF: u64 = 4;
    pub const NULL: u64 = 5;
}

/// The odd multiplier chaining the tag side-lane (the xorshift*
/// constant, shared with the payload lanes so the hot loop holds one
/// wide constant). Tag words are at most 24 bits, so a structured
/// cancellation — which would need a later tag word to equal an earlier
/// difference times a power of this multiplier, a full-width
/// pseudorandom value — is unconstructible.
const TAG_M: u64 = 0x2545_F491_4F6C_DD1D;

/// Streams tagged cells into a [`Fingerprint`] at one payload word per
/// cell. Each run of cells (the root section, one object's cells) is
/// absorbed in aligned four-word blocks via [`Block4::push4`]; the
/// tags of an eight-cell chunk pack into a 24-bit word chained into a
/// side lane (`tagline`) absorbed as the stream's final word. Block
/// boundaries, padding, and the tag fold order are all pure functions of
/// the encoded section lengths, so the stream remains an unambiguous
/// encoding while the hot loop absorbs half the words the naive
/// `(tag, payload)` pairing would — and keeps every lane in registers.
struct CellStream {
    fp: Fingerprint,
    tagline: u64,
    cells: u64,
}

/// Looks up — or assigns, on first visit — a pointer's canonical
/// number, enqueueing newly discovered objects on `order` (whose tail
/// is the BFS frontier). This is how the streaming tier discovers the
/// reachable heap *during* absorption, without the separate
/// pointer-scanning pass [`DigestScratch::traverse`] makes; processing
/// `order` front to back while appending here reproduces exactly the
/// traversal's first-visit numbering. Out-of-line and cold so the
/// opaque map call stays off the scalar hot path — register allocation
/// keeps the fingerprint lanes live across chunks instead of spilling
/// around a potential call per cell.
#[cold]
#[inline(never)]
fn visit_ref(canon: &mut HashMap<ObjId, u32>, order: &mut Vec<ObjId>, o: ObjId) -> u64 {
    match canon.entry(o) {
        std::collections::hash_map::Entry::Occupied(e) => u64::from(*e.get()),
        std::collections::hash_map::Entry::Vacant(e) => {
            let n = order.len() as u32;
            e.insert(n);
            order.push(o);
            u64::from(n)
        }
    }
}

/// Encodes one canonical value as its 3-bit tag and one payload word:
/// scalars by canonical bits, pointers by their first-visit number
/// (assigned on the spot for objects seen here first — see
/// [`visit_ref`]).
#[inline(always)]
fn enc(canon: &mut HashMap<ObjId, u32>, order: &mut Vec<ObjId>, v: &Value) -> (u64, u64) {
    match v {
        Value::Int(i) => (tag::INT, *i as u64),
        Value::Float(x) => (tag::FLOAT, canon_f64_bits(*x)),
        Value::Bool(b) => (tag::BOOL, u64::from(*b)),
        Value::Ptr(o) => (tag::REF, visit_ref(canon, order, *o)),
        Value::Null => (tag::NULL, 0),
    }
}

/// Absorbs the longest all-[`Value::Int`] prefix of `s` in eight-cell
/// chunks and returns the rest. `#[inline(never)]` is load-bearing: a
/// call-free body lets the register allocator keep every lane, the tag
/// lane, and the cursor in registers — inlined next to the generic
/// chunk path (whose [`visit_ref`] call clobbers caller-saved
/// registers) the lanes get spilled to the stack instead. The
/// entry/exit lane transfer is amortized over the whole run.
#[inline(never)]
fn run_ints<'a>(blk: &mut Block4<'_>, tagline: &mut u64, mut s: &'a [Value]) -> &'a [Value] {
    // Lane state detached by value and block accounting derived from
    // the consumed length, so the loop carries no pointers and no
    // counter — just lanes, tag lane, and cursor, which all fit in
    // registers.
    let mut l = blk.lanes();
    let mut tl = *tagline;
    let before = s.len();
    while let [Value::Int(i0), Value::Int(i1), Value::Int(i2), Value::Int(i3), Value::Int(i4), Value::Int(i5), Value::Int(i6), Value::Int(i7), rest @ ..] =
        s
    {
        l.push4([*i0 as u64, *i1 as u64, *i2 as u64, *i3 as u64]);
        l.push4([*i4 as u64, *i5 as u64, *i6 as u64, *i7 as u64]);
        tl = (tl ^ (tag::INT * 0o1111_1111))
            .wrapping_mul(TAG_M)
            .wrapping_add(1);
        s = rest;
    }
    blk.put_lanes(l, ((before - s.len()) / 4) as u64);
    *tagline = tl;
    s
}

/// Absorbs the longest all-[`Value::Float`] prefix of `s` in eight-cell
/// chunks (canonicalizing each cell's bits) and returns the rest. See
/// [`run_ints`] for why this is a separate never-inlined function.
#[inline(never)]
fn run_floats<'a>(blk: &mut Block4<'_>, tagline: &mut u64, mut s: &'a [Value]) -> &'a [Value] {
    let mut l = blk.lanes();
    let mut tl = *tagline;
    let before = s.len();
    while let [Value::Float(x0), Value::Float(x1), Value::Float(x2), Value::Float(x3), Value::Float(x4), Value::Float(x5), Value::Float(x6), Value::Float(x7), rest @ ..] =
        s
    {
        l.push4([
            canon_f64_bits(*x0),
            canon_f64_bits(*x1),
            canon_f64_bits(*x2),
            canon_f64_bits(*x3),
        ]);
        l.push4([
            canon_f64_bits(*x4),
            canon_f64_bits(*x5),
            canon_f64_bits(*x6),
            canon_f64_bits(*x7),
        ]);
        tl = (tl ^ (tag::FLOAT * 0o1111_1111))
            .wrapping_mul(TAG_M)
            .wrapping_add(1);
        s = rest;
    }
    blk.put_lanes(l, ((before - s.len()) / 4) as u64);
    *tagline = tl;
    s
}

impl CellStream {
    fn new() -> Self {
        CellStream {
            fp: Fingerprint::new(),
            tagline: TAG_M,
            cells: 0,
        }
    }

    /// Absorbs a structural word (section length or object key) as-is.
    #[inline]
    fn word(&mut self, w: u64) {
        self.fp.push(w);
    }

    /// Chains one packed tag word into the side lane.
    #[inline]
    fn fold_tags(&mut self, tw: u64) {
        self.tagline = (self.tagline ^ tw).wrapping_mul(TAG_M).wrapping_add(1);
    }

    /// Absorbs one run of cells: payloads in aligned four-word blocks,
    /// tags packed eight per fold (remainder cells pushed singly, their
    /// tags folded as one final sub-24-bit word — the run length pins
    /// which shape was used).
    fn run(&mut self, canon: &mut HashMap<ObjId, u32>, order: &mut Vec<ObjId>, cells: &[Value]) {
        self.cells += cells.len() as u64;
        // Lane state and tag lane ride in locals (the block absorber by
        // value, the tag word explicitly) so the loops stay in
        // registers. Eight cells per iteration amortizes the serial
        // tag-fold chain and the loop bookkeeping across two lane
        // blocks. Homogeneous runs — the common case, since arrays are
        // typed — spin in *separate* type-specialized loops: a single
        // loop body covering every cell type keeps all paths' constants
        // live at once and spills lanes to the stack, while each split
        // loop register-allocates only what its one type needs. The
        // generic chunk in between guarantees progress on mixed runs
        // and produces the identical stream (same payload words, same
        // packed tags), so splitting is invisible to the digest.
        let mut tagline = self.tagline;
        let mut blk = self.fp.block4();
        let mut s = cells;
        loop {
            s = run_ints(&mut blk, &mut tagline, s);
            s = run_floats(&mut blk, &mut tagline, s);
            let [c0, c1, c2, c3, c4, c5, c6, c7, rest @ ..] = s else {
                break;
            };
            let (t0, w0) = enc(canon, order, c0);
            let (t1, w1) = enc(canon, order, c1);
            let (t2, w2) = enc(canon, order, c2);
            let (t3, w3) = enc(canon, order, c3);
            let (t4, w4) = enc(canon, order, c4);
            let (t5, w5) = enc(canon, order, c5);
            let (t6, w6) = enc(canon, order, c6);
            let (t7, w7) = enc(canon, order, c7);
            blk.push4([w0, w1, w2, w3]);
            blk.push4([w4, w5, w6, w7]);
            let tw = (t0 << 21)
                | (t1 << 18)
                | (t2 << 15)
                | (t3 << 12)
                | (t4 << 9)
                | (t5 << 6)
                | (t6 << 3)
                | t7;
            tagline = (tagline ^ tw).wrapping_mul(TAG_M).wrapping_add(1);
            s = rest;
        }
        blk.finish();
        self.tagline = tagline;
        if !s.is_empty() {
            let mut tw = 0;
            for v in s {
                let (t, w) = enc(canon, order, v);
                self.fp.push(w);
                tw = (tw << 3) | t;
            }
            self.fold_tags(tw);
        }
    }

    /// Absorbs the tag side-lane as the final stream word and returns
    /// the digest plus the cell count.
    fn finish(mut self) -> (u128, u64) {
        let tagline = self.tagline;
        self.fp.push(tagline);
        (self.fp.digest(), self.cells)
    }
}

/// Tier-1 verification: streams the canonical live-out state — the exact
/// traversal [`StateDigest::capture`] materializes — into a 128-bit
/// [`Fingerprint`] instead of building the digest. Returns the digest and
/// the number of values absorbed (scalar roots plus heap cells), the
/// `verify.digest.cells` accounting unit.
///
/// Equality of two returned digests coincides (up to a ~2⁻¹²⁸ accidental
/// collision) with [`StateDigest::matches`] at `rel_tol == 0.0`: floats
/// are absorbed by canonical bits ([`canon_f64_bits`]), which is exactly
/// the tolerance-zero comparator, and the word stream is an unambiguous
/// encoding of the structural digest — root count, then root cells, then
/// per object its key, length, and cells, then the object count as a
/// trailing cross-check, each cell run zero-padded to a four-word block
/// boundary, with the packed tag side-lane as the final word. Heap
/// records are self-delimiting (their cell count is absorbed before
/// their cells) and the fingerprint finalizes the total word count, so
/// equal word streams parse identically even though the object count
/// trails the heap section. The `hash_digest_equals_structural_digest`
/// property test holds the two paths together.
///
/// Unlike [`StateDigest::capture`], which runs a pointer-scanning
/// traversal pass and then walks the cells again to materialize them,
/// this streams each object's cells *once*: pointers discovered during
/// absorption are numbered and enqueued on the fly (`visit_ref`),
/// which yields the identical first-visit numbering because the
/// traversal's BFS queue is the visit order itself. On large heaps the
/// verify cost is one pass at near memory bandwidth, not two.
pub fn hash_live_state(
    machine: &Machine<'_>,
    roots: &[Value],
    scratch: &mut DigestScratch,
) -> (u128, u64) {
    scratch.seed(machine, roots);
    let n_globals = machine.globals_len() as u32;
    let mut s = CellStream::new();
    s.word(roots.len() as u64);
    s.run(&mut scratch.canon, &mut scratch.order, roots);
    let mut i = 0;
    while i < scratch.order.len() {
        let o = scratch.order[i];
        i += 1;
        let obj = machine.obj_cells(o);
        s.word(u64::from(o.0.min(n_globals)));
        s.word(obj.len() as u64);
        s.run(&mut scratch.canon, &mut scratch.order, obj);
    }
    s.word(scratch.order.len() as u64);
    s.finish()
}

/// A loop-exit state digest: live-out scalar values plus the canonical
/// reachable heap.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDigest {
    /// Values of live-out scalar variables, in a fixed order.
    pub scalars: Vec<CanonValue>,
    /// Canonicalized cells of every reachable object, concatenated in
    /// first-visit order with per-object length markers.
    pub heap: Vec<(u32, Vec<CanonValue>)>,
}

impl StateDigest {
    /// Builds the digest from `roots` (live-out variable values; pointers
    /// among them are traversal roots) plus every global object.
    pub fn capture(machine: &Machine<'_>, roots: &[Value]) -> Self {
        StateDigest::capture_with(machine, roots, &mut DigestScratch::new())
    }

    /// [`StateDigest::capture`] with caller-provided traversal scratch —
    /// the tier-2 replay path reuses one [`DigestScratch`] per worker so
    /// repeated captures don't rebuild the canon map from nothing.
    pub fn capture_with(
        machine: &Machine<'_>,
        roots: &[Value],
        scratch: &mut DigestScratch,
    ) -> Self {
        scratch.traverse(machine, roots);
        let n_globals = machine.globals_len() as u32;
        let canon_cell = |v: &Value| match v {
            Value::Ptr(o) => CanonValue::Ref(scratch.canon[o]),
            other => CanonValue::Scalar(*other),
        };
        let scalars = roots.iter().map(canon_cell).collect();
        let heap_digest = scratch
            .order
            .iter()
            .map(|&o| {
                let cells = machine.obj_cells(o).iter().map(canon_cell).collect();
                (o.0.min(n_globals), cells)
            })
            .collect();
        StateDigest {
            scalars,
            heap: heap_digest,
        }
    }

    /// Values the digest holds: scalar roots plus every canonical heap
    /// cell — the same unit [`hash_live_state`] counts, so the
    /// `verify.digest.cells` counter is tier-independent.
    #[must_use]
    pub fn cell_count(&self) -> u64 {
        self.scalars.len() as u64 + self.heap.iter().map(|(_, c)| c.len() as u64).sum::<u64>()
    }

    /// True if two digests agree (floats under `rel_tol`).
    pub fn matches(&self, other: &StateDigest, rel_tol: f64) -> bool {
        self.first_divergence(other, rel_tol, &[]).is_none()
    }

    /// The first divergence between this (golden) digest and a permuted
    /// one, walking both in canonical order: scalar roots (named via
    /// `root_names`, parallel to [`StateDigest::scalars`]), then object
    /// count, then each object's class/size, then its cells. Returns
    /// `None` when the two agree under `rel_tol`. The walk order is a pure function of the two digests,
    /// so the reported divergence is deterministic.
    pub fn first_divergence(
        &self,
        permuted: &StateDigest,
        rel_tol: f64,
        root_names: &[String],
    ) -> Option<Divergence> {
        let cv_ok = |a: &CanonValue, b: &CanonValue| match (a, b) {
            (CanonValue::Scalar(x), CanonValue::Scalar(y)) => value_close(x, y, rel_tol),
            (CanonValue::Ref(x), CanonValue::Ref(y)) => x == y,
            _ => false,
        };
        if self.scalars.len() != permuted.scalars.len() {
            // Unreachable when both digests come from the same root set
            // (as the engine's always do), but kept total.
            return Some(Divergence::ObjectCount {
                golden: self.scalars.len(),
                permuted: permuted.scalars.len(),
            });
        }
        for (i, (a, b)) in self.scalars.iter().zip(&permuted.scalars).enumerate() {
            if !cv_ok(a, b) {
                return Some(Divergence::Root {
                    name: root_names
                        .get(i)
                        .cloned()
                        .unwrap_or_else(|| format!("root{i}")),
                    golden: a.to_string(),
                    permuted: b.to_string(),
                });
            }
        }
        if self.heap.len() != permuted.heap.len() {
            return Some(Divergence::ObjectCount {
                golden: self.heap.len(),
                permuted: permuted.heap.len(),
            });
        }
        for (object, ((ka, ca), (kb, cb))) in self.heap.iter().zip(&permuted.heap).enumerate() {
            let object = object as u32;
            if ka != kb || ca.len() != cb.len() {
                let shape = |k: &u32, c: &Vec<CanonValue>| format!("class {k} × {} cells", c.len());
                return Some(Divergence::ObjectShape {
                    object,
                    golden: shape(ka, ca),
                    permuted: shape(kb, cb),
                });
            }
            for (cell, (a, b)) in ca.iter().zip(cb).enumerate() {
                if !cv_ok(a, b) {
                    return Some(Divergence::Cell {
                        object,
                        cell: cell as u32,
                        golden: a.to_string(),
                        permuted: b.to_string(),
                    });
                }
            }
        }
        None
    }
}

/// Digest work done by loop-exit checks, split by tier. `cells` counts
/// canonical values absorbed — scalar roots plus reachable heap cells —
/// the same unit for both tiers, so the counter tracks state size
/// independently of which comparator ran.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DigestStats {
    /// Fingerprint captures (tier 1).
    pub hashed: u64,
    /// Materialized [`StateDigest`] captures (tier 2).
    pub structural: u64,
    /// Canonical values absorbed across both tiers.
    pub cells: u64,
}

impl DigestStats {
    /// The sum of two tallies.
    #[must_use]
    pub fn plus(&self, o: &DigestStats) -> DigestStats {
        DigestStats {
            hashed: self.hashed + o.hashed,
            structural: self.structural + o.structural,
            cells: self.cells + o.cells,
        }
    }
}

/// Where an [`ExitRef::check`] finds the golden digest, which it reads
/// only on a fingerprint mismatch.
pub enum GoldenDigest<'a, 'm> {
    /// Captured while the golden machine stood at the exit.
    Captured(&'a StateDigest),
    /// A golden machine still standing at the exit, with its root values.
    Standing(&'a Machine<'m>, &'a [Value]),
}

/// The golden run's loop-exit reference: the live-out fingerprint of the
/// golden machine standing at the exit, or none under
/// [`DigestMode::Structural`]. [`ExitRef::check`] is the one comparison
/// of a candidate loop-exit state with the golden one, for permuted
/// replays and merged parallel runs alike (DESIGN.md §14).
#[derive(Debug, Clone, Copy)]
pub struct ExitRef {
    /// The golden fingerprint and the values it absorbed.
    pub hash: Option<(u128, u64)>,
}

/// What an [`ExitRef::check`] found.
#[derive(Debug)]
pub struct ExitCheck {
    /// The candidate's fingerprint, when the reference has one.
    pub fingerprint: Option<u128>,
    /// `Ok` when the states match, bit for bit or within the tolerance;
    /// else the first divergence.
    pub result: Result<(), Divergence>,
}

impl ExitRef {
    /// The reference for a golden machine standing at a loop exit, with
    /// `roots` its digest-root values: fingerprinted under
    /// [`DigestMode::Auto`], left to the digests under
    /// [`DigestMode::Structural`].
    pub fn capture(
        machine: &Machine<'_>,
        roots: &[Value],
        mode: DigestMode,
        scratch: &mut DigestScratch,
    ) -> ExitRef {
        ExitRef {
            hash: (mode == DigestMode::Auto).then(|| hash_live_state(machine, roots, scratch)),
        }
    }

    /// Compares the candidate `machine`'s live state (root values
    /// `roots`, named by `names`) with the golden one. Equal fingerprints
    /// match exactly, and so under any tolerance; otherwise both digests
    /// are materialized and compared under `rel_tol`. `stats` tallies the
    /// work.
    #[allow(clippy::too_many_arguments)]
    pub fn check(
        &self,
        machine: &Machine<'_>,
        roots: &[Value],
        golden: GoldenDigest<'_, '_>,
        rel_tol: f64,
        names: &[String],
        scratch: &mut DigestScratch,
        stats: &mut DigestStats,
    ) -> ExitCheck {
        let fingerprint = self.hash.map(|_| {
            let (h, cells) = hash_live_state(machine, roots, scratch);
            stats.hashed += 1;
            stats.cells += cells;
            h
        });
        if fingerprint.is_some() && fingerprint == self.hash.map(|(h, _)| h) {
            return ExitCheck {
                fingerprint,
                result: Ok(()),
            };
        }
        let candidate = StateDigest::capture_with(machine, roots, scratch);
        stats.structural += 1;
        stats.cells += candidate.cell_count();
        let standing;
        let golden = match golden {
            GoldenDigest::Captured(d) => d,
            GoldenDigest::Standing(m, r) => {
                standing = StateDigest::capture_with(m, r, scratch);
                &standing
            }
        };
        // A structural reference is counted once, where it was captured.
        if self.hash.is_some() {
            stats.structural += 1;
            stats.cells += golden.cell_count();
        }
        ExitCheck {
            fingerprint,
            result: golden
                .first_divergence(&candidate, rel_tol, names)
                .map_or(Ok(()), Err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_interp::NoHooks;

    #[test]
    fn float_tolerance() {
        assert!(float_close(1.0, 1.0 + 1e-12, 1e-8));
        assert!(!float_close(1.0, 1.1, 1e-8));
        assert!(float_close(0.0, 0.0, 1e-8));
        assert!(
            float_close(f64::NAN, f64::NAN, 1e-8),
            "a deterministic NaN live-out must not refute commutativity"
        );
        assert!(float_close(1e20, 1e20 * (1.0 + 1e-10), 1e-8));
    }

    #[test]
    fn float_canonicalization_semantics() {
        // Bitwise-equal floats (incl. NaN, any payload/sign) match even
        // at zero tolerance.
        assert!(float_close(f64::NAN, f64::NAN, 0.0));
        assert!(float_close(-f64::NAN, f64::NAN, 0.0));
        let weird_nan = f64::from_bits(0x7ff8_0000_0000_0001);
        assert!(weird_nan.is_nan());
        assert!(float_close(weird_nan, f64::NAN, 0.0));
        // -0.0 == +0.0.
        assert!(float_close(-0.0, 0.0, 0.0));
        // Equal infinities match; opposite ones, and NaN vs anything
        // else, never do.
        assert!(float_close(f64::INFINITY, f64::INFINITY, 0.0));
        assert!(float_close(f64::NEG_INFINITY, f64::NEG_INFINITY, 0.0));
        assert!(!float_close(f64::INFINITY, f64::NEG_INFINITY, 1e-8));
        assert!(!float_close(f64::NAN, 1.0, 1e-8));
        assert!(!float_close(f64::NAN, f64::INFINITY, 1e-8));
        // Canonical bits agree with all of the above.
        assert_eq!(canon_f64_bits(f64::NAN), canon_f64_bits(weird_nan));
        assert_eq!(canon_f64_bits(-0.0), canon_f64_bits(0.0));
        assert_ne!(
            canon_f64_bits(f64::INFINITY),
            canon_f64_bits(f64::NEG_INFINITY)
        );
        assert_eq!(canon_f64_bits(1.5), (1.5f64).to_bits());
    }

    #[test]
    fn program_outcomes_compare_with_tolerance() {
        let a = ProgramOutcome {
            output: vec![
                OutputItem::Label("x".into()),
                OutputItem::Value(Value::Float(1.0)),
            ],
            ret: Some(Value::Int(3)),
        };
        let mut b = a.clone();
        assert!(a.matches(&b, 1e-8));
        b.output[1] = OutputItem::Value(Value::Float(1.0 + 1e-13));
        assert!(a.matches(&b, 1e-8));
        b.output[1] = OutputItem::Value(Value::Float(2.0));
        assert!(!a.matches(&b, 1e-8));
        b = a.clone();
        b.ret = Some(Value::Int(4));
        assert!(!a.matches(&b, 1e-8));
    }

    fn machine_for(src: &str) -> (dca_ir::Module, Vec<Value>) {
        let m = dca_ir::compile(src).expect("compile");
        (m, vec![])
    }

    #[test]
    fn digest_ignores_allocation_order() {
        // Build the same two-node list with opposite allocation orders; the
        // canonical digest from the head pointer must match.
        let src_fwd = "struct N { v: int, next: *N }\n\
             fn main() -> int { let a: *N = new N; let b: *N = new N; \
             a.v = 1; b.v = 2; a.next = b; b.next = null; \
             if (a.v > 0) { return 1; } return 0; }";
        let src_rev = "struct N { v: int, next: *N }\n\
             fn main() -> int { let b: *N = new N; let a: *N = new N; \
             a.v = 1; b.v = 2; a.next = b; b.next = null; \
             if (a.v > 0) { return 1; } return 0; }";
        let digest = |src: &str| {
            let (m, _) = machine_for(src);
            let mut machine = dca_interp::Machine::new(&m);
            machine
                .push_call(m.main().expect("main"), &[])
                .expect("push");
            machine.run(&mut NoHooks, u64::MAX).expect("run");
            // Roots: the `a` head pointer. Find it via the heap: the object
            // whose v == 1.
            let head = machine
                .heap_tail(0)
                .objs()
                .position(|o| o.first() == Some(&Value::Int(1)))
                .expect("node a");
            StateDigest::capture(&machine, &[Value::Ptr(ObjId(head as u32))])
        };
        let d1 = digest(src_fwd);
        let d2 = digest(src_rev);
        assert!(d1.matches(&d2, 1e-8));
    }

    #[test]
    fn digest_canonicalizes_cycles() {
        // A two-node ring; digests from either entry node must differ (the
        // root determines traversal order) but be stable across runs, and
        // digesting an isomorphic ring built in the opposite order must
        // match.
        let src_a = "struct N { v: int, next: *N }\n\
             fn main() -> int { let a: *N = new N; let b: *N = new N; \
             a.v = 1; b.v = 2; a.next = b; b.next = a; return a.v; }";
        let src_b = "struct N { v: int, next: *N }\n\
             fn main() -> int { let b: *N = new N; let a: *N = new N; \
             a.v = 1; b.v = 2; a.next = b; b.next = a; return a.v; }";
        let digest = |src: &str| {
            let m = dca_ir::compile(src).expect("compile");
            let mut machine = dca_interp::Machine::new(&m);
            machine
                .push_call(m.main().expect("main"), &[])
                .expect("push");
            machine.run(&mut NoHooks, u64::MAX).expect("run");
            let a = machine
                .heap_tail(0)
                .objs()
                .position(|o| o.first() == Some(&Value::Int(1)))
                .expect("node a");
            StateDigest::capture(&machine, &[Value::Ptr(ObjId(a as u32))])
        };
        assert!(digest(src_a).matches(&digest(src_b), 1e-8));
    }

    #[test]
    fn digest_floats_compare_with_tolerance() {
        let mk = |x: f64| StateDigest {
            scalars: vec![super::CanonValue::Scalar(Value::Float(x))],
            heap: vec![],
        };
        assert!(mk(1.0).matches(&mk(1.0 + 1e-12), 1e-8));
        assert!(!mk(1.0).matches(&mk(1.001), 1e-8));
    }

    #[test]
    fn hashed_capture_agrees_with_structural_digest() {
        // Two isomorphic heaps (opposite allocation order) must produce
        // the same stream hash; a third with one differing cell must not.
        let run = |src: &str| -> (dca_ir::Module, String) { (machine_for(src).0, src.to_string()) };
        let srcs = [
            "struct N { v: int, next: *N }\n\
             fn main() -> int { let a: *N = new N; let b: *N = new N; \
             a.v = 1; b.v = 2; a.next = b; b.next = null; \
             if (a.v > 0) { return 1; } return 0; }",
            "struct N { v: int, next: *N }\n\
             fn main() -> int { let b: *N = new N; let a: *N = new N; \
             a.v = 1; b.v = 2; a.next = b; b.next = null; \
             if (a.v > 0) { return 1; } return 0; }",
            "struct N { v: int, next: *N }\n\
             fn main() -> int { let a: *N = new N; let b: *N = new N; \
             a.v = 1; b.v = 3; a.next = b; b.next = null; \
             if (a.v > 0) { return 1; } return 0; }",
        ];
        let mut scratch = DigestScratch::new();
        let capture = |m: &dca_ir::Module, scratch: &mut DigestScratch| {
            let mut machine = dca_interp::Machine::new(m);
            machine
                .push_call(m.main().expect("main"), &[])
                .expect("push");
            machine.run(&mut NoHooks, u64::MAX).expect("run");
            let head = machine
                .heap_tail(0)
                .objs()
                .position(|o| o.first() == Some(&Value::Int(1)))
                .expect("node a");
            let roots = [Value::Ptr(ObjId(head as u32))];
            let (hash, cells) = hash_live_state(&machine, &roots, scratch);
            let digest = StateDigest::capture_with(&machine, &roots, scratch);
            assert_eq!(cells, digest.cell_count(), "cell accounting agrees");
            (hash, digest)
        };
        let results: Vec<_> = srcs
            .iter()
            .map(|s| capture(&run(s).0, &mut scratch))
            .collect();
        assert_eq!(results[0].0, results[1].0, "isomorphic heaps hash equal");
        assert!(results[0].1.matches(&results[1].1, 0.0));
        assert_ne!(results[0].0, results[2].0, "differing cell hashes apart");
        assert!(!results[0].1.matches(&results[2].1, 0.0));
    }

    #[test]
    fn hashed_capture_canonicalizes_nan_and_negative_zero() {
        let mk = |cells: Vec<Value>| -> (u128, StateDigest) {
            let src = "let g: [float; 4];\nfn main() -> int { return 0; }";
            let m = dca_ir::compile(src).expect("compile");
            let mut machine = dca_interp::Machine::new(&m);
            machine
                .push_call(m.main().expect("main"), &[])
                .expect("push");
            machine.run(&mut NoHooks, u64::MAX).expect("run");
            // Write the float cells directly into the global array.
            for (i, v) in cells.iter().enumerate() {
                let addr = dca_interp::Addr {
                    obj: ObjId(0),
                    cell: i as u32,
                };
                machine.poke_cell(addr, *v);
            }
            let mut scratch = DigestScratch::new();
            let (h, _) = hash_live_state(&machine, &[], &mut scratch);
            (h, StateDigest::capture(&machine, &[]))
        };
        let weird_nan = f64::from_bits(0xfff8_0000_0000_0042);
        let (h1, d1) = mk(vec![
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Float(1.0),
            Value::Float(0.0),
        ]);
        let (h2, d2) = mk(vec![
            Value::Float(weird_nan),
            Value::Float(0.0),
            Value::Float(1.0),
            Value::Float(-0.0),
        ]);
        let (h3, d3) = mk(vec![
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Float(2.0),
            Value::Float(0.0),
        ]);
        assert_eq!(h1, h2, "NaN payloads and signed zeros canonicalize");
        assert!(d1.matches(&d2, 0.0));
        assert_ne!(h1, h3);
        assert!(!d1.matches(&d3, 0.0));
        assert_eq!(
            d1.first_divergence(&d3, 0.0, &[]),
            Some(Divergence::Cell {
                object: 0,
                cell: 2,
                golden: "1.0".to_string(),
                permuted: "2.0".to_string(),
            })
        );
    }

    #[test]
    fn first_divergence_walks_in_canonical_order() {
        let mk = |scalars: Vec<CanonValue>, heap: Vec<(u32, Vec<CanonValue>)>| StateDigest {
            scalars,
            heap,
        };
        let golden = mk(
            vec![CanonValue::Scalar(Value::Int(1))],
            vec![(0, vec![CanonValue::Scalar(Value::Int(5))])],
        );
        // Scalar divergence wins over a heap one.
        let both = mk(
            vec![CanonValue::Scalar(Value::Int(2))],
            vec![(0, vec![CanonValue::Scalar(Value::Int(6))])],
        );
        assert_eq!(
            golden.first_divergence(&both, 0.0, &["s".to_string()]),
            Some(Divergence::Root {
                name: "s".to_string(),
                golden: "1".to_string(),
                permuted: "2".to_string(),
            })
        );
        // Shape divergence names the object.
        let shape = mk(
            vec![CanonValue::Scalar(Value::Int(1))],
            vec![(
                0,
                vec![
                    CanonValue::Scalar(Value::Int(5)),
                    CanonValue::Scalar(Value::Int(9)),
                ],
            )],
        );
        assert!(matches!(
            golden.first_divergence(&shape, 0.0, &[]),
            Some(Divergence::ObjectShape { object: 0, .. })
        ));
        // Object-count divergence.
        let fewer = mk(vec![CanonValue::Scalar(Value::Int(1))], vec![]);
        assert_eq!(
            golden.first_divergence(&fewer, 0.0, &[]),
            Some(Divergence::ObjectCount {
                golden: 1,
                permuted: 0,
            })
        );
        // Agreement yields None, consistent with matches().
        assert_eq!(golden.first_divergence(&golden.clone(), 0.0, &[]), None);
        // Display is human-readable.
        let d = golden.first_divergence(&both, 0.0, &[]).expect("diverges");
        assert_eq!(d.to_string(), "live-out `root0`: golden 1, permuted 2");
    }

    #[test]
    fn program_outcome_first_divergence() {
        let golden = ProgramOutcome {
            output: vec![
                OutputItem::Label("x".into()),
                OutputItem::Value(Value::Int(3)),
            ],
            ret: Some(Value::Int(7)),
        };
        assert_eq!(
            golden.first_divergence(&golden.output, &golden.ret, 1e-8),
            None
        );
        assert!(matches!(
            golden.first_divergence(&golden.output[..1], &golden.ret, 1e-8),
            Some(Divergence::OutputLen {
                golden: 2,
                permuted: 1,
            })
        ));
        assert_eq!(
            golden.first_divergence(&golden.output, &Some(Value::Int(8)), 1e-8),
            Some(Divergence::Ret {
                golden: "7".to_string(),
                permuted: "8".to_string(),
            })
        );
        let mut out = golden.output.clone();
        out[1] = OutputItem::Value(Value::Int(4));
        let d = golden
            .first_divergence(&out, &golden.ret, 1e-8)
            .expect("diverges");
        assert!(matches!(d, Divergence::Output { index: 1, .. }));
        assert_eq!(d.to_string(), "output[1]: golden 3, permuted 4");
    }

    #[test]
    fn digest_detects_value_differences() {
        let (m, _) = machine_for(
            "struct N { v: int, next: *N }\n\
             fn main() -> int { let a: *N = new N; a.v = 1; return 0; }",
        );
        let mut machine = dca_interp::Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        machine.run(&mut NoHooks, u64::MAX).expect("run");
        let node = ObjId(machine.heap_len() as u32 - 1);
        let d1 = StateDigest::capture(&machine, &[Value::Ptr(node)]);
        let d2 = StateDigest::capture(&machine, &[Value::Int(5)]);
        assert!(!d1.matches(&d2, 1e-8));
    }
}
