//! Per-iteration memory footprints mined from the golden recording.

use dca_interp::Value;

/// Default cap on recorded heap accesses per profile. A loop that touches
/// more cells than this stops accumulating sets (the profile is marked
/// [`LoopProfile::truncated`] and the overlap check returns
/// [`crate::DepVerdict::Unknown`]); step counts keep recording so the
/// autotuner still works. The cap bounds the probe's memory to a few
/// hundred MiB in the worst case, mirroring the analysis heap budgets.
pub const DEFAULT_FOOTPRINT_CAP: usize = 1 << 22;

/// A heap cell key: `(object id, cell index)`.
type Cell = (u32, u32);

/// A cell as one integer, ordered as its [`Cell`].
#[inline]
fn key(obj: u32, cell: u32) -> u64 {
    (u64::from(obj) << 32) | u64::from(cell)
}

/// The single quiet-NaN payload every NaN canonicalizes to.
const CANON_QNAN_BITS: u64 = 0x7ff8_0000_0000_0000;

/// The canonical bit pattern of a float: every NaN (any sign/payload)
/// maps to one quiet NaN, `-0.0` maps to `+0.0`, and everything else
/// keeps its IEEE-754 bits. Two floats are *canonically equal* — the
/// equality the footprint pre-check, the executor's validator, the
/// hashed and structural state digests and the tolerance comparator's
/// fast path all share — iff their canonical bits are equal.
///
/// Program-end suffix elision (`dca_core`'s `GoldenRecord::exit_matches`)
/// deliberately compares raw `to_bits` instead: two canonically equal
/// states can still run different suffixes (`1.0 / x` prints `inf` for
/// `+0.0` and `-inf` for `-0.0`), and elision claims the whole rest of
/// the program repeats the golden run, not just that two states agree.
#[must_use]
#[inline]
pub fn canon_f64_bits(x: f64) -> u64 {
    // Integer-only (branch-free under cmov) so the streaming digest's
    // per-cell loop stays straight-line: a float is NaN iff its
    // magnitude bits exceed the exponent mask, and ±0.0 iff they are 0.
    const SIGN: u64 = 1 << 63;
    const EXP: u64 = 0x7FF0_0000_0000_0000;
    let bits = x.to_bits();
    let mag = bits & !SIGN;
    if mag > EXP {
        CANON_QNAN_BITS
    } else if mag == 0 {
        0 // +0.0; folds -0.0 in.
    } else {
        bits
    }
}

/// Canonical bit pattern of a [`Value`], used to compare stored values
/// across iterations: floats by [`canon_f64_bits`], so two writes that
/// the validator would call equal compare equal here too. The tag
/// occupies the high 64 bits so values of different types never
/// collide.
#[must_use]
#[inline]
pub fn canonical_bits(v: Value) -> u128 {
    let (tag, bits) = match v {
        Value::Int(x) => (1u64, x as u64),
        Value::Float(x) => (2u64, canon_f64_bits(x)),
        Value::Bool(b) => (3u64, u64::from(b)),
        Value::Ptr(o) => (4u64, u64::from(o.0)),
        Value::Null => (5u64, 0),
    };
    (u128::from(tag) << 64) | u128::from(bits)
}

/// The net effect of one iteration on one heap cell: the value the cell
/// held when the iteration first stored to it and the value it left
/// behind. Intermediate stores collapse (only the endpoints matter for
/// cross-iteration dependences).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellWrite {
    /// Object id of the cell.
    pub obj: u32,
    /// Cell index within the object.
    pub cell: u32,
    /// Canonical bits of the value the cell held before the iteration's
    /// first store to it.
    pub first_old: u128,
    /// Canonical bits of the value the iteration's last store left.
    pub last_new: u128,
}

impl CellWrite {
    /// A *silent* write leaves the cell exactly as the iteration found
    /// it: the net effect is indistinguishable from not writing at all,
    /// so it participates in no dependence.
    #[must_use]
    pub fn is_silent(&self) -> bool {
        self.first_old == self.last_new
    }
}

/// One committed iteration's footprint: a view into its [`LoopProfile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterFootprint<'p> {
    /// Heap cells read by payload instructions, sorted, deduplicated.
    /// Only *upward-exposed* reads appear: a read preceded by this same
    /// iteration's own write to the cell is satisfied locally (the worker
    /// executes the iteration in program order), so it exposes no
    /// cross-iteration dependence — the scratch-buffer idiom (fill a
    /// private buffer, then consume it, every iteration) stays clean.
    pub reads: &'p [Cell],
    /// Net payload writes per cell, sorted by cell.
    pub writes: &'p [CellWrite],
    /// Heap cells read by iterator-slice instructions.
    pub slice_reads: &'p [Cell],
    /// Net iterator-slice writes per cell (a destructive iterator's pop,
    /// for example), sorted by cell.
    pub slice_writes: &'p [CellWrite],
    /// Interpreter steps from this iteration's header arrival to the
    /// next (slice work included).
    pub steps: u64,
}

/// Where one iteration's sets end in its profile's arrays (each starts
/// where the previous iteration's ends), and its steps.
#[derive(Debug, Clone, Copy, Default)]
struct IterEnds {
    reads: u32,
    writes: u32,
    slice_reads: u32,
    slice_writes: u32,
    steps: u64,
}

/// The whole invocation's footprint: one [`IterFootprint`] per committed
/// iteration, aligned 1:1 with the golden record's iteration tuples, in
/// original order. The iterations' sets are stored back to back in one
/// array per kind, so recording an iteration allocates nothing of its
/// own.
#[derive(Debug, Clone, Default)]
pub struct LoopProfile {
    ends: Vec<IterEnds>,
    reads: Vec<Cell>,
    writes: Vec<CellWrite>,
    slice_reads: Vec<Cell>,
    slice_writes: Vec<CellWrite>,
    /// True when the access-set cap was hit: read/write sets are
    /// incomplete and the overlap check must not claim decomposability.
    /// Step counts remain complete.
    pub truncated: bool,
}

impl LoopProfile {
    /// A profile of the given iterations, in order.
    pub fn from_iters<'a>(iters: impl IntoIterator<Item = IterFootprint<'a>>) -> Self {
        let mut p = LoopProfile::default();
        for it in iters {
            p.reads.extend_from_slice(it.reads);
            p.writes.extend_from_slice(it.writes);
            p.slice_reads.extend_from_slice(it.slice_reads);
            p.slice_writes.extend_from_slice(it.slice_writes);
            p.seal(it.steps);
        }
        p
    }

    /// Ends the iteration whose sets were appended since the last one.
    fn seal(&mut self, steps: u64) {
        self.ends.push(IterEnds {
            reads: self.reads.len() as u32,
            writes: self.writes.len() as u32,
            slice_reads: self.slice_reads.len() as u32,
            slice_writes: self.slice_writes.len() as u32,
            steps,
        });
    }

    /// Committed iterations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no iteration was committed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iteration `k`'s footprint.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    #[must_use]
    pub fn iter(&self, k: usize) -> IterFootprint<'_> {
        let e = self.ends[k];
        let s = k
            .checked_sub(1)
            .map_or_else(IterEnds::default, |j| self.ends[j]);
        let span = |from: u32, to: u32| from as usize..to as usize;
        IterFootprint {
            reads: &self.reads[span(s.reads, e.reads)],
            writes: &self.writes[span(s.writes, e.writes)],
            slice_reads: &self.slice_reads[span(s.slice_reads, e.slice_reads)],
            slice_writes: &self.slice_writes[span(s.slice_writes, e.slice_writes)],
            steps: e.steps,
        }
    }

    /// Every iteration's footprint, in original order.
    pub fn iters(&self) -> impl ExactSizeIterator<Item = IterFootprint<'_>> + '_ {
        (0..self.len()).map(|k| self.iter(k))
    }

    /// Per-iteration step counts, in original order (autotuner input).
    #[must_use]
    pub fn iter_steps(&self) -> Vec<u64> {
        self.ends.iter().map(|e| e.steps).collect()
    }
}

/// The iteration stored to the cell from payload instructions.
const PAY_STORED: u32 = 1;
/// The iteration stored to the cell from iterator-slice instructions.
const SLICE_STORED: u32 = 2;
/// A payload read came before the iteration's first store to the cell.
const READ: u32 = 4;
/// A slice read came before the iteration's first slice store to it.
const SLICE_READ: u32 = 8;

/// One heap cell's accesses in the current iteration, folded as they
/// arrive: what the cell's entries in the iteration's footprint will be.
#[derive(Debug, Clone, Copy)]
struct CellFold {
    /// The cell, `obj << 32 | cell`.
    key: u64,
    /// The cell's slot in the index.
    slot: u32,
    /// `PAY_STORED`, `SLICE_STORED`, `READ` and `SLICE_READ` bits.
    flags: u32,
    /// With `PAY_STORED`: the index in the probe's `nets` of the first
    /// payload store's old value and the last one's new value.
    pay: u32,
    /// The same for iterator-slice stores, with `SLICE_STORED`.
    slice: u32,
}

/// The current iteration's cell folds, in first-touch order, with an
/// open-addressing index by cell. A slot holds a place in `folds` and is
/// taken only while the fold there points back at it, so clearing the
/// folds frees every slot.
///
/// [`EMPTY`] marks a slot no fold ever took.
struct CellFolds {
    folds: Vec<CellFold>,
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a key's home slot is the top bits of its
    /// Fibonacci hash.
    shift: u32,
}

impl Default for CellFolds {
    fn default() -> Self {
        CellFolds {
            folds: Vec::new(),
            slots: vec![EMPTY; 64],
            shift: 64 - 6,
        }
    }
}

impl CellFolds {
    /// The fold of `key`, new if the iteration has not touched it yet.
    #[inline(always)]
    fn get(&mut self, key: u64) -> &mut CellFold {
        let mut i = match self.lookup(key) {
            Ok(at) => return &mut self.folds[at],
            Err(free) => free,
        };
        // Kept at most half full.
        if 2 * (self.folds.len() + 1) > self.slots.len() {
            self.grow();
            i = self.home(key);
            while self.taken(i).is_some() {
                i = (i + 1) & (self.slots.len() - 1);
            }
        }
        self.slots[i] = self.folds.len() as u32;
        self.folds.push(CellFold {
            key,
            slot: i as u32,
            flags: 0,
            pay: 0,
            slice: 0,
        });
        let last = self.folds.len() - 1;
        &mut self.folds[last]
    }

    /// The fold of `key`, if the iteration touched it.
    fn find(&self, key: u64) -> Option<&CellFold> {
        self.lookup(key).ok().map(|at| &self.folds[at])
    }

    /// The place of `key`'s fold, or else the free slot its probe
    /// sequence reached.
    #[inline(always)]
    fn lookup(&self, key: u64) -> Result<usize, usize> {
        let mut i = self.home(key);
        while let Some(at) = self.taken(i) {
            if self.folds[at].key == key {
                return Ok(at);
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
        Err(i)
    }

    /// `key`'s home slot: the top bits of its Fibonacci hash.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The place of the fold that holds slot `i`, if one does.
    #[inline]
    fn taken(&self, i: usize) -> Option<usize> {
        let at = self.slots[i] as usize;
        self.folds
            .get(at)
            .filter(|f| f.slot as usize == i)
            .map(|_| at)
    }

    /// Doubles the index and re-adds the folds.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        self.slots = vec![EMPTY; 2 * self.slots.len()];
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for at in 0..self.folds.len() {
            let mut i = self.home(self.folds[at].key);
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = at as u32;
            self.folds[at].slot = i as u32;
        }
    }
}

/// An index slot no fold ever took.
const EMPTY: u32 = u32::MAX;

/// Accumulates a [`LoopProfile`] while the golden recorder drives the
/// interpreter. The recorder composition calls [`FootprintProbe::read`] /
/// [`FootprintProbe::store`] from the memory hooks, flips
/// [`FootprintProbe::set_payload`] as control crosses slice/payload
/// instructions, and marks iteration boundaries with
/// [`FootprintProbe::begin_invocation`], [`FootprintProbe::commit_iter`],
/// [`FootprintProbe::abort_invocation`] and
/// [`FootprintProbe::drop_partial`].
///
/// Each access is folded into its cell's state for the current iteration
/// as it arrives (DESIGN.md §18): a store collapses into the side's first
/// old and last new value, and a read is kept, once, exactly when it is
/// upward-exposed. A commit then sorts only the iteration's distinct
/// cells.
pub struct FootprintProbe {
    active: bool,
    payload: bool,
    cap: usize,
    /// Heap events still accepted: zero both while inactive and once the
    /// cap is hit, so the per-access hot path gates on one branch.
    events_left: usize,
    iter_start_steps: u64,
    /// The current iteration's cells.
    folds: CellFolds,
    /// The net stores the folds index: `(first old, last new)`.
    nets: Vec<(Value, Value)>,
    /// The committed iterations.
    profile: LoopProfile,
}

impl Default for FootprintProbe {
    fn default() -> Self {
        FootprintProbe::new()
    }
}

impl FootprintProbe {
    /// A probe with the [`DEFAULT_FOOTPRINT_CAP`].
    #[must_use]
    pub fn new() -> Self {
        FootprintProbe::with_cap(DEFAULT_FOOTPRINT_CAP)
    }

    /// A probe whose access sets stop growing after `cap` recorded heap
    /// events (the profile is then [`LoopProfile::truncated`]).
    #[must_use]
    pub fn with_cap(cap: usize) -> Self {
        FootprintProbe {
            active: false,
            payload: false,
            cap,
            events_left: 0,
            iter_start_steps: 0,
            folds: CellFolds::default(),
            nets: Vec::new(),
            profile: LoopProfile::default(),
        }
    }

    /// The tested invocation's first header arrival: start accumulating.
    pub fn begin_invocation(&mut self, steps: u64) {
        self.active = true;
        self.payload = false;
        self.events_left = self.cap;
        self.iter_start_steps = steps;
        self.clear();
    }

    /// The recorder discarded the in-flight invocation (too short, or a
    /// skipped eligible one): forget everything accumulated so far.
    pub fn abort_invocation(&mut self) {
        self.drop_partial();
        self.profile = LoopProfile::default();
    }

    /// An iteration boundary: seal the current accumulation as one
    /// committed iteration ending at step count `steps`.
    pub fn commit_iter(&mut self, steps: u64) {
        // The sets are appended to the profile's arrays and the fold list
        // keeps its capacity, so the steady state allocates nothing per
        // iteration. Sorting the folds in place unlinks their index slots,
        // which the clear below frees anyway.
        let folds = &mut self.folds.folds;
        folds.sort_unstable_by_key(|f| f.key);
        let prof = &mut self.profile;
        for f in folds.iter() {
            let cell = ((f.key >> 32) as u32, f.key as u32);
            if f.flags & READ != 0 {
                prof.reads.push(cell);
            }
            if f.flags & SLICE_READ != 0 {
                prof.slice_reads.push(cell);
            }
            for (bit, net, out) in [
                (PAY_STORED, f.pay, &mut prof.writes),
                (SLICE_STORED, f.slice, &mut prof.slice_writes),
            ] {
                if f.flags & bit != 0 {
                    let (first_old, last_new) = self.nets[net as usize];
                    out.push(CellWrite {
                        obj: cell.0,
                        cell: cell.1,
                        first_old: canonical_bits(first_old),
                        last_new: canonical_bits(last_new),
                    });
                }
            }
        }
        prof.seal(steps.saturating_sub(self.iter_start_steps));
        self.clear();
        self.iter_start_steps = steps;
    }

    /// The invocation ended without committing the in-flight partial
    /// (the header check failed): its accesses belong to the exit test,
    /// not to any iteration.
    pub fn drop_partial(&mut self) {
        self.active = false;
        self.events_left = 0;
        self.clear();
    }

    /// Forgets the current iteration's cells.
    fn clear(&mut self) {
        self.folds.folds.clear();
        self.nets.clear();
    }

    /// Whether subsequent accesses attribute to payload (`true`) or to
    /// the iterator slice (`false`).
    pub fn set_payload(&mut self, payload: bool) {
        self.payload = payload;
    }

    /// A heap cell was read. Reads the current iteration already wrote
    /// (payload reads after any same-iteration write, slice reads after a
    /// same-iteration slice write) are satisfied locally — the worker
    /// replays the iteration in program order — and join no set.
    #[inline]
    pub fn read(&mut self, obj: u32, cell: u32) {
        if self.events_left == 0 {
            self.dropped();
            return;
        }
        self.events_left -= 1;
        let f = self.folds.get(key(obj, cell));
        // Exposed before any store of either side, or of the slice side.
        let (bit, hidden_by) = if self.payload {
            (READ, PAY_STORED | SLICE_STORED)
        } else {
            (SLICE_READ, SLICE_STORED)
        };
        if f.flags & hidden_by == 0 {
            f.flags |= bit;
        }
    }

    /// A heap cell was stored to; `old`/`new` are the cell's value before
    /// and after the store.
    #[inline]
    pub fn store(&mut self, obj: u32, cell: u32, old: Value, new: Value) {
        if self.events_left == 0 {
            self.dropped();
            return;
        }
        self.events_left -= 1;
        let f = self.folds.get(key(obj, cell));
        let (bit, net) = if self.payload {
            (PAY_STORED, &mut f.pay)
        } else {
            (SLICE_STORED, &mut f.slice)
        };
        if f.flags & bit == 0 {
            f.flags |= bit;
            *net = self.nets.len() as u32;
            self.nets.push((old, new));
        } else {
            self.nets[*net as usize].1 = new;
        }
    }

    /// Whether the current iteration's footprint holds the cell as an
    /// upward-exposed payload read or a payload write: the cell is then
    /// in the iteration's `reads` or `writes` once it commits.
    #[must_use]
    pub fn payload_touched(&self, obj: u32, cell: u32) -> bool {
        self.folds
            .find(key(obj, cell))
            .is_some_and(|f| f.flags & (READ | PAY_STORED) != 0)
    }

    /// Seals the probe into the finished profile.
    #[must_use]
    pub fn finish(self) -> LoopProfile {
        // An unsealed partial at finish time means the recording ended
        // without a boundary signal: only the committed prefix is kept.
        self.profile
    }

    /// A heap event arrived with no budget left: either the probe is
    /// inactive (nothing to note) or the cap was hit (the profile's
    /// access sets are now incomplete).
    #[cold]
    fn dropped(&mut self) {
        if self.active {
            self.profile.truncated = true;
        }
    }
}

#[cfg(test)]
pub(crate) mod event_log;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_bits_collapse_nan_and_negative_zero() {
        assert_eq!(
            canonical_bits(Value::Float(f64::NAN)),
            canonical_bits(Value::Float(-f64::NAN))
        );
        assert_eq!(
            canonical_bits(Value::Float(-0.0)),
            canonical_bits(Value::Float(0.0))
        );
        assert_ne!(
            canonical_bits(Value::Int(0)),
            canonical_bits(Value::Float(0.0)),
            "tags separate types"
        );
        assert_ne!(
            canonical_bits(Value::Null),
            canonical_bits(Value::Bool(false))
        );
    }

    use event_log::{probed, ProbeCall};
    use ProbeCall::{Abort, Begin, Commit, DropPartial, Payload, Read, Store};

    fn int(x: i64) -> Value {
        Value::Int(x)
    }

    #[test]
    fn probe_collapses_stores_and_attributes_slice() {
        let prof = probed(
            DEFAULT_FOOTPRINT_CAP,
            &[
                Begin(100),
                Payload(true),
                Read(1, 0),
                Read(1, 0),
                Store(1, 2, int(0), int(5)),
                Store(1, 2, int(5), int(9)),
                Payload(false),
                Read(3, 0),
                Store(3, 1, int(7), int(8)),
                Commit(150),
            ],
        );
        assert_eq!(prof.len(), 1);
        let it = prof.iter(0);
        assert_eq!(it.reads, [(1, 0)]);
        assert_eq!(it.writes.len(), 1);
        assert_eq!(it.writes[0].first_old, canonical_bits(int(0)));
        assert_eq!(it.writes[0].last_new, canonical_bits(int(9)));
        assert_eq!(it.slice_reads, [(3, 0)]);
        assert_eq!(it.slice_writes.len(), 1);
        assert_eq!(it.steps, 50);
    }

    #[test]
    fn silent_write_detected_from_endpoints() {
        // 3 -> 7 -> 3: the net effect is silent.
        let prof = probed(
            DEFAULT_FOOTPRINT_CAP,
            &[
                Begin(0),
                Payload(true),
                Store(0, 0, int(3), int(7)),
                Store(0, 0, int(7), int(3)),
                Commit(10),
            ],
        );
        assert!(prof.iter(0).writes[0].is_silent());
    }

    #[test]
    fn abort_discards_everything_cap_marks_truncated() {
        let prof = probed(
            2,
            &[
                Begin(0),
                Payload(true),
                Read(0, 0),
                Commit(1),
                Abort,
                Begin(5),
                Payload(true),
                Read(0, 1),
                Read(0, 2),
                Read(0, 3), // over cap
                Commit(9),
            ],
        );
        assert_eq!(prof.len(), 1, "aborted invocation left no trace");
        assert_eq!(prof.iter(0).reads.len(), 2);
        assert!(prof.truncated);
        assert_eq!(prof.iter_steps(), vec![4], "steps survive truncation");
    }

    #[test]
    fn reads_are_kept_only_before_the_first_store_of_their_side() {
        let prof = probed(
            DEFAULT_FOOTPRINT_CAP,
            &[
                Begin(0),
                // A payload store hides later payload reads but not slice
                // reads; a slice store hides both.
                Payload(true),
                Store(1, 0, int(0), int(1)),
                Read(1, 0),
                Payload(false),
                Read(1, 0),
                Store(1, 1, int(0), int(1)),
                Read(1, 1),
                Payload(true),
                Read(1, 1),
                // A read before the store is kept, once.
                Read(1, 2),
                Read(1, 2),
                Store(1, 2, int(4), int(4)),
                Commit(10),
                // The next iteration starts clean.
                Read(1, 0),
                Commit(20),
            ],
        );
        let it = prof.iter(0);
        assert_eq!(it.reads, [(1, 2)]);
        assert_eq!(it.slice_reads, [(1, 0)]);
        assert_eq!((it.writes.len(), it.slice_writes.len()), (2, 1));
        assert_eq!(prof.iter(1).reads, [(1, 0)]);
    }

    /// Iterations touching thousands of cells, in scattered order, grow
    /// the fold's index several times.
    #[test]
    fn fold_equals_the_event_log_on_wide_iterations() {
        let mut calls = vec![Begin(0), Payload(true)];
        for k in 0..3u32 {
            for i in 0..5000u32 {
                let (obj, cell) = (i.wrapping_mul(2_654_435_761) % 97, i % 61);
                calls.push(match (i + k) % 3 {
                    0 => Read(obj, cell),
                    1 => Store(obj, cell, int(i64::from(i)), int(i64::from(k))),
                    _ => Payload(i % 2 == 0),
                });
            }
            calls.push(Commit(u64::from(k + 1) * 100));
        }
        let prof = probed(DEFAULT_FOOTPRINT_CAP, &calls);
        let it = prof.iter(0);
        assert!(it.reads.len() + it.writes.len() > 1000);
    }

    /// Random call streams over a few cells, with partials dropped,
    /// invocations aborted and restarted, and every cap from nothing to
    /// the whole stream: the fold and the log agree, truncation included.
    #[test]
    fn fold_equals_the_event_log_on_random_streams() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let values = [
            int(0),
            int(1),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Null,
        ];
        for _ in 0..300 {
            let mut calls = vec![Begin(0)];
            let mut steps = 0;
            let mut events = 0;
            for _ in 0..next(60) {
                steps += 1 + next(5);
                let (obj, cell) = (next(3) as u32, next(4) as u32);
                let call = match next(24) {
                    0..=2 => Payload(next(2) == 0),
                    3..=9 => Read(obj, cell),
                    10..=18 => Store(
                        obj,
                        cell,
                        values[next(5) as usize],
                        values[next(5) as usize],
                    ),
                    19..=21 => Commit(steps),
                    22 => DropPartial,
                    _ => Abort,
                };
                events += u64::from(matches!(call, Read(..) | Store(..)));
                calls.push(call);
                if matches!(call, DropPartial | Abort) {
                    calls.push(Begin(steps));
                }
            }
            calls.push(Commit(steps + 1));
            for cap in 0..=events as usize + 1 {
                probed(cap, &calls);
            }
        }
    }
}
