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

/// In-flight accumulation for the current (uncommitted) iteration: a raw
/// event log, sealed into sorted footprint sets at commit. The hook path
/// runs once per heap access of the golden run, so it must be a plain
/// `Vec` push; all dedup, net-write collapsing and upward-exposure
/// filtering happens once per iteration by sort-and-scan.
#[derive(Default)]
struct CurIter {
    /// Next event sequence number (orders reads against stores).
    seq: u32,
    /// `(cell, seq, payload?)` per heap read.
    reads: Vec<(Cell, u32, bool)>,
    /// `(cell, seq, payload?, old, new)` per heap store. The values stay
    /// raw here; only each cell's net endpoints are canonicalized, at
    /// commit.
    stores: Vec<(Cell, u32, bool, Value, Value)>,
}

/// Accumulates a [`LoopProfile`] while the golden recorder drives the
/// interpreter. The recorder composition calls [`FootprintProbe::read`] /
/// [`FootprintProbe::store`] from the memory hooks, flips
/// [`FootprintProbe::set_payload`] as control crosses slice/payload
/// instructions, and marks iteration boundaries with
/// [`FootprintProbe::begin_invocation`], [`FootprintProbe::commit_iter`],
/// [`FootprintProbe::abort_invocation`] and
/// [`FootprintProbe::drop_partial`].
pub struct FootprintProbe {
    active: bool,
    payload: bool,
    cap: usize,
    /// Heap events still accepted: zero both while inactive and once the
    /// cap is hit, so the per-access hot path gates on one branch.
    events_left: usize,
    iter_start_steps: u64,
    cur: CurIter,
    /// Commit-time scratch: per-cell first-write kill points.
    kills: Vec<(Cell, u32, u32)>,
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
            cur: CurIter::default(),
            kills: Vec::new(),
            profile: LoopProfile::default(),
        }
    }

    /// The tested invocation's first header arrival: start accumulating.
    pub fn begin_invocation(&mut self, steps: u64) {
        self.active = true;
        self.payload = false;
        self.events_left = self.cap;
        self.iter_start_steps = steps;
        self.cur = CurIter::default();
    }

    /// The recorder discarded the in-flight invocation (too short, or a
    /// skipped eligible one): forget everything accumulated so far.
    pub fn abort_invocation(&mut self) {
        self.active = false;
        self.events_left = 0;
        self.cur = CurIter::default();
        self.profile = LoopProfile::default();
    }

    /// An iteration boundary: seal the current accumulation as one
    /// committed iteration ending at step count `steps`.
    pub fn commit_iter(&mut self, steps: u64) {
        // The event buffers are drained, not replaced: their capacity
        // (and the kill scratch vector's) is reused across iterations, and
        // the sets are appended to the profile's arrays, so the steady
        // state allocates nothing per iteration.
        let cur = &mut self.cur;
        cur.seq = 0;
        let prof = &mut self.profile;

        // Collapse stores: per cell, per side, the first store's old value
        // and the last store's new value are the net effect. Alongside,
        // record each cell's first-write sequence numbers — the kill
        // points for upward-exposure filtering below.
        cur.stores
            .sort_unstable_by_key(|&(cell, seq, ..)| (cell, seq));
        // `(cell, first store seq of any side, first slice-store seq)`.
        let kills = &mut self.kills;
        kills.clear();
        let mut i = 0;
        while i < cur.stores.len() {
            let cell = cur.stores[i].0;
            let first_seq = cur.stores[i].1;
            let mut first_slice_seq = u32::MAX;
            let mut pay: Option<(Value, Value)> = None;
            let mut sli: Option<(Value, Value)> = None;
            while i < cur.stores.len() && cur.stores[i].0 == cell {
                let (_, seq, payload, old, new) = cur.stores[i];
                let side = if payload { &mut pay } else { &mut sli };
                match side {
                    Some((_, last)) => *last = new,
                    None => *side = Some((old, new)),
                }
                if !payload {
                    first_slice_seq = first_slice_seq.min(seq);
                }
                i += 1;
            }
            kills.push((cell, first_seq, first_slice_seq));
            for (net, out) in [(pay, &mut prof.writes), (sli, &mut prof.slice_writes)] {
                if let Some((first_old, last_new)) = net {
                    out.push(CellWrite {
                        obj: cell.0,
                        cell: cell.1,
                        first_old: canonical_bits(first_old),
                        last_new: canonical_bits(last_new),
                    });
                }
            }
        }

        // Upward-exposure: a payload read survives only when it precedes
        // the iteration's first write (either side) to the cell; a slice
        // read only when it precedes the first *slice* write. Sorting by
        // `(cell, seq)` makes the earliest read of each cell the first
        // seen, so a `last()` check dedups each side.
        cur.reads
            .sort_unstable_by_key(|&(cell, seq, _)| (cell, seq));
        let starts = (prof.reads.len(), prof.slice_reads.len());
        for &(cell, seq, payload) in &cur.reads {
            let kill = kills
                .binary_search_by_key(&cell, |&(c, ..)| c)
                .ok()
                .map(|k| if payload { kills[k].1 } else { kills[k].2 });
            if kill.is_some_and(|k| seq > k) {
                continue;
            }
            let (out, start) = if payload {
                (&mut prof.reads, starts.0)
            } else {
                (&mut prof.slice_reads, starts.1)
            };
            if out[start..].last() != Some(&cell) {
                out.push(cell);
            }
        }

        prof.seal(steps.saturating_sub(self.iter_start_steps));
        cur.reads.clear();
        cur.stores.clear();
        self.iter_start_steps = steps;
    }

    /// The invocation ended without committing the in-flight partial
    /// (the header check failed): its accesses belong to the exit test,
    /// not to any iteration.
    pub fn drop_partial(&mut self) {
        self.active = false;
        self.events_left = 0;
        self.cur = CurIter::default();
    }

    /// Whether subsequent accesses attribute to payload (`true`) or to
    /// the iterator slice (`false`).
    pub fn set_payload(&mut self, payload: bool) {
        self.payload = payload;
    }

    /// A heap cell was read. Reads the current iteration already wrote
    /// (payload reads after any same-iteration write, slice reads after a
    /// same-iteration slice write) are satisfied locally — the worker
    /// replays the iteration in program order — and are dropped when the
    /// iteration commits.
    #[inline]
    pub fn read(&mut self, obj: u32, cell: u32) {
        if self.events_left == 0 {
            self.dropped();
            return;
        }
        self.events_left -= 1;
        let seq = self.cur.seq;
        self.cur.seq += 1;
        self.cur.reads.push(((obj, cell), seq, self.payload));
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
        let seq = self.cur.seq;
        self.cur.seq += 1;
        self.cur
            .stores
            .push(((obj, cell), seq, self.payload, old, new));
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

    #[test]
    fn probe_collapses_stores_and_attributes_slice() {
        let mut p = FootprintProbe::new();
        p.begin_invocation(100);
        p.set_payload(true);
        p.read(1, 0);
        p.read(1, 0);
        p.store(1, 2, Value::Int(0), Value::Int(5));
        p.store(1, 2, Value::Int(5), Value::Int(9));
        p.set_payload(false);
        p.read(3, 0);
        p.store(3, 1, Value::Int(7), Value::Int(8));
        p.commit_iter(150);
        let prof = p.finish();
        assert_eq!(prof.len(), 1);
        let it = prof.iter(0);
        assert_eq!(it.reads, [(1, 0)]);
        assert_eq!(it.writes.len(), 1);
        assert_eq!(it.writes[0].first_old, canonical_bits(Value::Int(0)));
        assert_eq!(it.writes[0].last_new, canonical_bits(Value::Int(9)));
        assert_eq!(it.slice_reads, [(3, 0)]);
        assert_eq!(it.slice_writes.len(), 1);
        assert_eq!(it.steps, 50);
    }

    #[test]
    fn silent_write_detected_from_endpoints() {
        let mut p = FootprintProbe::new();
        p.begin_invocation(0);
        p.set_payload(true);
        // 3 -> 7 -> 3: the net effect is silent.
        p.store(0, 0, Value::Int(3), Value::Int(7));
        p.store(0, 0, Value::Int(7), Value::Int(3));
        p.commit_iter(10);
        let prof = p.finish();
        assert!(prof.iter(0).writes[0].is_silent());
    }

    #[test]
    fn abort_discards_everything_cap_marks_truncated() {
        let mut p = FootprintProbe::with_cap(2);
        p.begin_invocation(0);
        p.set_payload(true);
        p.read(0, 0);
        p.commit_iter(1);
        p.abort_invocation();
        p.begin_invocation(5);
        p.set_payload(true);
        p.read(0, 1);
        p.read(0, 2);
        p.read(0, 3); // over cap
        p.commit_iter(9);
        let prof = p.finish();
        assert_eq!(prof.len(), 1, "aborted invocation left no trace");
        assert_eq!(prof.iter(0).reads.len(), 2);
        assert!(prof.truncated);
        assert_eq!(prof.iter_steps(), vec![4], "steps survive truncation");
    }
}
