//! Cross-iteration overlap test over a recorded [`LoopProfile`].
//!
//! The executor runs every iteration against the loop-entry snapshot and
//! merges journaled writes afterwards, so the payload hazard is:
//!
//! * **Flow** — iteration `b` has an upward-exposed read of a cell an
//!   earlier iteration `a` changed: sequentially `b` sees `a`'s value,
//!   in parallel it sees the snapshot.
//!
//! Two classic hazards are *safe* here by construction:
//!
//! * **Anti-dependences** (read in `a`, write in `b > a`): both
//!   iteration sources hand each worker its iterations in ascending
//!   order and every worker reads from its private snapshot restore, so
//!   a reader can never observe a later iteration's write.
//! * **Cross-iteration overwrites** (two iterations store different
//!   values, nobody between them reads): the merge applies write-sets in
//!   worker order, and the static block partition gives the
//!   highest-indexed worker the highest iterations, so the surviving
//!   value is the globally-last writer's — exactly the sequential
//!   outcome. (Dynamic chunk grabs are racy and can break this; the
//!   differential validator stays armed behind the pre-check as the
//!   guard for that corner.)
//!
//! Silent writes (the iteration's net effect leaves the cell's canonical
//! bits unchanged, see [`CellWrite::is_silent`](crate::CellWrite::is_silent))
//! participate in no hazard. Iterator-slice accesses are checked
//! separately: the pre-pass replays slice effects identically in every
//! worker *before* any payload runs, so a payload access overlapping a
//! slice-*changed* cell (or a slice read of a payload-changed cell)
//! observes a different interleaving than the sequential run did.

use crate::profile::LoopProfile;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The overlap scan's cell maps, keyed by [`cell_key`]. The scan's
/// result does not depend on their order.
type CellMap<V> = HashMap<u64, V, BuildHasherDefault<CellHasher>>;

/// A heap cell as one map key: its object in the high half, its cell in
/// the low half.
#[must_use]
#[inline]
pub fn cell_key(obj: u32, cell: u32) -> u64 {
    (u64::from(obj) << 32) | u64::from(cell)
}

/// The hasher for [`cell_key`] maps, run once per lookup: one multiply
/// by an odd constant, then the high half folded into the low half. A
/// map takes its bucket from the low bits, so without the fold keys that
/// differ only in their object would share a bucket. The keys are heap
/// addresses the interpreter assigns, so no collision-resistant hasher
/// is needed.
#[derive(Default)]
pub struct CellHasher(u64);

impl Hasher for CellHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("cell maps hash only `u64` cell keys")
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// What kind of cross-iteration hazard a [`Conflict`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// A read observed (or failed to observe) another iteration's write.
    Flow,
    /// A payload write and the replicated slice pre-pass both changed the
    /// same cell, so the surviving value depends on the interleaving.
    WriteWrite,
}

impl std::fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConflictKind::Flow => write!(f, "flow dependence"),
            ConflictKind::WriteWrite => write!(f, "write/write conflict"),
        }
    }
}

/// The first cross-iteration hazard found, as a concrete witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict {
    /// The earlier of the two conflicting iterations (the writer for
    /// payload flow hazards). Slice/payload conflicts may report
    /// `iter_a == iter_b`: the hazard there is pre-pass replication,
    /// not iteration ordering.
    pub iter_a: usize,
    /// The later, dependent iteration.
    pub iter_b: usize,
    /// Object id of the conflicting cell.
    pub obj: u32,
    /// Cell index of the conflicting cell.
    pub cell: u32,
    /// Hazard kind.
    pub kind: ConflictKind,
}

impl std::fmt::Display for Conflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} on obj{}[{}] between iterations {} and {}",
            self.kind, self.obj, self.cell, self.iter_a, self.iter_b
        )
    }
}

/// Everything the overlap scan found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepReport {
    /// Number of distinct heap cells carrying at least one hazard.
    pub conflicting_cells: u64,
    /// The first hazard in deterministic scan order (ascending iteration,
    /// then ascending cell address).
    pub first: Conflict,
}

/// Outcome of [`check_decomposable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepVerdict {
    /// No cross-iteration overlap outside the excluded cells: iterations
    /// may run against the snapshot and merge in any worker order.
    Decomposable,
    /// At least one hazard; the report carries the first witness.
    Conflicting(DepReport),
    /// The profile is incomplete (access-set cap hit): no claim either
    /// way. Callers fall back to the differential validator alone.
    Unknown,
}

#[derive(Default)]
struct CellState {
    /// `Some((latest changing writer iteration, current canonical bits))`
    /// once any iteration has changed the cell away from its snapshot
    /// value.
    changed: Option<(usize, u128)>,
}

/// Scans `profile` for cross-iteration hazards. Cells of the objects in
/// `excluded_objs` — recognized histogram/reduction arrays, which the
/// executor merges with the reduction operator instead of overwriting —
/// are exempt from the test.
#[must_use]
pub fn check_decomposable(profile: &LoopProfile, excluded_objs: &BTreeSet<u32>) -> DepVerdict {
    if profile.truncated {
        return DepVerdict::Unknown;
    }

    // Global slice footprint: the pre-pass replays every slice effect in
    // every worker before payload starts, so slice/payload overlaps are
    // hazardous regardless of iteration order. Map each cell to the
    // first slice iteration touching it (for the witness).
    let mut slice_changed: CellMap<usize> = CellMap::default();
    let mut slice_read: CellMap<usize> = CellMap::default();
    for (k, it) in profile.iters().enumerate() {
        for w in it.slice_writes {
            if !w.is_silent() && !excluded_objs.contains(&w.obj) {
                slice_changed.entry(cell_key(w.obj, w.cell)).or_insert(k);
            }
        }
        for &(obj, cell) in it.slice_reads {
            if !excluded_objs.contains(&obj) {
                slice_read.entry(cell_key(obj, cell)).or_insert(k);
            }
        }
    }

    let mut cells: CellMap<CellState> = CellMap::default();
    let mut first: Option<Conflict> = None;
    let mut conflicting_cells: u64 = 0;
    let mut flagged: HashSet<u64, BuildHasherDefault<CellHasher>> = HashSet::default();

    let mut record = |flagged: &mut HashSet<_, _>, c: Conflict| {
        if flagged.insert(cell_key(c.obj, c.cell)) {
            conflicting_cells += 1;
        }
        if first.is_none() {
            first = Some(c);
        }
    };

    for (b, it) in profile.iters().enumerate() {
        for &(obj, cell) in it.reads {
            if excluded_objs.contains(&obj) {
                continue;
            }
            // Flow from an earlier payload writer.
            if let Some(st) = cells.get(&cell_key(obj, cell)) {
                if let Some((a, _)) = st.changed {
                    if a != b {
                        record(
                            &mut flagged,
                            Conflict {
                                iter_a: a,
                                iter_b: b,
                                obj,
                                cell,
                                kind: ConflictKind::Flow,
                            },
                        );
                    }
                }
            }
            // Flow from the replicated slice pre-pass (any iteration:
            // sequentially the read sees only slice effects of earlier
            // iterations, in parallel it sees all of them).
            if let Some(&a) = slice_changed.get(&cell_key(obj, cell)) {
                record(
                    &mut flagged,
                    Conflict {
                        iter_a: a.min(b),
                        iter_b: a.max(b),
                        obj,
                        cell,
                        kind: ConflictKind::Flow,
                    },
                );
            }
        }
        for w in it.writes {
            if excluded_objs.contains(&w.obj) {
                continue;
            }
            let st = cells.entry(cell_key(w.obj, w.cell)).or_default();
            match st.changed {
                None => {
                    if !w.is_silent() {
                        st.changed = Some((b, w.last_new));
                        // A changing payload write to a cell the slice
                        // also touches races the replicated pre-pass.
                        if let Some(&a) = slice_changed.get(&cell_key(w.obj, w.cell)) {
                            record(
                                &mut flagged,
                                Conflict {
                                    iter_a: a.min(b),
                                    iter_b: a.max(b),
                                    obj: w.obj,
                                    cell: w.cell,
                                    kind: ConflictKind::WriteWrite,
                                },
                            );
                        } else if let Some(&a) = slice_read.get(&cell_key(w.obj, w.cell)) {
                            record(
                                &mut flagged,
                                Conflict {
                                    iter_a: a.min(b),
                                    iter_b: a.max(b),
                                    obj: w.obj,
                                    cell: w.cell,
                                    kind: ConflictKind::Flow,
                                },
                            );
                        }
                    }
                }
                // A later overwrite is not itself a hazard (see the
                // module docs); it just moves the changing-writer mark
                // forward for subsequent reads' witnesses.
                Some(_) => st.changed = Some((b, w.last_new)),
            }
        }
    }

    match first {
        None => DepVerdict::Decomposable,
        Some(first) => DepVerdict::Conflicting(DepReport {
            conflicting_cells,
            first,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::event_log::{probed, ProbeCall::*};
    use crate::profile::{CellWrite, IterFootprint, DEFAULT_FOOTPRINT_CAP};
    use dca_interp::Value;

    fn write(obj: u32, cell: u32, old: i64, new: i64) -> CellWrite {
        CellWrite {
            obj,
            cell,
            first_old: crate::canonical_bits(Value::Int(old)),
            last_new: crate::canonical_bits(Value::Int(new)),
        }
    }

    fn profile(iters: Vec<IterFootprint<'_>>) -> LoopProfile {
        LoopProfile::from_iters(iters)
    }

    #[test]
    fn cell_hasher_spreads_both_key_halves() {
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<CellHasher>::default();
        let spread = |keys: Vec<u64>| {
            let hashes: Vec<u64> = keys.iter().map(|k| build.hash_one(k)).collect();
            let buckets: HashSet<u64> = hashes.iter().map(|h| h & 0xfff).collect();
            let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            (buckets.len(), tags.len())
        };
        let addr = cell_key;
        for (name, keys) in [
            ("object half", (0..4096).map(|o| addr(o, 7)).collect()),
            ("cell half", (0..4096).map(|c| addr(3, c)).collect()),
        ] {
            let (buckets, tags) = spread(keys);
            assert!(buckets >= 2048, "{name}: {buckets} buckets of 4096 keys");
            assert!(tags >= 120, "{name}: {tags} of 128 tags");
        }
    }

    #[test]
    fn disjoint_writes_are_decomposable() {
        let writes: Vec<CellWrite> = (0..8).map(|i| write(1, i, 0, i64::from(i) + 1)).collect();
        let p = profile(
            writes
                .iter()
                .map(|w| IterFootprint {
                    writes: std::slice::from_ref(w),
                    ..IterFootprint::default()
                })
                .collect(),
        );
        assert_eq!(
            check_decomposable(&p, &BTreeSet::new()),
            DepVerdict::Decomposable
        );
    }

    #[test]
    fn flow_dependence_yields_first_witness() {
        // Iteration 2 reads the cell iteration 1 changed.
        let p = profile(vec![
            IterFootprint::default(),
            IterFootprint {
                writes: &[write(5, 3, 0, 42)],
                ..IterFootprint::default()
            },
            IterFootprint {
                reads: &[(5, 3)],
                ..IterFootprint::default()
            },
        ]);
        match check_decomposable(&p, &BTreeSet::new()) {
            DepVerdict::Conflicting(r) => {
                assert_eq!(r.conflicting_cells, 1);
                assert_eq!(
                    r.first,
                    Conflict {
                        iter_a: 1,
                        iter_b: 2,
                        obj: 5,
                        cell: 3,
                        kind: ConflictKind::Flow,
                    }
                );
            }
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn anti_dependence_is_safe() {
        // Read in iteration 0, write in iteration 1: snapshot isolation
        // plus ascending per-worker order makes this safe.
        let p = profile(vec![
            IterFootprint {
                reads: &[(2, 0)],
                ..IterFootprint::default()
            },
            IterFootprint {
                writes: &[write(2, 0, 0, 9)],
                ..IterFootprint::default()
            },
        ]);
        assert_eq!(
            check_decomposable(&p, &BTreeSet::new()),
            DepVerdict::Decomposable
        );
    }

    #[test]
    fn same_value_and_silent_writers_are_safe() {
        // Both iterations write 7 (WW but value-equal); a third writes
        // silently.
        let p = profile(vec![
            IterFootprint {
                writes: &[write(1, 0, 0, 7)],
                ..IterFootprint::default()
            },
            IterFootprint {
                writes: &[write(1, 0, 7, 7)],
                ..IterFootprint::default()
            },
            IterFootprint {
                writes: &[write(1, 1, 3, 3)],
                ..IterFootprint::default()
            },
        ]);
        assert_eq!(
            check_decomposable(&p, &BTreeSet::new()),
            DepVerdict::Decomposable
        );
    }

    #[test]
    fn cross_iteration_overwrite_without_reads_is_safe() {
        // Two iterations leave different values but nobody reads the
        // stale one: the merge's worker-ordered overwrite reproduces the
        // sequential last-writer-wins outcome (module docs).
        let p = profile(vec![
            IterFootprint {
                writes: &[write(1, 0, 0, 7)],
                ..IterFootprint::default()
            },
            IterFootprint {
                writes: &[write(1, 0, 7, 8)],
                ..IterFootprint::default()
            },
        ]);
        assert_eq!(
            check_decomposable(&p, &BTreeSet::new()),
            DepVerdict::Decomposable
        );
    }

    #[test]
    fn scratch_buffer_refill_is_decomposable() {
        // The EP idiom: every iteration fills a shared scratch buffer,
        // then consumes it. The probe drops the locally-satisfied reads,
        // so only the (safe) overwrites remain.
        let mut calls = vec![Begin(0)];
        for k in 0..3 {
            calls.extend([
                Payload(true),
                Store(2, 0, Value::Int(k), Value::Int(k + 1)),
                Store(2, 1, Value::Int(10 * k), Value::Int(10 * (k + 1))),
                Read(2, 0),
                Read(2, 1),
                Commit(u64::try_from(k).unwrap() * 10 + 10),
            ]);
        }
        let prof = probed(DEFAULT_FOOTPRINT_CAP, &calls);
        assert!(prof.iters().all(|it| it.reads.is_empty()));
        assert_eq!(
            check_decomposable(&prof, &BTreeSet::new()),
            DepVerdict::Decomposable
        );
    }

    #[test]
    fn upward_exposed_read_still_conflicts_after_overwrite() {
        // Iteration 1 reads before writing: the read is upward-exposed
        // and must flag flow from iteration 0's change.
        let prof = probed(
            DEFAULT_FOOTPRINT_CAP,
            &[
                Begin(0),
                Payload(true),
                Store(1, 0, Value::Int(0), Value::Int(5)),
                Commit(10),
                Payload(true),
                Read(1, 0),
                Store(1, 0, Value::Int(5), Value::Int(6)),
                Commit(20),
            ],
        );
        match check_decomposable(&prof, &BTreeSet::new()) {
            DepVerdict::Conflicting(r) => {
                assert_eq!(r.first.kind, ConflictKind::Flow);
                assert_eq!((r.first.iter_a, r.first.iter_b), (0, 1));
            }
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn excluded_objects_are_exempt() {
        let p = profile(vec![
            IterFootprint {
                writes: &[write(9, 0, 0, 1)],
                ..IterFootprint::default()
            },
            IterFootprint {
                writes: &[write(9, 0, 1, 2)],
                reads: &[(9, 0)],
                ..IterFootprint::default()
            },
        ]);
        assert_eq!(
            check_decomposable(&p, &BTreeSet::from([9])),
            DepVerdict::Decomposable
        );
    }

    #[test]
    fn payload_read_of_slice_changed_cell_conflicts() {
        // The slice pops a worklist head; a payload read of that head
        // cell would see the fully-drained list in parallel.
        let p = profile(vec![
            IterFootprint {
                slice_writes: &[write(4, 0, 10, 20)],
                reads: &[(4, 0)],
                ..IterFootprint::default()
            },
            IterFootprint {
                slice_writes: &[write(4, 0, 20, 30)],
                ..IterFootprint::default()
            },
        ]);
        match check_decomposable(&p, &BTreeSet::new()) {
            DepVerdict::Conflicting(r) => assert_eq!(r.first.kind, ConflictKind::Flow),
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn disjoint_slice_writes_and_payload_reads_coexist() {
        // The worklist-drain shape: slice writes the head cell, payload
        // reads element cells nobody writes.
        let p = profile(vec![
            IterFootprint {
                slice_writes: &[write(4, 0, 10, 20)],
                slice_reads: &[(4, 0), (7, 1)],
                reads: &[(7, 0)],
                ..IterFootprint::default()
            },
            IterFootprint {
                slice_writes: &[write(4, 0, 20, 30)],
                slice_reads: &[(4, 0), (8, 1)],
                reads: &[(8, 0)],
                ..IterFootprint::default()
            },
        ]);
        assert_eq!(
            check_decomposable(&p, &BTreeSet::new()),
            DepVerdict::Decomposable
        );
    }

    #[test]
    fn truncated_profile_is_unknown() {
        let prof = probed(0, &[Begin(0), Payload(true), Read(0, 0), Commit(1)]);
        assert!(prof.truncated);
        assert_eq!(
            check_decomposable(&prof, &BTreeSet::new()),
            DepVerdict::Unknown
        );
    }
}
