//! Trace-footprint dependence analysis (DESIGN.md §18).
//!
//! Dynamic commutativity — the property the DCA engine proves — says the
//! loop's observable outcome is invariant under *sequential* permutation
//! of its iterations. Snapshot-decomposability — the property the real
//! executor (`dca-parallel::exec`) needs — is strictly stronger: every
//! iteration must also compute the right values when it runs against the
//! loop-entry snapshot instead of against its predecessors' effects. Six
//! suite loops sit in the gap, and before this crate existed they were
//! only caught *after* worker threads had spawned, merged and diverged
//! from the sequential oracle.
//!
//! This crate closes the gap on the recording side:
//!
//! * [`FootprintProbe`] rides the golden recording and captures, per
//!   committed iteration, the heap cells read and written (with the
//!   written values, at object/cell granularity — the same granularity
//!   as the interpreter's write journal), the scalar variables defined
//!   by payload instructions, and the interpreter step count. Iterator
//!   (slice) accesses are kept separate from payload accesses because
//!   the executor replicates the iterator pre-pass in every worker.
//! * [`check_decomposable`] scans the profile for cross-iteration
//!   read∩write and write∩write overlaps and returns either
//!   [`DepVerdict::Decomposable`] or the first conflicting
//!   `(iter_a, iter_b, address)` witness.
//! * [`autotune_chunk`] turns the per-iteration step counts into a
//!   dynamic-schedule chunk size balancing steal traffic against tail
//!   imbalance — a deterministic pure function of the profile.
//!
//! Everything here is pure data in, pure data out: no interpreter state,
//! no I/O, no clocks — profiles and verdicts are bit-stable across runs
//! and across execution widths.

#![warn(missing_docs)]

mod autotune;
mod overlap;
mod profile;

pub use autotune::{autotune_chunk, DEFAULT_DYNAMIC_CHUNK, GRAB_OVERHEAD_STEPS};
pub use overlap::{
    cell_key, check_decomposable, CellHasher, Conflict, ConflictKind, DepReport, DepVerdict,
};
pub use profile::{
    canon_f64_bits, canonical_bits, CellWrite, FootprintProbe, IterFootprint, LoopProfile,
    DEFAULT_FOOTPRINT_CAP,
};
