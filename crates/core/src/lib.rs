//! Dynamic Commutativity Analysis (DCA) — the primary contribution of
//! *"Loop Parallelization using Dynamic Commutativity Analysis"*
//! (Vasiladiotis, Castañeda Lozano, Cole & Franke, CGO 2021).
//!
//! A loop is **commutative** when rearranging its iterations preserves the
//! outcome of the original program (paper §III). DCA tests this property
//! dynamically and uniformly across regular array-based loops and
//! irregular pointer-linked data structure (PLDS) traversals:
//!
//! 1. **Static stage** (paper §IV-A, in [`dca_analysis`]): iterator/payload
//!    separation via generalized iterator recognition; loops with I/O or
//!    empty payloads are excluded.
//! 2. **Dynamic stage** (paper §IV-B, this crate):
//!    [`record`] runs the program once in original order, capturing the
//!    linearized iterator values, a snapshot at the tested invocation's
//!    entry, and the golden outcome; [`replay`] re-executes the loop under
//!    permuted iteration orders ([`perm`]); [`outcome`] verifies the
//!    live-outs against the golden reference.
//! 3. The verdicts land in a [`DcaReport`] ([`report`]).
//!
//! # Example
//!
//! ```
//! use dca_core::{Dca, DcaConfig, LoopVerdict};
//!
//! // Fig. 1(b) of the paper: the pointer-chasing loop whose
//! // cross-iteration dependence on `ptr` defeats dependence analysis.
//! let module = dca_ir::compile(
//!     "struct Node { val: int, next: *Node }
//!      fn main() -> int {
//!          let head: *Node = null;
//!          for (let i: int = 0; i < 8; i = i + 1) {
//!              let n: *Node = new Node; n.val = i; n.next = head; head = n;
//!          }
//!          let ptr: *Node = head;
//!          @map: while (ptr != null) { ptr.val = ptr.val + 1; ptr = ptr.next; }
//!          let s: int = 0; let q: *Node = head;
//!          while (q != null) { s = s + q.val; q = q.next; }
//!          return s;
//!      }",
//! ).map_err(|e| e.to_string())?;
//! let report = Dca::new(DcaConfig::fast())
//!     .analyze_module(&module)
//!     .map_err(|e| e.to_string())?;
//! assert_eq!(report.by_tag("map").expect("loop").verdict, LoopVerdict::Commutative);
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod fault;
pub mod outcome;
pub mod parallel;
pub mod perm;
pub mod record;
pub mod replay;
pub mod report;
mod store;

pub use config::{DcaConfig, DigestMode, ObsOptions, PermutationSet, VerifyScope, WallLimits};
pub use dca_deps::{
    autotune_chunk, cell_key, check_decomposable, CellHasher, Conflict, ConflictKind, DepReport,
    DepVerdict, FootprintProbe, IterFootprint, LoopProfile,
};
pub use dca_obs::{Obs, ObsRollup, SpanStat};
pub use engine::{digest_roots, read_roots, Dca, DcaError, DigestRoots, LoopFacts};
pub use fault::{catch_contained, FaultKind, FaultPlan, FaultSpecError};
pub use outcome::{
    canon_f64_bits, float_close, hash_live_state, DigestScratch, DigestStats, Divergence,
    ExitCheck, ExitRef, GoldenDigest, ProgramOutcome, StateDigest,
};
pub use parallel::{effective_threads, parallel_map, CancelToken};
pub use record::{
    record_golden, record_program, GoldenRecord, LoopRecords, ProgramRecording, RecordError,
    RecordRequest,
};
pub use replay::{run_replay, IterOrder, Perm, ReplayController, ReplayEnd, ReplayGovernor};
pub use report::{DcaReport, LoopResult, LoopVerdict, SkipReason, Violation};
pub use store::{CacheStats, RunJournalStats};
