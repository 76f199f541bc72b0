//! DCA verdicts and the per-module analysis report.

use crate::outcome::Divergence;
use dca_analysis::ExclusionReason;
use dca_interp::Trap;
use dca_ir::LoopRef;
use dca_obs::ObsRollup;
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// Why a loop failed commutativity testing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A permuted execution produced a different outcome than the golden
    /// reference. Carries the first point of divergence in canonical
    /// traversal order when the engine could pinpoint one (`None` when
    /// the comparison found none to name).
    OutcomeMismatch(Option<Divergence>),
    /// A permuted execution trapped (paper §IV-E: permuted execution of
    /// non-commutative loops can behave unpredictably; we detect this
    /// reliably). Carries the concrete fault so reports can say *which*
    /// (out-of-bounds index, division by zero, OOM, …).
    ReplayTrapped(Trap),
    /// A permuted execution exceeded the step budget (e.g. permutation
    /// made a convergence loop diverge).
    ReplayDiverged,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::OutcomeMismatch(None) => write!(f, "live-out mismatch"),
            Violation::OutcomeMismatch(Some(d)) => write!(f, "live-out mismatch: {d}"),
            Violation::ReplayTrapped(t) => write!(f, "permuted execution trapped: {t}"),
            Violation::ReplayDiverged => write!(f, "permuted execution diverged"),
        }
    }
}

/// Why a loop could not be dynamically tested at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipReason {
    /// More iterations than the configured trip limit.
    TripLimit,
    /// The golden run itself trapped; carries the concrete fault.
    GoldenTrapped(Trap),
    /// The golden run exceeded the step budget.
    GoldenBudget,
    /// A permuted replay exceeded the step budget. The replay never
    /// finished, so commutativity was neither confirmed nor refuted — a
    /// resource limit, not a [`Violation`].
    ReplayBudget,
    /// A wall-clock deadline ([`crate::config::WallLimits`]) expired
    /// before this loop's verification could finish. Like
    /// [`SkipReason::ReplayBudget`], a resource limit, not a violation.
    Deadline,
    /// The engine itself faulted (a contained panic) while analyzing this
    /// loop; carries the captured panic message. The rest of the analysis
    /// is unaffected — engine faults are contained, classified and
    /// reported, never a crash.
    EngineFault(String),
    /// The run was cancelled (Ctrl-C, a tripped
    /// [`crate::parallel::CancelToken`]) before this loop's verification
    /// could finish. The partial report is still valid; a re-run against
    /// the same `DCA_JOURNAL` resumes exactly here.
    Cancelled,
    /// A replay exceeded the configured heap budget
    /// ([`crate::DcaConfig::max_heap_cells`]). Like
    /// [`SkipReason::ReplayBudget`], a resource limit, not a violation —
    /// the budget exists so a runaway replay degrades to a skip instead
    /// of OOM-killing the whole process.
    MemoryBudget,
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::TripLimit => write!(f, "trip count above limit"),
            SkipReason::GoldenTrapped(t) => write!(f, "golden run trapped: {t}"),
            SkipReason::GoldenBudget => write!(f, "golden run exceeded budget"),
            SkipReason::ReplayBudget => write!(f, "permuted replay exceeded budget"),
            SkipReason::Deadline => write!(f, "wall-clock deadline expired"),
            SkipReason::EngineFault(msg) => write!(f, "engine fault contained: {msg}"),
            SkipReason::Cancelled => write!(f, "run cancelled"),
            SkipReason::MemoryBudget => write!(f, "replay exceeded heap budget"),
        }
    }
}

/// DCA's verdict for one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopVerdict {
    /// All tested permutations preserved the outcome: the loop is
    /// (dynamically) commutative, hence potentially parallelizable.
    Commutative,
    /// Some permutation changed the outcome.
    NonCommutative(Violation),
    /// Statically excluded (I/O, empty payload — paper §IV-E).
    Excluded(ExclusionReason),
    /// The input workload never ran this loop with at least two
    /// iterations, so commutativity could not be observed (paper §V-C1's
    /// MG discussion).
    NotExercised,
    /// Dynamically untestable for a resource reason.
    Skipped(SkipReason),
}

impl LoopVerdict {
    /// True if the verdict reports the loop as parallelizable.
    pub fn is_commutative(&self) -> bool {
        matches!(self, LoopVerdict::Commutative)
    }
}

impl fmt::Display for LoopVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoopVerdict::Commutative => write!(f, "commutative"),
            LoopVerdict::NonCommutative(v) => write!(f, "non-commutative ({v})"),
            LoopVerdict::Excluded(r) => write!(f, "excluded ({r})"),
            LoopVerdict::NotExercised => write!(f, "not exercised"),
            LoopVerdict::Skipped(r) => write!(f, "skipped ({r})"),
        }
    }
}

/// The full result for one loop.
#[derive(Debug, Clone)]
pub struct LoopResult {
    /// Which loop.
    pub lref: LoopRef,
    /// Its source tag, if any.
    pub tag: Option<String>,
    /// The verdict.
    pub verdict: LoopVerdict,
    /// Trip count observed during the golden run (0 when never recorded).
    pub trips: usize,
    /// How many permutations were executed.
    pub permutations_tested: usize,
    /// Interpreter steps consumed by the verification replays of this
    /// loop (every completed permutation and the first terminal one).
    /// Deterministic for a given config and workload, regardless of the
    /// worker-thread count.
    pub replay_steps: u64,
    /// Wall-clock time spent analyzing this loop: its verification under
    /// [`crate::Dca::analyze`], whose one golden run records every loop,
    /// and everything from the static stage on under
    /// [`crate::Dca::test_loop`]. Purely informational; varies run to run.
    pub wall: Duration,
    /// True when this verdict was served from the persistent verdict
    /// cache (DESIGN.md §15) instead of being recomputed. Provenance
    /// metadata like [`wall`]: not part of the outcome, so equality
    /// ignores it.
    ///
    /// [`wall`]: LoopResult::wall
    pub cached: bool,
    /// True when this verdict was replayed from the write-ahead run
    /// journal (DESIGN.md §16) of an earlier, interrupted run
    /// instead of being recomputed. Provenance metadata like
    /// [`cached`]: not part of the outcome, so equality ignores it.
    ///
    /// [`cached`]: LoopResult::cached
    pub resumed: bool,
}

/// Equality compares the analysis outcome — verdict, trips, permutation
/// count — and deliberately ignores the performance metadata ([`wall`] is
/// never reproducible; `replay_steps` is, but is not part of the verdict).
///
/// [`wall`]: LoopResult::wall
impl PartialEq for LoopResult {
    fn eq(&self, other: &Self) -> bool {
        self.lref == other.lref
            && self.tag == other.tag
            && self.verdict == other.verdict
            && self.trips == other.trips
            && self.permutations_tested == other.permutations_tested
    }
}

/// The report of one whole-module analysis.
#[derive(Debug, Clone, Default)]
pub struct DcaReport {
    results: Vec<LoopResult>,
    index: HashMap<LoopRef, usize>,
    /// Wall-clock time of the whole analysis.
    pub wall: Duration,
    /// Worker threads the engine actually used (after resolving the
    /// `threads: 0` auto-detect).
    pub threads: usize,
    /// Pipeline observability rollup — per-stage span timings and
    /// counters — when the engine ran with
    /// [`crate::config::ObsOptions::metrics`] (or `DCA_TRACE`) enabled;
    /// `None` otherwise. Counter values and span counts are
    /// deterministic for a given configuration and workload, identical
    /// at every worker-thread count; span durations are wall time.
    pub obs: Option<ObsRollup>,
    /// Verdict-cache statistics for this analysis — `Some` whenever a
    /// cache path was configured (via [`crate::DcaConfig::cache`] or
    /// `DCA_CACHE`), even if the engine had to bypass it. `None` when no
    /// cache was configured.
    pub cache: Option<crate::CacheStats>,
    /// Run-journal statistics for this analysis — `Some` whenever a
    /// journal path was configured (via [`crate::DcaConfig::journal`] or
    /// `DCA_JOURNAL`), even if the engine had to bypass it. `None` when
    /// no journal was configured.
    pub journal: Option<crate::RunJournalStats>,
}

impl DcaReport {
    /// An empty report that will record `threads` worker threads.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        DcaReport {
            threads,
            ..DcaReport::default()
        }
    }

    /// Adds one loop's result.
    pub fn push(&mut self, r: LoopResult) {
        self.index.insert(r.lref, self.results.len());
        self.results.push(r);
    }

    /// All results, in analysis order.
    pub fn iter(&self) -> impl Iterator<Item = &LoopResult> {
        self.results.iter()
    }

    /// Number of loops analyzed (including excluded/skipped).
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True when no loops were found.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// The result for a specific loop.
    pub fn get(&self, l: LoopRef) -> Option<&LoopResult> {
        self.index.get(&l).map(|&i| &self.results[i])
    }

    /// The result for the loop tagged `tag`.
    pub fn by_tag(&self, tag: &str) -> Option<&LoopResult> {
        self.results.iter().find(|r| r.tag.as_deref() == Some(tag))
    }

    /// Loops found commutative.
    pub fn commutative_loops(&self) -> impl Iterator<Item = &LoopResult> {
        self.results.iter().filter(|r| r.verdict.is_commutative())
    }

    /// Count of commutative loops.
    pub fn commutative_count(&self) -> usize {
        self.commutative_loops().count()
    }

    /// Total interpreter steps consumed by verification replays.
    pub fn replay_steps(&self) -> u64 {
        self.results.iter().map(|r| r.replay_steps).sum()
    }

    /// Count of loops whose verdict came from the persistent cache.
    pub fn cached_count(&self) -> usize {
        self.results.iter().filter(|r| r.cached).count()
    }

    /// Count of loops whose verdict was replayed from the run journal of
    /// an earlier, interrupted run.
    pub fn resumed_count(&self) -> usize {
        self.results.iter().filter(|r| r.resumed).count()
    }
}

impl fmt::Display for DcaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DCA report: {}/{} loops commutative",
            self.commutative_count(),
            self.len()
        )?;
        for r in &self.results {
            let tag = r
                .tag
                .as_deref()
                .map(|t| format!(" @{t}"))
                .unwrap_or_default();
            let cached = if r.cached {
                " [cached]"
            } else if r.resumed {
                " [resumed]"
            } else {
                ""
            };
            writeln!(
                f,
                "  {}{tag}: {} (trips={}, perms={}){cached}",
                r.lref, r.verdict, r.trips, r.permutations_tested
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_ir::{FuncId, LoopId};

    fn lref(f: u32, l: u32) -> LoopRef {
        LoopRef {
            func: FuncId(f),
            loop_id: LoopId(l),
        }
    }

    #[test]
    fn report_lookup_and_counts() {
        let mut rep = DcaReport::default();
        rep.push(LoopResult {
            lref: lref(0, 0),
            tag: Some("a".into()),
            verdict: LoopVerdict::Commutative,
            trips: 8,
            permutations_tested: 4,
            replay_steps: 100,
            wall: Duration::from_millis(1),
            cached: false,
            resumed: false,
        });
        rep.push(LoopResult {
            lref: lref(0, 1),
            tag: None,
            verdict: LoopVerdict::NonCommutative(Violation::OutcomeMismatch(None)),
            trips: 8,
            permutations_tested: 1,
            replay_steps: 50,
            wall: Duration::from_millis(2),
            cached: false,
            resumed: false,
        });
        assert_eq!(rep.len(), 2);
        assert_eq!(rep.commutative_count(), 1);
        assert_eq!(rep.replay_steps(), 150);
        assert!(rep.by_tag("a").expect("tag a").verdict.is_commutative());
        assert!(rep.get(lref(0, 1)).is_some());
        assert!(rep.get(lref(1, 0)).is_none());
    }

    #[test]
    fn verdict_display() {
        assert_eq!(LoopVerdict::Commutative.to_string(), "commutative");
        assert_eq!(
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(None)).to_string(),
            "non-commutative (live-out mismatch)"
        );
        assert_eq!(
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(Some(Divergence::Ret {
                golden: "1".into(),
                permuted: "2".into(),
            })))
            .to_string(),
            "non-commutative (live-out mismatch: return value: golden 1, permuted 2)"
        );
        assert_eq!(LoopVerdict::NotExercised.to_string(), "not exercised");
        assert_eq!(
            LoopVerdict::Skipped(SkipReason::ReplayBudget).to_string(),
            "skipped (permuted replay exceeded budget)"
        );
    }

    #[test]
    fn verdicts_carry_concrete_faults() {
        // Reports name the concrete trap, not just "trapped".
        assert_eq!(
            LoopVerdict::NonCommutative(Violation::ReplayTrapped(Trap::OutOfBounds {
                len: 8,
                index: -1
            }))
            .to_string(),
            "non-commutative (permuted execution trapped: \
             index -1 out of bounds for object of 8 cells)"
        );
        assert_eq!(
            LoopVerdict::Skipped(SkipReason::GoldenTrapped(Trap::DivByZero)).to_string(),
            "skipped (golden run trapped: division by zero)"
        );
        assert_eq!(
            LoopVerdict::Skipped(SkipReason::Deadline).to_string(),
            "skipped (wall-clock deadline expired)"
        );
        assert_eq!(
            LoopVerdict::Skipped(SkipReason::EngineFault("boom".into())).to_string(),
            "skipped (engine fault contained: boom)"
        );
        assert_eq!(
            LoopVerdict::Skipped(SkipReason::Cancelled).to_string(),
            "skipped (run cancelled)"
        );
        assert_eq!(
            LoopVerdict::Skipped(SkipReason::MemoryBudget).to_string(),
            "skipped (replay exceeded heap budget)"
        );
    }

    #[test]
    fn equality_ignores_performance_metadata() {
        let a = LoopResult {
            lref: lref(0, 0),
            tag: None,
            verdict: LoopVerdict::Commutative,
            trips: 4,
            permutations_tested: 3,
            replay_steps: 1_000,
            wall: Duration::from_millis(7),
            cached: false,
            resumed: false,
        };
        let b = LoopResult {
            replay_steps: 999,
            wall: Duration::ZERO,
            cached: true,
            resumed: true,
            ..a.clone()
        };
        assert_eq!(
            a, b,
            "wall/replay_steps/cached/resumed are not part of the outcome"
        );
        let c = LoopResult {
            permutations_tested: 4,
            ..a.clone()
        };
        assert_ne!(a, c);
    }
}
