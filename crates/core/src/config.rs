//! DCA configuration: permutation presets, verification scope, budgets,
//! wall-clock deadlines, fault injection, observability options.

use crate::fault::FaultPlan;
use crate::parallel::CancelToken;
use std::path::PathBuf;
use std::time::Duration;

/// Observability options for the engine (see DESIGN.md §11).
///
/// Everything is off by default and adds no measurable overhead while
/// disabled (the `obs_overhead` bench asserts this). Independently of
/// this struct, setting the `DCA_TRACE=<path>` environment variable
/// enables metrics *and* trace-event streaming to `<path>` for any
/// engine run in the process.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsOptions {
    /// Accumulate per-stage counters and span timers and surface them as
    /// [`crate::DcaReport::obs`].
    pub metrics: bool,
    /// Stream JSONL trace events to this file (implies `metrics`).
    pub trace: Option<PathBuf>,
}

impl ObsOptions {
    /// Metrics on, no trace file.
    #[must_use]
    pub fn metrics() -> Self {
        ObsOptions {
            metrics: true,
            trace: None,
        }
    }
}

/// Which iteration permutations the dynamic stage tests (paper §IV-B2).
///
/// Exhaustive testing is exponential, so the paper uses reduced presets —
/// reverse plus a configurable number of random shuffles — accepting a
/// (small, §V-D) chance of missing a violating permutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PermutationSet {
    /// Reverse order plus `shuffles` uniformly random shuffles.
    Presets {
        /// Number of random shuffles (in addition to the reverse).
        shuffles: u32,
    },
    /// Reverse order only.
    ReverseOnly,
    /// `shuffles` uniformly random shuffles only — no reverse. Useful for
    /// isolating what random permutations alone catch in precision
    /// studies. `shuffles: 0` is an empty preset and is rejected by
    /// [`crate::Dca::analyze`] with [`crate::DcaError::EmptyPermutationSet`].
    Shuffles {
        /// Number of random shuffles.
        shuffles: u32,
    },
    /// All `trip!` permutations, for loops with at most `max_trip`
    /// iterations; loops with longer trips fall back to the presets with
    /// `fallback_shuffles` shuffles. Used by the §V-D precision study.
    Exhaustive {
        /// Maximum trip count to enumerate exhaustively.
        max_trip: usize,
        /// Shuffles to use beyond that.
        fallback_shuffles: u32,
    },
}

impl Default for PermutationSet {
    fn default() -> Self {
        PermutationSet::Presets { shuffles: 3 }
    }
}

/// Where live-out verification happens (paper §IV-B3 and §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyScope {
    /// Continue the program to completion after the permuted loop and
    /// compare the *program outcome* (output stream + return value). This
    /// is §III's definition — "rearranging its iterations preserves the
    /// outcome of the original program" — and the default.
    #[default]
    ProgramEnd,
    /// Compare at the loop exit: live-out scalars plus a canonical digest
    /// of the heap reachable from live-out pointers and globals. The
    /// reference is the golden run itself, recorded up to the loop exit
    /// and digested where it stands. Cheaper but stricter (transient
    /// structure differences, such as a permuted worklist's element
    /// order, count as mismatches). `tests/precision.rs` checks on the
    /// suite that every loop commutative at the loop exit is commutative
    /// at program end too.
    LoopExit,
}

/// Wall-clock deadlines for the verification engine. Both are off by
/// default; when set they are checked cooperatively every ~1 Ki
/// interpreter steps, so an expired deadline surfaces within one check
/// granule, not instantly.
///
/// Deadline verdicts ([`crate::SkipReason::Deadline`]) depend on host
/// speed and are the one deliberate exception to the engine's
/// bit-for-bit determinism guarantee — enable them for serving-style
/// latency bounds, not for reproducible studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WallLimits {
    /// Deadline for a single program run (the golden recording run or
    /// one permuted replay). Expiry skips the loops that run had not
    /// finished with [`crate::SkipReason::Deadline`].
    pub replay: Option<Duration>,
    /// Deadline for the whole [`crate::Dca::analyze`] call. Once expired,
    /// every not-yet-finished loop is reported as skipped with
    /// [`crate::SkipReason::Deadline`].
    pub analysis: Option<Duration>,
}

impl WallLimits {
    /// True when no deadline is configured (the hot path skips all
    /// clock reads).
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.replay.is_none() && self.analysis.is_none()
    }
}

/// How loop-exit live-out states are compared (DESIGN.md §14).
///
/// Only meaningful under [`VerifyScope::LoopExit`]; program-end
/// verification always compares the concrete outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DigestMode {
    /// Fingerprint first, at every [`DcaConfig::float_tolerance`]: stream
    /// the canonical heap traversal into a 128-bit fingerprint (tier 1 —
    /// no digest materialization, no per-replay allocation) and compare
    /// it with the golden one. Equal fingerprints are an exact match,
    /// which matches under any tolerance. Only a mismatch materializes
    /// the structural [`crate::StateDigest`]s (tier 2), to compare them
    /// under the tolerance and name the first divergence. See
    /// [`crate::ExitRef::check`]. The default.
    #[default]
    Auto,
    /// Always materialize the structural digest; never fingerprint.
    /// This exists as the differential oracle for the hashed tier: the
    /// `hash_digest_equals_structural_digest` property test runs both
    /// modes and asserts bit-identical reports.
    Structural,
}

/// Configuration for a [`crate::Dca`] engine.
#[derive(Debug, Clone, PartialEq)]
pub struct DcaConfig {
    /// Permutation preset.
    pub permutations: PermutationSet,
    /// RNG seed for the random shuffles (runs are deterministic).
    pub seed: u64,
    /// Verification scope.
    pub verify_scope: VerifyScope,
    /// Relative tolerance when comparing floats (floating-point reductions
    /// are not associative; the NPB verification routines use relative
    /// error thresholds for the same reason). Bitwise-identical floats —
    /// including NaNs — always match regardless of tolerance; setting
    /// this to `0.0` demands exactly that (canonical-bit equality, where
    /// `-0.0 == +0.0` and all NaNs are one value). The tolerance applies
    /// only where states differ bit for bit: under
    /// [`VerifyScope::LoopExit`] a fingerprint match settles a replay at
    /// any tolerance (see [`DigestMode::Auto`]).
    pub float_tolerance: f64,
    /// Loop-exit state comparator selection; see [`DigestMode`].
    pub digest: DigestMode,
    /// Which invocation of each loop to test (0 = first), and how many
    /// consecutive invocations starting there.
    pub invocations: u32,
    /// Step budget per program run (golden or replay).
    pub max_steps: u64,
    /// Loops with more recorded iterations than this are skipped.
    pub max_trip: usize,
    /// Worker threads for the verification engine; `0` means the
    /// `DCA_THREADS` environment variable if set, else one per available
    /// CPU. Permutation replays of a loop and independent loops of a
    /// module fan out across this many workers. Verdicts and counters
    /// are identical for every thread count (see DESIGN.md §Threading).
    pub threads: usize,
    /// Wall-clock deadlines (per replay and whole analysis); unlimited by
    /// default.
    pub max_wall: WallLimits,
    /// Deterministic fault injection for chaos testing; `None` (the
    /// default) falls back to the `DCA_FAULT=<spec>` environment
    /// variable, and disabled entirely when that is unset too. See
    /// [`FaultPlan`].
    pub fault: Option<FaultPlan>,
    /// Observability: per-stage metrics and trace-event streaming.
    pub obs: ObsOptions,
    /// Path of the persistent verdict cache (see DESIGN.md §15). `None`
    /// (the default) falls back to the `DCA_CACHE=<path>` environment
    /// variable, and no caching at all when that is unset too. The engine
    /// bypasses a configured cache (it serves and stores nothing)
    /// whenever verdict-perturbing fault injection or wall-clock
    /// deadlines are active, since those verdicts are not functions of
    /// the cache key.
    pub cache: Option<PathBuf>,
    /// Path of the write-ahead run journal (see DESIGN.md §16). `None`
    /// (the default) falls back to the `DCA_JOURNAL=<path>` environment
    /// variable, and no journaling at all when that is unset too. With a
    /// journal configured, every freshly computed verdict is appended as
    /// soon as it lands, and a re-run of the same analysis replays those
    /// records instead of recomputing — so a run killed mid-flight
    /// resumes where it stopped. Unlike the cache, the journal stays
    /// active under fault injection (that is how quarantine works).
    pub journal: Option<PathBuf>,
    /// Heap budget per interpreter machine, in cells. `None` (the
    /// default) leaves the interpreter's own backstop limit in place; a
    /// configured budget makes a runaway replay degrade to
    /// [`crate::SkipReason::MemoryBudget`] instead of OOM-killing the
    /// process.
    pub max_heap_cells: Option<u64>,
    /// How many times a loop whose analysis hit a transient engine fault
    /// ([`crate::SkipReason::EngineFault`], a contained panic) is re-run
    /// before the fault verdict stands. `0` (the default) disables
    /// retries. Retries are accounted deterministically in the
    /// `engine.retries` counter; a loop that exhausts them is quarantined
    /// in the run journal, so subsequent journaled runs skip it
    /// immediately.
    pub fault_retries: u32,
    /// Cooperative cancellation token. `None` (the default) means the
    /// run cannot be cancelled externally; the CLI installs a token
    /// wired to Ctrl-C. See [`CancelToken`].
    pub cancel: Option<CancelToken>,
}

impl Default for DcaConfig {
    fn default() -> Self {
        DcaConfig {
            permutations: PermutationSet::default(),
            seed: 42,
            verify_scope: VerifyScope::ProgramEnd,
            float_tolerance: 1e-8,
            digest: DigestMode::Auto,
            invocations: 1,
            max_steps: Self::DEFAULT_MAX_STEPS,
            max_trip: Self::DEFAULT_MAX_TRIP,
            threads: 0,
            max_wall: WallLimits::default(),
            fault: None,
            obs: ObsOptions::default(),
            cache: None,
            journal: None,
            max_heap_cells: None,
            fault_retries: 0,
            cancel: None,
        }
    }
}

impl DcaConfig {
    /// Default step budget per program run ([`DcaConfig::max_steps`]).
    pub const DEFAULT_MAX_STEPS: u64 = 200_000_000;
    /// Default trip limit per loop invocation ([`DcaConfig::max_trip`]).
    /// Unit tests and bench harnesses that drive `record`/`replay`
    /// directly use this same constant, so a future limit change cannot
    /// silently diverge between test and production paths.
    pub const DEFAULT_MAX_TRIP: usize = 1 << 16;
    /// Step budget used by [`DcaConfig::fast`].
    pub const FAST_MAX_STEPS: u64 = 20_000_000;
    /// Step budget for single-loop replays in unit tests and bench
    /// harnesses — large enough for any fixture in the repo, small enough
    /// to fail fast on an accidental infinite loop.
    pub const TEST_STEP_BUDGET: u64 = 10_000_000;
    /// Default `schedule(dynamic, N)` chunk size when no profile-driven
    /// autotuning is in play. Aliases [`dca_deps::DEFAULT_DYNAMIC_CHUNK`]
    /// — the one authoritative definition every consumer (executor
    /// fallback, advisor pragmas, scaling benches) must agree with.
    pub const DEFAULT_DYNAMIC_CHUNK: usize = dca_deps::DEFAULT_DYNAMIC_CHUNK;

    /// A configuration for quick tests: reverse + 2 shuffles, small budgets.
    pub fn fast() -> Self {
        DcaConfig {
            permutations: PermutationSet::Presets { shuffles: 2 },
            max_steps: Self::FAST_MAX_STEPS,
            ..Default::default()
        }
    }

    /// [`DcaConfig::fast`] with loop-exit scope and bit-exact float
    /// comparison.
    pub fn exact() -> Self {
        DcaConfig {
            verify_scope: VerifyScope::LoopExit,
            float_tolerance: 0.0,
            ..Self::fast()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = DcaConfig::default();
        assert_eq!(c.permutations, PermutationSet::Presets { shuffles: 3 });
        assert_eq!(c.verify_scope, VerifyScope::ProgramEnd);
        assert!(c.float_tolerance > 0.0);
        assert_eq!(c.digest, DigestMode::Auto);
        let e = DcaConfig::exact();
        assert_eq!(e.verify_scope, VerifyScope::LoopExit);
        assert_eq!(e.float_tolerance, 0.0);
        assert_eq!(c.threads, 0, "auto-detect worker count by default");
        assert_eq!(c.obs, ObsOptions::default(), "observability off by default");
        assert!(!c.obs.metrics);
        assert!(c.max_wall.is_unlimited(), "no deadlines by default");
        assert!(c.fault.is_none(), "no fault injection by default");
        assert!(c.cache.is_none(), "no verdict cache by default");
        assert!(c.journal.is_none(), "no run journal by default");
        assert!(c.max_heap_cells.is_none(), "no heap budget by default");
        assert_eq!(c.fault_retries, 0, "no fault retries by default");
        assert!(c.cancel.is_none(), "no cancellation token by default");
    }

    #[test]
    fn obs_metrics_shorthand() {
        let o = ObsOptions::metrics();
        assert!(o.metrics);
        assert!(o.trace.is_none());
    }
}
