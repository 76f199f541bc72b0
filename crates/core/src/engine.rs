//! The DCA engine: orchestrates the static stage, golden recording,
//! permuted replay and live-out verification for every loop of a module
//! (paper Fig. 3).

use crate::config::{DcaConfig, PermutationSet, VerifyScope};
use crate::fault::{catch_contained, FaultKind, FaultPlan, STALL_DURATION};
use crate::outcome::{DigestScratch, DigestStats, ExitRef, GoldenDigest, StateDigest};
use crate::parallel::{
    effective_threads, parallel_map, parallel_scan_with, split_threads, CancelToken, StopIndex,
};
use crate::perm::{derive_seed, schedules};
use crate::record::{record_program, GoldenRecord, RecordError, RecordRequest};
use crate::replay::{run_replay, ReplayController, ReplayEnd, ReplayGovernor};
use crate::report::{DcaReport, LoopResult, LoopVerdict, SkipReason, Violation};
use crate::store::{CacheStats, RunJournalStats, VerdictStore};
use dca_analysis::{exclusion, EffectMap, IteratorSlice, Liveness};
use dca_interp::{JournalStats, Limits, Machine, OpCounts, Trap, Value};
use dca_ir::{FuncId, FuncView, Loop, LoopRef, Module, Ty, VarId};
use dca_obs::{Obs, TraceVal};
use std::fmt;
use std::time::{Duration, Instant};

/// Builds the observer for one engine run: the `DCA_TRACE=<path>`
/// environment variable wins (metrics + trace to that path), then
/// [`crate::config::ObsOptions::trace`], then
/// [`crate::config::ObsOptions::metrics`]; otherwise disabled. An
/// unwritable trace path degrades to metrics-only rather than failing
/// the analysis.
fn make_obs(config: &DcaConfig) -> Obs {
    let env_trace = std::env::var_os("DCA_TRACE").map(std::path::PathBuf::from);
    if let Some(path) = env_trace.as_deref().or(config.obs.trace.as_deref()) {
        return Obs::with_trace(path).unwrap_or_else(|_| Obs::enabled());
    }
    if config.obs.metrics {
        Obs::enabled()
    } else {
        Obs::disabled()
    }
}

/// Adds an interpreter's heap-op totals to the `interp.heap.*` counters.
fn record_machine_ops(obs: &Obs, ops: &OpCounts) {
    obs.count("interp.heap.allocs", ops.heap_allocs);
    obs.count("interp.heap.cells_allocated", ops.heap_cells_allocated);
    obs.count("interp.heap.reads", ops.heap_reads);
    obs.count("interp.heap.writes", ops.heap_writes);
}

/// How one loop's permutation verification ended.
#[derive(Debug, Clone, PartialEq)]
enum VerifyEnd {
    /// Every permutation preserved the outcome.
    Complete,
    /// Some permutation refuted commutativity.
    Violated(Violation),
    /// A replay ran out of step budget before finishing — neither a
    /// confirmation nor a refutation.
    Budget,
    /// A wall-clock deadline expired mid-replay — a resource limit like
    /// [`VerifyEnd::Budget`], never a violation.
    Deadline,
    /// A replay worker panicked; the panic was contained and carries its
    /// message. Conclusion-free like a budget limit.
    Fault(String),
    /// The run's [`CancelToken`] was tripped mid-verification — a stop
    /// request like [`VerifyEnd::Deadline`], never a violation.
    Cancelled,
    /// A replay exceeded the configured heap budget
    /// ([`DcaConfig::max_heap_cells`]) — a resource limit like
    /// [`VerifyEnd::Budget`], never a violation.
    MemBudget,
}

impl VerifyEnd {
    /// The verdict a loop gets when its verification ends this way.
    fn verdict(self) -> LoopVerdict {
        match self {
            VerifyEnd::Complete => LoopVerdict::Commutative,
            VerifyEnd::Violated(violation) => LoopVerdict::NonCommutative(violation),
            VerifyEnd::Budget => LoopVerdict::Skipped(SkipReason::ReplayBudget),
            VerifyEnd::Deadline => LoopVerdict::Skipped(SkipReason::Deadline),
            VerifyEnd::Fault(msg) => LoopVerdict::Skipped(SkipReason::EngineFault(msg)),
            VerifyEnd::Cancelled => LoopVerdict::Skipped(SkipReason::Cancelled),
            VerifyEnd::MemBudget => LoopVerdict::Skipped(SkipReason::MemoryBudget),
        }
    }
}

/// The outcome of verifying one permutation set, with the counters the
/// report carries. `tested` counts the permutations verified successfully
/// *before* the first terminal outcome (all of them on
/// [`VerifyEnd::Complete`]); `replay_steps` sums the interpreter steps of
/// those permutations and the terminal one — a sum that is identical for
/// every worker-thread count.
#[derive(Debug, Clone, PartialEq)]
struct VerifySummary {
    end: VerifyEnd,
    tested: usize,
    replay_steps: u64,
}

/// One permuted replay's result, before the deterministic fold.
///
/// Besides the verdict, it carries everything the fold attributes to obs
/// — per-replay snapshot-restore, replay and verify durations, and the
/// interpreter's heap-op deltas. Recording these from the *fold* (over
/// the sequential prefix) rather than from the workers keeps counter
/// values and span counts identical at every thread count, and fixes the
/// restore-time attribution: the time a worker spends rebuilding its
/// [`Machine`] from the golden snapshot lands in a dedicated
/// `stage.restore` span instead of silently inflating (sequential) or
/// vanishing from (parallel) the replay timing.
struct PermOutcome {
    end: VerifyEnd,
    steps: u64,
    /// The steps the interpreter actually ran: `steps` without the
    /// elided suffix's credit.
    interp_steps: u64,
    restore: Duration,
    replay: Duration,
    verify: Duration,
    ops: OpCounts,
    /// Journal-rollback deltas for this replay (`journal.*` counters).
    /// Per-slot deltas are a function of the replay alone — every replay
    /// starts from the same snapshot state — so they ride the fold as
    /// thread-count-invariantly as the heap-op deltas.
    journal: JournalStats,
    /// The fault injected into this replay, if any (fault-injection
    /// harness). Counted from the fold so `engine.faults.*` is as
    /// thread-count-invariant as everything else.
    injected: Option<FaultKind>,
    /// Digest-capture work of this replay's verify step (`verify.digest.*`
    /// counters), also recorded from the fold.
    digest: DigestStats,
    /// The golden suffix steps this replay skipped, when its loop-exit
    /// state matched the golden run's (`verify.suffix_*` counters).
    suffix: Option<u64>,
}

/// Per-worker state for the permutation scan: one interpreter machine
/// serves every replay the worker claims, restored from the shared
/// golden snapshot once and rewound by journal rollback between replays.
struct ReplayWorker<'m> {
    machine: Machine<'m>,
    /// True iff `machine` sits exactly at the golden snapshot with no
    /// journal armed — the steady state between replays. False on first
    /// use and after a contained panic left the machine dirty.
    clean: bool,
    /// Traversal scratch (canon map + BFS order) reused across this
    /// worker's digest captures, so steady-state verification allocates
    /// nothing per replay.
    scratch: DigestScratch,
    /// Reusable buffer for the digest-root values, refilled per replay.
    roots: Vec<Value>,
}

/// The obs counter charged for one injected fault kind.
fn fault_counter(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Panic => "engine.faults.panic",
        FaultKind::Stall => "engine.faults.stall",
        FaultKind::Trap { .. } => "engine.faults.trap",
        FaultKind::AllocFail { .. } => "engine.faults.oom",
        FaultKind::Cancel => "engine.faults.cancel",
        FaultKind::KillSave { .. } => "engine.faults.kill",
    }
}

/// Obs-relevant totals folded from the sequential prefix of one
/// permutation verification.
#[derive(Default)]
struct FoldTotals {
    replays: u64,
    steps: u64,
    interp_steps: u64,
    restore: Duration,
    replay: Duration,
    verify: Duration,
    ops: OpCounts,
    journal: JournalStats,
    digest: DigestStats,
    /// Replays whose golden suffix was elided, and the steps skipped.
    suffix_elided: u64,
    suffix_steps_elided: u64,
    /// `(counter, slot)` per injected fault in the folded prefix.
    faults: Vec<(&'static str, usize)>,
}

impl FoldTotals {
    fn add(&mut self, slot: usize, o: &PermOutcome) {
        self.replays += 1;
        self.steps += o.steps;
        self.interp_steps += o.interp_steps;
        self.restore += o.restore;
        self.replay += o.replay;
        self.verify += o.verify;
        self.ops = self.ops.plus(&o.ops);
        self.journal = self.journal.plus(&o.journal);
        self.digest = self.digest.plus(&o.digest);
        if let Some(s) = o.suffix {
            self.suffix_elided += 1;
            self.suffix_steps_elided += s;
        }
        if let Some(kind) = o.injected {
            self.faults.push((fault_counter(kind), slot));
        }
    }

    /// Attributes the folded totals to obs spans and counters.
    fn record(&self, obs: &Obs, ordinal: usize) {
        obs.record_span("stage.restore", self.restore, self.replays);
        obs.record_span("stage.replay", self.replay, self.replays);
        obs.record_span("stage.verify", self.verify, self.replays);
        obs.count("engine.replays", self.replays);
        obs.count("engine.replay_interp_steps", self.interp_steps);
        obs.count("journal.rollbacks", self.journal.rollbacks);
        obs.count("journal.cells_undone", self.journal.cells_undone);
        obs.count("journal.objs_discarded", self.journal.objs_discarded);
        obs.count("verify.digest.hashed", self.digest.hashed);
        obs.count("verify.digest.structural", self.digest.structural);
        obs.count("verify.digest.cells", self.digest.cells);
        obs.count("verify.suffix_elided", self.suffix_elided);
        obs.count("verify.suffix_steps_elided", self.suffix_steps_elided);
        record_machine_ops(obs, &self.ops);
        for &(counter, slot) in &self.faults {
            obs.count(counter, 1);
            if obs.has_trace() {
                obs.trace_event(
                    "fault",
                    &[
                        ("counter", TraceVal::Str(counter)),
                        ("loop", TraceVal::U64(ordinal as u64)),
                        ("replay", TraceVal::U64(slot as u64)),
                    ],
                );
            }
        }
    }
}

/// Errors that prevent analysis from starting at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DcaError {
    /// The module has no `main` function to execute.
    NoMain,
    /// The workload supplies the wrong number of entry arguments for
    /// `main`.
    EntryArity {
        /// Parameters `main` declares.
        expected: usize,
        /// Arguments the workload supplied.
        given: usize,
    },
    /// An entry argument's value does not fit the corresponding `main`
    /// parameter's declared type.
    EntryArgType {
        /// Zero-based argument position.
        index: usize,
        /// The parameter's source name.
        param: String,
        /// The declared type, rendered.
        expected: String,
        /// The supplied value's type, rendered.
        given: String,
    },
    /// The configured permutation preset generates no permutations at all
    /// (e.g. [`PermutationSet::Shuffles`] with zero shuffles), so no loop
    /// could ever be tested — almost certainly a configuration mistake.
    EmptyPermutationSet,
}

impl fmt::Display for DcaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcaError::NoMain => write!(f, "module has no `main` function"),
            DcaError::EntryArity { expected, given } => write!(
                f,
                "`main` expects {expected} argument(s), the workload supplies {given}"
            ),
            DcaError::EntryArgType {
                index,
                param,
                expected,
                given,
            } => write!(
                f,
                "entry argument {index} (`{param}`) has type {given}, expected {expected}"
            ),
            DcaError::EmptyPermutationSet => {
                write!(f, "permutation preset generates no permutations")
            }
        }
    }
}

impl std::error::Error for DcaError {}

/// Renders a [`Ty`] the way source code spells it.
fn ty_name(ty: &Ty) -> String {
    match ty {
        Ty::Int => "int".into(),
        Ty::Float => "float".into(),
        Ty::Bool => "bool".into(),
        Ty::Unit => "unit".into(),
        Ty::Ptr(inner) => format!("*{}", ty_name(inner)),
        Ty::Array(inner, n) => format!("[{}; {n}]", ty_name(inner)),
        Ty::Struct(i) => format!("struct#{i}"),
        Ty::NullPtr => "null".into(),
    }
}

/// The rendered type of a workload value.
fn value_ty_name(v: &Value) -> &'static str {
    match v {
        Value::Int(_) => "int",
        Value::Float(_) => "float",
        Value::Bool(_) => "bool",
        Value::Ptr(_) => "pointer",
        Value::Null => "null",
    }
}

/// True when a workload value can initialize a parameter of type `ty`
/// (`null` fits any pointer).
fn value_fits(v: &Value, ty: &Ty) -> bool {
    matches!(
        (v, ty),
        (Value::Int(_), Ty::Int)
            | (Value::Float(_), Ty::Float)
            | (Value::Bool(_), Ty::Bool)
            | (Value::Ptr(_), Ty::Ptr(_))
            | (Value::Null, Ty::Ptr(_))
    )
}

/// The Dynamic Commutativity Analysis engine.
///
/// # Example
///
/// ```
/// use dca_core::{Dca, DcaConfig};
///
/// let module = dca_ir::compile(
///     "fn main() -> int {
///          let a: [int; 32]; let s: int = 0;
///          @fill: for (let i: int = 0; i < 32; i = i + 1) { a[i] = i * 2; }
///          @sum: for (let i: int = 0; i < 32; i = i + 1) { s = s + a[i]; }
///          return s;
///      }",
/// ).map_err(|e| e.to_string())?;
/// let report = Dca::new(DcaConfig::fast()).analyze_module(&module)
///     .map_err(|e| e.to_string())?;
/// assert!(report.by_tag("fill").expect("fill").verdict.is_commutative());
/// assert!(report.by_tag("sum").expect("sum").verdict.is_commutative());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dca {
    config: DcaConfig,
}

/// Per-loop context threaded from the public entry points into the loop
/// tester: the loop's ordinal in analysis order (fault targeting), the
/// resolved fault plan, and the whole-analysis deadline.
#[derive(Clone, Copy)]
struct LoopCtx<'p> {
    /// The loop's position in analysis order (deterministic).
    ordinal: usize,
    /// The resolved fault-injection plan, if any.
    fault: Option<&'p FaultPlan>,
    /// Absolute deadline for the whole analysis call.
    analysis_deadline: Option<Instant>,
    /// The run's cancellation token, checked cooperatively at stage
    /// boundaries and replay granules.
    cancel: Option<&'p CancelToken>,
    /// The call's observer.
    obs: &'p Obs,
}

/// What every public entry point sets up before it analyzes anything:
/// the observer, the call's start and `engine.analyze` span, the
/// validated entry, the resolved fault plan, deadline and cancel token,
/// the module's effect map and the worker count.
struct Call {
    obs: Obs,
    start: Instant,
    whole: Option<Instant>,
    main: FuncId,
    fault: Option<FaultPlan>,
    analysis_deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    effects: EffectMap,
    threads: usize,
}

impl Call {
    /// The context of the loop at `ordinal` in the analysis order.
    fn ctx(&self, ordinal: usize) -> LoopCtx<'_> {
        LoopCtx {
            ordinal,
            fault: self.fault.as_ref(),
            analysis_deadline: self.analysis_deadline,
            cancel: self.cancel.as_ref(),
            obs: &self.obs,
        }
    }
}

impl Dca {
    /// Creates an engine with the given configuration.
    pub fn new(config: DcaConfig) -> Self {
        Dca { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DcaConfig {
        &self.config
    }

    /// Validates the entry point, the workload arguments against `main`'s
    /// signature, and the permutation preset. Every public entry point
    /// runs this before any execution.
    fn validate_entry(&self, module: &Module, args: &[Value]) -> Result<FuncId, DcaError> {
        let main = module.main().ok_or(DcaError::NoMain)?;
        if let PermutationSet::Shuffles { shuffles: 0 } = self.config.permutations {
            return Err(DcaError::EmptyPermutationSet);
        }
        let f = module.func(main);
        if args.len() != f.params.len() {
            return Err(DcaError::EntryArity {
                expected: f.params.len(),
                given: args.len(),
            });
        }
        for (index, (&p, v)) in f.params.iter().zip(args).enumerate() {
            let ty = &f.var(p).ty;
            if !value_fits(v, ty) {
                return Err(DcaError::EntryArgType {
                    index,
                    param: f.var(p).name.clone(),
                    expected: ty_name(ty),
                    given: value_ty_name(v).to_string(),
                });
            }
        }
        Ok(main)
    }

    /// Sets up one public entry-point call (see [`Call`]).
    fn begin(&self, module: &Module, args: &[Value]) -> Result<Call, DcaError> {
        let obs = make_obs(&self.config);
        let (start, whole) = (Instant::now(), obs.span_start());
        let main = self.validate_entry(module, args)?;
        // Explicit configuration first, `DCA_FAULT` as the fallback.
        let fault = self.config.fault.clone().or_else(FaultPlan::from_env);
        let analysis_deadline = self.config.max_wall.analysis.map(|d| Instant::now() + d);
        // The caller's token, or an internal one a `cancel@…` plan trips.
        let cancel = self.config.cancel.clone().or_else(|| {
            let trips = fault
                .as_ref()
                .is_some_and(|p| matches!(p.kind, FaultKind::Cancel));
            trips.then(CancelToken::new)
        });
        let effects = EffectMap::new_with_obs(module, &obs);
        Ok(Call {
            obs,
            start,
            whole,
            main,
            fault,
            analysis_deadline,
            cancel,
            effects,
            threads: effective_threads(self.config.threads),
        })
    }

    /// A fresh interpreter honoring the configured replay heap budget:
    /// with [`DcaConfig::max_heap_cells`] set, a runaway allocation traps
    /// as [`Trap::OutOfMemory`] inside the interpreter — mapped to
    /// [`SkipReason::MemoryBudget`] — instead of exhausting host memory.
    fn new_machine<'m>(&self, module: &'m Module) -> Machine<'m> {
        match self.config.max_heap_cells {
            None => Machine::new(module),
            Some(cells) => Machine::with_limits(
                module,
                Limits {
                    max_heap_cells: cells,
                    ..Limits::default()
                },
            ),
        }
    }

    /// The verdict for a loop whose golden recording failed with `e`, or
    /// `None` for [`RecordError::NotExercised`]: the invocation never ran,
    /// which stops the search for invocations without a verdict of its
    /// own.
    fn record_verdict(&self, e: &RecordError) -> Option<LoopVerdict> {
        let reason = match e {
            RecordError::NotExercised => return None,
            RecordError::TripLimit => SkipReason::TripLimit,
            RecordError::Trapped(Trap::OutOfMemory) if self.config.max_heap_cells.is_some() => {
                SkipReason::MemoryBudget
            }
            RecordError::Trapped(t) => SkipReason::GoldenTrapped(t.clone()),
            RecordError::BudgetExhausted => SkipReason::GoldenBudget,
            RecordError::DeadlineExpired => SkipReason::Deadline,
            RecordError::Cancelled => SkipReason::Cancelled,
            // invariant: the engine's requests never set `stop_at_fresh`.
            RecordError::FreshAccess(_) => unreachable!("the engine records to the exit"),
        };
        Some(LoopVerdict::Skipped(reason))
    }

    /// The deadline for one program run starting now: the per-replay limit
    /// combined with the analysis deadline (whichever is sooner). Reads
    /// the clock only when a per-replay limit is configured.
    fn run_deadline(&self, analysis: Option<Instant>) -> Option<Instant> {
        let per_run = self.config.max_wall.replay.map(|d| Instant::now() + d);
        match (per_run, analysis) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Analyzes every loop of `module`, running `main()` with no
    /// arguments.
    ///
    /// # Errors
    ///
    /// Returns [`DcaError::NoMain`] if the module has no entry point.
    pub fn analyze_module(&self, module: &Module) -> Result<DcaReport, DcaError> {
        self.analyze(module, &[])
    }

    /// Analyzes every loop of `module`, running `main(args)` as the
    /// workload.
    ///
    /// The stages run in order (paper Fig. 3): the static stage for every
    /// loop the journal or the cache does not serve, one golden run of the
    /// program that records every loop the static stage did not exclude,
    /// then each loop's permuted replays and verification.
    ///
    /// # Errors
    ///
    /// Returns [`DcaError::NoMain`] if the module has no entry point.
    pub fn analyze(&self, module: &Module, args: &[Value]) -> Result<DcaReport, DcaError> {
        let call = self.begin(module, args)?;
        let obs = &call.obs;
        // Collect every loop of the module in deterministic (function,
        // loop) order; this is both the work list and the report order.
        let mut items: Vec<LoopRef> = Vec::new();
        for (i, _) in module.funcs.iter().enumerate() {
            let fid = FuncId(i as u32);
            let view = FuncView::new(module, fid);
            for l in view.loops.iter() {
                items.push(LoopRef {
                    func: fid,
                    loop_id: l.id,
                });
            }
        }
        let cancel = call.cancel.as_ref();
        let store = VerdictStore::open(&self.config, call.fault.as_ref(), module, args, obs);
        // A loop of a cancelled run is skipped outright, and the partial
        // report stays valid.
        let cancelled = |lref: LoopRef| LoopResult {
            verdict: LoopVerdict::Skipped(SkipReason::Cancelled),
            ..base_result(lref, loop_tag(module, lref))
        };
        // ---- Serve what the verdict store holds, before any recording or
        // replay, and run the static stage for the rest.
        let mut stages: Vec<Stage<'_>> = items
            .iter()
            .enumerate()
            .map(|(i, &lref)| {
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    return Stage::Served(cancelled(lref));
                }
                if let Some(r) = store.serve(i, lref) {
                    return Stage::Served(r);
                }
                // A panic in the static stage is contained like any other
                // engine fault of the loop.
                catch_contained(|| self.static_stage(module, &call.effects, lref, call.ctx(i)))
                    .unwrap_or_else(|msg| Stage::Decided(engine_fault_result(lref, msg)))
            })
            .collect();
        // ---- One golden run records every loop still to test. A panic
        // there is contained and becomes an engine fault of each of them.
        let tested: Vec<&LoopFacts<'_>> = stages
            .iter()
            .filter_map(|s| match s {
                Stage::Tested(t, _) => Some(&**t),
                _ => None,
            })
            .collect();
        let recorded = catch_contained(|| {
            self.record_loops(module, args, &tested, self.config.invocations, &call)
        });
        drop(tested);
        let mut recorded = recorded.map(Vec::into_iter);
        for stage in &mut stages {
            if let Stage::Tested(t, goldens) = stage {
                match &mut recorded {
                    Ok(records) => *goldens = records.next().expect("one per tested loop"),
                    Err(msg) => *stage = Stage::Decided(engine_fault_result(t.lref, msg.clone())),
                }
            }
        }
        // ---- Verify each loop. Independent loops fan out across `outer`
        // workers, and each loop's permutation replays across `inner` — so
        // a module with one hot loop still uses every core.
        let (outer, inner) = split_threads(call.threads, items.len());
        let outcomes = parallel_map(outer, &stages, obs, "loops", |i, stage| {
            let lref = items[i];
            if let Stage::Served(r) = stage {
                return (r.clone(), 0u64);
            }
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return (cancelled(lref), 0);
            }
            store.announce(i, lref);
            let (result, retries) = match stage {
                Stage::Served(r) | Stage::Decided(r) => (r.clone(), 0),
                Stage::Tested(t, goldens) => {
                    // Contain per-loop engine faults: a panic anywhere in
                    // this loop's verification becomes a classified
                    // `EngineFault` skip and the remaining loops keep
                    // going, instead of the panic poisoning the worker
                    // scope and aborting the whole report. Transient
                    // faults re-run the verification up to
                    // `fault_retries` times; the retry count rides the
                    // result tuple so the post-fold accounting stays
                    // deterministic.
                    let mut retries = 0u64;
                    loop {
                        let start = Instant::now();
                        let mut r = catch_contained(|| {
                            self.verify_loop(module, t, goldens, inner, call.ctx(i))
                        })
                        .unwrap_or_else(|msg| engine_fault_result(lref, msg));
                        r.wall = start.elapsed();
                        let faulted =
                            matches!(r.verdict, LoopVerdict::Skipped(SkipReason::EngineFault(_)));
                        if faulted && retries < u64::from(self.config.fault_retries) {
                            retries += 1;
                            continue;
                        }
                        break (r, retries);
                    }
                }
            };
            store.record(i, &result);
            (result, retries)
        });
        let mut retries_total = 0u64;
        let results: Vec<LoopResult> = outcomes
            .into_iter()
            .map(|(r, n)| {
                retries_total += n;
                r
            })
            .collect();
        obs.count("engine.retries", retries_total);
        // Verdict tallies come from the ordered result vector, not the
        // workers, so they are deterministic like everything else here.
        obs.count("engine.loops", results.len() as u64);
        for r in &results {
            let name = match &r.verdict {
                LoopVerdict::Commutative => "engine.verdict.commutative",
                LoopVerdict::NonCommutative(_) => "engine.verdict.non_commutative",
                LoopVerdict::Excluded(_) => "engine.verdict.excluded",
                LoopVerdict::NotExercised => "engine.verdict.not_exercised",
                LoopVerdict::Skipped(_) => "engine.verdict.skipped",
            };
            obs.count(name, 1);
            obs.count("engine.permutations_tested", r.permutations_tested as u64);
            obs.count("engine.replay_steps", r.replay_steps);
        }
        obs.count(
            "engine.mem_budget",
            results
                .iter()
                .filter(|r| matches!(r.verdict, LoopVerdict::Skipped(SkipReason::MemoryBudget)))
                .count() as u64,
        );
        let (cache, journal) = store.close(&results, obs);
        let mut report = DcaReport::with_threads(call.threads);
        for result in results {
            report.push(result);
        }
        report.wall = call.start.elapsed();
        report.cache = cache;
        report.journal = journal;
        obs.span_end("engine.analyze", call.whole);
        report.obs = obs.rollup();
        Ok(report)
    }

    /// Analyzes the module under **several workloads** and combines the
    /// verdicts — the paper's §V-D future-work direction ("applying
    /// combined tests for multiple inputs"). A loop is commutative only if
    /// no input refutes it and at least one input exercises it; a single
    /// non-commutative observation wins over any number of commutative
    /// ones.
    ///
    /// # Errors
    ///
    /// Returns [`DcaError::NoMain`] if the module has no entry point.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn analyze_inputs(
        &self,
        module: &Module,
        inputs: &[Vec<Value>],
    ) -> Result<DcaReport, DcaError> {
        assert!(!inputs.is_empty(), "at least one workload is required");
        let mut combined: Option<DcaReport> = None;
        for args in inputs {
            let report = self.analyze(module, args)?;
            combined = Some(match combined {
                None => report,
                Some(prev) => merge_reports(prev, report),
            });
        }
        Ok(combined.expect("inputs is non-empty"))
    }

    /// Tests a single loop (by reference) and returns its result.
    ///
    /// # Errors
    ///
    /// Returns [`DcaError::NoMain`] if the module has no entry point.
    ///
    /// # Panics
    ///
    /// Panics if `lref` does not name a loop of `module`.
    pub fn test_loop(
        &self,
        module: &Module,
        lref: LoopRef,
        args: &[Value],
    ) -> Result<LoopResult, DcaError> {
        let call = self.begin(module, args)?;
        let (obs, ctx) = (&call.obs, call.ctx(0));
        let start = Instant::now();
        let t = match self.static_stage(module, &call.effects, lref, ctx) {
            Stage::Tested(t, _) => t,
            Stage::Served(r) | Stage::Decided(r) => return Ok(r),
        };
        let mut result = catch_contained(|| {
            let goldens = self.record_loops(module, args, &[&t], self.config.invocations, &call);
            self.verify_loop(module, &t, &goldens[0], call.threads, ctx)
        })
        .unwrap_or_else(|msg| engine_fault_result(lref, msg));
        result.wall = start.elapsed();
        obs.flush();
        Ok(result)
    }

    /// Tests each of the first `k` *eligible* invocations (trip ≥ 2) of
    /// one loop separately — a prototype of the context sensitivity the
    /// paper leaves as future work (§IV-E: "Loop candidates can exhibit
    /// commutativity in some execution contexts, but not in others"). The
    /// vector is shorter than `k` when the workload provides fewer
    /// eligible invocations.
    ///
    /// # Errors
    ///
    /// Returns [`DcaError::NoMain`] if the module has no entry point.
    ///
    /// # Panics
    ///
    /// Panics if `lref` does not name a loop of `module`.
    pub fn test_invocations(
        &self,
        module: &Module,
        lref: LoopRef,
        args: &[Value],
        k: u32,
    ) -> Result<Vec<LoopResult>, DcaError> {
        let call = self.begin(module, args)?;
        let (obs, ctx) = (&call.obs, call.ctx(0));
        let t = match self.static_stage(module, &call.effects, lref, ctx) {
            Stage::Tested(t, _) => t,
            Stage::Served(r) | Stage::Decided(r) => return Ok(vec![r]),
        };
        let goldens = self.record_loops(module, args, &[&t], k, &call);
        let mut out = Vec::new();
        for (invocation, golden) in goldens[0].iter().enumerate() {
            let inv_start = Instant::now();
            let golden = match golden {
                Ok(g) => g,
                Err(e) => {
                    if let Some(verdict) = self.record_verdict(e) {
                        out.push(LoopResult {
                            verdict,
                            ..t.base()
                        });
                    }
                    break;
                }
            };
            let r = self.verify_invocation(module, &t, invocation, golden, call.threads, ctx);
            out.push(LoopResult {
                wall: inv_start.elapsed(),
                ..r
            });
        }
        obs.flush();
        Ok(out)
    }

    /// The verdict of a loop that must not start: the analysis deadline
    /// has expired, or the run was cancelled. The report stays complete;
    /// each remaining loop costs one clock read and one atomic load.
    fn upfront_skip(&self, ctx: LoopCtx<'_>) -> Option<LoopVerdict> {
        if ctx.analysis_deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(LoopVerdict::Skipped(SkipReason::Deadline));
        }
        ctx.cancel
            .is_some_and(CancelToken::is_cancelled)
            .then_some(LoopVerdict::Skipped(SkipReason::Cancelled))
    }

    /// The static stage (paper §IV-A) for one loop: the loop's facts,
    /// then exclusion. The loop is [`Stage::Tested`] unless it was
    /// excluded or the analysis deadline or a cancel stopped it.
    fn static_stage<'m>(
        &self,
        module: &'m Module,
        effects: &EffectMap,
        lref: LoopRef,
        ctx: LoopCtx<'_>,
    ) -> Stage<'m> {
        if let Some(verdict) = self.upfront_skip(ctx) {
            return Stage::Decided(LoopResult {
                verdict,
                ..base_result(lref, loop_tag(module, lref))
            });
        }
        let facts = LoopFacts::build(module, effects, lref, ctx.obs);
        if let Some(reason) = exclusion(&facts.view, facts.l(), &facts.slice, &effects.io_funcs()) {
            return Stage::Decided(LoopResult {
                verdict: LoopVerdict::Excluded(reason),
                ..facts.base()
            });
        }
        Stage::Tested(Box::new(facts), Vec::new())
    }

    /// Records the invocations `0..invocations` of every tested loop in
    /// one golden run of the program (paper §IV-B1), with what the
    /// loop-exit scope compares against at each kept exit. Runs nothing
    /// when there is nothing to record.
    fn record_loops(
        &self,
        module: &Module,
        args: &[Value],
        tested: &[&LoopFacts<'_>],
        invocations: u32,
        call: &Call,
    ) -> Vec<Vec<Golden>> {
        if tested.is_empty() || invocations == 0 {
            return tested.iter().map(|_| Vec::new()).collect();
        }
        let obs = &call.obs;
        let rec_t = obs.span_start();
        let stop_at_exit = self.config.verify_scope == VerifyScope::LoopExit;
        let mut refs: Vec<Vec<GoldenExit>> = tested.iter().map(|_| Vec::new()).collect();
        let mut scratch = DigestScratch::new();
        let mut vals = Vec::new();
        let requests = tested
            .iter()
            .map(|t| RecordRequest {
                func: t.view.id,
                l: t.l(),
                slice: &t.slice,
                invocations: 0..invocations,
                min_trip: 2,
                max_trip: self.config.max_trip,
                probe: None,
                stop_at_fresh: false,
            })
            .collect();
        let mut machine = self.new_machine(module);
        let run = record_program(
            &mut machine,
            call.main,
            args,
            requests,
            self.config.max_steps,
            self.run_deadline(call.analysis_deadline),
            call.cancel.as_ref(),
            stop_at_exit,
            &mut |r, m| {
                // The machine stands in the golden loop-exit state only
                // now; capture the reference, and the structural digest a
                // mismatch is compared against.
                if stop_at_exit {
                    read_roots(m, &tested[r].roots.vars, &mut vals);
                    refs[r].push((
                        ExitRef::capture(m, &vals, self.config.digest, &mut scratch),
                        StateDigest::capture_with(m, &vals, &mut scratch),
                    ));
                }
            },
        );
        obs.span_end("stage.record", rec_t);
        obs.count("engine.golden_runs", 1);
        obs.count("engine.snapshot_cells_peak", run.snapshot_cells_peak);
        record_machine_ops(obs, &machine.op_counts());
        run.loops
            .into_iter()
            .zip(refs)
            .map(|(records, refs)| {
                let mut refs = refs.into_iter();
                records
                    .into_iter()
                    .map(|g| g.map(|g| (g, refs.next())))
                    .collect()
            })
            .collect()
    }

    /// Verifies one tested loop against its golden records: the permuted
    /// replays of each recorded invocation, aggregated into one verdict.
    fn verify_loop(
        &self,
        module: &Module,
        t: &LoopFacts<'_>,
        goldens: &[Golden],
        threads: usize,
        ctx: LoopCtx<'_>,
    ) -> LoopResult {
        let base = t.base();
        if let Some(verdict) = self.upfront_skip(ctx) {
            return LoopResult { verdict, ..base };
        }
        let mut trips_seen = 0;
        let mut perms_total = 0;
        let mut steps_total = 0u64;
        for (invocation, golden) in goldens.iter().enumerate() {
            let golden = match golden {
                Ok(g) => g,
                Err(e) => match self.record_verdict(e) {
                    Some(verdict) => return LoopResult { verdict, ..base },
                    None => break,
                },
            };
            // `record_loops` asks for `min_trip: 2`: the recorder keeps
            // no invocation with nothing to permute.
            debug_assert!(golden.0.iters.len() >= 2, "recorded a trip below 2");
            let r = self.verify_invocation(module, t, invocation, golden, threads, ctx);
            trips_seen = trips_seen.max(r.trips);
            perms_total += r.permutations_tested;
            steps_total += r.replay_steps;
            if r.verdict != LoopVerdict::Commutative {
                return LoopResult {
                    permutations_tested: perms_total,
                    replay_steps: steps_total,
                    ..r
                };
            }
        }
        // A loop is exercised iff it has a recorded invocation.
        if !goldens.iter().any(Result::is_ok) {
            return base;
        }
        LoopResult {
            verdict: LoopVerdict::Commutative,
            trips: trips_seen,
            permutations_tested: perms_total,
            replay_steps: steps_total,
            ..base
        }
    }

    /// Verifies recorded invocation `invocation` of `t`: its permutation
    /// schedules, seeded per invocation, replayed and verified against
    /// the golden record and its loop-exit state. The result carries the
    /// invocation's trip, permutations and replay steps.
    fn verify_invocation(
        &self,
        module: &Module,
        t: &LoopFacts<'_>,
        invocation: usize,
        (golden, exit): &(GoldenRecord, Option<GoldenExit>),
        threads: usize,
        ctx: LoopCtx<'_>,
    ) -> LoopResult {
        let trip = golden.iters.len();
        let seed = derive_seed(
            self.config.seed,
            t.lref.func.0,
            t.lref.loop_id.0,
            invocation as u32,
        );
        let perms = schedules(&self.config.permutations, trip, seed);
        let summary =
            self.verify_permutations(module, t, golden, exit.as_ref(), &perms, threads, ctx);
        LoopResult {
            verdict: summary.end.verdict(),
            trips: trip,
            permutations_tested: summary.tested,
            replay_steps: summary.replay_steps,
            ..t.base()
        }
    }

    /// Verifies every permutation against the golden reference, fanning
    /// the replays out across up to `threads` workers. Under the
    /// loop-exit scope, `exit` is the reference state captured from the
    /// golden recording machine at the invocation's exit.
    ///
    /// Each worker owns a private [`Machine`] restored from the shared
    /// golden snapshot, so replays share no mutable state. Early exit is
    /// deterministic: a [`StopIndex`] records the *lowest* index with a
    /// terminal outcome, every index below it is guaranteed processed, and
    /// the fold below reads exactly the prefix the sequential engine would
    /// have executed — verdicts and counters are identical for every
    /// thread count.
    #[allow(clippy::too_many_arguments)]
    fn verify_permutations(
        &self,
        module: &Module,
        t: &LoopFacts<'_>,
        golden: &GoldenRecord,
        exit: Option<&GoldenExit>,
        perms: &[Vec<usize>],
        threads: usize,
        ctx: LoopCtx<'_>,
    ) -> VerifySummary {
        let obs = ctx.obs;
        let (view, l, slice, roots) = (&t.view, t.l(), &t.slice, &t.roots);
        // Per-replay timing only happens when obs is live; disabled runs
        // never read the clock here.
        let timing = obs.is_enabled();
        let t_start = move || if timing { Some(Instant::now()) } else { None };
        let t_since = |t: Option<Instant>| t.map_or(Duration::ZERO, |t| t.elapsed());
        let stop_at_exit = self.config.verify_scope == VerifyScope::LoopExit;
        let governed = !self.config.max_wall.is_unlimited();
        // Each replay's governor: a fresh per-run deadline under wall
        // limits, the run's cancellation token, and an optional injected
        // trap.
        let governor = |trap_at_step: Option<u64>| ReplayGovernor {
            deadline: if governed {
                self.run_deadline(ctx.analysis_deadline)
            } else {
                None
            },
            trap_at_step,
            cancel: ctx.cancel,
        };
        let reference = stop_at_exit.then(|| {
            let x = exit.expect("the loop-exit reference is captured at the exit");
            let (reference, golden_digest) = x;
            match reference.hash {
                Some((_, cells)) => {
                    obs.count("verify.digest.hashed", 1);
                    obs.count("verify.digest.cells", cells);
                }
                None => {
                    obs.count("verify.digest.structural", 1);
                    obs.count("verify.digest.cells", golden_digest.cell_count());
                }
            }
            x
        });
        let check_one = |w: &mut ReplayWorker<'_>, slot: usize, perm: &Vec<usize>| -> PermOutcome {
            // Deterministic fault targeting: the (loop ordinal, slot)
            // pair is position-based, so the same replay is hit at every
            // thread count. `KillSave` targets the cache save, not a
            // replay — its positional match here is incidental.
            let injected = ctx
                .fault
                .and_then(|p| p.for_replay(ctx.ordinal, slot))
                .filter(|k| !matches!(k, FaultKind::KillSave { .. }));
            if matches!(injected, Some(FaultKind::Stall)) {
                std::thread::sleep(STALL_DURATION);
            }
            if matches!(injected, Some(FaultKind::Cancel)) {
                // Trip the run's token exactly where a user interrupt
                // would land mid-verification; the governor observes it
                // at the next granule boundary.
                if let Some(c) = ctx.cancel {
                    c.cancel();
                }
            }
            // Rewind the worker's machine to the golden snapshot. The
            // normal steady state is `clean` (the previous replay rolled
            // its journal back), so this costs nothing; the exceptions
            // are first use (full restore from the shared snapshot) and
            // recovery after a contained panic (roll back the armed
            // journal the panicking replay left behind, or full-restore
            // if it died before arming / mid-rewind).
            let t_restore = t_start();
            if !w.clean {
                if w.machine.journal_armed() {
                    w.machine.rollback();
                } else {
                    w.machine.restore(&golden.snapshot);
                }
            }
            w.clean = false;
            w.machine.clear_alloc_fault();
            w.machine.begin_journal();
            if let Some(FaultKind::AllocFail { allocs }) = injected {
                w.machine.fail_alloc_after(allocs);
            }
            let restore_prep = t_since(t_restore);
            let ops_before = w.machine.op_counts();
            let journal_before = w.machine.journal_stats();
            let before = w.machine.steps();
            let mut ctl = ReplayController::new(view.id, view.func, l, slice, golden, perm);
            let t_replay = t_start();
            if matches!(injected, Some(FaultKind::Panic)) {
                // The surrounding catch converts this into a classified
                // `EngineFault` skip — exactly what a real engine bug in a
                // replay worker would produce. Firing after
                // `begin_journal` also exercises the armed-journal
                // recovery path above.
                panic!("injected fault: panic in replay slot {slot}");
            }
            let gov = governor(match injected {
                Some(FaultKind::Trap { at_step }) => Some(at_step),
                _ => None,
            });
            // Program-end suffix elision: stop at the loop exit first, and
            // if the replay left the loop in the golden run's exit state,
            // bit for bit or up to a renaming of the objects the loop
            // allocated, the rest of its run would repeat the golden
            // suffix step for step — count those steps instead of
            // interpreting them. An injected fault may act in the suffix,
            // so it always runs.
            let elide = !stop_at_exit && injected.is_none();
            let mut end = run_replay(
                &mut w.machine,
                &mut ctl,
                stop_at_exit || elide,
                self.config.max_steps,
                gov,
            );
            let mut replay = t_since(t_replay);
            let mut verify = Duration::ZERO;
            let mut suffix = None;
            if elide && end == ReplayEnd::LoopExited {
                let t_cmp = t_start();
                let same = golden.exit_matches(&w.machine, &roots.vars)
                    || golden.exit_matches_renamed(&w.machine, &roots.vars);
                verify += t_since(t_cmp);
                if same {
                    suffix = Some(golden.suffix_steps());
                } else {
                    let t_rest = t_start();
                    let spent = w.machine.steps() - before;
                    end = run_replay(
                        &mut w.machine,
                        &mut ctl,
                        false,
                        self.config.max_steps - spent,
                        gov,
                    );
                    replay += t_since(t_rest);
                }
            }
            let interp_steps = w.machine.steps() - before;
            let mut steps = interp_steps;
            let t_verify = t_start();
            let mut digest = DigestStats::default();
            let end = match (&self.config.verify_scope, end) {
                (VerifyScope::ProgramEnd, ReplayEnd::Finished(ret)) => {
                    // Compare against the machine's own output buffer —
                    // no per-replay outcome materialization.
                    if golden.outcome.matches_parts(
                        w.machine.output(),
                        &ret,
                        self.config.float_tolerance,
                    ) {
                        VerifyEnd::Complete
                    } else {
                        VerifyEnd::Violated(Violation::OutcomeMismatch(
                            golden.outcome.first_divergence(
                                w.machine.output(),
                                &ret,
                                self.config.float_tolerance,
                            ),
                        ))
                    }
                }
                (VerifyScope::LoopExit, ReplayEnd::LoopExited) => {
                    read_roots(&w.machine, &roots.vars, &mut w.roots);
                    let (reference, golden_digest) = reference.expect("captured above");
                    let check = reference.check(
                        &w.machine,
                        &w.roots,
                        GoldenDigest::Captured(golden_digest),
                        self.config.float_tolerance,
                        &roots.names,
                        &mut w.scratch,
                        &mut digest,
                    );
                    match check.result {
                        Ok(()) => VerifyEnd::Complete,
                        Err(d) => VerifyEnd::Violated(Violation::OutcomeMismatch(Some(d))),
                    }
                }
                (VerifyScope::LoopExit, ReplayEnd::Finished(_)) => {
                    // The frame unwound before the loop exit was observed:
                    // nothing safe to digest — conservative refutation.
                    VerifyEnd::Violated(Violation::ReplayDiverged)
                }
                // A heap-budget overflow is a resource limit like the step
                // budget below — unless this slot carries an injected
                // `AllocFail`, whose out-of-memory trap must keep counting
                // as a contained violation.
                (_, ReplayEnd::Trapped(Trap::OutOfMemory))
                    if self.config.max_heap_cells.is_some()
                        && !matches!(injected, Some(FaultKind::AllocFail { .. })) =>
                {
                    VerifyEnd::MemBudget
                }
                (_, ReplayEnd::Trapped(t)) => VerifyEnd::Violated(Violation::ReplayTrapped(t)),
                // An exhausted replay budget is a resource limit, not
                // evidence of non-commutativity: the callers map it to
                // `Skipped(ReplayBudget)`, never to a violation.
                (_, ReplayEnd::BudgetExhausted) => VerifyEnd::Budget,
                (_, ReplayEnd::DeadlineExpired) => VerifyEnd::Deadline,
                (_, ReplayEnd::Cancelled) => VerifyEnd::Cancelled,
                (VerifyScope::ProgramEnd, ReplayEnd::LoopExited) => {
                    // The suffix was elided: the full run would have taken
                    // the golden suffix's steps on top, and exhausted the
                    // budget exactly when that sum passes it.
                    steps += suffix.expect("a program-end replay stops at the exit only to elide");
                    if steps > self.config.max_steps {
                        steps = self.config.max_steps;
                        VerifyEnd::Budget
                    } else {
                        VerifyEnd::Complete
                    }
                }
            };
            let verify = verify + t_since(t_verify);
            // Undo this replay's writes so the machine is snapshot-clean
            // for the worker's next claim. Rollback is restore work, so
            // its time lands in the `stage.restore` span.
            let t_rollback = t_start();
            w.machine.rollback();
            w.clean = true;
            let restore = restore_prep + t_since(t_rollback);
            PermOutcome {
                end,
                steps,
                interp_steps,
                restore,
                replay,
                verify,
                ops: w.machine.op_counts().since(&ops_before),
                journal: w.machine.journal_stats().since(&journal_before),
                injected,
                digest,
                suffix,
            }
        };
        let stop = StopIndex::new();
        let slots = parallel_scan_with(
            threads,
            perms,
            &stop,
            obs,
            "perms",
            // One interpreter per worker for the whole scan: restored
            // from the shared snapshot once, then rewound by journal
            // rollback between replays (O(writes), not O(heap)).
            || ReplayWorker {
                machine: self.new_machine(module),
                clean: false,
                scratch: DigestScratch::new(),
                roots: Vec::new(),
            },
            |w, i, perm| {
                // Contain per-replay faults: a panicking replay — injected
                // or a genuine engine bug — yields a classified outcome for
                // its slot; the deterministic fold below decides what the
                // prefix means, and no other replay is disturbed. The
                // worker machine survives the panic in a dirty state and
                // is rewound before its next use (see `check_one`).
                let out =
                    catch_contained(|| check_one(w, i, perm)).unwrap_or_else(|msg| PermOutcome {
                        end: VerifyEnd::Fault(msg),
                        steps: 0,
                        interp_steps: 0,
                        restore: Duration::ZERO,
                        replay: Duration::ZERO,
                        verify: Duration::ZERO,
                        ops: OpCounts::default(),
                        journal: JournalStats::default(),
                        injected: ctx
                            .fault
                            .and_then(|p| p.for_replay(ctx.ordinal, i))
                            .filter(|k| !matches!(k, FaultKind::KillSave { .. })),
                        digest: DigestStats::default(),
                        suffix: None,
                    });
                if out.end != VerifyEnd::Complete {
                    stop.stop_at(i);
                }
                out
            },
        );
        // Deterministic fold over the sequential prefix. Workers may have
        // completed slots past the first terminal index before observing
        // the stop; those are ignored, exactly as sequential execution
        // would never have run them. Obs spans and counters are recorded
        // from that same prefix, so they are as thread-count-invariant as
        // the verdicts; work past the stop shows up only as a
        // `wasted_replays` trace event.
        let terminal = stop.current();
        let prefix_end = if terminal == usize::MAX {
            perms.len()
        } else {
            terminal + 1
        };
        let mut totals = FoldTotals::default();
        for (i, s) in slots[..prefix_end].iter().enumerate() {
            totals.add(i, s.as_ref().expect("filled up to the final stop"));
        }
        totals.record(obs, ctx.ordinal);
        if obs.has_trace() && terminal != usize::MAX {
            let wasted = slots[prefix_end..].iter().flatten().count();
            if wasted > 0 {
                obs.trace_event(
                    "wasted_replays",
                    &[
                        ("count", TraceVal::U64(wasted as u64)),
                        ("stop", TraceVal::U64(terminal as u64)),
                    ],
                );
            }
        }
        let replay_steps = totals.steps;
        if terminal == usize::MAX {
            return VerifySummary {
                end: VerifyEnd::Complete,
                tested: perms.len(),
                replay_steps,
            };
        }
        let end = slots[terminal]
            .as_ref()
            .expect("the stop-setter filled its slot")
            .end
            .clone();
        debug_assert!(
            end != VerifyEnd::Complete,
            "stop implies a terminal outcome"
        );
        VerifySummary {
            end,
            tested: terminal,
            replay_steps,
        }
    }
}

/// The loop-exit state of the golden recording machine standing at a
/// tested invocation's exit: the reference, and the structural digest a
/// mismatch is compared against (the machine moves on).
type GoldenExit = (ExitRef, StateDigest);

/// One recorded invocation with its loop-exit state, or why it was not
/// recorded.
type Golden = Result<(GoldenRecord, Option<GoldenExit>), RecordError>;

/// One loop of an [`Dca::analyze`] call between its stages.
enum Stage<'m> {
    /// Served from the journal or the cache, or cancelled before it
    /// started: reported as is, and nothing is journaled.
    Served(LoopResult),
    /// Decided without a recording: excluded, stopped by the deadline or
    /// a cancel, or a contained engine fault.
    Decided(LoopResult),
    /// Passed the static stage; its golden records, once recorded.
    Tested(Box<LoopFacts<'m>>, Vec<Golden>),
}

/// The digest-root set for the loop-exit scope. Roots are *all*
/// variables live at any exit target — not just loop-defined ones — so
/// arrays allocated before the loop but filled inside it (their pointer
/// is live-in and live-out) contribute their contents; globals are
/// always included by the traversal itself. Computed once per
/// verification (`names` parallels `vars`, for divergence reports);
/// workers only re-read the values.
///
/// Public because the real-thread executor (`dca-parallel::exec`)
/// validates its merged state over exactly this root set — the two
/// comparators must agree on what "loop-exit live-out state" means.
pub struct DigestRoots {
    /// The root variables, deduplicated, in `VarId` order.
    pub vars: Vec<VarId>,
    /// Source names parallel to `vars`, for divergence reports.
    pub names: Vec<String>,
}

/// Computes the loop-exit digest-root set for `l`: the loop's live-out
/// variables plus everything live into any of its exit targets. See
/// [`DigestRoots`].
pub fn digest_roots(view: &FuncView<'_>, live: &Liveness, l: &Loop) -> DigestRoots {
    let mut vars: std::collections::BTreeSet<VarId> = live.loop_live_outs(l).into_iter().collect();
    for t in l.exit_targets() {
        vars.extend(live.live_in(t));
    }
    let vars: Vec<VarId> = vars.into_iter().collect();
    let names = vars
        .iter()
        .map(|&v| view.func.var(v).name.clone())
        .collect();
    DigestRoots { vars, names }
}

/// A loop's static facts (paper §IV-A): its function view, the
/// function's liveness, the iterator/payload separation and the
/// loop-exit digest roots. The engine's static stage adds exclusion on
/// top; `dca-parallel`'s executor and `ParallelPlan` read the same
/// facts, so a loop is separated one way everywhere.
pub struct LoopFacts<'m> {
    /// The loop.
    pub lref: LoopRef,
    /// Its function's CFG, dominators and loop forest.
    pub view: FuncView<'m>,
    /// Its function's liveness.
    pub live: Liveness,
    /// Iterator/payload separation.
    pub slice: IteratorSlice,
    /// The loop-exit digest roots, also the frame variables suffix
    /// elision compares.
    pub roots: DigestRoots,
}

impl<'m> LoopFacts<'m> {
    /// Builds `lref`'s facts against the module's effect map. The
    /// separation is timed as the `stage.static` span; liveness and the
    /// slice record their own `analysis.*` spans and counters.
    pub fn build(module: &'m Module, effects: &EffectMap, lref: LoopRef, obs: &Obs) -> Self {
        let view = FuncView::new(module, lref.func);
        let live = Liveness::new_with_obs(&view, obs);
        let l = view.loops.get(lref.loop_id);
        let static_t = obs.span_start();
        let slice = IteratorSlice::compute_with_obs(&view, l, effects, obs);
        obs.span_end("stage.static", static_t);
        let roots = digest_roots(&view, &live, l);
        LoopFacts {
            lref,
            view,
            live,
            slice,
            roots,
        }
    }

    /// [`LoopFacts::build`] for a caller that needs one loop of the
    /// module: builds the effect map first.
    pub fn for_loop(module: &'m Module, lref: LoopRef, obs: &Obs) -> Self {
        LoopFacts::build(module, &EffectMap::new_with_obs(module, obs), lref, obs)
    }

    /// The loop.
    #[must_use]
    pub fn l(&self) -> &Loop {
        self.view.loops.get(self.lref.loop_id)
    }

    /// The loop's result before any verdict.
    fn base(&self) -> LoopResult {
        base_result(self.lref, self.l().tag.clone())
    }
}

/// Refills `buf` with the current values of the digest-root variables.
pub fn read_roots(machine: &Machine<'_>, vars: &[VarId], buf: &mut Vec<Value>) {
    buf.clear();
    buf.extend(vars.iter().map(|&v| machine.read_var(v)));
}

/// The placeholder result for a loop whose analysis panicked: the panic
/// was contained, its message classified, and the rest of the module's
/// report is unaffected. The tag is left empty — resolving it would
/// re-enter the code that just faulted.
fn engine_fault_result(lref: LoopRef, msg: String) -> LoopResult {
    LoopResult {
        verdict: LoopVerdict::Skipped(SkipReason::EngineFault(msg)),
        ..base_result(lref, None)
    }
}

/// A loop's result before any verdict: not exercised, nothing run.
fn base_result(lref: LoopRef, tag: Option<String>) -> LoopResult {
    LoopResult {
        lref,
        tag,
        verdict: LoopVerdict::NotExercised,
        trips: 0,
        permutations_tested: 0,
        replay_steps: 0,
        wall: Duration::ZERO,
        cached: false,
        resumed: false,
    }
}

/// The source tag of `lref`, for a loop reported without its facts.
fn loop_tag(module: &Module, lref: LoopRef) -> Option<String> {
    FuncView::new(module, lref.func)
        .loops
        .get(lref.loop_id)
        .tag
        .clone()
}

/// Combines the per-loop results of two workloads: a refutation
/// (non-commutative) dominates; otherwise any commutative observation
/// upgrades "not exercised"; exclusions and skips are stable across
/// inputs.
fn merge_reports(a: DcaReport, b: DcaReport) -> DcaReport {
    let mut out = DcaReport::with_threads(a.threads.max(b.threads));
    out.wall = a.wall + b.wall;
    for ra in a.iter() {
        let rb = b.get(ra.lref).expect("same module, same loops");
        let verdict = match (&ra.verdict, &rb.verdict) {
            (LoopVerdict::NonCommutative(v), _) => LoopVerdict::NonCommutative(v.clone()),
            (_, LoopVerdict::NonCommutative(v)) => LoopVerdict::NonCommutative(v.clone()),
            (LoopVerdict::Commutative, _) | (_, LoopVerdict::Commutative) => {
                LoopVerdict::Commutative
            }
            (LoopVerdict::Excluded(r), _) => LoopVerdict::Excluded(*r),
            (LoopVerdict::Skipped(s), _) | (_, LoopVerdict::Skipped(s)) => {
                LoopVerdict::Skipped(s.clone())
            }
            (LoopVerdict::NotExercised, LoopVerdict::NotExercised) => LoopVerdict::NotExercised,
            (LoopVerdict::NotExercised, other) => other.clone(),
        };
        out.push(crate::report::LoopResult {
            lref: ra.lref,
            tag: ra.tag.clone(),
            verdict,
            trips: ra.trips.max(rb.trips),
            permutations_tested: ra.permutations_tested + rb.permutations_tested,
            replay_steps: ra.replay_steps + rb.replay_steps,
            wall: ra.wall + rb.wall,
            cached: ra.cached && rb.cached,
            resumed: ra.resumed && rb.resumed,
        });
    }
    out.obs = merge_stats(a.obs, b.obs, |mut a, b| {
        a.merge(&b);
        a
    });
    out.cache = merge_stats(a.cache, b.cache, CacheStats::merge);
    out.journal = merge_stats(a.journal, b.journal, RunJournalStats::merge);
    out
}

/// The merged statistics of two runs, either of which may have none.
fn merge_stats<T>(a: Option<T>, b: Option<T>, merge: fn(T, T) -> T) -> Option<T> {
    match (a, b) {
        (Some(a), Some(b)) => Some(merge(a, b)),
        (a, b) => a.or(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DigestMode;

    fn analyze(src: &str) -> DcaReport {
        let m = dca_ir::compile(src).expect("compile");
        Dca::new(DcaConfig::fast())
            .analyze_module(&m)
            .expect("analyze")
    }

    fn verdict(report: &DcaReport, tag: &str) -> LoopVerdict {
        report.by_tag(tag).expect("tagged loop").verdict.clone()
    }

    #[test]
    fn paper_fig1a_array_map_is_commutative() {
        let r = analyze(
            "let array: [int; 32];\n\
             fn main() -> int { \
             @map: for (let i: int = 0; i < 32; i = i + 1) { array[i] = array[i] + 1; } \
             return array[7]; }",
        );
        assert_eq!(verdict(&r, "map"), LoopVerdict::Commutative);
    }

    #[test]
    fn paper_fig1b_pointer_map_is_commutative() {
        // The PLDS twin of Fig. 1(a): dependence analysis fails on the
        // `ptr = ptr->next` cross-iteration dependence, DCA does not.
        let r = analyze(
            "struct Node { val: int, next: *Node }\n\
             fn main() -> int {\n\
               let head: *Node = null;\n\
               for (let i: int = 0; i < 16; i = i + 1) {\n\
                 let n: *Node = new Node; n.val = i; n.next = head; head = n;\n\
               }\n\
               let ptr: *Node = head;\n\
               @map: while (ptr != null) { ptr.val = ptr.val + 1; ptr = ptr.next; }\n\
               let s: int = 0; let q: *Node = head;\n\
               while (q != null) { s = s + q.val; q = q.next; }\n\
               return s;\n\
             }",
        );
        assert_eq!(verdict(&r, "map"), LoopVerdict::Commutative);
    }

    #[test]
    fn recurrence_is_non_commutative() {
        let r = analyze(
            "fn main() -> int { let a: [int; 16]; a[0] = 1; let s: int = 0; \
             @rec: for (let i: int = 1; i < 16; i = i + 1) { a[i] = a[i - 1] * 2; } \
             for (let i: int = 0; i < 16; i = i + 1) { s = s + a[i]; } return s; }",
        );
        assert!(matches!(
            verdict(&r, "rec"),
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(_))
        ));
    }

    #[test]
    fn reduction_is_commutative() {
        let r = analyze(
            "fn main() -> int { let s: int = 0; \
             @red: for (let i: int = 0; i < 20; i = i + 1) { s = s + i * i; } \
             return s; }",
        );
        assert_eq!(verdict(&r, "red"), LoopVerdict::Commutative);
    }

    #[test]
    fn io_loop_is_excluded() {
        let r = analyze(
            "fn main() { \
             @io: for (let i: int = 0; i < 4; i = i + 1) { print(i); } }",
        );
        assert!(matches!(verdict(&r, "io"), LoopVerdict::Excluded(_)));
    }

    #[test]
    fn unexercised_loop_reported() {
        let r = analyze(
            "fn main() { let s: int = 0; let n: int = 0; \
             @dead: for (let i: int = 0; i < n; i = i + 1) { s = s + 1; } }",
        );
        assert_eq!(verdict(&r, "dead"), LoopVerdict::NotExercised);
    }

    #[test]
    fn first_match_search_is_non_commutative() {
        let r = analyze(
            "fn main() -> int { let a: [int; 16]; let first: int = 0 - 1; \
             for (let i: int = 0; i < 16; i = i + 1) { a[i] = i * 7 % 16; } \
             @find: for (let i: int = 0; i < 16; i = i + 1) { \
               if (a[i] > 9 && first < 0) { first = i; } } \
             return first; }",
        );
        assert!(matches!(
            verdict(&r, "find"),
            LoopVerdict::NonCommutative(_)
        ));
    }

    #[test]
    fn loop_exit_scope_detects_map_commutativity() {
        let m = dca_ir::compile(
            "fn main() -> int { let a: [int; 16]; \
             @map: for (let i: int = 0; i < 16; i = i + 1) { a[i] = i * 2; } \
             return a[3]; }",
        )
        .expect("compile");
        let cfg = DcaConfig {
            verify_scope: VerifyScope::LoopExit,
            ..DcaConfig::fast()
        };
        let r = Dca::new(cfg).analyze_module(&m).expect("analyze");
        assert_eq!(
            r.by_tag("map").expect("map").verdict,
            LoopVerdict::Commutative
        );
    }

    #[test]
    fn exhaustive_permutations_agree_with_presets_on_small_loops() {
        let src = "fn main() -> int { let s: int = 0; \
             @red: for (let i: int = 0; i < 5; i = i + 1) { s = s + i; } return s; }";
        let m = dca_ir::compile(src).expect("compile");
        let cfg = DcaConfig {
            permutations: PermutationSet::Exhaustive {
                max_trip: 6,
                fallback_shuffles: 2,
            },
            ..DcaConfig::fast()
        };
        let r = Dca::new(cfg).analyze_module(&m).expect("analyze");
        let res = r.by_tag("red").expect("red");
        assert_eq!(res.verdict, LoopVerdict::Commutative);
        assert_eq!(res.permutations_tested, 120 - 1);
    }

    #[test]
    fn nested_loops_tested_independently() {
        let r = analyze(
            "fn main() -> int { let a: [int; 64]; let s: int = 0; \
             @outer: for (let i: int = 0; i < 8; i = i + 1) { \
               @inner: for (let j: int = 0; j < 8; j = j + 1) { \
                 a[i * 8 + j] = i + j; } } \
             for (let k: int = 0; k < 64; k = k + 1) { s = s + a[k]; } return s; }",
        );
        assert_eq!(verdict(&r, "outer"), LoopVerdict::Commutative);
        assert_eq!(verdict(&r, "inner"), LoopVerdict::Commutative);
    }

    #[test]
    fn float_reductions_verify_under_tolerance() {
        let r = analyze(
            "fn main() -> float { let s: float = 0.0; \
             @fred: for (let i: int = 0; i < 50; i = i + 1) { \
               s = s + 1.0 / (i as float + 1.0); } \
             return s; }",
        );
        assert_eq!(verdict(&r, "fred"), LoopVerdict::Commutative);
    }

    #[test]
    fn deterministic_nan_live_outs_are_commutative() {
        // Float division never traps: 0.0 / 0.0 is NaN, produced
        // identically by every iteration order. Before canonical float
        // comparison, NaN != NaN misclassified this map loop as
        // `NonCommutative(OutcomeMismatch)` under every scope.
        let src = "fn main() -> float { let a: [float; 16]; \
             @nan: for (let i: int = 0; i < 16; i = i + 1) { \
               a[i] = (0.0 / 0.0) + (0.0 - 0.0); } \
             return a[3]; }";
        let m = dca_ir::compile(src).expect("compile");
        let configs = [
            DcaConfig::fast(), // ProgramEnd, tolerance 1e-8
            DcaConfig {
                float_tolerance: 0.0,
                ..DcaConfig::fast()
            }, // ProgramEnd, bit-exact
            DcaConfig {
                verify_scope: VerifyScope::LoopExit,
                ..DcaConfig::fast()
            }, // LoopExit, structural tier
            DcaConfig::exact(), // LoopExit, hashed tier
            DcaConfig {
                digest: DigestMode::Structural,
                ..DcaConfig::exact()
            }, // LoopExit, forced structural
        ];
        for (i, cfg) in configs.into_iter().enumerate() {
            let r = Dca::new(cfg).analyze_module(&m).expect("analyze");
            assert_eq!(
                r.by_tag("nan").expect("nan").verdict,
                LoopVerdict::Commutative,
                "config {i}: deterministic NaN must not refute commutativity"
            );
        }
    }

    #[test]
    fn hashed_and_structural_tiers_agree_and_pinpoint_divergence() {
        // A recurrence under the loop-exit scope: both tiers must refute
        // it with the *same* first divergence — the hashed tier's
        // diagnostic pass rebuilds the golden state and diffs exactly
        // what the structural tier compares directly.
        let src = "fn main() -> int { let a: [int; 16]; a[0] = 1; let s: int = 0; \
             @rec: for (let i: int = 1; i < 16; i = i + 1) { a[i] = a[i - 1] * 2; } \
             for (let i: int = 0; i < 16; i = i + 1) { s = s + a[i]; } return s; }";
        let m = dca_ir::compile(src).expect("compile");
        let diverge = |cfg: DcaConfig| {
            let r = Dca::new(cfg).analyze_module(&m).expect("analyze");
            match r.by_tag("rec").expect("rec").verdict.clone() {
                LoopVerdict::NonCommutative(Violation::OutcomeMismatch(d)) => {
                    d.expect("divergence pinpointed")
                }
                v => panic!("expected a live-out mismatch, got {v}"),
            }
        };
        // The hashed tier runs at every tolerance.
        let tolerant = DcaConfig {
            float_tolerance: 1e-8,
            ..DcaConfig::exact()
        };
        let hashed = diverge(DcaConfig::exact());
        let structural = diverge(DcaConfig {
            digest: DigestMode::Structural,
            ..DcaConfig::exact()
        });
        assert_eq!(hashed, structural, "tiers must report the same divergence");
        assert_eq!(
            diverge(tolerant.clone()),
            structural,
            "a tolerance must not move the divergence"
        );
        let rendered = Violation::OutcomeMismatch(Some(hashed)).to_string();
        assert!(
            rendered.contains("golden") && rendered.contains("permuted"),
            "divergence names both sides: {rendered}"
        );

        // The obs counters record the tier split: hashed runs fingerprint
        // every verify (plus two structural captures for the diagnostic),
        // structural runs materialize every one.
        let count = |cfg: DcaConfig| {
            let r = Dca::new(DcaConfig {
                obs: crate::config::ObsOptions::metrics(),
                ..cfg
            })
            .analyze_module(&m)
            .expect("analyze");
            let obs = r.obs.expect("metrics on");
            (
                obs.counter("verify.digest.hashed"),
                obs.counter("verify.digest.structural"),
                obs.counter("verify.digest.cells"),
            )
        };
        for cfg in [DcaConfig::exact(), tolerant] {
            let tol = cfg.float_tolerance;
            let (h_hashed, h_structural, h_cells) = count(cfg);
            assert!(
                h_hashed >= 2,
                "tol {tol}: reference + terminal replay fingerprinted"
            );
            assert_eq!(
                h_structural, 2,
                "tol {tol}: one diagnostic pair per refutation"
            );
            assert!(h_cells > 0);
        }
        let (s_hashed, s_structural, s_cells) = count(DcaConfig {
            digest: DigestMode::Structural,
            ..DcaConfig::exact()
        });
        assert_eq!(s_hashed, 0, "forced structural never fingerprints");
        assert!(s_structural >= 2, "reference + terminal replay digested");
        assert!(s_cells > 0);
    }

    #[test]
    fn program_end_mismatch_pinpoints_divergence() {
        let r = analyze(
            "fn main() -> int { let a: [int; 16]; a[0] = 1; let s: int = 0; \
             @rec: for (let i: int = 1; i < 16; i = i + 1) { a[i] = a[i - 1] * 2; } \
             for (let i: int = 0; i < 16; i = i + 1) { s = s + a[i]; } return s; }",
        );
        match verdict(&r, "rec") {
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(Some(d))) => {
                assert!(
                    matches!(d, crate::outcome::Divergence::Ret { .. }),
                    "the only live-out is the return value, got {d}"
                );
            }
            v => panic!("expected a pinpointed mismatch, got {v}"),
        }
    }

    #[test]
    fn per_invocation_testing_exposes_context_sensitivity() {
        // The callee loop is commutative when the caller passes disjoint
        // strides and a recurrence when it passes stride 1 — different
        // verdicts per invocation (the §IV-E context-sensitivity case).
        let src = "fn upd(a: *int, stride: int) { \
             @u: for (let i: int = 0; i < 12; i = i + 1) { \
               a[(i + stride) % 24] = a[i] + 1; } }\n\
             fn main() -> int { let a: *int = new [int; 24]; let s: int = 0; \
             for (let i: int = 0; i < 24; i = i + 1) { a[i] = i * i % 7; } \
             upd(a, 12); upd(a, 1); \
             for (let i: int = 0; i < 24; i = i + 1) { s = s + a[i] * (i + 1); } \
             return s; }";
        let m = dca_ir::compile(src).expect("compile");
        let lref = dca_ir::all_loops(&m)
            .into_iter()
            .find(|(_, t)| t.as_deref() == Some("u"))
            .expect("tag")
            .0;
        let results = Dca::new(DcaConfig::fast())
            .test_invocations(&m, lref, &[], 4)
            .expect("analyze");
        assert_eq!(results.len(), 2, "two invocations exist");
        assert_eq!(results[0].verdict, LoopVerdict::Commutative);
        assert!(matches!(results[1].verdict, LoopVerdict::NonCommutative(_)));
    }

    #[test]
    fn multi_input_analysis_refutation_dominates() {
        // An input-dependent dependence in the style of 429.mcf: with
        // stride >= trip the writes never collide; with stride 1 they do.
        let src = "fn main(stride: int) -> int { let a: [int; 64]; let s: int = 0; \
             for (let i: int = 0; i < 32; i = i + 1) { a[i] = i * i % 7; } \
             @upd: for (let i: int = 0; i < 16; i = i + 1) { \
               a[(i + stride) % 32] = a[i] + 1; } \
             for (let i: int = 0; i < 32; i = i + 1) { s = s + a[i] * (i + 1); } \
             return s; }";
        let m = dca_ir::compile(src).expect("compile");
        let dca = Dca::new(DcaConfig::fast());
        // stride 16: reads a[0..16], writes a[16..32] — disjoint.
        let benign = dca.analyze(&m, &[Value::Int(16)]).expect("analyze");
        assert_eq!(
            benign.by_tag("upd").expect("upd").verdict,
            LoopVerdict::Commutative
        );
        // stride 1: a[i+1] = a[i] + 1 — a genuine recurrence.
        let combined = dca
            .analyze_inputs(&m, &[vec![Value::Int(16)], vec![Value::Int(1)]])
            .expect("analyze");
        assert!(matches!(
            combined.by_tag("upd").expect("upd").verdict,
            LoopVerdict::NonCommutative(_)
        ));
    }

    #[test]
    fn multi_input_analysis_upgrades_not_exercised() {
        let src = "fn main(n: int) -> int { let a: [int; 32]; let s: int = 0; \
             @m: for (let i: int = 0; i < n; i = i + 1) { a[i] = i * 2; } \
             for (let i: int = 0; i < 32; i = i + 1) { s = s + a[i]; } return s; }";
        let m = dca_ir::compile(src).expect("compile");
        let dca = Dca::new(DcaConfig::fast());
        let combined = dca
            .analyze_inputs(&m, &[vec![Value::Int(0)], vec![Value::Int(20)]])
            .expect("analyze");
        assert_eq!(
            combined.by_tag("m").expect("m").verdict,
            LoopVerdict::Commutative
        );
    }

    #[test]
    fn multi_input_analysis_merges_cache_stats() {
        let src = "fn main(n: int) -> int { let a: [int; 32]; let s: int = 0; \
             @m: for (let i: int = 0; i < n; i = i + 1) { a[i] = i * 2; } \
             @r: for (let i: int = 0; i < 32; i = i + 1) { s = s + a[i]; } return s; }";
        let m = dca_ir::compile(src).expect("compile");
        let dir = std::env::temp_dir().join(format!("dca-engine-inputs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("cache.json");
        let dca = Dca::new(DcaConfig {
            cache: Some(path.clone()),
            ..DcaConfig::fast()
        });
        let inputs = [vec![Value::Int(4)], vec![Value::Int(20)]];
        let cold = dca.analyze_inputs(&m, &inputs).expect("cold");
        let stats = cold.cache.expect("both runs consulted the cache");
        assert_eq!(stats.path, path);
        assert!(!stats.bypassed);
        assert_eq!((stats.hits, stats.misses, stats.stores), (0, 4, 4));
        assert_eq!(stats.faults, 0);
        let warm = dca.analyze_inputs(&m, &inputs).expect("warm");
        let stats = warm.cache.expect("both runs consulted the cache");
        assert_eq!((stats.hits, stats.misses, stats.stores), (4, 0, 0));
        // Either run bypassing marks the merged stats bypassed.
        let with_cache = |bypassed: bool| {
            let mut r = DcaReport::default();
            r.cache = Some(CacheStats {
                bypassed,
                ..CacheStats::default()
            });
            r
        };
        let merged = merge_reports(with_cache(false), with_cache(true));
        assert!(merged.cache.expect("merged stats").bypassed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_budget_reported_as_skip_not_violation() {
        // The loop dominates the program's cost, so a budget that admits
        // the golden run (setup + loop + rest) still starves a permuted
        // replay (iterator pre-pass + payload pass + rest ≈ twice the
        // loop). This used to be misreported as
        // `NonCommutative(ReplayDiverged)`.
        let src = "fn main() -> int { let a: [int; 64]; \
             @big: for (let i: int = 0; i < 64; i = i + 1) { a[i] = a[i] + i; } \
             return a[63]; }";
        let m = dca_ir::compile(src).expect("compile");
        let generous = Dca::new(DcaConfig::fast())
            .analyze_module(&m)
            .expect("analyze");
        let r = generous.by_tag("big").expect("big");
        assert_eq!(r.verdict, LoopVerdict::Commutative);
        assert!(r.permutations_tested > 0 && r.replay_steps > 0);
        // Every replay of this loop costs the same number of steps; one
        // step less than that exhausts the budget mid-replay.
        let per_replay = r.replay_steps / r.permutations_tested as u64;
        let tight = DcaConfig {
            max_steps: per_replay - 1,
            ..DcaConfig::fast()
        };
        let report = Dca::new(tight).analyze_module(&m).expect("analyze");
        let r = report.by_tag("big").expect("big");
        assert_eq!(
            r.verdict,
            LoopVerdict::Skipped(SkipReason::ReplayBudget),
            "an exhausted replay budget is a resource limit, not a violation"
        );
        assert_eq!(r.permutations_tested, 0, "budget hit on the first replay");
    }

    #[test]
    fn violation_preserves_permutation_count() {
        // `s = s * 2 + v[i]` over a palindromic `v` survives the reverse
        // permutation (the weight sequence is symmetric) but not a random
        // shuffle — so the violation lands on a later permutation and the
        // count of permutations executed before it must be preserved.
        // `test_invocations` used to zero it.
        let src = "fn main() -> int { let v: [int; 8]; let s: int = 0; \
             for (let i: int = 0; i < 8; i = i + 1) { \
               if (i < 4) { v[i] = i; } else { v[i] = 7 - i; } } \
             @poly: for (let i: int = 0; i < 8; i = i + 1) { s = s * 2 + v[i]; } \
             return s; }";
        let m = dca_ir::compile(src).expect("compile");
        let report = Dca::new(DcaConfig::fast())
            .analyze_module(&m)
            .expect("analyze");
        let r = report.by_tag("poly").expect("poly");
        assert!(matches!(r.verdict, LoopVerdict::NonCommutative(_)));
        assert!(
            r.permutations_tested >= 1,
            "the reverse permutation passed before a shuffle violated"
        );
        let results = Dca::new(DcaConfig::fast())
            .test_invocations(&m, r.lref, &[], 1)
            .expect("analyze");
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].verdict, r.verdict);
        assert_eq!(
            results[0].permutations_tested, r.permutations_tested,
            "test_invocations and analyze must count identically"
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // Commutative, non-commutative and multi-function modules must
        // produce verdict- and counter-identical reports at any width.
        let srcs = [
            "fn main() -> int { let a: [int; 32]; let s: int = 0; \
             @fill: for (let i: int = 0; i < 32; i = i + 1) { a[i] = i * 2; } \
             @sum: for (let i: int = 0; i < 32; i = i + 1) { s = s + a[i]; } \
             return s; }",
            "fn main() -> int { let a: [int; 16]; a[0] = 1; let s: int = 0; \
             @rec: for (let i: int = 1; i < 16; i = i + 1) { a[i] = a[i - 1] * 2; } \
             for (let i: int = 0; i < 16; i = i + 1) { s = s + a[i]; } return s; }",
            "fn kernel(a: *int, n: int) { \
             @k: for (let i: int = 0; i < n; i = i + 1) { a[i] = a[i] * 2; } }\n\
             fn main() -> int { let a: *int = new [int; 16]; \
             for (let i: int = 0; i < 16; i = i + 1) { a[i] = i; } \
             kernel(a, 16); return a[5]; }",
        ];
        for src in srcs {
            let m = dca_ir::compile(src).expect("compile");
            let sequential = Dca::new(DcaConfig {
                threads: 1,
                ..DcaConfig::fast()
            })
            .analyze_module(&m)
            .expect("analyze");
            for threads in [2, 4, 8] {
                let parallel = Dca::new(DcaConfig {
                    threads,
                    ..DcaConfig::fast()
                })
                .analyze_module(&m)
                .expect("analyze");
                assert_eq!(parallel.threads, threads);
                assert_eq!(sequential.len(), parallel.len());
                for (s, p) in sequential.iter().zip(parallel.iter()) {
                    assert_eq!(s, p, "threads={threads}");
                    assert_eq!(
                        s.replay_steps, p.replay_steps,
                        "replay accounting must be deterministic (threads={threads})"
                    );
                }
            }
        }
    }

    #[test]
    fn obs_disabled_by_default_and_rollup_populated_when_enabled() {
        let src = "fn main() -> int { let a: [int; 16]; let s: int = 0; \
             @fill: for (let i: int = 0; i < 16; i = i + 1) { a[i] = i * 2; } \
             for (let i: int = 0; i < 16; i = i + 1) { s = s + a[i]; } return s; }";
        let m = dca_ir::compile(src).expect("compile");
        let plain = Dca::new(DcaConfig::fast())
            .analyze_module(&m)
            .expect("analyze");
        assert!(plain.obs.is_none(), "obs is opt-in");
        let cfg = DcaConfig {
            obs: crate::config::ObsOptions::metrics(),
            ..DcaConfig::fast()
        };
        let r = Dca::new(cfg).analyze_module(&m).expect("analyze");
        let obs = r.obs.as_ref().expect("metrics on");
        assert_eq!(obs.counter("engine.loops"), 2);
        assert_eq!(obs.counter("engine.verdict.commutative"), 2);
        assert_eq!(obs.counter("engine.replay_steps"), r.replay_steps());
        assert!(obs.counter("engine.replays") > 0);
        assert!(
            obs.counter("interp.heap.writes") > 0,
            "the loops store to the array"
        );
        assert!(obs.counter("analysis.liveness.runs") >= 2);
        assert_eq!(obs.spans["engine.analyze"].count, 1);
        assert_eq!(
            obs.spans["stage.static"].count, 2,
            "one static stage per loop"
        );
        assert_eq!(
            obs.spans["stage.record"].count, 1,
            "one golden run records both loops"
        );
        assert_eq!(obs.counter("engine.golden_runs"), 1);
        assert_eq!(
            obs.counter("engine.snapshot_cells_peak"),
            2 * 16,
            "both loops' snapshots of the 16-cell array are alive at once"
        );
        // Per-replay spans line up with the replay counter.
        let replays = obs.counter("engine.replays");
        assert_eq!(obs.spans["stage.restore"].count, replays);
        assert_eq!(obs.spans["stage.replay"].count, replays);
        assert_eq!(obs.spans["stage.verify"].count, replays);
    }

    #[test]
    fn nothing_to_record_runs_no_program() {
        let cfg = |cache: Option<std::path::PathBuf>| DcaConfig {
            obs: crate::config::ObsOptions::metrics(),
            cache,
            ..DcaConfig::fast()
        };
        // (golden runs, `stage.record` spans)
        let runs = |r: &DcaReport| {
            let obs = r.obs.as_ref().expect("metrics on");
            let spans = obs.spans.get("stage.record").map_or(0, |s| s.count);
            (obs.counter("engine.golden_runs"), spans)
        };
        let io = dca_ir::compile(
            "fn main() { \
             @a: for (let i: int = 0; i < 4; i = i + 1) { print(i); } \
             @b: for (let i: int = 0; i < 4; i = i + 1) { print(i * 2); } }",
        )
        .expect("compile");
        let r = Dca::new(cfg(None)).analyze_module(&io).expect("analyze");
        assert!(r
            .iter()
            .all(|l| matches!(l.verdict, LoopVerdict::Excluded(_))));
        assert_eq!(runs(&r), (0, 0), "every loop is excluded");
        let dir = std::env::temp_dir().join(format!("dca-engine-no-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("cache.json");
        let m = dca_ir::compile(
            "fn main() -> int { let a: [int; 16]; let s: int = 0; \
             @fill: for (let i: int = 0; i < 16; i = i + 1) { a[i] = i * 2; } \
             @sum: for (let i: int = 0; i < 16; i = i + 1) { s = s + a[i]; } return s; }",
        )
        .expect("compile");
        let cold = Dca::new(cfg(Some(path.clone())))
            .analyze_module(&m)
            .expect("cold");
        assert_eq!(runs(&cold), (1, 1), "one run records both loops");
        let warm = Dca::new(cfg(Some(path))).analyze_module(&m).expect("warm");
        assert_eq!(warm.cached_count(), warm.len());
        assert_eq!(runs(&warm), (0, 0), "the cache serves every loop");
        std::fs::remove_dir_all(&dir).ok();
    }

    type NamedTotals = Vec<(String, u64)>;

    /// Strips the wall-time component of a rollup, leaving only the
    /// deterministic part: counters and span counts.
    fn deterministic_view(r: &DcaReport) -> (NamedTotals, NamedTotals) {
        let obs = r.obs.as_ref().expect("metrics on");
        (
            obs.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            obs.spans
                .iter()
                .map(|(k, s)| (k.clone(), s.count))
                .collect(),
        )
    }

    #[test]
    fn obs_rollup_identical_across_thread_counts_when_budget_exhausts_mid_replay() {
        // The ReplayBudget early-exit path: the budget starves the very
        // first permuted replay, so workers race to observe the stop
        // index. The deterministic fold must nonetheless attribute
        // identical counters and span counts at every width, and the
        // verdict must stay `Skipped(ReplayBudget)`.
        let src = "fn main() -> int { let a: [int; 64]; \
             @big: for (let i: int = 0; i < 64; i = i + 1) { a[i] = a[i] + i; } \
             return a[63]; }";
        let m = dca_ir::compile(src).expect("compile");
        let generous = Dca::new(DcaConfig::fast())
            .analyze_module(&m)
            .expect("analyze");
        let r = generous.by_tag("big").expect("big");
        let per_replay = r.replay_steps / r.permutations_tested as u64;
        let tight = |threads| DcaConfig {
            max_steps: per_replay - 1,
            threads,
            obs: crate::config::ObsOptions::metrics(),
            ..DcaConfig::fast()
        };
        let sequential = Dca::new(tight(1)).analyze_module(&m).expect("analyze");
        assert_eq!(
            sequential.by_tag("big").expect("big").verdict,
            LoopVerdict::Skipped(SkipReason::ReplayBudget)
        );
        let reference = deterministic_view(&sequential);
        for threads in [2, 8] {
            let parallel = Dca::new(tight(threads))
                .analyze_module(&m)
                .expect("analyze");
            for (s, p) in sequential.iter().zip(parallel.iter()) {
                assert_eq!(s, p, "threads={threads}");
            }
            assert_eq!(
                deterministic_view(&parallel),
                reference,
                "obs counters/span counts must not depend on the worker count (threads={threads})"
            );
        }
    }

    #[test]
    fn merged_reports_merge_obs_rollups() {
        let src = "fn main(n: int) -> int { let a: [int; 32]; let s: int = 0; \
             @m: for (let i: int = 0; i < n; i = i + 1) { a[i] = i * 2; } \
             for (let i: int = 0; i < 32; i = i + 1) { s = s + a[i]; } return s; }";
        let m = dca_ir::compile(src).expect("compile");
        let cfg = DcaConfig {
            obs: crate::config::ObsOptions::metrics(),
            ..DcaConfig::fast()
        };
        let dca = Dca::new(cfg);
        let a = dca.analyze(&m, &[Value::Int(8)]).expect("analyze");
        let b = dca.analyze(&m, &[Value::Int(20)]).expect("analyze");
        let combined = dca
            .analyze_inputs(&m, &[vec![Value::Int(8)], vec![Value::Int(20)]])
            .expect("analyze");
        let (ra, rb) = (a.obs.expect("obs"), b.obs.expect("obs"));
        let rc = combined.obs.expect("obs");
        assert_eq!(
            rc.counter("engine.replays"),
            ra.counter("engine.replays") + rb.counter("engine.replays")
        );
        assert_eq!(
            rc.spans["engine.analyze"].count, 2,
            "one analyze span per workload"
        );
    }

    #[test]
    fn second_loop_in_other_function_analyzed() {
        let r = analyze(
            "fn kernel(a: *int, n: int) { \
             @k: for (let i: int = 0; i < n; i = i + 1) { a[i] = a[i] * 2; } }\n\
             fn main() -> int { let a: *int = new [int; 16]; \
             for (let i: int = 0; i < 16; i = i + 1) { a[i] = i; } \
             kernel(a, 16); return a[5]; }",
        );
        assert_eq!(verdict(&r, "k"), LoopVerdict::Commutative);
    }

    #[test]
    fn entry_arity_mismatch_is_rejected_up_front() {
        let m = dca_ir::compile(
            "fn main(n: int) -> int { let s: int = 0; \
             @l: for (let i: int = 0; i < n; i = i + 1) { s = s + i; } return s; }",
        )
        .expect("compile");
        let dca = Dca::new(DcaConfig::fast());
        assert_eq!(
            dca.analyze(&m, &[]).expect_err("no args for main(n)"),
            DcaError::EntryArity {
                expected: 1,
                given: 0
            }
        );
        let err = dca
            .analyze(&m, &[Value::Int(4), Value::Int(5)])
            .expect_err("too many args");
        assert_eq!(
            err.to_string(),
            "`main` expects 1 argument(s), the workload supplies 2"
        );
        assert!(dca.analyze(&m, &[Value::Int(8)]).is_ok());
    }

    #[test]
    fn entry_argument_type_mismatch_names_the_parameter() {
        let m = dca_ir::compile(
            "fn main(n: int, scale: float) -> int { let s: int = 0; \
             @l: for (let i: int = 0; i < n; i = i + 1) { s = s + i; } return s; }",
        )
        .expect("compile");
        let dca = Dca::new(DcaConfig::fast());
        let err = dca
            .analyze(&m, &[Value::Int(4), Value::Bool(true)])
            .expect_err("bool is not a float");
        assert_eq!(
            err,
            DcaError::EntryArgType {
                index: 1,
                param: "scale".into(),
                expected: "float".into(),
                given: "bool".into(),
            }
        );
        assert_eq!(
            err.to_string(),
            "entry argument 1 (`scale`) has type bool, expected float"
        );
        assert!(dca.analyze(&m, &[Value::Int(4), Value::Float(1.5)]).is_ok());
    }

    #[test]
    fn null_fits_any_pointer_entry_parameter() {
        let m = dca_ir::compile(
            "struct Node { val: int, next: *Node }\n\
             fn main(head: *Node) -> int { let s: int = 0; let p: *Node = head;\n\
             @l: while (p != null) { s = s + p.val; p = p.next; } return s; }",
        )
        .expect("compile");
        let dca = Dca::new(DcaConfig::fast());
        assert!(dca.analyze(&m, &[Value::Null]).is_ok());
        let err = dca
            .analyze(&m, &[Value::Int(0)])
            .expect_err("int is not a pointer");
        assert!(matches!(err, DcaError::EntryArgType { index: 0, .. }));
    }

    #[test]
    fn empty_permutation_preset_is_rejected() {
        let m = dca_ir::compile(
            "fn main() -> int { let s: int = 0; \
             @l: for (let i: int = 0; i < 8; i = i + 1) { s = s + i; } return s; }",
        )
        .expect("compile");
        let zero = Dca::new(DcaConfig {
            permutations: PermutationSet::Shuffles { shuffles: 0 },
            ..DcaConfig::fast()
        });
        let err = zero
            .analyze_module(&m)
            .expect_err("zero shuffles and no reverse tests nothing");
        assert_eq!(err, DcaError::EmptyPermutationSet);
        assert_eq!(
            err.to_string(),
            "permutation preset generates no permutations"
        );
        // One shuffle is a legitimate (if weak) preset.
        let one = Dca::new(DcaConfig {
            permutations: PermutationSet::Shuffles { shuffles: 1 },
            ..DcaConfig::fast()
        });
        assert!(one.analyze_module(&m).is_ok());
    }
}
