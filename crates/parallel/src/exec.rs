//! Real-thread parallel execution of DCA-proven loops.
//!
//! The analysis pipeline ends with a verdict ([`dca_core::LoopVerdict`])
//! and a clause set ([`ParallelPlan`]); the simulator ([`crate::sim`])
//! predicts what running them in parallel *would* buy. This module is the
//! payoff: it actually runs a proven loop's iterations across a pool of
//! OS threads, one interpreter per worker, and then **differentially
//! validates** the merged result against the sequential oracle — the
//! program's own original-order run — before anyone gets to trust it.
//!
//! The execution model reuses the dynamic stage's machinery end to end:
//!
//! 1. [`dca_core::record_program`], asked for the loop's first
//!    invocation, captures it — the entry snapshot, the linearized
//!    iterator values and the exit state — exactly as the analysis did,
//!    stopping at the loop exit: nothing here reads the golden run's
//!    program outcome, and the recording machine is kept, standing in
//!    the exit state. The run's steps before the loop is entered go
//!    without the recorder's hooks; the `exec.record_idle_steps` and
//!    `exec.record_tracked_steps` counters split them. When the
//!    decomposability pre-check or chunk autotuning wants it, a
//!    [`dca_deps::FootprintProbe`] rides in the same run and returns the
//!    per-iteration footprint profile. With the pre-check armed, the
//!    recording of a loop whose payload touches an object the loop
//!    allocated ends at that access: such a loop is refused, after the
//!    entry-state reduction and histogram checks, without recording the
//!    rest (`exec.refused_in_record`).
//! 2. Each worker restores the snapshot into its own [`Machine`] and
//!    drives the analysis's replay controller
//!    ([`dca_core::ReplayController`]) with a worker-share iteration
//!    order: the iterator pre-pass applies destructive iterator effects
//!    once, identically in every worker, then only *its* subset of
//!    payload instances runs, chosen by an OpenMP-style schedule
//!    ([`Schedule::StaticBlock`] contiguous blocks or
//!    [`Schedule::Dynamic`] chunk self-scheduling over a shared atomic
//!    counter). Heap writes are tracked by the machine's write journal;
//!    recognized reduction accumulators are seeded with the operator's
//!    identity and harvested as per-chunk partials.
//! 3. The main thread merges every harvest onto a fresh master machine:
//!    journal write-sets are applied cell by cell, histogram cells and
//!    scalar partials are combined with the plan's operators in a
//!    deterministic chunk-ordered tree, and the recorded iterator exit
//!    values close the loop.
//! 4. The merged live-out state is checked against the same roots in the
//!    recording machine of step 1 with the engine's own loop-exit check
//!    ([`dca_core::ExitRef::check`]): the sequential oracle is the golden
//!    run itself, not a replay through the controller the workers use,
//!    so a controller bug cannot cancel out. Equal fingerprints are an
//!    exact match; otherwise both states are digested and compared under
//!    [`ExecConfig::float_tolerance`], the oracle's digest taken only
//!    then. A mismatch is a hard [`ExecError::Diverged`] carrying the
//!    first divergent root or cell — a parallel run never silently
//!    returns corrupted state.
//!
//! The loop's facts — separation, liveness, digest roots — are the
//! engine's ([`dca_core::LoopFacts`]), built once and shared with the
//! [`ParallelPlan`], and the workers run on the engine's pool
//! ([`dca_core::parallel_map`]). Floating-point reductions combined in a
//! different order are not bit-identical in general, which is what the
//! tolerance is for; at `0.0` the comparison is exact up to
//! NaN/`-0.0` canonicalization.
//!
//! ```
//! use dca_parallel::exec::{execute_loop, ExecConfig};
//!
//! let m = dca_ir::compile(
//!     "fn main() -> int { let s: int = 0; \
//!      @l: for (let i: int = 0; i < 64; i = i + 1) { s = s + i * i; } \
//!      return s; }",
//! ).map_err(|e| e.to_string())?;
//! let lref = dca_ir::all_loops(&m)[0].0;
//! let cfg = ExecConfig { threads: 2, ..ExecConfig::default() };
//! let out = execute_loop(&m, &[], lref, &cfg, &dca_core::Obs::disabled())
//!     .map_err(|e| e.to_string())?;
//! assert_eq!(out.trips, 64);
//! assert!(out.validated && out.exact, "integer reduction is bit-exact");
//! # Ok::<(), String>(())
//! ```

use crate::plan::ParallelPlan;
use crate::sim::Schedule;
use dca_analysis::{ArrayKey, ReductionOp};
use dca_core::{
    parallel_map, read_roots, record_program, run_replay, DcaConfig, DcaReport, DigestMode,
    DigestScratch, DigestStats, Divergence, ExitRef, GoldenDigest, GoldenRecord, IterOrder,
    LoopFacts, Obs, RecordError, RecordRequest, ReplayController, ReplayEnd, ReplayGovernor,
};
use dca_deps::{
    autotune_chunk, check_decomposable, Conflict, DepVerdict, FootprintProbe, LoopProfile,
};
use dca_interp::{Addr, Machine, ObjId, Trap, Value};
use dca_ir::{BinOp, BlockId, Function, Inst, LoopRef, Module, Operand, VarId};
use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Why a loop whose payload touches objects it allocated is refused,
/// whether the pre-check or a worker finds it.
const ALLOCATES: &str = "loop allocates heap objects; their identities cannot be merged";

/// Resolves an [`ExecConfig::threads`] request to a concrete worker
/// count: `0` means the `DCA_EXEC_THREADS` environment variable if it is
/// set to a positive integer, else one worker per CPU the process can
/// use; any other value is taken as-is. Deliberately independent of the
/// analysis pool (`DCA_THREADS`), so CI can sweep execution widths
/// without changing how verdicts are computed.
#[must_use]
pub fn exec_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("DCA_EXEC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Configuration for one parallel loop execution.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Worker threads; `0` resolves via [`exec_threads`].
    pub threads: usize,
    /// Iteration schedule. [`Schedule::Dynamic`] chunks are clamped to at
    /// least one iteration per grab.
    pub schedule: Schedule,
    /// Relative tolerance for the digest fallback when fingerprints are
    /// not bit-identical (reassociated float reductions). `0.0` demands
    /// exactness up to NaN/`-0.0` canonicalization.
    pub float_tolerance: f64,
    /// Interpreter step budget for the golden recording and for each
    /// worker.
    pub max_steps: u64,
    /// Trip-count cap for the golden recording.
    pub max_trip: usize,
    /// Run the trace-footprint decomposability pre-check on the golden
    /// recording and refuse conflicting loops *before any thread
    /// spawns* ([`ExecError::NotDecomposable`]). The differential
    /// validator stays armed either way (defense in depth); turning
    /// this off is for measuring the validator alone.
    pub deps_precheck: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: 0,
            schedule: Schedule::StaticBlock,
            float_tolerance: 1e-8,
            max_steps: DcaConfig::DEFAULT_MAX_STEPS,
            max_trip: DcaConfig::DEFAULT_MAX_TRIP,
            deps_precheck: true,
        }
    }
}

impl ExecConfig {
    /// Derives an execution configuration from an analysis
    /// configuration: the shared float tolerance and budgets, with the
    /// worker count left to [`exec_threads`].
    #[must_use]
    pub fn from_dca(cfg: &DcaConfig) -> Self {
        ExecConfig {
            threads: 0,
            schedule: Schedule::StaticBlock,
            float_tolerance: cfg.float_tolerance,
            max_steps: cfg.max_steps,
            max_trip: cfg.max_trip,
            deps_precheck: true,
        }
    }
}

/// Why a parallel execution did not produce a trusted result.
#[derive(Debug)]
pub enum ExecError {
    /// The plan carries loop-carried scalars no clause explains.
    Unresolved(Vec<String>),
    /// A live-out scalar is defined in the loop but is neither iterator
    /// control nor a recognized reduction — its final value depends on
    /// iteration order and cannot be merged.
    OrderSensitive(Vec<String>),
    /// A structural limitation of the executor (allocation inside the
    /// loop, output statements, an unsupported reduction shape, ...).
    Unsupported(String),
    /// The trace-footprint pre-check found a cross-iteration heap
    /// dependence: the loop is commutative but not snapshot-
    /// decomposable. Raised *before any worker thread spawns*.
    NotDecomposable {
        /// The first conflicting `(iter_a, iter_b, address)` witness.
        witness: Conflict,
        /// Distinct heap cells carrying at least one hazard.
        conflicting_cells: u64,
    },
    /// Recording the golden invocation failed.
    Record(RecordError),
    /// A worker trapped.
    Trapped(Trap),
    /// A worker ran out of interpreter steps.
    BudgetExhausted,
    /// The merged parallel state does not match the sequential oracle.
    Diverged {
        /// The oracle's live-out fingerprint (the golden run's, at the
        /// loop exit).
        expected: u128,
        /// The merged parallel fingerprint.
        actual: u128,
        /// First divergent root/cell, when the digest walk found one.
        detail: Option<Box<Divergence>>,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Unresolved(vars) => {
                write!(f, "unresolved loop-carried scalars: {}", vars.join(", "))
            }
            ExecError::OrderSensitive(vars) => {
                write!(f, "order-sensitive live-out scalars: {}", vars.join(", "))
            }
            ExecError::Unsupported(what) => write!(f, "unsupported: {what}"),
            ExecError::NotDecomposable {
                witness,
                conflicting_cells,
            } => {
                write!(
                    f,
                    "not decomposable: {witness} ({conflicting_cells} conflicting cell{})",
                    if *conflicting_cells == 1 { "" } else { "s" }
                )
            }
            ExecError::Record(e) => write!(f, "golden recording failed: {e:?}"),
            ExecError::Trapped(t) => write!(f, "trapped: {t}"),
            ExecError::BudgetExhausted => write!(f, "step budget exhausted"),
            ExecError::Diverged {
                expected,
                actual,
                detail,
            } => {
                write!(
                    f,
                    "parallel execution diverged from the sequential oracle \
                     (expected {expected:032x}, got {actual:032x})"
                )?;
                if let Some(d) = detail {
                    write!(f, ": {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// What one parallel loop execution produced (state lives in the merged
/// machine; this is the accounting).
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The executed loop.
    pub lref: LoopRef,
    /// Its source tag, if any.
    pub tag: Option<String>,
    /// Worker threads actually used.
    pub threads: usize,
    /// Trip count of the executed invocation.
    pub trips: usize,
    /// Dynamic-schedule chunk grabs beyond each worker's first (always 0
    /// under [`Schedule::StaticBlock`]).
    pub steals: u64,
    /// The dynamic chunk size actually used: the configured one for
    /// [`Schedule::Dynamic`] (after the ≥1 clamp), the autotuned one for
    /// [`Schedule::Auto`], `None` under [`Schedule::StaticBlock`].
    pub chunk: Option<usize>,
    /// Reduction combine operations performed during the merge (scalar
    /// tree combines plus histogram cell combines).
    pub combine_steps: u64,
    /// True when the merged state agreed with the sequential oracle.
    /// Every `Ok` outcome is validated, so this is always `true`.
    pub validated: bool,
    /// True when the agreement was bit-exact (fingerprint equality);
    /// false under the float-tolerance fallback.
    pub exact: bool,
    /// The merged live-out fingerprint ([`dca_core::hash_live_state`]).
    pub fingerprint: u128,
    /// The sequential oracle's fingerprint: the golden run's live-out
    /// state at the loop exit. Always `Some` on an `Ok` outcome. Unlike
    /// [`ExecOutcome::fingerprint`] this is independent of the worker
    /// count even for tolerance-validated float reductions, so it is
    /// the value to compare across execution widths.
    pub oracle_fingerprint: Option<u128>,
}

/// One row of [`execute_commutative`]: the loop, its tag, and what
/// executing it produced.
pub type ExecRun = (LoopRef, Option<String>, Result<ExecOutcome, ExecError>);

/// Executes every loop `report` proved commutative, in report order.
/// Failures are per-loop: one refused or diverging loop does not stop
/// the others.
pub fn execute_commutative(
    module: &Module,
    args: &[Value],
    report: &DcaReport,
    cfg: &ExecConfig,
    obs: &Obs,
) -> Vec<ExecRun> {
    report
        .commutative_loops()
        .map(|r| {
            (
                r.lref,
                r.tag.clone(),
                execute_loop(module, args, r.lref, cfg, obs),
            )
        })
        .collect()
}

/// Runs loop `lref`'s first invocation across a worker pool and merges
/// the results, differentially validating against the sequential oracle
/// (see the module docs for the full protocol).
///
/// # Errors
///
/// Refuses loops the merge cannot cover ([`ExecError::Unresolved`],
/// [`ExecError::OrderSensitive`], [`ExecError::Unsupported`]); propagates
/// recording/trap/budget failures; reports oracle disagreement as
/// [`ExecError::Diverged`].
pub fn execute_loop(
    module: &Module,
    args: &[Value],
    lref: LoopRef,
    cfg: &ExecConfig,
    obs: &Obs,
) -> Result<ExecOutcome, ExecError> {
    let threads = exec_threads(cfg.threads);
    let main = module
        .main()
        .ok_or_else(|| ExecError::Unsupported("module has no main".into()))?;
    let facts = LoopFacts::for_loop(module, lref, obs);
    let (l, slice, roots) = (facts.l(), &facts.slice, &facts.roots);
    let func_ir = facts.view.func;
    let var_name = |v: VarId| func_ir.var(v).name.clone();

    let plan = ParallelPlan::build(&facts);
    if !plan.is_clean() {
        return Err(ExecError::Unresolved(
            plan.unresolved.iter().copied().map(var_name).collect(),
        ));
    }
    // Refuse loops whose live-out scalars no merge rule covers: defined
    // in the loop, not iterator control (covered by the recorded exit
    // values), not a reduction (covered by the partial combine). Their
    // final value is a function of iteration order.
    let defined = facts.live.loop_defs(l);
    let red_vars: BTreeSet<VarId> = plan.reductions.iter().map(|r| r.var).collect();
    let sensitive: Vec<String> = roots
        .vars
        .iter()
        .zip(&roots.names)
        .filter(|(v, _)| defined.contains(v) && !plan.control.contains(v) && !red_vars.contains(v))
        .map(|(_, name)| name.clone())
        .collect();
    if !sensitive.is_empty() {
        return Err(ExecError::OrderSensitive(sensitive));
    }

    // The footprint profile feeds both the decomposability pre-check and
    // chunk autotuning; when neither is requested, record without a probe.
    let want_profile = cfg.deps_precheck || cfg.schedule == Schedule::Auto;
    let mut probe = want_profile.then(FootprintProbe::new);
    // The recording stops at the loop exit, so its machine is left
    // standing in the sequential exit state: the oracle. Under the
    // pre-check it stops sooner, at the payload's first access to an
    // object the invocation allocated, which decides the refusal.
    let mut oracle = Machine::new(module);
    let t = obs.span_start();
    let request = RecordRequest {
        func: lref.func,
        l,
        slice,
        invocations: 0..1,
        min_trip: 0,
        max_trip: cfg.max_trip,
        probe: probe.as_mut(),
        stop_at_fresh: cfg.deps_precheck,
    };
    let run = record_program(
        &mut oracle,
        main,
        args,
        vec![request],
        cfg.max_steps,
        None,
        None,
        true,
        &mut |_, _| {},
    );
    let profile = probe.map(FootprintProbe::finish);
    obs.span_end("exec.record", t);
    obs.count("exec.record_idle_steps", run.steps.idle);
    obs.count("exec.record_tracked_steps", run.steps.tracked);
    let record = run
        .loops
        .into_iter()
        .flatten()
        .next()
        .expect("one result for the one requested invocation");
    // A loop refused at its deciding access still gets the entry-state
    // checks below, so it is refused for the reason a whole recording
    // would give.
    let (snapshot, golden) = match record {
        Ok(golden) => (Arc::clone(&golden.snapshot), Some(golden)),
        Err(RecordError::FreshAccess(snapshot)) => {
            obs.count("exec.refused_in_record", 1);
            (snapshot, None)
        }
        Err(e) => return Err(ExecError::Record(e)),
    };
    debug_assert!(
        golden
            .as_ref()
            .is_none_or(|g| profile.as_ref().is_none_or(|p| p.len() == g.iters.len())),
        "profile iterations must align with the golden record"
    );

    // The master machine the harvests merge onto; also used to resolve
    // pre-loop state (reduction seeds, histogram base objects).
    let mut master = Machine::new(module);
    master.restore(&snapshot);
    // The entry snapshot and the master's restore.
    obs.count("exec.heap_cells_copied", 2 * snapshot.heap_cells());

    let mut reds: Vec<ScalarMerge> = Vec::with_capacity(plan.reductions.len());
    for sr in &plan.reductions {
        let bop = if sr.op == ReductionOp::Bitwise {
            Some(bitwise_op(func_ir, &l.blocks, Some(sr.var)).ok_or_else(|| {
                ExecError::Unsupported(format!(
                    "ambiguous bitwise reduction operator for {}",
                    var_name(sr.var)
                ))
            })?)
        } else {
            None
        };
        let identity = identity_for(sr.op, bop, master.read_var(sr.var))?;
        reds.push(ScalarMerge {
            var: sr.var,
            op: sr.op,
            bop,
            identity,
        });
    }

    let mut hists: Vec<(ObjId, ReductionOp, Option<BinOp>)> = Vec::new();
    for h in &plan.histograms {
        let obj = match h.array {
            ArrayKey::Global(g) => master.global_obj(g),
            ArrayKey::Var(v) => match master.read_var(v) {
                Value::Ptr(o) => o,
                other => {
                    return Err(ExecError::Unsupported(format!(
                        "histogram base {} is not a pointer ({other})",
                        var_name(v)
                    )))
                }
            },
        };
        let bop = if h.op == ReductionOp::Bitwise {
            Some(bitwise_op(func_ir, &l.blocks, None).ok_or_else(|| {
                ExecError::Unsupported("ambiguous bitwise histogram operator".into())
            })?)
        } else {
            None
        };
        if let Some(&(_, prev_op, _)) = hists.iter().find(|&&(o, ..)| o == obj) {
            if prev_op != h.op {
                return Err(ExecError::Unsupported(
                    "aliased histogram arrays with different operators".into(),
                ));
            }
            continue;
        }
        hists.push((obj, h.op, bop));
    }
    let Some(golden) = golden else {
        return Err(ExecError::Unsupported(ALLOCATES.into()));
    };
    let n = golden.iters.len();

    // --- Pre-spawn decomposability check (DESIGN.md §18). ---
    // Cells of recognized histogram arrays are exempt: the merge combines
    // them with the reduction operator instead of overwriting. Scalar
    // reduction accumulators live in frame variables, never in the heap,
    // so they need no exclusion.
    if let Some(p) = &profile {
        obs.count("deps.loops_profiled", 1);
        if cfg.deps_precheck {
            let t = obs.span_start();
            let verdict = precheck(p, &master, &hists, obs);
            obs.span_end("exec.precheck", t);
            verdict?;
        }
    }

    // Resolve the schedule: `Auto` becomes `Dynamic` with the chunk the
    // profile's step-count distribution tunes to — a deterministic pure
    // function of (profile, worker count), so plans stay byte-stable.
    let schedule = match cfg.schedule {
        Schedule::Auto => {
            let steps: Vec<u64> = profile.as_ref().map(|p| p.iter_steps()).unwrap_or_default();
            obs.count("exec.autotuned_chunks", 1);
            Schedule::Dynamic {
                chunk: autotune_chunk(&steps, threads),
            }
        }
        s => s,
    };
    let chunk = match schedule {
        Schedule::StaticBlock => None,
        Schedule::Dynamic { chunk } => Some(chunk.max(1)),
        Schedule::Auto => unreachable!("Auto resolved above"),
    };

    let red_seed: Vec<(VarId, Value)> = reds.iter().map(|r| (r.var, r.identity)).collect();
    let ctx = WorkerCtx {
        facts: &facts,
        golden: &golden,
        red: &red_seed,
        hists: &hists,
        max_steps: cfg.max_steps,
    };

    let next = AtomicUsize::new(0);
    let workers: Vec<usize> = (0..threads).collect();
    // Each worker restores the entry snapshot.
    obs.count(
        "exec.heap_cells_copied",
        threads as u64 * snapshot.heap_cells(),
    );
    let t = obs.span_start();
    let harvests = parallel_map(threads, &workers, obs, "exec", |_, &w| {
        run_worker(&ctx, make_source(chunk, w, threads, n, &next))
    })
    .into_iter()
    .collect::<Result<Vec<Harvest>, ExecError>>();
    obs.span_end("exec.run", t);
    let harvests = harvests?;

    let iters: u64 = harvests.iter().map(|h| h.iters).sum();
    debug_assert_eq!(
        iters, n as u64,
        "schedule must partition the iteration space"
    );
    let steals: u64 = harvests.iter().map(|h| h.grabs.saturating_sub(1)).sum();

    // --- Merge, deterministically. ---
    let t = obs.span_start();
    let combine_steps = merge(&mut master, &harvests, &reds, &hists, &golden);
    obs.span_end("exec.merge", t);
    let combine_steps = combine_steps?;

    // --- Differential validation, against the oracle still standing at
    // the exit. ---
    let t = obs.span_start();
    let mut scratch = DigestScratch::new();
    let (mut obuf, mut buf) = (Vec::new(), Vec::new());
    read_roots(&oracle, &roots.vars, &mut obuf);
    read_roots(&master, &roots.vars, &mut buf);
    let reference = ExitRef::capture(&oracle, &obuf, DigestMode::Auto, &mut scratch);
    let check = reference.check(
        &master,
        &buf,
        GoldenDigest::Standing(&oracle, &obuf),
        cfg.float_tolerance,
        &roots.names,
        &mut scratch,
        &mut DigestStats::default(),
    );
    obs.span_end("exec.validate", t);
    let (Some((seq_fp, _)), Some(par_fp)) = (reference.hash, check.fingerprint) else {
        unreachable!("the auto digest mode fingerprints both states")
    };
    if let Err(detail) = check.result {
        obs.count("exec.divergences", 1);
        return Err(ExecError::Diverged {
            expected: seq_fp,
            actual: par_fp,
            detail: Some(Box::new(detail)),
        });
    }

    obs.count("exec.invocations", 1);
    obs.count("exec.iters", iters);
    obs.count("exec.steals", steals);
    obs.count("exec.combine_steps", combine_steps);

    Ok(ExecOutcome {
        lref,
        tag: l.tag.clone(),
        threads,
        trips: n,
        steals,
        chunk,
        combine_steps,
        validated: true,
        exact: par_fp == seq_fp,
        fingerprint: par_fp,
        oracle_fingerprint: Some(seq_fp),
    })
}

/// The pre-spawn decomposability check (DESIGN.md §18) on the golden
/// invocation's footprint `p`: refuses a loop whose payload allocates or
/// whose iterations conflict on a heap cell outside the histogram
/// arrays `hists`. `master` stands at the loop entry.
fn precheck(
    p: &LoopProfile,
    master: &Machine<'_>,
    hists: &[(ObjId, ReductionOp, Option<BinOp>)],
    obs: &Obs,
) -> Result<(), ExecError> {
    // Structural refusals take precedence over the dependence verdict: a
    // *payload* access to an object beyond the loop-entry snapshot means
    // the payload allocates, which the merge cannot support no matter how
    // the iterations overlap. Report it with the same message the post-run
    // worker check uses, so the refusal reason is stable whether or not
    // the pre-check is armed. Iterator-slice allocations (a worklist's
    // pushed links) are fine — the pre-pass replays them identically in
    // every worker. (A truncated profile can miss accesses; the worker
    // check stays behind this as the backstop.)
    let base_heap = master.heap_len() as u32;
    if p.iters().any(|it| {
        it.reads.iter().any(|&(obj, _)| obj >= base_heap)
            || it.writes.iter().any(|w| w.obj >= base_heap)
    }) {
        return Err(ExecError::Unsupported(ALLOCATES.into()));
    }
    let excluded: BTreeSet<u32> = hists.iter().map(|&(o, ..)| o.0).collect();
    match check_decomposable(p, &excluded) {
        DepVerdict::Decomposable | DepVerdict::Unknown => {}
        DepVerdict::Conflicting(report) => {
            obs.count("deps.conflicts", report.conflicting_cells);
            obs.count("deps.prespawn_refusals", 1);
            return Err(ExecError::NotDecomposable {
                witness: report.first,
                conflicting_cells: report.conflicting_cells,
            });
        }
    }
    Ok(())
}

/// Merges the workers' harvests onto `master`, which stands at the loop
/// entry, and closes the loop with the recorded iterator exit values;
/// returns the combine steps taken.
fn merge(
    master: &mut Machine<'_>,
    harvests: &[Harvest],
    reds: &[ScalarMerge],
    hists: &[(ObjId, ReductionOp, Option<BinOp>)],
    golden: &GoldenRecord,
) -> Result<u64, ExecError> {
    let hist_map: BTreeMap<u32, (ReductionOp, Option<BinOp>)> =
        hists.iter().map(|&(o, op, bop)| (o.0, (op, bop))).collect();
    let mut combine_steps: u64 = 0;

    // Heap write-sets, in worker order. Histogram cells combine (worker
    // partials start from the identity we poked, which is a true
    // identity of the combine operator, so untouched-looking values are
    // safe to fold); everything else — the iterator pre-pass effects,
    // identical in every worker, and doall payload stores, disjoint
    // across workers — overwrites. Cells a worker never wrote are not in
    // its journal and leave the master untouched.
    for h in harvests {
        for &(addr, post) in &h.cells {
            if let Some(&(op, bop)) = hist_map.get(&addr.obj.0) {
                let merged = combine_value(op, bop, master.read_cell(addr), post)?;
                master.poke_cell(addr, merged);
                combine_steps += 1;
            } else {
                master.poke_cell(addr, post);
            }
        }
    }

    // Scalar reduction partials, combined in chunk order with a pairwise
    // tree, then folded onto the pre-loop accumulator value. Only chunks
    // that ran at least one iteration are flushed as partials, and the
    // seeds are true identities of the combine operators (see
    // [`identity_for`]), so every harvested partial participates — no
    // bit-pattern filtering, which could not tell an untouched chunk
    // from one whose values legitimately combined to the identity (a
    // zero-sum chunk, an all-`+inf` minimum).
    let mut partials: Vec<&(usize, Vec<Value>)> =
        harvests.iter().flat_map(|h| &h.partials).collect();
    partials.sort_by_key(|(chunk, _)| *chunk);
    for (j, r) in reds.iter().enumerate() {
        let mut vals: Vec<Value> = partials.iter().map(|(_, vs)| vs[j]).collect();
        while vals.len() > 1 {
            let mut next_round = Vec::with_capacity(vals.len().div_ceil(2));
            for pair in vals.chunks(2) {
                if let [a, b] = pair {
                    next_round.push(combine_value(r.op, r.bop, *a, *b)?);
                    combine_steps += 1;
                } else {
                    next_round.push(pair[0]);
                }
            }
            vals = next_round;
        }
        if let Some(&p) = vals.first() {
            let s0 = master.read_var(r.var);
            master.write_var(r.var, combine_value(r.op, r.bop, s0, p)?);
            combine_steps += 1;
        }
    }

    // Iterator exit state: the recorded values close the loop exactly as
    // the replay controller's exit phase does.
    for &v in &golden.rec_vars {
        master.write_var(v, golden.exit.vars[v.index()]);
    }
    Ok(combine_steps)
}

/// How one scalar reduction merges.
struct ScalarMerge {
    var: VarId,
    op: ReductionOp,
    bop: Option<BinOp>,
    identity: Value,
}

/// Everything a worker borrows, shared across the pool.
struct WorkerCtx<'a> {
    facts: &'a LoopFacts<'a>,
    golden: &'a GoldenRecord,
    /// `(accumulator, identity)` seeds for recognized scalar reductions.
    red: &'a [(VarId, Value)],
    /// Histogram base objects with their combine operators.
    hists: &'a [(ObjId, ReductionOp, Option<BinOp>)],
    max_steps: u64,
}

/// What one worker brings home.
struct Harvest {
    /// `(chunk index, accumulator values)` — one entry per chunk the
    /// worker executed, values parallel to [`WorkerCtx::red`].
    partials: Vec<(usize, Vec<Value>)>,
    /// Post-execution values of every heap cell the worker overwrote,
    /// deduplicated, in address order.
    cells: Vec<(Addr, Value)>,
    iters: u64,
    /// Successful dynamic chunk grabs (0 under static scheduling).
    grabs: u64,
}

/// Worker `worker`'s iteration source: its contiguous block under the
/// static schedule (`chunk` is `None`), else chunk self-scheduling over
/// the shared counter `next`. A lone worker takes the whole range as one
/// share under every schedule.
fn make_source(
    chunk: Option<usize>,
    worker: usize,
    threads: usize,
    n: usize,
    next: &AtomicUsize,
) -> IterSource<'_> {
    match chunk.filter(|_| threads > 1) {
        None => IterSource::Static {
            range: worker * n / threads..(worker + 1) * n / threads,
            chunk: worker,
        },
        Some(chunk_size) => IterSource::Dynamic {
            next,
            total: n,
            chunk_size,
            cur: 0..0,
            grabs: 0,
        },
    }
}

/// Where a worker's iterations come from. Yields `(iteration, chunk)`
/// pairs; the chunk index keys the per-chunk reduction partials so the
/// merge can combine them in a schedule-independent deterministic order
/// (dynamic chunk indices are `start / chunk_size`, a pure function of
/// the iteration space, not of which worker grabbed the chunk).
enum IterSource<'a> {
    Static {
        range: Range<usize>,
        chunk: usize,
    },
    Dynamic {
        next: &'a AtomicUsize,
        total: usize,
        chunk_size: usize,
        cur: Range<usize>,
        grabs: u64,
    },
}

impl IterSource<'_> {
    fn next(&mut self) -> Option<(usize, usize)> {
        match self {
            IterSource::Static { range, chunk } => range.next().map(|i| (i, *chunk)),
            IterSource::Dynamic {
                next,
                total,
                chunk_size,
                cur,
                grabs,
            } => {
                if let Some(i) = cur.next() {
                    return Some((i, i / *chunk_size));
                }
                let start = next.fetch_add(*chunk_size, Ordering::Relaxed);
                if start >= *total {
                    return None;
                }
                *grabs += 1;
                *cur = start..start.saturating_add(*chunk_size).min(*total);
                cur.next().map(|i| (i, i / *chunk_size))
            }
        }
    }

    fn grabs(&self) -> u64 {
        match self {
            IterSource::Static { .. } => 0,
            IterSource::Dynamic { grabs, .. } => *grabs,
        }
    }
}

/// One worker's share of the iteration space as a replay order (see
/// [`IterOrder`]): draws iterations from an [`IterSource`] and harvests
/// the scalar reduction accumulators as one partial per chunk.
struct WorkerShare<'a> {
    source: IterSource<'a>,
    /// `(accumulator, identity)` seeds for recognized scalar reductions.
    red: &'a [(VarId, Value)],
    /// `(chunk index, accumulator values)` — one entry per chunk run.
    partials: Vec<(usize, Vec<Value>)>,
    cur_chunk: Option<usize>,
    iters: u64,
}

impl WorkerShare<'_> {
    /// Harvests the current chunk's accumulator values as a partial.
    fn flush_chunk(&mut self, vars: &[Value]) {
        if let Some(chunk) = self.cur_chunk.take() {
            let vals = self.red.iter().map(|&(v, _)| vars[v.index()]).collect();
            self.partials.push((chunk, vals));
        }
    }
}

impl IterOrder for WorkerShare<'_> {
    /// At chunk boundaries the previous partial is flushed and the
    /// accumulators reset to the identity; when the share runs out the
    /// last partial is flushed.
    fn next_iter(&mut self, vars: &mut [Value]) -> Option<usize> {
        let Some((iter, chunk)) = self.source.next() else {
            self.flush_chunk(vars);
            return None;
        };
        if self.cur_chunk != Some(chunk) {
            self.flush_chunk(vars);
            self.cur_chunk = Some(chunk);
            for &(v, identity) in self.red {
                vars[v.index()] = identity;
            }
        }
        self.iters += 1;
        Some(iter)
    }
}

fn run_worker(ctx: &WorkerCtx<'_>, source: IterSource<'_>) -> Result<Harvest, ExecError> {
    let f = ctx.facts;
    let mut machine = Machine::new(f.view.module);
    machine.restore(&ctx.golden.snapshot);
    let base_heap = machine.heap_len();
    let base_out = machine.output().len();

    // Seed histogram cells with the identity *before* arming the
    // journal, so the worker's write-set reports pure partials.
    for &(obj, op, bop) in ctx.hists {
        let cells = machine.obj_cells(obj).len();
        for cell in 0..cells {
            let addr = Addr {
                obj,
                cell: cell as u32,
            };
            let identity = identity_for(op, bop, machine.read_cell(addr))?;
            machine.poke_cell(addr, identity);
        }
    }
    machine.begin_journal();

    let share = WorkerShare {
        source,
        red: ctx.red,
        partials: Vec::new(),
        cur_chunk: None,
        iters: 0,
    };
    let mut ctl =
        ReplayController::with_order(f.lref.func, f.view.func, f.l(), &f.slice, ctx.golden, share);
    match run_replay(
        &mut machine,
        &mut ctl,
        true,
        ctx.max_steps,
        ReplayGovernor::default(),
    ) {
        ReplayEnd::LoopExited => {}
        ReplayEnd::Finished(_) => {
            return Err(ExecError::Unsupported(
                "program finished inside the parallel loop".into(),
            ))
        }
        ReplayEnd::Trapped(t) => return Err(ExecError::Trapped(t)),
        ReplayEnd::BudgetExhausted => return Err(ExecError::BudgetExhausted),
        end @ (ReplayEnd::DeadlineExpired | ReplayEnd::Cancelled) => {
            unreachable!("an inactive governor never ends a run: {end:?}")
        }
    }

    if machine.heap_len() > base_heap {
        return Err(ExecError::Unsupported(ALLOCATES.into()));
    }
    if machine.output().len() > base_out {
        return Err(ExecError::Unsupported(
            "loop writes program output; ordering cannot be merged".into(),
        ));
    }

    let mut touched: Vec<Addr> = machine.journal_writes().map(|(addr, _old)| addr).collect();
    touched.sort_unstable();
    touched.dedup();
    let cells = touched
        .into_iter()
        .map(|addr| (addr, machine.read_cell(addr)))
        .collect();

    let share = ctl.into_order();
    Ok(Harvest {
        partials: share.partials,
        cells,
        iters: share.iters,
        grabs: share.source.grabs(),
    })
}

/// The identity element for `op` at the type of `sample` (the pre-loop
/// accumulator or cell value).
///
/// The float identities are the *true* identities of the interpreter's
/// operators, chosen so that seeding a chunk accumulator is invisible
/// bit-for-bit and no merge-time special-casing is needed:
///
/// * Sum uses `-0.0`, not `0.0`: under round-to-nearest `-0.0 + x == x`
///   for every `x` including both signed zeros, whereas `0.0 + -0.0`
///   is `+0.0` and would flip the sign of an all-negative-zero chunk.
/// * Min/Max use `NaN`: the interpreter's `fmin`/`fmax` are Rust's
///   NaN-ignoring `f64::min`/`max`, under which NaN is a two-sided
///   identity. An infinity seed would be wrong twice over — it absorbs
///   a NaN accumulator (`min(NaN, +inf)` is `+inf`) and is
///   indistinguishable from a genuine infinite value in the data.
fn identity_for(op: ReductionOp, bop: Option<BinOp>, sample: Value) -> Result<Value, ExecError> {
    use ReductionOp as R;
    Ok(match (op, sample) {
        (R::Sum, Value::Int(_)) => Value::Int(0),
        (R::Sum, Value::Float(_)) => Value::Float(-0.0),
        (R::Product, Value::Int(_)) => Value::Int(1),
        (R::Product, Value::Float(_)) => Value::Float(1.0),
        (R::Min, Value::Int(_)) => Value::Int(i64::MAX),
        (R::Min, Value::Float(_)) => Value::Float(f64::NAN),
        (R::Max, Value::Int(_)) => Value::Int(i64::MIN),
        (R::Max, Value::Float(_)) => Value::Float(f64::NAN),
        (R::Bitwise, Value::Int(_)) => match bop {
            Some(BinOp::BitAnd) => Value::Int(-1),
            Some(BinOp::BitOr | BinOp::BitXor) => Value::Int(0),
            _ => {
                return Err(ExecError::Unsupported(
                    "ambiguous bitwise reduction operator".into(),
                ))
            }
        },
        _ => {
            return Err(ExecError::Unsupported(format!(
                "unsupported reduction operand type ({sample})"
            )))
        }
    })
}

/// Combines two partial values with the reduction operator, matching the
/// interpreter's evaluation semantics exactly (wrapping integer
/// arithmetic, IEEE floats, NaN-ignoring `fmin`/`fmax`).
fn combine_value(
    op: ReductionOp,
    bop: Option<BinOp>,
    a: Value,
    b: Value,
) -> Result<Value, ExecError> {
    use ReductionOp as R;
    Ok(match (op, a, b) {
        (R::Sum, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_add(y)),
        (R::Sum, Value::Float(x), Value::Float(y)) => Value::Float(x + y),
        (R::Product, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_mul(y)),
        (R::Product, Value::Float(x), Value::Float(y)) => Value::Float(x * y),
        (R::Min, Value::Int(x), Value::Int(y)) => Value::Int(x.min(y)),
        (R::Min, Value::Float(x), Value::Float(y)) => Value::Float(x.min(y)),
        (R::Max, Value::Int(x), Value::Int(y)) => Value::Int(x.max(y)),
        (R::Max, Value::Float(x), Value::Float(y)) => Value::Float(x.max(y)),
        (R::Bitwise, Value::Int(x), Value::Int(y)) => match bop {
            Some(BinOp::BitAnd) => Value::Int(x & y),
            Some(BinOp::BitOr) => Value::Int(x | y),
            Some(BinOp::BitXor) => Value::Int(x ^ y),
            _ => {
                return Err(ExecError::Unsupported(
                    "ambiguous bitwise reduction operator".into(),
                ))
            }
        },
        _ => {
            return Err(ExecError::Unsupported(format!(
                "mismatched reduction operand types ({a} vs {b})"
            )))
        }
    })
}

/// The single bitwise operator the loop body applies, when unambiguous:
/// to `var` (an instruction reading it) for a scalar reduction, anywhere
/// in the body for a histogram update (`None`).
/// [`ReductionOp::Bitwise`] conflates `&`/`|`/`^`; the identity and
/// combine differ, so the executor re-derives the operator from the
/// loop body.
fn bitwise_op(func_ir: &Function, blocks: &[BlockId], var: Option<VarId>) -> Option<BinOp> {
    let mut found: Option<BinOp> = None;
    for &b in blocks {
        for inst in &func_ir.block(b).insts {
            if let Inst::Bin { op, a, b: rhs, .. } = inst {
                let touches = var.is_none_or(|var| {
                    matches!(a, Operand::Var(v) if *v == var)
                        || matches!(rhs, Operand::Var(v) if *v == var)
                });
                if touches && matches!(op, BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor) {
                    match found {
                        None => found = Some(*op),
                        Some(prev) if prev == *op => {}
                        Some(_) => return None,
                    }
                }
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_DYNAMIC_CHUNK;

    fn exec_tagged(src: &str, tag: &str, cfg: &ExecConfig) -> Result<ExecOutcome, ExecError> {
        let m = dca_ir::compile(src).expect("compile");
        let lref = dca_ir::all_loops(&m)
            .into_iter()
            .find(|(_, t)| t.as_deref() == Some(tag))
            .expect("tagged loop")
            .0;
        execute_loop(&m, &[], lref, cfg, &Obs::disabled())
    }

    fn widths() -> [usize; 3] {
        [1, 2, 4]
    }

    #[test]
    fn doall_map_is_exact_at_every_width() {
        let src = "fn main() -> int { let a: [int; 64]; let s: int = 0; \
             @l: for (let i: int = 0; i < 64; i = i + 1) { a[i] = i * i % 97; } \
             for (let i: int = 0; i < 64; i = i + 1) { s = s + a[i]; } return s; }";
        let mut fps = Vec::new();
        for w in widths() {
            let cfg = ExecConfig {
                threads: w,
                ..ExecConfig::default()
            };
            let out = exec_tagged(src, "l", &cfg).expect("execute");
            assert!(out.validated && out.exact, "width {w}");
            assert_eq!(out.trips, 64);
            fps.push(out.fingerprint);
        }
        assert!(fps.windows(2).all(|p| p[0] == p[1]), "width-independent");
    }

    #[test]
    fn int_reduction_is_exact_and_counts_combines() {
        let src = "fn main() -> int { let s: int = 7; \
             @l: for (let i: int = 0; i < 100; i = i + 1) { s = s + i * i; } \
             return s; }";
        let cfg = ExecConfig {
            threads: 4,
            ..ExecConfig::default()
        };
        let out = exec_tagged(src, "l", &cfg).expect("execute");
        assert!(out.exact);
        assert!(out.combine_steps >= 4, "4 partials need >= 4 combines");
    }

    #[test]
    fn dynamic_zero_chunk_is_clamped_and_terminates() {
        let src = "fn main() -> int { let s: int = 0; \
             @l: for (let i: int = 0; i < 37; i = i + 1) { s = s + i; } return s; }";
        let cfg = ExecConfig {
            threads: 3,
            schedule: Schedule::Dynamic { chunk: 0 },
            ..ExecConfig::default()
        };
        let out = exec_tagged(src, "l", &cfg).expect("execute");
        assert!(out.exact);
        assert_eq!(out.trips, 37);
    }

    #[test]
    fn dynamic_schedule_reduction_is_deterministic_across_widths() {
        let src = "fn main() -> int { let s: int = 0; \
             @l: for (let i: int = 0; i < 100; i = i + 1) { s = s + i * 3; } \
             return s; }";
        let mut fps = Vec::new();
        for w in widths() {
            let cfg = ExecConfig {
                threads: w,
                schedule: Schedule::Dynamic { chunk: 8 },
                ..ExecConfig::default()
            };
            let out = exec_tagged(src, "l", &cfg).expect("execute");
            assert!(out.exact, "width {w}");
            fps.push(out.fingerprint);
        }
        assert!(fps.windows(2).all(|p| p[0] == p[1]));
    }

    #[test]
    fn regrouped_float_sum_validates_only_under_tolerance() {
        // Four workers regroup the sum, so the merged bits differ from the
        // sequential ones: the fingerprints mismatch and the check falls
        // through to the digests, the oracle's taken only then.
        let src = "fn main() -> float { let s: float = 0.0; \
             @l: for (let i: int = 0; i < 1000; i = i + 1) { s = s + 1.0 / (i as float + 1.0); } \
             return s; }";
        let cfg = ExecConfig {
            threads: 4,
            ..ExecConfig::default()
        };
        let out = exec_tagged(src, "l", &cfg).expect("within the default tolerance");
        assert!(out.validated && !out.exact, "{out:?}");
        assert_ne!(Some(out.fingerprint), out.oracle_fingerprint);
        let exact = ExecConfig {
            float_tolerance: 0.0,
            ..cfg
        };
        match exec_tagged(src, "l", &exact) {
            Err(ExecError::Diverged {
                expected,
                actual,
                detail,
            }) => {
                assert_eq!(Some(expected), out.oracle_fingerprint);
                assert_eq!(actual, out.fingerprint);
                assert!(
                    matches!(detail.as_deref(), Some(Divergence::Root { name, .. }) if name == "s"),
                    "{detail:?}"
                );
            }
            other => panic!("expected a divergence at tolerance 0, got {other:?}"),
        }
    }

    #[test]
    fn histogram_loop_merges_per_cell() {
        let src = "fn main() -> int { let hist: [int; 7]; \
             @l: for (let i: int = 0; i < 80; i = i + 1) { \
               let b: int = i * i % 7; hist[b] = hist[b] + 1; } \
             let s: int = 0; \
             for (let k: int = 0; k < 7; k = k + 1) { s = s * 100 + hist[k]; } \
             return s; }";
        let cfg = ExecConfig {
            threads: 4,
            ..ExecConfig::default()
        };
        let out = exec_tagged(src, "l", &cfg).expect("execute");
        assert!(out.exact);
        assert!(out.combine_steps > 0, "histogram cells combine");
    }

    #[test]
    fn float_min_with_nan_accumulator_is_exact() {
        // The accumulator enters the loop as NaN (0.0/0.0); `fmin` is
        // NaN-ignoring, so the sequential result is the plain minimum —
        // and an identity-seeded parallel merge must not let the
        // +inf identity absorb anything it shouldn't.
        let src = "fn main() -> float { let s: float = 0.0 / 0.0; \
             @l: for (let i: int = 0; i < 16; i = i + 1) { \
               s = fmin(s, (i as float - 8.0) * (i as float - 8.0) + 2.0); } \
             return s; }";
        for w in widths() {
            let cfg = ExecConfig {
                threads: w,
                float_tolerance: 0.0,
                ..ExecConfig::default()
            };
            let out = exec_tagged(src, "l", &cfg).expect("execute");
            assert!(out.exact, "width {w}");
        }
    }

    #[test]
    fn order_sensitive_live_out_is_refused() {
        // `first` is live out, defined in the loop, and not a reduction:
        // its final value depends on iteration order.
        let src = "fn main() -> int { let a: [int; 8]; let first: int = 0 - 1; \
             for (let i: int = 0; i < 8; i = i + 1) { a[i] = i * 13 % 8; } \
             @l: for (let i: int = 0; i < 8; i = i + 1) { \
               if (a[i] > 4 && first < 0) { first = i; } } \
             return first; }";
        let cfg = ExecConfig {
            threads: 2,
            ..ExecConfig::default()
        };
        match exec_tagged(src, "l", &cfg) {
            Err(ExecError::OrderSensitive(vars) | ExecError::Unresolved(vars)) => {
                assert!(vars.iter().any(|v| v == "first"), "vars: {vars:?}");
            }
            other => panic!("expected refusal, got {other:?}"),
        }
    }

    #[test]
    fn worklist_drain_executes_in_parallel() {
        // The destructive-iterator worklist sum (paper Fig. 2 style):
        // every worker applies the pops once in the pre-pass; payload
        // sums merge as a reduction.
        let src = "struct Cell { v: int, next: *Cell }\n\
             struct List { head: *Cell }\n\
             fn push(l: *List, v: int) { \
               let c: *Cell = new Cell; c.v = v; c.next = l.head; l.head = c; }\n\
             fn main() -> int {\n\
               let wl: *List = new List;\n\
               for (let i: int = 0; i < 12; i = i + 1) { push(wl, i * i); }\n\
               let sum: int = 0;\n\
               @drain: while (wl.head != null) {\n\
                 let c: *Cell = wl.head;\n\
                 wl.head = c.next;\n\
                 sum = sum + c.v;\n\
               }\n\
               return sum;\n\
             }";
        for w in widths() {
            let cfg = ExecConfig {
                threads: w,
                ..ExecConfig::default()
            };
            let out = exec_tagged(src, "drain", &cfg).expect("execute");
            assert!(out.validated && out.exact, "width {w}");
            assert_eq!(out.trips, 12);
        }
    }

    #[test]
    fn zero_trip_invocation_executes_cleanly() {
        let src = "fn main() -> int { let s: int = 5; let n: int = 0; \
             @l: for (let i: int = 0; i < n; i = i + 1) { s = s + i; } \
             return s; }";
        let cfg = ExecConfig {
            threads: 4,
            ..ExecConfig::default()
        };
        let out = exec_tagged(src, "l", &cfg).expect("execute");
        assert!(out.exact);
        assert_eq!(out.trips, 0);
    }

    #[test]
    fn exec_threads_resolves_env_and_explicit() {
        assert_eq!(exec_threads(3), 3);
        assert!(exec_threads(0) >= 1);
    }

    /// A loop with genuine cross-iteration heap flow: `a[i]` reads
    /// `a[i-1]`, which the previous iteration wrote.
    const FLOW_SRC: &str = "fn main() -> int { let a: [int; 16]; a[0] = 1; let s: int = 0; \
         @l: for (let i: int = 1; i < 16; i = i + 1) { a[i] = a[i - 1] + i; } \
         for (let i: int = 0; i < 16; i = i + 1) { s = s + a[i] * (i + 1); } \
         return s; }";

    #[test]
    fn flow_dependent_loop_is_refused_before_any_spawn() {
        // The footprint pre-check refuses at every width — including
        // width 1 — with the same concrete witness, and the obs counters
        // are bit-identical across widths (the verdict is a pure
        // function of the golden recording, not of the thread count).
        for w in widths() {
            let obs = Obs::enabled();
            let m = dca_ir::compile(FLOW_SRC).expect("compile");
            let lref = dca_ir::all_loops(&m)
                .into_iter()
                .find(|(_, t)| t.as_deref() == Some("l"))
                .expect("tagged loop")
                .0;
            let cfg = ExecConfig {
                threads: w,
                ..ExecConfig::default()
            };
            match execute_loop(&m, &[], lref, &cfg, &obs) {
                Err(ExecError::NotDecomposable {
                    witness,
                    conflicting_cells,
                }) => {
                    assert_eq!(witness.kind, crate::ConflictKind::Flow, "width {w}");
                    assert_eq!(
                        (witness.iter_a, witness.iter_b),
                        (0, 1),
                        "iteration 1 reads what iteration 0 wrote (width {w})"
                    );
                    assert!(conflicting_cells >= 1, "width {w}");
                }
                other => panic!("width {w}: expected pre-spawn refusal, got {other:?}"),
            }
            let counters = obs.rollup().expect("enabled obs").counters;
            assert_eq!(counters.get("deps.prespawn_refusals"), Some(&1));
            assert_eq!(counters.get("deps.loops_profiled"), Some(&1));
            assert_eq!(
                counters.get("exec.invocations"),
                None,
                "refusal happened before the executor counted an invocation"
            );
        }
    }

    #[test]
    fn validator_agrees_with_precheck_on_flow_loop() {
        // Defense-in-depth: with the pre-check disarmed, the same loop
        // reaches the workers and the differential validator rejects the
        // merged state instead — the two layers refuse the same loop.
        let cfg = ExecConfig {
            threads: 2,
            deps_precheck: false,
            ..ExecConfig::default()
        };
        match exec_tagged(FLOW_SRC, "l", &cfg) {
            Err(ExecError::Diverged { .. }) => {}
            other => panic!("expected validator divergence, got {other:?}"),
        }
    }

    #[test]
    fn auto_schedule_resolves_deterministic_chunk_and_validates() {
        let src = "fn main() -> int { let a: [int; 64]; let s: int = 0; \
             @l: for (let i: int = 0; i < 64; i = i + 1) { a[i] = i * 7 % 31; } \
             for (let i: int = 0; i < 64; i = i + 1) { s = s + a[i]; } return s; }";
        for w in widths() {
            let obs = Obs::enabled();
            let m = dca_ir::compile(src).expect("compile");
            let lref = dca_ir::all_loops(&m)
                .into_iter()
                .find(|(_, t)| t.as_deref() == Some("l"))
                .expect("tagged loop")
                .0;
            let cfg = ExecConfig {
                threads: w,
                schedule: Schedule::Auto,
                ..ExecConfig::default()
            };
            let a = execute_loop(&m, &[], lref, &cfg, &obs).expect("execute");
            let b = execute_loop(&m, &[], lref, &cfg, &Obs::disabled()).expect("re-execute");
            assert!(a.validated && a.exact, "width {w}");
            assert_eq!(a.chunk, b.chunk, "autotuned chunk is deterministic");
            let chunk = a.chunk.expect("auto resolves to a dynamic chunk");
            assert!(
                chunk >= 1 && chunk <= 64usize.div_ceil(w.max(1)),
                "width {w}: chunk {chunk} within the candidate ladder"
            );
            // Uniform iterations tune to one grab per worker — the
            // largest candidate.
            if w > 1 {
                assert_eq!(chunk, 64 / w, "width {w}");
            }
            let counters = obs.rollup().expect("enabled obs").counters;
            assert_eq!(
                counters.get("exec.autotuned_chunks"),
                Some(&1),
                "one tuning decision per invocation regardless of width"
            );
        }
    }

    #[test]
    fn fixed_schedules_report_their_chunk() {
        let src = "fn main() -> int { let s: int = 0; \
             @l: for (let i: int = 0; i < 40; i = i + 1) { s = s + i; } return s; }";
        let stat = exec_tagged(
            src,
            "l",
            &ExecConfig {
                threads: 2,
                ..ExecConfig::default()
            },
        )
        .expect("static");
        assert_eq!(stat.chunk, None, "static block has no chunk");
        let dyn_ = exec_tagged(
            src,
            "l",
            &ExecConfig {
                threads: 2,
                schedule: Schedule::Dynamic { chunk: 5 },
                ..ExecConfig::default()
            },
        )
        .expect("dynamic");
        assert_eq!(dyn_.chunk, Some(5));
    }

    #[test]
    fn default_dynamic_chunk_constant_agrees_across_crates() {
        // The one authoritative default lives in dca-deps; every alias
        // and call site must agree (hoisting regression guard).
        assert_eq!(DEFAULT_DYNAMIC_CHUNK, dca_deps::DEFAULT_DYNAMIC_CHUNK);
        assert_eq!(
            dca_core::DcaConfig::DEFAULT_DYNAMIC_CHUNK,
            dca_deps::DEFAULT_DYNAMIC_CHUNK
        );
        match Schedule::default_dynamic() {
            Schedule::Dynamic { chunk } => assert_eq!(chunk, dca_deps::DEFAULT_DYNAMIC_CHUNK),
            other => panic!("default_dynamic is not Dynamic: {other:?}"),
        }
    }

    #[test]
    fn prepass_cap_loop_keeps_its_verdict_and_execution_results() {
        // The exit condition reads `c.n`, the payload writes the same cell
        // through the alias `d`. Iterator recognition keys memory by root
        // variable, so the decrement is payload: the pre-pass never sees
        // `c.n` fall and leaves the loop only when the header-arrival cap
        // fires. Every value below is pinned from before executor workers
        // shared the replay controller.
        let src = "struct C { n: int }\n\
                   fn main() -> int { let c: *C = new C; c.n = 6; let d: *C = c; \
                     @l: while (c.n > 0) { d.n = d.n - 1; } \
                     return c.n; }";
        let m = dca_ir::compile(src).expect("compile");
        let report = dca_core::Dca::new(DcaConfig::default())
            .analyze_module(&m)
            .expect("analyze");
        let r = report.by_tag("l").expect("loop @l");
        assert_eq!(r.verdict, dca_core::LoopVerdict::Commutative);
        assert_eq!((r.permutations_tested, r.replay_steps), (4, 1336));
        let run = |threads, deps_precheck| {
            let cfg = ExecConfig {
                threads,
                deps_precheck,
                ..ExecConfig::default()
            };
            exec_tagged(src, "l", &cfg)
        };
        for w in [1, 2] {
            assert_eq!(
                run(w, true).expect_err("refused").to_string(),
                "not decomposable: flow dependence on obj0[0] between iterations 0 and 0 \
                 (1 conflicting cell)",
                "width {w}"
            );
        }
        let oracle = 0x7815_8dbf_9644_65bf_8414_382e_288d_609a;
        let out = run(1, false).expect("width 1 is sequential");
        assert!(out.validated && out.exact);
        assert_eq!(out.trips, 6);
        assert_eq!(
            (out.fingerprint, out.oracle_fingerprint),
            (oracle, Some(oracle))
        );
        assert_eq!(
            run(2, false).expect_err("diverges").to_string(),
            "parallel execution diverged from the sequential oracle \
             (expected 78158dbf964465bf8414382e288d609a, got a760273b22b671b717f3d7f4009be195): \
             object #0 cell 0: golden 0, permuted 3"
        );
    }

    /// Iteration 0's payload stores to an array it just allocated; with
    /// `trap`, iteration 20 then stores out of bounds.
    fn fresh_src(trap: bool) -> String {
        let fault = if trap {
            "if (i == 20) { g[i] = 1; }"
        } else {
            ""
        };
        format!(
            "let g: [int; 4];\n\
             fn main() -> int {{ let s: int = 0; \
             @l: for (let i: int = 0; i < 40; i = i + 1) {{ \
               let p: *int = new [int; 2]; p[0] = i; s = s + p[0]; {fault} }} \
             return s; }}"
        )
    }

    /// Executes loop `l` of `src`; the result and the tracked steps its
    /// recording took.
    fn exec_counting(src: &str, cfg: &ExecConfig) -> (Result<ExecOutcome, ExecError>, u64, u64) {
        let m = dca_ir::compile(src).expect("compile");
        let lref = dca_ir::all_loops(&m)[0].0;
        let obs = Obs::enabled();
        let res = execute_loop(&m, &[], lref, cfg, &obs);
        let rollup = obs.rollup().expect("enabled");
        (
            res,
            rollup.counter("exec.record_tracked_steps"),
            rollup.counter("exec.refused_in_record"),
        )
    }

    #[test]
    fn allocating_loop_is_refused_at_its_deciding_access() {
        let cfg = |precheck: bool, max_trip: usize| ExecConfig {
            threads: 2,
            deps_precheck: precheck,
            max_trip,
            ..ExecConfig::default()
        };
        // A whole recording, for the steps one iteration takes.
        let (whole, whole_steps, _) = exec_counting(&fresh_src(false), &cfg(false, 1000));
        assert_eq!(
            whole.err().map(|e| e.to_string()),
            Some(format!("unsupported: {ALLOCATES}")),
            "the workers refuse the loop after running it"
        );
        for (trap, max_trip) in [(false, 10), (true, 1000)] {
            let src = fresh_src(trap);
            let (on, steps, refused) = exec_counting(&src, &cfg(true, max_trip));
            assert_eq!(
                on.err().map(|e| e.to_string()),
                Some(format!("unsupported: {ALLOCATES}")),
                "trap {trap}"
            );
            assert_eq!(refused, 1, "trap {trap}");
            // The recording ended inside iteration 0.
            assert!(
                steps > 0 && steps * 40 < whole_steps,
                "trap {trap}: {steps} of {whole_steps} tracked steps"
            );
            // Without the pre-check the recording's own failure stands.
            let (off, _, refused) = exec_counting(&src, &cfg(false, max_trip));
            assert_eq!(refused, 0);
            match off {
                Err(ExecError::Record(RecordError::TripLimit)) if !trap => {}
                Err(ExecError::Record(RecordError::Trapped(Trap::OutOfBounds { .. }))) if trap => {}
                other => panic!("trap {trap}: expected the recording error, got {other:?}"),
            }
        }
    }

    #[test]
    fn execute_commutative_runs_proven_loops() {
        let src = "fn main() -> int { let a: [int; 32]; let s: int = 0; \
             @w: for (let i: int = 0; i < 32; i = i + 1) { a[i] = i * 2; } \
             @r: for (let i: int = 0; i < 32; i = i + 1) { s = s + a[i]; } \
             return s; }";
        let m = dca_ir::compile(src).expect("compile");
        let report = dca_core::Dca::new(DcaConfig::fast())
            .analyze_module(&m)
            .expect("analyze");
        let cfg = ExecConfig {
            threads: 2,
            ..ExecConfig::default()
        };
        let runs = execute_commutative(&m, &[], &report, &cfg, &Obs::disabled());
        assert!(!runs.is_empty(), "commutative loops found");
        for (lref, tag, res) in &runs {
            let out = res
                .as_ref()
                .unwrap_or_else(|e| panic!("loop {lref} ({tag:?}): {e}"));
            assert!(out.validated, "loop {lref} validated");
        }
    }

    #[test]
    fn phase_spans_are_recorded_once_within_the_call() {
        // The module-doc fixture, with the pre-check armed by default.
        let m = dca_ir::compile(
            "fn main() -> int { let s: int = 0; \
             @l: for (let i: int = 0; i < 64; i = i + 1) { s = s + i * i; } \
             return s; }",
        )
        .expect("compile");
        let lref = dca_ir::all_loops(&m)[0].0;
        let cfg = ExecConfig {
            threads: 2,
            ..ExecConfig::default()
        };
        let obs = Obs::enabled();
        let t = std::time::Instant::now();
        let out = execute_loop(&m, &[], lref, &cfg, &obs).expect("execute");
        let wall = t.elapsed();
        assert!(out.validated);
        let rollup = obs.rollup().expect("enabled");
        let mut total = std::time::Duration::ZERO;
        for name in [
            "exec.record",
            "exec.precheck",
            "exec.run",
            "exec.merge",
            "exec.validate",
        ] {
            let span = rollup
                .spans
                .get(name)
                .unwrap_or_else(|| panic!("no {name} span"));
            assert_eq!(span.count, 1, "{name}");
            total += span.total;
        }
        assert!(total <= wall, "phases {total:?} within the call's {wall:?}");
    }
}
