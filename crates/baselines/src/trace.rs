//! Dynamic memory-dependence profiling.
//!
//! The dynamic baselines (Dependence Profiling [Tournavitis et al.] and
//! DiscoPoP [Li et al.]) decide parallelizability from observed memory
//! dependences. This module runs the program once under instrumentation and
//! produces, for every loop, the cross-iteration dependences it exhibited
//! and whether each conflicting location is privatizable (written before
//! read in every iteration that touches it).
//!
//! Scalars held in registers are not memory here — like the real tools,
//! the baselines combine this trace with *static* classification of
//! loop-carried scalars (induction variables, reductions).

use dca_analysis::ArrayKey;
use dca_core::{cell_key, CellHasher};
use dca_interp::{Addr, LoopSink, LoopTracker, Machine, ObjId, Outcome, Trap, Value};
use dca_ir::{FuncView, LoopRef, Module};
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::num::NonZeroU64;

/// Per-location access state within one active loop invocation.
#[derive(Debug, Clone, Copy, Default)]
struct AddrState {
    /// The iterations of the last write and the last read, as
    /// [`Activation::stamp`]s. Iterations only advance, so the cell was
    /// written in the current iteration iff its last write is the current
    /// stamp.
    last_write_iter: Option<NonZeroU64>,
    last_read_iter: Option<NonZeroU64>,
    /// Read before any write within some iteration (defeats privatization).
    upward_read: bool,
    raw: bool,
    waw: bool,
    war: bool,
}

/// Aggregated dependence facts for one loop (over all invocations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopDeps {
    /// Some location was read in a later iteration than it was written.
    pub cross_raw: bool,
    /// Some location was written in two different iterations.
    pub cross_waw: bool,
    /// Some location was written after being read in an earlier iteration.
    pub cross_war: bool,
    /// A cross-iteration RAW hit a location *not* registered as a
    /// reduction target.
    pub raw_outside_reductions: bool,
    /// A WAR/WAW conflict hit a non-reduction location with an
    /// upward-exposed read, so privatization cannot remove it.
    pub unprivatizable: bool,
    /// The loop executed at least one iteration.
    pub observed: bool,
}

/// Result of one profiling run.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    deps: HashMap<LoopRef, LoopDeps>,
    /// The profiling run did not finish, so no loop has facts.
    unfinished: bool,
}

impl TraceReport {
    /// The report of a profiling run that did not finish: it holds no
    /// dependence facts.
    pub fn unfinished() -> Self {
        TraceReport {
            unfinished: true,
            ..TraceReport::default()
        }
    }

    /// Whether the profiling run finished (see [`TraceReport::unfinished`]).
    pub fn is_complete(&self) -> bool {
        !self.unfinished
    }

    /// The dependence facts for `l` (all-false if never observed).
    pub fn deps(&self, l: LoopRef) -> LoopDeps {
        self.deps.get(&l).copied().unwrap_or_default()
    }
}

/// Why a profiling run produced no report.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The program trapped.
    Trap(Trap),
    /// The program had not finished when the step budget ran out.
    OutOfSteps(u64),
}

impl From<Trap> for TraceError {
    fn from(t: Trap) -> Self {
        TraceError::Trap(t)
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Trap(t) => write!(f, "profiling run trapped: {t}"),
            TraceError::OutOfSteps(n) => {
                write!(f, "profiling run did not finish within {n} steps")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// One live loop activation's dependence state.
#[derive(Debug)]
pub struct Activation {
    /// Iterations started after the first.
    iter: u64,
    /// Heap objects registered as reduction (histogram) targets for this
    /// activation.
    reduction_objs: Vec<ObjId>,
    /// Per-cell state, keyed by [`cell_key`].
    state: HashMap<u64, AddrState, BuildHasherDefault<CellHasher>>,
}

impl Activation {
    /// The current iteration as a non-zero stamp (the iteration plus
    /// one), so an optional stamp takes no more room than the stamp.
    fn stamp(&self) -> NonZeroU64 {
        NonZeroU64::MIN.saturating_add(self.iter)
    }
}

/// The dependence-profiling [`LoopSink`]; run it under a [`LoopTracker`]
/// that tracks every loop (as [`trace_dependences`] does).
pub struct DepTracer {
    effects: dca_analysis::EffectMap,
    /// Per function, per loop: the statically recognized histogram
    /// (array reduction) targets, resolved to objects at loop entry.
    histograms: Vec<Vec<Vec<ArrayKey>>>,
    report: TraceReport,
}

impl DepTracer {
    /// A tracer for `module`; the tracker's [`LoopSink::prepare`] calls
    /// fill in each function's histogram targets, so RAWs on recognized
    /// array reductions can be classified.
    pub fn new(module: &Module) -> Self {
        DepTracer {
            effects: dca_analysis::EffectMap::new(module),
            histograms: vec![Vec::new(); module.funcs.len()],
            report: TraceReport::default(),
        }
    }

    /// Consumes the tracer, producing the report.
    pub fn into_report(self) -> TraceReport {
        self.report
    }
}

impl LoopSink for DepTracer {
    type Act = Activation;

    fn prepare(&mut self, view: &FuncView<'_>) {
        let live = dca_analysis::Liveness::new(view);
        self.histograms[view.id.index()] = view
            .loops
            .iter()
            .map(|l| {
                let slice = dca_analysis::IteratorSlice::compute_with(view, l, &self.effects);
                let red = dca_analysis::ReductionInfo::compute(view, &live, l, &slice.slice_vars);
                red.histograms.iter().map(|h| h.array).collect()
            })
            .collect();
    }

    fn enter(&mut self, lref: LoopRef, _: u64, _: bool, vars: &[Value]) -> Activation {
        let targets = &self.histograms[lref.func.index()][lref.loop_id.index()];
        let reduction_objs = targets
            .iter()
            .filter_map(|&key| match key {
                ArrayKey::Global(g) => Some(ObjId(g.0)),
                ArrayKey::Var(v) => match vars.get(v.index()) {
                    Some(&Value::Ptr(o)) => Some(o),
                    _ => None,
                },
            })
            .collect();
        Activation {
            iter: 0,
            reduction_objs,
            state: HashMap::default(),
        }
    }

    fn iterate(&mut self, act: &mut Activation, _: u64, _: &[Value]) {
        act.iter += 1;
    }

    fn exit(&mut self, lref: LoopRef, a: Activation, _: Option<u64>) {
        let e = self.report.deps.entry(lref).or_default();
        for (&key, st) in &a.state {
            let reduction = a.reduction_objs.contains(&ObjId((key >> 32) as u32));
            if st.raw {
                e.cross_raw = true;
                if !reduction {
                    e.raw_outside_reductions = true;
                }
            }
            if st.waw {
                e.cross_waw = true;
            }
            if st.war {
                e.cross_war = true;
            }
            if (st.waw || st.war) && st.upward_read && !reduction {
                e.unprivatizable = true;
            }
        }
        // "Observed" means the loop actually iterated (or at least touched
        // memory); a header evaluation that immediately exits is not an
        // exercised loop.
        e.observed |= a.iter > 0 || !a.state.is_empty();
    }

    fn access(&mut self, live: &mut [Activation], addr: Addr, store: Option<(Value, Value)>) {
        for a in live {
            let stamp = a.stamp();
            let st = a.state.entry(cell_key(addr.obj.0, addr.cell)).or_default();
            let written_now = st.last_write_iter == Some(stamp);
            let written_earlier = st.last_write_iter.is_some() && !written_now;
            if store.is_some() {
                st.waw |= written_earlier;
                st.war |= st.last_read_iter.is_some_and(|r| r != stamp);
                st.last_write_iter = Some(stamp);
            } else {
                st.raw |= written_earlier;
                st.upward_read |= !written_now;
                st.last_read_iter = Some(stamp);
            }
        }
    }
}

/// Runs `main(args)` under the dependence tracer and returns the report.
///
/// # Errors
///
/// [`TraceError::Trap`] when the program traps, and
/// [`TraceError::OutOfSteps`] when it has not finished after `max_steps`:
/// facts from part of a run are not a profile.
///
/// # Panics
///
/// Panics if the module has no `main`.
pub fn trace_dependences(
    module: &Module,
    args: &[Value],
    max_steps: u64,
) -> Result<TraceReport, TraceError> {
    let mut machine = Machine::new(module);
    machine.push_call(module.main().expect("module has `main`"), args)?;
    let mut tracker = LoopTracker::new(module, DepTracer::new(module));
    match tracker.run(&mut machine, max_steps)? {
        Outcome::Finished(_) => Ok(tracker.finish().into_report()),
        Outcome::Paused => Err(TraceError::OutOfSteps(max_steps)),
        Outcome::Stopped => unreachable!("the dependence tracer never stops a run"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deps_of(src: &str, tag: &str) -> LoopDeps {
        let m = dca_ir::compile(src).expect("compile");
        let report = trace_dependences(&m, &[], 50_000_000).expect("trace");
        for (lref, t) in dca_ir::all_loops(&m) {
            if t.as_deref() == Some(tag) {
                return report.deps(lref);
            }
        }
        panic!("no loop tagged @{tag}");
    }

    #[test]
    fn independent_writes_have_no_cross_deps() {
        let d = deps_of(
            "fn main() { let a: [int; 16]; \
             @l: for (let i: int = 0; i < 16; i = i + 1) { a[i] = i; } }",
            "l",
        );
        assert!(d.observed);
        assert!(!d.cross_raw && !d.cross_waw && !d.cross_war);
    }

    #[test]
    fn recurrence_shows_cross_raw() {
        let d = deps_of(
            "fn main() { let a: [int; 16]; a[0] = 1; \
             @l: for (let i: int = 1; i < 16; i = i + 1) { a[i] = a[i - 1] + 1; } }",
            "l",
        );
        assert!(d.cross_raw);
        assert!(d.raw_outside_reductions);
    }

    #[test]
    fn pointer_chase_iterator_has_no_memory_raw() {
        // The `p = p.next` dependence lives in a register, not memory; the
        // node updates touch disjoint cells. (This is why pure trace-based
        // tools still reject it — the *scalar* p is loop-carried, which the
        // static side flags.)
        let d = deps_of(
            "struct N { v: int, next: *N }\n\
             fn main() { let head: *N = null; \
             for (let i: int = 0; i < 8; i = i + 1) { \
               let n: *N = new N; n.v = i; n.next = head; head = n; } \
             let p: *N = head; \
             @walk: while (p != null) { p.v = p.v + 1; p = p.next; } }",
            "walk",
        );
        assert!(d.observed);
        assert!(!d.cross_raw);
    }

    #[test]
    fn histogram_raw_classified_as_reduction() {
        let d = deps_of(
            "fn main() { let h: [int; 5]; \
             @l: for (let i: int = 0; i < 32; i = i + 1) { \
               h[i % 5] = h[i % 5] + 1; } }",
            "l",
        );
        assert!(d.cross_raw, "histogram cells collide across iterations");
        assert!(
            !d.raw_outside_reductions,
            "but the collisions are on the recognized histogram array"
        );
    }

    #[test]
    fn shared_scalar_cell_shows_waw_and_raw() {
        let d = deps_of(
            "let g: int;\n\
             fn main() { \
             @l: for (let i: int = 0; i < 8; i = i + 1) { g = i; } }",
            "l",
        );
        assert!(d.cross_waw);
    }

    #[test]
    fn privatizable_temp_array_write_first() {
        // tmp[] is fully written before being read in every iteration: WAW
        // across iterations but privatizable (no upward-exposed reads).
        let d = deps_of(
            "fn main() { let tmp: [int; 4]; let a: [int; 16]; \
             @l: for (let i: int = 0; i < 16; i = i + 1) { \
               for (let k: int = 0; k < 4; k = k + 1) { tmp[k] = i + k; } \
               let s: int = 0; \
               for (let k: int = 0; k < 4; k = k + 1) { s = s + tmp[k]; } \
               a[i] = s; } }",
            "l",
        );
        assert!(d.cross_waw, "tmp rewritten each iteration");
        assert!(!d.cross_raw);
        assert!(!d.unprivatizable, "tmp written before read each time");
    }

    #[test]
    fn upward_exposed_read_flagged() {
        let d = deps_of(
            "let g: [int; 4];\n\
             fn main() { let a: [int; 8]; \
             @l: for (let i: int = 0; i < 8; i = i + 1) { a[i] = g[i % 4]; } }",
            "l",
        );
        // g is only read — reads of pre-loop values create no conflicts,
        // so nothing is flagged.
        assert!(!d.unprivatizable);
        assert!(!d.cross_raw && !d.cross_waw && !d.cross_war);
    }

    #[test]
    fn out_of_steps_is_an_error_not_a_report() {
        let m = dca_ir::compile(
            "fn main() { let a: [int; 64]; \
             @l: for (let i: int = 0; i < 64; i = i + 1) { a[i] = i; } }",
        )
        .expect("compile");
        let err = trace_dependences(&m, &[], 10).expect_err("10 steps cannot finish");
        assert_eq!(
            err.to_string(),
            "profiling run did not finish within 10 steps"
        );
        assert!(trace_dependences(&m, &[], 100_000).is_ok());
    }

    #[test]
    fn recursive_loop_deps_per_activation() {
        // `@r` is live at depths 1, 2 and 3 at once. Within one activation
        // each `g[i]` is touched once; the depth-1 and depth-2 activations
        // also see their callees' updates of `g` across their own
        // iterations, all on the recognized histogram `g`.
        let src = "let g: [int; 4];\n\
             fn rec(n: int) -> int { let s: int = 0; \
               @r: for (let i: int = 0; i < 2; i = i + 1) { \
                 if (n > 0) { s = s + rec(n - 1); } \
                 g[i] = g[i] + n; s = s + 1; } \
               return s; }\n\
             fn main() { let t: int = rec(2); \
               @tail: for (let k: int = 0; k < 3; k = k + 1) { t = t + k; } }";
        assert_eq!(
            deps_of(src, "r"),
            LoopDeps {
                cross_raw: true,
                cross_waw: true,
                cross_war: false,
                raw_outside_reductions: false,
                unprivatizable: false,
                observed: true,
            }
        );
        assert_eq!(
            deps_of(src, "tail"),
            LoopDeps {
                observed: true,
                ..LoopDeps::default()
            }
        );
    }
}
