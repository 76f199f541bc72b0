//! The two dynamic baselines: Dependence Profiling and DiscoPoP-style
//! detection (paper §V-A).
//!
//! Both run the program once under the memory-dependence tracer
//! ([`crate::trace`]) and combine the observed cross-iteration dependences
//! with a static classification of loop-carried scalars. They differ in
//! what they can explain away:
//!
//! * **Dependence Profiling** (Tournavitis et al.): privatization of
//!   write-first locations and reduction recognition including array
//!   histograms.
//! * **DiscoPoP-style** (Li et al.): optimistically ignores WAR/WAW
//!   entirely (assumes privatization), but recognizes only plain
//!   sum/product scalar reductions — no histograms, no min/max.
//!
//! Both inherit dependence analysis' fundamental blind spot (paper §I-A):
//! a pointer-chasing iterator is a loop-carried scalar that is neither an
//! induction variable nor a reduction, so PLDS loops are rejected even
//! when a perfect trace shows no memory conflicts.

use crate::detect::{DetectionReport, Detector, Technique};
use crate::trace::{trace_dependences, LoopDeps, TraceReport};
use dca_analysis::{EffectMap, IteratorSlice, Liveness, ReductionInfo, ReductionOp};
use dca_interp::Value;
use dca_ir::{FuncId, FuncView, Module, Ty};
use std::collections::HashSet;

/// Static per-loop facts shared by the two dynamic tools.
struct ScalarFacts {
    /// Loop-carried scalars not explained by the iterator slice.
    unresolved: bool,
    /// Reduction ops used by carried scalars (empty when none).
    reduction_ops: Vec<ReductionOp>,
    /// The loop does I/O (directly or via calls).
    has_io: bool,
    /// The loop-carried iterator state includes a pointer (PLDS traversal:
    /// dependence-based tools cannot restructure it).
    pointer_carried_iterator: bool,
}

fn scalar_facts(module: &Module, per_loop: &mut dyn FnMut(dca_ir::LoopRef, ScalarFacts)) {
    let effects = EffectMap::new(module);
    let io_funcs = effects.io_funcs();
    for i in 0..module.funcs.len() {
        let view = FuncView::new(module, FuncId(i as u32));
        if view.loops.is_empty() {
            continue;
        }
        let live = Liveness::new(&view);
        for l in view.loops.iter() {
            let slice = IteratorSlice::compute_with(&view, l, &effects);
            let red = ReductionInfo::compute(&view, &live, l, &slice.slice_vars);
            let has_io = dca_analysis::exclusion(&view, l, &slice, &io_funcs)
                .map(|r| matches!(r, dca_analysis::ExclusionReason::PerformsIo))
                .unwrap_or(false);
            // A pointer-typed loop-carried iterator variable: the hallmark
            // of a PLDS traversal. Canonical counted loops carry only
            // integer induction variables.
            let pointer_carried_iterator = live
                .loop_carried(l)
                .iter()
                .any(|&v| matches!(view.func.var(v).ty, Ty::Ptr(_)));
            per_loop(
                dca_ir::LoopRef {
                    func: view.id,
                    loop_id: l.id,
                },
                ScalarFacts {
                    unresolved: !red.unresolved_carried.is_empty(),
                    reduction_ops: red.reductions.iter().map(|r| r.op).collect(),
                    has_io,
                    pointer_carried_iterator,
                },
            );
        }
    }
}

/// The profiling run; one that traps or runs out of steps yields an
/// [unfinished](TraceReport::unfinished) report, never partial facts.
fn run_trace(module: &Module, args: &[Value]) -> TraceReport {
    trace_dependences(module, args, 500_000_000).unwrap_or_else(|_| TraceReport::unfinished())
}

/// The reason every non-I/O loop gets when the profiling run trapped or
/// ran out of steps.
const UNFINISHED: &str = "profiling run did not finish";

/// Runs the shared profiling work (one traced execution) once, for use by
/// both dynamic detectors via [`DependenceProfiling::detect_with`] and
/// [`DiscoPopStyle::detect_with`] — the table binaries use this to avoid
/// executing the instrumented program twice.
pub fn shared_trace(module: &Module, args: &[Value]) -> TraceReport {
    run_trace(module, args)
}

/// Profile-driven dependence-based detection in the style of Tournavitis
/// et al. (paper baseline "Dependence Profiling").
#[derive(Debug, Clone, Copy, Default)]
pub struct DependenceProfiling;

impl DependenceProfiling {
    /// Detection from a precomputed trace (see [`shared_trace`]).
    pub fn detect_with(&self, module: &Module, trace: &TraceReport) -> DetectionReport {
        let mut report = DetectionReport::default();
        scalar_facts(module, &mut |lref, facts| {
            let d: LoopDeps = trace.deps(lref);
            let verdict = if facts.has_io {
                (false, "I/O in loop".to_owned())
            } else if !trace.is_complete() {
                (false, UNFINISHED.to_owned())
            } else if !d.observed {
                (false, "not exercised by the profiling workload".to_owned())
            } else if facts.pointer_carried_iterator {
                (
                    false,
                    "loop-carried pointer (PLDS traversal) defeats dependence analysis".to_owned(),
                )
            } else if facts.unresolved {
                (false, "unresolvable loop-carried scalar".to_owned())
            } else if d.raw_outside_reductions {
                (false, "cross-iteration RAW observed".to_owned())
            } else if d.unprivatizable {
                (false, "WAR/WAW on unprivatizable location".to_owned())
            } else {
                (true, "no fatal dependences in profile".to_owned())
            };
            report.set(lref, verdict.0, verdict.1);
        });
        report
    }
}

impl Detector for DependenceProfiling {
    fn technique(&self) -> Technique {
        Technique::DependenceProfiling
    }

    fn detect(&self, module: &Module, args: &[Value]) -> DetectionReport {
        self.detect_with(module, &run_trace(module, args))
    }
}

/// DiscoPoP-style profile-driven detection.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscoPopStyle;

impl DiscoPopStyle {
    /// Detection from a precomputed trace (see [`shared_trace`]).
    pub fn detect_with(&self, module: &Module, trace: &TraceReport) -> DetectionReport {
        let mut report = DetectionReport::default();
        scalar_facts(module, &mut |lref, facts| {
            let d: LoopDeps = trace.deps(lref);
            let simple_reductions_only = facts
                .reduction_ops
                .iter()
                .all(|op| matches!(op, ReductionOp::Sum | ReductionOp::Product));
            let verdict = if facts.has_io {
                (false, "I/O in loop".to_owned())
            } else if !trace.is_complete() {
                (false, UNFINISHED.to_owned())
            } else if !d.observed {
                (false, "not exercised by the profiling workload".to_owned())
            } else if facts.pointer_carried_iterator {
                (
                    false,
                    "loop-carried pointer (PLDS traversal) defeats dependence analysis".to_owned(),
                )
            } else if facts.unresolved {
                (false, "unresolvable loop-carried scalar".to_owned())
            } else if !simple_reductions_only {
                (false, "complex scalar reduction unsupported".to_owned())
            } else if d.cross_raw {
                // No histogram/array-reduction support: any memory RAW is
                // fatal, even on recognized reduction arrays.
                (false, "cross-iteration RAW observed".to_owned())
            } else {
                // WAR/WAW optimistically assumed privatizable.
                (true, "no cross-iteration RAW in profile".to_owned())
            };
            report.set(lref, verdict.0, verdict.1);
        });
        report
    }
}

impl Detector for DiscoPopStyle {
    fn technique(&self) -> Technique {
        Technique::DiscoPop
    }

    fn detect(&self, module: &Module, args: &[Value]) -> DetectionReport {
        self.detect_with(module, &run_trace(module, args))
    }
}

/// The set of loops two detection reports disagree on (useful in tests and
/// ablation benches).
pub fn disagreements(a: &DetectionReport, b: &DetectionReport) -> HashSet<dca_ir::LoopRef> {
    let mut out = HashSet::new();
    for (l, da) in a.iter() {
        if b.get(l)
            .map(|db| db.parallel != da.parallel)
            .unwrap_or(false)
        {
            out.insert(l);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detect_tag(det: &dyn Detector, src: &str, tag: &str) -> bool {
        let m = dca_ir::compile(src).expect("compile");
        let report = det.detect(&m, &[]);
        for (lref, t) in dca_ir::all_loops(&m) {
            if t.as_deref() == Some(tag) {
                return report.is_parallel(lref);
            }
        }
        panic!("no loop tagged @{tag}");
    }

    const MAP: &str = "fn main() { let a: [int; 16]; \
         @l: for (let i: int = 0; i < 16; i = i + 1) { a[i] = i * 2; } }";

    const INDIRECT_DISJOINT: &str = "fn main() { let a: [int; 16]; let idx: [int; 16]; \
         for (let k: int = 0; k < 16; k = k + 1) { idx[k] = (k * 5) % 16; } \
         @l: for (let i: int = 0; i < 16; i = i + 1) { a[idx[i]] = i; } }";

    const HISTOGRAM: &str = "fn main() { let h: [int; 8]; \
         @l: for (let i: int = 0; i < 32; i = i + 1) { \
           h[i * i % 8] = h[i * i % 8] + 1; } }";

    const RECURRENCE: &str = "fn main() { let a: [int; 16]; a[0] = 1; \
         @l: for (let i: int = 1; i < 16; i = i + 1) { a[i] = a[i - 1] + 1; } }";

    const PLDS: &str = "struct N { v: int, next: *N }\n\
         fn main() { let head: *N = null; \
         for (let i: int = 0; i < 8; i = i + 1) { \
           let n: *N = new N; n.v = i; n.next = head; head = n; } \
         let p: *N = head; \
         @l: while (p != null) { p.v = p.v + 1; p = p.next; } }";

    const MINMAX: &str = "fn main() -> int { let m: int = 0; \
         @l: for (let i: int = 0; i < 16; i = i + 1) { m = imax(m, i * 7 % 13); } \
         return m; }";

    #[test]
    fn both_accept_plain_maps_and_runtime_disjoint_indirection() {
        for det in [&DependenceProfiling as &dyn Detector, &DiscoPopStyle] {
            assert!(detect_tag(det, MAP, "l"), "{} on MAP", det.technique());
            assert!(
                detect_tag(det, INDIRECT_DISJOINT, "l"),
                "{} sees runtime-disjoint indirection",
                det.technique()
            );
        }
    }

    #[test]
    fn both_reject_recurrences_and_plds() {
        for det in [&DependenceProfiling as &dyn Detector, &DiscoPopStyle] {
            assert!(!detect_tag(det, RECURRENCE, "l"), "{}", det.technique());
            assert!(
                !detect_tag(det, PLDS, "l"),
                "{} must fail on pointer chasing (paper §I-A)",
                det.technique()
            );
        }
    }

    #[test]
    fn histogram_splits_the_two_tools() {
        assert!(
            detect_tag(&DependenceProfiling, HISTOGRAM, "l"),
            "DepProf recognizes array reductions"
        );
        assert!(
            !detect_tag(&DiscoPopStyle, HISTOGRAM, "l"),
            "DiscoPoP-style does not"
        );
    }

    #[test]
    fn minmax_reduction_splits_the_two_tools() {
        assert!(detect_tag(&DependenceProfiling, MINMAX, "l"));
        assert!(!detect_tag(&DiscoPopStyle, MINMAX, "l"));
    }

    #[test]
    fn unexercised_loops_not_reported() {
        let src = "fn main(n: int) { let a: [int; 8]; \
             @l: for (let i: int = 0; i < n; i = i + 1) { a[i] = i; } }";
        let m = dca_ir::compile(src).expect("compile");
        // Run with n = 0: the loop body never executes.
        let report = DependenceProfiling.detect(&m, &[Value::Int(0)]);
        let (lref, _) = dca_ir::all_loops(&m)[0];
        assert!(!report.is_parallel(lref));
        assert!(report
            .get(lref)
            .expect("analyzed")
            .reason
            .contains("not exercised"));
    }

    #[test]
    fn disagreement_helper() {
        let m = dca_ir::compile(HISTOGRAM).expect("compile");
        let a = DependenceProfiling.detect(&m, &[]);
        let b = DiscoPopStyle.detect(&m, &[]);
        assert_eq!(disagreements(&a, &b).len(), 1);
    }

    #[test]
    fn trapping_profile_run_is_not_an_unexercised_loop() {
        // The loop runs to completion, then the program traps: the trace
        // is incomplete, which is not the loop's fault.
        let src = "fn main() { let a: [int; 8]; \
             @l: for (let i: int = 0; i < 8; i = i + 1) { a[i] = i; } \
             a[9] = 1; }";
        let m = dca_ir::compile(src).expect("compile");
        let (lref, _) = dca_ir::all_loops(&m)[0];
        for det in [&DependenceProfiling as &dyn Detector, &DiscoPopStyle] {
            let report = det.detect(&m, &[]);
            let d = report.get(lref).expect("analyzed");
            assert!(!d.parallel);
            assert_eq!(
                d.reason,
                "profiling run did not finish",
                "{}",
                det.technique()
            );
        }
    }
}
