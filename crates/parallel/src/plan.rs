//! Parallel code generation planning (paper §IV-C).
//!
//! The paper's parallelization stage is deliberately simple: loop-level
//! OpenMP-style parallelism with privatization of iteration-local
//! variables and recognized reductions, following Tournavitis et al. A
//! [`ParallelPlan`] captures exactly the clauses such a code generator
//! would emit for one loop.

use dca_analysis::{Histogram, ReductionInfo, ScalarReduction};
use dca_core::LoopFacts;
use dca_ir::{LoopRef, VarId};
use std::collections::BTreeSet;

/// The OpenMP-like clauses for one parallelized loop.
#[derive(Debug, Clone)]
pub struct ParallelPlan {
    /// The loop.
    pub lref: LoopRef,
    /// Its source tag, if any.
    pub tag: Option<String>,
    /// Variables to privatize (defined and consumed within an iteration).
    pub private: BTreeSet<VarId>,
    /// Iterator-slice variables (the loop control; privatized implicitly
    /// by the work-sharing construct).
    pub control: BTreeSet<VarId>,
    /// Scalar reductions with their combining operators.
    pub reductions: Vec<ScalarReduction>,
    /// Array (histogram) reductions.
    pub histograms: Vec<Histogram>,
    /// Loop-carried scalars that no clause explains. A non-empty set means
    /// plain loop parallelism is unsafe without further transformation;
    /// DCA-detected loops may still carry these when their effect is
    /// order-insensitive (the paper leans on user approval here, §IV-D).
    pub unresolved: BTreeSet<VarId>,
}

impl ParallelPlan {
    /// Builds the plan for the loop `facts` describe.
    pub fn build(facts: &LoopFacts<'_>) -> ParallelPlan {
        let (live, l, slice) = (&facts.live, facts.l(), &facts.slice);
        let red = ReductionInfo::compute(&facts.view, live, l, &slice.slice_vars);
        let carried = live.loop_carried(l);
        let defined = live.loop_defs(l);
        // Private: defined in the loop, not carried, not live out of it.
        let live_outs = live.loop_live_outs(l);
        let private: BTreeSet<VarId> = defined
            .iter()
            .copied()
            .filter(|v| {
                !carried.contains(v) && !live_outs.contains(v) && !slice.slice_vars.contains(v)
            })
            .collect();
        let reduction_vars: BTreeSet<VarId> = red.reductions.iter().map(|r| r.var).collect();
        let unresolved: BTreeSet<VarId> = carried
            .iter()
            .copied()
            .filter(|v| !slice.slice_vars.contains(v) && !reduction_vars.contains(v))
            .collect();
        ParallelPlan {
            lref: facts.lref,
            tag: l.tag.clone(),
            private,
            control: slice.slice_vars.clone(),
            reductions: red.reductions,
            histograms: red.histograms,
            unresolved,
        }
    }

    /// True when the plan needs no unexplained loop-carried state — the
    /// cases the simple scheme parallelizes without user approval.
    pub fn is_clean(&self) -> bool {
        self.unresolved.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_for(src: &str, tag: &str) -> (dca_ir::Module, ParallelPlan) {
        let m = dca_ir::compile(src).expect("compile");
        let lref = dca_ir::all_loops(&m)
            .into_iter()
            .find(|(_, t)| t.as_deref() == Some(tag))
            .expect("tagged loop")
            .0;
        let plan = ParallelPlan::build(&LoopFacts::for_loop(&m, lref, &dca_core::Obs::disabled()));
        (m, plan)
    }

    #[test]
    fn map_loop_plan_is_clean() {
        let (_, p) = plan_for(
            "fn main() { let a: [int; 16]; \
             @l: for (let i: int = 0; i < 16; i = i + 1) { \
               let t: int = i * 2; a[i] = t; } }",
            "l",
        );
        assert!(p.is_clean());
        assert!(!p.private.is_empty(), "t and temporaries are private");
        assert!(p.reductions.is_empty());
    }

    #[test]
    fn reduction_loop_plan_has_clause() {
        let (_, p) = plan_for(
            "fn main() -> float { let s: float = 0.0; \
             @l: for (let i: int = 0; i < 16; i = i + 1) { s = s + i as float; } \
             return s; }",
            "l",
        );
        assert!(p.is_clean());
        assert_eq!(p.reductions.len(), 1);
    }

    #[test]
    fn recurrence_plan_is_not_clean() {
        let (_, p) = plan_for(
            "fn main() -> int { let x: int = 1; \
             @l: for (let i: int = 0; i < 16; i = i + 1) { x = x * 3 + 1; } return x; }",
            "l",
        );
        assert!(!p.is_clean());
        assert_eq!(p.unresolved.len(), 1);
    }

    #[test]
    fn pointer_chase_control_vars_in_plan() {
        let (_, p) = plan_for(
            "struct N { v: int, next: *N }\n\
             fn main() { let p: *N = new N; \
             @walk: while (p != null) { p.v = p.v + 1; p = p.next; } }",
            "walk",
        );
        // The chased pointer is loop control, not an unresolved carried
        // scalar (DCA hands such loops to the code generator with the
        // iterator prerecorded).
        assert!(p.is_clean());
        assert!(!p.control.is_empty());
    }
}
