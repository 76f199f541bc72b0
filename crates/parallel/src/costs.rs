//! Per-iteration cost measurement for selected loops.
//!
//! The multicore simulator needs, for every parallelized loop invocation,
//! the cost of each iteration (inclusive of nested loops and calls). One
//! instrumented sequential run collects these as interpreter step deltas
//! between header arrivals.

use dca_interp::{LoopSink, LoopTracker, Machine, Trap, Value};
use dca_ir::{LoopRef, Module};
use std::collections::{BTreeSet, HashMap};

/// The measured iterations of one loop invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvocationCosts {
    /// Steps per iteration, in original execution order.
    pub iter_costs: Vec<u64>,
    /// True when this invocation ran while another *watched* invocation
    /// was active (any loop, any function). Speedup accounting must skip
    /// nested invocations: their time already lives inside the enclosing
    /// invocation's iteration costs.
    pub nested: bool,
}

impl InvocationCosts {
    /// Total sequential steps of the invocation's iterations.
    pub fn total(&self) -> u64 {
        self.iter_costs.iter().sum()
    }
}

/// Costs for every selected loop, plus the run's total step count.
#[derive(Debug, Clone, Default)]
pub struct CostProfile {
    /// Invocations per loop, in execution order.
    pub per_loop: HashMap<LoopRef, Vec<InvocationCosts>>,
    /// Total steps of the sequential run.
    pub total_steps: u64,
}

impl CostProfile {
    /// Sum over all invocations of `l`.
    pub fn loop_total(&self, l: LoopRef) -> u64 {
        self.per_loop
            .get(&l)
            .map(|invs| invs.iter().map(InvocationCosts::total).sum())
            .unwrap_or(0)
    }
}

/// The cost-measuring [`LoopSink`]: one [`InvocationCosts`] per
/// activation of a selected loop. Its live state per activation is the
/// step count at the last header arrival and the costs so far.
#[derive(Debug, Default)]
pub struct CostProfiler {
    per_loop: HashMap<LoopRef, Vec<InvocationCosts>>,
}

impl LoopSink for CostProfiler {
    type Act = (u64, InvocationCosts);

    fn enter(&mut self, _: LoopRef, steps: u64, nested: bool, _: &[Value]) -> Self::Act {
        // The first header arrival opens the invocation; it records no
        // iteration.
        let costs = InvocationCosts {
            nested,
            ..InvocationCosts::default()
        };
        (steps, costs)
    }

    fn iterate(&mut self, (last_header, costs): &mut Self::Act, steps: u64, _: &[Value]) {
        costs.iter_costs.push(steps - *last_header);
        *last_header = steps;
    }

    fn exit(&mut self, lref: LoopRef, (last_header, mut costs): Self::Act, steps: Option<u64>) {
        // The final partial interval (exit check) attributes to the last
        // iteration; it is dropped when no iteration was recorded, and for
        // an invocation still open when the run ended.
        if let (Some(now), Some(last)) = (steps, costs.iter_costs.last_mut()) {
            *last += now.saturating_sub(last_header);
        }
        self.per_loop.entry(lref).or_default().push(costs);
    }
}

/// Steps during which at least one selected activation is live: only an
/// outermost activation (entered with none other live) opens an interval,
/// and its exit closes it, since activations exit innermost first. One
/// still live when the run ends has no exit step and adds nothing; the
/// runs of [`covered_fraction`] finish, so that never happens.
#[derive(Default)]
struct UnionCoverage {
    since: u64,
    covered: u64,
}

impl LoopSink for UnionCoverage {
    /// Whether the activation is outermost.
    type Act = bool;

    fn enter(&mut self, _: LoopRef, steps: u64, nested: bool, _: &[Value]) -> bool {
        if !nested {
            self.since = steps;
        }
        !nested
    }

    fn exit(&mut self, _: LoopRef, outermost: bool, steps: Option<u64>) {
        if let (true, Some(now)) = (outermost, steps) {
            self.covered += now.saturating_sub(self.since);
        }
    }
}

/// Runs `main(args)` with `sink` watching the loops in `selection`;
/// returns the sink and the run's total step count.
fn run_watching<S: LoopSink>(
    module: &Module,
    args: &[Value],
    selection: &BTreeSet<LoopRef>,
    sink: S,
) -> Result<(S, u64), Trap> {
    let mut machine = Machine::new(module);
    machine.push_call(module.main().expect("module has `main`"), args)?;
    let mut tracker = LoopTracker::watching(module, selection, sink);
    tracker.run(&mut machine, u64::MAX)?;
    Ok((tracker.finish(), machine.steps()))
}

/// Measures the fraction of execution steps spent inside *any* loop of
/// `selection` (union attribution: overlapping activations — e.g. a
/// selected callee loop running inside a selected caller loop, or one loop
/// live at two depths of a recursion — are not double-counted). Returns a
/// value in `[0, 1]`.
///
/// # Errors
///
/// Propagates interpreter traps.
///
/// # Panics
///
/// Panics if the module has no `main`.
pub fn covered_fraction(
    module: &Module,
    args: &[Value],
    selection: &BTreeSet<LoopRef>,
) -> Result<f64, Trap> {
    let (cov, total) = run_watching(module, args, selection, UnionCoverage::default())?;
    Ok(cov.covered as f64 / total.max(1) as f64)
}

/// Measures iteration costs for `selection` in one sequential run of
/// `main(args)`.
///
/// # Errors
///
/// Propagates interpreter traps.
///
/// # Panics
///
/// Panics if the module has no `main`.
pub fn measure_costs(
    module: &Module,
    args: &[Value],
    selection: &BTreeSet<LoopRef>,
) -> Result<CostProfile, Trap> {
    let (profiler, total_steps) = run_watching(module, args, selection, CostProfiler::default())?;
    Ok(CostProfile {
        per_loop: profiler.per_loop,
        total_steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs_of(src: &str, tag: &str) -> (CostProfile, LoopRef) {
        let m = dca_ir::compile(src).expect("compile");
        let lref = dca_ir::all_loops(&m)
            .into_iter()
            .find(|(_, t)| t.as_deref() == Some(tag))
            .expect("tagged loop")
            .0;
        let profile = measure_costs(&m, &[], &BTreeSet::from([lref])).expect("measure");
        (profile, lref)
    }

    #[test]
    fn counts_iterations_and_costs() {
        let (p, l) = costs_of(
            "fn main() { let s: int = 0; \
             @l: for (let i: int = 0; i < 10; i = i + 1) { s = s + i; } }",
            "l",
        );
        let invs = &p.per_loop[&l];
        assert_eq!(invs.len(), 1);
        assert_eq!(invs[0].iter_costs.len(), 10);
        // Uniform body => roughly uniform per-iteration costs.
        let min = invs[0].iter_costs.iter().min().expect("non-empty");
        let max = invs[0].iter_costs.iter().max().expect("non-empty");
        assert!(max - min <= 4, "costs {:?}", invs[0].iter_costs);
        assert!(p.loop_total(l) <= p.total_steps);
    }

    #[test]
    fn nested_calls_attribute_to_iteration() {
        let (p, l) = costs_of(
            "fn work(n: int) -> int { let s: int = 0; \
             for (let k: int = 0; k < n; k = k + 1) { s = s + k; } return s; }\n\
             fn main() { let t: int = 0; \
             @l: for (let i: int = 0; i < 4; i = i + 1) { t = t + work(i * 20); } }",
            "l",
        );
        let inv = &p.per_loop[&l][0];
        assert_eq!(inv.iter_costs.len(), 4);
        // Later iterations call work() with bigger n => strictly growing.
        for w in inv.iter_costs.windows(2) {
            assert!(w[1] > w[0], "costs {:?}", inv.iter_costs);
        }
    }

    #[test]
    fn multiple_invocations_recorded() {
        let (p, l) = costs_of(
            "fn go(n: int) { let s: int = 0; \
             @l: for (let i: int = 0; i < n; i = i + 1) { s = s + i; } }\n\
             fn main() { go(3); go(7); }",
            "l",
        );
        let invs = &p.per_loop[&l];
        assert_eq!(invs.len(), 2);
        assert_eq!(invs[0].iter_costs.len(), 3);
        assert_eq!(invs[1].iter_costs.len(), 7);
    }

    #[test]
    fn unexecuted_selection_yields_no_costs() {
        let (p, l) = costs_of(
            "fn dead() { @l: while (false) { let x: int = 1; x = x + 1; } }\n\
             fn main() { }",
            "l",
        );
        assert_eq!(p.loop_total(l), 0);
    }

    #[test]
    fn zero_trip_and_unfinished_invocations_carry_no_tail() {
        let m = dca_ir::compile(
            "fn go(n: int) { let s: int = 0; \
             @l: for (let i: int = 0; i < n; i = i + 1) { s = s + i; } }\n\
             fn main() { go(0); go(1000); }",
        )
        .expect("compile");
        let (l, _) = dca_ir::all_loops(&m)[0];
        let mut machine = Machine::new(&m);
        machine
            .push_call(m.main().expect("main"), &[])
            .expect("push");
        let mut tracker = LoopTracker::watching(&m, &BTreeSet::from([l]), CostProfiler::default());
        tracker.run(&mut machine, 200).expect("run");
        let invs = &tracker.finish().per_loop[&l];
        assert_eq!(invs.len(), 2);
        assert!(
            invs[0].iter_costs.is_empty(),
            "zero trips: the exit check is no iteration"
        );
        // The run stopped mid-loop: every recorded iteration is a whole
        // header-to-header interval, with no exit tail added to the last.
        let costs = &invs[1].iter_costs;
        assert!(costs.len() > 5);
        assert!(costs.iter().all(|&c| c == costs[0]), "{costs:?}");
    }

    /// `@r` runs at depths 1, 2 and 3 at once: `rec(2)` calls `rec(1)`
    /// twice, and each of those calls `rec(0)` twice.
    const RECURSIVE: &str = "let g: [int; 4];\n\
         fn rec(n: int) -> int { let s: int = 0; \
           @r: for (let i: int = 0; i < 2; i = i + 1) { \
             if (n > 0) { s = s + rec(n - 1); } \
             g[i] = g[i] + n; s = s + 1; } \
           return s; }\n\
         fn main() { let t: int = rec(2); \
           @tail: for (let k: int = 0; k < 3; k = k + 1) { t = t + k; } }";

    fn recursive() -> (Module, LoopRef, LoopRef) {
        let m = dca_ir::compile(RECURSIVE).expect("compile");
        let tag = |tag: &str| {
            dca_ir::all_loops(&m)
                .into_iter()
                .find(|(_, t)| t.as_deref() == Some(tag))
                .expect("tagged loop")
                .0
        };
        let (r, tail) = (tag("r"), tag("tail"));
        (m, r, tail)
    }

    #[test]
    fn recursive_loop_costs_per_depth() {
        let (m, r, tail) = recursive();
        let p = measure_costs(&m, &[], &BTreeSet::from([r, tail])).expect("measure");
        assert_eq!(p.total_steps, 293);
        let inv = |iter_costs: &[u64], nested| InvocationCosts {
            iter_costs: iter_costs.to_vec(),
            nested,
        };
        // Invocations are listed as they exit: the deepest first. Each
        // depth's iterations include the deeper calls it made; only the
        // depth-1 invocation runs with no other `@r` live.
        let (leaf, mid) = (inv(&[14, 16], true), inv(&[52, 54], true));
        let top = inv(&[128, 130], false);
        assert_eq!(
            p.per_loop[&r],
            [
                leaf.clone(),
                leaf.clone(),
                mid.clone(),
                leaf.clone(),
                leaf,
                mid,
                top
            ]
        );
        assert_eq!(p.per_loop[&tail], [inv(&[8, 8, 10], false)]);
    }

    #[test]
    fn recursive_loop_steps_are_covered_once() {
        let (m, r, tail) = recursive();
        // The depth-1 invocation spans 258 of the run's 293 steps; the
        // deeper ones overlap it and add nothing.
        let cov = covered_fraction(&m, &[], &BTreeSet::from([r])).expect("cover");
        assert_eq!(cov, 258.0 / 293.0);
        let cov = covered_fraction(&m, &[], &BTreeSet::from([r, tail])).expect("cover");
        assert_eq!(cov, (258.0 + 26.0) / 293.0);
    }
}
