//! Parallelization stage and multicore simulator for the DCA reproduction
//! (paper §IV-C, §V-B3, §V-C2).
//!
//! Four pieces:
//!
//! * [`plan`] — the OpenMP-style clauses (privatization, reductions) a
//!   simple loop parallelizer emits, following Tournavitis et al.;
//! * [`costs`] — per-iteration cost measurement from one instrumented
//!   sequential run;
//! * [`sim`] — a deterministic virtual-time multicore executor used in
//!   place of the paper's 72-core host (see DESIGN.md for why the
//!   substitution preserves the figures' shape);
//! * [`exec`] — a real multithreaded executor that runs a proven loop's
//!   iterations across OS threads and differentially validates the
//!   merged state against the sequential oracle.
//!
//! The [`speedup_for_selection`] helper glues them together: given the set
//! of loops a detector found (and a profitability selection), it returns
//! the whole-program speedup the paper's figures report.

#![warn(missing_docs)]

pub mod advisor;
pub mod costs;
pub mod exec;
pub mod plan;
pub mod sim;

pub use advisor::{advise, render, Advice};
pub use costs::{covered_fraction, measure_costs, CostProfile, CostProfiler, InvocationCosts};
pub use exec::{
    exec_threads, execute_commutative, execute_loop, ExecConfig, ExecError, ExecOutcome, ExecRun,
};
pub use plan::ParallelPlan;
pub use sim::{
    outermost_only, program_speedup, simulate_invocation, Schedule, SimConfig, SimResult,
};
// Dependence-subsystem types that surface through this crate's API
// (`ExecError::NotDecomposable` carries a `Conflict`; `Schedule::Auto`
// resolves through `autotune_chunk`).
pub use dca_deps::{
    autotune_chunk, check_decomposable, Conflict, ConflictKind, DepReport, DepVerdict, LoopProfile,
    DEFAULT_DYNAMIC_CHUNK,
};

use dca_analysis::EffectMap;
use dca_core::{LoopFacts, Obs};
use dca_interp::{Trap, Value};
use dca_ir::{LoopRef, Module};
use std::collections::BTreeSet;

/// Measures costs and simulates the whole-program speedup of parallelizing
/// `selection` (outermost loops only are kept; nested selections are
/// dropped automatically). Reduction clauses found by planning contribute
/// their combine costs. The loop-only half of [`speedup_with_extra`].
///
/// # Errors
///
/// Propagates interpreter traps from the measurement run.
pub fn speedup_for_selection(
    module: &Module,
    args: &[Value],
    selection: &BTreeSet<LoopRef>,
    cfg: &SimConfig,
) -> Result<f64, Trap> {
    Ok(speedup_with_extra(module, args, selection, cfg, 0.0)?.0)
}

/// Like [`speedup_for_selection`], but additionally models a *full expert
/// parallelization* (paper Fig. 7): beyond the selected loops, a fraction
/// `extra` of the residual sequential time is parallelized as whole
/// sections. Returns `(loop_speedup, full_speedup)`.
///
/// # Errors
///
/// Propagates interpreter traps from the measurement run.
pub fn speedup_with_extra(
    module: &Module,
    args: &[Value],
    selection: &BTreeSet<LoopRef>,
    cfg: &SimConfig,
    extra: f64,
) -> Result<(f64, f64), Trap> {
    let outer = outermost_only(module, selection);
    let profile = costs::measure_costs(module, args, &outer)?;
    let total = profile.total_steps.max(1) as f64;
    let (effects, obs) = (EffectMap::new(module), Obs::disabled());
    let mut selected_seq = 0.0;
    let mut selected_par = 0.0;
    for &lref in &outer {
        let plan = ParallelPlan::build(&LoopFacts::build(module, &effects, lref, &obs));
        let loop_cfg = SimConfig {
            reduction_vars: plan.reductions.len(),
            ..*cfg
        };
        let Some(invs) = profile.per_loop.get(&lref) else {
            continue;
        };
        for inv in invs.iter().filter(|inv| !inv.nested) {
            let r = simulate_invocation(&inv.iter_costs, &loop_cfg);
            selected_seq += r.seq_steps as f64;
            selected_par += r.par_steps as f64;
        }
    }
    // Measured profiles always cover the selected loops, so the residual
    // cannot go negative (see `program_speedup` for the full argument);
    // an inconsistency is an accounting bug, not a speedup.
    debug_assert!(
        total >= selected_seq,
        "selected loops ({selected_seq} steps) outweigh the program ({total})"
    );
    let residual = (total - selected_seq).max(0.0);
    let t_loop = (residual + selected_par).max(1.0);
    let extra = extra.clamp(0.0, 1.0);
    let t_full =
        (residual * (1.0 - extra) + residual * extra / cfg.cores.max(1) as f64 + selected_par)
            .max(1.0);
    Ok((total / t_loop, total / t_full))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extra_fraction_bounds_full_speedup() {
        let m = dca_ir::compile(
            "fn main() -> int { let a: [int; 512]; let s: int = 0; \
             @hot: for (let i: int = 0; i < 512; i = i + 1) { a[i] = i * i % 97; } \
             for (let i: int = 0; i < 512; i = i + 1) { s = s + a[i]; } return s; }",
        )
        .expect("compile");
        let hot = dca_ir::all_loops(&m)
            .into_iter()
            .find(|(_, t)| t.as_deref() == Some("hot"))
            .expect("tag")
            .0;
        let sel = BTreeSet::from([hot]);
        let cfg = SimConfig::paper_host();
        let (lo, full0) = speedup_with_extra(&m, &[], &sel, &cfg, 0.0).expect("simulate");
        let (_, full9) = speedup_with_extra(&m, &[], &sel, &cfg, 0.9).expect("simulate");
        assert!((lo - full0).abs() < 1e-9, "extra=0 equals loop-only");
        assert!(full9 > lo, "extra parallel sections help");
    }

    #[test]
    fn hot_map_loop_speeds_up_program() {
        let m = dca_ir::compile(
            "fn main() -> float { let a: *float = new [float; 4096]; \
             let s: float = 0.0; \
             @hot: for (let i: int = 0; i < 4096; i = i + 1) { \
               let x: float = i as float; \
               a[i] = sqrt(x * x + 1.0) + sin(x) * cos(x); } \
             for (let i: int = 0; i < 4096; i = i + 1) { s = s + a[i]; } \
             return s; }",
        )
        .expect("compile");
        let hot = dca_ir::all_loops(&m)
            .into_iter()
            .find(|(_, t)| t.as_deref() == Some("hot"))
            .expect("tag")
            .0;
        let s = speedup_for_selection(&m, &[], &BTreeSet::from([hot]), &SimConfig::paper_host())
            .expect("simulate");
        assert!(s > 2.0, "speedup {s}");
        // More cores help until Amdahl saturates.
        let s8 = speedup_for_selection(&m, &[], &BTreeSet::from([hot]), &SimConfig::with_cores(8))
            .expect("simulate");
        assert!(s8 > 1.5 && s8 < s, "s8 = {s8}, s72 = {s}");
    }

    #[test]
    fn empty_selection_is_baseline() {
        let m = dca_ir::compile(
            "fn main() { let s: int = 0; \
             for (let i: int = 0; i < 100; i = i + 1) { s = s + i; } }",
        )
        .expect("compile");
        let s = speedup_for_selection(&m, &[], &BTreeSet::new(), &SimConfig::paper_host())
            .expect("simulate");
        assert_eq!(s, 1.0);
    }
}
