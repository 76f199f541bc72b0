//! The parallelism advisor: per-loop advice with OpenMP-style pragmas.
//!
//! The paper envisions DCA "as part of an interactive or semi-automatic
//! parallelism advisor, where the user has the final word over any code
//! transformations" (§I), generating OpenMP loop parallelism with
//! privatization and reduction clauses (§IV-C). This module renders that
//! advice: for every commutative loop, the pragma a code generator would
//! emit, its measured coverage, an estimated speedup, and whether the
//! user's approval is required (unexplained loop-carried state, §IV-D).

use crate::costs::measure_costs;
use crate::plan::ParallelPlan;
use crate::sim::{simulate_invocation, Schedule, SimConfig};
use dca_analysis::{EffectMap, ReductionOp};
use dca_core::{DcaReport, LoopFacts, Obs};
use dca_interp::{Trap, Value};
use dca_ir::{LoopRef, Module};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Advice for one loop.
#[derive(Debug, Clone)]
pub struct Advice {
    /// The loop.
    pub lref: LoopRef,
    /// Source tag, if any.
    pub tag: Option<String>,
    /// DCA's verdict, rendered.
    pub verdict: String,
    /// True if DCA found the loop commutative.
    pub commutative: bool,
    /// The OpenMP-style pragma a code generator would emit (commutative
    /// loops only).
    pub pragma: Option<String>,
    /// Fraction of sequential execution inside this loop, in percent.
    pub coverage_pct: f64,
    /// Whole-program speedup if only this loop were parallelized.
    pub est_speedup: f64,
    /// The paper's §IV-D safety valve: true when the plan carries state no
    /// clause explains, so the user must approve the transformation.
    pub needs_approval: bool,
}

fn op_symbol(op: ReductionOp) -> &'static str {
    match op {
        ReductionOp::Sum => "+",
        ReductionOp::Product => "*",
        ReductionOp::Min => "min",
        ReductionOp::Max => "max",
        ReductionOp::Bitwise => "|",
    }
}

fn pragma_for(module: &Module, plan: &ParallelPlan) -> String {
    let func = module.func(plan.lref.func);
    let mut text = String::from("#pragma omp parallel for");
    let named: Vec<&str> = plan
        .private
        .iter()
        .map(|&v| func.var(v))
        .filter(|vi| !vi.is_temp)
        .map(|vi| vi.name.as_str())
        .collect();
    if !named.is_empty() {
        let _ = write!(text, " private({})", named.join(", "));
    }
    for r in &plan.reductions {
        let _ = write!(
            text,
            " reduction({}:{})",
            op_symbol(r.op),
            func.var(r.var).name
        );
    }
    for h in &plan.histograms {
        let name = match h.array {
            dca_analysis::ArrayKey::Global(g) => module.globals[g.index()].name.clone(),
            dca_analysis::ArrayKey::Var(v) => func.var(v).name.clone(),
        };
        let _ = write!(text, " reduction({}:{}[:])", op_symbol(h.op), name);
    }
    text
}

/// The `schedule(...)` clause for the configured policy, or `None` for
/// the (default) static block schedule, which OpenMP implies. Under
/// [`Schedule::Auto`] the chunk comes from the measured per-iteration
/// cost distribution of the loop's first invocation — the same
/// deterministic tuner the real executor uses
/// ([`dca_deps::autotune_chunk`]).
fn schedule_clause(cfg: &SimConfig, iter_costs: Option<&[u64]>) -> Option<String> {
    match cfg.schedule {
        Schedule::StaticBlock => None,
        Schedule::Dynamic { chunk } => Some(format!(" schedule(dynamic, {})", chunk.max(1))),
        Schedule::Auto => {
            let chunk = iter_costs.map_or(dca_deps::DEFAULT_DYNAMIC_CHUNK, |c| {
                dca_deps::autotune_chunk(c, cfg.cores)
            });
            Some(format!(" schedule(dynamic, {chunk})"))
        }
    }
}

/// Produces advice for every loop in `report`, measuring coverage and
/// simulating per-loop speedups on `cfg`.
///
/// # Errors
///
/// Propagates interpreter traps from the measurement run.
pub fn advise(
    module: &Module,
    args: &[Value],
    report: &DcaReport,
    cfg: &SimConfig,
) -> Result<Vec<Advice>, Trap> {
    let all: BTreeSet<LoopRef> = report.iter().map(|r| r.lref).collect();
    let profile = measure_costs(module, args, &all)?;
    let total = profile.total_steps.max(1) as f64;
    let (effects, obs) = (EffectMap::new(module), Obs::disabled());
    let mut out = Vec::new();
    for r in report.iter() {
        let commutative = r.verdict.is_commutative();
        let plan = ParallelPlan::build(&LoopFacts::build(module, &effects, r.lref, &obs));
        let loop_cfg = SimConfig {
            reduction_vars: plan.reductions.len(),
            ..*cfg
        };
        let mut seq = 0.0;
        let mut par = 0.0;
        for inv in profile.per_loop.get(&r.lref).map_or(&[][..], |v| v) {
            let s = simulate_invocation(&inv.iter_costs, &loop_cfg);
            seq += s.seq_steps as f64;
            par += s.par_steps as f64;
        }
        let est_speedup = if commutative && seq > 0.0 {
            total / (total - seq + par).max(1.0)
        } else {
            1.0
        };
        let first_costs = profile
            .per_loop
            .get(&r.lref)
            .and_then(|invs| invs.iter().find(|inv| !inv.nested))
            .map(|inv| inv.iter_costs.as_slice());
        out.push(Advice {
            lref: r.lref,
            tag: r.tag.clone(),
            verdict: r.verdict.to_string(),
            commutative,
            pragma: commutative.then(|| {
                let mut p = pragma_for(module, &plan);
                if let Some(clause) = schedule_clause(cfg, first_costs) {
                    p.push_str(&clause);
                }
                p
            }),
            coverage_pct: 100.0 * seq / total,
            est_speedup,
            // All profile-guided advice is formally subject to user
            // approval (§IV-D); this flag is the *loud* case — carried
            // state no clause explains.
            needs_approval: commutative && !plan.is_clean(),
        });
    }
    // Hottest first.
    out.sort_by(|a, b| {
        b.coverage_pct
            .partial_cmp(&a.coverage_pct)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(out)
}

/// Renders the advice as a human-readable report.
pub fn render(advice: &[Advice]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<16} {:>8} {:>9} {:<34} pragma",
        "loop", "cov(%)", "speedup", "verdict"
    );
    for a in advice {
        let name = a
            .tag
            .as_deref()
            .map(|t| format!("@{t}"))
            .unwrap_or_else(|| a.lref.to_string());
        let _ = writeln!(
            s,
            "{:<16} {:>8.1} {:>8.2}x {:<34} {}",
            name,
            a.coverage_pct,
            a.est_speedup,
            a.verdict,
            a.pragma.as_deref().unwrap_or("-"),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_core::{Dca, DcaConfig};

    fn advice_for(src: &str) -> (Module, Vec<Advice>) {
        let m = dca_ir::compile(src).expect("compile");
        let report = Dca::new(DcaConfig::fast())
            .analyze_module(&m)
            .expect("analyze");
        let advice = advise(&m, &[], &report, &SimConfig::paper_host()).expect("advise");
        (m, advice)
    }

    #[test]
    fn reduction_pragma_has_clause() {
        let (_, advice) = advice_for(
            "fn main() -> float { let acc: float = 0.0; \
             @red: for (let i: int = 0; i < 64; i = i + 1) { \
               acc = acc + (i as float) * 0.5; } return acc; }",
        );
        let a = advice
            .iter()
            .find(|a| a.tag.as_deref() == Some("red"))
            .expect("red advice");
        assert!(a.commutative);
        let pragma = a.pragma.as_deref().expect("pragma");
        assert!(pragma.contains("reduction(+:acc)"), "{pragma}");
    }

    #[test]
    fn map_with_locals_privatizes_them() {
        let (_, advice) = advice_for(
            "fn main() { let a: [int; 64]; \
             @map: for (let i: int = 0; i < 64; i = i + 1) { \
               let t: int = i * 3; a[i] = t + 1; } }",
        );
        let a = advice
            .iter()
            .find(|a| a.tag.as_deref() == Some("map"))
            .expect("map advice");
        let pragma = a.pragma.as_deref().expect("pragma");
        assert!(
            pragma.contains("private(") && pragma.contains('t'),
            "{pragma}"
        );
    }

    #[test]
    fn non_commutative_loops_get_no_pragma() {
        let (_, advice) = advice_for(
            "fn main() -> int { let a: [int; 16]; a[0] = 2; let s: int = 0; \
             @rec: for (let i: int = 1; i < 16; i = i + 1) { a[i] = a[i - 1] * 2 + 1; } \
             for (let i: int = 0; i < 16; i = i + 1) { s = s + a[i] * (i + 1); } \
             return s; }",
        );
        let a = advice
            .iter()
            .find(|a| a.tag.as_deref() == Some("rec"))
            .expect("rec advice");
        assert!(!a.commutative);
        assert!(a.pragma.is_none());
        assert_eq!(a.est_speedup, 1.0);
    }

    #[test]
    fn schedule_clause_follows_the_configured_policy() {
        let src = "fn main() -> int { let acc: int = 0; \
             @red: for (let i: int = 0; i < 64; i = i + 1) { acc = acc + i * i; } \
             return acc; }";
        let m = dca_ir::compile(src).expect("compile");
        let report = Dca::new(DcaConfig::fast())
            .analyze_module(&m)
            .expect("analyze");
        let pragma_under = |schedule| {
            let cfg = SimConfig {
                schedule,
                ..SimConfig::with_cores(4)
            };
            let advice = advise(&m, &[], &report, &cfg).expect("advise");
            advice
                .iter()
                .find(|a| a.tag.as_deref() == Some("red"))
                .and_then(|a| a.pragma.clone())
                .expect("pragma")
        };
        assert!(
            !pragma_under(Schedule::StaticBlock).contains("schedule("),
            "static is OpenMP's implied default"
        );
        assert!(pragma_under(Schedule::Dynamic { chunk: 16 }).contains("schedule(dynamic, 16)"));
        let auto = pragma_under(Schedule::Auto);
        assert!(auto.contains("schedule(dynamic, "), "{auto}");
        assert_eq!(auto, pragma_under(Schedule::Auto), "deterministic tuning");
    }

    #[test]
    fn advice_sorted_by_coverage_and_renders() {
        let (_, advice) = advice_for(
            "fn main() { let a: [int; 64]; let s: int = 0; \
             @hot: for (let i: int = 0; i < 64; i = i + 1) { \
               for (let j: int = 0; j < 16; j = j + 1) { a[i] = a[i] + j; } } \
             @cold: for (let i: int = 0; i < 8; i = i + 1) { s = s + a[i]; } }",
        );
        let hot_pos = advice
            .iter()
            .position(|a| a.tag.as_deref() == Some("hot"))
            .expect("hot");
        let cold_pos = advice
            .iter()
            .position(|a| a.tag.as_deref() == Some("cold"))
            .expect("cold");
        assert!(hot_pos < cold_pos, "hotter loops come first");
        let text = render(&advice);
        assert!(text.contains("@hot"));
        assert!(text.contains("#pragma omp parallel for"));
    }
}
