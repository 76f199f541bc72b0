//! Shared harness code for regenerating every table and figure of the
//! paper's evaluation (§V). Each table/figure has a dedicated binary (see
//! `src/bin/`); this library holds the detection/simulation plumbing they
//! share. DESIGN.md maps each experiment to its binary.

#![warn(missing_docs)]

use dca_baselines::{
    DependenceProfiling, DetectionReport, Detector, DiscoPopStyle, IccStyle, IdiomsStyle,
    PollyStyle,
};
use dca_core::DcaConfig;
use dca_ir::{LoopRef, Module};
use dca_parallel::SimConfig;
use dca_suite::SuiteProgram;
use std::collections::BTreeSet;
use std::time::Duration;

pub mod harness;
pub mod report;

/// All six per-technique reports for one program.
#[derive(Debug, Clone)]
pub struct AllReports {
    /// DCA's structured per-loop verdicts (the source of the `dca`
    /// detection report; used for precision accounting in Table IV).
    pub dca_verdicts: dca_core::DcaReport,
    /// Dependence Profiling (dynamic baseline).
    pub depprof: DetectionReport,
    /// DiscoPoP-style (dynamic baseline).
    pub discopop: DetectionReport,
    /// Idioms (static baseline).
    pub idioms: DetectionReport,
    /// Polly-style (static baseline).
    pub polly: DetectionReport,
    /// ICC-style (static baseline).
    pub icc: DetectionReport,
    /// DCA (this paper).
    pub dca: DetectionReport,
    /// Total loops in the module.
    pub total: usize,
}

impl AllReports {
    /// The paper's "Combined Static": union of the three static tools.
    pub fn combined_static(&self) -> BTreeSet<LoopRef> {
        let mut s: BTreeSet<LoopRef> = self.idioms.parallel_loops().collect();
        s.extend(self.polly.parallel_loops());
        s.extend(self.icc.parallel_loops());
        s
    }
}

/// Runs every detector on `p` (dynamic ones use the given workload).
pub fn detect_all(p: &SuiteProgram, fast: bool) -> (Module, AllReports) {
    let module = p.module();
    let args = if fast { p.targs() } else { p.args() };
    let total = dca_ir::all_loops(&module).len();
    // One traced execution serves both dynamic baselines.
    let trace = dca_baselines::shared_trace(&module, &args);
    let dca_verdicts = dca_core::Dca::new(DcaConfig::default())
        .analyze(&module, &args)
        .expect("suite programs have a main function");
    let mut dca = DetectionReport::default();
    for r in dca_verdicts.iter() {
        dca.set(r.lref, r.verdict.is_commutative(), r.verdict.to_string());
    }
    let reports = AllReports {
        depprof: DependenceProfiling.detect_with(&module, &trace),
        discopop: DiscoPopStyle.detect_with(&module, &trace),
        idioms: IdiomsStyle.detect(&module, &args),
        polly: PollyStyle.detect(&module, &args),
        icc: IccStyle.detect(&module, &args),
        dca,
        dca_verdicts,
        total,
    };
    (module, reports)
}

/// Resolves the expert tags of `p` to loop references in `module`.
pub fn tags_to_loops(p: &SuiteProgram, module: &Module, tags: &[&str]) -> BTreeSet<LoopRef> {
    tags.iter()
        .filter_map(|t| p.loop_by_tag(module, t))
        .collect()
}

/// The profitable selection for a technique: the loops it detected,
/// intersected with the expert profitability tags (paper §V-C2: DCA and
/// Idioms use the expert profitability analysis).
pub fn profitable_selection(
    p: &SuiteProgram,
    module: &Module,
    detected: &BTreeSet<LoopRef>,
) -> BTreeSet<LoopRef> {
    let profitable = tags_to_loops(p, module, p.expert.profitable_tags);
    detected.intersection(&profitable).copied().collect()
}

/// Whole-program speedup of parallelizing `selection` on the paper's
/// simulated 72-core host. Returns 1.0 on measurement failure.
pub fn speedup(
    p: &SuiteProgram,
    module: &Module,
    selection: &BTreeSet<LoopRef>,
    fast: bool,
) -> f64 {
    let args = if fast { p.targs() } else { p.args() };
    dca_parallel::speedup_for_selection(module, &args, selection, &SimConfig::paper_host())
        .unwrap_or(1.0)
}

/// Loop-only and full expert speedups (Fig. 7).
pub fn expert_speedups(p: &SuiteProgram, module: &Module, fast: bool) -> (f64, f64) {
    let args = if fast { p.targs() } else { p.args() };
    let selection = tags_to_loops(p, module, p.expert.profitable_tags);
    dca_parallel::speedup_with_extra(
        module,
        &args,
        &selection,
        &SimConfig::paper_host(),
        p.expert.extra_parallel_fraction,
    )
    .unwrap_or((1.0, 1.0))
}

/// Fraction (in %) of sequential execution covered by `selection`:
/// steps spent inside any of its loops (inclusive of nested loops and
/// calls), each step counted once however many selected loops are live.
/// Zero when the run traps.
pub fn coverage_pct(
    p: &SuiteProgram,
    module: &Module,
    selection: &BTreeSet<LoopRef>,
    fast: bool,
) -> f64 {
    let args = if fast { p.targs() } else { p.args() };
    match dca_parallel::covered_fraction(module, &args, selection) {
        Ok(f) => 100.0 * f,
        Err(_) => 0.0,
    }
}

/// Geometric mean of positive values.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let s: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (s / values.len() as f64).exp()
}

/// True when `--fast` was passed (use the small test workloads).
pub fn fast_mode() -> bool {
    std::env::args().any(|a| a == "--fast")
}

/// Sequential-vs-parallel wall time of the DCA engine itself on one
/// program: runs `analyze` with one worker thread and with `threads`
/// workers and reports `(sequential, parallel, speedup)`. The verdicts of
/// the two runs are asserted identical — the engine's determinism
/// guarantee — so the numbers always compare equal work.
pub fn engine_speedup(
    module: &Module,
    args: &[dca_interp::Value],
    config: &DcaConfig,
    threads: usize,
) -> (Duration, Duration, f64) {
    let seq_cfg = DcaConfig {
        threads: 1,
        ..config.clone()
    };
    let par_cfg = DcaConfig {
        threads,
        ..config.clone()
    };
    let seq = dca_core::Dca::new(seq_cfg)
        .analyze(module, args)
        .expect("sequential analysis");
    let par = dca_core::Dca::new(par_cfg)
        .analyze(module, args)
        .expect("parallel analysis");
    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.iter().zip(par.iter()) {
        assert_eq!(s, p, "parallel engine must match sequential verdicts");
    }
    let ratio = seq.wall.as_secs_f64() / par.wall.as_secs_f64().max(1e-12);
    (seq.wall, par.wall, ratio)
}

/// Prints the engine's sequential-vs-parallel wall time over the whole
/// NPB suite — the footer every table/figure binary appends so each
/// regenerated experiment also documents how fast its analyses ran.
pub fn print_engine_speedup_footer(fast: bool) {
    let threads = dca_core::effective_threads(0);
    if threads <= 1 {
        println!("\n[engine] 1 CPU available: verification ran sequentially");
        return;
    }
    let (mut seq_total, mut par_total) = (Duration::ZERO, Duration::ZERO);
    for p in dca_suite::npb::programs() {
        let module = p.module();
        let args = if fast { p.targs() } else { p.args() };
        let (seq, par, _) = engine_speedup(&module, &args, &DcaConfig::default(), threads);
        seq_total += seq;
        par_total += par;
    }
    println!(
        "\n[engine] verification wall time over NPB: {:.3}s sequential, {:.3}s on {} threads \
         ({:.2}x speedup)",
        seq_total.as_secs_f64(),
        par_total.as_secs_f64(),
        threads,
        seq_total.as_secs_f64() / par_total.as_secs_f64().max(1e-12)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_basics() {
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(gmean(&[]), 1.0);
    }

    #[test]
    fn detect_all_runs_on_a_small_program() {
        let p = dca_suite::by_name("ep").expect("ep exists");
        let (_, reports) = detect_all(p, true);
        assert_eq!(reports.total, 9);
        assert!(reports.dca.parallel_count() >= reports.combined_static().len());
    }
}
