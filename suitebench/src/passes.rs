//! One pass of each workload over the suite, with the per-layer spans.
//!
//! A pass handles every suite program once, in the order it is given. For
//! each program it returns the canonical result lines the run compares
//! against `expected/`. With tracing on, every call into a layer is timed
//! here, around the call, and the engine's own stage spans and counters
//! are folded in from its report.

use dca_baselines::{
    shared_trace, DependenceProfiling, Detector, DiscoPopStyle, IccStyle, IdiomsStyle, PollyStyle,
};
use dca_core::{Dca, DcaConfig, DcaReport, LoopVerdict, Obs, ObsOptions};
use dca_interp::Value;
use dca_ir::{LoopRef, Module};
use dca_parallel::{execute_loop, ExecConfig, ExecError, SimConfig};
use dca_suite::SuiteProgram;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// Executor width. Two workers exercise the cross-worker merge of
/// reduction partials; on a one-CPU host this measures per-worker
/// overhead, never a speed-up.
const EXEC_THREADS: usize = 2;

/// The benchmark's workloads: the verdict cache serves every loop in
/// one and none in the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Analyze with a verdict cache that holds every loop, then run every
    /// proven loop on real threads with differential validation.
    Execute,
    /// Analyze every program with an empty verdict cache, then regenerate
    /// the paper's per-program detection counts (Tables I, II and IV) and
    /// DCA's simulated speed-up (Fig. 6).
    PaperEval,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Execute, Workload::PaperEval];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Execute => "execute",
            Workload::PaperEval => "paper-eval",
        }
    }
}

/// Per-layer time and work counts, accumulated only while tracing.
#[derive(Debug, Default)]
pub struct Layers {
    on: bool,
    pub times: BTreeMap<&'static str, Duration>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Layers {
    fn new(on: bool) -> Self {
        Layers {
            on,
            ..Layers::default()
        }
    }

    fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.add(layer, t.elapsed());
        r
    }

    fn add(&mut self, layer: &'static str, d: Duration) {
        *self.times.entry(layer).or_default() += d;
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Splits one `Dca::analyze` call of wall time `total` into the
    /// engine's stage spans; what they do not cover is `engine_other`
    /// (cache load, lookup and save, result fold, bookkeeping).
    fn engine(&mut self, total: Duration, report: &DcaReport) {
        let Some(obs) = &report.obs else {
            return;
        };
        let span = |name: &str| obs.spans.get(name).map_or(Duration::ZERO, |s| s.total);
        // `analysis.iterator_slice` runs inside `stage.static`; liveness
        // and the effect map run outside it.
        let parts = [
            (
                "static",
                span("stage.static") + span("analysis.liveness") + span("analysis.effect_map"),
            ),
            ("record", span("stage.record")),
            ("restore", span("stage.restore")),
            ("replay", span("stage.replay")),
            ("verify", span("stage.verify")),
            ("cache_keying", span("cache.keying")),
        ];
        let mut covered = Duration::ZERO;
        for (layer, d) in parts {
            self.add(layer, d);
            covered += d;
        }
        self.add("engine_other", total.saturating_sub(covered));
        for (name, counter) in [
            ("golden_runs", "engine.golden_runs"),
            ("replays", "engine.replays"),
            ("cache_hits", "cache.hits"),
            ("cache_misses", "cache.misses"),
            ("cache_stores", "cache.stores"),
        ] {
            self.count(name, obs.counter(counter));
        }
    }
}

/// What one pass produced for one program.
pub struct ProgramRun {
    pub name: &'static str,
    /// Canonical result lines, compared against `expected/`.
    pub lines: Vec<String>,
    /// Deterministic values not pinned in `expected/` (executor oracle
    /// fingerprints), compared across the passes of one run.
    pub fingerprints: Vec<u128>,
    /// Why this program's run is wrong regardless of `expected/`.
    pub error: Option<String>,
}

/// Shared inputs of every pass.
pub struct Suite<'a> {
    pub cache: &'a Path,
    pub trace: bool,
}

impl Suite<'_> {
    /// `base` on one engine thread, so the numbers are single-thread cost
    /// on any host, with the engine's spans on while tracing.
    fn analysis_config(&self, cache: Option<&Path>, base: DcaConfig) -> DcaConfig {
        DcaConfig {
            threads: 1,
            cache: cache.map(Path::to_path_buf),
            obs: if self.trace {
                ObsOptions::metrics()
            } else {
                ObsOptions::default()
            },
            ..base
        }
    }

    fn analyze(
        &self,
        layers: &mut Layers,
        module: &Module,
        args: &[Value],
        cfg: DcaConfig,
    ) -> Result<DcaReport, String> {
        let t = Instant::now();
        let report = Dca::new(cfg)
            .analyze(module, args)
            .map_err(|e| format!("analyze: {e}"))?;
        if self.trace {
            layers.engine(t.elapsed(), &report);
        }
        if report.journal.is_some() || report.iter().any(|r| r.resumed) {
            return Err("a run journal served verdicts".into());
        }
        Ok(report)
    }

    /// [`Suite::analyze`] through the verdict cache, which must serve
    /// every loop when `warm` and none otherwise.
    fn analyze_cached(
        &self,
        layers: &mut Layers,
        module: &Module,
        args: &[Value],
        cfg: DcaConfig,
        warm: bool,
    ) -> Result<DcaReport, String> {
        let report = self.analyze(layers, module, args, cfg)?;
        let want = if warm { report.len() } else { 0 };
        match &report.cache {
            Some(s) if !s.bypassed && s.faults == 0 && report.cached_count() == want => Ok(report),
            s => Err(format!(
                "verdict cache served {} of {} loops, expected {want} ({s:?})",
                report.cached_count(),
                report.len()
            )),
        }
    }

    /// Runs `workload` over `programs` in the given order; the layers
    /// hold the pass's spans and counts when tracing.
    pub fn pass(
        &self,
        workload: Workload,
        programs: &[&'static SuiteProgram],
    ) -> (Vec<ProgramRun>, Layers) {
        let mut layers = Layers::new(self.trace);
        let exec_obs = if self.trace {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        let runs = programs
            .iter()
            .map(|p| {
                let mut fingerprints = Vec::new();
                let result = match workload {
                    Workload::Execute => self.execute(p, &mut layers, &exec_obs, &mut fingerprints),
                    Workload::PaperEval => self.paper_eval(p, &mut layers),
                };
                let (lines, error) = match result {
                    Ok(lines) => (lines, None),
                    Err(e) => (Vec::new(), Some(e)),
                };
                ProgramRun {
                    name: p.name,
                    lines,
                    fingerprints,
                    error,
                }
            })
            .collect();
        if let Some(r) = exec_obs.rollup() {
            layers.count("exec_combine_steps", r.counter("exec.combine_steps"));
        }
        (runs, layers)
    }

    /// Fills the verdict cache, which must start empty, with every
    /// program's verdicts in the given order.
    pub fn fill(&self, programs: &[&'static SuiteProgram]) -> Result<(), String> {
        let mut layers = Layers::new(false);
        for p in programs {
            let cfg = self.analysis_config(Some(self.cache), DcaConfig::default());
            self.analyze_cached(&mut layers, &p.module(), &p.args(), cfg, false)
                .map_err(|e| format!("{}: {e}", p.name))?;
        }
        Ok(())
    }

    /// Execute: the `dca execute` flow with its default configuration and
    /// a warm `DCA_CACHE`. The cache serves the verdicts, then every
    /// commutative loop runs on the executor; one line per loop,
    /// `<program> <tag> <outcome> trips=<n>`.
    fn execute(
        &self,
        p: &SuiteProgram,
        layers: &mut Layers,
        obs: &Obs,
        fingerprints: &mut Vec<u128>,
    ) -> Result<Vec<String>, String> {
        let module = layers.time("frontend", || p.module());
        let args = p.args();
        let cfg = self.analysis_config(Some(self.cache), DcaConfig::default());
        let exec_cfg = ExecConfig {
            threads: EXEC_THREADS,
            ..ExecConfig::from_dca(&cfg)
        };
        let report = self.analyze_cached(layers, &module, &args, cfg, true)?;
        let mut lines = Vec::new();
        for r in report.commutative_loops() {
            let out = layers.time("exec", || {
                execute_loop(&module, &args, r.lref, &exec_cfg, obs)
            });
            let (outcome, trips) = match out {
                Ok(o) if o.validated => {
                    fingerprints.extend(o.oracle_fingerprint);
                    ("validated", o.trips)
                }
                Ok(_) => return Err(format!("{}: parallel run not validated", tag(&r.tag))),
                Err(ExecError::NotDecomposable { .. }) => ("refused-prespawn", 0),
                Err(
                    ExecError::Unresolved(_)
                    | ExecError::OrderSensitive(_)
                    | ExecError::Unsupported(_),
                ) => ("refused", 0),
                Err(ExecError::Diverged { expected, .. }) => {
                    fingerprints.push(expected);
                    ("diverged", 0)
                }
                Err(e) => return Err(format!("{}: {e}", tag(&r.tag))),
            };
            lines.push(format!(
                "{} {} {outcome} trips={trips}",
                p.name,
                tag(&r.tag)
            ));
        }
        Ok(lines)
    }

    /// Paper-eval: the paper's default DCA configuration with an empty
    /// verdict cache, then every baseline on the evaluation workload, as
    /// the table and figure binaries run by default. One verdict line per
    /// loop, `<program> <tag> <class> trips=<n>` (violation details carry
    /// float values and step counts are interpreter-specific, so neither
    /// is pinned), then one line of detection counts and speed-up.
    fn paper_eval(&self, p: &SuiteProgram, layers: &mut Layers) -> Result<Vec<String>, String> {
        let module = layers.time("frontend", || p.module());
        let args = p.args();
        let cfg = self.analysis_config(Some(self.cache), DcaConfig::default());
        let dca = self.analyze_cached(layers, &module, &args, cfg, false)?;
        let mut lines: Vec<String> = dca
            .iter()
            .map(|r| {
                let class = match &r.verdict {
                    LoopVerdict::Commutative => "commutative",
                    LoopVerdict::NonCommutative(_) => "non-commutative",
                    LoopVerdict::Excluded(_) => "excluded",
                    LoopVerdict::NotExercised => "not-exercised",
                    LoopVerdict::Skipped(_) => "skipped",
                };
                format!("{} {} {class} trips={}", p.name, tag(&r.tag), r.trips)
            })
            .collect();
        let (depprof, discopop) = layers.time("baseline_dynamic", || {
            let trace = shared_trace(&module, &args);
            (
                DependenceProfiling.detect_with(&module, &trace),
                DiscoPopStyle.detect_with(&module, &trace),
            )
        });
        let (idioms, polly, icc) = layers.time("baseline_static", || {
            (
                IdiomsStyle.detect(&module, &args),
                PollyStyle.detect(&module, &args),
                IccStyle.detect(&module, &args),
            )
        });
        let proven: BTreeSet<LoopRef> = dca.commutative_loops().map(|r| r.lref).collect();
        let expert: BTreeSet<LoopRef> = tags(p, &module, p.expert.parallel_tags);
        // As in Table IV: a false negative is an expert-parallel loop DCA
        // refutes, not one it excludes (I/O) or never sees run.
        let refuted = dca
            .iter()
            .filter(|r| matches!(r.verdict, LoopVerdict::NonCommutative(_)))
            .filter(|r| expert.contains(&r.lref))
            .count();
        let profitable: BTreeSet<LoopRef> = tags(p, &module, p.expert.profitable_tags)
            .intersection(&proven)
            .copied()
            .collect();
        let speedup = layers.time("simulator", || {
            dca_parallel::speedup_for_selection(
                &module,
                &args,
                &profitable,
                &SimConfig::paper_host(),
            )
        });
        let speedup = speedup.map_err(|e| format!("simulator trapped: {e}"))?;
        lines.push(format!(
            "{} loops={} depprof={} discopop={} idioms={} polly={} icc={} dca={} \
             dca_false_pos={} dca_false_neg={} dca_speedup={speedup:.3}",
            p.name,
            dca.len(),
            depprof.parallel_count(),
            discopop.parallel_count(),
            idioms.parallel_count(),
            polly.parallel_count(),
            icc.parallel_count(),
            proven.len(),
            proven.difference(&expert).count(),
            refuted,
        ));
        Ok(lines)
    }
}

fn tag(t: &Option<String>) -> &str {
    t.as_deref().unwrap_or("-")
}

fn tags(p: &SuiteProgram, module: &Module, tags: &[&str]) -> BTreeSet<LoopRef> {
    tags.iter()
        .filter_map(|t| p.loop_by_tag(module, t))
        .collect()
}
