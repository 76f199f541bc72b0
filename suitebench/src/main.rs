//! Whole-suite end-to-end benchmark of the DCA workspace, with a traced
//! per-layer breakdown.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path suitebench/Cargo.toml -- \
//!     --workload paper-eval --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Two workloads, each a pass over all 24 suite programs on their
//! evaluation arguments with the default DCA configuration, split by the
//! verdict cache: `paper-eval` starts every pass from an empty cache, so
//! each loop is analyzed and stored, then runs the baselines and the
//! speed-up simulator; `execute` starts from a cache that serves every
//! loop, then runs each proven loop on the executor.
//!
//! A run first sets up [`setup_reps`] times, each set-up in a child
//! process of its own, then repeats passes, each in an order shuffled
//! from `--seed`, until the passes have taken `--seconds`. A set-up
//! lowers every program to count the suite's loops; for `execute` it also
//! fills a fresh verdict cache, the state that workload starts from.
//! Every pass is checked against the pinned results in `expected/`, and
//! executor fingerprints against the run's first pass.
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted` and `failed` (program runs) and `metrics`:
//!
//! * `--trace 0`: `loops_per_s`, suite loops handled per second of pass
//!   time (the suite's 247 loops per pass), and `setup_s`, the mean
//!   set-up time. Throughput rather than a median pass time because the
//!   host's speed drifts for seconds at a time, and the time average over
//!   the run varies least from run to run. A lowering-only set-up takes
//!   one of two times about 1.5x apart, set by its process's memory layout
//!   as well as by the host; each set-up therefore runs in a fresh process,
//!   which samples the layout anew, and the mean over them moves less
//!   than a median of a few samples, which jumps between the two.
//! * `--trace 1`: each layer's share of the traced pass time (`*_pct`,
//!   summing to 100 with `other_pct`), the median traced pass time, and
//!   the median per-pass work counts of the engine, cache and executor.
//!   Shares rather than times: a drift in the host's speed moves every
//!   layer's time together but leaves the shares nearly unchanged, and
//!   the traced pass time gives the scale.
//!
//! The engine's and executor's environment overrides (`DCA_CACHE`,
//! `DCA_JOURNAL`, `DCA_FAULT`, ...) are cleared at start-up, so a run
//! measures the configuration written here. When a change is meant to
//! alter the suite's results, regenerate `expected/` from the `Checker`'s
//! reported lines.

mod passes;

use dca_rng::Rng;
use passes::{ProgramRun, Suite, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Environment variables that override the engine's or executor's
/// configuration; cleared before anything runs.
const OVERRIDES: [&str; 6] = [
    "DCA_CACHE",
    "DCA_JOURNAL",
    "DCA_FAULT",
    "DCA_TRACE",
    "DCA_THREADS",
    "DCA_EXEC_THREADS",
];
/// Passes per run even when `--seconds` ends sooner.
const MIN_PASSES: usize = 3;

/// The pinned results of `workload`, the contents of its files under
/// `expected/` when the benchmark was built; a program's lines are
/// expected in file order.
fn pinned(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::Execute => &[include_str!("../expected/exec.txt")],
        Workload::PaperEval => &[
            include_str!("../expected/verdicts.txt"),
            include_str!("../expected/paper.txt"),
        ],
    }
}

/// Per-layer shares reported under `--trace 1`, in pipeline order.
const LAYERS: [&str; 12] = [
    "frontend",
    "static",
    "record",
    "restore",
    "replay",
    "verify",
    "cache_keying",
    "engine_other",
    "exec",
    "baseline_dynamic",
    "baseline_static",
    "simulator",
];

/// Per-pass work counts reported under `--trace 1`.
const COUNTS: [&str; 6] = [
    "golden_runs",
    "replays",
    "cache_hits",
    "cache_misses",
    "cache_stores",
    "exec_combine_steps",
];

enum Mode {
    Run(RunArgs),
    /// One set-up in a child process, working in the given directory.
    SetUp(Workload, PathBuf),
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut setup = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--setup" => setup = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if let Some(dir) = setup {
        return Ok(Mode::SetUp(workload, dir));
    }
    Ok(Mode::Run(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    }))
}

/// Working directory for the verdict cache, inside the build directory of
/// the checkout; removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<Self, String> {
        let base =
            std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
        let dir = base
            .join("suitebench-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn cache(&self) -> PathBuf {
        cache_in(&self.0)
    }
}

fn cache_in(dir: &Path) -> PathBuf {
    dir.join("verdicts.cache")
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn clear(cache: &Path) -> Result<(), String> {
    match std::fs::remove_file(cache) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("{}: {e}", cache.display()))
        }
        _ => Ok(()),
    }
}

/// Compares program runs against the pinned results and the run's first
/// pass.
struct Checker {
    expected: BTreeMap<&'static str, Vec<&'static str>>,
    fingerprints: BTreeMap<&'static str, Vec<u128>>,
    ok: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checker {
    fn new(workload: Workload) -> Self {
        let mut expected: BTreeMap<&str, Vec<&str>> = dca_suite::all_programs()
            .into_iter()
            .map(|p| (p.name, Vec::new()))
            .collect();
        for line in pinned(workload).iter().flat_map(|text| text.lines()) {
            let program = line.split(' ').next().unwrap_or_default();
            expected.entry(program).or_default().push(line);
        }
        Checker {
            expected,
            fingerprints: BTreeMap::new(),
            ok: true,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Checks one pass; each program run counts as attempted.
    fn check(&mut self, runs: &[ProgramRun]) {
        self.ok &= runs.len() == self.expected.len();
        for r in runs {
            let lines: Vec<&str> = r.lines.iter().map(String::as_str).collect();
            let problem = if let Some(e) = &r.error {
                Some(e.clone())
            } else if self.expected.get(r.name) != Some(&lines) {
                Some(format!("results differ from expected/: {lines:?}"))
            } else if *self
                .fingerprints
                .entry(r.name)
                .or_insert_with(|| r.fingerprints.clone())
                != r.fingerprints
            {
                Some("executor oracle fingerprints differ between passes".into())
            } else {
                None
            };
            self.attempted += 1;
            if let Some(problem) = problem {
                self.ok = false;
                self.failed += 1;
                if self.problems.len() < 5 {
                    self.problems.push(format!("{}: {problem}", r.name));
                }
            }
        }
    }
}

/// Linear-interpolation quantile of `v` (sorted in place), `q` in [0, 1].
fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    v[lo] + (h - h.floor()) * (v[hi] - v[lo])
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set-ups per run; `setup_s` is their mean. An `execute` set-up
/// analyzes the whole suite, the others only lower it.
fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::Execute => 3,
        Workload::PaperEval => 25,
    }
}

/// One set-up, the body of a `--setup` child: lowers every program to
/// count the suite's loops and, for `execute`, fills a fresh verdict
/// cache in `dir` with one analysis pass in suite order. Returns the loop
/// count and the wall time in seconds as one line.
fn set_up(workload: Workload, dir: &Path) -> Result<String, String> {
    let programs = dca_suite::all_programs();
    let t = Instant::now();
    let loops: usize = programs
        .iter()
        .map(|p| dca_ir::all_loops(&p.module()).len())
        .sum();
    if workload == Workload::Execute {
        let cache = cache_in(dir);
        clear(&cache)?;
        let suite = Suite {
            cache: &cache,
            trace: false,
        };
        suite.fill(&programs).map_err(|e| format!("set-up: {e}"))?;
    }
    Ok(format!("{loops} {}", t.elapsed().as_secs_f64()))
}

/// Runs one set-up in a child process, so that each samples a fresh
/// memory layout; returns its loop count and wall time in seconds.
fn set_up_in_child(workload: Workload, dir: &Path) -> Result<(usize, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload.name(), "--setup"])
        .arg(dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = stdout.lines().last().and_then(|line| {
        let (loops, secs) = line.split_once(' ')?;
        Some((loops.parse().ok()?, secs.parse().ok()?))
    });
    match parsed {
        Some(r) if out.status.success() => Ok(r),
        _ => Err(format!("set-up child failed ({})", out.status)),
    }
}

fn run(args: &RunArgs) -> Result<String, String> {
    let work = WorkDir::create()?;
    let cache = work.cache();
    let programs = dca_suite::all_programs();
    let mut checker = Checker::new(args.workload);
    let suite = Suite {
        cache: &cache,
        trace: args.trace,
    };
    let (mut suite_loops, mut setups) = (0, Vec::new());
    for _ in 0..setup_reps(args.workload) {
        let (loops, secs) = set_up_in_child(args.workload, &work.0)?;
        suite_loops = loops;
        setups.push(secs);
    }
    let mut rng = Rng::seed_from_u64(args.seed);
    let mut pass_ms = Vec::new();
    let mut measured = Duration::ZERO;
    let mut layer_time: BTreeMap<&str, Duration> = BTreeMap::new();
    let mut counts: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    while pass_ms.len() < MIN_PASSES || measured.as_secs_f64() < args.seconds {
        if args.workload == Workload::PaperEval {
            clear(&cache)?;
        }
        let mut order = programs.clone();
        rng.shuffle(&mut order);
        let t = Instant::now();
        let (runs, layers) = suite.pass(args.workload, &order);
        let wall = t.elapsed();
        measured += wall;
        checker.check(&runs);
        pass_ms.push(ms(wall));
        let mut covered = Duration::ZERO;
        for (layer, d) in &layers.times {
            *layer_time.entry(layer).or_default() += *d;
            covered += *d;
        }
        *layer_time.entry("other").or_default() += wall.saturating_sub(covered);
        for name in COUNTS {
            let n = layers.counts.get(name).copied().unwrap_or(0);
            counts.entry(name).or_default().push(n as f64);
        }
    }
    for p in &checker.problems {
        eprintln!("suitebench: {p}");
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let passes = pass_ms.len();
    if args.trace {
        let total: Duration = layer_time.values().sum();
        for layer in LAYERS.iter().chain(&["other"]) {
            let d = layer_time.get(layer).copied().unwrap_or_default();
            let share = 100.0 * d.as_secs_f64() / total.as_secs_f64().max(f64::MIN_POSITIVE);
            eprintln!(
                "suitebench: {layer:<16} {:>10.3} ms/pass {share:>6.2}%",
                ms(d) / passes as f64
            );
            metrics.push((format!("{layer}_pct"), share, "%"));
        }
        metrics.push(("traced_pass_ms".into(), quantile(&mut pass_ms, 0.5), "ms"));
        let median: BTreeMap<&str, f64> = counts
            .iter_mut()
            .map(|(name, v)| (*name, quantile(v, 0.5)))
            .collect();
        for name in COUNTS {
            metrics.push((name.into(), median[name], "count"));
        }
        let (hits, misses) = (median["cache_hits"], median["cache_misses"]);
        let rate = if hits + misses > 0.0 {
            100.0 * hits / (hits + misses)
        } else {
            0.0
        };
        metrics.push(("cache_hit_pct".into(), rate, "%"));
    } else {
        metrics.push((
            "loops_per_s".into(),
            (suite_loops * passes) as f64 / measured.as_secs_f64(),
            "1/s",
        ));
        let mean = setups.iter().sum::<f64>() / setups.len() as f64;
        metrics.push(("setup_s".into(), mean, "s"));
    }
    eprintln!(
        "suitebench: workload={} seed={} passes={passes} program runs={} failed={}",
        args.workload.name(),
        args.seed,
        checker.attempted,
        checker.failed
    );

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checker.ok, checker.attempted, checker.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    Ok(json)
}

fn main() -> ExitCode {
    for var in OVERRIDES {
        std::env::remove_var(var);
    }
    let result = parse_args(std::env::args().skip(1)).and_then(|mode| match mode {
        Mode::Run(args) => run(&args),
        Mode::SetUp(workload, dir) => set_up(workload, &dir),
    });
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "suitebench: {e}\nusage: suitebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            ExitCode::FAILURE
        }
    }
}
