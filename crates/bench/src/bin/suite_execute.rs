//! Analyzes every suite program, then runs each DCA-proven loop on real
//! threads ([`dca_parallel::execute_loop`]) at several worker counts,
//! differentially validating every parallel run against the sequential
//! oracle and printing one stable line per loop.
//!
//! Two invariants are enforced here, per loop:
//!
//! * **Oracle stability** — the sequential oracle fingerprint must be
//!   identical at every execution width (it is the live-out state of the
//!   same golden recording, stopped at the loop exit; a difference means
//!   the executor perturbed the recording). The binary exits non-zero on
//!   a mismatch.
//! * **No silent corruption** — a width where the merged parallel state
//!   does not match the oracle must surface as a rejection
//!   ([`dca_parallel::ExecError::Diverged`]), never as a validated run.
//!
//! A rejection itself is *not* a failure: dynamic commutativity (paper
//! §III) certifies that reordering whole iterations preserves the
//! outcome, not that iterations are independent of each other's heap
//! writes — timestep-style loops (lu's SSOR sweep, em3d's propagation,
//! mst's greedy growth) are commutative under sequential permutation yet
//! carry cross-iteration flow that snapshot-isolated workers cannot see.
//! The differential validator is exactly the guard that lets the
//! executor attempt such loops and refuse them with evidence (see
//! DESIGN.md §17). Traps, exhausted budgets and oracle mismatches are
//! hard failures.
//!
//! Since the footprint pre-check (DESIGN.md §18) the expected shape is
//! sharper still: loops with genuine cross-iteration heap flow are
//! refused *before any worker spawns* (`refused pre-spawn:` lines, with
//! the first conflicting `(iter_a, iter_b, cell)` witness), and the
//! differential validator remains as defense-in-depth behind them. Set
//! `DCA_DEPS_PRECHECK=0` to disable the pre-check and fall back to
//! validator-only rejection — CI runs both modes and asserts the two
//! refuse exactly the same loops.
//!
//! CI runs this binary twice and diffs stdout: the width sweep is
//! internal (`DCA_EXEC_WIDTHS`, default `1 2 4`), every printed field is
//! deterministic, so any diff means non-deterministic execution or
//! merge. CI also diffs each pre-check mode's stdout against the pinned
//! `bench/expected/suite_execute.txt` and
//! `bench/expected/suite_execute_noprecheck.txt`, so an oracle
//! fingerprint cannot drift across commits unnoticed. Width-dependent
//! accounting (steals, combines) goes to stderr, with the runs of the
//! programs the executor started (`program_starts`, one per program:
//! every width and loop of a module shares its entry cursor) and the
//! steps they ran up to the loops' entries (`idle_steps`).

use dca_core::{Dca, DcaConfig, Obs};
use dca_parallel::{execute_loop, ExecConfig, ExecError};
use std::process::ExitCode;

fn widths() -> Vec<usize> {
    let raw = std::env::var("DCA_EXEC_WIDTHS").unwrap_or_else(|_| "1 2 4".into());
    let ws: Vec<usize> = raw
        .split([' ', ','])
        .filter(|t| !t.is_empty())
        .map(|t| t.parse().expect("DCA_EXEC_WIDTHS: positive integers"))
        .collect();
    assert!(!ws.is_empty(), "DCA_EXEC_WIDTHS is empty");
    ws
}

/// `DCA_DEPS_PRECHECK=0` (or `off`) disables the pre-spawn
/// decomposability check so the differential validator alone decides —
/// the agreement mode CI compares against.
fn deps_precheck() -> bool {
    !matches!(
        std::env::var("DCA_DEPS_PRECHECK").as_deref(),
        Ok("0") | Ok("off")
    )
}

fn main() -> ExitCode {
    let widths = widths();
    let precheck = deps_precheck();
    let dca = Dca::new(DcaConfig::fast());
    // Metrics for the stderr accounting line only.
    let obs = Obs::enabled();
    let (mut executable, mut rejected, mut refused, mut prespawn) = (0u64, 0u64, 0u64, 0u64);
    let (mut hard_failures, mut steals, mut combines) = (0u64, 0u64, 0u64);
    for p in dca_suite::all_programs() {
        let m = p.module();
        let report = match dca.analyze(&m, &p.targs()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {}: {e}", p.name);
                return ExitCode::FAILURE;
            }
        };
        for r in report.commutative_loops() {
            let tag = r
                .tag
                .as_deref()
                .map(|t| format!(" @{t}"))
                .unwrap_or_default();
            let name = format!("{} {}{tag}", p.name, r.lref);
            // Sweep the widths; collect per-width status and the oracle
            // fingerprint each run reports (validated runs carry it in
            // the outcome, diverging runs in the error).
            let mut statuses: Vec<String> = Vec::new();
            let mut oracle_fps: Vec<u128> = Vec::new();
            let mut diverged = 0usize;
            let mut structural: Option<String> = None;
            let mut not_decomposable: Option<String> = None;
            let mut hard: Option<String> = None;
            let mut trips = 0usize;
            for &w in &widths {
                let cfg = ExecConfig {
                    threads: w,
                    deps_precheck: precheck,
                    ..ExecConfig::from_dca(&DcaConfig::fast())
                };
                match execute_loop(&m, &p.targs(), r.lref, &cfg, &obs) {
                    Ok(out) => {
                        trips = out.trips;
                        steals += out.steals;
                        combines += out.combine_steps;
                        if let Some(fp) = out.oracle_fingerprint {
                            oracle_fps.push(fp);
                        }
                        statuses.push(format!("w{w}:ok"));
                    }
                    Err(ExecError::Diverged { expected, .. }) => {
                        diverged += 1;
                        oracle_fps.push(expected);
                        statuses.push(format!("w{w}:rejected"));
                    }
                    Err(
                        e @ (ExecError::Unresolved(_)
                        | ExecError::OrderSensitive(_)
                        | ExecError::Unsupported(_)),
                    ) => {
                        structural = Some(e.to_string());
                        break;
                    }
                    // The footprint pre-check is a pure function of the
                    // golden recording, so the verdict (and its witness)
                    // is identical at every width — no need to finish
                    // the sweep.
                    Err(e @ ExecError::NotDecomposable { .. }) => {
                        not_decomposable = Some(e.to_string());
                        break;
                    }
                    Err(e) => {
                        hard = Some(e.to_string());
                        break;
                    }
                }
            }
            if let Some(e) = hard {
                hard_failures += 1;
                println!("{name}: FAILED: {e}");
                continue;
            }
            if let Some(e) = structural {
                refused += 1;
                println!("{name}: refused: {e}");
                continue;
            }
            if let Some(e) = not_decomposable {
                prespawn += 1;
                println!("{name}: refused pre-spawn: {e}");
                continue;
            }
            // Oracle fingerprints must agree across widths.
            if oracle_fps.windows(2).any(|p| p[0] != p[1]) {
                hard_failures += 1;
                println!("{name}: FAILED: oracle fingerprint varies with width: {oracle_fps:x?}");
                continue;
            }
            let fp = oracle_fps.first().copied().unwrap_or_default();
            if diverged > 0 {
                rejected += 1;
                println!(
                    "{name}: not parallel-executable ({}) trips={trips} oracle_fp={fp:032x}",
                    statuses.join(",")
                );
            } else {
                executable += 1;
                println!("{name}: validated trips={trips} oracle_fp={fp:032x}");
            }
        }
    }
    println!(
        "exec-stats: widths={widths:?} executable={executable} \
         rejected={rejected} refused={refused} prespawn={prespawn} failed={hard_failures}"
    );
    let rollup = obs.rollup().expect("enabled metrics");
    eprintln!(
        "exec-accounting: steals={steals} combines={combines} program_starts={} idle_steps={}",
        rollup.counter("exec.program_starts"),
        rollup.counter("exec.record_idle_steps")
    );
    if hard_failures > 0 {
        eprintln!("error: {hard_failures} loop(s) trapped, stalled or broke oracle stability");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
