//! Regression pins for the footprint pre-check (DESIGN.md §18): across
//! the whole suite, exactly six DCA-commutative loops carry genuine
//! cross-iteration heap flow, and the executor must refuse each of them
//! *before any worker spawns* — with a concrete `(iter_a, iter_b, cell)`
//! witness — while every loop the differential validator accepts keeps
//! validating with an unchanged oracle fingerprint (no false positives).

use dca::core::{Dca, DcaConfig, Obs};
use dca::parallel::{execute_loop, ConflictKind, ExecConfig, ExecError, Schedule};
use dca_rng::Rng;
use std::collections::BTreeSet;

/// The six suite loops that are commutative under sequential permutation
/// (paper §III) yet not decomposable across snapshot-isolated workers:
/// each reads, in a later iteration, a heap cell an earlier iteration
/// changed. Keep in sync with EXPERIMENTS.md's refusal table.
const NOT_DECOMPOSABLE: [&str; 6] = [
    "em3d @sim",
    "lu @ssor_iter",
    "mst @grow",
    "otter @prove",
    "ua @coarsen",
    "water @timestep",
];

fn cfg(precheck: bool) -> ExecConfig {
    ExecConfig {
        threads: 2,
        deps_precheck: precheck,
        ..ExecConfig::from_dca(&DcaConfig::fast())
    }
}

#[test]
fn prespawn_refusals_match_the_validator_exactly() {
    let dca = Dca::new(DcaConfig::fast());
    let mut refused_prespawn = BTreeSet::new();
    let (mut validated, mut structural) = (0usize, 0usize);
    // The executor's golden runs: the steps the module's entry cursor
    // ran up to each loop's first entry (once per program, as every loop
    // shares it) and the steps recorded with the loop live.
    let mut record_steps = (0u64, 0u64);
    // Recordings stopped at the access that decides an allocation
    // refusal, and heap cells copied by snapshots and restores: each
    // recording restores the cursor's entry snapshot, then snapshots,
    // and the master and the workers restore.
    let (mut refused_in_record, mut heap_cells_copied) = (0u64, 0u64);
    for p in dca::suite::all_programs() {
        let m = p.module();
        let args = p.targs();
        let report = dca.analyze(&m, &args).expect("analyze");
        for r in report.commutative_loops() {
            let tag = r
                .tag
                .as_deref()
                .map(|t| format!(" @{t}"))
                .unwrap_or_default();
            let name = format!("{} {}{tag}", p.name, r.lref);
            let short = r
                .tag
                .as_deref()
                .map(|t| format!("{} @{t}", p.name))
                .unwrap_or_else(|| name.clone());

            let obs = Obs::enabled();
            let with = execute_loop(&m, &args, r.lref, &cfg(true), &obs);
            let without = execute_loop(&m, &args, r.lref, &cfg(false), &Obs::disabled());
            let rollup = obs.rollup().expect("rollup");
            record_steps.0 += rollup.counter("exec.record_idle_steps");
            record_steps.1 += rollup.counter("exec.record_tracked_steps");
            refused_in_record += rollup.counter("exec.refused_in_record");
            heap_cells_copied += rollup.counter("exec.heap_cells_copied");

            match with {
                Err(ExecError::NotDecomposable {
                    witness,
                    conflicting_cells,
                }) => {
                    refused_prespawn.insert(short.clone());
                    assert!(conflicting_cells > 0, "{name}: empty conflict report");
                    assert_eq!(
                        witness.kind,
                        ConflictKind::Flow,
                        "{name}: suite refusals are all payload flow"
                    );
                    assert!(
                        witness.iter_a < witness.iter_b,
                        "{name}: witness must name two distinct iterations: {witness}"
                    );
                    // Zero spawns: the profile was taken and judged, but
                    // no worker invocation (and no iteration) ran.
                    let counters = obs.rollup().expect("rollup").counters;
                    assert_eq!(counters.get("deps.prespawn_refusals"), Some(&1));
                    assert_eq!(counters.get("deps.loops_profiled"), Some(&1));
                    assert!(counters.get("deps.conflicts").copied() >= Some(1));
                    assert!(
                        !counters.contains_key("exec.invocations")
                            && !counters.contains_key("exec.iters"),
                        "{name}: refused loop must not spawn workers: {counters:?}"
                    );
                    // Defense-in-depth agreement: validator-only mode
                    // rejects the very same loop with evidence.
                    assert!(
                        matches!(without, Err(ExecError::Diverged { .. })),
                        "{name}: validator disagrees with pre-check: {without:?}"
                    );
                }
                Ok(out) => {
                    assert!(out.validated, "{name}: executed but not validated");
                    validated += 1;
                    // No false positives, and the pre-check must not
                    // perturb recording or replay: same oracle.
                    match without {
                        Ok(base) => assert_eq!(
                            (base.validated, base.oracle_fingerprint),
                            (true, out.oracle_fingerprint),
                            "{name}: pre-check changed the outcome"
                        ),
                        Err(e) => panic!("{name}: validator-only mode failed: {e}"),
                    }
                }
                Err(
                    e @ (ExecError::Unresolved(_)
                    | ExecError::OrderSensitive(_)
                    | ExecError::Unsupported(_)),
                ) => {
                    structural += 1;
                    // Structural refusals precede the dependence verdict
                    // and must be mode-independent.
                    assert_eq!(
                        without.as_ref().err().map(ToString::to_string),
                        Some(e.to_string()),
                        "{name}: structural refusal differs without the pre-check"
                    );
                }
                Err(e) => panic!("{name}: unexpected error class: {e}"),
            }
        }
    }
    let expected: BTreeSet<String> = NOT_DECOMPOSABLE.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        refused_prespawn, expected,
        "pre-spawn refusal set drifted from the pinned six"
    );
    assert_eq!(validated, 171, "validated-loop count drifted");
    assert_eq!(structural, 23, "structural-refusal count drifted");
    assert_eq!(record_steps, (337_253, 332_514), "recording work drifted");
    assert_eq!(
        (refused_in_record, heap_cells_copied),
        (11, 2_548_120),
        "executor work drifted"
    );
}

/// Loop families for the agreement property. The decomposable three are
/// drawn from the executor's supported envelope (disjoint maps, scalar
/// reductions, histograms); the conflicting one is a genuine RMW flow
/// chain `a[i] = a[i-1] + k`, where a worker starting mid-chain reads a
/// stale snapshot cell.
#[derive(Debug, Clone, Copy)]
enum Family {
    Doall,
    Reduction,
    Histogram,
    FlowRmw,
}

impl Family {
    fn source(self, n: usize, k: i64) -> String {
        let body = match self {
            Family::Doall => format!(
                "let a: [int; 64];\n\
                 @l: for (let i: int = 0; i < {n}; i = i + 1) {{ \
                   a[i] = (i * {k} + 3) % 53; }}\n\
                 let t: int = 0;\n\
                 for (let i: int = 0; i < 64; i = i + 1) {{ t = t + a[i] * (i + 1); }}\n\
                 return t;"
            ),
            Family::Reduction => format!(
                "let s: int = {k};\n\
                 @l: for (let i: int = 0; i < {n}; i = i + 1) {{ \
                   s = s + (i * i + {k}) % 101; }}\n\
                 return s;"
            ),
            Family::Histogram => format!(
                "let h: [int; 8];\n\
                 @l: for (let i: int = 0; i < {n}; i = i + 1) {{ \
                   h[(i * {k} + 1) % 8] = h[(i * {k} + 1) % 8] + 1; }}\n\
                 let t: int = 0;\n\
                 for (let i: int = 0; i < 8; i = i + 1) {{ t = t + h[i] * (i + 1); }}\n\
                 return t;"
            ),
            Family::FlowRmw => format!(
                "let a: [int; 64];\n\
                 @l: for (let i: int = 1; i < {n}; i = i + 1) {{ \
                   a[i] = a[i - 1] + {k}; }}\n\
                 let t: int = 0;\n\
                 for (let i: int = 0; i < 64; i = i + 1) {{ t = t + a[i] * (i + 1); }}\n\
                 return t;"
            ),
        };
        format!("fn main() -> int {{\n{body}\n}}")
    }
}

/// Agreement property: on generated programs the footprint verdict — a
/// pure function of the golden recording — must agree with the
/// differential validator at widths 2 and 4 under both schedules.
/// Decomposable families validate in both modes with the same oracle
/// fingerprint; the flow family is refused pre-spawn in pre-check mode
/// and caught by the validator in validator-only mode. The one relaxed
/// corner is flow under a dynamic schedule, where a racy chunk grab can
/// hand every iteration to one worker in order (see the overlap module
/// docs): there the validator may legitimately accept the run, but never
/// silently — an accepted run must still be validated against the
/// oracle.
#[test]
fn footprint_verdict_agrees_with_validator_on_generated_programs() {
    const FAMILIES: [Family; 4] = [
        Family::Doall,
        Family::Reduction,
        Family::Histogram,
        Family::FlowRmw,
    ];
    let mut rng = Rng::seed_from_u64(0xDEC0);
    for case in 0..24 {
        let family = FAMILIES[case % FAMILIES.len()];
        let n = rng.range_usize(16, 49);
        let k = rng.range_i64(1, 9);
        let src = family.source(n, k);
        let m = dca::ir::compile(&src).expect("generated programs compile");
        let lref = dca::ir::all_loops(&m)
            .into_iter()
            .find(|(_, t)| t.as_deref() == Some("l"))
            .expect("tagged loop")
            .0;
        let schedules = [
            Schedule::StaticBlock,
            Schedule::Dynamic {
                chunk: rng.range_usize(1, 4),
            },
        ];
        for schedule in schedules {
            for w in [2usize, 4] {
                let ctx = format!("case {case}: {family:?} n={n} k={k} w={w} {schedule:?}");
                let run = |precheck: bool| {
                    execute_loop(
                        &m,
                        &[],
                        lref,
                        &ExecConfig {
                            threads: w,
                            schedule,
                            deps_precheck: precheck,
                            ..ExecConfig::from_dca(&DcaConfig::fast())
                        },
                        &Obs::disabled(),
                    )
                };
                let with = run(true);
                let without = run(false);
                match family {
                    Family::Doall | Family::Reduction | Family::Histogram => {
                        let a = with.unwrap_or_else(|e| panic!("{ctx}: pre-check mode: {e}"));
                        let b = without.unwrap_or_else(|e| panic!("{ctx}: validator mode: {e}"));
                        assert!(a.validated && b.validated, "{ctx}: must validate");
                        assert_eq!(
                            a.oracle_fingerprint, b.oracle_fingerprint,
                            "{ctx}: pre-check changed the oracle"
                        );
                        assert_eq!(a.fingerprint, b.fingerprint, "{ctx}: merged state differs");
                    }
                    Family::FlowRmw => {
                        match with {
                            Err(ExecError::NotDecomposable { witness, .. }) => {
                                assert_eq!(witness.kind, ConflictKind::Flow, "{ctx}");
                                assert!(witness.iter_a < witness.iter_b, "{ctx}: {witness}");
                            }
                            other => panic!("{ctx}: flow chain not refused pre-spawn: {other:?}"),
                        }
                        match (schedule, without) {
                            (_, Err(ExecError::Diverged { .. })) => {}
                            (Schedule::Dynamic { .. }, Ok(out)) => assert!(
                                out.validated && out.exact,
                                "{ctx}: a lucky in-order grab must still match the oracle"
                            ),
                            (_, other) => {
                                panic!("{ctx}: validator missed the flow chain: {other:?}")
                            }
                        }
                    }
                }
            }
        }
    }
}
