//! The parallel engine's core guarantee: for any worker-thread count, the
//! analysis produces a verdict-identical report — same verdicts, same
//! trips, same `permutations_tested`, same `replay_steps` — as the
//! sequential engine. Exercised across engine seeds, generated programs,
//! and the realistic suite programs.

use dca::core::{Dca, DcaConfig, DcaReport};
use dca_rng::Rng;

fn assert_reports_identical(seq: &DcaReport, par: &DcaReport, context: &str) {
    assert_eq!(seq.len(), par.len(), "{context}: loop counts differ");
    for (s, p) in seq.iter().zip(par.iter()) {
        assert_eq!(s, p, "{context}: outcome differs at {}", s.lref);
        assert_eq!(
            s.replay_steps, p.replay_steps,
            "{context}: replay accounting differs at {}",
            s.lref
        );
    }
}

fn check_all_widths(m: &dca::ir::Module, base: &DcaConfig, context: &str) {
    let seq = Dca::new(DcaConfig {
        threads: 1,
        ..base.clone()
    })
    .analyze_module(m)
    .expect("sequential analysis");
    for threads in [2, 4, 7] {
        let par = Dca::new(DcaConfig {
            threads,
            ..base.clone()
        })
        .analyze_module(m)
        .expect("parallel analysis");
        assert_reports_identical(&seq, &par, &format!("{context} threads={threads}"));
    }
}

/// A mixed-verdict module: maps, reductions, a recurrence and a
/// first-match search, so early-exit paths and full verification paths
/// both run under contention.
fn mixed_module(trip: usize, c: i64) -> dca::ir::Module {
    let src = format!(
        "fn main() -> int {{ \
         let a: [int; 64]; let b: [int; 64]; let s: int = 0; let first: int = 0 - 1; \
         @fill: for (let i: int = 0; i < {trip}; i = i + 1) {{ a[i] = i * {c} % 31; }} \
         @map: for (let i: int = 0; i < {trip}; i = i + 1) {{ b[i] = a[i] * 2 + 1; }} \
         @red: for (let i: int = 0; i < {trip}; i = i + 1) {{ s = s + b[i]; }} \
         @rec: for (let i: int = 1; i < {trip}; i = i + 1) {{ a[i] = a[i - 1] + {c}; }} \
         @find: for (let i: int = 0; i < {trip}; i = i + 1) {{ \
           if (b[i] > 20 && first < 0) {{ first = i; }} }} \
         return s + first + a[{trip} - 1]; }}"
    );
    dca::ir::compile(&src).expect("generated module compiles")
}

#[test]
fn parallel_reports_match_sequential_across_seeds() {
    let mut rng = Rng::seed_from_u64(11);
    let m = mixed_module(24, 3);
    for _ in 0..6 {
        let seed = rng.next_u64();
        let cfg = DcaConfig {
            seed,
            ..DcaConfig::fast()
        };
        check_all_widths(&m, &cfg, &format!("seed={seed:#x}"));
    }
}

#[test]
fn parallel_reports_match_sequential_across_programs() {
    let mut rng = Rng::seed_from_u64(12);
    for case in 0..5 {
        let trip = rng.range_usize(6, 40);
        let c = rng.range_i64(2, 9);
        let m = mixed_module(trip, c);
        check_all_widths(
            &m,
            &DcaConfig::fast(),
            &format!("case {case} trip={trip} c={c}"),
        );
    }
}

#[test]
fn parallel_reports_match_sequential_on_suite_programs() {
    for name in ["ep", "bfs"] {
        let p = dca::suite::by_name(name).expect("suite program");
        let m = p.module();
        let args = p.targs();
        let seq = Dca::new(DcaConfig {
            threads: 1,
            ..DcaConfig::fast()
        })
        .analyze(&m, &args)
        .expect("sequential analysis");
        let par = Dca::new(DcaConfig {
            threads: 4,
            ..DcaConfig::fast()
        })
        .analyze(&m, &args)
        .expect("parallel analysis");
        assert_reports_identical(&seq, &par, name);
        assert_eq!(par.threads, 4);
    }
}

#[test]
fn parallel_matches_sequential_under_loop_exit_scope() {
    // The loop-exit scope takes its reference from a golden recording
    // stopped at the loop exit; it must stay deterministic too.
    let m = mixed_module(20, 5);
    let cfg = DcaConfig {
        verify_scope: dca::core::VerifyScope::LoopExit,
        ..DcaConfig::fast()
    };
    check_all_widths(&m, &cfg, "loop-exit scope");
}

#[test]
fn auto_thread_count_honours_dca_threads_env() {
    // CI runs this whole file in a matrix with DCA_THREADS forced to 1,
    // 2 and 8; `threads: 0` must resolve to exactly that width, and the
    // report must still be identical to the sequential one.
    let m = mixed_module(18, 4);
    let auto = Dca::new(DcaConfig {
        threads: 0,
        ..DcaConfig::fast()
    })
    .analyze_module(&m)
    .expect("auto-width analysis");
    if let Ok(forced) = std::env::var("DCA_THREADS") {
        let expected: usize = forced.parse().expect("DCA_THREADS is an integer");
        assert_eq!(
            auto.threads, expected,
            "DCA_THREADS must win over auto-detect"
        );
    }
    let seq = Dca::new(DcaConfig {
        threads: 1,
        ..DcaConfig::fast()
    })
    .analyze_module(&m)
    .expect("sequential analysis");
    assert_reports_identical(&seq, &auto, "auto width");
}

#[test]
fn obs_counters_identical_across_widths() {
    // The observability rollup rides the same deterministic fold as the
    // verdicts: counter values and span *counts* must not depend on the
    // worker count (durations legitimately do).
    let m = mixed_module(22, 3);
    let deterministic_view = |r: &DcaReport| {
        let obs = r.obs.clone().expect("metrics enabled");
        let spans: Vec<(String, u64)> = obs
            .spans
            .iter()
            .map(|(k, s)| (k.clone(), s.count))
            .collect();
        (obs.counters, spans)
    };
    let base = DcaConfig {
        obs: dca::core::ObsOptions::metrics(),
        ..DcaConfig::fast()
    };
    let seq = Dca::new(DcaConfig {
        threads: 1,
        ..base.clone()
    })
    .analyze_module(&m)
    .expect("sequential analysis");
    let reference = deterministic_view(&seq);
    for threads in [2, 4, 7] {
        let par = Dca::new(DcaConfig {
            threads,
            ..base.clone()
        })
        .analyze_module(&m)
        .expect("parallel analysis");
        assert_reports_identical(&seq, &par, &format!("obs threads={threads}"));
        assert_eq!(
            deterministic_view(&par),
            reference,
            "obs counters/span counts differ at threads={threads}"
        );
    }
}
