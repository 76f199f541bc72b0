//! Property-based tests over the core invariants, using generated
//! programs and inputs. Cases are generated from a fixed-seed [`Rng`], so
//! every run explores the same space deterministically.

use dca::core::{Dca, DcaConfig, DigestMode, LoopVerdict};
use dca::interp::Value;
use dca_rng::Rng;

/// A small generator of pure arithmetic expressions over `a[i]`, `i` and
/// constants — every loop of the form `a[i] = <expr>` is a map and must be
/// commutative.
fn gen_expr(rng: &mut Rng, depth: usize) -> String {
    if depth == 0 || rng.below(3) == 0 {
        match rng.below(3) {
            0 => "a[i]".to_string(),
            1 => "i".to_string(),
            _ => rng.range_i64(1, 9).to_string(),
        }
    } else {
        let l = gen_expr(rng, depth - 1);
        let r = gen_expr(rng, depth - 1);
        let op = ["+", "*", "-"][rng.range_usize(0, 3)];
        format!("({l} {op} {r})")
    }
}

#[test]
fn generated_map_loops_are_commutative() {
    let mut rng = Rng::seed_from_u64(1);
    for case in 0..24 {
        let expr = gen_expr(&mut rng, 3);
        let n = rng.range_usize(3, 24);
        let src = format!(
            "fn main() -> int {{ let a: [int; 32]; let s: int = 0; \
             @m: for (let i: int = 0; i < {n}; i = i + 1) {{ a[i] = {expr}; }} \
             for (let i: int = 0; i < {n}; i = i + 1) {{ s = s + a[i] * (i + 1); }} \
             return s; }}"
        );
        let m = dca::ir::compile(&src).expect("compile");
        let report = Dca::new(DcaConfig::fast())
            .analyze_module(&m)
            .expect("analyze");
        assert_eq!(
            report.by_tag("m").expect("m").verdict,
            LoopVerdict::Commutative,
            "case {case}: a[i] = {expr} with n={n}"
        );
    }
}

#[test]
fn generated_reduction_loops_are_commutative() {
    let mut rng = Rng::seed_from_u64(2);
    for case in 0..24 {
        let coef = rng.range_i64(1, 7);
        let n = rng.range_usize(3, 32);
        let op = if rng.flip() { "*" } else { "+" };
        let src = format!(
            "fn main() -> int {{ let s: int = 1; \
             @r: for (let i: int = 0; i < {n}; i = i + 1) {{ \
               s = s {op} (i % 5 + {coef}); }} \
             return s; }}"
        );
        let m = dca::ir::compile(&src).expect("compile");
        let report = Dca::new(DcaConfig::fast())
            .analyze_module(&m)
            .expect("analyze");
        assert_eq!(
            report.by_tag("r").expect("r").verdict,
            LoopVerdict::Commutative,
            "case {case}: s = s {op} (i % 5 + {coef}) with n={n}"
        );
    }
}

#[test]
fn prefix_recurrences_are_never_commutative() {
    // a[i] = a[i-1] * c + i: genuinely order-sensitive, consumed by a
    // position-weighted checksum.
    let mut rng = Rng::seed_from_u64(3);
    for case in 0..24 {
        let n = rng.range_usize(4, 24);
        let c = rng.range_i64(2, 5);
        let src = format!(
            "fn main() -> int {{ let a: [int; 32]; a[0] = 1; let s: int = 0; \
             @rec: for (let i: int = 1; i < {n}; i = i + 1) {{ \
               a[i] = a[i - 1] * {c} + i; }} \
             for (let i: int = 0; i < {n}; i = i + 1) {{ s = s + a[i] * (i + 1); }} \
             return s; }}"
        );
        let m = dca::ir::compile(&src).expect("compile");
        let report = Dca::new(DcaConfig::fast())
            .analyze_module(&m)
            .expect("analyze");
        assert!(
            matches!(
                report.by_tag("rec").expect("rec").verdict,
                LoopVerdict::NonCommutative(_)
            ),
            "case {case}: n={n} c={c}"
        );
    }
}

#[test]
fn parser_never_panics() {
    // Arbitrary near-token soup must produce Ok or Err, never a panic.
    const CHARSET: &[u8] = b"abcxyz0123(){};:=<>+*-@ \n";
    let mut rng = Rng::seed_from_u64(4);
    for _ in 0..200 {
        let len = rng.range_usize(0, 160);
        let src: String = (0..len)
            .map(|_| CHARSET[rng.range_usize(0, CHARSET.len())] as char)
            .collect();
        let _ = dca::ir::compile(&src);
    }
    // Arbitrary token slices, empty and `Eof`-less ones included, drawn
    // from every token a suite program and a few extra lines contain.
    let source = format!(
        "{}\nfn f(p: *N, q: [int; 4]) -> bool {{ print(\"x\\n\", 1.5e3 as int); \
         return !(p == null) || 3 % 2 != 1 & 4 | 5 ^ 6 << 1 >> 2 <= 7; }}",
        dca::suite::by_name("bfs").expect("bfs").source
    );
    let pool = dca::lang::lex(&source).expect("pool lexes");
    for case in 0..400 {
        // A window of the pool, from its start every fourth case so that
        // parsing gets deep, with about one token in eight replaced.
        let len = if case < 2 {
            case
        } else {
            rng.range_usize(0, 80)
        };
        let start = if case % 4 == 0 {
            0
        } else {
            rng.range_usize(0, pool.len() - len)
        };
        let mut tokens = pool[start..start + len].to_vec();
        for t in &mut tokens {
            if rng.below(8) == 0 {
                *t = pool[rng.range_usize(0, pool.len())];
            }
        }
        if rng.below(2) == 0 {
            tokens.push(*pool.last().expect("the pool ends with `Eof`"));
        }
        if let Ok(ast) = dca::lang::parse(&tokens) {
            if let Ok(checked) = dca::lang::check(ast) {
                let _ = dca::ir::lower(&checked);
            }
        }
    }
}

#[test]
fn interpreter_is_deterministic() {
    let p = dca::suite::by_name("ep").expect("ep");
    let m = p.module();
    let mut rng = Rng::seed_from_u64(5);
    for _ in 0..8 {
        let seed = rng.range_i64(0, 1000);
        let args = [Value::Int(4 + seed % 4), Value::Int(8)];
        let a = dca::interp::run_program(&m, &args).expect("run");
        let b = dca::interp::run_program(&m, &args).expect("run");
        assert_eq!(a.ret, b.ret);
        assert_eq!(a.output, b.output);
        assert_eq!(a.steps, b.steps);
    }
}

/// Generates a program that touches every journaled dimension: a global
/// array mutated in place, frame variables, fresh heap allocations and
/// the output stream. The `oob` bound, when below `heap`, makes the
/// second loop trap mid-write after a few stores have already landed.
fn gen_journal_program(rng: &mut Rng, heap: usize, oob: Option<usize>) -> String {
    let trip = rng.range_usize(2, heap + 1);
    let expr = gen_expr(rng, 2).replace("a[i]", "g[i]");
    let limit = oob.map_or(trip, |bound| bound + 1);
    format!(
        "let g: [int; {heap}];\n\
         fn main() -> int {{\n\
           let s: int = 0;\n\
           for (let i: int = 0; i < {heap}; i = i + 1) {{ g[i] = i * 3; }}\n\
           for (let i: int = 0; i < {limit}; i = i + 1) {{\n\
             g[i] = {expr}; s = s + g[i];\n\
           }}\n\
           let n: *int = new [int; {trip}];\n\
           n[0] = s; print(s);\n\
           return s + n[0] + g[{trip} - 1];\n\
         }}"
    )
}

/// Differential oracle for the tentpole: for generated programs, snapshot
/// points and trap shapes, a journaled [`Machine::rollback`] must leave
/// the machine bit-identical to the snapshot it was armed at — the same
/// state a full [`Machine::restore`] reconstructs — and a rerun from the
/// rolled-back machine must replay identically to one from a fresh
/// restore.
#[test]
fn journal_rollback_equals_full_restore() {
    use dca::interp::{Machine, NoHooks, Trap};

    let mut rng = Rng::seed_from_u64(7);
    for case in 0..32 {
        // One third of the cases trap out-of-bounds mid-loop, after some
        // journaled writes have already landed; the rest run clean.
        let heap = rng.range_usize(4, 16);
        let oob = (case % 3 == 0).then_some(heap);
        let src = gen_journal_program(&mut rng, heap, oob);
        let m = dca::ir::compile(&src).expect("generated program compiles");
        let main = m.main().expect("main");

        let mut machine = Machine::new(&m);
        machine.push_call(main, &[]).expect("push");
        // Random snapshot point, then arm the journal exactly there. A
        // warmup that already hit the trap leaves nothing to journal.
        let warmup = rng.range_u64(1, 40);
        let Ok(warm) = machine.run(&mut NoHooks, warmup) else {
            continue;
        };
        let snap = machine.snapshot();
        machine.begin_journal();
        let first = machine.run(&mut NoHooks, 100_000);
        if oob.is_some() && warm == dca::interp::Outcome::Paused {
            assert!(
                matches!(first, Err(Trap::OutOfBounds { .. })),
                "case {case}: expected a trap inside the journaled region"
            );
        }
        machine.rollback();
        assert_eq!(
            machine.snapshot(),
            snap,
            "case {case}: rollback diverged from the armed snapshot\n{src}"
        );

        // A fresh machine through the full-restore path is the oracle.
        let mut oracle = Machine::new(&m);
        oracle.restore(&snap);
        assert_eq!(oracle.snapshot(), snap, "case {case}: full restore");

        // Replays from both paths stay in lockstep.
        let a = machine.run(&mut NoHooks, 100_000);
        let b = oracle.run(&mut NoHooks, 100_000);
        assert_eq!(a, b, "case {case}: rerun outcomes diverge");
        assert_eq!(machine.output(), oracle.output(), "case {case}: output");
        assert_eq!(machine.steps(), oracle.steps(), "case {case}: steps");
    }
}

/// An injected allocation fault firing *inside* a journaled region (the
/// engine's `FaultKind::AllocFail` shape) must also roll back cleanly:
/// the machine rewinds to the snapshot and, with the fault cleared,
/// replays to the same result as a machine that never faulted.
#[test]
fn journal_rollback_survives_injected_alloc_fault() {
    use dca::interp::{Machine, NoHooks, Trap};

    let mut rng = Rng::seed_from_u64(8);
    for case in 0..16 {
        let heap = rng.range_usize(4, 12);
        let src = gen_journal_program(&mut rng, heap, None);
        let m = dca::ir::compile(&src).expect("generated program compiles");
        let main = m.main().expect("main");

        let mut machine = Machine::new(&m);
        machine.push_call(main, &[]).expect("push");
        machine.run(&mut NoHooks, 5).expect("warmup");
        let snap = machine.snapshot();
        machine.begin_journal();
        // The generated program allocates once after its loops; fail it.
        machine.fail_alloc_after(0);
        assert_eq!(
            machine.run(&mut NoHooks, 100_000),
            Err(Trap::OutOfMemory),
            "case {case}: injected fault must fire inside the journal"
        );
        machine.rollback();
        machine.clear_alloc_fault();
        assert_eq!(machine.snapshot(), snap, "case {case}: rollback");

        let mut clean = Machine::new(&m);
        clean.restore(&snap);
        let a = machine.run(&mut NoHooks, 100_000);
        let b = clean.run(&mut NoHooks, 100_000);
        assert_eq!(a, b, "case {case}: post-fault rerun diverges");
        assert_eq!(machine.output(), clean.output(), "case {case}: output");
    }
}

#[test]
fn simulator_speedup_is_bounded_by_cores_and_work() {
    let mut rng = Rng::seed_from_u64(6);
    for _ in 0..64 {
        let len = rng.range_usize(1, 300);
        let costs: Vec<u64> = (0..len).map(|_| rng.range_u64(1, 500)).collect();
        let cores = rng.range_usize(1, 96);
        let cfg = dca::parallel::SimConfig::with_cores(cores);
        let r = dca::parallel::simulate_invocation(&costs, &cfg);
        let seq: u64 = costs.iter().sum();
        assert_eq!(r.seq_steps, seq);
        assert!(r.speedup() <= cores as f64 + 1e-9);
        // The critical path can never beat the largest single iteration.
        if cores > 1 {
            let max = *costs.iter().max().expect("non-empty");
            assert!(r.par_steps >= max);
        }
    }
}

/// The hashed verification tier is a pure optimization: at zero float
/// tolerance and at `1e-8`, `DigestMode::Auto` (streamed 128-bit
/// fingerprints, tier 1, falling back to the structural digests only on
/// a mismatch) must produce a report bit-identical to `DigestMode::Structural` (the
/// materializing oracle) — same verdicts including `Violation` payloads,
/// same trips and permutation counts, same replay-step accounting — for
/// generated programs whose live-out heaps mix int cells, float cells
/// seeded with NaN and `-0.0`, commutative and non-commutative loops,
/// at every worker-thread width.
#[test]
fn hash_digest_equals_structural_digest() {
    let mut rng = Rng::seed_from_u64(11);
    for case in 0..10 {
        let expr = gen_expr(&mut rng, 2);
        let n = rng.range_usize(4, 24);
        let c = rng.range_i64(1, 9);
        // Every third float cell is NaN (0.0 / 0.0) and every fourth is
        // -0.0 ((0.0 - 1.0) * 0.0); both are produced identically by any
        // iteration order, so @fmap stays commutative only if the
        // comparator canonicalizes them — in both tiers.
        let src = format!(
            "fn main() -> float {{ \
             let a: [int; 32]; let f: [float; 32]; let s: int = 0; \
             @imap: for (let i: int = 0; i < {n}; i = i + 1) {{ a[i] = {expr}; }} \
             @fmap: for (let i: int = 0; i < {n}; i = i + 1) {{ \
               if (i % 3 == 0) {{ f[i] = 0.0 / 0.0; }} \
               else {{ if (i % 4 == 0) {{ f[i] = (0.0 - 1.0) * 0.0; }} \
               else {{ f[i] = (i as float) / 3.0; }} }} }} \
             @red: for (let i: int = 0; i < {n}; i = i + 1) {{ s = s + a[i] * (i + 1); }} \
             @rec: for (let i: int = 1; i < {n}; i = i + 1) {{ a[i] = a[i - 1] + {c}; }} \
             @ncr: for (let i: int = 0; i < {n}; i = i + 1) {{ s = s * 2 + i; }} \
             return f[1] + (s as float); }}"
        );
        let m = dca::ir::compile(&src).expect("compile");
        // The hashed tier runs at every tolerance: a fingerprint match
        // settles a replay, a mismatch falls through to the digests.
        for (threads, tol) in [1, 2, 4].into_iter().flat_map(|t| [(t, 0.0), (t, 1e-8)]) {
            let hashed = Dca::new(DcaConfig {
                threads,
                float_tolerance: tol,
                ..DcaConfig::exact()
            })
            .analyze_module(&m)
            .expect("hashed analysis");
            let structural = Dca::new(DcaConfig {
                threads,
                float_tolerance: tol,
                digest: DigestMode::Structural,
                ..DcaConfig::exact()
            })
            .analyze_module(&m)
            .expect("structural analysis");
            assert_eq!(
                hashed.len(),
                structural.len(),
                "case {case} threads={threads} tol={tol}: loop counts differ"
            );
            for (h, st) in hashed.iter().zip(structural.iter()) {
                assert_eq!(
                    h, st,
                    "case {case} threads={threads} tol={tol}: outcome differs at {}",
                    h.lref
                );
                assert_eq!(
                    h.replay_steps, st.replay_steps,
                    "case {case} threads={threads} tol={tol}: replay accounting differs at {}",
                    h.lref
                );
            }
            assert!(
                hashed
                    .by_tag("fmap")
                    .expect("fmap")
                    .verdict
                    .is_commutative(),
                "case {case} threads={threads} tol={tol}: NaN/-0.0 map must stay commutative"
            );
            // `s = s * 2 + i` weights each iteration by a distinct power
            // of two, so no permutation preserves it — unlike @rec, which
            // a generated @imap can accidentally leave at a fixpoint.
            assert!(
                !hashed.by_tag("ncr").expect("ncr").verdict.is_commutative(),
                "case {case} threads={threads} tol={tol}: order-sensitive reduction must stay refuted"
            );
        }
    }
}
