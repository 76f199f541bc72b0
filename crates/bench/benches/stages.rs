//! Benches for the individual DCA pipeline stages (paper Fig. 3): the
//! frontend, static analyses, golden recording, and permuted replay, and
//! the executor's pass over the suite's proven loops.

use dca_analysis::{EffectMap, IteratorSlice, Liveness};
use dca_bench::harness::Harness;
use dca_core::{record_golden, run_replay, DcaConfig, ReplayController, ReplayGovernor};
use dca_interp::Machine;
use dca_ir::FuncView;
use dca_parallel::{execute_loop, ExecConfig};
use std::hint::black_box;

fn fixture() -> (dca_ir::Module, dca_ir::LoopRef, Vec<dca_interp::Value>) {
    let p = dca_suite::by_name("ep").expect("ep exists");
    let m = p.module();
    let l = p.loop_by_tag(&m, "blocks").expect("blocks loop");
    (m, l, p.targs())
}

/// The frontend over the whole suite, one arm per stage, each fed the
/// previous stage's output for all 24 programs. `frontend/sema` clones
/// the parsed programs it checks, since checking consumes them.
fn bench_frontend(h: &mut Harness) {
    let sources: Vec<&str> = dca_suite::all_programs().iter().map(|p| p.source).collect();
    let lex = |s: &&'static str| dca_lang::lex(s).expect("suite program lexes");
    h.bench_function("frontend/lex", |b| {
        b.iter(|| sources.iter().map(lex).collect::<Vec<_>>())
    });
    let tokens: Vec<_> = sources.iter().map(lex).collect();
    let parse = |t: &Vec<_>| dca_lang::parse(t).expect("suite program parses");
    h.bench_function("frontend/parse", |b| {
        b.iter(|| tokens.iter().map(parse).collect::<Vec<_>>())
    });
    let asts: Vec<_> = tokens.iter().map(parse).collect();
    let check = |a: &dca_lang::Program| dca_lang::check(a.clone()).expect("suite program checks");
    h.bench_function("frontend/sema", |b| {
        b.iter(|| asts.iter().map(check).collect::<Vec<_>>())
    });
    let checked: Vec<_> = asts.iter().map(check).collect();
    let lower = |c: &dca_lang::CheckedProgram| dca_ir::lower(c).expect("suite program lowers");
    h.bench_function("frontend/lower", |b| {
        b.iter(|| checked.iter().map(lower).collect::<Vec<_>>())
    });
    let modules: Vec<_> = checked.iter().map(lower).collect();
    h.bench_function("frontend/all_loops", |b| {
        b.iter(|| modules.iter().map(dca_ir::all_loops).collect::<Vec<_>>())
    });
}

fn bench_static_stage(h: &mut Harness) {
    let (m, lref, _) = fixture();
    h.bench_function("static/effect_map", |b| {
        b.iter(|| black_box(EffectMap::new(&m)))
    });
    h.bench_function("static/func_view", |b| {
        b.iter(|| black_box(FuncView::new(&m, lref.func)))
    });
    let view = FuncView::new(&m, lref.func);
    h.bench_function("static/liveness", |b| {
        b.iter(|| black_box(Liveness::new(&view)))
    });
    let effects = EffectMap::new(&m);
    let l = view.loops.get(lref.loop_id);
    h.bench_function("static/iterator_recognition", |b| {
        b.iter(|| black_box(IteratorSlice::compute_with(&view, l, &effects)))
    });
}

fn bench_dynamic_stage(h: &mut Harness) {
    let (m, lref, args) = fixture();
    let view = FuncView::new(&m, lref.func);
    let l = view.loops.get(lref.loop_id);
    let slice = IteratorSlice::compute(&view, l);
    let main = m.main().expect("main");
    h.bench_function("dynamic/golden_recording", |b| {
        b.iter(|| {
            let mut machine = Machine::new(&m);
            black_box(
                record_golden(
                    &mut machine,
                    main,
                    &args,
                    lref.func,
                    l,
                    &slice,
                    0,
                    0,
                    DcaConfig::DEFAULT_MAX_TRIP,
                    u64::MAX,
                    None,
                    None,
                    false,
                    None,
                )
                .expect("record"),
            )
        })
    });
    let mut machine = Machine::new(&m);
    let golden = record_golden(
        &mut machine,
        main,
        &args,
        lref.func,
        l,
        &slice,
        0,
        0,
        DcaConfig::DEFAULT_MAX_TRIP,
        u64::MAX,
        None,
        None,
        false,
        None,
    )
    .expect("record");
    let perm: Vec<usize> = (0..golden.iters.len()).rev().collect();
    h.bench_function("dynamic/permuted_replay", |b| {
        b.iter(|| {
            machine.restore(&golden.snapshot);
            let mut ctl =
                ReplayController::new(lref.func, m.func(lref.func), l, &slice, &golden, &perm);
            black_box(run_replay(
                &mut machine,
                &mut ctl,
                false,
                u64::MAX,
                ReplayGovernor::default(),
            ))
        })
    });
    h.bench_function("dynamic/full_loop_test", |b| {
        let dca = dca_core::Dca::new(DcaConfig::fast());
        b.iter(|| black_box(dca.test_loop(&m, lref, &args).expect("test")))
    });
}

/// Every loop DCA proves at `targs()`, executed on two workers, each
/// program on a fresh clone of its module: no compiled code and no entry
/// cursor carries over between samples, so each program is run up to
/// its loops once per sample.
fn bench_exec_pass(h: &mut Harness) {
    let dca = dca_core::Dca::new(DcaConfig::fast());
    let programs: Vec<_> = dca_suite::all_programs()
        .into_iter()
        .map(|p| {
            let (m, args) = (p.module(), p.targs());
            let report = dca.analyze(&m, &args).expect("analyze");
            let proven: Vec<_> = report.commutative_loops().map(|r| r.lref).collect();
            (m, args, proven)
        })
        .collect();
    let cfg = ExecConfig {
        threads: 2,
        ..ExecConfig::from_dca(&DcaConfig::fast())
    };
    let obs = dca_core::Obs::disabled();
    h.bench_function("exec/suite_pass", |b| {
        b.iter(|| {
            for (m, args, proven) in &programs {
                let m = m.clone();
                for &lref in proven {
                    let _ = black_box(execute_loop(&m, args, lref, &cfg, &obs));
                }
            }
        })
    });
}

fn main() {
    let mut h = Harness::new().sample_size(20);
    bench_frontend(&mut h);
    bench_static_stage(&mut h);
    bench_dynamic_stage(&mut h);
    bench_exec_pass(&mut h);
    h.finish();
}
