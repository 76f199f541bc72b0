//! Benches for the individual DCA pipeline stages (paper Fig. 3): static
//! analyses, golden recording, and permuted replay.

use dca_analysis::{EffectMap, IteratorSlice, Liveness};
use dca_bench::harness::Harness;
use dca_core::{record_golden, run_replay, DcaConfig, ReplayController, ReplayGovernor};
use dca_interp::Machine;
use dca_ir::FuncView;
use std::hint::black_box;

fn fixture() -> (dca_ir::Module, dca_ir::LoopRef, Vec<dca_interp::Value>) {
    let p = dca_suite::by_name("ep").expect("ep exists");
    let m = p.module();
    let l = p.loop_by_tag(&m, "blocks").expect("blocks loop");
    (m, l, p.targs())
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

fn main() {
    let mut h = Harness::new().sample_size(20);
    bench_static_stage(&mut h);
    bench_dynamic_stage(&mut h);
    h.finish();
}
