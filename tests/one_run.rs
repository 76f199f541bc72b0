//! One golden run per program against per-loop golden runs.
//!
//! `record_program` records every tested loop of a program in a single
//! run of it. The interpreter is deterministic, so each loop's records
//! must be exactly the ones `record_golden` gives when it runs the
//! program for that loop alone. This checks it on every suite program,
//! at both verification scopes, for the first two eligible invocations
//! of every loop the static stage does not exclude.

use dca::analysis::{exclusion, EffectMap, IteratorSlice};
use dca::core::{record_golden, record_program, DcaConfig, RecordRequest};
use dca::interp::{Machine, Value};
use dca::ir::{FuncView, Module};

/// Invocations requested per loop: the second exercises a watch that
/// keeps recording after its first kept invocation.
const INVOCATIONS: u32 = 2;

/// Compares one program's one-run records with its per-loop runs, and
/// returns how many records were compared.
fn check(name: &str, m: &Module, args: &[Value], stop_at_exit: bool) -> usize {
    let cfg = DcaConfig::fast();
    let main = m.main().expect("main");
    let effects = EffectMap::new(m);
    let io = effects.io_funcs();
    let views: Vec<FuncView<'_>> = (0..m.funcs.len())
        .map(|i| FuncView::new(m, dca::ir::FuncId(i as u32)))
        .collect();
    let mut tested = Vec::new();
    for view in &views {
        for l in view.loops.iter() {
            let slice = IteratorSlice::compute_with(view, l, &effects);
            if exclusion(view, l, &slice, &io).is_none() {
                tested.push((view, l, slice));
            }
        }
    }
    let requests = tested
        .iter()
        .map(|(view, l, slice)| RecordRequest {
            func: view.id,
            l,
            slice,
            invocations: 0..INVOCATIONS,
            min_trip: 2,
            max_trip: cfg.max_trip,
            probe: None,
            stop_at_fresh: false,
        })
        .collect();
    let run = record_program(
        &mut Machine::new(m),
        main,
        args,
        requests,
        cfg.max_steps,
        None,
        None,
        stop_at_exit,
        &mut |_, _| {},
    );
    assert_eq!(run.loops.len(), tested.len());
    let mut compared = 0;
    for ((view, l, slice), records) in tested.iter().zip(&run.loops) {
        let what = format!("{name} {} (stop_at_exit {stop_at_exit})", l.id.0);
        assert!(
            !records.is_empty() && records.len() <= INVOCATIONS as usize,
            "{what}: {} results",
            records.len()
        );
        assert!(
            records[..records.len() - 1].iter().all(Result::is_ok),
            "{what}: the results end at the first failure"
        );
        for (invocation, one_run) in records.iter().enumerate() {
            let alone = record_golden(
                &mut Machine::new(m),
                main,
                args,
                view.id,
                l,
                slice,
                invocation as u32,
                2,
                cfg.max_trip,
                cfg.max_steps,
                None,
                None,
                stop_at_exit,
                None,
            );
            let what = format!("{what} invocation {invocation}");
            match (one_run, &alone) {
                (Ok(a), Ok(b)) => {
                    assert!(*a.snapshot == *b.snapshot, "{what}: snapshot");
                    assert_eq!(a.iters, b.iters, "{what}: iters");
                    assert_eq!(a.rec_vars, b.rec_vars, "{what}: rec_vars");
                    assert_eq!(a.outcome, b.outcome, "{what}: outcome");
                    assert_eq!(a.total_steps, b.total_steps, "{what}: total_steps");
                    assert_eq!(a.exit, b.exit, "{what}: exit");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{what}: error"),
                (a, b) => panic!(
                    "{what}: one run {:?}, alone {:?}",
                    a.as_ref().map(|g| g.iters.len()),
                    b.as_ref().map(|g| g.iters.len())
                ),
            }
            compared += 1;
        }
    }
    compared
}

#[test]
fn one_run_records_equal_per_loop_records_on_the_suite() {
    for stop_at_exit in [false, true] {
        let mut compared = 0;
        for p in dca::suite::all_programs() {
            compared += check(p.name, &p.module(), &p.targs(), stop_at_exit);
        }
        assert!(compared > 200, "only {compared} records compared");
    }
}
