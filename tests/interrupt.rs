//! Kill/resume determinism for the write-ahead run journal.
//!
//! An analysis suite interrupted mid-flight by cooperative cancellation
//! and resumed against the same journal must produce a final report
//! bit-identical to an uninterrupted run — verdicts, trip and
//! permutation counters, and the replay-step accounting — at worker
//! widths 1, 2 and 4. The interrupt points vary per program so cancels
//! land before, inside and after real verification work. Torn journal
//! tails (a kill mid-append) must degrade to re-running exactly the torn
//! loop, never to a panic or a wrong verdict. A clean run's journal
//! repeats byte for byte with one engine thread and line for line, in
//! any order, with more.

use dca::core::{Dca, DcaConfig, FaultPlan, LoopResult, LoopVerdict, SkipReason};
use std::path::PathBuf;

const WIDTHS: [usize; 3] = [1, 2, 4];

fn config(threads: usize) -> DcaConfig {
    DcaConfig {
        threads,
        ..DcaConfig::fast()
    }
}

/// Analyzes every suite program on its test workload — one `analyze`
/// call per program, all sharing `journal` when given — injecting
/// `fault(i)` into program `i`'s run.
fn run_suite(
    width: usize,
    journal: Option<&PathBuf>,
    fault: &dyn Fn(usize) -> Option<FaultPlan>,
) -> Vec<(String, Vec<LoopResult>)> {
    dca::suite::all_programs()
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let cfg = DcaConfig {
                journal: journal.cloned(),
                fault: fault(i),
                ..config(width)
            };
            let report = Dca::new(cfg)
                .analyze(&p.module(), &p.targs())
                .expect("analyze");
            (p.name.to_string(), report.iter().cloned().collect())
        })
        .collect()
}

#[test]
fn killed_suite_resumes_bit_identical_at_every_width() {
    let oracle = run_suite(1, None, &|_| None);
    for width in WIDTHS {
        let dir =
            std::env::temp_dir().join(format!("dca-interrupt-w{width}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let journal = dir.join("suite.journal");
        // Interrupt each program at a point that varies with its
        // position: loop ordinal i % 3, replay slot i % 2. Programs
        // whose targeted site does not exist simply run to completion.
        let interrupted = run_suite(width, Some(&journal), &|i| {
            Some(
                FaultPlan::parse(&format!("cancel@replay:{},loop:{}", i % 2, i % 3))
                    .expect("valid spec"),
            )
        });
        let cancelled: usize = interrupted
            .iter()
            .flat_map(|(_, rs)| rs)
            .filter(|r| r.verdict == LoopVerdict::Skipped(SkipReason::Cancelled))
            .count();
        assert!(
            cancelled > 0,
            "width {width}: the kill must actually land mid-suite"
        );
        // Resume against the same journal with the fault cleared.
        let resumed = run_suite(width, Some(&journal), &|_| None);
        let mut served = 0usize;
        for ((name, o), (_, r)) in oracle.iter().zip(&resumed) {
            assert_eq!(o.len(), r.len(), "width {width}: {name}: report incomplete");
            for (a, b) in o.iter().zip(r) {
                assert_eq!(a, b, "width {width}: {name} {} diverged on resume", a.lref);
                assert_eq!(
                    a.replay_steps, b.replay_steps,
                    "width {width}: {name} {} replay accounting diverged",
                    a.lref
                );
                served += usize::from(b.resumed);
            }
        }
        assert!(
            served > 0,
            "width {width}: some verdicts must be served from the journal"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn torn_journal_tail_degrades_to_rerunning_the_torn_loop() {
    let programs = dca::suite::all_programs();
    let p = programs[0];
    let m = p.module();
    let args = p.targs();
    let oracle = Dca::new(config(2)).analyze(&m, &args).expect("analyze");
    let dir = std::env::temp_dir().join(format!("dca-interrupt-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let journal = dir.join("suite.journal");
    let cfg = DcaConfig {
        journal: Some(journal.clone()),
        ..config(2)
    };
    let full = Dca::new(cfg.clone()).analyze(&m, &args).expect("analyze");
    assert_eq!(
        full.journal.as_ref().expect("stats").recorded as usize,
        oracle.len(),
        "every verdict of a clean run is journaled"
    );
    // A kill mid-append tears the final line.
    let text = std::fs::read_to_string(&journal).expect("journal on disk");
    std::fs::write(&journal, &text.as_bytes()[..text.len() - 10]).expect("tear");
    let resumed = Dca::new(cfg).analyze(&m, &args).expect("analyze");
    let js = resumed.journal.as_ref().expect("stats");
    assert_eq!(js.dropped, 1, "exactly the torn record is dropped");
    assert_eq!(
        js.resumed as usize,
        oracle.len() - 1,
        "every loop but the torn-away one is served from the journal"
    );
    for (o, r) in oracle.iter().zip(resumed.iter()) {
        assert_eq!(o, r, "torn tail must not change any verdict");
        assert_eq!(o.replay_steps, r.replay_steps);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The journal a clean run of the suite at `width` writes; `run` names
/// its file apart from other runs'.
fn clean_journal(width: usize, run: usize) -> String {
    let dir = std::env::temp_dir().join(format!(
        "dca-interrupt-order-w{width}-{run}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let journal = dir.join("suite.journal");
    run_suite(width, Some(&journal), &|_| None);
    let text = std::fs::read_to_string(&journal).expect("journal on disk");
    std::fs::remove_dir_all(&dir).ok();
    text
}

fn sorted_lines(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines
}

#[test]
fn journals_hold_the_same_lines_at_every_width() {
    // One engine thread appends the records in one order: the bytes
    // repeat. More threads append them as loops finish, in an order
    // thread timing sets: only the lines repeat.
    let single = clean_journal(1, 0);
    assert!(!single.is_empty());
    assert_eq!(clean_journal(1, 1), single, "one thread, the same bytes");
    for run in 0..2 {
        let multi = clean_journal(2, run);
        assert_eq!(
            sorted_lines(&multi),
            sorted_lines(&single),
            "two threads, run {run}: the same lines"
        );
    }
}
