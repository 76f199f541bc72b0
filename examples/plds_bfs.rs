//! The paper's Fig. 2 walkthrough: run every detection technique on the
//! worklist-based BFS from the suite and show that only DCA finds the
//! top-down step commutative — then simulate parallelizing it.
//!
//! Run with `cargo run --release --example plds_bfs`.

use dca::baselines::all_detectors;
use dca::parallel::SimConfig;
use std::collections::BTreeSet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = dca::suite::by_name("bfs").expect("bfs is in the suite");
    let module = program.module();
    let args = program.targs();

    let top_down = program
        .loop_by_tag(&module, "top_down")
        .expect("the Fig. 2 top-down loop");

    println!("Detection of the BFS top-down step (paper Fig. 2, lines 9-23):");
    for det in all_detectors(dca::core::DcaConfig::fast()) {
        let report = det.detect(&module, &args);
        let d = report.get(top_down).expect("loop analyzed");
        println!(
            "  {:<22} {}  ({})",
            det.technique().to_string(),
            if d.parallel { "PARALLEL" } else { "rejected" },
            d.reason
        );
    }

    // Parallelize what DCA found and estimate the speedup on the paper's
    // 72-core host (simulated).
    let selection = BTreeSet::from([top_down]);
    let speedup =
        dca::parallel::speedup_for_selection(&module, &args, &selection, &SimConfig::paper_host())?;
    println!("\nSimulated 72-core speedup from the top-down step alone: {speedup:.2}x");

    let facts = dca::core::LoopFacts::for_loop(&module, top_down, &dca::core::Obs::disabled());
    let plan = dca::parallel::ParallelPlan::build(&facts);
    println!(
        "Parallelization plan: {} private vars, {} control vars, {} reductions",
        plan.private.len(),
        plan.control.len(),
        plan.reductions.len()
    );
    Ok(())
}
