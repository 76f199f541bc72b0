//! Differential testing against constructed ground truth: generate loops
//! from archetypes whose commutativity is known by construction, then
//! check that DCA's verdict (and, where the archetype pins it down, the
//! dependence profiler's) matches.

use dca::baselines::{DependenceProfiling, Detector};
use dca::core::{Dca, DcaConfig, LoopVerdict};
use dca_rng::Rng;
use support::{Archetype, ARCHETYPES};

mod support;

#[test]
fn dca_matches_constructed_ground_truth() {
    let mut rng = Rng::seed_from_u64(0xDCA);
    for case in 0..48 {
        let arch = *rng.choose(&ARCHETYPES).expect("non-empty");
        let n = rng.range_usize(4, 48);
        let k = rng.range_i64(1, 12);
        let src = arch.source(n, k);
        let m = dca::ir::compile(&src).expect("generated programs compile");
        let report = Dca::new(DcaConfig::fast())
            .analyze_module(&m)
            .expect("analyze");
        let r = report.by_tag("l").expect("tagged loop");
        if arch.commutative() {
            assert_eq!(
                r.verdict,
                LoopVerdict::Commutative,
                "case {case}: {arch:?} n={n} k={k} must be commutative, got {} ({src})",
                r.verdict
            );
        } else {
            // Degenerate parameter combinations can make even a recurrence
            // outcome-invariant; require only that no *exercised* verdict
            // claims commutativity when a distinguishing permutation
            // exists. For these archetypes the constructions above are
            // non-degenerate by choice of constants.
            assert!(
                matches!(r.verdict, LoopVerdict::NonCommutative(_)),
                "case {case}: {arch:?} n={n} k={k} must be refuted, got {}",
                r.verdict
            );
        }
        if let Some(expected) = arch.depprof() {
            let dep = DependenceProfiling.detect(&m, &[]);
            let lref = r.lref;
            assert_eq!(
                dep.is_parallel(lref),
                expected,
                "DepProf on {arch:?}: {:?}",
                dep.get(lref)
            );
        }
    }
}

#[test]
fn every_archetype_has_both_verdict_classes_covered() {
    let classes: Vec<bool> = [
        Archetype::Map,
        Archetype::Reduction,
        Archetype::Histogram,
        Archetype::Recurrence,
        Archetype::Gather,
        Archetype::FirstMatch,
    ]
    .iter()
    .map(|a| a.commutative())
    .collect();
    assert!(classes.contains(&true) && classes.contains(&false));
}
