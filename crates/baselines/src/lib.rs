//! The five state-of-the-art parallelism detectors the paper evaluates DCA
//! against (§V-A), behind one [`Detector`] interface — plus an adapter
//! putting DCA itself behind the same interface so the evaluation tables
//! can iterate over all six techniques uniformly.
//!
//! * Dynamic, profile-driven ([`dynamics`]): [`DependenceProfiling`]
//!   (Tournavitis et al. 2009) and [`DiscoPopStyle`] (Li et al. 2016),
//!   built on the shared memory-dependence tracer in [`trace`].
//! * Static ([`statics`]): [`IdiomsStyle`] (Ginsbach & O'Boyle 2017),
//!   [`PollyStyle`] (Grosser et al. 2012) and [`IccStyle`].
//!
//! # Example
//!
//! ```
//! use dca_baselines::{Detector, PollyStyle, DependenceProfiling};
//!
//! let module = dca_ir::compile(
//!     "fn main() { let a: [int; 16];
//!          @l: for (let i: int = 0; i < 16; i = i + 1) { a[i] = i; } }",
//! ).map_err(|e| e.to_string())?;
//! let l = dca_ir::all_loops(&module)[0].0;
//! assert!(PollyStyle.detect(&module, &[]).is_parallel(l));
//! assert!(DependenceProfiling.detect(&module, &[]).is_parallel(l));
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]

pub mod dca_adapter;
pub mod detect;
pub mod dynamics;
pub mod statics;
pub mod trace;

pub use dca_adapter::DcaDetector;
pub use detect::{DetectionReport, Detector, LoopDetection, Technique};
pub use dynamics::{disagreements, shared_trace, DependenceProfiling, DiscoPopStyle};
pub use statics::{IccStyle, IdiomsStyle, PollyStyle};
pub use trace::{trace_dependences, DepTracer, LoopDeps, TraceError, TraceReport};

use dca_interp::Value;
use dca_ir::{LoopRef, Module};
use std::collections::BTreeSet;

/// Runs the three static techniques and combines their findings: a loop
/// counts as detected when *any* of Idioms, Polly or ICC reports it
/// (the paper's "Combined Static", Table III).
pub fn combined_static(module: &Module) -> BTreeSet<LoopRef> {
    let mut out = BTreeSet::new();
    for det in [&IdiomsStyle as &dyn Detector, &PollyStyle, &IccStyle] {
        out.extend(det.detect(module, &[]).parallel_loops());
    }
    out
}

/// Convenience: every detector (five baselines + DCA), boxed, in the
/// paper's presentation order.
pub fn all_detectors(dca_config: dca_core::DcaConfig) -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(DependenceProfiling),
        Box::new(DiscoPopStyle),
        Box::new(IdiomsStyle),
        Box::new(PollyStyle),
        Box::new(IccStyle),
        Box::new(DcaDetector::new(dca_config)),
    ]
}

/// Runs one detector and returns just the parallel set (helper for tables).
pub fn parallel_set(det: &dyn Detector, module: &Module, args: &[Value]) -> BTreeSet<LoopRef> {
    det.detect(module, args).parallel_loops().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_static_is_a_union() {
        // A reduction (Idioms+ICC) and a map (Polly+ICC): combined = both.
        let m = dca_ir::compile(
            "fn main() -> int { let a: [int; 8]; let s: int = 0; \
             @map: for (let i: int = 0; i < 8; i = i + 1) { a[i] = i; } \
             @red: for (let i: int = 0; i < 8; i = i + 1) { s = s + a[i]; } \
             return s; }",
        )
        .expect("compile");
        let combined = combined_static(&m);
        assert_eq!(combined.len(), 2);
        let polly = parallel_set(&PollyStyle, &m, &[]);
        let idioms = parallel_set(&IdiomsStyle, &m, &[]);
        assert_eq!(polly.len(), 1);
        assert_eq!(idioms.len(), 1);
        assert!(polly.is_disjoint(&idioms));
    }

    #[test]
    fn all_detectors_cover_six_techniques() {
        let dets = all_detectors(dca_core::DcaConfig::fast());
        let names: Vec<_> = dets.iter().map(|d| d.technique()).collect();
        assert_eq!(names.len(), 6);
        assert!(names.contains(&Technique::Dca));
        assert!(names.contains(&Technique::Polly));
    }
}
