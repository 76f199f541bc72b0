//! The benchmark suite of the DCA reproduction.
//!
//! Two groups, mirroring the paper's evaluation (§V-A):
//!
//! * **NPB-like** ([`npb`]): ten mini-C programs named after the NAS
//!   Parallel Benchmarks (BT, CG, DC, EP, FT, IS, LU, MG, SP, UA). Each
//!   reproduces the *loop population* of its namesake — the mix of loop
//!   idioms each detection technique can and cannot handle — at a scale
//!   an interpreter can execute (see DESIGN.md for the substitution
//!   argument).
//! * **PLDS** ([`plds`]): fourteen pointer-linked-data-structure programs
//!   re-implementing the loop-containing functions of Table II (mcf,
//!   twolf, ks, otter, em3d, mst, bh, perimeter, treeadd, hash, BFS,
//!   ising, spmatmat, water).
//!
//! Every loop in every program carries a source tag (`@name:`); the
//! expert annotations ([`expert`]) reference those tags to encode the
//! ground truth (which loops are order-insensitive) and the profitability
//! selection the paper's figures use.

#![warn(missing_docs)]

pub mod expert;
pub mod npb;
pub mod plds;

pub use expert::ExpertPlan;

use dca_interp::Value;
use dca_ir::{FuncId, FuncView, LoopRef, Module};

/// Which group a program belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Group {
    /// NPB-like array-based program.
    Npb,
    /// Pointer-linked data structure program.
    Plds,
}

/// One benchmark program.
#[derive(Debug, Clone)]
pub struct SuiteProgram {
    /// Short name (`"ep"`, `"bfs"`, ...).
    pub name: &'static str,
    /// Group.
    pub group: Group,
    /// mini-C source text.
    pub source: &'static str,
    /// Workload arguments for evaluation runs (the paper's class-B-like
    /// setting, scaled to interpreter speed).
    pub default_args: &'static [i64],
    /// Smaller arguments for unit/integration tests.
    pub test_args: &'static [i64],
    /// Expert annotations.
    pub expert: ExpertPlan,
}

impl SuiteProgram {
    /// Compiles the program to IR.
    ///
    /// # Panics
    ///
    /// Panics if the shipped source fails to compile — that is a bug in
    /// the suite, covered by tests.
    pub fn module(&self) -> Module {
        dca_ir::compile(self.source)
            .unwrap_or_else(|e| panic!("suite program `{}` failed to compile: {e}", self.name))
    }

    /// The evaluation workload as interpreter values.
    pub fn args(&self) -> Vec<Value> {
        self.default_args.iter().map(|&v| Value::Int(v)).collect()
    }

    /// The test workload as interpreter values.
    pub fn targs(&self) -> Vec<Value> {
        self.test_args.iter().map(|&v| Value::Int(v)).collect()
    }

    /// Resolves a loop tag to its [`LoopRef`] in a compiled module: the
    /// first loop carrying it in [`dca_ir::all_loops`] order. Only the
    /// functions whose source tags name it get their loops built.
    pub fn loop_by_tag(&self, module: &Module, tag: &str) -> Option<LoopRef> {
        (0..module.funcs.len() as u32)
            .map(FuncId)
            .filter(|&f| module.func(f).loop_tags.values().any(|t| t == tag))
            .find_map(|func| {
                let loop_id = FuncView::new(module, func).loops.by_tag(tag)?.id;
                Some(LoopRef { func, loop_id })
            })
    }
}

/// All programs, NPB first.
pub fn all_programs() -> Vec<&'static SuiteProgram> {
    let mut v: Vec<&'static SuiteProgram> = npb::programs().to_vec();
    v.extend(plds::programs());
    v
}

/// Looks up a program by name across both groups.
pub fn by_name(name: &str) -> Option<&'static SuiteProgram> {
    all_programs().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_program_compiles_and_has_unique_tags() {
        for p in all_programs() {
            let m = p.module();
            let loops = dca_ir::all_loops(&m);
            assert!(!loops.is_empty(), "{} has no loops", p.name);
            let mut tags: Vec<&str> = loops.iter().filter_map(|(_, t)| t.as_deref()).collect();
            let before = tags.len();
            assert_eq!(before, loops.len(), "{}: every loop must be tagged", p.name);
            tags.sort_unstable();
            tags.dedup();
            assert_eq!(tags.len(), before, "{}: duplicate tags", p.name);
        }
    }

    #[test]
    fn every_program_runs_on_test_workload() {
        for p in all_programs() {
            let m = p.module();
            let r = dca_interp::run_program(&m, &p.targs())
                .unwrap_or_else(|e| panic!("{} trapped: {e}", p.name));
            assert!(
                !r.output.is_empty(),
                "{} must print a verification digest",
                p.name
            );
        }
    }

    #[test]
    fn expert_tags_exist() {
        for p in all_programs() {
            let m = p.module();
            for tag in p
                .expert
                .parallel_tags
                .iter()
                .chain(p.expert.profitable_tags)
            {
                assert!(
                    p.loop_by_tag(&m, tag).is_some(),
                    "{}: expert tag @{tag} not found",
                    p.name
                );
            }
        }
    }

    #[test]
    fn loop_by_tag_finds_what_all_loops_finds() {
        for p in all_programs() {
            let m = p.module();
            let loops = dca_ir::all_loops(&m);
            for tag in loops.iter().filter_map(|(_, t)| t.as_deref()) {
                let first = loops.iter().find(|(_, t)| t.as_deref() == Some(tag));
                assert_eq!(p.loop_by_tag(&m, tag), first.map(|&(l, _)| l), "{}", p.name);
            }
            assert_eq!(p.loop_by_tag(&m, "no-such-tag"), None);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("ep").is_some());
        assert!(by_name("no-such-benchmark").is_none());
    }
}
