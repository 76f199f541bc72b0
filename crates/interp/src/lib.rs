//! IR interpreter with heap, snapshots, tracing and cost accounting.
//!
//! In the paper's prototype, instrumented native binaries run under a DCA
//! runtime library. Here the [`machine::Machine`] fills both roles: it
//! executes IR deterministically and exposes the instrumentation surface
//! ([`hooks::Hooks`]) plus snapshot/restore, which together implement
//! iterator recording, permuted replay and live-out verification without
//! recompiling the program.
//!
//! # Example
//!
//! ```
//! use dca_interp::{run_program, Value};
//!
//! let module = dca_ir::compile(
//!     "fn main(n: int) -> int {
//!          let s: int = 0;
//!          for (let i: int = 0; i < n; i = i + 1) { s = s + i; }
//!          return s;
//!      }",
//! ).map_err(|e| e.to_string())?;
//! let result = run_program(&module, &[Value::Int(10)]).map_err(|e| e.to_string())?;
//! assert_eq!(result.ret, Some(Value::Int(45)));
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]

mod code;
pub mod heap;
pub mod hooks;
pub mod machine;
pub mod profile;
pub mod value;

pub use heap::Heap;
pub use hooks::{Hooks, NoHooks, Plan, Site, TermAction};
pub use machine::{
    JournalStats, Limits, Machine, OpCounts, Outcome, OutputItem, Position, Snapshot, Trap,
};
pub use profile::{AccessAt, LoopSink, LoopTracker, TrackedSteps};
pub use value::{Addr, ObjId, Value};

use dca_ir::Module;

/// The observable result of one complete program execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramResult {
    /// `main`'s return value.
    pub ret: Option<Value>,
    /// Everything printed, in order.
    pub output: Vec<OutputItem>,
    /// Total instruction steps.
    pub steps: u64,
}

/// Runs `main(args)` of `module` to completion with no instrumentation.
///
/// # Errors
///
/// Returns the first [`Trap`] (null dereference, out-of-bounds, ...), and
/// [`Trap::ArityMismatch`] when `args` does not match `main`'s
/// parameters.
///
/// # Panics
///
/// Panics if the module has no `main`.
pub fn run_program(module: &Module, args: &[Value]) -> Result<ProgramResult, Trap> {
    let mut machine = Machine::new(module);
    let main = module.main().expect("module has no `main` function");
    machine.push_call(main, args)?;
    match machine.run(&mut NoHooks, u64::MAX)? {
        Outcome::Finished(ret) => Ok(ProgramResult {
            ret,
            output: machine.output().to_vec(),
            steps: machine.steps(),
        }),
        Outcome::Paused | Outcome::Stopped => unreachable!("no step budget, no stopping hooks"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_program_end_to_end() {
        let m = dca_ir::compile(
            "fn main() -> int { let s: int = 0; \
             for (let i: int = 1; i <= 4; i = i + 1) { s = s * 10 + i; } return s; }",
        )
        .expect("compile");
        let r = run_program(&m, &[]).expect("run");
        assert_eq!(r.ret, Some(Value::Int(1234)));
        assert!(r.steps > 0);
    }

    #[test]
    fn run_program_reports_an_arity_mismatch() {
        let m = dca_ir::compile("fn main(n: int) -> int { return n; }").expect("compile");
        assert_eq!(
            run_program(&m, &[]),
            Err(Trap::ArityMismatch {
                expected: 1,
                given: 0
            })
        );
    }
}
