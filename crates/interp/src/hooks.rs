//! Execution hooks: the instrumentation surface of the interpreter.
//!
//! The paper's prototype inserts runtime calls into the compiled program
//! (iterator linearization, permutation, verification — Fig. 4). Our
//! interpreter exposes the same capability as a trait: a [`Hooks`]
//! implementation observes every block entry, memory access, call and
//! terminator, and may *intervene* by skipping instructions, rewriting
//! variables, or redirecting control flow. DCA's permuted replay is a
//! `Hooks` implementation, and so is the [`LoopTracker`] behind golden
//! recording and coverage, cost and dependence profiling.
//!
//! [`LoopTracker`]: crate::profile::LoopTracker

use crate::value::{Addr, Value};
use dca_ir::{BlockId, FuncId};

/// Context passed to every hook: where execution currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// The executing function.
    pub func: FuncId,
    /// Call-stack depth (0 = the entry function's frame).
    pub depth: usize,
    /// Instruction steps executed so far.
    pub steps: u64,
}

/// What to do with the instruction about to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstAction {
    /// Execute normally.
    Run,
    /// Skip it entirely (no effects, destination unchanged).
    Skip,
}

/// What to do at a terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermAction {
    /// Take the machine-computed successor (or return).
    Default,
    /// Jump to this block instead (cancels a `Return` as well).
    Goto(BlockId),
}

/// Observation and intervention points during execution.
///
/// All methods have no-op defaults; implement only what you need. The
/// `vars` slices expose the *current frame's* variables and may be
/// mutated — this is how DCA binds recorded iterator values during replay.
#[allow(unused_variables)]
pub trait Hooks {
    /// Control enters `block` (before its first instruction).
    fn on_block(&mut self, site: Site, block: BlockId, vars: &mut [Value]) {}

    /// About to execute instruction `idx` of `block`. Return
    /// [`InstAction::Skip`] to suppress it.
    fn before_inst(
        &mut self,
        site: Site,
        block: BlockId,
        idx: usize,
        vars: &mut [Value],
    ) -> InstAction {
        InstAction::Run
    }

    /// Instruction `idx` of `block` just executed.
    fn after_inst(&mut self, site: Site, block: BlockId, idx: usize, vars: &mut [Value]) {}

    /// About to leave `block`. `default_target` is the successor the machine
    /// chose (`None` for a `Return`). Return [`TermAction::Goto`] to
    /// redirect.
    fn on_term(
        &mut self,
        site: Site,
        block: BlockId,
        default_target: Option<BlockId>,
        vars: &mut [Value],
    ) -> TermAction {
        TermAction::Default
    }

    /// A memory cell was read.
    fn on_read(&mut self, site: Site, addr: Addr) {}

    /// A memory cell was written.
    fn on_write(&mut self, site: Site, addr: Addr) {}

    /// A memory cell is about to be overwritten: `old` is the value it
    /// holds, `new` the value being stored. Fired alongside
    /// [`Hooks::on_write`]; separate so observers that don't need values
    /// (the write journal arming, the replay controllers) pay nothing
    /// for them.
    fn on_store(&mut self, site: Site, addr: Addr, old: Value, new: Value) {}

    /// A call to `callee` is about to push a frame.
    fn on_call(&mut self, site: Site, callee: FuncId) {}

    /// The frame of `func` just returned (to depth `site.depth`).
    fn on_return(&mut self, site: Site, func: FuncId) {}

    /// Whether [`Machine::run`] should return before its next step.
    /// Polled after each block entry ([`Hooks::on_block`]) and each
    /// return ([`Hooks::on_return`]), the only events that change what a
    /// caller running the machine would want to act on; a `true` ends
    /// the run with [`Outcome::Stopped`] and the caller may then inspect
    /// the machine at exactly that point.
    ///
    /// [`Machine::run`]: crate::Machine::run
    /// [`Outcome::Stopped`]: crate::Outcome::Stopped
    fn stop(&self) -> bool {
        false
    }
}

/// The trivial hook set: observe nothing, intervene nowhere.
///
/// Monomorphization makes running with `NoHooks` essentially free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoHooks;

impl Hooks for NoHooks {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_do_not_intervene() {
        let mut h = NoHooks;
        let site = Site {
            func: FuncId(0),
            depth: 0,
            steps: 0,
        };
        assert_eq!(h.before_inst(site, BlockId(0), 0, &mut []), InstAction::Run);
        assert_eq!(
            h.on_term(site, BlockId(0), None, &mut []),
            TermAction::Default
        );
    }
}
