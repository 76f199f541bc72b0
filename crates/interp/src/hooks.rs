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
//! Instructions have no per-instruction event. At each block entry the
//! machine asks the hooks for the block's [`Plan`]: which of its
//! instructions to skip, and at most one instruction to be told about
//! before it runs. The machine then runs the block with no callback
//! between instructions, so a hook that plans nothing costs what a plain
//! run does.
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
    /// The executing block.
    pub block: BlockId,
    /// The executing instruction's index in `block`: the block's length
    /// at its terminator, 0 at its entry.
    pub inst: u32,
}

/// How the machine runs the instructions of one 64-instruction window
/// of a block ([`Hooks::plan`]): window `w` holds instructions
/// `64 * w .. 64 * w + 64`, so a block of up to 64 instructions has one.
///
/// A skipped instruction has no effect but still counts as a step. The
/// machine charges a run of skipped instructions in one addition when
/// the step budget covers all of it, and one by one up to the budget
/// otherwise, so step counts and pauses land where single steps put them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Bit `k` set: skip instruction `64 * w + k` of the window.
    pub skip: u64,
    /// The instruction of the window to report to [`Hooks::inst`] before
    /// it runs or is skipped; [`Plan::NO_INST`] for none.
    pub notify: u32,
}

impl Plan {
    /// No instruction to report.
    pub const NO_INST: u32 = u32::MAX;
    /// Run every instruction and report none.
    pub const RUN: Plan = Plan {
        skip: 0,
        notify: Plan::NO_INST,
    };
    /// Skip every instruction and report none.
    pub const SKIP: Plan = Plan {
        skip: u64::MAX,
        notify: Plan::NO_INST,
    };

    /// This plan, reporting instruction `idx` as well.
    #[must_use]
    pub fn notifying(self, idx: usize) -> Plan {
        Plan {
            notify: u32::try_from(idx).unwrap_or(Plan::NO_INST),
            ..self
        }
    }
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

    /// The plan for the window of `block` that holds instruction `from`,
    /// where the frame's execution stands. Asked after each block entry,
    /// when a frame resumes mid-block (after a call returns, or in a
    /// later run), at each window boundary, and again after each
    /// [`Hooks::inst`]. A plan is a query: it may change only after the
    /// hooks' own events changed their state. Instructions before `from`
    /// have run; bits and a reported instruction before it are ignored.
    #[inline(always)]
    fn plan(&self, site: Site, block: BlockId, from: usize) -> Plan {
        Plan::RUN
    }

    /// Instruction `idx` of `block`, the one the plan reports, is about
    /// to run or be skipped. The machine asks for the plan again
    /// afterwards; it reports `idx` at most once in a row.
    fn inst(&mut self, site: Site, block: BlockId, idx: usize, vars: &mut [Value]) {}

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

    /// The call at `site` to `callee` is about to push a frame.
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
            block: BlockId(0),
            inst: 0,
        };
        assert_eq!(h.plan(site, BlockId(0), 0), Plan::RUN);
        assert_eq!(
            h.on_term(site, BlockId(0), None, &mut []),
            TermAction::Default
        );
        assert_eq!(Plan::SKIP.notifying(3).notify, 3);
    }
}
