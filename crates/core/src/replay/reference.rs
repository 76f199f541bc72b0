//! The replay controller's former per-instruction form, kept as a test
//! reference: it decides every instruction of the loop's frame on its
//! own, as the interpreter's per-instruction hook let it. Here it drives
//! the machine through plans of one instruction each — every instruction
//! of an active block is reported, decided, then run or skipped alone —
//! so its steps, skips, bindings and pauses are the former controller's.
//! The planned controller must leave the machine exactly where this one
//! does. Shared by the controller's unit tests and the workspace's replay
//! tests.

// Each user takes a different part.
#![allow(dead_code)]

use super::{
    BlockId, FuncId, Function, GoldenRecord, Hooks, IterOrder, IteratorSlice, Loop, Machine, Plan,
    ReplayEnd, ReplayGovernor, Site, TermAction, Terminator, Trap, Value, GOVERN_GRANULE,
};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    PrePass,
    Payload,
    Exiting,
    Done,
}

/// The per-instruction replay controller.
pub struct ReferenceController<'a, O> {
    func: FuncId,
    func_ir: &'a Function,
    header: BlockId,
    slice: &'a IteratorSlice,
    golden: &'a GoldenRecord,
    order: O,
    needs_iter_start: bool,
    prepass_arrivals: usize,
    mode: Mode,
    loop_exited: bool,
    stop_at_exit: bool,
    /// The last instruction decided, and whether it runs.
    decided: Option<(BlockId, usize, bool)>,
}

impl<'a, O: IterOrder> ReferenceController<'a, O> {
    /// A controller for one replay of `l` in the order `order`.
    pub fn new(
        func: FuncId,
        func_ir: &'a Function,
        l: &'a Loop,
        slice: &'a IteratorSlice,
        golden: &'a GoldenRecord,
        order: O,
    ) -> Self {
        ReferenceController {
            func,
            func_ir,
            header: l.header,
            slice,
            golden,
            order,
            needs_iter_start: false,
            prepass_arrivals: 0,
            mode: Mode::PrePass,
            loop_exited: false,
            stop_at_exit: false,
            decided: None,
        }
    }

    fn active_at(&self, site: Site, block: BlockId) -> bool {
        site.func == self.func
            && site.depth == self.golden.exit.position.depth
            && self.slice.in_loop(block)
    }

    fn start_pending_iter(&mut self, block: BlockId, vars: &mut [Value]) {
        if self.mode == Mode::Payload && self.needs_iter_start && block == self.header {
            self.needs_iter_start = false;
            match self.order.next_iter(vars) {
                Some(i) => {
                    for (pos, &v) in self.golden.rec_vars.iter().enumerate() {
                        vars[v.index()] = self.golden.iters[i][pos];
                    }
                }
                None => self.mode = Mode::Exiting,
            }
        }
    }

    fn begin_payload(&mut self) {
        self.mode = Mode::Payload;
        self.needs_iter_start = true;
    }

    fn in_loop_alternative(&self, block: BlockId) -> BlockId {
        match &self.func_ir.block(block).term {
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                if self.slice.in_loop(*then_bb) {
                    *then_bb
                } else if self.slice.in_loop(*else_bb) {
                    *else_bb
                } else {
                    self.header
                }
            }
            _ => self.header,
        }
    }
}

impl<O: IterOrder> Hooks for ReferenceController<'_, O> {
    fn on_block(&mut self, site: Site, block: BlockId, _vars: &mut [Value]) {
        // A decision holds for one visit of its instruction.
        self.decided = None;
        let here = site.func == self.func && site.depth == self.golden.exit.position.depth;
        match self.mode {
            Mode::Done => {}
            Mode::PrePass => {
                if here && block == self.header {
                    self.prepass_arrivals += 1;
                    let cap = self.golden.iters.len().saturating_mul(4).saturating_add(16);
                    if self.prepass_arrivals > cap {
                        self.begin_payload();
                    }
                }
            }
            Mode::Payload | Mode::Exiting => {
                if here {
                    if block == self.header {
                        self.needs_iter_start = true;
                    } else if !self.slice.in_loop(block) {
                        self.mode = Mode::Done;
                        self.loop_exited = true;
                    }
                }
            }
        }
    }

    // Every instruction of an active block is reported; once decided, it
    // runs or is skipped alone, and the next one is reported.
    fn plan(&self, site: Site, block: BlockId, from: usize) -> Plan {
        if self.mode == Mode::Done || !self.active_at(site, block) {
            return Plan::RUN;
        }
        match self.decided {
            Some((b, i, runs)) if b == block && i == from => Plan {
                skip: if runs { 0 } else { 1 << (from % 64) },
                notify: from as u32 + 1,
            },
            _ => Plan::RUN.notifying(from),
        }
    }

    fn inst(&mut self, _: Site, block: BlockId, idx: usize, vars: &mut [Value]) {
        self.start_pending_iter(block, vars);
        let in_slice = self.slice.contains((block, idx));
        let runs = match self.mode {
            Mode::PrePass => in_slice,
            Mode::Payload => !in_slice,
            Mode::Done => true,
            Mode::Exiting => false,
        };
        self.decided = Some((block, idx, runs));
    }

    fn on_term(
        &mut self,
        site: Site,
        block: BlockId,
        default_target: Option<BlockId>,
        vars: &mut [Value],
    ) -> TermAction {
        if self.mode == Mode::Done || !self.active_at(site, block) {
            return TermAction::Default;
        }
        self.start_pending_iter(block, vars);
        match self.mode {
            Mode::PrePass => match default_target {
                Some(t) if self.slice.in_loop(t) => TermAction::Default,
                _ => {
                    self.begin_payload();
                    TermAction::Goto(self.header)
                }
            },
            Mode::Payload => match default_target {
                Some(t) if self.slice.in_loop(t) => TermAction::Default,
                _ => TermAction::Goto(self.in_loop_alternative(block)),
            },
            Mode::Exiting => {
                let x = &self.golden.exit;
                for &v in &self.golden.rec_vars {
                    vars[v.index()] = x.vars[v.index()];
                }
                TermAction::Goto(x.position.block)
            }
            Mode::Done => TermAction::Default,
        }
    }

    fn stop(&self) -> bool {
        self.stop_at_exit && self.loop_exited
    }
}

/// `run_replay` for the reference controller.
pub fn run_reference<O: IterOrder>(
    machine: &mut Machine<'_>,
    ctl: &mut ReferenceController<'_, O>,
    stop_at_loop_exit: bool,
    max_steps: u64,
    gov: ReplayGovernor<'_>,
) -> ReplayEnd {
    ctl.stop_at_exit = stop_at_loop_exit;
    let start = machine.steps();
    let budget = start.saturating_add(max_steps);
    loop {
        if let Some(ret) = machine.result() {
            return ReplayEnd::Finished(ret);
        }
        if ctl.stop() {
            return ReplayEnd::LoopExited;
        }
        let now = machine.steps();
        if now >= budget {
            return ReplayEnd::BudgetExhausted;
        }
        let mut end = budget;
        if !gov.is_inactive() {
            let n = now - start;
            if let Some(at) = gov.trap_at_step {
                if n >= at {
                    return ReplayEnd::Trapped(Trap::Injected);
                }
                end = end.min(start.saturating_add(at));
            }
            if n.is_multiple_of(GOVERN_GRANULE) && gov.deadline.is_some_and(|d| Instant::now() >= d)
            {
                return ReplayEnd::DeadlineExpired;
            }
            end = end.min(now - n % GOVERN_GRANULE + GOVERN_GRANULE);
        }
        match machine.run(ctl, end - now) {
            Ok(_) => {}
            Err(Trap::NotRunning) => return ReplayEnd::Finished(machine.result().unwrap_or(None)),
            Err(t) => return ReplayEnd::Trapped(t),
        }
    }
}
