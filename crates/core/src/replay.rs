//! Permuted replay: DCA execution order (paper §IV-B2, Fig. 4(c)/(d)).
//!
//! The instrumented program of the paper runs a tested loop in two phases:
//! first the *iterator loop* alone (linearization — `rt_iterator_linearize`
//! in Fig. 4(c)), applying the iterator's side effects (a worklist pop, a
//! pointer advance) exactly once in their original order; then the
//! *payload loop* (`while (rt_iterator_next()) payload(rt_iterator_get())`
//! in Fig. 4(d)), executing one payload instance per recorded iterator
//! value, in the permuted order.
//!
//! [`ReplayController`] reproduces that structure on the interpreter,
//! starting from the golden snapshot:
//!
//! 1. **Iterator pre-pass** — only iterator-slice instructions execute
//!    (payload instructions are skipped); control flow runs naturally, so
//!    destructive iterators drain their worklists exactly as the golden
//!    run did. The pre-pass ends when control would leave the loop (or a
//!    safety cap on header arrivals fires for iterators whose trip count
//!    depended on skipped payload).
//! 2. **Payload pass** — control is forced around the loop once per
//!    iteration its [`IterOrder`] yields (a [`Perm`] permutation for the
//!    analysis, a worker's share for the parallel executor); at each
//!    header arrival the recorded variables of the next iteration are
//!    bound, slice instructions are skipped, and edges that would leave
//!    the loop are forced back inside.
//! 3. **Exit** — the golden exit values are restored to the iterator
//!    variables and control jumps to the golden exit target; the rest of
//!    the program runs untouched.
//!
//! The controller decides per block, not per instruction: at each entry
//! to a block of the loop in the loop's frame it plans the block
//! ([`Hooks::plan`]) — the slice's instructions skipped in the payload
//! pass, the others in the pre-pass, all of them while exiting — and has
//! the machine report the header's first instruction when an iteration
//! is to be bound there. Callee frames and the rest of the program run
//! with no plan, at the cost of a plain run.

use crate::parallel::CancelToken;
use crate::record::GoldenRecord;
use dca_analysis::IteratorSlice;
use dca_interp::{Hooks, Machine, Plan, Site, TermAction, Trap, Value};
use dca_ir::{BlockId, FuncId, Function, Loop, Terminator, VarId};
use std::time::Instant;

#[cfg(test)]
mod reference;

/// What a replay produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayEnd {
    /// The program ran to completion after the permuted loop.
    Finished(Option<Value>),
    /// The permuted loop finished and control reached the exit target
    /// (used by the loop-exit verification scope).
    LoopExited,
    /// The replay trapped — permuted execution of a non-commutative loop
    /// can fault; the paper notes these situations are reliably detected
    /// (§IV-E).
    Trapped(Trap),
    /// The step budget ran out.
    BudgetExhausted,
    /// A wall-clock deadline ([`crate::config::WallLimits`]) expired
    /// mid-replay.
    DeadlineExpired,
    /// The run's [`CancelToken`] was tripped mid-replay.
    Cancelled,
}

/// Cooperative governance for one program run: an optional wall-clock
/// deadline, an optional cancellation token and an optional injected
/// synthetic trap, all resolved by the caller between chunks of
/// [`Machine::run`] rather than by the interpreter. The deadline and the
/// token are checked once every [`GOVERN_GRANULE`] steps, so an enabled
/// governor costs one clock read (or atomic load) per granule; a default
/// (inactive) governor runs the replay in one chunk and costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayGovernor<'c> {
    /// Absolute deadline; expiry ends the run with
    /// [`ReplayEnd::DeadlineExpired`].
    pub deadline: Option<Instant>,
    /// Inject [`Trap::Injected`] after this many steps of this run
    /// (fault-injection harness, see [`crate::fault`]).
    pub trap_at_step: Option<u64>,
    /// Cooperative cancellation: a tripped token ends the run with
    /// [`ReplayEnd::Cancelled`] at the next granule boundary.
    pub cancel: Option<&'c CancelToken>,
}

/// How many interpreter steps pass between wall-clock deadline and
/// cancellation checks.
pub const GOVERN_GRANULE: u64 = 1024;

impl ReplayGovernor<'_> {
    /// True when no deadline, no cancellation token and no injected trap
    /// is armed.
    #[must_use]
    pub fn is_inactive(&self) -> bool {
        self.deadline.is_none() && self.trap_at_step.is_none() && self.cancel.is_none()
    }
}

/// Where a replay's payload iterations come from: the seam between the
/// loop controller and its iteration order. The analysis replays a fixed
/// permutation ([`Perm`]); a parallel executor's worker replays its share
/// of the iteration space (paper §IV-C runs the same payload loop over
/// each worker's iterations).
pub trait IterOrder {
    /// Called at each payload header arrival with the loop frame's
    /// variables: the recorded iteration to run next, or `None` once the
    /// order is exhausted, which sends the controller to the loop exit.
    /// Before the controller binds the iteration's recorded values, the
    /// order may write `vars` (a worker resets its reduction accumulators
    /// at chunk boundaries).
    fn next_iter(&mut self, vars: &mut [Value]) -> Option<usize>;
}

/// A fixed permutation: `perm[k]` = which recorded iteration runs k-th.
pub struct Perm<'a> {
    perm: &'a [usize],
    k: usize,
}

impl IterOrder for Perm<'_> {
    fn next_iter(&mut self, _vars: &mut [Value]) -> Option<usize> {
        let i = self.perm.get(self.k).copied();
        self.k += 1;
        i
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Running the iterator alone (Fig. 4(c) linearization semantics).
    PrePass,
    /// Running payload instances in the order's sequence.
    Payload,
    /// All iterations done: skip in-loop code, jump to the exit target.
    Exiting,
    /// Out of the loop; the rest of the program runs untouched.
    Done,
}

/// The [`Hooks`] implementation driving one replay of a loop, with its
/// payload iterations drawn from an [`IterOrder`].
pub struct ReplayController<'a, O = Perm<'a>> {
    func: FuncId,
    func_ir: &'a Function,
    header: BlockId,
    /// The loop's iterator slice; its dense table answers "in the loop?"
    /// and "in the slice?" on every hooked instruction.
    slice: &'a IteratorSlice,
    golden: &'a GoldenRecord,
    order: O,
    needs_iter_start: bool,
    /// Header arrivals during the pre-pass (safety cap).
    prepass_arrivals: usize,
    mode: Mode,
    /// Set once control reaches the exit target.
    pub loop_exited: bool,
    /// Ask the machine to stop once the loop has exited ([`run_replay`]'s
    /// loop-exit scope).
    stop_at_exit: bool,
}

impl<'a> ReplayController<'a> {
    /// Creates a controller for one permutation of loop `l` in `func_ir`.
    /// The machine must be restored to `golden.snapshot` (control at the
    /// loop header) before stepping with this controller.
    pub fn new(
        func: FuncId,
        func_ir: &'a Function,
        l: &'a Loop,
        slice: &'a IteratorSlice,
        golden: &'a GoldenRecord,
        perm: &'a [usize],
    ) -> Self {
        assert_eq!(perm.len(), golden.iters.len(), "permutation length");
        Self::with_order(func, func_ir, l, slice, golden, Perm { perm, k: 0 })
    }
}

impl<'a, O: IterOrder> ReplayController<'a, O> {
    /// Like [`ReplayController::new`], with the payload iterations drawn
    /// from `order` instead of a fixed permutation.
    pub fn with_order(
        func: FuncId,
        func_ir: &'a Function,
        l: &'a Loop,
        slice: &'a IteratorSlice,
        golden: &'a GoldenRecord,
        order: O,
    ) -> Self {
        ReplayController {
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
        }
    }

    /// Hands back the iteration order, with whatever it accumulated
    /// during the run.
    pub fn into_order(self) -> O {
        self.order
    }

    fn active_at(&self, site: Site, block: BlockId) -> bool {
        site.func == self.func
            && site.depth == self.golden.exit.position.depth
            && self.slice.in_loop(block)
    }

    /// Binds the recorded values of the order's next iteration (or
    /// switches to exit mode when the order is exhausted).
    fn iter_start(&mut self, vars: &mut [Value]) {
        self.needs_iter_start = false;
        match self.order.next_iter(vars) {
            Some(i) => bind(&self.golden.rec_vars, &self.golden.iters[i], vars),
            None => self.mode = Mode::Exiting,
        }
    }

    /// At a payload header arrival, starts the next iteration.
    fn start_pending_iter(&mut self, block: BlockId, vars: &mut [Value]) {
        if self.mode == Mode::Payload && self.needs_iter_start && block == self.header {
            self.iter_start(vars);
        }
    }

    /// Switch from the pre-pass into the payload pass.
    fn begin_payload(&mut self) {
        self.mode = Mode::Payload;
        self.needs_iter_start = true;
    }

    /// The pre-pass header-arrival cap: generous slack over the recorded
    /// trip count, for iterators whose condition depended on payload that
    /// the pre-pass skips.
    fn prepass_cap(&self) -> usize {
        self.golden.iters.len().saturating_mul(4).saturating_add(16)
    }
}

/// Writes `vals[pos]` to each recorded variable `rec_vars[pos]` (the
/// variables are distinct, so the order of the writes is immaterial).
fn bind(rec_vars: &[VarId], vals: &[Value], vars: &mut [Value]) {
    for (pos, &v) in rec_vars.iter().enumerate() {
        vars[v.index()] = vals[pos];
    }
}

impl<O: IterOrder> Hooks for ReplayController<'_, O> {
    fn on_block(&mut self, site: Site, block: BlockId, _vars: &mut [Value]) {
        match self.mode {
            Mode::Done => {}
            Mode::PrePass => {
                if site.func == self.func
                    && site.depth == self.golden.exit.position.depth
                    && block == self.header
                {
                    self.prepass_arrivals += 1;
                    if self.prepass_arrivals > self.prepass_cap() {
                        self.begin_payload();
                    }
                }
            }
            Mode::Payload | Mode::Exiting => {
                if site.func == self.func && site.depth == self.golden.exit.position.depth {
                    if block == self.header {
                        self.needs_iter_start = true;
                    } else if !self.slice.in_loop(block) {
                        // Control left the loop (after the forced exit
                        // jump).
                        self.mode = Mode::Done;
                        self.loop_exited = true;
                    }
                }
            }
        }
    }

    // Asked at every block entry of a replay: inlined into the run loop,
    // so that blocks outside the loop's frame cost a compare or two.
    #[inline(always)]
    fn plan(&self, site: Site, block: BlockId, from: usize) -> Plan {
        if matches!(self.mode, Mode::Done) || !self.active_at(site, block) {
            return Plan::RUN;
        }
        // The pre-pass runs iterator instructions only (linearization);
        // the payload pass runs everything else, the iterator having
        // already run.
        let slice = self.slice.slice_bits(block, from / 64);
        let skip = match self.mode {
            Mode::PrePass => !slice,
            Mode::Payload => slice,
            _ => u64::MAX,
        };
        let plan = Plan {
            skip,
            notify: Plan::NO_INST,
        };
        // The next iteration is bound before the header's first
        // instruction (or at its terminator, if it has none).
        if self.mode == Mode::Payload && self.needs_iter_start && block == self.header {
            plan.notifying(from)
        } else {
            plan
        }
    }

    fn inst(&mut self, _: Site, block: BlockId, _: usize, vars: &mut [Value]) {
        self.start_pending_iter(block, vars);
    }

    fn on_term(
        &mut self,
        site: Site,
        block: BlockId,
        default_target: Option<BlockId>,
        vars: &mut [Value],
    ) -> TermAction {
        if matches!(self.mode, Mode::Done) || !self.active_at(site, block) {
            return TermAction::Default;
        }
        self.start_pending_iter(block, vars);
        match self.mode {
            Mode::PrePass => {
                // Natural control flow, but the moment it would leave the
                // loop, the linearization is complete: start the payload
                // pass back at the header.
                match default_target {
                    Some(t) if self.slice.in_loop(t) => TermAction::Default,
                    _ => {
                        self.begin_payload();
                        TermAction::Goto(self.header)
                    }
                }
            }
            Mode::Payload => match default_target {
                Some(t) if self.slice.in_loop(t) => TermAction::Default,
                _ => TermAction::Goto(in_loop_alternative(
                    &self.func_ir.block(block).term,
                    self.slice,
                    self.header,
                )),
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

/// The forced-branch alternative: the terminator's in-loop successor when
/// the default leaves the loop, or the header (ending the iteration) when
/// no successor stays inside.
fn in_loop_alternative(term: &Terminator, slice: &IteratorSlice, header: BlockId) -> BlockId {
    match term {
        Terminator::Branch {
            then_bb, else_bb, ..
        } => {
            if slice.in_loop(*then_bb) {
                *then_bb
            } else if slice.in_loop(*else_bb) {
                *else_bb
            } else {
                header
            }
        }
        _ => header,
    }
}

/// Runs one replay to the end of the program (or until the loop exits,
/// under the loop-exit scope), under `gov`.
///
/// The machine must already be restored to `golden.snapshot`. The replay
/// is [`Machine::run`] under the controller, which stops the run at the
/// loop exit when asked to; an active governor splits the run into
/// chunks that end at each [`GOVERN_GRANULE`] boundary and at the
/// injected trap's step, and checks between them. An inactive governor
/// ([`ReplayGovernor::default`]) runs in one chunk, free of clock reads
/// (the `obs_overhead` bench asserts this).
pub fn run_replay<O: IterOrder>(
    machine: &mut Machine<'_>,
    ctl: &mut ReplayController<'_, O>,
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
            // Checked at n == 0 too, so a zero deadline (or an
            // already-tripped token) expires deterministically before the
            // first step.
            if n.is_multiple_of(GOVERN_GRANULE) {
                if let Some(d) = gov.deadline {
                    if Instant::now() >= d {
                        return ReplayEnd::DeadlineExpired;
                    }
                }
                if let Some(c) = gov.cancel {
                    if c.is_cancelled() {
                        return ReplayEnd::Cancelled;
                    }
                }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DcaConfig;
    use crate::record::record_golden;
    use dca_ir::FuncView;

    /// Compiles, records loop `tag`, replays it under `perm_of(trip)`, and
    /// returns (golden outcome, replay outcome, replay output).
    fn replay_with(
        src: &str,
        tag: &str,
        perm_of: impl Fn(usize) -> Vec<usize>,
    ) -> (
        crate::outcome::ProgramOutcome,
        ReplayEnd,
        Vec<dca_interp::OutputItem>,
    ) {
        let m = dca_ir::compile(src).expect("compile");
        let main = m.main().expect("main");
        let (fid, l) = {
            let mut found = None;
            for (i, _) in m.funcs.iter().enumerate() {
                let fid = dca_ir::FuncId(i as u32);
                let view = FuncView::new(&m, fid);
                if let Some(l) = view.loops.by_tag(tag) {
                    found = Some((fid, l.clone()));
                    break;
                }
            }
            found.expect("tagged loop")
        };
        let view = FuncView::new(&m, fid);
        let slice = IteratorSlice::compute(&view, &l);
        let mut machine = Machine::new(&m);
        let golden = record_golden(
            &mut machine,
            main,
            &[],
            fid,
            &l,
            &slice,
            0,
            0,
            DcaConfig::DEFAULT_MAX_TRIP,
            DcaConfig::TEST_STEP_BUDGET,
            None,
            None,
            false,
            None,
        )
        .expect("golden");
        let perm = perm_of(golden.iters.len());
        machine.restore(&golden.snapshot);
        let mut ctl = ReplayController::new(fid, m.func(fid), &l, &slice, &golden, &perm);
        let end = run_replay(
            &mut machine,
            &mut ctl,
            false,
            DcaConfig::TEST_STEP_BUDGET,
            ReplayGovernor::default(),
        );
        (golden.outcome.clone(), end, machine.output().to_vec())
    }

    #[test]
    fn governor_cancellation_ends_a_replay_at_the_first_granule() {
        let src = "fn main() -> int { let a: [int; 8]; let s: int = 0; \
             @l: for (let i: int = 0; i < 8; i = i + 1) { a[i] = i * i; } \
             for (let i: int = 0; i < 8; i = i + 1) { s = s + a[i]; } return s; }";
        let m = dca_ir::compile(src).expect("compile");
        let main = m.main().expect("main");
        let view = FuncView::new(&m, main);
        let l = view.loops.by_tag("l").expect("tagged loop").clone();
        let slice = IteratorSlice::compute(&view, &l);
        let mut machine = Machine::new(&m);
        let golden = record_golden(
            &mut machine,
            main,
            &[],
            main,
            &l,
            &slice,
            0,
            0,
            DcaConfig::DEFAULT_MAX_TRIP,
            DcaConfig::TEST_STEP_BUDGET,
            None,
            None,
            false,
            None,
        )
        .expect("golden");
        let perm: Vec<usize> = (0..golden.iters.len()).collect();
        let token = CancelToken::new();
        token.cancel();
        let gov = ReplayGovernor {
            cancel: Some(&token),
            ..ReplayGovernor::default()
        };
        assert!(!gov.is_inactive(), "a token arms the governor");
        machine.restore(&golden.snapshot);
        let mut ctl = ReplayController::new(main, m.func(main), &l, &slice, &golden, &perm);
        let end = run_replay(
            &mut machine,
            &mut ctl,
            false,
            DcaConfig::TEST_STEP_BUDGET,
            gov,
        );
        assert_eq!(
            end,
            ReplayEnd::Cancelled,
            "a pre-tripped token cancels before the first step"
        );
        assert!(ReplayGovernor::default().is_inactive());
    }

    #[test]
    fn identity_replay_reproduces_golden_outcome() {
        let (golden, end, out) = replay_with(
            "fn main() -> int { let a: [int; 8]; let s: int = 0; \
             @l: for (let i: int = 0; i < 8; i = i + 1) { a[i] = i * i; } \
             for (let i: int = 0; i < 8; i = i + 1) { s = s + a[i]; } \
             print(s); return s; }",
            "l",
            |n| (0..n).collect(),
        );
        match end {
            ReplayEnd::Finished(ret) => {
                assert_eq!(ret, golden.ret);
                assert_eq!(out, golden.output);
            }
            other => panic!("unexpected end: {other:?}"),
        }
    }

    #[test]
    fn reversed_map_loop_matches_golden() {
        let (golden, end, _) = replay_with(
            "fn main() -> int { let a: [int; 8]; let s: int = 0; \
             @l: for (let i: int = 0; i < 8; i = i + 1) { a[i] = i * 3; } \
             for (let i: int = 0; i < 8; i = i + 1) { s = s + a[i]; } return s; }",
            "l",
            |n| (0..n).rev().collect(),
        );
        assert_eq!(end, ReplayEnd::Finished(golden.ret));
    }

    #[test]
    fn reversed_order_dependent_loop_diverges() {
        // a[i] = a[i-1] + 1: a genuine recurrence. Reversing iterations
        // produces a different array, which the outcome exposes.
        let (golden, end, _) = replay_with(
            "fn main() -> int { let a: [int; 8]; a[0] = 1; let s: int = 0; \
             @l: for (let i: int = 1; i < 8; i = i + 1) { a[i] = a[i - 1] + 1; } \
             for (let i: int = 0; i < 8; i = i + 1) { s = s + a[i] * (i + 1); } return s; }",
            "l",
            |n| (0..n).rev().collect(),
        );
        match end {
            ReplayEnd::Finished(ret) => {
                assert_ne!(ret, golden.ret, "recurrence must produce a different sum");
            }
            other => panic!("unexpected end: {other:?}"),
        }
    }

    #[test]
    fn reversed_pointer_chase_map_matches_golden() {
        let (golden, end, _) = replay_with(
            "struct N { v: int, next: *N }\n\
             fn main() -> int { let head: *N = null; \
             for (let i: int = 0; i < 6; i = i + 1) { \
               let n: *N = new N; n.v = i; n.next = head; head = n; } \
             let p: *N = head; \
             @walk: while (p != null) { p.v = p.v * 2; p = p.next; } \
             let s: int = 0; let q: *N = head; \
             while (q != null) { s = s * 10 + q.v; q = q.next; } return s; }",
            "walk",
            |n| (0..n).rev().collect(),
        );
        // Despite the cross-iteration dependence on `p` that defeats
        // dependence analysis (paper Fig. 1(b)), the reversed execution
        // produces the same program outcome.
        assert_eq!(end, ReplayEnd::Finished(golden.ret));
    }

    #[test]
    fn reversed_reduction_matches_golden() {
        let (golden, end, _) = replay_with(
            "fn main() -> int { let s: int = 0; \
             @l: for (let i: int = 0; i < 10; i = i + 1) { s = s + i * i; } \
             return s; }",
            "l",
            |n| (0..n).rev().collect(),
        );
        assert_eq!(end, ReplayEnd::Finished(golden.ret));
    }

    #[test]
    fn shuffled_histogram_matches_golden() {
        let (golden, end, _) = replay_with(
            "fn main() -> int { let hist: [int; 7]; \
             @l: for (let i: int = 0; i < 40; i = i + 1) { \
               let b: int = i * i % 7; hist[b] = hist[b] + 1; } \
             let s: int = 0; \
             for (let k: int = 0; k < 7; k = k + 1) { s = s * 100 + hist[k]; } \
             return s; }",
            "l",
            |n| {
                // A fixed "shuffle": odd indices first, then even.
                let mut p: Vec<usize> = (0..n).filter(|i| i % 2 == 1).collect();
                p.extend((0..n).filter(|i| i % 2 == 0));
                p
            },
        );
        assert_eq!(end, ReplayEnd::Finished(golden.ret));
    }

    #[test]
    fn first_match_search_diverges_under_reversal() {
        // The loop keeps the *first* index whose value exceeds a threshold
        // (via a guarded write) — order-sensitive, hence not commutative.
        let (golden, end, _) = replay_with(
            "fn main() -> int { let a: [int; 8]; let first: int = 0 - 1; \
             for (let i: int = 0; i < 8; i = i + 1) { a[i] = i * 13 % 8; } \
             @l: for (let i: int = 0; i < 8; i = i + 1) { \
               if (a[i] > 4 && first < 0) { first = i; } } \
             return first; }",
            "l",
            |n| (0..n).rev().collect(),
        );
        match end {
            ReplayEnd::Finished(ret) => assert_ne!(ret, golden.ret),
            other => panic!("unexpected end: {other:?}"),
        }
    }

    #[test]
    fn planned_replay_leaves_the_reference_machine() {
        use reference::{run_reference, ReferenceController};
        // A pointer-chasing map with a callee in the payload, at every
        // budget from one step up: skipped runs, bindings and pauses
        // land where the per-instruction controller put them.
        // The walk's body is one block of over 64 payload instructions
        // with the iterator's advance last, so plans span two windows.
        let long: String = (0..40).map(|k| format!("t = t * 3 + {k}; ")).collect();
        let src = format!(
            "struct N {{ v: int, next: *N }}\n\
             fn bump(n: *N, k: int) {{ n.v = n.v * 2 + k; }}\n\
             fn main() -> int {{ let head: *N = null; let t: int = 0; \
             for (let i: int = 0; i < 6; i = i + 1) {{ \
               let n: *N = new N; n.v = i; n.next = head; head = n; }} \
             let p: *N = head; let j: int = 0; \
             @walk: while (p != null) {{ bump(p, j); {long}j = j + 1; p = p.next; }} \
             return head.v + j + t; }}"
        );
        let m = dca_ir::compile(&src).expect("compile");
        let main = m.main().expect("main");
        let view = FuncView::new(&m, main);
        let l = view.loops.by_tag("walk").expect("tagged loop").clone();
        assert!(l
            .blocks
            .iter()
            .any(|&b| m.func(main).block(b).insts.len() > 64));
        let slice = IteratorSlice::compute(&view, &l);
        let mut machine = Machine::new(&m);
        let golden = record_golden(
            &mut machine,
            main,
            &[],
            main,
            &l,
            &slice,
            0,
            0,
            DcaConfig::DEFAULT_MAX_TRIP,
            DcaConfig::TEST_STEP_BUDGET,
            None,
            None,
            false,
            None,
        )
        .expect("golden");
        let perm: Vec<usize> = (0..golden.iters.len()).rev().collect();
        let gov = ReplayGovernor::default();
        for budget in (1..400).chain([DcaConfig::TEST_STEP_BUDGET]) {
            machine.restore(&golden.snapshot);
            let mut ctl = ReplayController::new(main, m.func(main), &l, &slice, &golden, &perm);
            let planned = run_replay(&mut machine, &mut ctl, false, budget, gov);
            let planned = (planned, machine.snapshot());
            machine.restore(&golden.snapshot);
            let order = Perm { perm: &perm, k: 0 };
            let mut ctl = ReferenceController::new(main, m.func(main), &l, &slice, &golden, order);
            let end = run_reference(&mut machine, &mut ctl, false, budget, gov);
            assert!(planned == (end, machine.snapshot()), "budget {budget}");
        }
    }

    #[test]
    fn worklist_traversal_replays_under_permutation() {
        // A worklist-sum in the style of the paper's Fig. 2 / treeadd:
        // the pop is a destructive iterator whose effects the pre-pass
        // applies once; the payload sum commutes.
        let src = "struct Cell { v: int, next: *Cell }\n\
             struct List { head: *Cell }\n\
             fn push(l: *List, v: int) { \
               let c: *Cell = new Cell; c.v = v; c.next = l.head; l.head = c; }\n\
             fn main() -> int {\n\
               let wl: *List = new List;\n\
               for (let i: int = 0; i < 10; i = i + 1) { push(wl, i * i); }\n\
               let sum: int = 0;\n\
               @drain: while (wl.head != null) {\n\
                 let c: *Cell = wl.head;\n\
                 wl.head = c.next;\n\
                 sum = sum + c.v;\n\
               }\n\
               return sum;\n\
             }";
        let (golden, end, _) = replay_with(src, "drain", |n| (0..n).rev().collect());
        assert_eq!(end, ReplayEnd::Finished(golden.ret));
        let (golden, end, _) = replay_with(src, "drain", |n| {
            let mut p: Vec<usize> = (0..n).step_by(2).collect();
            p.extend((1..n).step_by(2));
            p
        });
        assert_eq!(end, ReplayEnd::Finished(golden.ret));
    }
}
