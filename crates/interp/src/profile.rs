//! Loop-activation tracking for whole-program instrumented runs.
//!
//! DCA's golden recording (paper §IV-B1), sequential coverage (Tables II
//! and IV), the simulator's per-iteration costs (Figs. 5–7) and the
//! dynamic baselines' dependence profiles all rest on the same three
//! facts about a run: when a loop is entered, when it starts another
//! iteration, and when it exits. [`LoopTracker`] is the one [`Hooks`]
//! implementation that derives them; each consumer is a [`LoopSink`] that
//! keeps its own per-activation state and its own rules. Sinks that need
//! more also have one planned instruction per block of an activation's
//! own frame reported, its calls, and each memory access with where it
//! ran, a store with its old and new values.
//!
//! An *activation* is one invocation of a loop in one call frame: a loop
//! of a recursive function can be live at several frame depths at once,
//! and each depth is its own activation.

use crate::hooks::{Hooks, Plan, Site};
use crate::machine::{Machine, Outcome, Trap};
use crate::value::{Addr, Value};
use dca_ir::{BlockId, FuncId, FuncView, Loop, LoopId, LoopRef, Module};
use std::collections::BTreeSet;

/// A consumer of the loop events a [`LoopTracker`] derives from a run.
///
/// Events arrive in execution order. Activations nest: the tracker exits
/// them innermost first, so a sink may treat them as a stack.
///
/// A sink does nothing without a live activation: an [`LoopSink::access`]
/// with none live has no effect, and only the sink's own events turn
/// [`LoopSink::stop`] on. [`LoopTracker::run`] relies on this contract to
/// run the stretches with no live activation without the sink.
#[allow(unused_variables)]
pub trait LoopSink {
    /// What the sink keeps for each live activation.
    type Act;

    /// Called once for each function with tracked loops, in function
    /// order, while the tracker builds its tables: a sink can precompute
    /// static per-loop facts from the same view.
    fn prepare(&mut self, view: &FuncView<'_>) {}

    /// `lref` was entered at step `steps` (at its header). `nested` tells
    /// whether another tracked activation — any loop, any frame — is live;
    /// `vars` are the entering frame's variables.
    fn enter(&mut self, lref: LoopRef, steps: u64, nested: bool, vars: &[Value]) -> Self::Act;

    /// Control re-arrived at the activation's header at step `steps`: the
    /// previous iteration ended and another begins (or the exit check
    /// runs). `vars` are the activation's frame variables.
    fn iterate(&mut self, act: &mut Self::Act, steps: u64, vars: &[Value]) {}

    /// The instruction of `block` at or after `from` that the sink wants
    /// reported to [`LoopSink::inst`], in the frame of the innermost live
    /// activation; `frame` holds that frame's live activations, outermost
    /// first. Asked whenever the machine plans a window of one of the
    /// frame's blocks ([`Hooks::plan`]), so it must depend only on the
    /// sink's state.
    fn plan(&self, frame: &[Self::Act], block: BlockId, from: usize) -> Option<usize> {
        None
    }

    /// Instruction `idx` of `block`, the one [`LoopSink::plan`] asked for,
    /// is about to run in the frame of the innermost live activation.
    /// `frame` holds every live activation of that frame, outermost first
    /// (a nest of loops of one function, so `block` is one of each one's
    /// loop blocks). Callees' instructions, including deeper activations'
    /// frames, are not reported to the activations of a caller's frame.
    fn inst(&mut self, frame: &mut [Self::Act], block: BlockId, idx: usize, vars: &[Value]) {}

    /// Instruction `idx` of `block` in the frame of the innermost live
    /// activation calls a function; `frame` as for [`LoopSink::inst`].
    fn call(&mut self, frame: &mut [Self::Act], block: BlockId, idx: usize) {}

    /// The activation of `lref` ended at step `steps`: control left the
    /// loop's blocks, or its frame returned. `None` means the run ended
    /// while it was still live.
    fn exit(&mut self, lref: LoopRef, act: Self::Act, steps: Option<u64>);

    /// A memory cell was read (`store == None`) or overwritten
    /// (`store == Some((old, new))`) while `live` activations (outermost
    /// first) were on the stack, by the instruction `at` names.
    fn access(
        &mut self,
        live: &mut [Self::Act],
        at: AccessAt,
        addr: Addr,
        store: Option<(Value, Value)>,
    ) {
    }

    /// Whether the run should stop before its next step, so that the
    /// caller can act on the machine where it stands ([`Hooks::stop`]).
    /// Polled after block entries and returns, the points where `enter`,
    /// `iterate` and `exit` are called.
    fn stop(&self) -> bool {
        false
    }
}

/// Where a heap access ran, relative to the live activations
/// ([`LoopSink::access`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessAt {
    /// Index in the live activations of the first one whose frame made
    /// the access: the live count when the access ran in a frame with no
    /// live activation, a callee of the innermost one.
    pub frame: usize,
    /// The accessing instruction's block.
    pub block: BlockId,
    /// The accessing instruction's index in `block`.
    pub idx: usize,
}

/// Per-function loop tables, built once per tracker.
#[derive(Default)]
struct FuncTable {
    /// For each block, the tracked loops containing it (outermost first)
    /// as a `(start, len)` range of `chains`.
    block_chain: Vec<(u32, u32)>,
    /// The blocks' chains, concatenated.
    chains: Vec<LoopId>,
    /// Header block of each tracked loop, by loop index.
    header: Vec<BlockId>,
}

impl FuncTable {
    /// The table of a function of `nblocks` blocks that tracks `loops`,
    /// loops of its forest.
    fn build<'l>(nblocks: usize, loops: impl IntoIterator<Item = &'l Loop>) -> Self {
        let mut loops: Vec<&Loop> = loops.into_iter().collect();
        // Of two loops containing one block, one nests in the other and is
        // deeper: by depth, each block's loops come outermost first.
        loops.sort_by_key(|l| l.depth);
        let mut per_block = vec![Vec::new(); nblocks];
        let mut header = Vec::new();
        for l in &loops {
            for &b in &l.blocks {
                per_block[b.index()].push(l.id);
            }
            if header.len() <= l.id.index() {
                header.resize(l.id.index() + 1, BlockId(0));
            }
            header[l.id.index()] = l.header;
        }
        let mut chains = Vec::new();
        let block_chain = per_block
            .into_iter()
            .map(|chain| {
                let start = chains.len() as u32;
                chains.extend(chain);
                (start, chains.len() as u32 - start)
            })
            .collect();
        FuncTable {
            block_chain,
            chains,
            header,
        }
    }

    /// The tracked loops containing `block`, outermost first.
    #[inline]
    fn chain(&self, block: BlockId) -> &[LoopId] {
        match self.block_chain.get(block.index()) {
            Some(&(start, len)) => &self.chains[start as usize..(start + len) as usize],
            None => &[],
        }
    }

    /// Whether `block` is in a tracked loop.
    #[inline(always)]
    fn tracks(&self, block: BlockId) -> bool {
        self.block_chain
            .get(block.index())
            .is_some_and(|&(_, len)| len > 0)
    }
}

/// The loop-tracking [`Hooks`] implementation: follows loop activations
/// through a run and reports them to a [`LoopSink`].
///
/// A loop is entered when control reaches one of its blocks from outside
/// (for the reducible control flow the frontend emits, its header), starts
/// an iteration on every later header arrival, and exits when control
/// reaches a block of its frame outside the loop or the frame returns.
/// Memory accesses are forwarded with every live activation.
///
/// [`LoopTracker::run`] drives a machine with it: while no activation is
/// live, the run goes on under a hook that looks at block entries only,
/// so untracked stretches of a program cost about what a plain run does.
pub struct LoopTracker<S: LoopSink> {
    tables: Vec<FuncTable>,
    /// Live activations, outermost first: (frame depth, loop). Sorted by
    /// depth; within one frame it is a prefix of the current block's chain.
    live: Vec<(usize, LoopRef)>,
    /// The sink's state for each entry of `live`.
    acts: Vec<S::Act>,
    /// Index in `live` of the innermost frame's first activation.
    top_base: usize,
    /// That frame's depth plus one, 0 with no activation live: the
    /// per-instruction and per-return checks read one field.
    top: usize,
    /// Set while [`LoopTracker::run`] runs the machine under the tracker:
    /// the run then stops once no activation is live, to go on idle.
    driven: bool,
    steps: TrackedSteps,
    sink: S,
}

/// The steps [`LoopTracker::run`] ran, by whether an activation was live.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrackedSteps {
    /// Steps run with no activation live, under the block-entry hook.
    pub idle: u64,
    /// Steps run with an activation live, under the tracker's hooks.
    pub tracked: u64,
}

/// The hooks of an idle stretch, while no activation is live: a block
/// entry into a tracked loop is handed to the tracker, which enters it,
/// and ends the stretch.
struct Idle<'t, S: LoopSink> {
    tracker: &'t mut LoopTracker<S>,
    entered: bool,
}

impl<S: LoopSink> Hooks for Idle<'_, S> {
    #[inline(always)]
    fn on_block(&mut self, site: Site, block: BlockId, vars: &mut [Value]) {
        if self.tracker.tables[site.func.index()].tracks(block) {
            self.tracker.cross(site, block, vars);
            self.entered = true;
        }
    }

    fn stop(&self) -> bool {
        self.entered
    }
}

impl<S: LoopSink> LoopTracker<S> {
    /// Tracks every loop of `module`.
    pub fn new(module: &Module, sink: S) -> Self {
        Self::build(module, None, sink)
    }

    /// Tracks only the loops in `selection`. Entry, iteration and exit of
    /// an untracked loop are not events; `nested` and the live set refer
    /// to tracked activations only.
    pub fn watching(module: &Module, selection: &BTreeSet<LoopRef>, sink: S) -> Self {
        Self::build(module, Some(selection), sink)
    }

    /// Tracks `loops`, each a loop of the function it is paired with, as
    /// [`LoopTracker::watching`] tracks the same selection: for a caller
    /// that already holds the loops. No function is viewed, so the sink's
    /// [`LoopSink::prepare`] is not called.
    pub fn over(module: &Module, loops: &[(FuncId, &Loop)], sink: S) -> Self {
        let tables = (0..module.funcs.len())
            .map(|i| {
                let func = FuncId(i as u32);
                let mut mine = loops.iter().filter(|&&(f, _)| f == func).peekable();
                if mine.peek().is_none() {
                    return FuncTable::default();
                }
                FuncTable::build(module.func(func).blocks.len(), mine.map(|&(_, l)| l))
            })
            .collect();
        Self::with_tables(tables, sink)
    }

    fn build(module: &Module, selection: Option<&BTreeSet<LoopRef>>, mut sink: S) -> Self {
        let tables = (0..module.funcs.len())
            .map(|i| {
                let func = FuncId(i as u32);
                if selection.is_some_and(|s| !s.iter().any(|l| l.func == func)) {
                    return FuncTable::default();
                }
                let view = FuncView::new(module, func);
                sink.prepare(&view);
                let tracked = |l: &&Loop| {
                    selection.is_none_or(|s| {
                        s.contains(&LoopRef {
                            func,
                            loop_id: l.id,
                        })
                    })
                };
                FuncTable::build(view.func.blocks.len(), view.loops.iter().filter(tracked))
            })
            .collect();
        Self::with_tables(tables, sink)
    }

    fn with_tables(tables: Vec<FuncTable>, sink: S) -> Self {
        LoopTracker {
            tables,
            live: Vec::new(),
            acts: Vec::new(),
            top_base: 0,
            top: 0,
            driven: false,
            steps: TrackedSteps::default(),
            sink,
        }
    }

    /// Runs `machine` under the tracker for at most `max_steps` steps, as
    /// [`Machine::run`] runs it under the tracker's [`Hooks`], with the
    /// same events, step count and result. It differs in cost only:
    /// stretches with no live activation run under a hook that looks up
    /// each block entry in one table and does nothing else. A sink that
    /// asks to stop ([`LoopSink::stop`]) ends the run with
    /// [`Outcome::Stopped`], and a later `run` continues there.
    ///
    /// # Errors
    ///
    /// Propagates the machine's first [`Trap`].
    pub fn run(&mut self, machine: &mut Machine<'_>, max_steps: u64) -> Result<Outcome, Trap> {
        let end = machine.steps().saturating_add(max_steps);
        loop {
            let start = machine.steps();
            let left = end - start;
            let out = if self.live.is_empty() {
                let out = machine.run(
                    &mut Idle {
                        tracker: self,
                        entered: false,
                    },
                    left,
                );
                self.steps.idle += machine.steps() - start;
                out
            } else {
                self.driven = true;
                let out = machine.run(self, left);
                self.driven = false;
                self.steps.tracked += machine.steps() - start;
                out
            };
            match out? {
                // The run changed sides: go on under the other hooks.
                Outcome::Stopped if !self.sink.stop() => {}
                out => return Ok(out),
            }
        }
    }

    /// The steps [`LoopTracker::run`] has run so far.
    pub fn steps(&self) -> TrackedSteps {
        self.steps
    }

    /// The sink, for a caller that reads the sink's state between runs
    /// (after the sink stopped one, see [`LoopSink::stop`]).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Ends tracking: every activation still live is reported to the sink
    /// as unfinished (innermost first), and the sink is handed back.
    pub fn finish(mut self) -> S {
        while let (Some((_, lref)), Some(act)) = (self.live.pop(), self.acts.pop()) {
            self.sink.exit(lref, act, None);
        }
        self.sink
    }

    /// Index of the first live activation at frame depth `depth` or
    /// deeper.
    fn frame_base(&self, depth: usize) -> usize {
        self.live
            .iter()
            .rposition(|&(d, _)| d < depth)
            .map_or(0, |i| i + 1)
    }

    /// Where an access at `site` ran, relative to the live activations.
    #[inline(always)]
    fn access_at(&self, site: Site) -> AccessAt {
        AccessAt {
            frame: if self.top == site.depth + 1 {
                self.top_base
            } else {
                self.acts.len()
            },
            block: site.block,
            idx: site.inst as usize,
        }
    }

    /// Exits live activations (innermost first) until `keep` remain.
    #[inline(never)]
    fn close_down_to(&mut self, keep: usize, steps: u64) {
        if self.live.len() <= keep {
            return;
        }
        while self.live.len() > keep {
            let (Some((_, lref)), Some(act)) = (self.live.pop(), self.acts.pop()) else {
                unreachable!("`live` and `acts` have equal lengths");
            };
            self.sink.exit(lref, act, Some(steps));
        }
        self.top_base = self.live.last().map_or(0, |&(d, _)| self.frame_base(d));
        self.top = self.live.last().map_or(0, |&(d, _)| d + 1);
    }

    /// A block entry that exits or enters tracked loops: exits the
    /// frame's activations the block is outside of, enters the loops it
    /// is newly inside, and reports a header re-arrival.
    #[inline(never)]
    fn cross(&mut self, site: Site, block: BlockId, vars: &[Value]) {
        let table = &self.tables[site.func.index()];
        let chain = table.chain(block);
        let base = self.frame_base(site.depth);
        // How much of this frame's live stack is still a prefix of the
        // block's chain; everything above it has been exited.
        let matched = self.live[base..]
            .iter()
            .zip(chain)
            .take_while(|&(&(d, l), &c)| d == site.depth && l.func == site.func && l.loop_id == c)
            .count();
        let header_arrival = matched > 0
            && matched == chain.len()
            && table.header[chain[matched - 1].index()] == block;
        self.close_down_to(base + matched, site.steps);
        for &loop_id in &self.tables[site.func.index()].chain(block)[matched..] {
            let lref = LoopRef {
                func: site.func,
                loop_id,
            };
            let nested = !self.live.is_empty();
            self.acts
                .push(self.sink.enter(lref, site.steps, nested, vars));
            self.live.push((site.depth, lref));
            self.top_base = base;
            self.top = site.depth + 1;
        }
        // Header re-arrival of the innermost live loop: a new iteration.
        if header_arrival {
            let act = self.acts.last_mut().expect("matched activation is live");
            self.sink.iterate(act, site.steps, vars);
        }
    }
}

impl<S: LoopSink> Hooks for LoopTracker<S> {
    // Inlined into the run loop with the common cases decided here; the
    // rest is `cross`.
    #[inline(always)]
    fn on_block(&mut self, site: Site, block: BlockId, vars: &mut [Value]) {
        let table = &self.tables[site.func.index()];
        if table.chains.is_empty() {
            // No activation is live in a frame without tracked loops, nor
            // deeper: those exited when their frames returned.
            return;
        }
        let chain = table.chain(block);
        // Within its loops, a frame's live activations are the chain of
        // the innermost one: when that is also the block's innermost
        // tracked loop, nothing enters or exits, and at its header an
        // iteration begins.
        let top = self.live.last().filter(|&&(d, _)| d == site.depth);
        match (top, chain.last()) {
            (Some(&(_, l)), Some(&inner)) if l.func == site.func && l.loop_id == inner => {
                if table.header[inner.index()] == block {
                    let act = self.acts.last_mut().expect("a live activation");
                    self.sink.iterate(act, site.steps, vars);
                }
            }
            // Outside tracked loops, with none live in this frame.
            (None, None) => {}
            _ => self.cross(site, block, vars),
        }
    }

    // The planning and per-access hooks are inlined into the run loop:
    // a call per block or access would cost more than their work.
    #[inline(always)]
    fn plan(&self, site: Site, block: BlockId, from: usize) -> Plan {
        // While an activation is live, code runs in its frame or in the
        // deeper frames of its callees. The live stack is sorted by depth,
        // so this frame's activations are its top run at `site.depth`,
        // from `top_base` on. (`get` has no panic path, so for a sink
        // without `plan` all of this compiles away.)
        if self.top == site.depth + 1 {
            if let Some(idx) = self
                .acts
                .get(self.top_base..)
                .and_then(|frame| self.sink.plan(frame, block, from))
            {
                return Plan::RUN.notifying(idx);
            }
        }
        Plan::RUN
    }

    fn inst(&mut self, site: Site, block: BlockId, idx: usize, vars: &mut [Value]) {
        if self.top == site.depth + 1 {
            if let Some(frame) = self.acts.get_mut(self.top_base..) {
                self.sink.inst(frame, block, idx, vars);
            }
        }
    }

    #[inline(always)]
    fn on_call(&mut self, site: Site, _callee: FuncId) {
        if self.top == site.depth + 1 {
            if let Some(frame) = self.acts.get_mut(self.top_base..) {
                self.sink.call(frame, site.block, site.inst as usize);
            }
        }
    }

    #[inline(always)]
    fn on_return(&mut self, site: Site, _func: FuncId) {
        // `site.depth` is the returning frame's: its loops, and anything
        // deeper, have exited.
        if self.top > site.depth {
            self.close_down_to(self.frame_base(site.depth), site.steps);
        }
    }

    #[inline(always)]
    fn on_read(&mut self, site: Site, addr: Addr) {
        let at = self.access_at(site);
        self.sink.access(&mut self.acts, at, addr, None);
    }

    #[inline(always)]
    fn on_store(&mut self, site: Site, addr: Addr, old: Value, new: Value) {
        let at = self.access_at(site);
        self.sink.access(&mut self.acts, at, addr, Some((old, new)));
    }

    fn stop(&self) -> bool {
        self.sink.stop() || (self.driven && self.top == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use dca_ir::compile;
    use std::collections::HashMap;

    /// Per-loop aggregates over all activations.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct Stats {
        /// Activations.
        invocations: u64,
        /// Header arrivals, entry included (the trip count plus one).
        arrivals: u64,
        /// Steps inside the loop, inclusive of nested loops and calls.
        steps: u64,
        /// Activations entered while another one was live.
        nested: u64,
        /// Activations still live when the run ended.
        unfinished: u64,
        /// Accesses seen while this loop was live.
        accesses: u64,
    }

    #[derive(Default)]
    struct StatsSink {
        loops: HashMap<LoopRef, Stats>,
    }

    impl LoopSink for StatsSink {
        type Act = (LoopRef, u64);

        fn enter(&mut self, lref: LoopRef, steps: u64, nested: bool, _: &[Value]) -> Self::Act {
            let s = self.loops.entry(lref).or_default();
            s.invocations += 1;
            s.arrivals += 1;
            s.nested += u64::from(nested);
            (lref, steps)
        }

        fn iterate(&mut self, act: &mut Self::Act, _: u64, _: &[Value]) {
            self.loops.entry(act.0).or_default().arrivals += 1;
        }

        fn exit(&mut self, lref: LoopRef, act: Self::Act, steps: Option<u64>) {
            let s = self.loops.entry(lref).or_default();
            match steps {
                Some(now) => s.steps += now - act.1,
                None => s.unfinished += 1,
            }
        }

        fn access(
            &mut self,
            live: &mut [Self::Act],
            _: AccessAt,
            _: Addr,
            _: Option<(Value, Value)>,
        ) {
            for &mut (lref, _) in live {
                self.loops.entry(lref).or_default().accesses += 1;
            }
        }
    }

    struct Run {
        module: Module,
        stats: HashMap<LoopRef, Stats>,
        total_steps: u64,
    }

    impl Run {
        fn stats(&self, tag: &str) -> Stats {
            self.stats
                .get(&loop_by_tag(&self.module, tag))
                .copied()
                .unwrap_or_default()
        }

        fn coverage(&self, tag: &str) -> f64 {
            self.stats(tag).steps as f64 / self.total_steps as f64
        }
    }

    fn run_with(src: &str, watch: Option<&[&str]>, max_steps: u64) -> Run {
        let module = compile(src).expect("compile");
        let mut machine = Machine::new(&module);
        machine
            .push_call(module.main().expect("main"), &[])
            .expect("push");
        let mut tracker = match watch {
            None => LoopTracker::new(&module, StatsSink::default()),
            Some(tags) => {
                let selection = tags.iter().map(|t| loop_by_tag(&module, t)).collect();
                LoopTracker::watching(&module, &selection, StatsSink::default())
            }
        };
        tracker.run(&mut machine, max_steps).expect("run");
        Run {
            stats: tracker.finish().loops,
            total_steps: machine.steps(),
            module,
        }
    }

    fn run(src: &str) -> Run {
        run_with(src, None, u64::MAX)
    }

    fn loop_by_tag(m: &Module, tag: &str) -> LoopRef {
        for (lref, t) in dca_ir::all_loops(m) {
            if t.as_deref() == Some(tag) {
                return lref;
            }
        }
        panic!("no loop tagged @{tag}");
    }

    #[test]
    fn single_loop_counts() {
        let r = run("fn main() { let s: int = 0; \
             @l: for (let i: int = 0; i < 10; i = i + 1) { s = s + i; } }");
        let stats = r.stats("l");
        assert_eq!(stats.invocations, 1);
        // 10 executed iterations + the final failing check.
        assert_eq!(stats.arrivals, 11);
        assert!(stats.steps > 0);
        assert_eq!((stats.nested, stats.unfinished), (0, 0));
    }

    #[test]
    fn nested_loops_inclusive_attribution() {
        let r = run("fn main() { let s: int = 0; \
             @outer: for (let i: int = 0; i < 4; i = i + 1) { \
               @inner: for (let j: int = 0; j < 4; j = j + 1) { s = s + 1; } } }");
        let (outer, inner) = (r.stats("outer"), r.stats("inner"));
        assert_eq!(outer.invocations, 1);
        assert_eq!(
            outer.arrivals, 5,
            "inner header arrivals are not outer iterations"
        );
        assert_eq!(inner.invocations, 4);
        assert_eq!(inner.nested, 4);
        assert!(
            outer.steps > inner.steps,
            "outer ({}) must include inner ({})",
            outer.steps,
            inner.steps
        );
    }

    #[test]
    fn coverage_is_a_fraction_of_total() {
        let r = run("fn main() { let s: int = 0; \
             @hot: for (let i: int = 0; i < 200; i = i + 1) { s = s + i; } \
             s = s * 2; }");
        let cov = r.coverage("hot");
        assert!(cov > 0.8 && cov <= 1.0, "coverage {cov}");
    }

    #[test]
    fn loops_in_called_functions_tracked() {
        let r = run("fn work(n: int) -> int { let s: int = 0; \
             @w: for (let i: int = 0; i < n; i = i + 1) { s = s + i; } return s; }\n\
             fn main() { work(5); work(7); }");
        let w = r.stats("w");
        assert_eq!(w.invocations, 2);
        assert_eq!(w.arrivals, 5 + 1 + 7 + 1);
    }

    #[test]
    fn call_inside_loop_attributes_to_loop() {
        let r = run("fn heavy() -> int { let s: int = 0; \
             @callee: for (let i: int = 0; i < 50; i = i + 1) { s = s + i; } return s; }\n\
             fn main() { let t: int = 0; \
             @caller: for (let k: int = 0; k < 3; k = k + 1) { t = t + heavy(); } }");
        let caller = r.stats("caller");
        // The callee's ~50-iteration loop runs inside; inclusive cost must
        // dwarf the caller's own 3 iterations of bookkeeping.
        assert!(caller.steps > 300, "caller steps = {}", caller.steps);
        assert_eq!(r.stats("callee").nested, 3, "the caller loop is live");
    }

    #[test]
    fn unexecuted_loop_has_no_events() {
        let r = run("fn dead() { @never: while (false) { } }\n\
             fn main() { }");
        assert_eq!(r.stats("never"), Stats::default());
        assert_eq!(r.coverage("never"), 0.0);
    }

    #[test]
    fn recursive_loop_is_one_activation_per_frame() {
        // `rec(2)` runs @r at depths 1, 2 and 3 at once: each frame's
        // invocation is its own activation, nested in the caller's.
        let r = run("fn rec(n: int) -> int { let s: int = 0; \
             @r: for (let i: int = 0; i < 2; i = i + 1) { \
               if (n > 0) { s = s + rec(n - 1); } s = s + 1; } return s; }\n\
             fn main() { rec(2); }");
        let rec = r.stats("r");
        // 1 + 2 + 4 invocations, each with 2 iterations and an exit check.
        assert_eq!(rec.invocations, 7);
        assert_eq!(rec.arrivals, 7 * 3);
        assert_eq!(rec.nested, 6);
        assert_eq!(rec.unfinished, 0);
        // Inclusive steps add up per activation, so overlapping depths
        // count more than the whole run.
        assert!(
            rec.steps > r.total_steps,
            "{} vs {}",
            rec.steps,
            r.total_steps
        );
    }

    #[test]
    fn watching_ignores_untracked_loops() {
        let src = "fn main() { let a: [int; 4]; \
             @outer: for (let i: int = 0; i < 3; i = i + 1) { \
               @inner: for (let j: int = 0; j < 4; j = j + 1) { a[j] = i; } } }";
        let r = run_with(src, Some(&["inner"]), u64::MAX);
        assert_eq!(r.stats("outer"), Stats::default());
        let inner = r.stats("inner");
        assert_eq!((inner.invocations, inner.arrivals), (3, 15));
        assert_eq!(inner.nested, 0, "only tracked activations nest");
        assert_eq!(inner.accesses, 12);
    }

    #[test]
    fn accesses_reach_every_live_activation() {
        let r = run("fn main() { let a: [int; 4]; \
             @outer: for (let i: int = 0; i < 3; i = i + 1) { \
               a[i] = i; \
               @inner: for (let j: int = 0; j < 4; j = j + 1) { a[j] = a[j] + 1; } } }");
        assert_eq!(r.stats("inner").accesses, 3 * 4 * 2);
        assert_eq!(r.stats("outer").accesses, 3 + 3 * 4 * 2);
    }

    /// Logs the per-frame events of every activation of one function's
    /// loops, watching variable `var` of that function.
    struct FrameSink {
        var: dca_ir::VarId,
        nvars: usize,
        /// `var` at each header re-arrival.
        arrivals: Vec<Value>,
        /// Instruction events, and those whose frame was not the
        /// activation's (other variables or another value of `var`).
        insts: u64,
        foreign: u64,
        stores: Vec<(Value, Value)>,
        reads: u64,
    }

    impl LoopSink for FrameSink {
        /// `var` at entry.
        type Act = Value;

        fn enter(&mut self, _: LoopRef, _: u64, _: bool, vars: &[Value]) -> Value {
            vars[self.var.index()]
        }

        fn iterate(&mut self, _: &mut Value, _: u64, vars: &[Value]) {
            self.arrivals.push(vars[self.var.index()]);
        }

        // The first instruction of each block.
        fn plan(&self, _: &[Value], _: BlockId, _: usize) -> Option<usize> {
            Some(0)
        }

        fn inst(&mut self, frame: &mut [Value], _: BlockId, _: usize, vars: &[Value]) {
            for act in frame {
                self.insts += 1;
                if vars.len() != self.nvars || vars[self.var.index()] != *act {
                    self.foreign += 1;
                }
            }
        }

        fn exit(&mut self, _: LoopRef, _: Value, _: Option<u64>) {}

        fn access(&mut self, _: &mut [Value], _: AccessAt, _: Addr, store: Option<(Value, Value)>) {
            match store {
                Some(s) => self.stores.push(s),
                None => self.reads += 1,
            }
        }
    }

    /// Runs `src` with a [`FrameSink`] tracking `func`'s loops and
    /// watching its variable `var`.
    fn frame_events(src: &str, func: &str, var: &str) -> FrameSink {
        let module = compile(src).expect("compile");
        let fid = module.func_by_name(func).expect("func");
        let f = module.func(fid);
        let var = (0..f.vars.len())
            .map(|i| dca_ir::VarId(i as u32))
            .find(|&v| f.var(v).name == var)
            .expect("var");
        let sink = FrameSink {
            var,
            nvars: f.vars.len(),
            arrivals: Vec::new(),
            insts: 0,
            foreign: 0,
            stores: Vec::new(),
            reads: 0,
        };
        let selection = dca_ir::all_loops(&module)
            .into_iter()
            .map(|(l, _)| l)
            .filter(|l| l.func == fid)
            .collect();
        let mut machine = Machine::new(&module);
        machine
            .push_call(module.main().expect("main"), &[])
            .expect("push");
        let mut tracker = LoopTracker::watching(&module, &selection, sink);
        tracker.run(&mut machine, u64::MAX).expect("run");
        tracker.finish()
    }

    #[test]
    fn inst_events_stay_in_the_activation_frame() {
        // Each @r activation calls a helper and recurses before its loop
        // starts in the deeper frame: neither frame's instructions may
        // reach the caller's activation.
        let src = "fn h(k: int) -> int { let z: int = k * 7; return z; }\n\
             fn rec(n: int) -> int { let s: int = h(n); \
               @r: for (let i: int = 0; i < 2; i = i + 1) { \
                 s = s + h(i); if (n > 0) { s = s + rec(n - 1); } } return s; }\n\
             fn main() { rec(2); }";
        let e = frame_events(src, "rec", "n");
        assert!(e.insts > 0);
        assert_eq!(e.foreign, 0, "{} of {} events", e.foreign, e.insts);
    }

    #[test]
    fn inst_events_reach_every_activation_of_the_frame() {
        /// Each instruction event, once per activation it reached.
        struct Blocks(Vec<(LoopRef, BlockId)>);

        impl LoopSink for Blocks {
            type Act = LoopRef;

            fn enter(&mut self, lref: LoopRef, _: u64, _: bool, _: &[Value]) -> LoopRef {
                lref
            }

            fn plan(&self, _: &[LoopRef], _: BlockId, _: usize) -> Option<usize> {
                Some(0)
            }

            fn inst(&mut self, frame: &mut [LoopRef], block: BlockId, _: usize, _: &[Value]) {
                for &mut l in frame {
                    self.0.push((l, block));
                }
            }

            fn exit(&mut self, _: LoopRef, _: LoopRef, _: Option<u64>) {}
        }

        // @inner's header runs in main's frame, where @outer is live too.
        let module = compile(
            "fn main() { let a: [int; 8]; let k: int = 0; \
             @outer: for (let i: int = 0; i < 3; i = i + 1) { \
               @inner: while (k < (i + 1) * 2) { a[k] = i; k = k + 1; } } }",
        )
        .expect("compile");
        let (outer, inner) = (loop_by_tag(&module, "outer"), loop_by_tag(&module, "inner"));
        let header = FuncView::new(&module, inner.func)
            .loops
            .get(inner.loop_id)
            .header;
        let mut machine = Machine::new(&module);
        machine
            .push_call(module.main().expect("main"), &[])
            .expect("push");
        let mut tracker = LoopTracker::new(&module, Blocks(Vec::new()));
        machine.run(&mut tracker, u64::MAX).expect("run");
        let events = tracker.finish().0;
        let in_header = |l: LoopRef| events.iter().filter(|&&e| e == (l, header)).count();
        assert!(in_header(inner) > 0);
        assert_eq!(in_header(outer), in_header(inner));
    }

    #[test]
    fn iterate_sees_the_frame_and_stores_carry_values() {
        let e = frame_events(
            "fn main() { let a: [int; 1]; \
             @l: for (let i: int = 0; i < 3; i = i + 1) { a[0] = a[0] + i; } }",
            "main",
            "i",
        );
        let ints = |xs: &[i64]| xs.iter().map(|&x| Value::Int(x)).collect::<Vec<_>>();
        assert_eq!(e.arrivals, ints(&[1, 2, 3]));
        let (old, new): (Vec<Value>, Vec<Value>) = e.stores.into_iter().unzip();
        assert_eq!((old, new), (ints(&[0, 0, 1]), ints(&[0, 1, 3])));
        assert_eq!(e.reads, 3);
    }

    #[test]
    fn run_and_single_steps_report_the_same_events() {
        /// Every sink event, in order.
        struct Log(Vec<String>);

        impl LoopSink for Log {
            type Act = LoopRef;

            fn enter(&mut self, l: LoopRef, steps: u64, nested: bool, vars: &[Value]) -> LoopRef {
                self.0.push(format!("enter {l} {steps} {nested} {vars:?}"));
                l
            }

            fn iterate(&mut self, l: &mut LoopRef, steps: u64, vars: &[Value]) {
                self.0.push(format!("iterate {l} {steps} {vars:?}"));
            }

            // Each block's second instruction, so that a stop or a call
            // between a block's entry and it still reports it once.
            fn plan(&self, _: &[LoopRef], _: BlockId, _: usize) -> Option<usize> {
                Some(1)
            }

            fn inst(&mut self, frame: &mut [LoopRef], block: BlockId, idx: usize, _: &[Value]) {
                self.0.push(format!("inst {frame:?} {block} {idx}"));
            }

            fn exit(&mut self, l: LoopRef, _: LoopRef, steps: Option<u64>) {
                self.0.push(format!("exit {l} {steps:?}"));
            }

            fn call(&mut self, frame: &mut [LoopRef], block: BlockId, idx: usize) {
                self.0.push(format!("call {frame:?} {block} {idx}"));
            }

            fn access(
                &mut self,
                live: &mut [LoopRef],
                at: AccessAt,
                addr: Addr,
                store: Option<(Value, Value)>,
            ) {
                // Nothing without a live activation, as the contract asks.
                if !live.is_empty() {
                    self.0
                        .push(format!("access {live:?} {at:?} {addr} {store:?}"));
                }
            }
        }

        let module = compile(
            "fn h(k: int) -> int { let z: int = k * 7; return z; }\n\
             fn rec(n: int, a: *int) -> int { let s: int = h(n); \
               @r: for (let i: int = 0; i < 2; i = i + 1) { \
                 a[i] = a[i] + s; if (n > 0) { s = s + rec(n - 1, a); } } return s; }\n\
             fn main() -> int { let a: *int = new [int; 4]; let t: int = 0; \
               @m: for (let j: int = 0; j < 3; j = j + 1) { t = t + rec(1, a); } \
               return t + a[0]; }",
        )
        .expect("compile");
        /// How the machine is run under the tracker.
        #[derive(Clone, Copy)]
        enum Drive {
            /// `Machine::run` with the tracker's hooks throughout.
            Hooks,
            /// `Machine::step` with the tracker's hooks throughout.
            Steps,
            /// `LoopTracker::run`, idle stretches hook-free, with this
            /// budget per call.
            Tracker(u64),
        }
        let log = |watch: Option<&BTreeSet<LoopRef>>, drive: Drive| {
            let mut machine = Machine::new(&module);
            machine
                .push_call(module.main().expect("main"), &[])
                .expect("push");
            let sink = Log(Vec::new());
            let mut tracker = match watch {
                None => LoopTracker::new(&module, sink),
                Some(w) => LoopTracker::watching(&module, w, sink),
            };
            match drive {
                Drive::Hooks => drop(machine.run(&mut tracker, u64::MAX).expect("run")),
                Drive::Steps => {
                    while machine.result().is_none() {
                        machine.step(&mut tracker).expect("step");
                    }
                }
                Drive::Tracker(budget) => {
                    while machine.result().is_none() {
                        tracker.run(&mut machine, budget).expect("run");
                    }
                    let steps = tracker.steps();
                    assert_eq!(steps.idle + steps.tracked, machine.steps());
                    assert!(steps.idle > 0 && steps.tracked > 0, "{steps:?}");
                }
            }
            (tracker.finish().0, machine.result())
        };
        let rec_only = BTreeSet::from([loop_by_tag(&module, "r")]);
        for watch in [None, Some(&rec_only)] {
            let (run, ret) = log(watch, Drive::Hooks);
            assert!(run.len() > 100, "{} events", run.len());
            for drive in [Drive::Steps, Drive::Tracker(u64::MAX), Drive::Tracker(7)] {
                assert_eq!((&run, ret), (&log(watch, drive).0, ret));
            }
        }
    }

    #[test]
    fn tracker_runs_idle_stretches_without_the_sink() {
        /// Counts the accesses the sink sees with no activation live.
        #[derive(Default)]
        struct Unlive(u64, u64);

        impl LoopSink for Unlive {
            type Act = ();

            fn enter(&mut self, _: LoopRef, _: u64, _: bool, _: &[Value]) {}

            fn exit(&mut self, _: LoopRef, _: (), _: Option<u64>) {}

            fn access(&mut self, live: &mut [()], _: AccessAt, _: Addr, _: Option<(Value, Value)>) {
                if live.is_empty() {
                    self.0 += 1;
                } else {
                    self.1 += 1;
                }
            }
        }

        // Stores before, between and after the watched invocations, one
        // of them passed over by its zero trip count.
        let src = "fn fill(a: *int, n: int) { \
             @w: for (let i: int = 0; i < n; i = i + 1) { a[i] = i; } }\n\
             fn main() -> int { let a: *int = new [int; 8]; \
               for (let j: int = 0; j < 8; j = j + 1) { a[j] = 1; } \
               fill(a, 0); a[0] = 5; fill(a, 3); a[7] = a[0]; return a[7]; }";
        let module = compile(src).expect("compile");
        let watch = BTreeSet::from([loop_by_tag(&module, "w")]);
        let mut machine = Machine::new(&module);
        machine
            .push_call(module.main().expect("main"), &[])
            .expect("push");
        let mut hooked = LoopTracker::watching(&module, &watch, Unlive::default());
        machine.run(&mut hooked, u64::MAX).expect("run");
        let hooked = hooked.finish();
        assert!(hooked.0 > 0, "the direct run reports unlive accesses");
        let mut machine = Machine::new(&module);
        machine
            .push_call(module.main().expect("main"), &[])
            .expect("push");
        let mut tracker = LoopTracker::watching(&module, &watch, Unlive::default());
        tracker.run(&mut machine, u64::MAX).expect("run");
        let steps = tracker.steps();
        let driven = tracker.finish();
        assert_eq!((driven.0, driven.1), (0, hooked.1));
        assert_eq!(steps.idle + steps.tracked, machine.steps());
        assert!(steps.idle > steps.tracked, "{steps:?}");
    }

    #[test]
    fn finish_reports_live_activations_as_unfinished() {
        let src = "fn main() { let s: int = 0; \
             @l: for (let i: int = 0; i < 1000; i = i + 1) { s = s + i; } }";
        let r = run_with(src, None, 100);
        let l = r.stats("l");
        assert_eq!((l.invocations, l.unfinished, l.steps), (1, 1, 0));
    }
}
