//! Dynamic memory-dependence profiling.
//!
//! The dynamic baselines (Dependence Profiling [Tournavitis et al.] and
//! DiscoPoP [Li et al.]) decide parallelizability from observed memory
//! dependences. This module runs the program once under instrumentation and
//! produces, for every loop, the cross-iteration dependences it exhibited
//! and whether each conflicting location is privatizable (written before
//! read in every iteration that touches it).
//!
//! Scalars held in registers are not memory here — like the real tools,
//! the baselines combine this trace with *static* classification of
//! loop-carried scalars (induction variables, reductions).

use dca_analysis::ArrayKey;
use dca_core::cell_key;
use dca_interp::{AccessAt, Addr, LoopSink, LoopTracker, Machine, ObjId, Outcome, Trap, Value};
use dca_ir::{FuncView, LoopRef, Module};
use std::collections::HashMap;
use std::fmt;

#[cfg(test)]
mod reference;

/// A cell's entry in the tracer's shadow table: when it was last written
/// and last read, in the tracer's clock, and its sticky facts for the
/// live activations.
///
/// The facts are bits by live level (bit `k` for the `k`-th live
/// activation, outermost first), for the first 64 levels; deeper levels
/// keep theirs in [`DepTracer::deep`]. A level's bit holds only while the
/// cell has been touched since the level's entry: a level entered after
/// the cell's last touch is a new activation, and its bits are cleared
/// at its first touch of the cell.
#[derive(Debug, Clone, Copy, Default)]
struct Shadow {
    /// The clock at the last write and the last read; 0 for never.
    write: u64,
    read: u64,
    /// Bit `k`: the `k`-th level read the cell before writing it in some
    /// iteration (an upward-exposed read, which defeats privatization).
    upward: u64,
    /// Bit `k`: the `k`-th level wrote the cell after an earlier
    /// iteration accessed it (a WAW or WAR conflict).
    conflict: u64,
}

/// Aggregated dependence facts for one loop (over all invocations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopDeps {
    /// Some location was read in a later iteration than it was written.
    pub cross_raw: bool,
    /// Some location was written in two different iterations.
    pub cross_waw: bool,
    /// Some location was written after being read in an earlier iteration.
    pub cross_war: bool,
    /// A cross-iteration RAW hit a location *not* registered as a
    /// reduction target.
    pub raw_outside_reductions: bool,
    /// A WAR/WAW conflict hit a non-reduction location with an
    /// upward-exposed read, so privatization cannot remove it.
    pub unprivatizable: bool,
    /// The loop executed at least one iteration.
    pub observed: bool,
}

/// Result of one profiling run.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    deps: HashMap<LoopRef, LoopDeps>,
    /// The profiling run did not finish, so no loop has facts.
    unfinished: bool,
}

impl TraceReport {
    /// The report of a profiling run that did not finish: it holds no
    /// dependence facts.
    pub fn unfinished() -> Self {
        TraceReport {
            unfinished: true,
            ..TraceReport::default()
        }
    }

    /// Whether the profiling run finished (see [`TraceReport::unfinished`]).
    pub fn is_complete(&self) -> bool {
        !self.unfinished
    }

    /// The dependence facts for `l` (all-false if never observed).
    pub fn deps(&self, l: LoopRef) -> LoopDeps {
        self.deps.get(&l).copied().unwrap_or_default()
    }
}

/// Why a profiling run produced no report.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The program trapped.
    Trap(Trap),
    /// The program had not finished when the step budget ran out.
    OutOfSteps(u64),
}

impl From<Trap> for TraceError {
    fn from(t: Trap) -> Self {
        TraceError::Trap(t)
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Trap(t) => write!(f, "profiling run trapped: {t}"),
            TraceError::OutOfSteps(n) => {
                write!(f, "profiling run did not finish within {n} steps")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// One live loop activation's dependence state: where it stands in the
/// tracer's clock, and its facts so far. Its per-cell state lives in the
/// tracer's shadow table.
#[derive(Debug)]
pub struct Activation {
    /// The clock at the activation's entry and at its current
    /// iteration's start. Activations nest in time: a deeper one is
    /// entered during its outer one's current iteration.
    entry: u64,
    iter_start: u64,
    /// Iterations started after the first.
    iter: u64,
    /// Heap objects registered as reduction (histogram) targets for this
    /// activation.
    reduction_objs: Vec<ObjId>,
    /// The facts, folded into the loop's [`LoopDeps`] at the exit
    /// (`observed` is set there).
    deps: LoopDeps,
}

impl Activation {
    fn is_reduction(&self, obj: ObjId) -> bool {
        self.reduction_objs.contains(&obj)
    }
}

/// The dependence-profiling [`LoopSink`]; run it under a [`LoopTracker`]
/// that tracks every loop (as [`trace_dependences`] does).
///
/// One shadow table, indexed by each cell's object and index, holds each
/// cell's last write and read times on a clock that ticks at every
/// activation entry and iteration start. An access looks its cell up once, then decides for
/// each live activation with compares against the activation's entry
/// and iteration-start times: a time at or past the iteration start is
/// this iteration's, one between the entry and the iteration start an
/// earlier iteration's, and one before the entry is not the activation's.
pub struct DepTracer {
    effects: dca_analysis::EffectMap,
    /// Per function, per loop: the statically recognized histogram
    /// (array reduction) targets, resolved to objects at loop entry.
    histograms: Vec<Vec<Vec<ArrayKey>>>,
    clock: u64,
    /// The shadow table, by object and cell index.
    shadow: Vec<Vec<Shadow>>,
    /// The sticky bits of live levels past the 64th, by cell and group of
    /// 64 levels: `(upward, conflict)`.
    deep: HashMap<(u64, usize), (u64, u64)>,
    /// Per function, per loop: the facts of its exited activations.
    deps: Vec<Vec<LoopDeps>>,
    /// The clock at the last access with an activation live.
    last_access: u64,
}

impl DepTracer {
    /// A tracer for `module`; the tracker's [`LoopSink::prepare`] calls
    /// fill in each function's histogram targets, so RAWs on recognized
    /// array reductions can be classified.
    pub fn new(module: &Module) -> Self {
        DepTracer {
            effects: dca_analysis::EffectMap::new(module),
            histograms: vec![Vec::new(); module.funcs.len()],
            clock: 0,
            shadow: Vec::new(),
            deep: HashMap::new(),
            deps: vec![Vec::new(); module.funcs.len()],
            last_access: 0,
        }
    }

    /// Consumes the tracer, producing the report.
    pub fn into_report(self) -> TraceReport {
        let deps = (self.deps.into_iter().enumerate())
            .flat_map(|(f, loops)| {
                loops.into_iter().enumerate().map(move |(l, d)| {
                    let lref = LoopRef {
                        func: dca_ir::FuncId(f as u32),
                        loop_id: dca_ir::LoopId(l as u32),
                    };
                    (lref, d)
                })
            })
            .filter(|(_, d)| *d != LoopDeps::default())
            .collect();
        TraceReport {
            deps,
            unfinished: false,
        }
    }

    /// Advances the clock: a new activation or iteration begins.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

impl LoopSink for DepTracer {
    type Act = Activation;

    fn prepare(&mut self, view: &FuncView<'_>) {
        let live = dca_analysis::Liveness::new(view);
        self.deps[view.id.index()] = vec![LoopDeps::default(); view.loops.len()];
        self.histograms[view.id.index()] = view
            .loops
            .iter()
            .map(|l| {
                let slice = dca_analysis::IteratorSlice::compute_with(view, l, &self.effects);
                let red = dca_analysis::ReductionInfo::compute(view, &live, l, &slice.slice_vars);
                red.histograms.iter().map(|h| h.array).collect()
            })
            .collect();
    }

    fn enter(&mut self, lref: LoopRef, _: u64, _: bool, vars: &[Value]) -> Activation {
        let targets = &self.histograms[lref.func.index()][lref.loop_id.index()];
        let reduction_objs = targets
            .iter()
            .filter_map(|&key| match key {
                ArrayKey::Global(g) => Some(ObjId(g.0)),
                ArrayKey::Var(v) => match vars.get(v.index()) {
                    Some(&Value::Ptr(o)) => Some(o),
                    _ => None,
                },
            })
            .collect();
        let now = self.tick();
        Activation {
            entry: now,
            iter_start: now,
            iter: 0,
            reduction_objs,
            deps: LoopDeps::default(),
        }
    }

    fn iterate(&mut self, act: &mut Activation, _: u64, _: &[Value]) {
        act.iter += 1;
        act.iter_start = self.tick();
    }

    fn exit(&mut self, lref: LoopRef, a: Activation, _: Option<u64>) {
        let e = &mut self.deps[lref.func.index()][lref.loop_id.index()];
        let d = a.deps;
        e.cross_raw |= d.cross_raw;
        e.cross_waw |= d.cross_waw;
        e.cross_war |= d.cross_war;
        e.raw_outside_reductions |= d.raw_outside_reductions;
        e.unprivatizable |= d.unprivatizable;
        // "Observed" means the loop actually iterated (or at least touched
        // memory); a header evaluation that immediately exits is not an
        // exercised loop. Every access while the activation was live came
        // at or after its entry.
        e.observed |= a.iter > 0 || self.last_access >= a.entry;
    }

    fn access(
        &mut self,
        live: &mut [Activation],
        _: AccessAt,
        addr: Addr,
        store: Option<(Value, Value)>,
    ) {
        if live.is_empty() {
            return;
        }
        let key = cell_key(addr.obj.0, addr.cell);
        let now = self.clock;
        let (obj, idx) = (addr.obj.index(), addr.cell as usize);
        if self.shadow.len() <= obj {
            self.shadow.resize_with(obj + 1, Vec::new);
        }
        let row = &mut self.shadow[obj];
        if row.len() <= idx {
            row.resize(idx + 1, Shadow::default());
        }
        let cell = &mut row[idx];
        let (write, read) = (cell.write, cell.read);
        self.last_access = now;
        // Written in the innermost activation's current iteration, so in
        // every live one's: a read finds this iteration's value, and a
        // store conflicts with no earlier iteration unless one read it.
        // Every live activation has touched the cell since its entry, so
        // the sticky bits are current and stay as they are.
        let inner = live.last().map_or(0, |a| a.iter_start);
        if write >= inner
            && (store.is_none() || read >= inner || read < live.first().map_or(0, |a| a.entry))
        {
            match store {
                Some(_) => cell.write = now,
                None => cell.read = now,
            }
            return;
        }
        let touched = write.max(read);
        // Read again, unwritten since before every live activation began,
        // by all of them since their entries: every live level has its
        // upward-exposed read of the cell already.
        let levels = live.len();
        if store.is_none()
            && levels <= 64
            && write < live[0].entry
            && touched >= live[levels - 1].entry
            && cell.upward == u64::MAX >> (64 - levels)
        {
            cell.read = now;
            return;
        }
        let mut bits = (cell.upward, cell.conflict);
        for (k, a) in live.iter_mut().enumerate() {
            let bit = 1u64 << (k % 64);
            if k % 64 == 0 && k > 0 {
                // The next group of 64 levels: the previous group's bits
                // go back to their home.
                match k / 64 {
                    1 => (cell.upward, cell.conflict) = bits,
                    g => drop(self.deep.insert((key, g - 1), bits)),
                }
                bits = self.deep.get(&(key, k / 64)).copied().unwrap_or_default();
            }
            // An activation entered after the cell's last touch knows
            // nothing of it yet.
            if a.entry > touched {
                bits.0 &= !bit;
                bits.1 &= !bit;
            }
            let written_now = write >= a.iter_start;
            let written_earlier = write >= a.entry && !written_now;
            let sticky = match store {
                Some(_) => {
                    let read_earlier = read >= a.entry && read < a.iter_start;
                    a.deps.cross_waw |= written_earlier;
                    a.deps.cross_war |= read_earlier;
                    if !(written_earlier || read_earlier) {
                        continue;
                    }
                    bits.1 |= bit;
                    bits.0
                }
                None => {
                    if written_earlier {
                        a.deps.cross_raw = true;
                        if !a.deps.raw_outside_reductions && !a.is_reduction(addr.obj) {
                            a.deps.raw_outside_reductions = true;
                        }
                    }
                    if written_now {
                        continue;
                    }
                    bits.0 |= bit;
                    bits.1
                }
            };
            // Upward-exposed read and conflict on one cell: privatization
            // cannot remove the conflict.
            if sticky & bit != 0 && !a.deps.unprivatizable && !a.is_reduction(addr.obj) {
                a.deps.unprivatizable = true;
            }
        }
        match live.len().saturating_sub(1) / 64 {
            0 => (cell.upward, cell.conflict) = bits,
            g => drop(self.deep.insert((key, g), bits)),
        }
        match store {
            Some(_) => cell.write = now,
            None => cell.read = now,
        }
    }
}

/// Runs `main(args)` under the dependence tracer and returns the report.
///
/// # Errors
///
/// [`TraceError::Trap`] when the program traps, and
/// [`TraceError::OutOfSteps`] when it has not finished after `max_steps`:
/// facts from part of a run are not a profile.
///
/// # Panics
///
/// Panics if the module has no `main`.
pub fn trace_dependences(
    module: &Module,
    args: &[Value],
    max_steps: u64,
) -> Result<TraceReport, TraceError> {
    let mut machine = Machine::new(module);
    machine.push_call(module.main().expect("module has `main`"), args)?;
    let mut tracker = LoopTracker::new(module, DepTracer::new(module));
    match tracker.run(&mut machine, max_steps)? {
        Outcome::Finished(_) => Ok(tracker.finish().into_report()),
        Outcome::Paused => Err(TraceError::OutOfSteps(max_steps)),
        Outcome::Stopped => unreachable!("the dependence tracer never stops a run"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deps_of(src: &str, tag: &str) -> LoopDeps {
        let m = dca_ir::compile(src).expect("compile");
        let report = trace_dependences(&m, &[], 50_000_000).expect("trace");
        for (lref, t) in dca_ir::all_loops(&m) {
            if t.as_deref() == Some(tag) {
                return report.deps(lref);
            }
        }
        panic!("no loop tagged @{tag}");
    }

    /// Every loop's facts from the shadow table and from the reference
    /// tracer's per-activation maps.
    fn both(src: &str, args: &[Value]) -> Vec<(LoopRef, LoopDeps, LoopDeps)> {
        let m = dca_ir::compile(src).expect("compile");
        let report = trace_dependences(&m, args, 50_000_000).expect("trace");
        let reference = reference::reference_deps(&m, args, 50_000_000).expect("reference");
        dca_ir::all_loops(&m)
            .into_iter()
            .map(|(l, _)| {
                (
                    l,
                    report.deps(l),
                    reference.get(&l).copied().unwrap_or_default(),
                )
            })
            .collect()
    }

    #[test]
    fn shadow_table_equals_the_reference_past_64_live_levels() {
        // `@r` is live at every depth of a 150-deep recursion: levels past
        // the 64th keep their facts beside the table. Each level reads
        // `g[1]` before writing it (upward-exposed) and rewrites `g[0]`
        // and its own `h` cell in every iteration.
        let src = "let g: [int; 4];\n\
             let h: [int; 200];\n\
             fn rec(n: int) -> int { let s: int = 0; \
               @r: for (let i: int = 0; i < 2; i = i + 1) { \
                 s = s + g[1]; g[1] = s; g[0] = i; h[n] = h[n] + i; \
                 if (n > 0 && i == 1) { s = s + rec(n - 1); } } \
               return s; }\n\
             fn main(d: int) -> int { let t: int = 0; \
               @top: for (let k: int = 0; k < 2; k = k + 1) { t = t + rec(d); } \
               return t; }";
        for d in [3, 70, 150] {
            for (l, got, want) in both(src, &[Value::Int(d)]) {
                assert_eq!(got, want, "{l} at depth {d}");
                assert!(got.observed);
            }
        }
    }

    #[test]
    fn shadow_table_equals_the_reference_on_nests() {
        let srcs = [
            "fn main() { let a: [int; 8]; let t: [int; 4]; \
             @o: for (let i: int = 0; i < 6; i = i + 1) { \
               @w: for (let k: int = 0; k < 4; k = k + 1) { t[k] = i + k; } \
               @r: for (let k: int = 0; k < 4; k = k + 1) { a[i] = a[i] + t[k]; } \
               a[(i + 1) % 8] = a[i]; } }",
            "let g: [int; 3];\n\
             fn f(x: int) -> int { g[x % 3] = g[(x + 1) % 3] + x; return g[0]; }\n\
             fn main() { let s: int = 0; \
             @l: for (let i: int = 0; i < 9; i = i + 1) { \
               if (i % 2 == 0) { s = s + f(i); } else { g[2] = s; } } }",
        ];
        for src in srcs {
            for (l, got, want) in both(src, &[]) {
                assert_eq!(got, want, "{l}");
            }
        }
    }

    #[test]
    fn independent_writes_have_no_cross_deps() {
        let d = deps_of(
            "fn main() { let a: [int; 16]; \
             @l: for (let i: int = 0; i < 16; i = i + 1) { a[i] = i; } }",
            "l",
        );
        assert!(d.observed);
        assert!(!d.cross_raw && !d.cross_waw && !d.cross_war);
    }

    #[test]
    fn recurrence_shows_cross_raw() {
        let d = deps_of(
            "fn main() { let a: [int; 16]; a[0] = 1; \
             @l: for (let i: int = 1; i < 16; i = i + 1) { a[i] = a[i - 1] + 1; } }",
            "l",
        );
        assert!(d.cross_raw);
        assert!(d.raw_outside_reductions);
    }

    #[test]
    fn pointer_chase_iterator_has_no_memory_raw() {
        // The `p = p.next` dependence lives in a register, not memory; the
        // node updates touch disjoint cells. (This is why pure trace-based
        // tools still reject it — the *scalar* p is loop-carried, which the
        // static side flags.)
        let d = deps_of(
            "struct N { v: int, next: *N }\n\
             fn main() { let head: *N = null; \
             for (let i: int = 0; i < 8; i = i + 1) { \
               let n: *N = new N; n.v = i; n.next = head; head = n; } \
             let p: *N = head; \
             @walk: while (p != null) { p.v = p.v + 1; p = p.next; } }",
            "walk",
        );
        assert!(d.observed);
        assert!(!d.cross_raw);
    }

    #[test]
    fn histogram_raw_classified_as_reduction() {
        let d = deps_of(
            "fn main() { let h: [int; 5]; \
             @l: for (let i: int = 0; i < 32; i = i + 1) { \
               h[i % 5] = h[i % 5] + 1; } }",
            "l",
        );
        assert!(d.cross_raw, "histogram cells collide across iterations");
        assert!(
            !d.raw_outside_reductions,
            "but the collisions are on the recognized histogram array"
        );
    }

    #[test]
    fn shared_scalar_cell_shows_waw_and_raw() {
        let d = deps_of(
            "let g: int;\n\
             fn main() { \
             @l: for (let i: int = 0; i < 8; i = i + 1) { g = i; } }",
            "l",
        );
        assert!(d.cross_waw);
    }

    #[test]
    fn privatizable_temp_array_write_first() {
        // tmp[] is fully written before being read in every iteration: WAW
        // across iterations but privatizable (no upward-exposed reads).
        let d = deps_of(
            "fn main() { let tmp: [int; 4]; let a: [int; 16]; \
             @l: for (let i: int = 0; i < 16; i = i + 1) { \
               for (let k: int = 0; k < 4; k = k + 1) { tmp[k] = i + k; } \
               let s: int = 0; \
               for (let k: int = 0; k < 4; k = k + 1) { s = s + tmp[k]; } \
               a[i] = s; } }",
            "l",
        );
        assert!(d.cross_waw, "tmp rewritten each iteration");
        assert!(!d.cross_raw);
        assert!(!d.unprivatizable, "tmp written before read each time");
    }

    #[test]
    fn upward_exposed_read_flagged() {
        let d = deps_of(
            "let g: [int; 4];\n\
             fn main() { let a: [int; 8]; \
             @l: for (let i: int = 0; i < 8; i = i + 1) { a[i] = g[i % 4]; } }",
            "l",
        );
        // g is only read — reads of pre-loop values create no conflicts,
        // so nothing is flagged.
        assert!(!d.unprivatizable);
        assert!(!d.cross_raw && !d.cross_waw && !d.cross_war);
    }

    #[test]
    fn out_of_steps_is_an_error_not_a_report() {
        let m = dca_ir::compile(
            "fn main() { let a: [int; 64]; \
             @l: for (let i: int = 0; i < 64; i = i + 1) { a[i] = i; } }",
        )
        .expect("compile");
        let err = trace_dependences(&m, &[], 10).expect_err("10 steps cannot finish");
        assert_eq!(
            err.to_string(),
            "profiling run did not finish within 10 steps"
        );
        assert!(trace_dependences(&m, &[], 100_000).is_ok());
    }

    #[test]
    fn recursive_loop_deps_per_activation() {
        // `@r` is live at depths 1, 2 and 3 at once. Within one activation
        // each `g[i]` is touched once; the depth-1 and depth-2 activations
        // also see their callees' updates of `g` across their own
        // iterations, all on the recognized histogram `g`.
        let src = "let g: [int; 4];\n\
             fn rec(n: int) -> int { let s: int = 0; \
               @r: for (let i: int = 0; i < 2; i = i + 1) { \
                 if (n > 0) { s = s + rec(n - 1); } \
                 g[i] = g[i] + n; s = s + 1; } \
               return s; }\n\
             fn main() { let t: int = rec(2); \
               @tail: for (let k: int = 0; k < 3; k = k + 1) { t = t + k; } }";
        assert_eq!(
            deps_of(src, "r"),
            LoopDeps {
                cross_raw: true,
                cross_waw: true,
                cross_war: false,
                raw_outside_reductions: false,
                unprivatizable: false,
                observed: true,
            }
        );
        assert_eq!(
            deps_of(src, "tail"),
            LoopDeps {
                observed: true,
                ..LoopDeps::default()
            }
        );
    }
}
