//! Entry cursors: one plain run of a module's program per argument list,
//! shared by every request for a loop's first entry.
//!
//! A consumer that records a loop's first invocation, as the parallel
//! executor does for each loop it runs, would otherwise run the
//! program's prefix up to that loop once per loop. The cursor runs it
//! once. It is a plain run of `main(args)` that advances only as far as
//! a request needs and keeps a snapshot of the machine at the first entry
//! of every loop header it passes. A request for a header it has passed
//! is answered from that snapshot without running a step.
//!
//! Each snapshot is taken before its entry is reported to the hooks
//! (`Machine::snapshot_before_entry`). A machine restored from it
//! reports the header entry with the [`crate::Site`] a run from program
//! start reports, steps included, so a recorder started there sees the
//! events a whole run shows from the entry on.
//!
//! The cursors live beside the module's compiled code
//! ([`dca_ir::Module::derived`]), behind one mutex, and are freed with
//! the module. A clone of the module starts without them.

use crate::code::Kept;
use crate::hooks::{Hooks, Site};
use crate::machine::{Machine, Outcome, Snapshot, Trap};
use crate::value::Value;
use dca_ir::{BlockId, FuncId, FuncView, Module};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Why a run of the program does not enter a header within its budget.
#[derive(Debug, Clone, PartialEq)]
pub enum EntryMiss {
    /// The program finished without entering it.
    NotEntered,
    /// The program trapped before entering it.
    Trapped(Trap),
    /// The step budget ran out before the entry.
    BudgetExhausted,
}

/// What [`first_entry`] found, and what answering it cost.
#[derive(Debug, Clone)]
pub struct FirstEntry {
    /// The machine at the header's first entry, with the entry still to
    /// be reported.
    pub at: Result<Arc<Snapshot>, EntryMiss>,
    /// Steps the cursor ran for this request: 0 when it had already
    /// passed the header or ended.
    pub steps: u64,
    /// Whether this request started the cursor, a run from program
    /// start.
    pub started: bool,
    /// Heap cells copied into the cursor's snapshots for this request.
    pub snapshot_cells: u64,
}

/// The state of the run of `module`'s program as `main(args)` at the
/// first entry of `header`, the header block of a loop of `func`, when
/// the run enters it within `max_steps` steps.
///
/// Answered by the module's cursor for `main` and `args`; the arguments
/// are compared bit for bit. The first request for them starts the
/// cursor at program start. The result is the one a run of `max_steps`
/// steps from program start would meet: an entry at step `n` is within
/// the budget when `n <= max_steps`, since the entering step then runs,
/// and so are a trap or the program's end at that step. The cursor never
/// runs past the largest budget it has been asked for.
///
/// Requests on one module wait for each other while the cursor runs.
pub fn first_entry(
    module: &Module,
    main: FuncId,
    args: &[Value],
    func: FuncId,
    header: BlockId,
    max_steps: u64,
) -> FirstEntry {
    let mut cursors = Kept::of(module).cursors.lock();
    let found = cursors
        .iter()
        .position(|c| c.main == main && same_bits(&c.args, args));
    let started = found.is_none();
    let cursor = match found {
        Some(i) => &mut cursors[i],
        None => {
            cursors.push(Cursor::start(module, main, args));
            cursors.last_mut().expect("just pushed")
        }
    };
    let key = (func, header);
    let (steps, snapshot_cells) = cursor.advance(module, key, max_steps);
    FirstEntry {
        at: cursor.entry(key, max_steps),
        steps,
        started,
        snapshot_cells,
    }
}

/// Argument lists equal bit for bit: floats by their bits, NaNs
/// included.
fn same_bits(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|pair| match pair {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        })
}

/// A module's cursors, one per entry function and argument list.
#[derive(Default)]
pub(crate) struct Cursors(Mutex<Vec<Cursor>>);

impl Cursors {
    /// The cursors, locked. A request that panicked while it held them
    /// may have left its cursor half advanced: they are dropped, and the
    /// next requests start again.
    fn lock(&self) -> MutexGuard<'_, Vec<Cursor>> {
        self.0.lock().unwrap_or_else(|poisoned| {
            self.0.clear_poison();
            let mut cursors = poisoned.into_inner();
            cursors.clear();
            cursors
        })
    }
}

/// One run of the program and the first entries it has passed.
struct Cursor {
    main: FuncId,
    args: Vec<Value>,
    /// The run's machine state between requests, or how and at which
    /// step the run ended.
    run: Result<Snapshot, (u64, EntryMiss)>,
    /// Per function and block: a loop header the run has not entered.
    unentered: Vec<Vec<bool>>,
    /// The machine at each header's first entry, by function and block.
    entries: HashMap<(FuncId, BlockId), Arc<Snapshot>>,
}

impl Cursor {
    /// A cursor standing at the start of `main(args)`.
    fn start(module: &Module, main: FuncId, args: &[Value]) -> Cursor {
        let unentered = (0..module.funcs.len())
            .map(|i| {
                let view = FuncView::new(module, FuncId(i as u32));
                let mut headers = vec![false; view.func.blocks.len()];
                for l in view.loops.iter() {
                    headers[l.header.index()] = true;
                }
                headers
            })
            .collect();
        let mut machine = Machine::new(module);
        let run = match machine.push_call(main, args) {
            Ok(()) => Ok(machine.park()),
            Err(t) => Err((0, EntryMiss::Trapped(t))),
        };
        Cursor {
            main,
            args: args.to_vec(),
            run,
            unentered,
            entries: HashMap::new(),
        }
    }

    /// Runs on until the header `key` has been entered, the run ends or
    /// it has run `max_steps` steps; returns the steps run and the heap
    /// cells copied into snapshots.
    fn advance(&mut self, module: &Module, key: (FuncId, BlockId), max_steps: u64) -> (u64, u64) {
        if self.entries.contains_key(&key) {
            return (0, 0);
        }
        // The placeholder is replaced before the cursor is unlocked.
        let parked = match std::mem::replace(&mut self.run, Err((0, EntryMiss::NotEntered))) {
            Ok(parked) if parked.steps() < max_steps => parked,
            run => {
                self.run = run;
                return (0, 0);
            }
        };
        let mut machine = Machine::unpark(module, parked);
        let start = machine.steps();
        let mut cells = 0;
        let end = loop {
            let left = max_steps - machine.steps();
            let mut hooks = Headers {
                unentered: &mut self.unentered,
                entered: None,
            };
            match machine.run(&mut hooks, left) {
                Ok(Outcome::Stopped) => {
                    let site = hooks.entered.expect("the cursor stops at header entries");
                    let snapshot = machine.snapshot_before_entry(site);
                    cells += snapshot.heap_cells();
                    self.entries
                        .insert((site.func, site.block), Arc::new(snapshot));
                    if (site.func, site.block) == key || machine.steps() >= max_steps {
                        break None;
                    }
                }
                Ok(Outcome::Paused) => break None,
                Ok(Outcome::Finished(_)) => break Some(EntryMiss::NotEntered),
                Err(t) => break Some(EntryMiss::Trapped(t)),
            }
        };
        let steps = machine.steps() - start;
        self.run = match end {
            None => Ok(machine.park()),
            Some(miss) => Err((machine.steps(), miss)),
        };
        (steps, cells)
    }

    /// The answer to a request for header `key` with a budget of
    /// `max_steps`, once the cursor has advanced for it.
    fn entry(&self, key: (FuncId, BlockId), max_steps: u64) -> Result<Arc<Snapshot>, EntryMiss> {
        match (self.entries.get(&key), &self.run) {
            (Some(at), _) if at.steps() <= max_steps => Ok(Arc::clone(at)),
            (None, Err((end, miss))) if *end <= max_steps => Err(miss.clone()),
            _ => Err(EntryMiss::BudgetExhausted),
        }
    }
}

/// The cursor's hooks: a run that stops at the first entry of each loop
/// header.
struct Headers<'c> {
    unentered: &'c mut [Vec<bool>],
    entered: Option<Site>,
}

impl Hooks for Headers<'_> {
    #[inline(always)]
    fn on_block(&mut self, site: Site, block: BlockId, _: &mut [Value]) {
        if let Some(header) = self.unentered[site.func.index()].get_mut(block.index()) {
            if *header {
                *header = false;
                self.entered = Some(site);
            }
        }
    }

    fn stop(&self) -> bool {
        self.entered.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every block entry a run reports, with its site.
    #[derive(Default)]
    struct Entries(Vec<Site>);

    impl Hooks for Entries {
        fn on_block(&mut self, site: Site, _: BlockId, _: &mut [Value]) {
            self.0.push(site);
        }
    }

    /// The block entries of a run of `machine` to its end.
    fn entries(mut machine: Machine<'_>) -> Vec<Site> {
        let mut hooks = Entries::default();
        machine.run(&mut hooks, u64::MAX).expect("runs");
        hooks.0
    }

    #[test]
    fn a_restored_entry_reports_the_sites_of_a_run_from_program_start() {
        // The two loops of `main`, and the loop of a callee they call,
        // first entered one frame deeper.
        let m = dca_ir::compile(
            "fn spin(n: int) -> int { let s: int = 0; \
               while (s < n) { s = s + 2; } return s; }\n\
             fn main(k: int) -> int { let t: int = 0; \
               while (t < k) { t = t + spin(t); t = t + 1; } \
               for (let i: int = 0; i < 3; i = i + 1) { t = t + spin(i); } \
               return t; }",
        )
        .expect("compile");
        let main = m.main().expect("main");
        let args = [Value::Int(7)];
        let mut machine = Machine::new(&m);
        machine.push_call(main, &args).expect("push");
        let whole = entries(machine);
        let mut checked = 0;
        for (func, f) in m.funcs.iter().enumerate() {
            let func = FuncId(func as u32);
            let view = FuncView::new(&m, func);
            for l in view.loops.iter() {
                let first = whole
                    .iter()
                    .position(|s| s.func == func && s.block == l.header)
                    .expect("every loop runs");
                let entry = first_entry(&m, main, &args, func, l.header, u64::MAX);
                let mut restored = Machine::new(&m);
                restored.restore(&entry.at.expect("entered"));
                assert_eq!(entries(restored), whole[first..], "{} {}", f.name, l.id.0);
                checked += 1;
            }
        }
        assert_eq!(checked, 3);
        // One run served every request.
        assert_eq!(Kept::of(&m).cursors.lock().len(), 1);
    }
}
