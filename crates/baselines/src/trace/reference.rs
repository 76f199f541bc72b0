//! The dependence tracer's former form, kept as a test reference: each
//! live activation keeps its own map from cell to access state, and an
//! access updates the map of every live activation. The shadow-table
//! tracer must give the same [`LoopDeps`] for every loop. Shared by the
//! tracer's unit tests and the workspace's baseline tests.

use super::LoopDeps;
use dca_analysis::ArrayKey;
use dca_core::{cell_key, CellHasher};
use dca_interp::{AccessAt, Addr, LoopSink, LoopTracker, Machine, ObjId, Value};
use dca_ir::{FuncView, LoopRef, Module};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::num::NonZeroU64;

/// Per-location access state within one active loop invocation.
#[derive(Debug, Clone, Copy, Default)]
struct AddrState {
    last_write_iter: Option<NonZeroU64>,
    last_read_iter: Option<NonZeroU64>,
    upward_read: bool,
    raw: bool,
    waw: bool,
    war: bool,
}

/// One live loop activation's dependence state.
pub struct Activation {
    iter: u64,
    reduction_objs: Vec<ObjId>,
    state: HashMap<u64, AddrState, BuildHasherDefault<CellHasher>>,
}

impl Activation {
    fn stamp(&self) -> NonZeroU64 {
        NonZeroU64::MIN.saturating_add(self.iter)
    }
}

/// The per-activation tracer.
pub struct ReferenceTracer {
    effects: dca_analysis::EffectMap,
    histograms: Vec<Vec<Vec<ArrayKey>>>,
    /// The facts of every loop that ran.
    pub deps: HashMap<LoopRef, LoopDeps>,
}

impl ReferenceTracer {
    /// A tracer for `module`.
    pub fn new(module: &Module) -> Self {
        ReferenceTracer {
            effects: dca_analysis::EffectMap::new(module),
            histograms: vec![Vec::new(); module.funcs.len()],
            deps: HashMap::new(),
        }
    }
}

impl LoopSink for ReferenceTracer {
    type Act = Activation;

    fn prepare(&mut self, view: &FuncView<'_>) {
        let live = dca_analysis::Liveness::new(view);
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
        Activation {
            iter: 0,
            reduction_objs,
            state: HashMap::default(),
        }
    }

    fn iterate(&mut self, act: &mut Activation, _: u64, _: &[Value]) {
        act.iter += 1;
    }

    fn exit(&mut self, lref: LoopRef, a: Activation, _: Option<u64>) {
        let e = self.deps.entry(lref).or_default();
        for (&key, st) in &a.state {
            let reduction = a.reduction_objs.contains(&ObjId((key >> 32) as u32));
            if st.raw {
                e.cross_raw = true;
                if !reduction {
                    e.raw_outside_reductions = true;
                }
            }
            if st.waw {
                e.cross_waw = true;
            }
            if st.war {
                e.cross_war = true;
            }
            if (st.waw || st.war) && st.upward_read && !reduction {
                e.unprivatizable = true;
            }
        }
        e.observed |= a.iter > 0 || !a.state.is_empty();
    }

    fn access(
        &mut self,
        live: &mut [Activation],
        _: AccessAt,
        addr: Addr,
        store: Option<(Value, Value)>,
    ) {
        for a in live {
            let stamp = a.stamp();
            let st = a.state.entry(cell_key(addr.obj.0, addr.cell)).or_default();
            let written_now = st.last_write_iter == Some(stamp);
            let written_earlier = st.last_write_iter.is_some() && !written_now;
            if store.is_some() {
                st.waw |= written_earlier;
                st.war |= st.last_read_iter.is_some_and(|r| r != stamp);
                st.last_write_iter = Some(stamp);
            } else {
                st.raw |= written_earlier;
                st.upward_read |= !written_now;
                st.last_read_iter = Some(stamp);
            }
        }
    }
}

/// Runs `main(args)` to completion under the reference tracer, tracking
/// every loop, and returns each loop's facts; `None` when the run traps
/// or does not finish within `max_steps`.
pub fn reference_deps(
    module: &Module,
    args: &[Value],
    max_steps: u64,
) -> Option<HashMap<LoopRef, LoopDeps>> {
    let mut machine = Machine::new(module);
    machine.push_call(module.main()?, args).ok()?;
    let mut tracker = LoopTracker::new(module, ReferenceTracer::new(module));
    tracker.run(&mut machine, max_steps).ok()?;
    machine.result()?;
    Some(tracker.finish().deps)
}
