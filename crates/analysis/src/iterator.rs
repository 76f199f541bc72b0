//! Generalized iterator recognition (paper §IV-A1).
//!
//! Following Manilov et al. (CC'18), the *iterator* of a loop is the code
//! that decides whether execution continues in the loop — here computed as
//! the backward dataflow slice, within the loop, of every terminator
//! condition that can leave the loop (including the header's). Everything
//! else is *payload*. The iterator variables that payload consumes (the
//! induction variable, the chased pointer, the popped worklist item) are
//! what DCA records and rebinds during permuted replay.

use crate::liveness::Liveness;
use dca_ir::{BlockId, FuncView, GlobalId, Inst, Loop, MemBase, Operand, VarId};
use std::collections::{BTreeSet, HashSet};
use std::ops::Range;

/// The location class of a memory access, at the precision iterator
/// recognition needs: which pointer variable or global it goes through,
/// plus the field for struct accesses (so a slice that loads `list.head`
/// pulls in stores to `list.head` but not payload stores to `node.val`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MemRoot {
    Array(VarId),
    Field(VarId, u32),
    GlobalArray(GlobalId),
    GlobalScalar(GlobalId),
}

/// The location class an instruction reads through, if any.
fn reads_root(inst: &Inst) -> Option<MemRoot> {
    match inst {
        Inst::LoadIndex {
            base: MemBase::Var(v),
            ..
        } => Some(MemRoot::Array(*v)),
        Inst::LoadIndex {
            base: MemBase::Global(g),
            ..
        } => Some(MemRoot::GlobalArray(*g)),
        Inst::LoadField {
            obj: Operand::Var(v),
            field,
            ..
        } => Some(MemRoot::Field(*v, *field)),
        Inst::LoadGlobal { global, .. } => Some(MemRoot::GlobalScalar(*global)),
        _ => None,
    }
}

/// The location class an instruction writes through, if any.
fn writes_root(inst: &Inst) -> Option<MemRoot> {
    match inst {
        Inst::StoreIndex {
            base: MemBase::Var(v),
            ..
        } => Some(MemRoot::Array(*v)),
        Inst::StoreIndex {
            base: MemBase::Global(g),
            ..
        } => Some(MemRoot::GlobalArray(*g)),
        Inst::StoreField {
            obj: Operand::Var(v),
            field,
            ..
        } => Some(MemRoot::Field(*v, *field)),
        Inst::StoreGlobal { global, .. } => Some(MemRoot::GlobalScalar(*global)),
        _ => None,
    }
}

/// True if `inst` is a call that takes one of the loaded bases as an
/// argument and may mutate iterator state through it (a worklist `pop`).
/// Only memory-writing callees qualify; pure or read-only helpers in the
/// payload must not be dragged into the iterator.
fn call_may_write_loaded(
    inst: &Inst,
    loaded: &HashSet<MemRoot>,
    effects: &crate::purity::EffectMap,
) -> bool {
    match inst {
        Inst::Call { func, args, .. } if effects.effects(*func).writes_memory => {
            args.iter().filter_map(|a| a.as_var()).any(|v| {
                loaded
                    .iter()
                    .any(|r| matches!(r, MemRoot::Field(b, _) | MemRoot::Array(b) if *b == v))
            })
        }
        _ => false,
    }
}

/// Identifies one instruction inside a function.
pub type InstRef = (BlockId, usize);

/// The iterator/payload separation of one loop.
#[derive(Debug, Clone)]
pub struct IteratorSlice {
    /// The loop's dense instruction table, one row per block of its
    /// function: `None` outside the loop, else the range of the block's
    /// instructions in `in_slice`. Replay and recording read it on every
    /// instruction, so both reads are indexed loads.
    rows: Vec<Option<Range<usize>>>,
    /// Per in-loop instruction: whether it belongs to the iterator slice.
    in_slice: Vec<bool>,
    /// The same, as bit words: each loop block's instructions in words of
    /// 64, block `b`'s words at `word_at[b]..word_at[b + 1]`. Replay plans
    /// each block from them ([`IteratorSlice::slice_bits`]).
    words: Vec<u64>,
    word_at: Vec<u32>,
    /// Variables defined by slice instructions.
    pub slice_vars: BTreeSet<VarId>,
    /// Slice-defined variables that payload instructions (or nested calls)
    /// actually read — the values to record per iteration.
    pub iter_vars: BTreeSet<VarId>,
    /// Number of payload (non-slice) instructions in the loop.
    pub payload_insts: usize,
    /// True if some slice instruction has side effects (memory writes,
    /// calls, allocation) — e.g. a worklist `pop` feeding the condition.
    pub effectful_iterator: bool,
}

impl IteratorSlice {
    /// Computes the separation for loop `l` of `view`'s function,
    /// building the module's effect map internally. Prefer
    /// [`IteratorSlice::compute_with`] when analyzing many loops.
    pub fn compute(view: &FuncView<'_>, l: &Loop) -> Self {
        Self::compute_with(view, l, &crate::purity::EffectMap::new(view.module))
    }

    /// Computes the separation for loop `l`, reusing a precomputed effect
    /// map for the call-closure rule.
    pub fn compute_with(view: &FuncView<'_>, l: &Loop, effects: &crate::purity::EffectMap) -> Self {
        Self::compute_with_obs(view, l, effects, &dca_obs::Obs::disabled())
    }

    /// Like [`IteratorSlice::compute_with`], recording an
    /// `analysis.iterator_slice` span plus slice-size and fixpoint-pass
    /// counters into `obs`.
    pub fn compute_with_obs(
        view: &FuncView<'_>,
        l: &Loop,
        effects: &crate::purity::EffectMap,
        obs: &dca_obs::Obs,
    ) -> Self {
        let t = obs.span_start();
        let (slice, passes) = Self::separate(view, l, effects);
        obs.span_end("analysis.iterator_slice", t);
        obs.count("analysis.slice.runs", 1);
        obs.count("analysis.slice.passes", passes);
        let slice_insts = slice.in_slice.iter().filter(|&&s| s).count();
        obs.count("analysis.slice.insts", slice_insts as u64);
        obs.count("analysis.slice.payload_insts", slice.payload_insts as u64);
        slice
    }

    /// The separation fixpoint; returns the slice and how many passes it
    /// took to converge.
    fn separate(view: &FuncView<'_>, l: &Loop, effects: &crate::purity::EffectMap) -> (Self, u64) {
        let f = view.func;
        // Seed: variables used by terminators of blocks with an exit edge,
        // plus the header's terminator (it decides each iteration).
        let mut needed: BTreeSet<VarId> = BTreeSet::new();
        let exit_sources: HashSet<BlockId> = l.exit_edges.iter().map(|&(s, _)| s).collect();
        for &b in &l.blocks {
            if b == l.header || exit_sources.contains(&b) {
                for v in f.block(b).term.uses() {
                    needed.insert(v);
                }
            }
        }
        // Fixpoint with two closure rules:
        //  1. def-use: an in-loop instruction defining a needed variable
        //     joins the slice and its operands become needed;
        //  2. memory: if a slice instruction *loads* through a base (a
        //     pointer variable or a global), then in-loop stores and calls
        //     that may write through that same base join the slice too —
        //     this is what captures destructive iterators such as worklist
        //     pops, whose state lives in memory rather than registers
        //     (paper §I-A, Fig. 2).
        // The dense table: each loop block's instructions get a row, in
        // block order.
        let mut rows = vec![None; f.blocks.len()];
        let mut n = 0;
        for &b in &l.blocks {
            let len = f.block(b).insts.len();
            rows[b.index()] = Some(n..n + len);
            n += len;
        }
        let row = |b: BlockId| rows[b.index()].clone().expect("a loop block has a row");
        let mut in_slice = vec![false; n];
        let mut loaded_bases: HashSet<MemRoot> = HashSet::new();
        let mut changed = true;
        let mut passes = 0u64;
        let mut uses = Vec::new();
        while changed {
            changed = false;
            passes += 1;
            for &b in &l.blocks {
                for (inst, k) in f.block(b).insts.iter().zip(row(b)) {
                    if in_slice[k] {
                        continue;
                    }
                    let by_def = inst.def().map(|d| needed.contains(&d)).unwrap_or(false);
                    let by_mem = writes_root(inst)
                        .map(|r| loaded_bases.contains(&r))
                        .unwrap_or(false)
                        || call_may_write_loaded(inst, &loaded_bases, effects);
                    if by_def || by_mem {
                        in_slice[k] = true;
                        uses.clear();
                        inst.uses_into(&mut uses);
                        for &u in &uses {
                            needed.insert(u);
                        }
                        if let Some(r) = reads_root(inst) {
                            loaded_bases.insert(r);
                        }
                        changed = true;
                    }
                }
            }
        }
        let mut slice_vars = BTreeSet::new();
        let mut effectful_iterator = false;
        for &b in &l.blocks {
            for (inst, k) in f.block(b).insts.iter().zip(row(b)) {
                if !in_slice[k] {
                    continue;
                }
                if let Some(d) = inst.def() {
                    slice_vars.insert(d);
                }
                if inst.has_side_effects() {
                    effectful_iterator = true;
                }
            }
        }
        // Payload instructions and the slice vars they read.
        let mut iter_vars = BTreeSet::new();
        let mut payload_insts = 0;
        for &b in &l.blocks {
            for (inst, k) in f.block(b).insts.iter().zip(row(b)) {
                if in_slice[k] {
                    continue;
                }
                payload_insts += 1;
                uses.clear();
                inst.uses_into(&mut uses);
                for &u in &uses {
                    if slice_vars.contains(&u) {
                        iter_vars.insert(u);
                    }
                }
            }
            // Payload-internal branches may also read slice vars.
            if b != l.header && !exit_sources.contains(&b) {
                for u in f.block(b).term.uses() {
                    if slice_vars.contains(&u) {
                        iter_vars.insert(u);
                    }
                }
            }
        }
        let mut words = Vec::new();
        let mut word_at = vec![0];
        for row in &rows {
            if let Some(row) = row {
                words.extend(in_slice[row.clone()].chunks(64).map(|chunk| {
                    (chunk.iter().enumerate()).fold(0u64, |w, (k, &s)| w | u64::from(s) << k)
                }));
            }
            word_at.push(words.len() as u32);
        }
        (
            IteratorSlice {
                rows,
                in_slice,
                words,
                word_at,
                slice_vars,
                iter_vars,
                payload_insts,
                effectful_iterator,
            },
            passes,
        )
    }

    /// True if block `b` of the loop's function belongs to the loop.
    #[inline]
    pub fn in_loop(&self, b: BlockId) -> bool {
        matches!(self.rows.get(b.index()), Some(Some(_)))
    }

    /// The slice bits of the `w`-th 64-instruction window of block `b`:
    /// bit `k` is set when instruction `64 * w + k` is in the slice. Zero
    /// outside the loop and past the block's end.
    #[inline]
    pub fn slice_bits(&self, b: BlockId, w: usize) -> u64 {
        let (Some(&start), Some(&end)) =
            (self.word_at.get(b.index()), self.word_at.get(b.index() + 1))
        else {
            return 0;
        };
        let at = start as usize + w;
        if at < end as usize {
            self.words[at]
        } else {
            0
        }
    }

    /// True if `r` is part of the iterator slice (false outside the loop).
    #[inline]
    pub fn contains(&self, (b, i): InstRef) -> bool {
        match self.rows.get(b.index()) {
            Some(Some(row)) => self.in_slice[row.clone()].get(i).copied().unwrap_or(false),
            _ => false,
        }
    }
}

/// Reasons a loop is statically unsuitable for DCA testing (paper §IV-E).
///
/// Early-returning loops need no exclusion: a `return` terminator can never
/// belong to a natural loop (its block cannot reach the latch), so replay
/// handles the return path like any other exit edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExclusionReason {
    /// The loop (or a function it calls) performs observable I/O.
    PerformsIo,
    /// The loop has no payload: nothing to permute.
    EmptyPayload,
}

impl std::fmt::Display for ExclusionReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExclusionReason::PerformsIo => write!(f, "performs I/O"),
            ExclusionReason::EmptyPayload => write!(f, "empty payload"),
        }
    }
}

/// Checks the static exclusion rules for `l`: I/O (directly or via calls,
/// using `io_funcs` — the set of functions that may print) and empty
/// payloads.
pub fn exclusion(
    view: &FuncView<'_>,
    l: &Loop,
    slice: &IteratorSlice,
    io_funcs: &HashSet<dca_ir::FuncId>,
) -> Option<ExclusionReason> {
    let f = view.func;
    for &b in &l.blocks {
        for inst in &f.block(b).insts {
            match inst {
                Inst::Print { .. } => return Some(ExclusionReason::PerformsIo),
                Inst::Call { func, .. } if io_funcs.contains(func) => {
                    return Some(ExclusionReason::PerformsIo)
                }
                _ => {}
            }
        }
    }
    if slice.payload_insts == 0 {
        return Some(ExclusionReason::EmptyPayload);
    }
    None
}

/// Convenience bundle: separation plus liveness facts for one loop.
#[derive(Debug, Clone)]
pub struct LoopShape {
    /// Iterator/payload separation.
    pub slice: IteratorSlice,
    /// The loop's live-out variables (defined inside, consumed after).
    pub live_outs: BTreeSet<VarId>,
    /// Loop-carried scalars (flow around the back edge).
    pub carried: BTreeSet<VarId>,
}

impl LoopShape {
    /// Computes the shape of loop `l`.
    pub fn compute(view: &FuncView<'_>, live: &Liveness, l: &Loop) -> Self {
        LoopShape {
            slice: IteratorSlice::compute(view, l),
            live_outs: live.loop_live_outs(l),
            carried: live.loop_carried(l),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_ir::{compile, FuncView};

    fn slice_of(src: &str, tag: &str) -> (dca_ir::Module, IteratorSlice) {
        let m = compile(src).expect("compile");
        let view = FuncView::new(&m, m.main().expect("main"));
        let l = view.loops.by_tag(tag).expect("tagged loop").clone();
        let s = IteratorSlice::compute(&view, &l);
        (m, s)
    }

    fn var_named(m: &dca_ir::Module, name: &str) -> VarId {
        let f = m.func(m.main().expect("main"));
        for (i, v) in f.vars.iter().enumerate() {
            if v.name == name {
                return VarId(i as u32);
            }
        }
        panic!("no var `{name}`");
    }

    #[test]
    fn counted_loop_iterator_is_induction_variable() {
        let (m, s) = slice_of(
            "fn main() { let a: [int; 8]; \
             @l: for (let i: int = 0; i < 8; i = i + 1) { a[i] = i * 2; } }",
            "l",
        );
        let i = var_named(&m, "i");
        assert!(s.slice_vars.contains(&i));
        assert!(s.iter_vars.contains(&i), "payload reads i");
        assert!(s.payload_insts > 0);
        assert!(!s.effectful_iterator);
    }

    #[test]
    fn pointer_chase_iterator_is_the_pointer() {
        let (m, s) = slice_of(
            "struct N { val: int, next: *N }\n\
             fn main() { let p: *N = new N; \
             @walk: while (p != null) { p.val = p.val + 1; p = p.next; } }",
            "walk",
        );
        let p = var_named(&m, "p");
        assert!(s.slice_vars.contains(&p));
        assert!(s.iter_vars.contains(&p), "payload dereferences p");
        // The pointer advance is a LoadField — reads memory but does not
        // write it, so the iterator is not effectful.
        assert!(!s.effectful_iterator);
    }

    #[test]
    fn payload_instructions_excluded_from_slice() {
        let (m, s) = slice_of(
            "fn main() { let a: [float; 8]; let sum: float = 0.0; \
             @l: for (let i: int = 0; i < 8; i = i + 1) { sum = sum + a[i]; } }",
            "l",
        );
        let sum = var_named(&m, "sum");
        assert!(!s.slice_vars.contains(&sum), "sum is payload, not iterator");
    }

    #[test]
    fn condition_on_payload_value_pulls_it_into_slice() {
        // A convergence-style loop: the exit condition depends on a value
        // the body computes, so that computation is iterator, not payload.
        let (m, s) = slice_of(
            "fn main() { let err: float = 1.0; let n: int = 0; \
             @conv: while (err > 0.5) { err = err * 0.25; n = n + 1; } }",
            "conv",
        );
        let err = var_named(&m, "err");
        assert!(s.slice_vars.contains(&err));
        let n = var_named(&m, "n");
        assert!(!s.slice_vars.contains(&n));
    }

    #[test]
    fn exclusion_rules() {
        let m = compile(
            "fn noisy() { print(1); }\n\
             fn main() { let s: int = 0;\n\
             @io: for (let i: int = 0; i < 3; i = i + 1) { print(i); }\n\
             @callio: for (let i: int = 0; i < 3; i = i + 1) { noisy(); }\n\
             @ret: for (let i: int = 0; i < 3; i = i + 1) { s = s + i; if (i == 2) { return; } }\n\
             @ok: for (let i: int = 0; i < 3; i = i + 1) { s = s + i; } }",
        )
        .expect("compile");
        let view = FuncView::new(&m, m.main().expect("main"));
        let io_funcs: HashSet<_> = [m.func_by_name("noisy").expect("noisy")].into();
        let check = |tag: &str| {
            let l = view.loops.by_tag(tag).expect("tag");
            let s = IteratorSlice::compute(&view, l);
            exclusion(&view, l, &s, &io_funcs)
        };
        assert_eq!(check("io"), Some(ExclusionReason::PerformsIo));
        assert_eq!(check("callio"), Some(ExclusionReason::PerformsIo));
        // An early `return` lives outside the natural loop, so the loop
        // remains a candidate (replay treats the return path as a normal
        // exit edge).
        assert_eq!(check("ret"), None);
        assert_eq!(check("ok"), None);
    }

    #[test]
    fn empty_payload_excluded() {
        let m = compile("fn main() { @spin: for (let i: int = 0; i < 3; i = i + 1) { } }")
            .expect("compile");
        let view = FuncView::new(&m, m.main().expect("main"));
        let l = view.loops.by_tag("spin").expect("tag");
        let s = IteratorSlice::compute(&view, l);
        assert_eq!(
            exclusion(&view, l, &s, &HashSet::new()),
            Some(ExclusionReason::EmptyPayload)
        );
    }

    #[test]
    fn worklist_pop_is_effectful_iterator() {
        // `current` comes from a destructive pop through the list head held
        // in a struct; the head update is a store, making the iterator
        // effectful.
        let (_, s) = slice_of(
            "struct Cell { v: int, next: *Cell }\n\
             struct List { head: *Cell }\n\
             fn main() { let l: *List = new List; let total: int = 0;\n\
             @drain: while (l.head != null) { \
               let c: *Cell = l.head; l.head = c.next; total = total + c.v; } }",
            "drain",
        );
        assert!(s.effectful_iterator);
    }
}
