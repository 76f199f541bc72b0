//! Live-variable analysis.
//!
//! Classic backward may-dataflow over the CFG at whole-variable granularity
//! (scalars, pointers and fixed arrays are all single dataflow facts). DCA
//! uses it twice: to find a loop's **live-out** variables — the values whose
//! preservation defines commutativity (paper §III) — and its loop-carried
//! scalars, which the parallelization stage must privatize or reduce.

use dca_ir::{BlockId, FuncView, Loop, VarId};
use dca_obs::Obs;
use std::collections::BTreeSet;

/// Per-block live-in/live-out sets for one function, kept as bit rows:
/// one row of `words` words per block, bit `v` for variable `v`.
#[derive(Debug, Clone)]
pub struct Liveness {
    words: usize,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
    /// Variables defined (written) by each block.
    defs: Vec<u64>,
}

impl Liveness {
    /// Computes liveness for a function.
    pub fn new(view: &FuncView<'_>) -> Self {
        Self::new_with_obs(view, &Obs::disabled())
    }

    /// Like [`Liveness::new`], recording a `analysis.liveness` span and
    /// fixpoint-pass counters into `obs`.
    pub fn new_with_obs(view: &FuncView<'_>, obs: &Obs) -> Self {
        let t = obs.span_start();
        let (result, passes) = Self::compute(view);
        obs.span_end("analysis.liveness", t);
        obs.count("analysis.liveness.runs", 1);
        obs.count("analysis.liveness.passes", passes);
        result
    }

    /// The dataflow computation; returns the result and the number of
    /// fixpoint passes it took. The sets are bit rows while it iterates,
    /// one row of `words` words per block, and become sets at the end.
    fn compute(view: &FuncView<'_>) -> (Self, u64) {
        let f = view.func;
        let n = f.blocks.len();
        let words = f.vars.len().div_ceil(64).max(1);
        let row = |b: BlockId| b.index() * words..(b.index() + 1) * words;
        let set = |rows: &mut [u64], b: BlockId, v: VarId| {
            rows[b.index() * words + v.index() / 64] |= 1 << (v.index() % 64);
        };
        let has = |rows: &[u64], b: BlockId, v: VarId| {
            rows[b.index() * words + v.index() / 64] & (1 << (v.index() % 64)) != 0
        };
        // Per-block gen (upward-exposed uses) and kill (defs).
        let mut gen = vec![0u64; n * words];
        let mut kill = vec![0u64; n * words];
        let mut uses = Vec::new();
        for b in f.block_ids() {
            let blk = f.block(b);
            for inst in &blk.insts {
                uses.clear();
                inst.uses_into(&mut uses);
                for &u in &uses {
                    if !has(&kill, b, u) {
                        set(&mut gen, b, u);
                    }
                }
                if let Some(d) = inst.def() {
                    set(&mut kill, b, d);
                }
            }
            for u in blk.term.uses() {
                if !has(&kill, b, u) {
                    set(&mut gen, b, u);
                }
            }
        }
        let mut live_in = vec![0u64; n * words];
        let mut live_out = vec![0u64; n * words];
        let (mut out, mut inn) = (vec![0u64; words], vec![0u64; words]);
        // Iterate to fixpoint, visiting blocks in reverse RPO for speed.
        let order: Vec<BlockId> = view.cfg.reverse_postorder().iter().rev().copied().collect();
        let mut changed = true;
        let mut passes = 0u64;
        while changed {
            changed = false;
            passes += 1;
            for &b in &order {
                out.fill(0);
                for &s in view.cfg.succs(b) {
                    for (o, i) in out.iter_mut().zip(&live_in[row(s)]) {
                        *o |= i;
                    }
                }
                for (k, i) in inn.iter_mut().enumerate() {
                    let w = b.index() * words + k;
                    *i = gen[w] | (out[k] & !kill[w]);
                }
                if out[..] != live_out[row(b)] || inn[..] != live_in[row(b)] {
                    live_out[row(b)].copy_from_slice(&out);
                    live_in[row(b)].copy_from_slice(&inn);
                    changed = true;
                }
            }
        }
        (
            Liveness {
                words,
                live_in,
                live_out,
                defs: kill,
            },
            passes,
        )
    }

    /// Block `b`'s row of `rows`.
    fn row<'a>(&self, rows: &'a [u64], b: BlockId) -> &'a [u64] {
        &rows[b.index() * self.words..(b.index() + 1) * self.words]
    }

    /// The variables of a bit row.
    fn vars(row: &[u64]) -> BTreeSet<VarId> {
        let mut set = BTreeSet::new();
        for (k, &w) in row.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                set.insert(VarId((k * 64) as u32 + w.trailing_zeros()));
                w &= w - 1;
            }
        }
        set
    }

    /// The variables defined by any block of `l`, as a bit row.
    fn loop_def_row(&self, l: &Loop) -> Vec<u64> {
        let mut row = vec![0; self.words];
        for &b in &l.blocks {
            for (d, s) in row.iter_mut().zip(self.row(&self.defs, b)) {
                *d |= s;
            }
        }
        row
    }

    /// Variables live on entry to `b`.
    pub fn live_in(&self, b: BlockId) -> BTreeSet<VarId> {
        Self::vars(self.row(&self.live_in, b))
    }

    /// Variables live on exit from `b`.
    pub fn live_out(&self, b: BlockId) -> BTreeSet<VarId> {
        Self::vars(self.row(&self.live_out, b))
    }

    /// Variables defined (written) somewhere in `b`.
    pub fn defs(&self, b: BlockId) -> BTreeSet<VarId> {
        Self::vars(self.row(&self.defs, b))
    }

    /// Variables **defined inside** `l` that are live on entry to any block
    /// the loop exits to — the loop's *live-out variables* in the paper's
    /// sense: values produced by the loop and consumed later.
    pub fn loop_live_outs(&self, l: &Loop) -> BTreeSet<VarId> {
        let mut live = vec![0; self.words];
        for t in l.exit_targets() {
            for (d, s) in live.iter_mut().zip(self.row(&self.live_in, t)) {
                *d |= s;
            }
        }
        let defined = self.loop_def_row(l);
        let out: Vec<u64> = live.iter().zip(&defined).map(|(a, b)| a & b).collect();
        Self::vars(&out)
    }

    /// All variables defined by any block of `l`.
    pub fn loop_defs(&self, l: &Loop) -> BTreeSet<VarId> {
        Self::vars(&self.loop_def_row(l))
    }

    /// Loop-carried scalars: variables defined inside `l` that are live on
    /// entry to its header — their value flows around the back edge, so the
    /// parallelizer must treat them as inductions, reductions, or reject.
    pub fn loop_carried(&self, l: &Loop) -> BTreeSet<VarId> {
        let defined = self.loop_def_row(l);
        let live = self.row(&self.live_in, l.header);
        let carried: Vec<u64> = live.iter().zip(&defined).map(|(a, b)| a & b).collect();
        Self::vars(&carried)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_ir::{compile, FuncView};

    fn analyze(src: &str) -> (dca_ir::Module, Liveness) {
        let m = compile(src).expect("compile");
        let view = FuncView::new(&m, m.main().expect("main"));
        let live = Liveness::new(&view);
        (m, live)
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
    fn straight_line_liveness() {
        let (m, live) =
            analyze("fn main() -> int { let a: int = 1; let b: int = 2; return a + b; }");
        let a = var_named(&m, "a");
        // Everything happens in one block; nothing is live in or out.
        assert!(live.live_in(BlockId(0)).is_empty());
        assert!(live.live_out(BlockId(0)).is_empty());
        assert!(live.defs(BlockId(0)).contains(&a));
    }

    #[test]
    fn loop_live_outs_detect_values_used_after() {
        let (m, live) = analyze(
            "fn main() -> int { let s: int = 0; let t: int = 0; \
             @l: for (let i: int = 0; i < 4; i = i + 1) { s = s + i; t = t + 2; } \
             return s; }",
        );
        let view = FuncView::new(&m, m.main().expect("main"));
        let l = view.loops.by_tag("l").expect("tagged loop");
        let outs = live.loop_live_outs(l);
        let s = var_named(&m, "s");
        let t = var_named(&m, "t");
        assert!(outs.contains(&s), "s is consumed by the return");
        assert!(!outs.contains(&t), "t is transient (dead after the loop)");
    }

    #[test]
    fn loop_carried_scalars() {
        let (m, live) = analyze(
            "fn main() -> int { let s: int = 0; \
             @l: for (let i: int = 0; i < 4; i = i + 1) { \
               let tmp: int = i * 2; s = s + tmp; } \
             return s; }",
        );
        let view = FuncView::new(&m, m.main().expect("main"));
        let l = view.loops.by_tag("l").expect("tagged loop");
        let carried = live.loop_carried(l);
        let s = var_named(&m, "s");
        let i = var_named(&m, "i");
        let tmp = var_named(&m, "tmp");
        assert!(carried.contains(&s), "s accumulates across iterations");
        assert!(carried.contains(&i), "i is the induction variable");
        assert!(
            !carried.contains(&tmp),
            "tmp is reinitialized every iteration"
        );
    }

    #[test]
    fn pointer_chase_is_loop_carried_and_live_out_when_used() {
        let (m, live) = analyze(
            "struct N { v: int, next: *N }\n\
             fn main() -> int { let p: *N = new N; \
             @walk: while (p != null) { p = p.next; } \
             if (p == null) { return 1; } return 0; }",
        );
        let view = FuncView::new(&m, m.main().expect("main"));
        let l = view.loops.by_tag("walk").expect("tagged loop");
        let p = var_named(&m, "p");
        assert!(live.loop_carried(l).contains(&p));
        assert!(live.loop_live_outs(l).contains(&p));
    }

    #[test]
    fn branch_divergent_liveness() {
        // A value live only along one branch arm is still live at the
        // split (may-liveness), and dead after its last use.
        let (m, live) = analyze(
            "fn main(c: bool) -> int { let x: int = 5; let y: int = 7;              if (c) { return x; } return y; }",
        );
        let view = FuncView::new(&m, m.main().expect("main"));
        let x = var_named(&m, "x");
        let y = var_named(&m, "y");
        // Both are live out of the entry block (the branch decides).
        let entry_out = live.live_out(view.func.entry());
        assert!(entry_out.contains(&x));
        assert!(entry_out.contains(&y));
    }

    #[test]
    fn array_variables_tracked_whole() {
        // The array base variable is used by indexing on either side.
        let (m, live) = analyze(
            "fn main() -> int { let a: [int; 4];              @l: for (let i: int = 0; i < 4; i = i + 1) { a[i] = i; }              return a[2]; }",
        );
        let view = FuncView::new(&m, m.main().expect("main"));
        let a = var_named(&m, "a");
        let l = view.loops.by_tag("l").expect("loop");
        // `a` is live into the loop (its pointer-to-frame-storage value
        // flows through) and at every exit.
        assert!(live.live_in(l.header).contains(&a));
        for t in l.exit_targets() {
            assert!(live.live_in(t).contains(&a));
        }
    }

    #[test]
    fn liveness_is_a_fixpoint() {
        // live_in(b) == gen(b) ∪ (live_out(b) ∖ kill(b)) for all blocks, and
        // live_out(b) == ∪ live_in(succ).
        let (m, live) = analyze(
            "fn main() -> int { let s: int = 0; let i: int = 0; \
             while (i < 10) { if (i > 5) { s = s + i; } else { s = s + 1; } \
             i = i + 1; } return s; }",
        );
        let view = FuncView::new(&m, m.main().expect("main"));
        for b in view.func.block_ids() {
            let mut out = BTreeSet::new();
            for &succ in view.cfg.succs(b) {
                out.extend(live.live_in(succ).iter().copied());
            }
            assert_eq!(out, live.live_out(b), "live_out mismatch at {b}");
        }
    }

    #[test]
    fn obs_records_passes_and_matches_uninstrumented_result() {
        let m = dca_ir::compile(
            "fn main() -> int { let s: int = 0; \
             for (let i: int = 0; i < 10; i = i + 1) { s = s + i; } return s; }",
        )
        .expect("compile");
        let view = FuncView::new(&m, m.main().expect("main"));
        let obs = Obs::enabled();
        let live = Liveness::new_with_obs(&view, &obs);
        let plain = Liveness::new(&view);
        for b in view.func.block_ids() {
            assert_eq!(live.live_in(b), plain.live_in(b));
        }
        let r = obs.rollup().expect("enabled");
        assert_eq!(r.counter("analysis.liveness.runs"), 1);
        assert!(
            r.counter("analysis.liveness.passes") >= 2,
            "fixpoint takes >= 2 passes"
        );
        assert_eq!(r.spans["analysis.liveness"].count, 1);
    }
}
