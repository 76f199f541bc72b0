//! Dominator-tree computation (Cooper–Harvey–Kennedy iterative algorithm).

use crate::cfg::Cfg;
use crate::module::{BlockId, Function};

/// Marks an unreachable block.
const NONE: u32 = u32::MAX;

/// The dominator tree of a function's CFG.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator of each block (`idom[entry] == entry`,
    /// [`NONE`] for unreachable blocks).
    idom: Vec<u32>,
}

impl DomTree {
    /// Computes dominators for `f` using its CFG. The fixpoint runs over
    /// reverse-postorder positions, so comparing two blocks' places is
    /// comparing two numbers.
    pub fn new(f: &Function, cfg: &Cfg) -> Self {
        let n = f.blocks.len();
        let rpo = cfg.reverse_postorder();
        let order: Vec<u32> = (0..n as u32)
            .map(|b| cfg.rpo_index(BlockId(b)).map_or(NONE, |i| i as u32))
            .collect();
        // Immediate dominators by position; position 0 is the entry.
        let mut doms = vec![NONE; rpo.len()];
        if !rpo.is_empty() {
            doms[0] = 0;
        }
        let mut changed = true;
        while changed {
            changed = false;
            for (i, &b) in rpo.iter().enumerate().skip(1) {
                // First processed predecessor.
                let mut new_idom = NONE;
                for &p in cfg.preds(b) {
                    let p = order[p.index()];
                    if p == NONE || doms[p as usize] == NONE {
                        continue;
                    }
                    new_idom = if new_idom == NONE {
                        p
                    } else {
                        intersect(&doms, new_idom, p)
                    };
                }
                if new_idom != NONE && doms[i] != new_idom {
                    doms[i] = new_idom;
                    changed = true;
                }
            }
        }
        let mut idom = vec![NONE; n];
        for (i, &b) in rpo.iter().enumerate() {
            if doms[i] != NONE {
                idom[b.index()] = rpo[doms[i] as usize].0;
            }
        }
        DomTree { idom }
    }

    /// Immediate dominator of `b`; the entry's idom is itself. `None` for
    /// unreachable blocks.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        let d = self.idom[b.index()];
        (d != NONE).then_some(BlockId(d))
    }

    /// True if `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b.0;
        loop {
            if cur == a.0 {
                return true;
            }
            match self.idom[cur as usize] {
                i if i != cur && i != NONE => cur = i,
                _ => return false,
            }
        }
    }
}

/// The nearest common dominator of two reverse-postorder positions.
fn intersect(doms: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while a > b {
            a = doms[a as usize];
        }
        while b > a {
            b = doms[b as usize];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn dom_of(src: &str) -> (crate::module::Function, Cfg, DomTree) {
        let m = compile(src).expect("compile");
        let f = m.funcs[0].clone();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        (f, cfg, dt)
    }

    #[test]
    fn entry_dominates_everything() {
        let (f, _, dt) = dom_of(
            "fn f(c: bool) -> int { let x: int = 0; \
             if (c) { x = 1; } else { x = 2; } while (x < 5) { x = x + 1; } return x; }",
        );
        for b in f.block_ids() {
            assert!(dt.dominates(f.entry(), b), "{b} not dominated by entry");
        }
    }

    #[test]
    fn branch_arms_do_not_dominate_join() {
        let (f, cfg, dt) = dom_of(
            "fn f(c: bool) -> int { let x: int = 0; \
             if (c) { x = 1; } else { x = 2; } return x; }",
        );
        let join = f
            .block_ids()
            .find(|&b| cfg.preds(b).len() == 2)
            .expect("join");
        for &arm in cfg.preds(join) {
            assert!(!dt.dominates(arm, join));
        }
        assert_eq!(dt.idom(join), Some(f.entry()));
    }

    #[test]
    fn loop_header_dominates_body_and_latch() {
        let (f, cfg, dt) = dom_of("fn main() { let i: int = 0; while (i < 3) { i = i + 1; } }");
        // The header is the target of a back edge.
        let mut header = None;
        for b in f.block_ids() {
            for &s in cfg.succs(b) {
                if dt.dominates(s, b) {
                    header = Some((s, b));
                }
            }
        }
        let (h, latch) = header.expect("loop with back edge");
        assert!(dt.dominates(h, latch));
    }

    #[test]
    fn dominance_is_a_partial_order() {
        let (f, _, dt) = dom_of(
            "fn f(c: bool) -> int { let x: int = 0; if (c) { x = 1; } \
             while (x < 9) { x = x + 2; if (c) { x = x + 1; } } return x; }",
        );
        for a in f.block_ids() {
            assert!(dt.dominates(a, a), "reflexive");
            for b in f.block_ids() {
                if a != b && dt.dominates(a, b) && dt.dominates(b, a) {
                    panic!("antisymmetry violated for {a} and {b}");
                }
                for c in f.block_ids() {
                    if dt.dominates(a, b) && dt.dominates(b, c) {
                        assert!(dt.dominates(a, c), "transitivity violated");
                    }
                }
            }
        }
    }
}
