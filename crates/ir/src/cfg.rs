//! Control-flow graph utilities: predecessors, postorder traversals.

use crate::module::{BlockId, Function};

/// Marks an unreachable block in [`Cfg::rpo_index`]'s table.
const UNREACHED: u32 = u32::MAX;

/// Precomputed CFG edge information for one function, in flat arrays:
/// each direction's edges sit back to back in one buffer, a block's edges
/// in one run of it.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Successors of block `b`: `succs[succ_at[b]..succ_at[b + 1]]`.
    succs: Vec<BlockId>,
    succ_at: Vec<u32>,
    /// Predecessors of block `b`, likewise, each run in ascending order
    /// of the edges' sources.
    preds: Vec<BlockId>,
    pred_at: Vec<u32>,
    /// Blocks in reverse postorder from the entry.
    rpo: Vec<BlockId>,
    /// Position of each block in `rpo` ([`UNREACHED`] if unreachable).
    rpo_index: Vec<u32>,
}

impl Cfg {
    /// Builds the CFG for a function.
    pub fn new(f: &Function) -> Self {
        let n = f.blocks.len();
        let mut succs = Vec::with_capacity(2 * n);
        let mut succ_at = Vec::with_capacity(n + 1);
        let mut pred_at = vec![0u32; n + 1];
        succ_at.push(0);
        for b in &f.blocks {
            for s in b.term.successors() {
                succs.push(s);
                pred_at[s.index() + 1] += 1;
            }
            succ_at.push(succs.len() as u32);
        }
        for i in 0..n {
            pred_at[i + 1] += pred_at[i];
        }
        let mut fill = pred_at.clone();
        let mut preds = vec![BlockId(0); succs.len()];
        for b in 0..n {
            for &s in &succs[succ_at[b] as usize..succ_at[b + 1] as usize] {
                preds[fill[s.index()] as usize] = BlockId(b as u32);
                fill[s.index()] += 1;
            }
        }
        let mut cfg = Cfg {
            succs,
            succ_at,
            preds,
            pred_at,
            rpo: Vec::with_capacity(n),
            rpo_index: vec![UNREACHED; n],
        };
        // Iterative postorder DFS; `rpo_index` marks blocks seen.
        let mut stack: Vec<(BlockId, u32)> = vec![(f.entry(), 0)];
        cfg.rpo_index[f.entry().index()] = 0;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let ss = cfg.succs(b);
            if let Some(&s) = ss.get(*next as usize) {
                *next += 1;
                if cfg.rpo_index[s.index()] == UNREACHED {
                    cfg.rpo_index[s.index()] = 0;
                    stack.push((s, 0));
                }
            } else {
                cfg.rpo.push(b);
                stack.pop();
            }
        }
        cfg.rpo.reverse();
        for (i, b) in cfg.rpo.iter().enumerate() {
            cfg.rpo_index[b.index()] = i as u32;
        }
        cfg
    }

    /// Predecessors of a block.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[self.pred_at[b.index()] as usize..self.pred_at[b.index() + 1] as usize]
    }

    /// Successors of a block.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[self.succ_at[b.index()] as usize..self.succ_at[b.index() + 1] as usize]
    }

    /// Blocks in reverse postorder from the entry.
    pub fn reverse_postorder(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in reverse postorder (`None` if unreachable).
    pub fn rpo_index(&self, b: BlockId) -> Option<usize> {
        let i = self.rpo_index[b.index()];
        (i != UNREACHED).then_some(i as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn diamond_cfg_edges() {
        let m = compile(
            "fn f(c: bool) -> int { let x: int = 0; \
             if (c) { x = 1; } else { x = 2; } return x; }",
        )
        .expect("compile");
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        // Entry has two successors, the join has two predecessors.
        assert_eq!(cfg.succs(f.entry()).len(), 2);
        let join = f
            .block_ids()
            .find(|&b| cfg.preds(b).len() == 2)
            .expect("join block");
        assert!(matches!(
            f.block(join).term,
            crate::module::Terminator::Return(_)
        ));
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let m =
            compile("fn main() { let i: int = 0; while (i < 3) { i = i + 1; } }").expect("compile");
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        assert_eq!(cfg.reverse_postorder()[0], f.entry());
        assert_eq!(cfg.reverse_postorder().len(), f.blocks.len());
        for b in f.block_ids() {
            assert!(cfg.rpo_index(b).is_some());
        }
    }

    #[test]
    fn rpo_respects_forward_edges_outside_loops() {
        let m =
            compile("fn f(c: bool) -> int { if (c) { return 1; } return 2; }").expect("compile");
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        for b in f.block_ids() {
            for s in cfg.succs(b) {
                // In an acyclic CFG every edge goes forward in RPO.
                assert!(cfg.rpo_index(b).expect("reach") < cfg.rpo_index(*s).expect("reach"));
            }
        }
    }
}
