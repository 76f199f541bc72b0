//! Natural-loop detection and the loop nesting forest.
//!
//! A back edge is an edge `latch → header` where `header` dominates
//! `latch`; the natural loop of a header is the union, over its back edges,
//! of all blocks that reach the latch without passing through the header.
//! Loops sharing a header are merged. The forest orders loops by strict
//! block-set containment.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::module::{BlockId, Function};
use std::fmt;

/// Identifies a loop within one function's [`LoopForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub u32);

impl LoopId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loop{}", self.0)
    }
}

/// A set of blocks of one function: a bit per block for membership, and
/// the members in ascending order, which it dereferences to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSet {
    bits: Vec<u64>,
    members: Vec<BlockId>,
}

impl BlockSet {
    /// The empty set over a function of `blocks` blocks.
    fn new(blocks: usize) -> Self {
        BlockSet {
            bits: vec![0; blocks.div_ceil(64)],
            members: Vec::new(),
        }
    }

    /// Adds `b`; true if it was not there. Members stay in insertion
    /// order until the caller sorts them.
    fn insert(&mut self, b: BlockId) -> bool {
        let (word, bit) = (b.index() / 64, 1u64 << (b.index() % 64));
        let fresh = self.bits[word] & bit == 0;
        self.bits[word] |= bit;
        if fresh {
            self.members.push(b);
        }
        fresh
    }

    /// True if `b` is in the set.
    pub fn contains(&self, b: &BlockId) -> bool {
        self.bits
            .get(b.index() / 64)
            .is_some_and(|w| w & (1 << (b.index() % 64)) != 0)
    }

    /// True if every member of `self` is in `other`.
    fn is_subset(&self, other: &BlockSet) -> bool {
        self.bits.iter().zip(&other.bits).all(|(a, b)| a & !b == 0)
    }
}

impl std::ops::Deref for BlockSet {
    type Target = [BlockId];

    fn deref(&self) -> &[BlockId] {
        &self.members
    }
}

impl<'a> IntoIterator for &'a BlockSet {
    type Item = &'a BlockId;
    type IntoIter = std::slice::Iter<'a, BlockId>;

    fn into_iter(self) -> Self::IntoIter {
        self.members.iter()
    }
}

/// One natural loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// This loop's id.
    pub id: LoopId,
    /// The header block (target of the back edges).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub blocks: BlockSet,
    /// Sources of back edges into the header.
    pub latches: Vec<BlockId>,
    /// Edges `(from, to)` leaving the loop (`from` inside, `to` outside).
    pub exit_edges: Vec<(BlockId, BlockId)>,
    /// Parent loop in the nesting forest.
    pub parent: Option<LoopId>,
    /// Directly nested loops.
    pub children: Vec<LoopId>,
    /// Nesting depth; top-level loops have depth 0.
    pub depth: u32,
    /// Source tag (`@name:`), if the source loop was tagged.
    pub tag: Option<String>,
}

impl Loop {
    /// True if `b` belongs to this loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }

    /// Blocks outside the loop that exit edges lead to, deduplicated.
    pub fn exit_targets(&self) -> Vec<BlockId> {
        let mut v: Vec<BlockId> = self.exit_edges.iter().map(|&(_, t)| t).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// All natural loops of one function, with nesting structure.
#[derive(Debug, Clone)]
pub struct LoopForest {
    loops: Vec<Loop>,
    /// Innermost loop containing each block.
    innermost: Vec<Option<LoopId>>,
}

impl LoopForest {
    /// Detects the loops of `f`.
    pub fn new(f: &Function, cfg: &Cfg, dom: &DomTree) -> Self {
        let n = f.blocks.len();
        // Back edges as (header, latch), latches ascending. A dominator
        // comes first in reverse postorder, so only an edge that does not
        // go forward in it can be one.
        let mut back_edges: Vec<(BlockId, BlockId)> = Vec::new();
        for b in f.block_ids() {
            let Some(at) = cfg.rpo_index(b) else {
                continue;
            };
            for &s in cfg.succs(b) {
                if cfg.rpo_index(s).is_some_and(|to| to <= at) && dom.dominates(s, b) {
                    back_edges.push((s, b));
                }
            }
        }
        back_edges.sort_by_key(|&(header, _)| header);
        let mut loops: Vec<Loop> = Vec::new();
        let mut stack: Vec<BlockId> = Vec::new();
        for edges in back_edges.chunk_by(|a, b| a.0 == b.0) {
            let header = edges[0].0;
            let latches: Vec<BlockId> = edges.iter().map(|&(_, latch)| latch).collect();
            let mut blocks = BlockSet::new(n);
            blocks.insert(header);
            for &latch in &latches {
                if blocks.insert(latch) {
                    stack.push(latch);
                }
            }
            while let Some(b) = stack.pop() {
                for &p in cfg.preds(b) {
                    if cfg.rpo_index(p).is_some() && blocks.insert(p) {
                        stack.push(p);
                    }
                }
            }
            blocks.members.sort_unstable();
            let mut exit_edges = Vec::new();
            for &b in &blocks {
                for &s in cfg.succs(b) {
                    if !blocks.contains(&s) {
                        exit_edges.push((b, s));
                    }
                }
            }
            loops.push(Loop {
                id: LoopId(loops.len() as u32),
                header,
                blocks,
                latches,
                exit_edges,
                parent: None,
                children: Vec::new(),
                depth: 0,
                tag: f.loop_tags.get(&header).cloned(),
            });
        }
        // Nesting: parent = smallest strictly containing loop. Natural loops
        // either nest or are disjoint (given reducible control flow, which
        // our lowering guarantees).
        let count = loops.len();
        for i in 0..count {
            let mut best: Option<usize> = None;
            for j in 0..count {
                let (inner, outer) = (&loops[i].blocks, &loops[j].blocks);
                if outer.len() > inner.len()
                    && inner.is_subset(outer)
                    && best.is_none_or(|k| outer.len() < loops[k].blocks.len())
                {
                    best = Some(j);
                }
            }
            if let Some(j) = best {
                loops[i].parent = Some(LoopId(j as u32));
                loops[j].children.push(LoopId(i as u32));
            }
        }
        // Depths by walking parents.
        for i in 0..count {
            let mut d = 0;
            let mut cur = loops[i].parent;
            while let Some(p) = cur {
                d += 1;
                cur = loops[p.index()].parent;
            }
            loops[i].depth = d;
        }
        // Innermost loop per block: the containing loop with max depth.
        let mut innermost: Vec<Option<LoopId>> = vec![None; n];
        for l in &loops {
            for &b in &l.blocks {
                innermost[b.index()] = match innermost[b.index()] {
                    None => Some(l.id),
                    Some(prev) if loops[prev.index()].depth < l.depth => Some(l.id),
                    keep => keep,
                };
            }
        }
        LoopForest { loops, innermost }
    }

    /// All loops, in header order.
    pub fn iter(&self) -> impl Iterator<Item = &Loop> {
        self.loops.iter()
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// True if the function has no loops.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Access a loop by id.
    pub fn get(&self, id: LoopId) -> &Loop {
        &self.loops[id.index()]
    }

    /// The innermost loop containing block `b`, if any.
    pub fn innermost(&self, b: BlockId) -> Option<LoopId> {
        self.innermost[b.index()]
    }

    /// The loop whose header carries source tag `tag`.
    pub fn by_tag(&self, tag: &str) -> Option<&Loop> {
        self.loops.iter().find(|l| l.tag.as_deref() == Some(tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn forest(src: &str) -> (Function, LoopForest) {
        let m = compile(src).expect("compile");
        let f = m.funcs[0].clone();
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&f, &cfg);
        let lf = LoopForest::new(&f, &cfg, &dom);
        (f, lf)
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let (_, lf) = forest("fn main() -> int { return 1; }");
        assert!(lf.is_empty());
    }

    #[test]
    fn single_while_loop_detected() {
        let (_, lf) = forest("fn main() { let i: int = 0; while (i < 4) { i = i + 1; } }");
        assert_eq!(lf.len(), 1);
        let l = lf.iter().next().expect("one loop");
        assert_eq!(l.latches.len(), 1);
        assert!(!l.exit_edges.is_empty());
        assert_eq!(l.depth, 0);
    }

    #[test]
    fn nested_loops_form_a_forest() {
        let (_, lf) = forest(
            "fn main() { let s: int = 0; \
             @outer: for (let i: int = 0; i < 3; i = i + 1) { \
               @inner: for (let j: int = 0; j < 3; j = j + 1) { s = s + i * j; } } }",
        );
        assert_eq!(lf.len(), 2);
        let outer = lf.by_tag("outer").expect("outer tagged");
        let inner = lf.by_tag("inner").expect("inner tagged");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.children, vec![inner.id]);
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.blocks.iter().all(|b| outer.blocks.contains(b)));
    }

    #[test]
    fn sibling_loops_are_disjoint() {
        let (_, lf) = forest(
            "fn main() { let i: int = 0; \
             @a: while (i < 3) { i = i + 1; } \
             @b: while (i < 6) { i = i + 1; } }",
        );
        assert_eq!(lf.len(), 2);
        let a = lf.by_tag("a").expect("a");
        let b = lf.by_tag("b").expect("b");
        assert!(a.parent.is_none() && b.parent.is_none());
        assert!(a.blocks.iter().all(|x| !b.blocks.contains(x)));
    }

    #[test]
    fn break_adds_extra_exit_edge() {
        let (_, lf) = forest(
            "fn main() { let i: int = 0; while (true) { i = i + 1; \
             if (i > 5) { break; } } }",
        );
        assert_eq!(lf.len(), 1);
        let l = lf.iter().next().expect("loop");
        // The header's (never-taken) false edge plus the edge into the
        // break path (whose block cannot reach the latch, so it is outside
        // the natural loop).
        assert_eq!(l.exit_edges.len(), 2);
    }

    #[test]
    fn innermost_lookup() {
        let (_, lf) = forest(
            "fn main() { \
             @outer: for (let i: int = 0; i < 3; i = i + 1) { \
               @inner: for (let j: int = 0; j < 3; j = j + 1) { } } }",
        );
        let outer = lf.by_tag("outer").expect("outer");
        let inner = lf.by_tag("inner").expect("inner");
        assert_eq!(lf.innermost(inner.header), Some(inner.id));
        assert_eq!(lf.innermost(outer.header), Some(outer.id));
    }

    #[test]
    fn while_with_logical_condition_keeps_single_loop() {
        let (_, lf) = forest(
            "fn main() { let i: int = 0; let ok: bool = true; \
             while (ok && i < 10) { i = i + 2; } }",
        );
        assert_eq!(lf.len(), 1);
        // Condition evaluation blocks belong to the loop.
        let l = lf.iter().next().expect("loop");
        assert!(l.blocks.len() >= 4);
    }

    #[test]
    fn triple_nesting_depths() {
        let (_, lf) = forest(
            "fn main() { let s: int = 0; \
             for (let i: int = 0; i < 2; i = i + 1) { \
               for (let j: int = 0; j < 2; j = j + 1) { \
                 for (let k: int = 0; k < 2; k = k + 1) { s = s + 1; } } } }",
        );
        assert_eq!(lf.len(), 3);
        let mut depths: Vec<u32> = lf.iter().map(|l| l.depth).collect();
        depths.sort_unstable();
        assert_eq!(depths, vec![0, 1, 2]);
    }
}
