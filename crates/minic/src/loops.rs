//! Natural-loop detection on the CFG.
//!
//! Chimera's symbolic-bounds optimization (§5) instruments *loops*, so the
//! instrumenter needs loop structure: header, body blocks, nesting, and the
//! blocks that enter the loop from outside (to place `WeakAcquire` in a
//! preheader).

use crate::cfg::{Cfg, Dominators};
use crate::ir::{BlockId, Function};
use std::collections::BTreeSet;

/// One natural loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loop {
    /// The loop header (target of the back edge).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub blocks: BTreeSet<BlockId>,
    /// Back-edge sources (latches).
    pub latches: Vec<BlockId>,
    /// Index of the innermost enclosing loop in [`LoopForest::loops`], if
    /// any.
    pub parent: Option<usize>,
    /// Nesting depth: 0 for outermost loops.
    pub depth: usize,
}

impl Loop {
    /// True if the loop body (any block) contains a call instruction.
    pub fn contains_call(&self, func: &Function) -> bool {
        self.blocks.iter().any(|b| {
            func.block(*b)
                .instrs
                .iter()
                .any(|i| matches!(i, crate::ir::Instr::Call { .. } | crate::ir::Instr::Spawn { .. }))
        })
    }
}

/// All natural loops of a function.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    /// Loops, outermost-first within each nest (stable order: by header
    /// RPO).
    pub loops: Vec<Loop>,
}

impl LoopForest {
    /// Find natural loops from back edges (`src -> header` where `header`
    /// dominates `src`), merging loops that share a header.
    pub fn new(_func: &Function, cfg: &Cfg, dom: &Dominators) -> LoopForest {
        let mut loops: Vec<Loop> = Vec::new();
        for &b in &cfg.rpo {
            for &s in &cfg.succs[b.index()] {
                if dom.dominates(s, b) {
                    // Back edge b -> s.
                    let body = natural_loop_body(cfg, s, b);
                    if let Some(existing) = loops.iter_mut().find(|l| l.header == s) {
                        existing.blocks.extend(body);
                        existing.latches.push(b);
                    } else {
                        loops.push(Loop {
                            header: s,
                            blocks: body,
                            latches: vec![b],
                            parent: None,
                            depth: 0,
                        });
                    }
                }
            }
        }
        // Sort outermost-first by body size (a containing loop is strictly
        // larger), then compute nesting.
        loops.sort_by_key(|l| std::cmp::Reverse(l.blocks.len()));
        let mut forest = LoopForest { loops };
        for i in 0..forest.loops.len() {
            let header = forest.loops[i].header;
            // Innermost enclosing = smallest loop (other than itself) whose
            // body contains this header.
            let mut best: Option<usize> = None;
            for (j, cand) in forest.loops.iter().enumerate() {
                if j != i
                    && cand.blocks.contains(&header)
                    && cand.blocks.len() > forest.loops[i].blocks.len()
                {
                    best = match best {
                        None => Some(j),
                        Some(old)
                            if forest.loops[j].blocks.len()
                                < forest.loops[old].blocks.len() =>
                        {
                            Some(j)
                        }
                        keep => keep,
                    };
                }
            }
            forest.loops[i].parent = best;
        }
        for i in 0..forest.loops.len() {
            let mut depth = 0;
            let mut cur = forest.loops[i].parent;
            while let Some(p) = cur {
                depth += 1;
                cur = forest.loops[p].parent;
            }
            forest.loops[i].depth = depth;
        }
        forest
    }

    /// The innermost loop containing block `b`, if any.
    pub fn innermost_containing(&self, b: BlockId) -> Option<usize> {
        self.loops
            .iter()
            .enumerate()
            .filter(|(_, l)| l.blocks.contains(&b))
            .max_by_key(|(_, l)| l.depth)
            .map(|(i, _)| i)
    }
}

fn natural_loop_body(cfg: &Cfg, header: BlockId, latch: BlockId) -> BTreeSet<BlockId> {
    let mut body = BTreeSet::new();
    body.insert(header);
    let mut stack = vec![latch];
    while let Some(b) = stack.pop() {
        if body.insert(b) {
            for &p in &cfg.preds[b.index()] {
                stack.push(p);
            }
        }
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{Cfg, Dominators};
    use crate::compile;

    fn forest_of(src: &str, fname: &str) -> (crate::ir::Function, LoopForest) {
        let p = compile(src).unwrap();
        let f = p.func_by_name(fname).unwrap().clone();
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&f, &cfg);
        let forest = LoopForest::new(&f, &cfg, &dom);
        (f, forest)
    }

    #[test]
    fn detects_single_for_loop() {
        let (_, forest) =
            forest_of("int main() { int i; for (i = 0; i < 4; i = i + 1) { i; } }", "main");
        assert_eq!(forest.loops.len(), 1);
        assert_eq!(forest.loops[0].depth, 0);
        assert!(forest.loops[0].blocks.len() >= 3);
    }

    #[test]
    fn detects_nested_loops() {
        let (_, forest) = forest_of(
            "int main() { int i; int j;
               for (i = 0; i < 4; i = i + 1) {
                 for (j = 0; j < 4; j = j + 1) { j; }
               } }",
            "main",
        );
        assert_eq!(forest.loops.len(), 2);
        let inner = forest.loops.iter().find(|l| l.depth == 1).unwrap();
        let outer = forest.loops.iter().find(|l| l.depth == 0).unwrap();
        assert!(outer.blocks.is_superset(&inner.blocks));
        assert_eq!(inner.parent, Some(forest.loops.iter().position(|l| l.depth == 0).unwrap()));
    }

    #[test]
    fn while_loop_detected() {
        let (_, forest) = forest_of(
            "int main() { int x; x = 10; while (x > 0) { x = x - 1; } return x; }",
            "main",
        );
        assert_eq!(forest.loops.len(), 1);
    }

    #[test]
    fn innermost_containing_picks_deepest() {
        let (_, forest) = forest_of(
            "int main() { int i; int j; int s;
               for (i = 0; i < 4; i = i + 1) {
                 for (j = 0; j < 4; j = j + 1) { s = s + 1; }
               } }",
            "main",
        );
        let inner_idx = forest.loops.iter().position(|l| l.depth == 1).unwrap();
        let inner = &forest.loops[inner_idx];
        // Any block exclusive to the inner loop maps to the inner loop.
        let exclusive = inner
            .blocks
            .iter()
            .find(|b| {
                !forest
                    .loops
                    .iter()
                    .enumerate()
                    .any(|(k, l)| k != inner_idx && l.depth == 1 && l.blocks.contains(b))
            })
            .copied()
            .unwrap();
        assert_eq!(forest.innermost_containing(exclusive), Some(inner_idx));
    }

    #[test]
    fn loop_with_call_flagged() {
        let (f, forest) = forest_of(
            "int id(int x) { return x; }
             int main() { int i; int s; for (i = 0; i < 3; i = i + 1) { s = id(s); } }",
            "main",
        );
        assert!(forest.loops[0].contains_call(&f));
    }

    #[test]
    fn loop_without_call_not_flagged() {
        let (f, forest) =
            forest_of("int main() { int i; for (i = 0; i < 3; i = i + 1) { i; } }", "main");
        assert!(!forest.loops[0].contains_call(&f));
    }

    #[test]
    fn no_loops_in_straight_line_code() {
        let (_, forest) = forest_of("int main() { return 0; }", "main");
        assert!(forest.loops.is_empty());
    }

    #[test]
    fn break_does_not_confuse_loop_membership() {
        let (_, forest) = forest_of(
            "int main() { int i; for (i = 0; i < 9; i = i + 1) { if (i == 3) { break; } } return i; }",
            "main",
        );
        assert_eq!(forest.loops.len(), 1);
    }
}
