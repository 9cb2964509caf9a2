//! Dominator trees and dominance frontiers over a function's block graph.
//!
//! Uses the iterative algorithm of Cooper, Harvey & Kennedy ("A Simple, Fast
//! Dominance Algorithm"). The memory-SSA construction
//! ([`fsam-mssa`](https://docs.rs/fsam-mssa)) places memory phis on iterated
//! dominance frontiers, exactly as a compiler would for scalar SSA.

use crate::csr::Csr;
use crate::ids::{BlockId, IdVec};
use crate::module::Function;

/// Dominator information for one function.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// Immediate dominator of each block (`idom[entry] == entry`).
    /// Unreachable blocks map to `None`.
    idom: IdVec<BlockId, Option<BlockId>>,
    /// Blocks in reverse post-order.
    rpo: Vec<BlockId>,
    /// Position of each block in `rpo` (usize::MAX for unreachable blocks).
    rpo_index: IdVec<BlockId, usize>,
    /// Row `b`: the dominance frontier of block `b`, in discovery order.
    frontier: Csr<BlockId>,
}

/// Buffers [`DomTree::iterated_frontier`] reuses from call to call, and
/// from function to function: per-block marks, cleared after each call,
/// the worklist and the result.
#[derive(Clone, Debug, Default)]
pub struct FrontierScratch {
    in_result: Vec<bool>,
    queued: Vec<bool>,
    work: Vec<BlockId>,
    result: Vec<BlockId>,
}

impl DomTree {
    /// Computes dominators and dominance frontiers for `func`.
    pub fn compute(func: &Function) -> DomTree {
        let n = func.blocks.len();
        let edges: Vec<(usize, BlockId)> = (func.blocks())
            .flat_map(|(b, block)| block.term.successors().map(move |s| (s.index(), b)))
            .collect();
        let preds = Csr::from_pairs(n, edges.iter().copied());
        let preds = |b: BlockId| preds.row(b.index());

        // Reverse post-order over the block graph.
        let mut rpo = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
        let mut stack: Vec<(BlockId, usize)> = vec![(BlockId::ENTRY, 0)];
        state[BlockId::ENTRY.index()] = 1;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if let Some(s) = func.blocks[b].term.successors().nth(*next) {
                *next += 1;
                if state[s.index()] == 0 {
                    state[s.index()] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[b.index()] = 2;
                rpo.push(b);
                stack.pop();
            }
        }
        rpo.reverse();

        let mut rpo_index: IdVec<BlockId, usize> = IdVec::from_elem(usize::MAX, n);
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b] = i;
        }

        let mut idom: IdVec<BlockId, Option<BlockId>> = IdVec::from_elem(None, n);
        idom[BlockId::ENTRY] = Some(BlockId::ENTRY);

        let intersect = |idom: &IdVec<BlockId, Option<BlockId>>,
                         rpo_index: &IdVec<BlockId, usize>,
                         mut a: BlockId,
                         mut b: BlockId| {
            while a != b {
                while rpo_index[a] > rpo_index[b] {
                    a = idom[a].expect("processed block has idom");
                }
                while rpo_index[b] > rpo_index[a] {
                    b = idom[b].expect("processed block has idom");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in preds(b) {
                    if idom[p].is_none() {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }

        // Dominance frontiers (Cooper et al. §4). A runner meets the join
        // `b` at most once per predecessor walk, so marking it with `b`
        // keeps each (runner, b) pair once.
        let mut found: Vec<(usize, BlockId)> = Vec::new();
        let mut last_join = vec![usize::MAX; n];
        for &b in &rpo {
            if preds(b).len() >= 2 {
                for &p in preds(b) {
                    if idom[p].is_none() {
                        continue;
                    }
                    let mut runner = p;
                    let stop = idom[b].expect("reachable join has idom");
                    while runner != stop {
                        if last_join[runner.index()] != b.index() {
                            last_join[runner.index()] = b.index();
                            found.push((runner.index(), b));
                        }
                        runner = idom[runner].expect("runner on dominator path");
                    }
                }
            }
        }
        let frontier = Csr::from_pairs(n, found.iter().copied());

        DomTree {
            idom,
            rpo,
            rpo_index,
            frontier,
        }
    }

    /// Immediate dominator of `b` (`None` for the entry block and for
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        match self.idom[b] {
            Some(d) if d != b => Some(d),
            Some(_) => None, // entry
            None => None,
        }
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.idom[b].is_none() || self.idom[a].is_none() {
            return false; // unreachable blocks dominate nothing
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            let parent = self.idom[cur].expect("reachable block");
            if parent == cur {
                return false; // reached entry
            }
            cur = parent;
        }
    }

    /// Whether `b` is reachable from the entry block.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom[b].is_some()
    }

    /// Blocks in reverse post-order (reachable blocks only).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in reverse post-order (`usize::MAX` if unreachable).
    pub fn rpo_index(&self, b: BlockId) -> usize {
        self.rpo_index[b]
    }

    /// Dominance frontier of `b`.
    pub fn frontier(&self, b: BlockId) -> &[BlockId] {
        self.frontier.row(b.index())
    }

    /// Iterated dominance frontier of a set of definition blocks — the blocks
    /// that need a phi for a value defined in `defs` — ascending, in
    /// `scratch`'s result buffer.
    pub fn iterated_frontier<'s>(
        &self,
        defs: &[BlockId],
        scratch: &'s mut FrontierScratch,
    ) -> &'s [BlockId] {
        let FrontierScratch {
            in_result,
            queued,
            work,
            result,
        } = scratch;
        let n = self.idom.len();
        if in_result.len() < n {
            in_result.resize(n, false);
            queued.resize(n, false);
        }
        result.clear();
        work.clear();
        work.extend_from_slice(defs);
        for &d in defs {
            queued[d.index()] = true;
        }
        while let Some(b) = work.pop() {
            if !self.is_reachable(b) {
                continue;
            }
            for &f in self.frontier(b) {
                if !in_result[f.index()] {
                    in_result[f.index()] = true;
                    result.push(f);
                    if !queued[f.index()] {
                        queued[f.index()] = true;
                        work.push(f);
                    }
                }
            }
        }
        for &b in defs.iter().chain(result.iter()) {
            in_result[b.index()] = false;
            queued[b.index()] = false;
        }
        result.sort_unstable();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::ids::BlockId;

    /// Builds a diamond: entry -> {l, r} -> merge.
    fn diamond() -> (crate::module::Module, crate::ids::FuncId) {
        let mut mb = ModuleBuilder::new();
        let g = mb.global("g");
        let mut f = mb.func("main", &[]);
        let l = f.block("l");
        let r = f.block("r");
        let merge = f.block("merge");
        f.branch(l, r);
        f.switch_to(l);
        let p = f.addr("p", g);
        f.jump(merge);
        f.switch_to(r);
        let q = f.addr("q", g);
        f.jump(merge);
        f.switch_to(merge);
        f.phi("m", &[(l, p), (r, q)]);
        f.ret(None);
        f.finish();
        let m = mb.build();
        let id = m.entry().unwrap();
        (m, id)
    }

    #[test]
    fn diamond_dominators() {
        let (m, f) = diamond();
        let dom = DomTree::compute(m.func(f));
        let (entry, l, r, merge) = (
            BlockId::new(0),
            BlockId::new(1),
            BlockId::new(2),
            BlockId::new(3),
        );
        assert_eq!(dom.idom(entry), None);
        assert_eq!(dom.idom(l), Some(entry));
        assert_eq!(dom.idom(r), Some(entry));
        assert_eq!(dom.idom(merge), Some(entry));
        assert!(dom.dominates(entry, merge));
        assert!(!dom.dominates(l, merge));
        assert!(dom.dominates(merge, merge));
    }

    #[test]
    fn diamond_frontiers() {
        let (m, f) = diamond();
        let dom = DomTree::compute(m.func(f));
        let (l, r, merge) = (BlockId::new(1), BlockId::new(2), BlockId::new(3));
        assert_eq!(dom.frontier(l), &[merge]);
        assert_eq!(dom.frontier(r), &[merge]);
        let mut scratch = FrontierScratch::default();
        assert_eq!(dom.iterated_frontier(&[l], &mut scratch), &[merge]);
        assert!(dom.frontier(merge).is_empty());
    }

    #[test]
    fn loop_frontier_contains_header() {
        // entry -> header -> body -> header; header -> exit
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main", &[]);
        let header = f.block("header");
        let body = f.block("body");
        let exit = f.block("exit");
        f.jump(header);
        f.switch_to(header);
        f.branch(body, exit);
        f.switch_to(body);
        f.jump(header);
        f.switch_to(exit);
        f.ret(None);
        f.finish();
        let m = mb.build();
        let dom = DomTree::compute(m.func(m.entry().unwrap()));
        // A definition in the loop body forces a phi at the header.
        let mut scratch = FrontierScratch::default();
        assert_eq!(dom.iterated_frontier(&[body], &mut scratch), &[header]);
        assert!(dom.dominates(header, body));
    }

    /// One scratch serves calls on different functions: each call clears
    /// the marks it set, so none leaks into the next answer.
    #[test]
    fn frontier_scratch_is_reusable_across_functions() {
        let (m, f) = diamond();
        let small = DomTree::compute(m.func(f));
        let mut mb = ModuleBuilder::new();
        let mut g = mb.func("main", &[]);
        let (header, body, exit) = (g.block("header"), g.block("body"), g.block("exit"));
        g.jump(header);
        g.switch_to(header);
        g.branch(body, exit);
        g.switch_to(body);
        g.jump(header);
        g.switch_to(exit);
        g.ret(None);
        g.finish();
        let m2 = mb.build();
        let looped = DomTree::compute(m2.func(m2.entry().unwrap()));
        let mut scratch = FrontierScratch::default();
        let (l, merge) = (BlockId::new(1), BlockId::new(3));
        for _ in 0..2 {
            assert_eq!(
                looped.iterated_frontier(&[body, body], &mut scratch),
                &[header]
            );
            assert_eq!(small.iterated_frontier(&[l], &mut scratch), &[merge]);
            assert!(small.iterated_frontier(&[merge], &mut scratch).is_empty());
            assert_eq!(
                looped.iterated_frontier(&[exit, body], &mut scratch),
                &[header]
            );
        }
    }

    #[test]
    fn unreachable_blocks_are_flagged() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main", &[]);
        let dead = f.block("dead");
        f.ret(None);
        f.switch_to(dead);
        f.ret(None);
        f.finish();
        let m = mb.build();
        let dom = DomTree::compute(m.func(m.entry().unwrap()));
        assert!(dom.is_reachable(BlockId::ENTRY));
        assert!(!dom.is_reachable(dead));
        assert_eq!(dom.rpo().len(), 1);
    }
}
