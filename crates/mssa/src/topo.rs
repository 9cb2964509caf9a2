//! Tarjan SCC condensation and topological worklist priorities.
//!
//! Sparse solvers converge fastest when a fact crosses each acyclic region
//! of the def-use graph once per round instead of rippling in pop order
//! (Hardekopf–Lin; also the priority scheme of the SSI/sparse-dataflow
//! construction). [`condense`] computes the strongly connected components of
//! an arbitrary dense graph and assigns every vertex the topological
//! position of its component; a min-priority worklist keyed on that index
//! then processes definitions before their transitive uses whenever the
//! graph allows it.
//!
//! [`Svfg::solve_order`](crate::Svfg::solve_order) applies this to the
//! *combined* sparse graph the solver actually iterates: SVFG memory edges,
//! top-level def-use chains, and call-site argument/return bindings.

use fsam_ir::callgraph::CallGraph;
use fsam_ir::{Module, StmtKind, Terminator};

use crate::svfg::{NodeKind, Svfg};

/// The SCC condensation of a graph, with topological priorities.
#[derive(Clone, Debug)]
pub struct TopoOrder {
    /// Component id per vertex (assigned in *reverse* topological order —
    /// Tarjan completes a component only after everything it reaches).
    pub comp: Vec<u32>,
    /// Topological priority per vertex: if an edge `u → v` crosses
    /// components, `priority[u] < priority[v]`. Sources come first.
    pub priority: Vec<u32>,
    /// Topological *depth* per vertex: sources sit at level 0 and every
    /// cross-component edge strictly increases the level. Unlike
    /// `priority` — a total order with one distinct value per component —
    /// independent components share a level, so the sparse solver drains a
    /// whole band of them per worklist round: two vertices on the same
    /// level are never connected by a def-use path outside their own
    /// component.
    pub level: Vec<u32>,
    /// Number of components.
    pub comp_count: usize,
    /// Number of distinct levels (`max(level) + 1`, 0 for the empty graph).
    pub level_count: usize,
}

impl TopoOrder {
    /// How many vertices sit at each level — the width profile of the
    /// solver's level drain (level `l`'s width bounds its batch size).
    pub fn level_widths(&self) -> Vec<u32> {
        let mut widths = vec![0u32; self.level_count];
        for &l in &self.level {
            widths[l as usize] += 1;
        }
        widths
    }
}

/// Condenses the graph `adj` (dense vertex ids, successor lists) into SCCs
/// and derives topological priorities. Iterative Tarjan — safe on deep
/// chains.
pub fn condense(adj: &[Vec<u32>]) -> TopoOrder {
    let n = adj.len();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut comp = vec![u32::MAX; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next = 0u32;
    let mut comps = 0u32;
    // DFS frame: (vertex, next successor index).
    let mut frames: Vec<(u32, usize)> = Vec::new();

    for root in 0..n as u32 {
        if index[root as usize] != u32::MAX {
            continue;
        }
        index[root as usize] = next;
        low[root as usize] = next;
        next += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        frames.push((root, 0));

        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            let vu = v as usize;
            if let Some(&w) = adj[vu].get(*ci) {
                *ci += 1;
                let wu = w as usize;
                if index[wu] == u32::MAX {
                    index[wu] = next;
                    low[wu] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[wu] = true;
                    frames.push((w, 0));
                } else if on_stack[wu] {
                    low[vu] = low[vu].min(index[wu]);
                }
            } else {
                if low[vu] == index[vu] {
                    loop {
                        let x = stack.pop().expect("tarjan stack underflow");
                        on_stack[x as usize] = false;
                        comp[x as usize] = comps;
                        if x == v {
                            break;
                        }
                    }
                    comps += 1;
                }
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p as usize] = low[p as usize].min(low[vu]);
                }
            }
        }
    }

    // Tarjan emits components in reverse topological order; invert so that
    // sources get the smallest priority.
    let priority: Vec<u32> = comp.iter().map(|&c| comps - 1 - c).collect();

    // Longest-path depth of each component. Relaxing out-edges in ascending
    // priority order sees every in-edge of a component before any of its
    // own vertices are visited, so one pass suffices.
    let mut comp_level = vec![0u32; comps as usize];
    let mut by_prio: Vec<u32> = (0..n as u32).collect();
    by_prio.sort_unstable_by_key(|&v| priority[v as usize]);
    for &u in &by_prio {
        let cu = comp[u as usize] as usize;
        for &v in &adj[u as usize] {
            let cv = comp[v as usize] as usize;
            if cu != cv {
                comp_level[cv] = comp_level[cv].max(comp_level[cu] + 1);
            }
        }
    }
    let level_count = comp_level
        .iter()
        .map(|&l| l as usize + 1)
        .max()
        .unwrap_or(0);
    let level = comp.iter().map(|&c| comp_level[c as usize]).collect();

    TopoOrder {
        comp,
        priority,
        level,
        comp_count: comps as usize,
        level_count,
    }
}

/// Topological keys for the sparse solvers' combined item space: one per
/// statement and one per SVFG node, on a shared scale. The delta solver
/// drains the levels; the recompute oracle pops the total priority order.
#[derive(Clone, Debug)]
pub struct SolveOrder {
    /// Priority per [`StmtId`](fsam_ir::StmtId) index.
    pub stmt_prio: Vec<u32>,
    /// Priority per SVFG [`NodeId`](crate::NodeId) index.
    pub node_prio: Vec<u32>,
    /// Topological depth per statement (see [`TopoOrder::level`]).
    pub stmt_level: Vec<u32>,
    /// Topological depth per SVFG node.
    pub node_level: Vec<u32>,
}

impl Svfg {
    /// Computes topological priorities over the combined sparse graph the
    /// solver propagates along: the SVFG's memory def-use edges, the
    /// top-level variable def-use chains, and the call-site argument/return
    /// bindings resolved by `cg`.
    ///
    /// Statement-kind SVFG nodes share their statement's vertex, so the two
    /// priority tables live on one scale and a single worklist can order
    /// variable and memory items against each other.
    pub fn solve_order(&self, module: &Module, cg: &CallGraph) -> SolveOrder {
        let s_count = module.stmt_count();
        let n_count = self.node_count();
        // Vertex for an SVFG node: its statement's vertex when it is an
        // in-module statement node, otherwise a dedicated vertex. (Thread
        // edges may intern `Stmt` nodes with synthetic out-of-module ids;
        // those only exist in tests but must not panic here.)
        let vx_node = |i: usize| -> u32 {
            match self.kind(crate::NodeId::from_index(i)) {
                NodeKind::Stmt(s) if s.index() < s_count => s.raw(),
                _ => (s_count + i) as u32,
            }
        };

        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); s_count + n_count];

        // SVFG memory edges.
        for n in self.node_ids() {
            let from = vx_node(n.index());
            for &(succ, _) in self.succs(n) {
                let to = vx_node(succ.index());
                if from != to {
                    adj[from as usize].push(to);
                }
            }
        }
        // Top-level def-use chains.
        for v in module.var_ids() {
            if let Some(d) = self.var_def(v) {
                for &u in self.var_uses(v) {
                    if u != d {
                        adj[d.index()].push(u.raw());
                    }
                }
            }
        }
        // Call bindings: a site feeds its callees' parameter uses; return
        // definitions feed the site (which defines its `dst`).
        for (sid, stmt) in module.stmts() {
            let (is_fork, dst) = match &stmt.kind {
                StmtKind::Call { dst, .. } => (false, *dst),
                StmtKind::Fork { .. } => (true, None),
                _ => continue,
            };
            for callee in cg.targets(sid) {
                let f = module.func(callee);
                let params: &[fsam_ir::VarId] = if is_fork {
                    f.params.get(..1).unwrap_or(&[])
                } else {
                    &f.params
                };
                for &p in params {
                    for &u in self.var_uses(p) {
                        if u != sid {
                            adj[sid.index()].push(u.raw());
                        }
                    }
                }
                if dst.is_some() && !f.is_external {
                    for (_, b) in f.blocks() {
                        if let Terminator::Ret(Some(r)) = b.term {
                            if let Some(dr) = self.var_def(r) {
                                if dr != sid {
                                    adj[dr.index()].push(sid.raw());
                                }
                            }
                        }
                    }
                }
            }
        }

        let order = condense(&adj);
        let stmt_prio = order.priority[..s_count].to_vec();
        let node_prio = (0..n_count)
            .map(|i| order.priority[vx_node(i) as usize])
            .collect();
        let stmt_level = order.level[..s_count].to_vec();
        let node_level = (0..n_count)
            .map(|i| order.level[vx_node(i) as usize])
            .collect();
        SolveOrder {
            stmt_prio,
            node_prio,
            stmt_level,
            node_level,
        }
    }
}

/// Checks the defining property of [`TopoOrder::priority`] on `adj`:
/// cross-component edges strictly increase priority. Used by tests.
pub fn priorities_are_topological(adj: &[Vec<u32>], order: &TopoOrder) -> bool {
    adj.iter().enumerate().all(|(u, succs)| {
        succs.iter().all(|&v| {
            let (cu, cv) = (order.comp[u], order.comp[v as usize]);
            cu == cv || order.priority[u] < order.priority[v as usize]
        })
    })
}

/// Checks the defining property of [`TopoOrder::level`] on `adj`:
/// cross-component edges strictly increase level, and vertices of one
/// component share one level. Used by tests.
pub fn levels_are_topological(adj: &[Vec<u32>], order: &TopoOrder) -> bool {
    let mut comp_level = vec![u32::MAX; order.comp_count];
    for (v, &c) in order.comp.iter().enumerate() {
        let slot = &mut comp_level[c as usize];
        if *slot == u32::MAX {
            *slot = order.level[v];
        } else if *slot != order.level[v] {
            return false;
        }
    }
    adj.iter().enumerate().all(|(u, succs)| {
        succs.iter().all(|&v| {
            let (cu, cv) = (order.comp[u], order.comp[v as usize]);
            cu == cv || order.level[u] < order.level[v as usize]
        })
    })
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn chain_gets_increasing_priorities() {
        // 0 -> 1 -> 2 -> 3
        let adj = vec![vec![1], vec![2], vec![3], vec![]];
        let order = condense(&adj);
        assert_eq!(order.comp_count, 4);
        assert!(priorities_are_topological(&adj, &order));
        assert!(order.priority[0] < order.priority[1]);
        assert!(order.priority[2] < order.priority[3]);
    }

    #[test]
    fn cycle_collapses_to_one_component() {
        // 0 -> (1 <-> 2) -> 3
        let adj = vec![vec![1], vec![2], vec![1, 3], vec![]];
        let order = condense(&adj);
        assert_eq!(order.comp_count, 3);
        assert_eq!(order.comp[1], order.comp[2]);
        assert!(priorities_are_topological(&adj, &order));
    }

    #[test]
    fn disconnected_vertices_are_covered() {
        let adj = vec![vec![], vec![], vec![0]];
        let order = condense(&adj);
        assert_eq!(order.comp_count, 3);
        assert_eq!(order.priority.len(), 3);
        assert!(priorities_are_topological(&adj, &order));
    }

    #[test]
    fn self_loop_is_a_single_component() {
        let adj = vec![vec![0, 1], vec![]];
        let order = condense(&adj);
        assert_eq!(order.comp_count, 2);
        assert!(priorities_are_topological(&adj, &order));
    }

    #[test]
    fn chain_levels_count_depth() {
        // 0 -> 1 -> 2 -> 3: a pure chain has no same-level concurrency.
        let adj = vec![vec![1], vec![2], vec![3], vec![]];
        let order = condense(&adj);
        assert_eq!(order.level, vec![0, 1, 2, 3]);
        assert_eq!(order.level_count, 4);
        assert!(levels_are_topological(&adj, &order));
        assert_eq!(order.level_widths(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn diamond_branches_share_a_level() {
        // 0 -> {1, 2} -> 3: the two branches are independent, so unlike
        // `priority` (a total order) they sit on the same level.
        let adj = vec![vec![1, 2], vec![3], vec![3], vec![]];
        let order = condense(&adj);
        assert_eq!(order.comp_count, 4);
        assert_ne!(order.priority[1], order.priority[2]);
        assert_eq!(order.level[1], order.level[2]);
        assert_eq!(order.level, vec![0, 1, 1, 2]);
        assert_eq!(order.level_count, 3);
        assert_eq!(order.level_widths(), vec![1, 2, 1]);
        assert!(levels_are_topological(&adj, &order));
    }

    #[test]
    fn cycle_members_share_comp_and_level() {
        // 0 -> (1 <-> 2) -> 3: the SCC collapses to one level slot.
        let adj = vec![vec![1], vec![2], vec![1, 3], vec![]];
        let order = condense(&adj);
        assert_eq!(order.level, vec![0, 1, 1, 2]);
        assert_eq!(order.level_count, 3);
        assert!(levels_are_topological(&adj, &order));
    }

    #[test]
    fn empty_graph_has_no_levels() {
        let order = condense(&[]);
        assert_eq!(order.level_count, 0);
        assert!(order.level_widths().is_empty());
    }

    #[test]
    fn dag_levels_respect_all_edges_randomized() {
        use fsam_ir::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x70_0902);
        for _ in 0..20 {
            let n = rng.gen_range(2usize..40);
            let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
            let edges = rng.gen_range(0usize..(3 * n));
            for _ in 0..edges {
                let a = rng.gen_range(0u32..n as u32);
                let b = rng.gen_range(0u32..n as u32);
                adj[a as usize].push(b);
            }
            let order = condense(&adj);
            assert!(levels_are_topological(&adj, &order));
            assert_eq!(
                order.level_widths().iter().sum::<u32>() as usize,
                order.level.len()
            );
        }
    }

    #[test]
    fn dag_priorities_respect_all_edges_randomized() {
        use fsam_ir::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x70_0901);
        for _ in 0..20 {
            let n = rng.gen_range(2usize..40);
            let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
            let edges = rng.gen_range(0usize..(3 * n));
            for _ in 0..edges {
                let a = rng.gen_range(0u32..n as u32);
                let b = rng.gen_range(0u32..n as u32);
                adj[a as usize].push(b);
            }
            let order = condense(&adj);
            assert!(priorities_are_topological(&adj, &order));
            let seen: BTreeSet<u32> = order.comp.iter().copied().collect();
            assert_eq!(seen.len(), order.comp_count);
        }
    }
}
