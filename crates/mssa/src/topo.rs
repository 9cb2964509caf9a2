//! Tarjan SCC condensation and topological worklist keys.
//!
//! Sparse solvers converge fastest when a fact crosses each acyclic region
//! of the def-use graph once per round instead of rippling in pop order
//! (Hardekopf–Lin; also the priority scheme of the SSI/sparse-dataflow
//! construction). [`condense`] computes the strongly connected components of
//! an arbitrary dense graph and gives every vertex two keys of its
//! component: a total topological priority and a topological depth. A
//! worklist keyed on either processes definitions before their transitive
//! uses whenever the graph allows it.
//!
//! Each solver condenses the item graph it propagates over: the delta
//! solver its variables and slots, the recompute oracle its statements,
//! variables, memory nodes and store/object pairs, and the NonSparse
//! baseline its ICFG.

/// Topological keys of a graph's SCC condensation, per vertex.
#[derive(Clone, Debug)]
pub struct TopoOrder {
    /// Topological priority per vertex: if an edge `u → v` crosses
    /// components, `priority[u] < priority[v]`; vertices of one component
    /// share one value. Sources come first.
    pub priority: Vec<u32>,
    /// Topological *depth* per vertex: the length of the longest path
    /// from a source to its component in the condensation. Unlike
    /// `priority` — a total order with one distinct value per component —
    /// independent components share a level, so the sparse solver drains a
    /// whole band of them per worklist round: two vertices on the same
    /// level are never connected by a def-use path outside their own
    /// component.
    pub level: Vec<u32>,
}

/// Condenses the graph on vertices `0..n` with successor lists `succs`
/// into SCCs and derives both topological keys. Iterative Tarjan — safe
/// on deep chains. `succs` is called twice per vertex: once by the DFS and
/// once by the level pass.
pub fn condense<I, F>(n: usize, succs: F) -> TopoOrder
where
    I: IntoIterator<Item = u32>,
    F: Fn(u32) -> I,
{
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut comp = vec![u32::MAX; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    // Vertices in the order Tarjan pops them: whole components, in
    // reverse topological order.
    let mut popped: Vec<u32> = Vec::with_capacity(n);
    let mut next = 0u32;
    let mut comps = 0u32;
    // DFS frame: (vertex, its remaining successors).
    let mut frames: Vec<(u32, I::IntoIter)> = Vec::new();

    for root in 0..n as u32 {
        if index[root as usize] != u32::MAX {
            continue;
        }
        index[root as usize] = next;
        low[root as usize] = next;
        next += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        frames.push((root, succs(root).into_iter()));

        while let Some((v, it)) = frames.last_mut() {
            let vu = *v as usize;
            if let Some(w) = it.next() {
                let wu = w as usize;
                if index[wu] == u32::MAX {
                    index[wu] = next;
                    low[wu] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[wu] = true;
                    frames.push((w, succs(w).into_iter()));
                } else if on_stack[wu] {
                    low[vu] = low[vu].min(index[wu]);
                }
            } else {
                if low[vu] == index[vu] {
                    loop {
                        let x = stack.pop().expect("tarjan stack underflow");
                        on_stack[x as usize] = false;
                        comp[x as usize] = comps;
                        popped.push(x);
                        if x as usize == vu {
                            break;
                        }
                    }
                    comps += 1;
                }
                frames.pop();
                if let Some((p, _)) = frames.last() {
                    low[*p as usize] = low[*p as usize].min(low[vu]);
                }
            }
        }
    }

    // Longest-path depth of each component. In reverse pop order every
    // component comes after all components with an edge into it, so its
    // depth is final before its own out-edges are relaxed.
    let mut comp_level = vec![0u32; comps as usize];
    for &u in popped.iter().rev() {
        let cu = comp[u as usize] as usize;
        for v in succs(u) {
            let cv = comp[v as usize] as usize;
            if cu != cv {
                comp_level[cv] = comp_level[cv].max(comp_level[cu] + 1);
            }
        }
    }

    // Tarjan numbers components in reverse topological order; invert so
    // that sources get the smallest priority.
    TopoOrder {
        priority: comp.iter().map(|&c| comps - 1 - c).collect(),
        level: comp.iter().map(|&c| comp_level[c as usize]).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn condense_adj(adj: &[Vec<u32>]) -> TopoOrder {
        condense(adj.len(), |u| adj[u as usize].iter().copied())
    }

    /// Brute-force reachability: `reach[u][v]` iff a path of length ≥ 0
    /// leads from `u` to `v`.
    fn reachability(adj: &[Vec<u32>]) -> Vec<Vec<bool>> {
        let n = adj.len();
        let mut reach = vec![vec![false; n]; n];
        for (u, row) in reach.iter_mut().enumerate() {
            let mut stack = vec![u];
            while let Some(x) = stack.pop() {
                if !std::mem::replace(&mut row[x], true) {
                    stack.extend(adj[x].iter().map(|&y| y as usize));
                }
            }
        }
        reach
    }

    /// Brute-force longest-path depth of each vertex's component in the
    /// condensation: `n` rounds of relaxing every cross-component edge.
    fn brute_depths(adj: &[Vec<u32>], reach: &[Vec<bool>]) -> Vec<u32> {
        let n = adj.len();
        let mut depth = vec![0u32; n];
        for _ in 0..n {
            for (u, succs) in adj.iter().enumerate() {
                for &v in succs {
                    let v = v as usize;
                    if !reach[v][u] {
                        let d = depth[u] + 1;
                        for w in 0..n {
                            if reach[v][w] && reach[w][v] {
                                depth[w] = depth[w].max(d);
                            }
                        }
                    }
                }
            }
        }
        depth
    }

    /// The defining property of [`TopoOrder::priority`]: vertices of one
    /// component share a priority, cross-component edges strictly
    /// increase it, and components get distinct values.
    fn priorities_are_topological(adj: &[Vec<u32>], order: &TopoOrder) -> bool {
        let reach = reachability(adj);
        let n = adj.len();
        (0..n).all(|u| {
            (0..n).all(|v| {
                let same = reach[u][v] && reach[v][u];
                same == (order.priority[u] == order.priority[v])
            })
        }) && adj.iter().enumerate().all(|(u, succs)| {
            succs.iter().all(|&v| {
                let v = v as usize;
                reach[v][u] || order.priority[u] < order.priority[v]
            })
        })
    }

    /// The defining property of [`TopoOrder::level`]: every level is the
    /// longest-path depth of its vertex's component in the condensation
    /// (so vertices of one component share a level and cross-component
    /// edges strictly increase it).
    fn levels_are_longest_paths(adj: &[Vec<u32>], order: &TopoOrder) -> bool {
        order.level == brute_depths(adj, &reachability(adj))
    }

    fn components(order: &TopoOrder) -> usize {
        let mut prios = order.priority.clone();
        prios.sort_unstable();
        prios.dedup();
        prios.len()
    }

    fn random_graph(rng: &mut fsam_ir::rng::SmallRng) -> Vec<Vec<u32>> {
        let n = rng.gen_range(2usize..40);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let edges = rng.gen_range(0usize..(3 * n));
        for _ in 0..edges {
            let a = rng.gen_range(0u32..n as u32);
            let b = rng.gen_range(0u32..n as u32);
            adj[a as usize].push(b);
        }
        adj
    }

    #[test]
    fn chain_gets_increasing_priorities() {
        // 0 -> 1 -> 2 -> 3
        let adj = vec![vec![1], vec![2], vec![3], vec![]];
        let order = condense_adj(&adj);
        assert_eq!(components(&order), 4);
        assert!(priorities_are_topological(&adj, &order));
        assert!(order.priority[0] < order.priority[1]);
        assert!(order.priority[2] < order.priority[3]);
    }

    #[test]
    fn cycle_collapses_to_one_component() {
        // 0 -> (1 <-> 2) -> 3
        let adj = vec![vec![1], vec![2], vec![1, 3], vec![]];
        let order = condense_adj(&adj);
        assert_eq!(components(&order), 3);
        assert_eq!(order.priority[1], order.priority[2]);
        assert!(priorities_are_topological(&adj, &order));
    }

    #[test]
    fn disconnected_vertices_are_covered() {
        let adj = vec![vec![], vec![], vec![0]];
        let order = condense_adj(&adj);
        assert_eq!(components(&order), 3);
        assert_eq!(order.priority.len(), 3);
        assert!(priorities_are_topological(&adj, &order));
    }

    #[test]
    fn self_loop_is_a_single_component() {
        let adj = vec![vec![0, 1], vec![]];
        let order = condense_adj(&adj);
        assert_eq!(components(&order), 2);
        assert!(priorities_are_topological(&adj, &order));
    }

    #[test]
    fn chain_levels_count_depth() {
        // 0 -> 1 -> 2 -> 3: a pure chain has no same-level concurrency.
        let adj = vec![vec![1], vec![2], vec![3], vec![]];
        let order = condense_adj(&adj);
        assert_eq!(order.level, vec![0, 1, 2, 3]);
        assert!(levels_are_longest_paths(&adj, &order));
    }

    #[test]
    fn diamond_branches_share_a_level() {
        // 0 -> {1, 2} -> 3: the two branches are independent, so unlike
        // `priority` (a total order) they sit on the same level.
        let adj = vec![vec![1, 2], vec![3], vec![3], vec![]];
        let order = condense_adj(&adj);
        assert_eq!(components(&order), 4);
        assert_ne!(order.priority[1], order.priority[2]);
        assert_eq!(order.level, vec![0, 1, 1, 2]);
        assert!(levels_are_longest_paths(&adj, &order));
    }

    #[test]
    fn cycle_members_share_a_level() {
        // 0 -> (1 <-> 2) -> 3: the SCC collapses to one level slot.
        let adj = vec![vec![1], vec![2], vec![1, 3], vec![]];
        let order = condense_adj(&adj);
        assert_eq!(order.level, vec![0, 1, 1, 2]);
        assert!(levels_are_longest_paths(&adj, &order));
    }

    #[test]
    fn levels_take_the_longest_path() {
        // 0 -> 1 -> 2 and a shortcut 0 -> 2, with the shortcut listed
        // first and the vertices numbered against the DFS: 2 sits at
        // depth 2, not 1.
        let adj = vec![vec![2, 1], vec![2], vec![]];
        let order = condense_adj(&adj);
        assert_eq!(order.level, vec![0, 1, 2]);
        let adj = vec![vec![], vec![0], vec![1, 0]];
        assert_eq!(condense_adj(&adj).level, vec![2, 1, 0]);
    }

    #[test]
    fn empty_graph_has_no_levels() {
        let order = condense_adj(&[]);
        assert!(order.level.is_empty());
        assert!(order.priority.is_empty());
    }

    #[test]
    fn levels_are_longest_paths_randomized() {
        let mut rng = fsam_ir::rng::SmallRng::seed_from_u64(0x70_0902);
        for _ in 0..40 {
            let adj = random_graph(&mut rng);
            let order = condense_adj(&adj);
            assert!(levels_are_longest_paths(&adj, &order), "{adj:?}");
        }
    }

    #[test]
    fn priorities_respect_all_edges_randomized() {
        let mut rng = fsam_ir::rng::SmallRng::seed_from_u64(0x70_0901);
        for _ in 0..40 {
            let adj = random_graph(&mut rng);
            let order = condense_adj(&adj);
            assert!(priorities_are_topological(&adj, &order), "{adj:?}");
        }
    }
}
