//! The constraint graph: nodes, union-find representatives, copy edges and
//! the two whole-graph steps of a solver round.
//!
//! Nodes cover both top-level variables and abstract memory objects. The
//! solver ([`crate::solve`]) adds copy edges and points-to facts; the graph
//! collapses cycles ([`ConstraintGraph::collapse_cycles`]) and propagates
//! in topological order ([`ConstraintGraph::wave`]) — wave propagation,
//! Pereira & Berlin, the paper's pre-analysis implementation choice in
//! §4.2. Both steps cost what changed: each representative remembers what
//! it already sent to its successors, and only the difference travels; the
//! cycle pass runs only after an edge was added or a node merged.

use fsam_ir::VarId;
use fsam_pts::{MemId, PtsSet};

/// A constraint-graph node: a top-level variable or a memory object.
///
/// Encoded densely: variables first, then memory objects (which can grow as
/// field objects are interned).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The constraint graph state shared by the solver passes.
///
/// Invariant between waves: along every copy edge `u -> w`, `pts(w)`
/// holds what `u` sent, except on the edges queued by
/// [`ConstraintGraph::flow_later`].
#[derive(Debug, Default)]
pub struct ConstraintGraph {
    var_count: u32,
    /// Union-find parent; `rep[i] == i` for representatives.
    rep: Vec<u32>,
    /// Copy successors, stored at representatives. Each row is sorted by
    /// raw id; ids go stale when their node merges, until the next pass
    /// resolves them.
    succs: Vec<Vec<u32>>,
    /// Points-to sets, stored at representatives.
    pts: Vec<PtsSet>,
    /// What each representative has sent to all its successors, a subset
    /// of its points-to set; the difference is its delta.
    sent: Vec<PtsSet>,
    /// The `clock` of each representative's last growth or merge.
    stamp: Vec<u32>,
    clock: u32,
    /// Nodes merged through a positive-weight cycle: gep constraints whose
    /// pointer lands here collapse their base objects.
    pwc: Vec<bool>,
    /// Representatives in topological order, as of the last cycle pass.
    order: Vec<u32>,
    /// Edges added without a flow; the next wave flows them in full.
    pending: Vec<(u32, u32)>,
    /// The weighted (gep) edges, pointer -> result, as set (not resolved).
    geps: Vec<(NodeId, NodeId)>,
    /// The cycle pass's buffers, kept between passes.
    walk: Walk,
    /// An edge was added or a node merged since the last cycle pass.
    dirty: bool,
    /// A node merged since the rows were last resolved.
    stale: bool,
}

impl ConstraintGraph {
    /// Creates a graph for `var_count` variables and `mem_count` initial
    /// memory objects.
    pub fn new(var_count: u32, mem_count: u32) -> Self {
        let mut g = Self {
            var_count,
            dirty: true,
            ..Self::default()
        };
        g.grow((var_count + mem_count) as usize);
        g
    }

    /// Makes room for `extra` more memory nodes, so that interning that
    /// many field objects regrows no node table.
    pub fn reserve(&mut self, extra: usize) {
        self.rep.reserve_exact(extra);
        self.succs.reserve_exact(extra);
        self.pts.reserve_exact(extra);
        self.sent.reserve_exact(extra);
        self.stamp.reserve_exact(extra);
        self.pwc.reserve_exact(extra);
    }

    fn grow(&mut self, n: usize) {
        let old = self.rep.len();
        if n <= old {
            return;
        }
        self.rep.extend(old as u32..n as u32);
        self.succs.resize_with(n, Vec::new);
        self.pts.resize_with(n, PtsSet::new);
        self.sent.resize_with(n, PtsSet::new);
        self.stamp.resize(n, 0);
        self.pwc.resize(n, false);
    }

    /// The node of a top-level variable.
    pub fn var_node(&self, v: VarId) -> NodeId {
        NodeId(v.raw())
    }

    /// The node of a memory object, growing the graph if the object was
    /// interned after construction.
    pub fn mem_node(&mut self, m: MemId) -> NodeId {
        let idx = self.var_count + m.raw();
        self.grow(idx as usize + 1);
        NodeId(idx)
    }

    /// Representative of `n` (path-halving union-find).
    pub fn find(&mut self, n: NodeId) -> NodeId {
        let mut x = n.0;
        while self.rep[x as usize] != x {
            let parent = self.rep[x as usize];
            self.rep[x as usize] = self.rep[parent as usize];
            x = self.rep[x as usize];
        }
        NodeId(x)
    }

    /// Representative without path compression (for immutable access).
    pub fn find_imm(&self, n: NodeId) -> NodeId {
        let mut x = n.0;
        while self.rep[x as usize] != x {
            x = self.rep[x as usize];
        }
        NodeId(x)
    }

    /// Records that representative `r` grew or merged.
    fn touch(&mut self, r: usize) {
        self.clock += 1;
        self.stamp[r] = self.clock;
    }

    /// Merges `b` into `a`'s class (both are resolved to reps first).
    /// Returns the surviving representative.
    pub fn merge(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let a = self.find(a);
        let b = self.find(b);
        if a == b {
            return a;
        }
        // Keep the node with more successors as rep to move less data.
        let (keep, gone) = if self.succs[a.index()].len() >= self.succs[b.index()].len() {
            (a, b)
        } else {
            (b, a)
        };
        let (k, g) = (keep.index(), gone.index());
        self.rep[g] = keep.0;
        let moved = std::mem::take(&mut self.succs[g]);
        self.succs[k].extend(moved);
        let moved_pts = std::mem::take(&mut self.pts[g]);
        self.pts[k].union_in_place(&moved_pts);
        // Only what both sides sent reached every successor of the class.
        let gone_sent = std::mem::take(&mut self.sent[g]);
        if !self.sent[k].is_subset(&gone_sent) {
            self.sent[k] = self.sent[k].intersection(&gone_sent);
        }
        self.touch(k);
        self.pwc[k] |= self.pwc[g];
        self.dirty = true;
        self.stale = true;
        keep
    }

    /// Adds a copy edge `from -> to` (at representatives). Returns `true` if
    /// the edge is new. The caller flows it, now or through
    /// [`ConstraintGraph::flow_later`].
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        let from = self.find(from);
        let to = self.find(to);
        if from == to {
            return false;
        }
        let row = &mut self.succs[from.index()];
        if self.stale {
            // Merged rows are unsorted until the next pass resolves them.
            // Only a call binding in the round of a collapse lands here.
            if row.contains(&to.0) {
                return false;
            }
            row.push(to.0);
        } else {
            let Err(at) = row.binary_search(&to.0) else {
                return false;
            };
            row.insert(at, to.0);
        }
        self.dirty = true;
        true
    }

    /// Queues a full flow along `from -> to` for the next wave.
    pub fn flow_later(&mut self, from: NodeId, to: NodeId) {
        self.pending.push((from.0, to.0));
    }

    /// Points-to set of `n`'s representative.
    pub fn pts_imm(&self, n: NodeId) -> &PtsSet {
        &self.pts[self.find_imm(n).index()]
    }

    /// The points-to set of `n`'s representative if it grew or merged
    /// since the clock read `*seen`; moves `*seen` to now.
    pub fn pts_since(&mut self, n: NodeId, seen: &mut u32) -> Option<&PtsSet> {
        let r = self.find(n).index();
        if self.stamp[r] <= *seen {
            return None;
        }
        *seen = self.clock;
        Some(&self.pts[r])
    }

    /// Inserts `m` into `n`'s points-to set; returns `true` if new.
    pub fn insert_pts(&mut self, n: NodeId, m: MemId) -> bool {
        let r = self.find(n).index();
        let fresh = self.pts[r].insert(m);
        if fresh {
            self.touch(r);
        }
        fresh
    }

    /// Unions `set` into representative `r`'s points-to set; returns
    /// `true` if it grew.
    fn absorb(&mut self, r: usize, set: &PtsSet) -> bool {
        let grew = self.pts[r].union_in_place(set);
        if grew {
            self.touch(r);
        }
        grew
    }

    /// Unions the points-to set of `src` into `dst` (used on edges). Returns
    /// `true` if `dst` grew.
    pub fn flow(&mut self, src: NodeId, dst: NodeId) -> bool {
        let s = self.find(src).index();
        let d = self.find(dst).index();
        if s == d || self.pts[s].is_empty() {
            return false;
        }
        let set = std::mem::take(&mut self.pts[s]);
        let grew = self.absorb(d, &set);
        self.pts[s] = set;
        grew
    }

    /// Whether `n`'s representative is part of a positive-weight cycle.
    pub fn is_pwc(&mut self, n: NodeId) -> bool {
        let r = self.find(n);
        self.pwc[r.index()]
    }

    /// Resolves every row to representatives, dropping self-loops and
    /// repeats.
    fn resolve_rows(&mut self) {
        for i in 0..self.rep.len() {
            if self.rep[i] != i as u32 || self.succs[i].is_empty() {
                continue;
            }
            let mut row = std::mem::take(&mut self.succs[i]);
            for s in &mut row {
                *s = self.find(NodeId(*s)).0;
            }
            row.retain(|&s| s != i as u32);
            row.sort_unstable();
            row.dedup();
            self.succs[i] = row;
        }
        self.stale = false;
    }

    /// Sets the weighted (gep) edges, pointer -> result with offset > 0,
    /// that every later cycle pass walks with the copy rows.
    pub fn set_gep_edges(&mut self, edges: impl Iterator<Item = (NodeId, NodeId)>) {
        self.geps = edges.collect();
        self.dirty = true;
    }

    /// The cycle pass: one Tarjan walk over the copy rows plus the gep
    /// edges. Copy-only cycles merge; cycles through a gep edge, and gep
    /// self-loops, also mark their representative as PWC. Records the
    /// topological order the next waves follow. Runs only if an edge was
    /// added or a node merged since the last pass. Returns the merge count.
    pub fn collapse_cycles(&mut self) -> usize {
        if !self.dirty {
            return 0;
        }
        let mut w = std::mem::take(&mut self.walk);
        w.gep_edges.clear();
        for i in 0..self.geps.len() {
            let (b, d) = (self.find(self.geps[i].0), self.find(self.geps[i].1));
            if b == d {
                self.pwc[b.index()] = true;
            } else {
                w.gep_edges.push((b.0, d.0));
            }
        }
        w.tarjan(&self.rep, &self.succs, &mut self.order);
        let mut merges = 0;
        for &(start, end) in &w.sccs {
            let first = w.members[start as usize];
            let mut rep = NodeId(first);
            for &v in &w.members[start as usize + 1..end as usize] {
                rep = self.merge(rep, NodeId(v));
                merges += 1;
            }
            if w.weighted[w.comp[first as usize] as usize] {
                self.pwc[rep.index()] = true;
            }
        }
        self.walk = w;
        if self.stale {
            self.resolve_rows();
        }
        self.order.reverse();
        for i in 0..self.order.len() {
            self.order[i] = self.find(NodeId(self.order[i])).0;
        }
        self.dirty = false;
        merges
    }

    /// One wave: flows the queued edges in full, then each representative's
    /// delta (what it holds but has not sent) to its successors in
    /// topological order. Returns `true` if any set grew.
    pub fn wave(&mut self) -> bool {
        let mut changed = false;
        for (from, to) in std::mem::take(&mut self.pending) {
            changed |= self.flow(NodeId(from), NodeId(to));
        }
        for k in 0..self.order.len() {
            let v = self.order[k] as usize;
            if self.succs[v].is_empty() || self.pts[v].len() == self.sent[v].len() {
                continue;
            }
            let delta = self.pts[v].difference(&self.sent[v]);
            for j in 0..self.succs[v].len() {
                let s = self.succs[v][j] as usize;
                changed |= self.absorb(s, &delta);
            }
            self.sent[v].union_in_place(&delta);
        }
        changed
    }

    /// Replaces each representative's points-to set by `f` of it, where
    /// `f` returns one.
    pub fn rewrite_sets(&mut self, mut f: impl FnMut(&PtsSet) -> Option<PtsSet>) {
        for i in 0..self.rep.len() {
            if self.rep[i] == i as u32 {
                if let Some(set) = f(&self.pts[i]) {
                    self.pts[i] = set;
                }
            }
        }
    }

    /// Total number of points-to pairs (for statistics).
    pub fn pts_entries(&self) -> usize {
        self.pts.iter().map(PtsSet::len).sum()
    }

    /// Total number of copy edges (for statistics).
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }
}

/// The cycle pass's buffers: the gep edges as a CSR over representatives,
/// Tarjan's state and the components it found.
#[derive(Debug, Default)]
struct Walk {
    gep_edges: Vec<(u32, u32)>,
    gep_base: Vec<u32>,
    gep_to: Vec<u32>,
    index: Vec<u32>,
    low: Vec<u32>,
    /// Each visited node's component; `NONE` while it is on the stack.
    comp: Vec<u32>,
    stack: Vec<u32>,
    frames: Vec<(u32, u32)>,
    /// The members of the multi-node components, and each one's range.
    members: Vec<u32>,
    sccs: Vec<(u32, u32)>,
    /// Per component: whether a gep edge runs inside it.
    weighted: Vec<bool>,
}

const NONE: u32 = u32::MAX;

impl Walk {
    /// Successor `i` of `v`: its copy successors, then its gep targets.
    fn succ(&self, succs: &[Vec<u32>], v: usize, i: usize) -> Option<u32> {
        let copies = &succs[v];
        if i < copies.len() {
            return Some(copies[i]);
        }
        let at = self.gep_base[v] as usize + i - copies.len();
        (at < self.gep_base[v + 1] as usize).then(|| self.gep_to[at])
    }

    /// Whether `v` has no successor at all.
    fn is_sink(&self, succs: &[Vec<u32>], v: usize) -> bool {
        succs[v].is_empty() && self.gep_base[v] == self.gep_base[v + 1]
    }

    /// Iterative Tarjan over the representatives of `rep`, resolving stale
    /// row entries through `rep` as it goes. Leaves the components in
    /// emission (reverse topological) order in `order`, one member each,
    /// and the multi-node ones in `members`/`sccs`. Sinks are skipped: they
    /// close no cycle and have nothing to propagate.
    fn tarjan(&mut self, rep: &[u32], succs: &[Vec<u32>], order: &mut Vec<u32>) {
        let find = |mut x: u32| {
            while rep[x as usize] != x {
                x = rep[x as usize];
            }
            x as usize
        };
        let n = rep.len();
        // Counting sort of the gep edges by pointer, keeping their order.
        self.gep_base.clear();
        self.gep_base.resize(n + 1, 0);
        for &(b, _) in &self.gep_edges {
            self.gep_base[b as usize] += 1;
        }
        let mut total = 0;
        for i in 0..=n {
            total += self.gep_base[i];
            self.gep_base[i] = total;
        }
        self.gep_to.resize(self.gep_edges.len(), 0);
        for &(b, d) in self.gep_edges.iter().rev() {
            self.gep_base[b as usize] -= 1;
            self.gep_to[self.gep_base[b as usize] as usize] = d;
        }

        for buf in [&mut self.index, &mut self.comp] {
            buf.clear();
            buf.resize(n, NONE);
        }
        self.low.resize(n, 0);
        self.members.clear();
        self.sccs.clear();
        order.clear();
        let mut next = 0u32;
        for (root, &parent) in rep.iter().enumerate() {
            if parent != root as u32 || self.index[root] != NONE || self.is_sink(succs, root) {
                continue;
            }
            self.enter(root, &mut next);
            while let Some(&(v, i)) = self.frames.last() {
                let v = v as usize;
                if let Some(w) = self.succ(succs, v, i as usize) {
                    self.frames.last_mut().expect("frame").1 += 1;
                    let w = find(w);
                    if self.index[w] == NONE {
                        if self.is_sink(succs, w) {
                            continue;
                        }
                        self.enter(w, &mut next);
                    } else if self.comp[w] == NONE {
                        self.low[v] = self.low[v].min(self.index[w]);
                    }
                    continue;
                }
                self.frames.pop();
                if let Some(&(p, _)) = self.frames.last() {
                    self.low[p as usize] = self.low[p as usize].min(self.low[v]);
                }
                if self.low[v] != self.index[v] {
                    continue;
                }
                let id = order.len() as u32;
                let start = self.members.len();
                loop {
                    let w = self.stack.pop().expect("tarjan stack");
                    self.comp[w as usize] = id;
                    self.members.push(w);
                    if w as usize == v {
                        break;
                    }
                }
                order.push(self.members[start]);
                if self.members.len() - start > 1 {
                    self.sccs.push((start as u32, self.members.len() as u32));
                } else {
                    self.members.truncate(start);
                }
            }
        }

        // A gep edge inside a component makes it a positive-weight cycle.
        self.weighted.clear();
        self.weighted.resize(order.len(), false);
        for &(b, d) in &self.gep_edges {
            let c = self.comp[b as usize];
            if c == self.comp[d as usize] && c != NONE {
                self.weighted[c as usize] = true;
            }
        }
    }

    fn enter(&mut self, v: usize, next: &mut u32) {
        self.index[v] = *next;
        self.low[v] = *next;
        *next += 1;
        self.stack.push(v as u32);
        self.frames.push((v as u32, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: u32) -> MemId {
        MemId::new(i)
    }

    #[test]
    fn var_and_mem_nodes_are_disjoint() {
        let mut g = ConstraintGraph::new(3, 2);
        let v = g.var_node(VarId::new(1));
        let o = g.mem_node(m(0));
        assert_ne!(v, o);
        assert_eq!(o, NodeId(3));
    }

    #[test]
    fn mem_node_grows_graph() {
        let mut g = ConstraintGraph::new(1, 1);
        let late = g.mem_node(m(5));
        assert_eq!(late, NodeId(6));
        assert!(g.pts_imm(late).is_empty());
    }

    #[test]
    fn add_edge_rejects_repeats_and_self_loops() {
        let mut g = ConstraintGraph::new(3, 0);
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        assert!(g.add_edge(a, c));
        assert!(g.add_edge(a, b));
        assert!(!g.add_edge(a, c));
        assert!(!g.add_edge(b, b));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn merged_rows_still_reject_repeats() {
        // b's row {0, 3} merges into a's row {2, 4}; every old successor is
        // still found before the next pass resolves the rows.
        let mut g = ConstraintGraph::new(5, 0);
        let n = |i| NodeId(i);
        assert!(g.add_edge(n(0), n(4)) && g.add_edge(n(0), n(2)));
        assert!(g.add_edge(n(1), n(3)) && g.add_edge(n(1), n(0)));
        g.merge(n(0), n(1));
        for s in [2, 3, 4] {
            assert!(!g.add_edge(n(0), n(s)), "edge to {s} repeated");
        }
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn merge_unions_pts_and_succs() {
        let mut g = ConstraintGraph::new(4, 0);
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        g.insert_pts(a, m(1));
        g.insert_pts(b, m(2));
        g.add_edge(b, c);
        let rep = g.merge(a, b);
        assert_eq!(g.find(a), rep);
        assert_eq!(g.find(b), rep);
        assert!(g.pts_imm(a).contains(m(1)) && g.pts_imm(a).contains(m(2)));
        assert_eq!(g.edge_count(), 1);
        // Merging again is a no-op.
        assert_eq!(g.merge(a, b), rep);
    }

    #[test]
    fn cycle_pass_resolves_stale_edges() {
        let mut g = ConstraintGraph::new(4, 0);
        let (a, b, c, d) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.merge(b, c); // now a has two edges to the same class
        g.add_edge(d, a);
        g.collapse_cycles();
        let rep_a = g.find(a);
        assert_eq!(g.succs[rep_a.index()].len(), 1);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn flow_propagates_and_reports_change() {
        let mut g = ConstraintGraph::new(2, 0);
        let (a, b) = (NodeId(0), NodeId(1));
        g.insert_pts(a, m(3));
        assert!(g.flow(a, b));
        assert!(!g.flow(a, b));
        assert!(g.pts_imm(b).contains(m(3)));
        // Flow within one class is a no-op.
        g.merge(a, b);
        assert!(!g.flow(a, b));
    }

    #[test]
    fn pwc_flag_survives_merge() {
        let mut g = ConstraintGraph::new(2, 0);
        let (a, b) = (NodeId(0), NodeId(1));
        // A gep self-loop marks a as PWC.
        g.set_gep_edges(std::iter::once((a, a)));
        g.collapse_cycles();
        assert!(g.is_pwc(a) && !g.is_pwc(b));
        g.merge(b, a);
        assert!(g.is_pwc(b));
    }

    #[test]
    fn wave_sends_only_what_changed_in_topological_order() {
        // c -> b -> a: the wave reaches a in one pass.
        let mut g = ConstraintGraph::new(3, 0);
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        g.add_edge(c, b);
        g.add_edge(b, a);
        g.insert_pts(c, m(3));
        assert_eq!(g.collapse_cycles(), 0);
        assert!(g.wave());
        assert!(g.pts_imm(a).contains(m(3)));
        assert!(!g.wave(), "nothing changed since the last wave");
        let mut seen = 0;
        assert!(g.pts_since(a, &mut seen).is_some());
        assert!(g.pts_since(a, &mut seen).is_none());
        g.insert_pts(b, m(4));
        assert!(g.wave());
        assert!(g.pts_since(a, &mut seen).unwrap().contains(m(4)));
    }

    #[test]
    fn a_merged_class_sends_what_either_side_had_not() {
        // a -> x and b -> y, both waved; merging a and b must send b's
        // objects to x and a's to y.
        let mut g = ConstraintGraph::new(4, 0);
        let (a, b, x, y) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        g.add_edge(a, x);
        g.add_edge(b, y);
        g.insert_pts(a, m(1));
        g.insert_pts(b, m(2));
        g.collapse_cycles();
        g.wave();
        g.add_edge(a, b);
        g.add_edge(b, a);
        assert_eq!(g.collapse_cycles(), 1);
        assert!(g.wave());
        for n in [x, y] {
            assert!(g.pts_imm(n).contains(m(1)) && g.pts_imm(n).contains(m(2)));
        }
    }

    #[test]
    fn cycle_pass_runs_only_after_edges_or_merges() {
        // The gep edge b -> a and the copy edge a -> c close no cycle.
        let mut g = ConstraintGraph::new(3, 0);
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        g.set_gep_edges(std::iter::once((b, a)));
        g.add_edge(a, c);
        assert_eq!(g.collapse_cycles(), 0);
        assert!(!g.is_pwc(a));
        // Merging b and c closes a -> {b, c} -> a through the gep edge: the
        // next pass runs, merges a into the class and marks it PWC.
        g.merge(c, b);
        assert_eq!(g.collapse_cycles(), 1);
        assert!(g.is_pwc(a));
        assert_eq!(g.find(a), g.find(b));
    }
}
