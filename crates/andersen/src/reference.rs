//! The wave solver the difference-propagating one replaced, kept as a test
//! reference, and the check that pins the shipping solver to it.
//!
//! The reference redoes global work in every round: it rebuilds an
//! adjacency list over all representatives for its cycle pass, orders
//! them by a second DFS, unions whole sets along every copy edge until
//! nothing changes, and clones each complex constraint's pointer set.
//! [`check`] runs it and [`PreAnalysis::run`] on one module and asserts an
//! equal result:
//!
//! * every variable's and every object's points-to set;
//! * the object model: the same objects in the same order, with equal
//!   kinds, collapsed and singleton flags;
//! * the call graph: every call and fork site's targets, every function's
//!   callees and forked routines, and its call-graph SCC;
//! * every [`AndersenStats`] field but the wall clock.
//!
//! The handwritten programs of the `solve` unit tests pass through
//! [`check`] too.

use std::time::Instant;

use fsam_ir::callgraph::CallGraph;
use fsam_ir::stmt::{Callee, StmtKind, Terminator};
use fsam_ir::{FuncId, Module, StmtId, VarId};
use fsam_pts::{MemId, ObjectModel, PtsSet};
use fsam_suite::{Program, Scale, SyncProgram};

use crate::graph::NodeId;
use crate::solve::{AndersenStats, PreAnalysis};

/// Runs the reference and the shipping solver on `m`, asserts that they
/// agree, and returns the shipping solver's result.
pub(crate) fn check(m: &Module) -> PreAnalysis {
    let want = Solver::new(m).solve();
    let got = PreAnalysis::run(m);
    assert_eq!(got.pt_vars, want.pt_vars, "variable points-to sets");
    assert_eq!(got.pt_mems, want.pt_mems, "object points-to sets");
    // The shipping solver clones each canonical set once built, so its sets
    // hold no growth slack; their representations are the reference's.
    let exact: usize = (want.pt_vars.iter().chain(&want.pt_mems))
        .map(|s| s.clone().heap_bytes())
        .sum();
    assert_eq!(got.pts_bytes(), exact, "points-to bytes");
    let (om, want_om) = (got.objects(), want.objects());
    assert_eq!(om.len(), want_om.len(), "object count");
    for o in om.mem_ids() {
        assert_eq!(om.kind(o), want_om.kind(o), "kind of {o}");
        assert_eq!(om.is_collapsed(o), want_om.is_collapsed(o), "{o} collapsed");
        assert_eq!(om.is_singleton(o), want_om.is_singleton(o), "{o} singleton");
    }
    let (cg, want_cg) = (got.call_graph(), want.call_graph());
    for (sid, _) in m.stmts() {
        let targets: Vec<FuncId> = cg.targets(sid).collect();
        assert_eq!(
            targets,
            want_cg.targets(sid).collect::<Vec<_>>(),
            "targets of {sid:?}"
        );
    }
    for f in m.func_ids() {
        assert!(
            cg.callees_of(f).eq(want_cg.callees_of(f)),
            "callees of {f:?}"
        );
        assert!(
            cg.forked_from(f).eq(want_cg.forked_from(f)),
            "forks of {f:?}"
        );
        assert_eq!(cg.scc_id(f), want_cg.scc_id(f), "call-graph SCC of {f:?}");
        assert_eq!(cg.in_cycle(f), want_cg.in_cycle(f), "recursion of {f:?}");
    }
    let clock = |s: &AndersenStats| AndersenStats {
        solve_micros: 0,
        ..s.clone()
    };
    assert_eq!(clock(&got.stats), clock(&want.stats), "statistics");
    got
}

#[derive(Debug)]
struct LoadC {
    ptr: VarId,
    dst: VarId,
    processed: PtsSet,
}

#[derive(Debug)]
struct StoreC {
    ptr: VarId,
    src: VarId,
    processed: PtsSet,
}

#[derive(Debug)]
struct GepC {
    base: VarId,
    dst: VarId,
    field: u32,
    processed: PtsSet,
}

#[derive(Debug)]
struct CallC {
    site: StmtId,
    caller: FuncId,
    fptr: VarId,
    args: Vec<VarId>,
    dst: Option<VarId>,
    is_fork: bool,
    processed: PtsSet,
}

/// The constraint graph state shared by the solver passes.
#[derive(Debug)]
struct Graph {
    var_count: u32,
    /// Union-find parent; `rep[i] == i` for representatives.
    rep: Vec<u32>,
    /// Copy successors, stored at representatives.
    succs: Vec<Vec<u32>>,
    /// Points-to sets, stored at representatives.
    pts: Vec<PtsSet>,
    /// Nodes merged through a positive-weight cycle: gep constraints whose
    /// pointer lands here collapse their base objects.
    pwc: Vec<bool>,
}

impl Graph {
    /// Creates a graph for `var_count` variables and `mem_count` initial
    /// memory objects.
    fn new(var_count: u32, mem_count: u32) -> Self {
        let n = (var_count + mem_count) as usize;
        Self {
            var_count,
            rep: (0..n as u32).collect(),
            succs: vec![Vec::new(); n],
            pts: vec![PtsSet::new(); n],
            pwc: vec![false; n],
        }
    }

    /// The node of a top-level variable.
    fn var_node(&self, v: VarId) -> NodeId {
        NodeId(v.raw())
    }

    /// The node of a memory object, growing the graph if the object was
    /// interned after construction.
    fn mem_node(&mut self, m: MemId) -> NodeId {
        let idx = self.var_count + m.raw();
        while self.rep.len() <= idx as usize {
            let i = self.rep.len() as u32;
            self.rep.push(i);
            self.succs.push(Vec::new());
            self.pts.push(PtsSet::new());
            self.pwc.push(false);
        }
        NodeId(idx)
    }

    /// Total node count.
    fn len(&self) -> usize {
        self.rep.len()
    }

    /// Representative of `n` (path-halving union-find).
    fn find(&mut self, n: NodeId) -> NodeId {
        let mut x = n.0;
        while self.rep[x as usize] != x {
            let parent = self.rep[x as usize];
            self.rep[x as usize] = self.rep[parent as usize];
            x = self.rep[x as usize];
        }
        NodeId(x)
    }

    /// Representative without path compression (for immutable access).
    fn find_imm(&self, n: NodeId) -> NodeId {
        let mut x = n.0;
        while self.rep[x as usize] != x {
            x = self.rep[x as usize];
        }
        NodeId(x)
    }

    /// Merges `b` into `a`'s class (both are resolved to reps first).
    /// Returns the surviving representative.
    fn merge(&mut self, a: NodeId, b: NodeId) -> NodeId {
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
        self.rep[gone.0 as usize] = keep.0;
        let moved = std::mem::take(&mut self.succs[gone.index()]);
        self.succs[keep.index()].extend(moved);
        let moved_pts = std::mem::take(&mut self.pts[gone.index()]);
        self.pts[keep.index()].union_in_place(&moved_pts);
        if self.pwc[gone.index()] {
            self.pwc[keep.index()] = true;
        }
        keep
    }

    /// Adds a copy edge `from -> to` (at representatives). Returns `true` if
    /// the edge is new.
    fn add_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        let from = self.find(from);
        let to = self.find(to);
        if from == to {
            return false;
        }
        if self.succs[from.index()].contains(&to.0) {
            return false;
        }
        self.succs[from.index()].push(to.0);
        true
    }

    /// Copy successors of representative `n` (unresolved raw ids; resolve
    /// through [`Graph::find`] before use).
    fn raw_succs(&self, n: NodeId) -> &[u32] {
        &self.succs[n.index()]
    }

    /// Deduplicates successor lists after merges, resolving stale ids.
    fn compact_succs(&mut self) {
        for i in 0..self.rep.len() {
            if self.rep[i] != i as u32 {
                continue;
            }
            let mut resolved: Vec<u32> = std::mem::take(&mut self.succs[i])
                .into_iter()
                .map(|s| self.find(NodeId(s)).0)
                .filter(|&s| s != i as u32)
                .collect();
            resolved.sort_unstable();
            resolved.dedup();
            self.succs[i] = resolved;
        }
    }

    /// Points-to set of `n`'s representative.
    fn pts(&mut self, n: NodeId) -> &PtsSet {
        let r = self.find(n);
        &self.pts[r.index()]
    }

    /// Points-to set without path compression.
    fn pts_imm(&self, n: NodeId) -> &PtsSet {
        let r = self.find_imm(n);
        &self.pts[r.index()]
    }

    /// Inserts `m` into `n`'s points-to set; returns `true` if new.
    fn insert_pts(&mut self, n: NodeId, m: MemId) -> bool {
        let r = self.find(n);
        self.pts[r.index()].insert(m)
    }

    /// Unions the points-to set of `src` into `dst` (used on edges). Returns
    /// `true` if `dst` grew.
    fn flow(&mut self, src: NodeId, dst: NodeId) -> bool {
        let s = self.find(src);
        let d = self.find(dst);
        if s == d {
            return false;
        }
        // Split-borrow via clone of the (shared) source set only when needed:
        // cheap path first.
        if self.pts[s.index()].is_empty() {
            return false;
        }
        let (a, b) = (s.index(), d.index());
        if a < b {
            let (left, right) = self.pts.split_at_mut(b);
            right[0].union_in_place(&left[a])
        } else {
            let (left, right) = self.pts.split_at_mut(a);
            left[b].union_in_place(&right[0])
        }
    }

    /// Marks `n`'s representative as part of a positive-weight cycle.
    fn mark_pwc(&mut self, n: NodeId) {
        let r = self.find(n);
        self.pwc[r.index()] = true;
    }

    /// Whether `n`'s representative is part of a positive-weight cycle.
    fn is_pwc(&mut self, n: NodeId) -> bool {
        let r = self.find(n);
        self.pwc[r.index()]
    }

    /// All current representatives.
    fn reps(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.rep.len() as u32)
            .filter(|&i| self.rep[i as usize] == i)
            .map(NodeId)
    }

    /// Total number of points-to pairs (for statistics).
    fn pts_entries(&self) -> usize {
        self.pts.iter().map(PtsSet::len).sum()
    }

    /// Total number of copy edges (for statistics).
    fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }
}

struct Solver<'m> {
    module: &'m Module,
    om: ObjectModel,
    g: Graph,
    cg: CallGraph,
    loads: Vec<LoadC>,
    stores: Vec<StoreC>,
    geps: Vec<GepC>,
    calls: Vec<CallC>,
    /// Cache of each function's returned variables.
    returns: Vec<Option<Vec<VarId>>>,
    /// (site, callee) pairs already bound, to avoid re-binding.
    bound: std::collections::HashSet<(StmtId, FuncId)>,
    stats: AndersenStats,
}

impl<'m> Solver<'m> {
    fn new(module: &'m Module) -> Self {
        let om = ObjectModel::from_module(module);
        let g = Graph::new(
            u32::try_from(module.var_count()).expect("too many variables"),
            om.base_count(),
        );
        let cg = CallGraph::new(module.func_count());
        Solver {
            module,
            om,
            g,
            cg,
            loads: Vec::new(),
            stores: Vec::new(),
            geps: Vec::new(),
            calls: Vec::new(),
            returns: vec![None; module.func_count()],
            bound: std::collections::HashSet::new(),
            stats: AndersenStats::default(),
        }
    }

    fn returns_of(&mut self, f: FuncId) -> Vec<VarId> {
        if self.returns[f.index()].is_none() {
            let mut out = Vec::new();
            for (_, block) in self.module.func(f).blocks() {
                if let Terminator::Ret(Some(v)) = block.term {
                    out.push(v);
                }
            }
            self.returns[f.index()] = Some(out);
        }
        self.returns[f.index()].clone().expect("just cached")
    }

    /// Binds a call site to a resolved callee: argument, return and call
    /// graph edges. Returns `true` if anything was new.
    fn bind_call(
        &mut self,
        site: StmtId,
        caller: FuncId,
        callee: FuncId,
        args: &[VarId],
        dst: Option<VarId>,
        is_fork: bool,
    ) -> bool {
        if !self.bound.insert((site, callee)) {
            return false;
        }
        let mut changed = if is_fork {
            self.cg.add_fork(caller, site, callee)
        } else {
            self.cg.add_call(caller, site, callee)
        };
        let params = self.module.func(callee).params.clone();
        for (&a, &p) in args.iter().zip(params.iter()) {
            changed |= self.g.add_edge(self.g.var_node(a), self.g.var_node(p));
        }
        if let Some(d) = dst {
            if !self.module.func(callee).is_external {
                for r in self.returns_of(callee) {
                    changed |= self.g.add_edge(self.g.var_node(r), self.g.var_node(d));
                }
            }
        }
        changed
    }

    fn generate(&mut self) {
        for (sid, stmt) in self.module.stmts() {
            match &stmt.kind {
                StmtKind::Addr { dst, obj } => {
                    let m = self.om.base(*obj);
                    let n = self.g.var_node(*dst);
                    self.g.insert_pts(n, m);
                }
                StmtKind::Copy { dst, src } => {
                    self.g
                        .add_edge(self.g.var_node(*src), self.g.var_node(*dst));
                }
                StmtKind::Phi { dst, arms } => {
                    for arm in arms {
                        self.g
                            .add_edge(self.g.var_node(arm.var), self.g.var_node(*dst));
                    }
                }
                StmtKind::Load { dst, ptr } => {
                    self.loads.push(LoadC {
                        ptr: *ptr,
                        dst: *dst,
                        processed: PtsSet::new(),
                    });
                }
                StmtKind::Store { ptr, val } => {
                    self.stores.push(StoreC {
                        ptr: *ptr,
                        src: *val,
                        processed: PtsSet::new(),
                    });
                }
                StmtKind::Gep { dst, base, field } => {
                    self.geps.push(GepC {
                        base: *base,
                        dst: *dst,
                        field: *field,
                        processed: PtsSet::new(),
                    });
                }
                StmtKind::Call { callee, args, dst } => match callee {
                    Callee::Direct(f) => {
                        self.bind_call(sid, stmt.func, *f, args, *dst, false);
                    }
                    Callee::Indirect(v) => {
                        self.calls.push(CallC {
                            site: sid,
                            caller: stmt.func,
                            fptr: *v,
                            args: args.clone(),
                            dst: *dst,
                            is_fork: false,
                            processed: PtsSet::new(),
                        });
                    }
                },
                StmtKind::Fork {
                    dst,
                    callee,
                    arg,
                    handle_obj,
                } => {
                    let m = self.om.base(*handle_obj);
                    let n = self.g.var_node(*dst);
                    self.g.insert_pts(n, m);
                    let args: Vec<VarId> = arg.iter().copied().collect();
                    match callee {
                        Callee::Direct(f) => {
                            self.bind_call(sid, stmt.func, *f, &args, None, true);
                        }
                        Callee::Indirect(v) => {
                            self.calls.push(CallC {
                                site: sid,
                                caller: stmt.func,
                                fptr: *v,
                                args,
                                dst: None,
                                is_fork: true,
                                processed: PtsSet::new(),
                            });
                        }
                    }
                }
                // Sync intrinsics add no points-to constraints: condvar,
                // barrier and atomic operands are uses of already-defined
                // pointers, and atomic cells hold sync-only scalars — the
                // AtomicLoad/AtomicRmw destinations have empty points-to by
                // IR contract (DESIGN §1.9).
                StmtKind::Join { .. }
                | StmtKind::Lock { .. }
                | StmtKind::Unlock { .. }
                | StmtKind::Signal { .. }
                | StmtKind::Wait { .. }
                | StmtKind::Broadcast { .. }
                | StmtKind::BarrierInit { .. }
                | StmtKind::BarrierWait { .. }
                | StmtKind::AtomicLoad { .. }
                | StmtKind::AtomicStore { .. }
                | StmtKind::AtomicRmw { .. } => {}
            }
        }
    }

    /// Collapses `root` to field-insensitive treatment and merges its field
    /// objects' constraint nodes into the root node.
    fn collapse_object(&mut self, root: MemId) {
        let root = self.om.root(root);
        if !self.om.is_collapsed(root) {
            self.om.collapse(root);
            self.stats.pwc_collapses += 1;
        }
        let fields = self.om.fields_of(root).to_vec();
        let root_node = self.g.mem_node(root);
        for f in fields {
            let fnode = self.g.mem_node(f);
            if self.g.find(fnode) != self.g.find(root_node) {
                self.g.merge(root_node, fnode);
                self.stats.scc_merges += 1;
            }
        }
    }

    /// `field(o, f)` with node-merging on collapse.
    fn field_of(&mut self, o: MemId, field: u32) -> MemId {
        let root = self.om.root(o);
        let was_collapsed = self.om.is_collapsed(root);
        let result = self.om.field(o, field);
        if !was_collapsed && self.om.is_collapsed(root) {
            // `field` collapsed the root on an offset overflow.
            self.stats.pwc_collapses += 1;
            self.collapse_object(root);
            return self.om.root(o);
        }
        // Make sure the node exists.
        let _ = self.g.mem_node(result);
        result
    }

    /// Step 1: cycle detection over copy edges + weighted gep edges.
    /// Copy-only cycles merge; cycles through a gep edge additionally mark
    /// their representative as PWC.
    fn collapse_cycles(&mut self) {
        self.g.compact_succs();
        let n = self.g.len();
        // Build the edge list over representatives, with a weighted flag.
        let mut adj: Vec<Vec<(u32, bool)>> = vec![Vec::new(); n];
        for rep in self.g.reps().collect::<Vec<_>>() {
            for &s in self.g.raw_succs(rep).to_vec().iter() {
                let t = self.g.find(NodeId(s));
                if t != rep {
                    adj[rep.index()].push((t.0, false));
                }
            }
        }
        // Weighted edges from gep constraints (base -> dst), field > 0.
        let gep_edges: Vec<(VarId, VarId, u32)> =
            self.geps.iter().map(|g| (g.base, g.dst, g.field)).collect();
        for (base, dst, field) in gep_edges {
            if field == 0 {
                continue;
            }
            let b = self.g.find(self.g.var_node(base));
            let d = self.g.find(self.g.var_node(dst));
            if b != d {
                adj[b.index()].push((d.0, true));
            } else {
                // Self-loop through a gep: immediate PWC.
                self.g.mark_pwc(b);
            }
        }

        // Iterative Tarjan over representatives.
        let mut index = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next = 0u32;
        let mut sccs: Vec<Vec<u32>> = Vec::new();
        let is_rep: Vec<bool> = {
            let mut v = vec![false; n];
            for r in self.g.reps() {
                v[r.index()] = true;
            }
            v
        };
        enum Frame {
            Enter(u32),
            Resume(u32, usize),
        }
        for root in 0..n as u32 {
            if !is_rep[root as usize] || index[root as usize] != u32::MAX {
                continue;
            }
            let mut frames = vec![Frame::Enter(root)];
            while let Some(frame) = frames.pop() {
                match frame {
                    Frame::Enter(v) => {
                        index[v as usize] = next;
                        low[v as usize] = next;
                        next += 1;
                        stack.push(v);
                        on_stack[v as usize] = true;
                        frames.push(Frame::Resume(v, 0));
                    }
                    Frame::Resume(v, mut i) => {
                        let mut descended = false;
                        while i < adj[v as usize].len() {
                            let (w, _) = adj[v as usize][i];
                            i += 1;
                            if index[w as usize] == u32::MAX {
                                frames.push(Frame::Resume(v, i));
                                frames.push(Frame::Enter(w));
                                descended = true;
                                break;
                            } else if on_stack[w as usize] {
                                low[v as usize] = low[v as usize].min(index[w as usize]);
                            }
                        }
                        if descended {
                            continue;
                        }
                        if low[v as usize] == index[v as usize] {
                            let mut scc = Vec::new();
                            loop {
                                let w = stack.pop().expect("tarjan stack");
                                on_stack[w as usize] = false;
                                scc.push(w);
                                if w == v {
                                    break;
                                }
                            }
                            if scc.len() > 1 {
                                sccs.push(scc);
                            }
                        }
                        if let Some(Frame::Resume(p, _)) = frames.last() {
                            let p = *p;
                            low[p as usize] = low[p as usize].min(low[v as usize]);
                        }
                    }
                }
            }
        }

        for scc in sccs {
            let in_scc: std::collections::HashSet<u32> = scc.iter().copied().collect();
            // Does the SCC contain a weighted internal edge?
            let mut weighted = false;
            for &v in &scc {
                for &(w, wt) in &adj[v as usize] {
                    if wt && in_scc.contains(&w) {
                        weighted = true;
                    }
                }
            }
            let mut rep = NodeId(scc[0]);
            for &v in &scc[1..] {
                rep = self.g.merge(rep, NodeId(v));
                self.stats.scc_merges += 1;
            }
            if weighted {
                self.g.mark_pwc(rep);
            }
        }
        self.g.compact_succs();
    }

    /// Step 2: one topological wave over the (acyclic) copy graph.
    fn propagate(&mut self) -> bool {
        // Topo order of reps via DFS post-order.
        let n = self.g.len();
        let mut order: Vec<NodeId> = Vec::new();
        let mut state = vec![0u8; n];
        let reps: Vec<NodeId> = self.g.reps().collect();
        for &r in &reps {
            if state[r.index()] != 0 {
                continue;
            }
            let mut stack = vec![(r, 0usize)];
            state[r.index()] = 1;
            while let Some(&mut (v, ref mut i)) = stack.last_mut() {
                let succs = self.g.raw_succs(v);
                if *i < succs.len() {
                    let w = self.g.find_imm(NodeId(succs[*i]));
                    *i += 1;
                    if state[w.index()] == 0 {
                        state[w.index()] = 1;
                        stack.push((w, 0));
                    }
                } else {
                    state[v.index()] = 2;
                    order.push(v);
                    stack.pop();
                }
            }
        }
        order.reverse();

        let mut changed = false;
        // A single pass in topo order reaches the copy-edge fixpoint on a DAG;
        // residual cycles (possible if edges were added since the last
        // collapse) are handled by iterating until stable.
        loop {
            let mut pass_changed = false;
            for &v in &order {
                let succs: Vec<u32> = self.g.raw_succs(v).to_vec();
                for s in succs {
                    pass_changed |= self.g.flow(v, NodeId(s));
                }
            }
            changed |= pass_changed;
            if !pass_changed {
                break;
            }
        }
        changed
    }

    /// Step 3: process complex constraints against points-to deltas.
    fn process_complex(&mut self) -> bool {
        let mut changed = false;

        // Loads: dst ⊇ *ptr.
        for i in 0..self.loads.len() {
            let (ptr, dst) = (self.loads[i].ptr, self.loads[i].dst);
            let pts = self.g.pts(self.g.var_node(ptr)).clone();
            for o in pts.iter() {
                if self.loads[i].processed.contains(o) {
                    continue;
                }
                self.loads[i].processed.insert(o);
                let on = self.g.mem_node(o);
                changed |= self.g.add_edge(on, self.g.var_node(dst));
                changed |= self.g.flow(on, self.g.var_node(dst));
            }
        }

        // Stores: *ptr ⊇ src.
        for i in 0..self.stores.len() {
            let (ptr, src) = (self.stores[i].ptr, self.stores[i].src);
            let pts = self.g.pts(self.g.var_node(ptr)).clone();
            for o in pts.iter() {
                if self.stores[i].processed.contains(o) {
                    continue;
                }
                self.stores[i].processed.insert(o);
                let on = self.g.mem_node(o);
                changed |= self.g.add_edge(self.g.var_node(src), on);
                changed |= self.g.flow(self.g.var_node(src), on);
            }
        }

        // Geps: dst ⊇ {field(o, f) | o ∈ pt(base)}.
        for i in 0..self.geps.len() {
            let (base, dst, field) = (self.geps[i].base, self.geps[i].dst, self.geps[i].field);
            let base_node = self.g.var_node(base);
            let in_pwc = self.g.is_pwc(base_node) || {
                let d = self.g.var_node(dst);
                self.g.find(base_node) == self.g.find(d) && field > 0
            };
            let pts = self.g.pts(base_node).clone();
            for o in pts.iter() {
                if self.geps[i].processed.contains(o) {
                    continue;
                }
                self.geps[i].processed.insert(o);
                let fo = if in_pwc {
                    self.collapse_object(o);
                    self.om.root(o)
                } else {
                    self.field_of(o, field)
                };
                changed |= self.g.insert_pts(self.g.var_node(dst), fo);
            }
        }

        // Indirect calls and forks: bind as function objects arrive.
        for i in 0..self.calls.len() {
            let fptr = self.calls[i].fptr;
            let pts = self.g.pts(self.g.var_node(fptr)).clone();
            for o in pts.iter() {
                if self.calls[i].processed.contains(o) {
                    continue;
                }
                self.calls[i].processed.insert(o);
                if let Some(callee) = self.om.as_function(o) {
                    let (site, caller, dst, is_fork) = (
                        self.calls[i].site,
                        self.calls[i].caller,
                        self.calls[i].dst,
                        self.calls[i].is_fork,
                    );
                    let args = self.calls[i].args.clone();
                    if self.bind_call(site, caller, callee, &args, dst, is_fork) {
                        changed = true;
                        self.stats.indirect_resolved += 1;
                    }
                }
            }
        }

        changed
    }

    fn solve(mut self) -> PreAnalysis {
        let start = Instant::now();
        self.generate();
        loop {
            self.stats.rounds += 1;
            self.collapse_cycles();
            let p = self.propagate();
            let c = self.process_complex();
            if !p && !c {
                break;
            }
            // Safety valve: the analysis is monotone over a finite lattice,
            // but guard against implementation bugs in debug runs.
            debug_assert!(self.stats.rounds < 10_000, "andersen failed to converge");
        }
        self.cg.finalize();
        {
            // Demote locals of recursive functions from singleton status.
            let cg = &self.cg;
            self.om
                .demote_recursive_locals(self.module, |f| cg.in_cycle(f));
        }

        // Extract final points-to sets, canonicalizing members whose base
        // was collapsed after they were interned: a field object of a
        // collapsed base denotes the same memory as the base, and keeping
        // both ids in result sets would make equal abstractions compare
        // unequal downstream.
        let canonicalize = |om: &ObjectModel, set: &PtsSet| -> PtsSet {
            let needs = set.iter().any(|m| om.is_collapsed(m) && om.root(m) != m);
            if !needs {
                return set.clone();
            }
            set.iter()
                .map(|m| if om.is_collapsed(m) { om.root(m) } else { m })
                .collect()
        };
        let mut pt_vars = Vec::with_capacity(self.module.var_count());
        for v in self.module.var_ids() {
            let set = self.g.pts_imm(self.g.var_node(v)).clone();
            pt_vars.push(canonicalize(&self.om, &set));
        }
        let mem_count = self.om.len();
        let mut pt_mems = Vec::with_capacity(mem_count);
        for m in self.om.mem_ids() {
            let node = self.g.mem_node(m);
            let set = self.g.pts_imm(node).clone();
            pt_mems.push(canonicalize(&self.om, &set));
        }

        self.stats.nodes = self.g.len();
        self.stats.copy_edges = self.g.edge_count();
        self.stats.pts_entries = self.g.pts_entries();
        self.stats.solve_micros = start.elapsed().as_micros();

        PreAnalysis {
            pt_vars,
            pt_mems,
            om: self.om,
            cg: self.cg,
            stats: self.stats,
        }
    }
}

#[test]
fn solver_matches_the_reference_on_every_suite_and_sync_program() {
    for p in Program::all() {
        check(&p.generate(Scale::SMOKE));
    }
    for p in SyncProgram::all() {
        check(&p.generate(Scale::SMOKE));
    }
}

#[test]
fn solver_matches_the_reference_at_scale() {
    if cfg!(debug_assertions) {
        eprintln!("the scaled reference checks run in release builds only");
        return;
    }
    for p in [Program::X264, Program::Raytrace] {
        let pre = check(&p.generate(Scale(0.32)));
        eprintln!("{} @ 0.32: {} rounds", p.name(), pre.stats.rounds);
    }
    // At full scale these two canonicalize bitmaps down to small sets, the
    // case the byte comparison checks.
    check(&Program::Kmeans.generate(Scale(1.0)));
    check(&SyncProgram::BarrierPhased.generate(Scale(1.0)));
}
