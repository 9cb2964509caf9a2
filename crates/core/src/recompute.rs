//! The recompute-and-replace sparse solver — the equivalence oracle.
//!
//! This is the straightforward reading of Figure 10 that the delta solver
//! ([`crate::solver`]) optimizes: every visit re-evaluates a definition
//! from its **complete** inputs and replaces the old set — each top-level
//! variable from its full source list (its unique SSA definition, or all
//! argument/return bindings), each object definition from its reaching
//! definitions. Strong updates make the transfer functions non-monotone in
//! the points-to state (a store's output *shrinks* when its pointer's
//! points-to set becomes a known singleton), and recompute-and-replace
//! handles that without any bookkeeping, which is exactly what makes it a
//! trustworthy oracle: the driver-equivalence suite asserts that the delta
//! solver's final points-to state matches this solver's on every suite
//! program.
//!
//! The `pt(p)` inputs that drive the strong/weak decision only flip a
//! bounded number of times (∅ → singleton → larger), after which
//! everything is monotone, so the fixpoint exists and the worklist
//! terminates.
//!
//! The worklist pops **one item at a time in the total topological
//! priority order** (`TopoOrder::priority`) of the oracle's own item
//! graph — statements, variables, memory nodes and store/object pairs,
//! with an edge wherever a visit of one item can push another — not the
//! delta solver's level drain over its tables, so the referee shares
//! neither the schedule nor the graph it checks: std's `BinaryHeap` of
//! reversed `(priority, item)` pairs (ties break on the id) plus a
//! `queued` bitmap for dedup. Strong updates make the system
//! non-monotone, so the fixpoint could in principle depend on the order
//! in which the bounded `∅ → singleton → multi` races resolve. Both
//! orders settle store pointers before downstream propagation wherever
//! the graph is acyclic, and the equivalence suite asserts that both
//! solvers reach the same points-to state on every suite program.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use fsam_andersen::PreAnalysis;
use fsam_ir::callgraph::CallGraph;
use fsam_ir::stmt::{StmtKind, Terminator};
use fsam_ir::{Module, StmtId, VarId};
use fsam_mssa::topo::condense;
use fsam_mssa::{NodeId as VfNodeId, NodeKind as VfNodeKind, Svfg};
use fsam_pts::{MemId, PtsSet};

use crate::solver::{SolverStats, SparseResult};

/// Runs the recompute-and-replace solver over the (thread-aware) SVFG.
pub fn solve_recompute(module: &Module, pre: &PreAnalysis, svfg: &Svfg) -> SparseResult {
    Solver::new(module, pre, svfg).run()
}

/// Runs the oracle with tracing: a `solve` span carrying the same
/// `solve.*` counter schema as the delta solver, so the two traces diff
/// directly (the oracle's delta counter is zero by construction).
pub fn solve_recompute_traced(
    module: &Module,
    pre: &PreAnalysis,
    svfg: &Svfg,
    rec: &fsam_trace::Recorder,
    parent: Option<fsam_trace::SpanId>,
) -> SparseResult {
    if !rec.is_enabled() {
        return solve_recompute(module, pre, svfg);
    }
    let span = rec.span_under(parent, "solve");
    let result = solve_recompute(module, pre, svfg);
    crate::solver::export_solver_counters(&span, &result.stats);
    result
}

/// Where a top-level variable's values come from.
#[derive(Copy, Clone, Debug)]
enum VarSource {
    /// `v = &obj` (also the fork handle).
    Obj(MemId),
    /// `v ⊇ src` (copy, phi arm, argument or return binding).
    Var(VarId),
    /// `v = *ptr` at the given load.
    LoadAt(StmtId, VarId),
    /// `v = gep base, field`.
    Gep(VarId, u32),
}

#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum Item {
    Stmt(StmtId),
    /// A store whose incoming definition of one object changed.
    StoreObj(StmtId, MemId),
    MemNode(VfNodeId),
    Var(VarId),
}

struct Solver<'a> {
    module: &'a Module,
    pre: &'a PreAnalysis,
    svfg: &'a Svfg,
    pt_vars: Vec<PtsSet>,
    pt_defs: HashMap<(VfNodeId, MemId), PtsSet>,
    var_sources: Vec<Vec<VarSource>>,
    /// Items to reprocess when a variable changes (syntactic uses plus
    /// synthetic uses: call sites consuming a return variable).
    var_dependents: Vec<Vec<Item>>,
    /// Reaching-definition predecessors indexed by (node, object): avoids
    /// rescanning a node's full predecessor list per object.
    preds_by_obj: HashMap<(VfNodeId, MemId), Vec<VfNodeId>>,
    /// Dense id for each `StoreObj` item, in the tail of the item space.
    store_obj_ids: HashMap<(StmtId, MemId), u32>,
    /// Reverse map: dense tail index back to the `(store, object)` pair.
    store_obj_items: Vec<(StmtId, MemId)>,
    /// Item-space layout: stmts `[0, S)`, vars `[S, S+V)`, SVFG nodes
    /// `[S+V, S+V+N)`, store/object pairs after that.
    s_count: usize,
    v_count: usize,
    n_count: usize,
    /// Fixed priority per item id.
    prio: Vec<u32>,
    /// Min-heap of queued `(prio[id], id)` pairs, each id at most once.
    queue: BinaryHeap<Reverse<(u32, u32)>>,
    queued: Vec<bool>,
    stats: SolverStats,
}

impl<'a> Solver<'a> {
    fn new(module: &'a Module, pre: &'a PreAnalysis, svfg: &'a Svfg) -> Self {
        let mut preds_by_obj: HashMap<(VfNodeId, MemId), Vec<VfNodeId>> = HashMap::new();
        for n in svfg.node_ids() {
            for &(pred, o) in svfg.preds(n) {
                preds_by_obj.entry((n, o)).or_default().push(pred);
            }
        }

        let s_count = module.stmt_count();
        let v_count = module.var_count();
        let n_count = svfg.node_count();

        // Enumerate the `StoreObj` item space: each store, paired with every
        // object it may define (its chi set plus any incoming edge label).
        let mut store_obj_ids: HashMap<(StmtId, MemId), u32> = HashMap::new();
        let mut store_obj_items: Vec<(StmtId, MemId)> = Vec::new();
        for n in svfg.node_ids() {
            let VfNodeKind::Stmt(sid) = svfg.kind(n) else {
                continue;
            };
            if sid.index() >= s_count || !matches!(module.stmt(sid).kind, StmtKind::Store { .. }) {
                continue;
            }
            let mut objs: Vec<MemId> = svfg.annotations().chi(sid).iter().collect();
            objs.extend(svfg.preds(n).iter().map(|&(_, o)| o));
            objs.sort_unstable();
            objs.dedup();
            for o in objs {
                store_obj_ids.insert((sid, o), store_obj_items.len() as u32);
                store_obj_items.push((sid, o));
            }
        }

        let (var_sources, var_dependents) = Self::build_sources(module, pre);
        let items = s_count + v_count + n_count + store_obj_items.len();

        let mut solver = Solver {
            module,
            pre,
            svfg,
            pt_vars: vec![PtsSet::new(); v_count],
            pt_defs: HashMap::new(),
            var_sources,
            var_dependents,
            preds_by_obj,
            store_obj_ids,
            store_obj_items,
            s_count,
            v_count,
            n_count,
            queued: vec![false; items],
            prio: Vec::new(),
            queue: BinaryHeap::new(),
            stats: SolverStats::default(),
        };
        solver.prio = solver.priorities();
        solver
    }

    /// The topological priority of every item: its SCC's position in the
    /// condensation of the oracle's own item graph, where an item's
    /// successors are the items its visit can push
    /// ([`item_succs`](Self::item_succs)). The graph is filled into one
    /// flat CSR table first, so the condensation walks plain slices.
    fn priorities(&self) -> Vec<u32> {
        let n = self.queued.len();
        let mut base: Vec<u32> = Vec::with_capacity(n + 1);
        let mut adj: Vec<u32> = Vec::new();
        let mut succs: Vec<Item> = Vec::new();
        base.push(0);
        for id in 0..n {
            succs.clear();
            self.item_succs(self.item_of(id), &mut succs);
            adj.extend(succs.iter().map(|&item| self.id_of(item) as u32));
            base.push(adj.len() as u32);
        }
        condense(n, |u| {
            adj[base[u as usize] as usize..base[u as usize + 1] as usize]
                .iter()
                .copied()
        })
        .priority
    }

    /// Appends to `out` every item a visit of `item` can push: the
    /// dependents of each variable it re-evaluates, or the successors of
    /// each object definition it re-evaluates. Built from the same helpers
    /// the visits push through.
    fn item_succs(&self, item: Item, out: &mut Vec<Item>) {
        let (module, svfg) = (self.module, self.svfg);
        match item {
            Item::Stmt(sid) if is_store(module, sid) => {
                if let Some(node) = svfg.stmt_node(sid) {
                    for o in svfg.annotations().chi(sid).iter() {
                        out.extend(def_succs(module, svfg, node, o));
                    }
                }
            }
            Item::Stmt(sid) => {
                for v in stmt_vars(module, self.pre.call_graph(), sid) {
                    out.extend_from_slice(&self.var_dependents[v.index()]);
                }
            }
            Item::Var(v) => out.extend_from_slice(&self.var_dependents[v.index()]),
            Item::MemNode(n) => {
                if let Some(obj) = merge_obj(svfg, n) {
                    out.extend(def_succs(module, svfg, n, obj));
                }
            }
            Item::StoreObj(sid, o) => {
                if let Some(node) = svfg.stmt_node(sid) {
                    out.extend(def_succs(module, svfg, node, o));
                }
            }
        }
    }

    /// Collects the complete source list per variable and the dependency
    /// edges that drive recomputation.
    fn build_sources(module: &Module, pre: &PreAnalysis) -> (Vec<Vec<VarSource>>, Vec<Vec<Item>>) {
        let mut var_sources = vec![Vec::new(); module.var_count()];
        let mut var_dependents = vec![Vec::new(); module.var_count()];
        // Syntactic uses: a statement re-evaluates when an operand changes.
        for (sid, stmt) in module.stmts() {
            for u in stmt.uses() {
                var_dependents[u.index()].push(Item::Stmt(sid));
            }
        }
        let cg = pre.call_graph();
        // Per-function return variables.
        let returns: Vec<Vec<VarId>> = module
            .funcs()
            .map(|f| {
                f.blocks()
                    .filter_map(|(_, b)| match b.term {
                        Terminator::Ret(Some(v)) => Some(v),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        for (sid, stmt) in module.stmts() {
            match &stmt.kind {
                StmtKind::Addr { dst, obj } => {
                    let m = pre.objects().base(*obj);
                    var_sources[dst.index()].push(VarSource::Obj(m));
                }
                StmtKind::Copy { dst, src } => {
                    var_sources[dst.index()].push(VarSource::Var(*src));
                }
                StmtKind::Phi { dst, arms } => {
                    for arm in arms {
                        var_sources[dst.index()].push(VarSource::Var(arm.var));
                    }
                }
                StmtKind::Load { dst, ptr } => {
                    var_sources[dst.index()].push(VarSource::LoadAt(sid, *ptr));
                }
                StmtKind::Gep { dst, base, field } => {
                    var_sources[dst.index()].push(VarSource::Gep(*base, *field));
                }
                StmtKind::Call { args, dst, .. } => {
                    for callee in cg.targets(sid) {
                        let params = &module.func(callee).params;
                        for (&a, &p) in args.iter().zip(params.iter()) {
                            var_sources[p.index()].push(VarSource::Var(a));
                            var_dependents[a.index()].push(Item::Var(p));
                        }
                        if let Some(d) = dst {
                            if !module.func(callee).is_external {
                                for &r in &returns[callee.index()] {
                                    var_sources[d.index()].push(VarSource::Var(r));
                                    var_dependents[r.index()].push(Item::Var(*d));
                                }
                            }
                        }
                    }
                }
                StmtKind::Fork {
                    dst,
                    arg,
                    handle_obj,
                    ..
                } => {
                    let m = pre.objects().base(*handle_obj);
                    var_sources[dst.index()].push(VarSource::Obj(m));
                    for callee in cg.targets(sid) {
                        let params = &module.func(callee).params;
                        if let (Some(&a), Some(&p)) = (arg.as_ref(), params.first()) {
                            var_sources[p.index()].push(VarSource::Var(a));
                            var_dependents[a.index()].push(Item::Var(p));
                        }
                    }
                }
                // Sync intrinsics don't touch pointer memory; atomic dsts
                // have empty points-to by IR contract (DESIGN §1.9).
                StmtKind::Store { .. }
                | StmtKind::Join { .. }
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
        (var_sources, var_dependents)
    }

    fn id_of(&self, item: Item) -> usize {
        match item {
            Item::Stmt(s) => s.index(),
            Item::Var(v) => self.s_count + v.index(),
            Item::MemNode(n) => self.s_count + self.v_count + n.index(),
            Item::StoreObj(s, o) => {
                let k = self.store_obj_ids[&(s, o)] as usize;
                self.s_count + self.v_count + self.n_count + k
            }
        }
    }

    fn push(&mut self, item: Item) {
        let id = self.id_of(item);
        if !std::mem::replace(&mut self.queued[id], true) {
            self.queue.push(Reverse((self.prio[id], id as u32)));
        }
    }

    fn item_of(&self, id: usize) -> Item {
        if id < self.s_count {
            Item::Stmt(StmtId::new(id as u32))
        } else if id < self.s_count + self.v_count {
            Item::Var(VarId::new((id - self.s_count) as u32))
        } else if id < self.s_count + self.v_count + self.n_count {
            Item::MemNode(VfNodeId::from_index(id - self.s_count - self.v_count))
        } else {
            let (s, o) = self.store_obj_items[id - self.s_count - self.v_count - self.n_count];
            Item::StoreObj(s, o)
        }
    }

    /// Merge of the reaching definitions of `o` at node `n`.
    fn pt_in(&self, n: VfNodeId, o: MemId) -> PtsSet {
        let mut set = PtsSet::new();
        if let Some(preds) = self.preds_by_obj.get(&(n, o)) {
            for &pred in preds {
                if let Some(p) = self.pt_defs.get(&(pred, o)) {
                    set.union_in_place(p);
                }
            }
        }
        set
    }

    /// Evaluates `v` from its full source list.
    fn eval_var(&self, v: VarId) -> PtsSet {
        let mut new = PtsSet::new();
        for source in &self.var_sources[v.index()] {
            match *source {
                VarSource::Obj(m) => {
                    new.insert(m);
                }
                VarSource::Var(src) => {
                    new.union_in_place(&self.pt_vars[src.index()]);
                }
                VarSource::LoadAt(sid, ptr) => {
                    if let Some(node) = self.svfg.stmt_node(sid) {
                        for o in self.pt_vars[ptr.index()].iter() {
                            self.union_pt_in(node, o, &mut new);
                        }
                    }
                }
                VarSource::Gep(base, field) => {
                    for o in self.pt_vars[base.index()].iter() {
                        new.insert(self.pre.objects().field_existing(o, field));
                    }
                }
            }
        }
        new
    }

    /// Unions the reaching definitions of `o` at node `n` into `acc`.
    fn union_pt_in(&self, n: VfNodeId, o: MemId, acc: &mut PtsSet) {
        if let Some(preds) = self.preds_by_obj.get(&(n, o)) {
            for &pred in preds {
                if let Some(p) = self.pt_defs.get(&(pred, o)) {
                    acc.union_in_place(p);
                }
            }
        }
    }

    /// Re-evaluates `v` from its full source list and replaces its set.
    fn recompute_var(&mut self, v: VarId) {
        let new = self.eval_var(v);
        if new != self.pt_vars[v.index()] {
            self.pt_vars[v.index()] = new;
            for i in 0..self.var_dependents[v.index()].len() {
                let dep = self.var_dependents[v.index()][i];
                self.push(dep);
            }
        }
    }

    /// Replaces `pt(n, o)`; on change, pushes the `o`-successors.
    fn set_def(&mut self, n: VfNodeId, o: MemId, new: PtsSet) {
        let changed = match self.pt_defs.get(&(n, o)) {
            Some(old) => *old != new,
            None => !new.is_empty(),
        };
        if !changed {
            return;
        }
        self.pt_defs.insert((n, o), new);
        for item in def_succs(self.module, self.svfg, n, o) {
            self.push(item);
        }
    }

    fn process_stmt(&mut self, sid: StmtId) {
        let (module, svfg, pre) = (self.module, self.svfg, self.pre);
        if is_store(module, sid) {
            // [P-STORE] + [P-SU/WU].
            for o in svfg.annotations().chi(sid).iter() {
                self.process_store_obj(sid, o);
            }
        } else {
            // [P-LOAD], [P-ADDR], [P-COPY], [P-PHI], gep and call/fork
            // bindings: all funnel through the defined variables' sources.
            for v in stmt_vars(module, pre.call_graph(), sid) {
                self.recompute_var(v);
            }
        }
    }

    /// Re-evaluates one object's outgoing definition at a store
    /// ([P-STORE] + [P-SU/WU] for a single `o`).
    fn process_store_obj(&mut self, sid: StmtId, o: MemId) {
        let StmtKind::Store { ptr, val } = self.module.stmt(sid).kind else {
            return;
        };
        let Some(node) = self.svfg.stmt_node(sid) else {
            return;
        };
        let ptr_pts = &self.pt_vars[ptr.index()];
        let written = ptr_pts.contains(o);
        let strong = ptr_pts
            .as_singleton()
            .is_some_and(|s| self.pre.objects().is_singleton(s));
        let out = if written && strong {
            // kill(s, p) = {o}: the old contents die.
            self.stats.strong_updates += 1;
            self.pt_vars[val.index()].clone()
        } else {
            let mut out = self.pt_in(node, o);
            if written {
                self.stats.weak_updates += 1;
                out.union_in_place(&self.pt_vars[val.index()]);
            }
            out
        };
        self.set_def(node, o, out);
    }

    /// Intermediate SVFG nodes replace their value with the merge of their
    /// reaching definitions.
    fn process_mem_node(&mut self, n: VfNodeId) {
        if let Some(obj) = merge_obj(self.svfg, n) {
            let incoming = self.pt_in(n, obj);
            self.set_def(n, obj, incoming);
        }
    }

    fn run(mut self) -> SparseResult {
        for sid in self.module.stmt_ids() {
            self.push(Item::Stmt(sid));
        }
        // Termination backstop: the recompute semantics converge after the
        // bounded strong/weak flips, but the bound is generous; a blow-out
        // indicates an implementation bug and should fail loudly rather
        // than spin forever.
        let limit =
            50_000usize.saturating_mul(self.module.stmt_count() + self.svfg.node_count() + 64);
        while let Some(Reverse((_, id))) = self.queue.pop() {
            self.queued[id as usize] = false;
            let item = self.item_of(id as usize);
            self.stats.processed += 1;
            assert!(
                self.stats.processed <= limit,
                "recompute solver failed to converge after {limit} items"
            );
            match item {
                Item::Stmt(s) => self.process_stmt(s),
                Item::StoreObj(s, o) => self.process_store_obj(s, o),
                Item::MemNode(n) => self.process_mem_node(n),
                Item::Var(v) => self.recompute_var(v),
            }
        }
        self.stats.recompute_items = self.stats.processed;
        self.stats.var_pts_entries = self.pt_vars.iter().map(PtsSet::len).sum();
        self.stats.def_pts_entries = self.pt_defs.values().map(PtsSet::len).sum();
        SparseResult::from_state(
            self.pt_vars,
            self.pt_defs,
            self.svfg.node_count(),
            self.stats,
        )
    }
}

fn is_store(module: &Module, sid: StmtId) -> bool {
    matches!(module.stmt(sid).kind, StmtKind::Store { .. })
}

/// The variables a visit of the non-store statement `sid` re-evaluates:
/// every callee parameter at a call or fork, then its own definition.
fn stmt_vars<'m>(
    module: &'m Module,
    cg: &'m CallGraph,
    sid: StmtId,
) -> impl Iterator<Item = VarId> + 'm {
    let stmt = module.stmt(sid);
    let binds = matches!(stmt.kind, StmtKind::Call { .. } | StmtKind::Fork { .. });
    binds
        .then(|| cg.targets(sid))
        .into_iter()
        .flatten()
        .flat_map(move |callee| module.func(callee).params.iter().copied())
        .chain(stmt.def())
}

/// The object a merge node (mem-phi, formal/actual in/out, thread
/// junction) defines; `None` for statement nodes.
fn merge_obj(svfg: &Svfg, n: VfNodeId) -> Option<MemId> {
    match svfg.kind(n) {
        VfNodeKind::MemPhi { obj, .. }
        | VfNodeKind::FormalIn { obj, .. }
        | VfNodeKind::FormalOut { obj, .. }
        | VfNodeKind::ActualOut { obj, .. }
        | VfNodeKind::ThreadJunction { obj } => Some(obj),
        VfNodeKind::Stmt(_) => None,
    }
}

/// The items a change of `pt(n, o)` pushes: the `o`-successors of `n`,
/// each as the store/object pair, statement or memory node that reads it.
fn def_succs<'m>(
    module: &'m Module,
    svfg: &'m Svfg,
    n: VfNodeId,
    o: MemId,
) -> impl Iterator<Item = Item> + 'm {
    svfg.succs(n)
        .iter()
        .filter(move |&&(_, label)| label == o)
        .map(move |&(s, _)| match svfg.kind(s) {
            VfNodeKind::Stmt(stmt) if is_store(module, stmt) => Item::StoreObj(stmt, o),
            VfNodeKind::Stmt(stmt) => Item::Stmt(stmt),
            _ => Item::MemNode(s),
        })
}
