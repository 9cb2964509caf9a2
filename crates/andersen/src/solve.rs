//! The inclusion-based (Andersen) solver — FSAM's pre-analysis.
//!
//! Flow- and context-insensitive, field-sensitive, with an on-the-fly call
//! graph. The solve loop is wave propagation (Pereira & Berlin, cited as the
//! paper's pre-analysis implementation, §4.2), repeating rounds of three
//! steps until nothing changes:
//!
//! 1. detect and collapse cycles in the copy graph (treating `gep` edges as
//!    weighted edges so positive-weight cycles are found and the affected
//!    objects collapsed to field-insensitive treatment) — skipped when no
//!    copy edge was added and no node merged since the last pass;
//! 2. propagate each representative's delta along copy edges in the
//!    topological order the cycle pass emitted;
//! 3. process the complex constraints (loads, stores, geps, indirect
//!    calls/forks) against the objects their pointers gained since their
//!    last visit, adding copy edges and call edges; a constraint whose
//!    pointer's representative has not grown or merged is skipped.
//!
//! The rounds, and what each one merges, marks and interns, are those of
//! the whole-set solver this one replaced, so the result and every
//! [`AndersenStats`] field are the same (the test-only `reference` module
//! checks it).

use std::time::Instant;

use fsam_ir::callgraph::CallGraph;
use fsam_ir::stmt::{Callee, StmtKind, Terminator};
use fsam_ir::{FuncId, Module, StmtId, VarId};
use fsam_pts::{MemId, ObjectModel, PtsSet};

use crate::graph::{ConstraintGraph, NodeId};

/// Statistics of one pre-analysis run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AndersenStats {
    /// Wave-propagation rounds until fixpoint.
    pub rounds: usize,
    /// Constraint-graph nodes at the end.
    pub nodes: usize,
    /// Copy edges at the end.
    pub copy_edges: usize,
    /// Total points-to pairs at the end.
    pub pts_entries: usize,
    /// Nodes merged by cycle collapsing.
    pub scc_merges: usize,
    /// Indirect call/fork targets resolved.
    pub indirect_resolved: usize,
    /// Objects collapsed due to positive-weight cycles or offset overflow.
    pub pwc_collapses: usize,
    /// Wall-clock microseconds spent solving.
    pub solve_micros: u128,
}

/// A complex constraint on the points-to set of `ptr`: `ptr`'s objects
/// are handled once each, and a visit that finds `ptr`'s representative
/// unchanged since `seen` skips without reading the set.
#[derive(Debug)]
struct Complex<K> {
    ptr: VarId,
    kind: K,
    /// The graph clock at the last visit.
    seen: u32,
    /// The objects already handled.
    processed: PtsSet,
}

impl<K> Complex<K> {
    fn new(ptr: VarId, kind: K) -> Self {
        Complex {
            ptr,
            kind,
            seen: 0,
            processed: PtsSet::new(),
        }
    }

    /// The objects of `ptr` not yet handled, now marked handled, in
    /// ascending order.
    fn fresh(&mut self, g: &mut ConstraintGraph) -> Option<PtsSet> {
        let n = g.var_node(self.ptr);
        let fresh = g.pts_since(n, &mut self.seen)?.difference(&self.processed);
        if fresh.is_empty() {
            return None;
        }
        self.processed.union_in_place(&fresh);
        Some(fresh)
    }
}

#[derive(Debug)]
struct CallC {
    site: StmtId,
    caller: FuncId,
    args: Vec<VarId>,
    dst: Option<VarId>,
    is_fork: bool,
}

/// The result of running Andersen's analysis on a module.
///
/// This is the paper's *pre-analysis* (Figure 2): it over-approximates
/// points-to information, resolves function pointers (and hence fork
/// targets), and supplies the aliasing information that the memory-SSA and
/// thread-interference phases consume.
#[derive(Debug)]
pub struct PreAnalysis {
    pub(crate) pt_vars: Vec<PtsSet>,
    pub(crate) pt_mems: Vec<PtsSet>,
    pub(crate) om: ObjectModel,
    pub(crate) cg: CallGraph,
    /// Solver statistics.
    pub stats: AndersenStats,
}

impl PreAnalysis {
    /// Runs the pre-analysis on `module`.
    pub fn run(module: &Module) -> PreAnalysis {
        Solver::new(module).solve()
    }

    /// Points-to set of a top-level variable.
    pub fn pt_var(&self, v: VarId) -> &PtsSet {
        &self.pt_vars[v.index()]
    }

    /// Points-to set of a memory object (what the object *contains*).
    pub fn pt_mem(&self, m: MemId) -> &PtsSet {
        static EMPTY: PtsSet = PtsSet::new();
        self.pt_mems.get(m.index()).unwrap_or(&EMPTY)
    }

    /// The object model (with all interned field objects).
    pub fn objects(&self) -> &ObjectModel {
        &self.om
    }

    /// The resolved, finalized call graph.
    pub fn call_graph(&self) -> &CallGraph {
        &self.cg
    }

    /// `AS(*p, *q)`: the objects pointed to by both `p` and `q`
    /// (paper rule `THREAD-VF`).
    pub fn alias_set(&self, p: VarId, q: VarId) -> PtsSet {
        self.pt_var(p).intersection(self.pt_var(q))
    }

    /// Whether `*p` and `*q` may alias.
    pub fn may_alias(&self, p: VarId, q: VarId) -> bool {
        self.pt_var(p).intersects(self.pt_var(q))
    }

    /// Functions a variable may point to.
    pub fn functions_of(&self, v: VarId) -> Vec<FuncId> {
        self.pt_var(v)
            .iter()
            .filter_map(|m| self.om.as_function(m))
            .collect()
    }

    /// Fork sites whose thread handle `v` may hold.
    pub fn thread_handles_of(&self, v: VarId) -> Vec<StmtId> {
        let mut out: Vec<StmtId> = self
            .pt_var(v)
            .iter()
            .filter_map(|m| self.om.as_thread_handle(m))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The unique singleton lock object `v` must point to, if any — the
    /// paper's must-alias condition `l ≡ l'` for lock correlation (§3.3.3).
    pub fn must_lock_obj(&self, v: VarId) -> Option<MemId> {
        let m = self.pt_var(v).as_singleton()?;
        self.om.is_singleton(m).then_some(m)
    }

    /// Heap bytes of all final points-to sets (memory metering).
    pub fn pts_bytes(&self) -> usize {
        self.pt_vars
            .iter()
            .chain(self.pt_mems.iter())
            .map(PtsSet::heap_bytes)
            .sum()
    }
}

struct Solver<'m> {
    module: &'m Module,
    om: ObjectModel,
    g: ConstraintGraph,
    cg: CallGraph,
    /// Loads `dst = *ptr`, keyed by `dst`.
    loads: Vec<Complex<VarId>>,
    /// Stores `*ptr = src`, keyed by `src`.
    stores: Vec<Complex<VarId>>,
    /// Geps `dst = ptr + field`, keyed by `(dst, field)`.
    geps: Vec<Complex<(VarId, u32)>>,
    calls: Vec<Complex<CallC>>,
    /// Cache of each function's returned variables.
    returns: Vec<Option<Vec<VarId>>>,
    /// (site, callee) pairs already bound, to avoid re-binding.
    bound: std::collections::HashSet<(StmtId, FuncId)>,
    stats: AndersenStats,
}

impl<'m> Solver<'m> {
    fn new(module: &'m Module) -> Self {
        let om = ObjectModel::from_module(module);
        let g = ConstraintGraph::new(
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

    /// Adds the copy edge `from -> to`, flowed at the next wave.
    fn bind_edge(&mut self, from: VarId, to: VarId) -> bool {
        let (from, to) = (self.g.var_node(from), self.g.var_node(to));
        let fresh = self.g.add_edge(from, to);
        if fresh {
            self.g.flow_later(from, to);
        }
        fresh
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
        let module = self.module;
        for (&a, &p) in args.iter().zip(module.func(callee).params.iter()) {
            changed |= self.bind_edge(a, p);
        }
        if let Some(d) = dst {
            if !module.func(callee).is_external {
                for r in self.returns_of(callee) {
                    changed |= self.bind_edge(r, d);
                }
            }
        }
        changed
    }

    /// Binds a direct call or fork now; queues an indirect one.
    fn call(
        &mut self,
        site: StmtId,
        caller: FuncId,
        callee: &Callee,
        args: Vec<VarId>,
        dst: Option<VarId>,
        is_fork: bool,
    ) {
        match *callee {
            Callee::Direct(f) => {
                self.bind_call(site, caller, f, &args, dst, is_fork);
            }
            Callee::Indirect(v) => {
                let call = CallC {
                    site,
                    caller,
                    args,
                    dst,
                    is_fork,
                };
                self.calls.push(Complex::new(v, call));
            }
        }
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
                StmtKind::Load { dst, ptr } => self.loads.push(Complex::new(*ptr, *dst)),
                StmtKind::Store { ptr, val } => self.stores.push(Complex::new(*ptr, *val)),
                StmtKind::Gep { dst, base, field } => {
                    self.geps.push(Complex::new(*base, (*dst, *field)));
                }
                StmtKind::Call { callee, args, dst } => {
                    self.call(sid, stmt.func, callee, args.clone(), *dst, false);
                }
                StmtKind::Fork {
                    dst,
                    callee,
                    arg,
                    handle_obj,
                } => {
                    let m = self.om.base(*handle_obj);
                    let n = self.g.var_node(*dst);
                    self.g.insert_pts(n, m);
                    self.call(
                        sid,
                        stmt.func,
                        callee,
                        arg.iter().copied().collect(),
                        None,
                        true,
                    );
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

    /// Collapses `o`'s root to field-insensitive treatment, once.
    fn collapse_object(&mut self, o: MemId) {
        let root = self.om.root(o);
        if !self.om.is_collapsed(root) {
            self.om.collapse(root);
            self.stats.pwc_collapses += 1;
            self.merge_fields(root);
        }
    }

    /// Merges the constraint nodes of a collapsed `root`'s field objects
    /// into the root's node. No field is interned after the collapse, so
    /// one call per root suffices.
    fn merge_fields(&mut self, root: MemId) {
        let root_node = self.g.mem_node(root);
        for &f in self.om.fields_of(root) {
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
            // An offset overflow collapsed the root.
            self.stats.pwc_collapses += 1;
            self.merge_fields(root);
            return root;
        }
        // Make sure the node exists.
        let _ = self.g.mem_node(result);
        result
    }

    /// Processes the complex constraints against the objects their pointers
    /// gained since the last visit.
    fn process_complex(&mut self) -> bool {
        let mut changed = false;

        // Loads: dst ⊇ *ptr. Stores: *ptr ⊇ src.
        for (list, load) in [(&mut self.loads, true), (&mut self.stores, false)] {
            for c in list.iter_mut() {
                let Some(fresh) = c.fresh(&mut self.g) else {
                    continue;
                };
                let v = self.g.var_node(c.kind);
                for o in &fresh {
                    let on = self.g.mem_node(o);
                    let (from, to) = if load { (on, v) } else { (v, on) };
                    changed |= self.g.add_edge(from, to);
                    changed |= self.g.flow(from, to);
                }
            }
        }

        // Geps: dst ⊇ {field(o, f) | o ∈ pt(base)}.
        for i in 0..self.geps.len() {
            let Some(fresh) = self.geps[i].fresh(&mut self.g) else {
                continue;
            };
            let (base, (dst, field)) = (self.geps[i].ptr, self.geps[i].kind);
            let (base, dst) = (self.g.var_node(base), self.g.var_node(dst));
            let in_pwc =
                self.g.is_pwc(base) || (self.g.find(base) == self.g.find(dst) && field > 0);
            for o in &fresh {
                let fo = if in_pwc {
                    self.collapse_object(o);
                    self.om.root(o)
                } else {
                    self.field_of(o, field)
                };
                changed |= self.g.insert_pts(dst, fo);
            }
        }

        // Indirect calls and forks: bind as function objects arrive.
        for i in 0..self.calls.len() {
            let Some(fresh) = self.calls[i].fresh(&mut self.g) else {
                continue;
            };
            for o in &fresh {
                let Some(callee) = self.om.as_function(o) else {
                    continue;
                };
                let c = &self.calls[i].kind;
                let (site, caller, dst, is_fork) = (c.site, c.caller, c.dst, c.is_fork);
                let args = c.args.clone();
                if self.bind_call(site, caller, callee, &args, dst, is_fork) {
                    changed = true;
                    self.stats.indirect_resolved += 1;
                }
            }
        }

        changed
    }

    fn solve(mut self) -> PreAnalysis {
        let start = Instant::now();
        self.generate();
        self.g.reserve(self.geps.len());
        let geps = self.geps.iter().filter(|c| c.kind.1 > 0);
        (self.g).set_gep_edges(geps.map(|c| (NodeId(c.ptr.raw()), NodeId(c.kind.0.raw()))));
        loop {
            self.stats.rounds += 1;
            self.stats.scc_merges += self.g.collapse_cycles();
            let p = self.g.wave();
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

        let var_count = self.module.var_count() as u32;
        self.stats.nodes = var_count as usize + self.om.len();
        self.stats.copy_edges = self.g.edge_count();
        self.stats.pts_entries = self.g.pts_entries();

        // Extract final points-to sets, canonicalizing members whose base
        // was collapsed after they were interned: a field object of a
        // collapsed base denotes the same memory as the base, and keeping
        // both ids in result sets would make equal abstractions compare
        // unequal downstream. Each representative's set is canonicalized
        // once, in place.
        let om = &self.om;
        let folded: PtsSet = om
            .mem_ids()
            .filter(|&m| om.root(m) != m && om.is_collapsed(m))
            .collect();
        self.g.rewrite_sets(|set| {
            if !set.intersects(&folded) {
                return None;
            }
            let mut out = set.difference(&folded);
            out.extend(set.intersection(&folded).iter().map(|m| om.root(m)));
            out.compact();
            Some(out)
        });
        let g = &self.g;
        let pt_vars = (self.module.var_ids())
            .map(|v| g.pts_imm(g.var_node(v)).clone())
            .collect();
        let pt_mems = (om.mem_ids())
            .map(|m| g.pts_imm(NodeId(var_count + m.raw())).clone())
            .collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::check;
    use fsam_ir::parse::parse_module;

    fn pt_names(pa: &PreAnalysis, m: &Module, func: &str, var: &str) -> Vec<String> {
        let v = m
            .var_ids()
            .find(|&v| m.var(v).name == var && m.func(m.var(v).func).name == func)
            .unwrap_or_else(|| panic!("no var {func}::{var}"));
        let mut names: Vec<String> = pa
            .pt_var(v)
            .iter()
            .map(|o| pa.objects().display_name(m, o))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn addr_copy_load_store() {
        let m = parse_module(
            r#"
            global x
            global y
            func main() {
            entry:
              p = &x
              q = &y
              store p, q    // x = &y
              c = load p    // c = x  => {y}
              d = p         // copy   => {x}
              ret
            }
        "#,
        )
        .unwrap();
        let pa = check(&m);
        assert_eq!(pt_names(&pa, &m, "main", "p"), vec!["x"]);
        assert_eq!(pt_names(&pa, &m, "main", "c"), vec!["y"]);
        assert_eq!(pt_names(&pa, &m, "main", "d"), vec!["x"]);
    }

    #[test]
    fn phi_merges() {
        let m = parse_module(
            r#"
            global a
            global b
            func main() {
            entry:
              br ?, l, r
            l:
              p = &a
              br done
            r:
              q = &b
              br done
            done:
              c = phi [l: p, r: q]
              ret
            }
        "#,
        )
        .unwrap();
        let pa = check(&m);
        assert_eq!(pt_names(&pa, &m, "main", "c"), vec!["a", "b"]);
    }

    #[test]
    fn interprocedural_params_and_returns() {
        let m = parse_module(
            r#"
            global g
            func id(x) {
            entry:
              ret x
            }
            func main() {
            entry:
              p = &g
              q = call id(p)
              ret
            }
        "#,
        )
        .unwrap();
        let pa = check(&m);
        assert_eq!(pt_names(&pa, &m, "id", "x"), vec!["g"]);
        assert_eq!(pt_names(&pa, &m, "main", "q"), vec!["g"]);
    }

    #[test]
    fn indirect_call_resolved_on_the_fly() {
        let m = parse_module(
            r#"
            global g
            func target(x) {
            entry:
              ret x
            }
            func main() {
            entry:
              fp = &target
              p = &g
              r = call *fp(p)
              ret
            }
        "#,
        )
        .unwrap();
        let pa = check(&m);
        assert_eq!(pt_names(&pa, &m, "main", "r"), vec!["g"]);
        let main = m.entry().unwrap();
        let call_site = m
            .stmts()
            .find(|(_, s)| s.func == main && matches!(s.kind, StmtKind::Call { .. }))
            .unwrap()
            .0;
        let target = m.func_by_name("target").unwrap();
        assert!(pa.call_graph().targets(call_site).any(|f| f == target));
        assert_eq!(pa.stats.indirect_resolved, 1);
    }

    #[test]
    fn fork_handle_and_arg_binding() {
        let m = parse_module(
            r#"
            global g
            func worker(w) {
            entry:
              v = load w
              ret
            }
            func main() {
            entry:
              p = &g
              t = fork worker(p)
              join t
              ret
            }
        "#,
        )
        .unwrap();
        let pa = check(&m);
        // worker's parameter receives main's p.
        assert_eq!(pt_names(&pa, &m, "worker", "w"), vec!["g"]);
        // The handle points to exactly one fork site.
        let t = m.var_ids().find(|&v| m.var(v).name == "t").unwrap();
        assert_eq!(pa.thread_handles_of(t).len(), 1);
        // Fork edge in the call graph.
        let main = m.entry().unwrap();
        let worker = m.func_by_name("worker").unwrap();
        assert!(pa.call_graph().forked_from(main).any(|f| f == worker));
    }

    #[test]
    fn load_store_through_heap() {
        let m = parse_module(
            r#"
            global g
            func main() {
            entry:
              h = alloc "cell"
              p = &g
              store h, p    // cell = &g
              c = load h    // c = {g}
              ret
            }
        "#,
        )
        .unwrap();
        let pa = check(&m);
        assert_eq!(pt_names(&pa, &m, "main", "c"), vec!["g"]);
    }

    #[test]
    fn field_sensitivity_distinguishes_fields() {
        let m = parse_module(
            r#"
            global s
            global a
            global b
            func main() {
            entry:
              p = &s
              f1 = gep p, 1
              f2 = gep p, 2
              pa = &a
              pb = &b
              store f1, pa   // s.f1 = &a
              store f2, pb   // s.f2 = &b
              c1 = load f1
              c2 = load f2
              ret
            }
        "#,
        )
        .unwrap();
        let pa = check(&m);
        assert_eq!(pt_names(&pa, &m, "main", "c1"), vec!["a"]);
        assert_eq!(pt_names(&pa, &m, "main", "c2"), vec!["b"]);
    }

    #[test]
    fn arrays_are_monolithic() {
        let m = parse_module(
            r#"
            global array arr
            global a
            global b
            func main() {
            entry:
              p = &arr
              f1 = gep p, 1
              f2 = gep p, 2
              pa = &a
              pb = &b
              store f1, pa
              store f2, pb
              c1 = load f1
              ret
            }
        "#,
        )
        .unwrap();
        let pa = check(&m);
        // Both stores land on the same monolithic array object.
        assert_eq!(pt_names(&pa, &m, "main", "c1"), vec!["a", "b"]);
    }

    #[test]
    fn positive_weight_cycle_collapses() {
        // p = &s; loop { p = gep p, 1 } — a positive-weight cycle: p's
        // points-to must terminate by collapsing s.
        let m = parse_module(
            r#"
            global s
            func main() {
            entry:
              p0 = &s
              br header
            header:
              p = phi [entry: p0, body: p1]
              br ?, body, exit
            body:
              p1 = gep p, 1
              br header
            exit:
              c = load p
              ret
            }
        "#,
        )
        .unwrap();
        let pa = check(&m);
        assert!(pa.stats.pwc_collapses >= 1);
        // p still points to (the collapsed) s.
        let names = pt_names(&pa, &m, "main", "p");
        assert!(names.contains(&"s".to_owned()), "{names:?}");
    }

    #[test]
    fn copy_cycles_are_merged() {
        let m = parse_module(
            r#"
            global g
            func main() {
            entry:
              a0 = &g
              br header
            header:
              a = phi [entry: a0, body: b]
              br ?, body, exit
            body:
              b = a
              br header
            exit:
              ret
            }
        "#,
        )
        .unwrap();
        let pa = check(&m);
        assert!(pa.stats.scc_merges >= 1);
        assert_eq!(pt_names(&pa, &m, "main", "b"), vec!["g"]);
    }

    #[test]
    fn alias_queries() {
        let m = parse_module(
            r#"
            global x
            global y
            func main() {
            entry:
              p = &x
              q = &x
              r = &y
              ret
            }
        "#,
        )
        .unwrap();
        let pa = check(&m);
        let var = |name: &str| m.var_ids().find(|&v| m.var(v).name == name).unwrap();
        assert!(pa.may_alias(var("p"), var("q")));
        assert!(!pa.may_alias(var("p"), var("r")));
        assert_eq!(pa.alias_set(var("p"), var("q")).len(), 1);
        // x is a singleton global: must-lock candidate.
        assert!(pa.must_lock_obj(var("p")).is_some());
    }

    #[test]
    fn recursion_collapses_context_and_demotes_locals() {
        let m = parse_module(
            r#"
            func rec(x) {
            local slot
            entry:
              p = &slot
              r = call rec(p)
              ret p
            }
            func main() {
            entry:
              q = alloc "seed"
              t = call rec(q)
              ret
            }
        "#,
        )
        .unwrap();
        let pa = check(&m);
        let rec = m.func_by_name("rec").unwrap();
        assert!(pa.call_graph().in_cycle(rec));
        // `slot` is a local of a recursive function: not a singleton.
        let slot = m.objs().find(|(_, o)| o.name == "slot").unwrap().0;
        assert!(!pa.objects().is_singleton(pa.objects().base(slot)));
    }

    #[test]
    fn gep_cycle_closed_by_a_later_load_collapses() {
        // z reaches s.f1 only through the gep in round 1, so round 2 adds
        // no edge before its complex step: its cycle pass is skipped. Then
        // the load and the store on s.f1 close x -gep-> y -> s.f1 -> x, and
        // round 3's pass finds the positive-weight cycle.
        let m = parse_module(
            r#"
            global s
            global b
            func main() {
            entry:
              pb = &b
              w = &s
              z = gep w, 1
              x = load z
              y = gep x, 1
              store z, y
              store z, pb
              ret
            }
        "#,
        )
        .unwrap();
        let pa = check(&m);
        assert_eq!(pa.stats.pwc_collapses, 1);
        assert_eq!(pt_names(&pa, &m, "main", "x"), vec!["b"]);
        let b = m.global_by_name("b").unwrap();
        assert!(pa.objects().is_collapsed(pa.objects().base(b)));
    }

    #[test]
    fn offset_overflow_collapses_and_merges_existing_fields() {
        // s.f4000 is interned first; the gep past MAX_FIELD_OFFSET then
        // collapses s, which folds s.f4000's node and its contents into s.
        let m = parse_module(
            r#"
            global s
            global a
            func main() {
            entry:
              p = &s
              pa = &a
              q = gep p, 4000
              store q, pa
              r = gep q, 200
              c = load r
              ret
            }
        "#,
        )
        .unwrap();
        let pa = check(&m);
        let s = pa.objects().base(m.global_by_name("s").unwrap());
        assert!(pa.objects().is_collapsed(s));
        assert_eq!(pa.stats.pwc_collapses, 1);
        assert_eq!(pt_names(&pa, &m, "main", "q"), vec!["s"]);
        assert_eq!(pt_names(&pa, &m, "main", "r"), vec!["s"]);
        assert_eq!(pt_names(&pa, &m, "main", "c"), vec!["a"]);
    }
}
