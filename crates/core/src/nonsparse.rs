//! The NonSparse baseline — the traditional data-flow-based flow-sensitive
//! pointer analysis the paper evaluates against (§4.3).
//!
//! This re-implements what the paper calls `NonSparse`: Rugina & Rinard's
//! iterative flow-sensitive data-flow analysis \[25\], with parallel regions
//! discovered at procedure granularity by a PCG-style MHP analysis \[14\].
//! A full points-to map for address-taken objects is **maintained at every
//! ICFG node** and propagated blindly to all control-flow successors — and,
//! for stores in concurrent procedures, into every parallel region — whether
//! the facts are needed there or not. That per-program-point state is
//! exactly the time and memory cost that FSAM's sparsity eliminates
//! (Table 2: 12x time, 28x memory on average; out-of-time on the two
//! largest programs).
//!
//! The baseline shares the pre-analysis (Andersen) with FSAM for function
//! pointer resolution, as the paper's implementation does.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::{Duration, Instant};

use fsam_andersen::PreAnalysis;
use fsam_ir::icfg::{Icfg, NodeId, NodeKind};
use fsam_ir::stmt::{StmtKind, Terminator};
use fsam_ir::{FuncId, Module, VarId};
use fsam_mssa::topo::condense;
use fsam_pts::{MemId, PtsSet};
use fsam_threads::{ThreadId, ThreadModel};

/// Statistics of a NonSparse run.
#[derive(Clone, Debug, Default)]
pub struct NonSparseStats {
    /// Worklist pops.
    pub processed: usize,
    /// ICFG nodes carrying a points-to map.
    pub nodes: usize,
    /// Total points-to pairs across all program points.
    pub pts_entries: usize,
    /// Concurrent procedure pairs found by the PCG-style MHP.
    pub concurrent_proc_pairs: usize,
}

/// Why a NonSparse run ended.
#[derive(Debug)]
pub enum NonSparseOutcome {
    /// Reached the fixpoint.
    Done(NonSparseResult),
    /// Exceeded the time budget (the paper's "OOT", §4.4).
    OutOfTime {
        /// Time spent before giving up.
        elapsed: Duration,
        /// Partial statistics at abort time.
        stats: NonSparseStats,
        /// Bytes held when aborted (for reporting).
        bytes: usize,
    },
}

/// The converged baseline state.
#[derive(Debug)]
pub struct NonSparseResult {
    pt_vars: Vec<PtsSet>,
    in_maps: Vec<HashMap<MemId, PtsSet>>,
    /// Statistics.
    pub stats: NonSparseStats,
}

impl NonSparseResult {
    /// Points-to set of a top-level variable.
    pub fn pt_var(&self, v: VarId) -> &PtsSet {
        &self.pt_vars[v.index()]
    }

    /// The points-to map maintained at an ICFG node (IN state).
    pub fn pt_at(&self, n: NodeId, o: MemId) -> Option<&PtsSet> {
        self.in_maps[n.index()].get(&o)
    }

    /// Heap bytes held by the per-program-point state (memory metering).
    pub fn pts_bytes(&self) -> usize {
        bytes_of(&self.pt_vars, &self.in_maps)
    }
}

fn bytes_of(pt_vars: &[PtsSet], in_maps: &[HashMap<MemId, PtsSet>]) -> usize {
    let var_bytes: usize = pt_vars.iter().map(PtsSet::heap_bytes).sum();
    let map_bytes: usize = in_maps
        .iter()
        .map(|m| {
            m.values().map(PtsSet::heap_bytes).sum::<usize>()
                + m.len() * std::mem::size_of::<(MemId, PtsSet)>()
        })
        .sum();
    var_bytes + map_bytes
}

/// Runs the baseline. `budget` bounds wall-clock time (the Table 2 harness
/// uses the paper's two-hour cap scaled down).
pub fn run(
    module: &Module,
    pre: &PreAnalysis,
    icfg: &Icfg,
    tm: &ThreadModel,
    budget: Option<Duration>,
) -> NonSparseOutcome {
    Analysis::new(module, pre, icfg, tm).run(budget)
}

/// Runs the baseline with tracing: a `solve` span whose
/// `solve.worklist_items` counter matches the sparse solver's schema (so
/// FSAM-vs-baseline traces diff directly), plus the baseline-specific
/// per-program-point totals under the `nonsparse.` namespace.
pub fn run_traced(
    module: &Module,
    pre: &PreAnalysis,
    icfg: &Icfg,
    tm: &ThreadModel,
    budget: Option<Duration>,
    rec: &fsam_trace::Recorder,
    parent: Option<fsam_trace::SpanId>,
) -> NonSparseOutcome {
    if !rec.is_enabled() {
        return run(module, pre, icfg, tm, budget);
    }
    let span = rec.span_under(parent, "solve");
    let outcome = run(module, pre, icfg, tm, budget);
    let (stats, bytes, oot) = match &outcome {
        NonSparseOutcome::Done(r) => (&r.stats, r.pts_bytes(), 0u64),
        NonSparseOutcome::OutOfTime { stats, bytes, .. } => (stats, *bytes, 1),
    };
    span.counter("solve.worklist_items", stats.processed as u64);
    span.counter("nonsparse.nodes", stats.nodes as u64);
    span.counter("nonsparse.pts_entries", stats.pts_entries as u64);
    span.counter(
        "nonsparse.concurrent_proc_pairs",
        stats.concurrent_proc_pairs as u64,
    );
    span.counter("nonsparse.pts_bytes", bytes as u64);
    span.counter("nonsparse.out_of_time", oot);
    outcome
}

struct Analysis<'a> {
    module: &'a Module,
    pre: &'a PreAnalysis,
    icfg: &'a Icfg,
    pt_vars: Vec<PtsSet>,
    in_maps: Vec<HashMap<MemId, PtsSet>>,
    /// Interference input per function: stores from concurrent procedures.
    interf: Vec<HashMap<MemId, PtsSet>>,
    /// Function-level concurrency (PCG).
    conc_funcs: HashMap<FuncId, Vec<FuncId>>,
    /// Load nodes per function (re-pushed when interference grows).
    load_nodes: Vec<Vec<NodeId>>,
    /// Nodes to reprocess when a variable changes.
    var_dependents: Vec<Vec<NodeId>>,
    /// Extra propagation edges: joined routine exits -> join node.
    join_edges: Vec<(NodeId, NodeId)>,
    /// Topological position of each ICFG node's SCC in the propagation
    /// graph (control-flow successors plus join and fork edges).
    prio: Vec<u32>,
    /// Min-heap of queued `(prio[node], node)` pairs, each node at most
    /// once. The baseline's transfer functions are monotone in the
    /// per-point maps, so the fixpoint is order-independent; the priority
    /// order just reaches it with fewer pops than LIFO.
    queue: BinaryHeap<Reverse<(u32, u32)>>,
    queued: Vec<bool>,
    stats: NonSparseStats,
}

impl<'a> Analysis<'a> {
    fn new(module: &'a Module, pre: &'a PreAnalysis, icfg: &'a Icfg, tm: &'a ThreadModel) -> Self {
        let n = icfg.node_count();

        // PCG: function-level concurrency from the thread model without
        // statement-level fork/join positioning.
        let mut thread_pairs: Vec<(ThreadId, ThreadId)> = Vec::new();
        for a in tm.threads() {
            for b in tm.threads() {
                if a.id == b.id {
                    if a.multi_forked {
                        thread_pairs.push((a.id, b.id));
                    }
                    continue;
                }
                let ordered = tm.are_siblings(a.id, b.id)
                    && (tm.happens_before(icfg, a.id, b.id) || tm.happens_before(icfg, b.id, a.id));
                if !ordered {
                    thread_pairs.push((a.id, b.id));
                }
            }
        }
        let mut conc_funcs: HashMap<FuncId, Vec<FuncId>> = HashMap::new();
        let mut pair_count = 0usize;
        for &(t1, t2) in &thread_pairs {
            for &f1 in tm.funcs_of(t1) {
                for &f2 in tm.funcs_of(t2) {
                    let entry = conc_funcs.entry(f1).or_default();
                    if !entry.contains(&f2) {
                        entry.push(f2);
                        pair_count += 1;
                    }
                }
            }
        }

        // Dependency maps.
        let mut var_dependents: Vec<Vec<NodeId>> = vec![Vec::new(); module.var_count()];
        let mut load_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); module.func_count()];
        let mut join_edges = Vec::new();
        for (sid, stmt) in module.stmts() {
            let node = icfg.stmt_node(sid);
            for u in stmt.uses() {
                var_dependents[u.index()].push(node);
            }
            match &stmt.kind {
                StmtKind::Load { .. } => load_nodes[stmt.func.index()].push(node),
                StmtKind::Join { .. } => {
                    for e in tm.joins_at(sid) {
                        let routine = tm.info(e.thread).routine;
                        join_edges.push((icfg.exit(routine), node));
                    }
                }
                _ => {}
            }
        }
        // Return variables feed call sites.
        for (sid, stmt) in module.stmts() {
            if let StmtKind::Call { dst: Some(_), .. } = stmt.kind {
                for callee in pre.call_graph().targets(sid) {
                    for (_, b) in module.func(callee).blocks() {
                        if let Terminator::Ret(Some(v)) = b.term {
                            var_dependents[v.index()].push(icfg.stmt_node(sid));
                        }
                    }
                }
            }
        }

        let stats = NonSparseStats {
            concurrent_proc_pairs: pair_count,
            nodes: n,
            ..Default::default()
        };

        // Topological priorities over the propagation graph the baseline
        // actually iterates: ICFG successors, join side-effect edges, and
        // fork entry edges.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for nd in icfg.node_ids() {
            for &(s, _) in icfg.succs(nd) {
                if s != nd {
                    adj[nd.index()].push(s.index() as u32);
                }
            }
        }
        for &(from, to) in &join_edges {
            adj[from.index()].push(to.index() as u32);
        }
        for (sid, stmt) in module.stmts() {
            if matches!(stmt.kind, StmtKind::Fork { .. }) {
                for callee in pre.call_graph().targets(sid) {
                    adj[icfg.stmt_node(sid).index()].push(icfg.entry(callee).index() as u32);
                }
            }
        }
        let order = condense(adj.len(), |u| adj[u as usize].iter().copied());

        Analysis {
            module,
            pre,
            icfg,
            pt_vars: vec![PtsSet::new(); module.var_count()],
            in_maps: vec![HashMap::new(); n],
            interf: vec![HashMap::new(); module.func_count()],
            conc_funcs,
            load_nodes,
            var_dependents,
            join_edges,
            prio: order.priority,
            queue: BinaryHeap::new(),
            queued: vec![false; n],
            stats,
        }
    }

    fn push(&mut self, n: NodeId) {
        if !std::mem::replace(&mut self.queued[n.index()], true) {
            self.queue
                .push(Reverse((self.prio[n.index()], n.index() as u32)));
        }
    }

    fn grow_var(&mut self, v: VarId, set: &PtsSet) {
        if self.pt_vars[v.index()].union_in_place(set) {
            for i in 0..self.var_dependents[v.index()].len() {
                let dep = self.var_dependents[v.index()][i];
                self.push(dep);
            }
        }
    }

    /// `pt(dst) ∪= pt(src)` between two top-level variables.
    fn copy_var(&mut self, dst: VarId, src: VarId) {
        let (d, s) = (dst.index(), src.index());
        if d == s {
            return;
        }
        let (lo, hi) = self.pt_vars.split_at_mut(d.max(s));
        let grew = if d < s {
            lo[d].union_in_place(&hi[0])
        } else {
            hi[0].union_in_place(&lo[s])
        };
        if grew {
            for i in 0..self.var_dependents[d].len() {
                let dep = self.var_dependents[d][i];
                self.push(dep);
            }
        }
    }

    fn insert_var(&mut self, v: VarId, o: MemId) {
        if self.pt_vars[v.index()].insert(o) {
            for i in 0..self.var_dependents[v.index()].len() {
                let dep = self.var_dependents[v.index()][i];
                self.push(dep);
            }
        }
    }

    /// Unions the value of `o` at node `n` — the per-point map plus the
    /// interference input — into `acc`.
    fn read_mem_into(&self, n: NodeId, o: MemId, acc: &mut PtsSet) {
        if let Some(set) = self.in_maps[n.index()].get(&o) {
            acc.union_in_place(set);
        }
        if let Some(i) = self.interf[self.icfg.func_of(n).index()].get(&o) {
            acc.union_in_place(i);
        }
    }

    /// Merges `out` into the IN map of `succ`.
    fn flow_into(&mut self, out: &HashMap<MemId, PtsSet>, succ: NodeId) {
        let mut changed = false;
        for (&o, set) in out {
            changed |= self.in_maps[succ.index()]
                .entry(o)
                .or_default()
                .union_in_place(set);
        }
        if changed {
            self.push(succ);
        }
    }

    fn process(&mut self, n: NodeId) {
        let module = self.module;
        let pre = self.pre;
        let icfg = self.icfg;
        // OUT starts as a copy of IN (the costly part of NonSparse: points-to
        // maps are materialized and copied at every program point).
        let mut out = self.in_maps[n.index()].clone();

        if let NodeKind::Stmt(sid) = icfg.kind(n) {
            let stmt = module.stmt(sid);
            match &stmt.kind {
                StmtKind::Addr { dst, obj } => {
                    let m = pre.objects().base(*obj);
                    self.insert_var(*dst, m);
                }
                StmtKind::Copy { dst, src } => {
                    self.copy_var(*dst, *src);
                }
                StmtKind::Phi { dst, arms } => {
                    for arm in arms {
                        self.copy_var(*dst, arm.var);
                    }
                }
                StmtKind::Gep { dst, base, field } => {
                    let mut fields = PtsSet::new();
                    for o in self.pt_vars[base.index()].iter() {
                        fields.insert(pre.objects().field_existing(o, *field));
                    }
                    self.grow_var(*dst, &fields);
                }
                StmtKind::Load { dst, ptr } => {
                    let mut vals = PtsSet::new();
                    for o in self.pt_vars[ptr.index()].iter() {
                        self.read_mem_into(n, o, &mut vals);
                    }
                    self.grow_var(*dst, &vals);
                }
                StmtKind::Store { ptr, val } => {
                    let func = stmt.func;
                    // Strong update only for singleton objects in functions
                    // with no concurrent peer (the baseline has no
                    // statement-level thread ordering).
                    let sequential = !self.conc_funcs.contains_key(&func);
                    let strong = sequential
                        && self.pt_vars[ptr.index()]
                            .as_singleton()
                            .is_some_and(|o| pre.objects().is_singleton(o));
                    for o in self.pt_vars[ptr.index()].iter() {
                        if strong {
                            out.insert(o, self.pt_vars[val.index()].clone());
                        } else {
                            out.entry(o)
                                .or_default()
                                .union_in_place(&self.pt_vars[val.index()]);
                        }
                        // Broadcast the generated fact into every concurrent
                        // procedure: blind propagation — every load of the
                        // parallel region must reconsider.
                        if let Some(targets) = self.conc_funcs.get(&func) {
                            for &q in targets {
                                let grew = self.interf[q.index()]
                                    .entry(o)
                                    .or_default()
                                    .union_in_place(&self.pt_vars[val.index()]);
                                if grew {
                                    for &ld in &self.load_nodes[q.index()] {
                                        let i = ld.index();
                                        if !std::mem::replace(&mut self.queued[i], true) {
                                            self.queue.push(Reverse((self.prio[i], i as u32)));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                StmtKind::Call { args, dst, .. } => {
                    for callee in pre.call_graph().targets(sid) {
                        let f = module.func(callee);
                        for (&a, &p) in args.iter().zip(f.params.iter()) {
                            self.copy_var(p, a);
                        }
                        if let Some(d) = dst {
                            if !f.is_external {
                                for (_, b) in f.blocks() {
                                    if let Terminator::Ret(Some(r)) = b.term {
                                        self.copy_var(*d, r);
                                    }
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
                    self.insert_var(*dst, m);
                    for callee in pre.call_graph().targets(sid) {
                        if let (Some(&a), Some(&p)) =
                            (arg.as_ref(), module.func(callee).params.first())
                        {
                            self.copy_var(p, a);
                        }
                        // The spawnee starts from the spawner's memory state.
                        self.flow_into(&out, icfg.entry(callee));
                    }
                }
                // Sync intrinsics don't touch pointer memory; atomic dsts
                // have empty points-to by IR contract (DESIGN §1.9).
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

        // Propagate OUT to all ICFG successors (blind propagation).
        for &(s, _) in icfg.succs(n) {
            self.flow_into(&out, s);
        }
        // Join side-effect edges.
        for i in 0..self.join_edges.len() {
            let (from, to) = self.join_edges[i];
            if from == n {
                self.flow_into(&out, to);
            }
        }
    }

    fn run(mut self, budget: Option<Duration>) -> NonSparseOutcome {
        let start = Instant::now();
        for n in self.icfg.node_ids() {
            self.push(n);
        }
        while let Some(Reverse((_, id))) = self.queue.pop() {
            let n = NodeId::from_index(id as usize);
            self.queued[n.index()] = false;
            self.stats.processed += 1;
            if self.stats.processed == 1 || self.stats.processed.is_multiple_of(256) {
                if let Some(b) = budget {
                    if start.elapsed() > b {
                        let bytes = bytes_of(&self.pt_vars, &self.in_maps);
                        return NonSparseOutcome::OutOfTime {
                            elapsed: start.elapsed(),
                            stats: self.stats,
                            bytes,
                        };
                    }
                }
            }
            self.process(n);
        }
        self.stats.pts_entries = self.pt_vars.iter().map(PtsSet::len).sum::<usize>()
            + self
                .in_maps
                .iter()
                .map(|m| m.values().map(PtsSet::len).sum::<usize>())
                .sum::<usize>();
        NonSparseOutcome::Done(NonSparseResult {
            pt_vars: self.pt_vars,
            in_maps: self.in_maps,
            stats: self.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Fsam;
    use fsam_ir::parse::parse_module;

    fn analyze(src: &str) -> (Module, Fsam, NonSparseResult) {
        let m = parse_module(src).unwrap();
        let fsam = Fsam::analyze(&m);
        let outcome = run(&m, &fsam.pre, &fsam.icfg, &fsam.tm, None);
        let NonSparseOutcome::Done(res) = outcome else {
            panic!("baseline did not finish")
        };
        (m, fsam, res)
    }

    const SHARED: &str = r#"
        global x
        global y
        global z
        func foo() {
        entry:
          p2 = &x
          q = &y
          store p2, q
          ret
        }
        func main() {
        entry:
          p = &x
          r = &z
          t = fork foo()
          store p, r
          c = load p
          join t
          ret
        }
    "#;

    #[test]
    fn baseline_is_sound_wrt_interleaving() {
        let (m, fsam, res) = analyze(SHARED);
        let c = Fsam::var_named(&m, "main", "c");
        // Figure 1(a): pt(c) must contain both y and z.
        let names: Vec<String> = res
            .pt_var(c)
            .iter()
            .map(|o| fsam.pre.objects().display_name(&m, o))
            .collect();
        assert!(names.contains(&"y".to_owned()), "{names:?}");
        assert!(names.contains(&"z".to_owned()), "{names:?}");
    }

    #[test]
    fn both_flow_sensitive_analyses_refine_andersen() {
        let (m, fsam, res) = analyze(SHARED);
        for v in m.var_ids() {
            assert!(
                fsam.result.pt_var(v).is_subset(fsam.pre.pt_var(v)),
                "FSAM ⊄ Andersen on {}",
                m.var_name(v)
            );
            assert!(
                res.pt_var(v).is_subset(fsam.pre.pt_var(v)),
                "NonSparse ⊄ Andersen on {}",
                m.var_name(v)
            );
        }
    }

    #[test]
    fn fsam_refines_baseline_on_sequential_programs() {
        let (m, fsam, res) = analyze(
            r#"
            global a
            global b
            global c
            func helper(p) {
            entry:
              v = load p
              store p, v
              ret v
            }
            func main() {
            entry:
              pa = &a
              pb = &b
              pc = &c
              store pa, pb
              store pa, pc
              h = call helper(pa)
              d = load pa
              ret
            }
        "#,
        );
        assert!(fsam.tm.is_empty(), "sequential program");
        for v in m.var_ids() {
            assert!(
                fsam.result.pt_var(v).is_subset(res.pt_var(v)),
                "sequential FSAM ⊄ NonSparse on {}: {:?} vs {:?}",
                m.var_name(v),
                fsam.result.pt_var(v),
                res.pt_var(v)
            );
        }
    }

    #[test]
    fn baseline_carries_state_at_every_point() {
        let (_, fsam, res) = analyze(SHARED);
        // NonSparse materializes maps at many program points; FSAM keeps
        // points-to only at definitions.
        assert!(res.stats.pts_entries > 0);
        assert!(
            res.stats.pts_entries >= fsam.result.stats.var_pts_entries,
            "baseline holds no more points-to entries than the sparse solver"
        );
    }

    #[test]
    fn budget_aborts() {
        let m = parse_module(SHARED).unwrap();
        let fsam = Fsam::analyze(&m);
        let outcome = run(&m, &fsam.pre, &fsam.icfg, &fsam.tm, Some(Duration::ZERO));
        assert!(matches!(outcome, NonSparseOutcome::OutOfTime { .. }));
    }

    #[test]
    fn sequential_strong_update_matches_fsam() {
        let (m, fsam, res) = analyze(
            r#"
            global x
            global y
            global z
            func main() {
            entry:
              p = &x
              r = &z
              q = &y
              store p, r
              store p, q
              c = load p
              ret
            }
        "#,
        );
        let c = Fsam::var_named(&m, "main", "c");
        let names: Vec<String> = res
            .pt_var(c)
            .iter()
            .map(|o| fsam.pre.objects().display_name(&m, o))
            .collect();
        assert_eq!(
            names,
            vec!["y"],
            "sequential program: baseline strong-updates too"
        );
    }
}
