//! The sparse value-flow graph (SVFG): memory SSA renaming and def-use
//! chains.
//!
//! Following §2.2 (Figure 4) and §3.2 (Figure 6) of the paper:
//!
//! * address-taken objects are renamed into SSA with memory phis placed on
//!   iterated dominance frontiers;
//! * loads use the reaching definition of every object in their `mu` set,
//!   stores define (and weakly use) every object in their `chi` set;
//! * call sites thread definitions into callees (`FormalIn`) and back out
//!   (`FormalOut` → `ActualOut`), with the incoming version merged weakly at
//!   the `ActualOut` so side effects never kill the caller's state;
//! * **fork sites are call sites of the start routine** whose `ActualOut` is
//!   always weak — this simultaneously realizes steps 1 and 2 of §3.2 (the
//!   `Pseq` call and the fork-bypass edges of Figure 6(c));
//! * **join sites** get an `ActualOut` fed by the joined routine's
//!   `FormalOut`, realizing step 3 (the join side-effect edges of
//!   Figure 6(d)).
//!
//! Thread-*aware* edges (§3.3) are appended later by the pipeline through
//! [`Svfg::insert_thread_edges_grouped`], which materializes the
//! interference classes the value-flow phase emits.

use std::collections::{BTreeMap, HashMap, HashSet};

use fsam_andersen::PreAnalysis;
use fsam_ir::dom::DomTree;
use fsam_ir::{BlockId, FuncId, Module, StmtId, StmtKind, Terminator, VarId};
use fsam_pts::MemId;
use fsam_threads::valueflow::ThreadGroup;
use fsam_threads::ThreadModel;

use crate::annotate::Annotations;
use crate::modref::ModRef;

/// Identifies an SVFG node.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw dense index (the inverse of
    /// [`NodeId::index`]; only indices below the owning graph's
    /// [`Svfg::node_count`] are meaningful).
    pub fn from_index(i: usize) -> NodeId {
        NodeId(u32::try_from(i).expect("SVFG node index overflows u32"))
    }
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// What an SVFG node represents.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A statement (loads use, stores define).
    Stmt(StmtId),
    /// A memory phi for `obj` at the head of a block.
    MemPhi {
        /// Owning function.
        func: FuncId,
        /// Block whose head carries the phi.
        block: BlockId,
        /// The object being merged.
        obj: MemId,
    },
    /// The version of `obj` entering `func`.
    FormalIn {
        /// The callee.
        func: FuncId,
        /// The object.
        obj: MemId,
    },
    /// The version of `obj` leaving `func` (merged over all returns).
    FormalOut {
        /// The callee.
        func: FuncId,
        /// The object.
        obj: MemId,
    },
    /// The version of `obj` after a call/fork/join site.
    ActualOut {
        /// The call, fork or join statement.
        site: StmtId,
        /// The object.
        obj: MemId,
    },
    /// A merge point for thread-aware value flows on `obj`: interference
    /// classes above the fan-in threshold are routed through it (k+m edges
    /// instead of k×m). There is one junction per object, so all such
    /// classes on `obj` share it — see [`Svfg::add_thread_group`].
    ThreadJunction {
        /// The object flowing through the junction.
        obj: MemId,
    },
}

/// Construction statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SvfgStats {
    /// Total nodes.
    pub nodes: usize,
    /// Total indirect (memory) def-use edges.
    pub edges: usize,
    /// Memory phis placed.
    pub mem_phis: usize,
    /// Thread-aware edges appended by the interference phases.
    pub thread_edges: usize,
}

/// Outcome of one [`Svfg::insert_thread_edges_grouped`] call: how the
/// requested store×access products were materialized. The tracing layer
/// exports these as per-phase counters (`svfg.thread_classes`,
/// `svfg.thread_junctions`, `svfg.thread_edges_added`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadEdgeInsertion {
    /// Complete-bipartite interference classes formed (one junction or
    /// direct product each).
    pub classes: usize,
    /// Junction nodes created for classes above the fan-in threshold.
    pub junctions: usize,
    /// Graph edges actually appended (after deduplication).
    pub edges_added: usize,
}

/// The sparse value-flow graph.
///
/// `Clone` supports the staged pipeline: the thread-*oblivious* graph is
/// built once per module and cloned per configuration before the
/// configuration-specific thread-aware edges are appended.
#[derive(Clone, Debug)]
pub struct Svfg {
    nodes: Vec<NodeKind>,
    index: HashMap<NodeKind, NodeId>,
    succs: Vec<Vec<(NodeId, MemId)>>,
    preds: Vec<Vec<(NodeId, MemId)>>,
    var_def: Vec<Option<StmtId>>,
    var_uses: Vec<Vec<StmtId>>,
    ann: Annotations,
    modref: ModRef,
    /// Edges appended by the thread-interference phases, so consumers
    /// (the trace-backed explain walk) can distinguish an intra-thread
    /// def-use step from a cross-thread one.
    thread_marks: HashSet<(NodeId, NodeId)>,
    /// Construction statistics.
    pub stats: SvfgStats,
}

impl Svfg {
    /// Builds the thread-oblivious SVFG (§3.2) for `module`.
    pub fn build(module: &Module, pre: &PreAnalysis, tm: &ThreadModel) -> Svfg {
        let modref = ModRef::compute(module, pre, tm);
        let ann = Annotations::compute(module, pre, tm, &modref);

        // Direct (top-level) def-use maps.
        let mut var_def = vec![None; module.var_count()];
        let mut var_uses: Vec<Vec<StmtId>> = vec![Vec::new(); module.var_count()];
        let mut use_buf = Vec::new();
        for (sid, stmt) in module.stmts() {
            if let Some(d) = stmt.def() {
                var_def[d.index()] = Some(sid);
            }
            use_buf.clear();
            stmt.uses_into(&mut use_buf);
            for &u in &use_buf {
                var_uses[u.index()].push(sid);
            }
        }

        let mut svfg = Svfg {
            nodes: Vec::new(),
            index: HashMap::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            var_def,
            var_uses,
            ann,
            modref,
            thread_marks: HashSet::new(),
            stats: SvfgStats::default(),
        };

        for func in module.funcs() {
            if !func.is_external {
                svfg.rename_function(module, pre, tm, func.id);
            }
        }

        svfg.stats.nodes = svfg.nodes.len();
        svfg.stats.edges = svfg.succs.iter().map(Vec::len).sum();
        svfg
    }

    // ---- queries ----------------------------------------------------------

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The kind of a node.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.index()]
    }

    /// Indirect def-use successors of `n`, with the flowing object.
    pub fn succs(&self, n: NodeId) -> &[(NodeId, MemId)] {
        &self.succs[n.index()]
    }

    /// Indirect def-use predecessors of `n`.
    pub fn preds(&self, n: NodeId) -> &[(NodeId, MemId)] {
        &self.preds[n.index()]
    }

    /// The node of a statement, if it participates in memory flow.
    pub fn stmt_node(&self, s: StmtId) -> Option<NodeId> {
        self.index.get(&NodeKind::Stmt(s)).copied()
    }

    /// Looks up a node by kind.
    pub fn lookup(&self, kind: NodeKind) -> Option<NodeId> {
        self.index.get(&kind).copied()
    }

    /// The defining statement of a top-level variable (None for parameters).
    pub fn var_def(&self, v: VarId) -> Option<StmtId> {
        self.var_def[v.index()]
    }

    /// The statements using a top-level variable.
    pub fn var_uses(&self, v: VarId) -> &[StmtId] {
        &self.var_uses[v.index()]
    }

    /// The mu/chi annotations the graph was built from.
    pub fn annotations(&self) -> &Annotations {
        &self.ann
    }

    /// The mod/ref summaries the graph was built from.
    pub fn modref(&self) -> &ModRef {
        &self.modref
    }

    /// Whether a def-use path for `obj` exists from statement `from` to
    /// statement `to` (following `obj`-labeled edges through intermediate
    /// nodes). Used by tests and the interference analyses.
    pub fn reaches(&self, from: StmtId, to: StmtId, obj: MemId) -> bool {
        let (Some(from), Some(to)) = (self.stmt_node(from), self.stmt_node(to)) else {
            return false;
        };
        let mut seen = vec![false; self.nodes.len()];
        let mut work = vec![from];
        seen[from.index()] = true;
        while let Some(n) = work.pop() {
            for &(succ, o) in self.succs(n) {
                if o != obj || seen[succ.index()] {
                    continue;
                }
                if succ == to {
                    return true;
                }
                // All nodes pass the chain along: intermediate nodes merge,
                // and stores keep weakly-merged values alive.
                seen[succ.index()] = true;
                work.push(succ);
            }
        }
        false
    }

    /// Appends the thread-aware def-use flows produced by the interference
    /// phases (§3.3): one [`Svfg::add_thread_group`] per class, in the
    /// given order (which fixes the node ids).
    pub fn insert_thread_edges_grouped(&mut self, groups: &[ThreadGroup]) -> ThreadEdgeInsertion {
        let mut total = ThreadEdgeInsertion::default();
        for g in groups {
            let one = self.add_thread_group(&g.stores, &g.accesses, g.obj);
            total.classes += one.classes;
            total.junctions += one.junctions;
            total.edges_added += one.edges_added;
        }
        total
    }

    /// Appends a group of thread-aware def-use flows for one object: every
    /// store interferes with every access. Uses direct edges for small
    /// groups and a [`NodeKind::ThreadJunction`] above the fan-in threshold.
    ///
    /// The junction is interned per object: all large groups on `obj` share
    /// it, so their stores also reach each other's accesses — a sound
    /// over-approximation kept because a junction per group costs x264 26 %
    /// more solver items for the same full-configuration fixpoint
    /// (EXPERIMENTS.md, "Shared thread junctions").
    pub fn add_thread_group(
        &mut self,
        stores: &[StmtId],
        accesses: &[StmtId],
        obj: MemId,
    ) -> ThreadEdgeInsertion {
        const DIRECT_LIMIT: usize = 64;
        let mut outcome = ThreadEdgeInsertion {
            classes: 1,
            ..ThreadEdgeInsertion::default()
        };
        if stores.len() * accesses.len() <= DIRECT_LIMIT {
            for &s in stores {
                for &a in accesses {
                    if s != a && self.add_thread_edge(s, a, obj) {
                        outcome.edges_added += 1;
                    }
                }
            }
            return outcome;
        }
        let nodes_before = self.nodes.len();
        let junction = self.node(NodeKind::ThreadJunction { obj });
        outcome.junctions = self.nodes.len() - nodes_before;
        for &s in stores {
            let n = self.node(NodeKind::Stmt(s));
            self.add_edge(n, junction, obj);
            self.thread_marks.insert((n, junction));
            outcome.edges_added += 1;
        }
        for &a in accesses {
            let n = self.node(NodeKind::Stmt(a));
            self.add_edge(junction, n, obj);
            self.thread_marks.insert((junction, n));
            outcome.edges_added += 1;
        }
        self.stats.thread_edges += stores.len() + accesses.len();
        self.stats.edges += stores.len() + accesses.len();
        outcome
    }

    /// Appends a thread-aware def-use edge (§3.3): a store interfering with
    /// a load or store in a parallel thread. Returns `true` if the edge is
    /// new.
    pub fn add_thread_edge(&mut self, from: StmtId, to: StmtId, obj: MemId) -> bool {
        let f = self.node(NodeKind::Stmt(from));
        let t = self.node(NodeKind::Stmt(to));
        if self.succs[f.index()]
            .iter()
            .any(|&(n, o)| n == t && o == obj)
        {
            return false;
        }
        self.add_edge(f, t, obj);
        self.thread_marks.insert((f, t));
        self.stats.thread_edges += 1;
        self.stats.edges += 1;
        true
    }

    /// Whether the `from → to` edge was appended by the thread
    /// interference phases (as opposed to intra-thread memory SSA
    /// def-use). Junction-routed flows mark both the store→junction and
    /// junction→access halves.
    pub fn is_thread_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.thread_marks.contains(&(from, to))
    }

    // ---- construction -----------------------------------------------------

    fn node(&mut self, kind: NodeKind) -> NodeId {
        if let Some(&id) = self.index.get(&kind) {
            return id;
        }
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many SVFG nodes"));
        self.nodes.push(kind);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        self.index.insert(kind, id);
        id
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId, obj: MemId) {
        if self.succs[from.index()]
            .iter()
            .any(|&(n, o)| n == to && o == obj)
        {
            return;
        }
        self.succs[from.index()].push((to, obj));
        self.preds[to.index()].push((from, obj));
    }

    fn rename_function(
        &mut self,
        module: &Module,
        pre: &PreAnalysis,
        tm: &ThreadModel,
        func: FuncId,
    ) {
        let f = module.func(func);
        let dom = DomTree::compute(f);
        let domain = self.modref.domain(func);
        if domain.is_empty() {
            return;
        }
        let cg = pre.call_graph();

        // Definition blocks per object (entry counts as a def via FormalIn).
        // BTreeMap: phi placement below allocates NodeIds in iteration
        // order, and node numbering must be deterministic (results are
        // compared bit-for-bit across drivers).
        let mut def_blocks: BTreeMap<MemId, Vec<BlockId>> = BTreeMap::new();
        for o in domain.iter() {
            def_blocks.insert(o, vec![BlockId::ENTRY]);
        }
        for (bid, block) in f.blocks() {
            for &sid in &block.stmts {
                for o in self.ann.chi(sid).iter() {
                    def_blocks.entry(o).or_default().push(bid);
                }
            }
        }

        // Place memory phis.
        let mut phis_at: HashMap<BlockId, Vec<(MemId, NodeId)>> = HashMap::new();
        for (&o, blocks) in &def_blocks {
            for b in dom.iterated_frontier(blocks) {
                let n = self.node(NodeKind::MemPhi {
                    func,
                    block: b,
                    obj: o,
                });
                phis_at.entry(b).or_default().push((o, n));
                self.stats.mem_phis += 1;
            }
        }

        // Dominator-tree children.
        let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); f.blocks.len()];
        for (bid, _) in f.blocks() {
            if let Some(idom) = dom.idom(bid) {
                children[idom.index()].push(bid);
            }
        }

        // Current version per object, with rollback on dom-tree unwinding.
        let mut cur: HashMap<MemId, NodeId> = HashMap::new();
        for o in domain.iter() {
            let n = self.node(NodeKind::FormalIn { func, obj: o });
            cur.insert(o, n);
        }

        enum Walk {
            Enter(BlockId),
            Leave(Vec<(MemId, NodeId)>),
        }
        let mut stack = vec![Walk::Enter(BlockId::ENTRY)];
        while let Some(step) = stack.pop() {
            match step {
                Walk::Leave(saved) => {
                    // Restore in reverse: a block that redefined the same
                    // object twice saved (original, intermediate) in that
                    // order, and the original must win.
                    for (o, n) in saved.into_iter().rev() {
                        cur.insert(o, n);
                    }
                }
                Walk::Enter(bid) => {
                    let mut saved: Vec<(MemId, NodeId)> = Vec::new();
                    let set_cur = |cur: &mut HashMap<MemId, NodeId>,
                                   saved: &mut Vec<(MemId, NodeId)>,
                                   o: MemId,
                                   n: NodeId| {
                        if let Some(old) = cur.insert(o, n) {
                            saved.push((o, old));
                        }
                    };

                    // Phis at block head define.
                    if let Some(phis) = phis_at.get(&bid) {
                        for &(o, n) in &phis.clone() {
                            set_cur(&mut cur, &mut saved, o, n);
                        }
                    }

                    let block = &module.func(func).blocks[bid];
                    for &sid in &block.stmts.clone() {
                        match &module.stmt(sid).kind {
                            StmtKind::Load { .. } => {
                                let snode = self.node(NodeKind::Stmt(sid));
                                for o in self.ann.mu(sid).clone().iter() {
                                    if let Some(&d) = cur.get(&o) {
                                        self.add_edge(d, snode, o);
                                    }
                                }
                            }
                            StmtKind::Store { .. } => {
                                let snode = self.node(NodeKind::Stmt(sid));
                                for o in self.ann.chi(sid).clone().iter() {
                                    if let Some(&d) = cur.get(&o) {
                                        self.add_edge(d, snode, o);
                                    }
                                    set_cur(&mut cur, &mut saved, o, snode);
                                }
                            }
                            StmtKind::Call { .. } | StmtKind::Fork { .. } => {
                                let callees: Vec<FuncId> = cg
                                    .targets(sid)
                                    .filter(|&c| !module.func(c).is_external)
                                    .collect();
                                // Flow current versions into each callee.
                                for &callee in &callees {
                                    for o in self.modref.domain(callee).iter() {
                                        if let Some(&d) = cur.get(&o) {
                                            let fin = self.node(NodeKind::FormalIn {
                                                func: callee,
                                                obj: o,
                                            });
                                            self.add_edge(d, fin, o);
                                        }
                                    }
                                }
                                // ActualOut per modified object (always weak:
                                // the incoming version merges in — for forks
                                // this is exactly the bypass of Fig. 6(c)).
                                for o in self.ann.chi(sid).clone().iter() {
                                    let ao = self.node(NodeKind::ActualOut { site: sid, obj: o });
                                    if let Some(&d) = cur.get(&o) {
                                        self.add_edge(d, ao, o);
                                    }
                                    for &callee in &callees {
                                        if self.modref.mods(callee).contains(o) {
                                            let fout = self.node(NodeKind::FormalOut {
                                                func: callee,
                                                obj: o,
                                            });
                                            self.add_edge(fout, ao, o);
                                        }
                                    }
                                    set_cur(&mut cur, &mut saved, o, ao);
                                }
                            }
                            StmtKind::Join { .. } => {
                                // Side effects of the joined routine become
                                // visible here (Fig. 6(d)). The incoming
                                // version is merged *weakly* only when some
                                // definition intervened between the fork and
                                // this join; otherwise the joined routine's
                                // FormalOut already subsumes it (its
                                // FormalIn passthrough), and keeping the
                                // fork-bypass value would defeat the strong
                                // updates the paper's Figure 1(c) relies on.
                                let entries = tm.joins_at(sid).to_vec();
                                let routines: Vec<FuncId> =
                                    entries.iter().map(|e| tm.info(e.thread).routine).collect();
                                for o in self.ann.chi(sid).clone().iter() {
                                    let ao = self.node(NodeKind::ActualOut { site: sid, obj: o });
                                    let cur_is_fork_out = !entries.is_empty()
                                        && entries.iter().all(|e| {
                                            tm.info(e.thread)
                                                .fork_site
                                                .and_then(|fk| {
                                                    self.lookup(NodeKind::ActualOut {
                                                        site: fk,
                                                        obj: o,
                                                    })
                                                })
                                                .is_some_and(|fork_ao| {
                                                    cur.get(&o) == Some(&fork_ao)
                                                })
                                        });
                                    if !cur_is_fork_out {
                                        if let Some(&d) = cur.get(&o) {
                                            self.add_edge(d, ao, o);
                                        }
                                    }
                                    for &r in &routines {
                                        if self.modref.mods(r).contains(o) {
                                            let fout =
                                                self.node(NodeKind::FormalOut { func: r, obj: o });
                                            self.add_edge(fout, ao, o);
                                        }
                                    }
                                    set_cur(&mut cur, &mut saved, o, ao);
                                }
                            }
                            _ => {}
                        }
                    }

                    // Returns feed FormalOut.
                    if matches!(block.term, Terminator::Ret(_)) {
                        for o in domain.iter() {
                            if let Some(&d) = cur.get(&o) {
                                let fout = self.node(NodeKind::FormalOut { func, obj: o });
                                self.add_edge(d, fout, o);
                            }
                        }
                    }

                    // Feed successor phis.
                    for succ in block.term.successors() {
                        if let Some(phis) = phis_at.get(&succ) {
                            for &(o, n) in &phis.clone() {
                                if let Some(&d) = cur.get(&o) {
                                    if d != n {
                                        self.add_edge(d, n, o);
                                    }
                                }
                            }
                        }
                    }

                    // Recurse into dominator children.
                    stack.push(Walk::Leave(saved));
                    for &c in children[bid.index()].iter().rev() {
                        stack.push(Walk::Enter(c));
                    }
                }
            }
        }
    }
}

/// A convenience bundle: everything the sparse solver needs about a module's
/// def-use structure.
#[derive(Debug)]
pub struct MemorySsa {
    /// The value-flow graph.
    pub svfg: Svfg,
}

impl MemorySsa {
    /// Builds memory SSA + SVFG in one step.
    pub fn build(module: &Module, pre: &PreAnalysis, tm: &ThreadModel) -> MemorySsa {
        MemorySsa {
            svfg: Svfg::build(module, pre, tm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsam_ir::icfg::Icfg;
    use fsam_ir::parse::parse_module;

    fn build(src: &str) -> (Module, PreAnalysis, Svfg) {
        let m = parse_module(src).unwrap();
        fsam_ir::verify::verify_module(&m).unwrap();
        let pre = PreAnalysis::run(&m);
        let icfg = Icfg::build(&m, pre.call_graph());
        let tm = ThreadModel::build(&m, &pre, &icfg);
        let svfg = Svfg::build(&m, &pre, &tm);
        (m, pre, svfg)
    }

    fn stmt_where(m: &Module, f: &str, pred: impl Fn(&StmtKind) -> bool, skip: usize) -> StmtId {
        let fid = m.func_by_name(f).unwrap();
        m.stmts()
            .filter(|(_, s)| s.func == fid && pred(&s.kind))
            .nth(skip)
            .unwrap_or_else(|| panic!("no matching stmt in {f}"))
            .0
    }

    #[test]
    fn straight_line_store_load_chain() {
        let (m, pre, svfg) = build(
            r#"
            global g
            global v
            func main() {
            entry:
              p = &g
              q = &v
              store p, q     // s1: g = &v
              c = load p     // s2: c = g
              ret
            }
        "#,
        );
        let g = pre.objects().base(m.global_by_name("g").unwrap());
        let s1 = stmt_where(&m, "main", |k| matches!(k, StmtKind::Store { .. }), 0);
        let s2 = stmt_where(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 0);
        assert!(svfg.reaches(s1, s2, g));
    }

    #[test]
    fn second_store_intercepts() {
        let (m, pre, svfg) = build(
            r#"
            global g
            func main() {
            entry:
              p = &g
              store p, p   // s1
              store p, p   // s2
              c = load p   // s3
              ret
            }
        "#,
        );
        let g = pre.objects().base(m.global_by_name("g").unwrap());
        let s1 = stmt_where(&m, "main", |k| matches!(k, StmtKind::Store { .. }), 0);
        let s2 = stmt_where(&m, "main", |k| matches!(k, StmtKind::Store { .. }), 1);
        let s3 = stmt_where(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 0);
        // Chain goes s1 -> s2 -> s3; there is no direct s1 -> s3 edge.
        let n1 = svfg.stmt_node(s1).unwrap();
        let n3 = svfg.stmt_node(s3).unwrap();
        assert!(!svfg.succs(n1).iter().any(|&(n, _)| n == n3));
        assert!(svfg.reaches(s1, s2, g));
        assert!(svfg.reaches(s2, s3, g));
    }

    #[test]
    fn memphi_at_merge() {
        let (m, pre, svfg) = build(
            r#"
            global g
            func main() {
            entry:
              p = &g
              br ?, l, r
            l:
              store p, p    // def in left
              br merge
            r:
              store p, p    // def in right
              br merge
            merge:
              c = load p
              ret
            }
        "#,
        );
        let g = pre.objects().base(m.global_by_name("g").unwrap());
        assert!(svfg.stats.mem_phis >= 1);
        let s_l = stmt_where(&m, "main", |k| matches!(k, StmtKind::Store { .. }), 0);
        let s_r = stmt_where(&m, "main", |k| matches!(k, StmtKind::Store { .. }), 1);
        let load = stmt_where(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 0);
        assert!(svfg.reaches(s_l, load, g));
        assert!(svfg.reaches(s_r, load, g));
    }

    #[test]
    fn call_threading_through_callee() {
        let (m, pre, svfg) = build(
            r#"
            global g
            func reader() {
            entry:
              q = &g
              c = load q     // uses main's store through FormalIn
              ret
            }
            func main() {
            entry:
              p = &g
              store p, p     // s1
              call reader()
              c2 = load p    // s2: sees s1 (weak ActualOut merge)
              ret
            }
        "#,
        );
        let g = pre.objects().base(m.global_by_name("g").unwrap());
        let s1 = stmt_where(&m, "main", |k| matches!(k, StmtKind::Store { .. }), 0);
        let callee_load = stmt_where(&m, "reader", |k| matches!(k, StmtKind::Load { .. }), 0);
        let s2 = stmt_where(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 0);
        assert!(svfg.reaches(s1, callee_load, g), "def flows into callee");
        assert!(svfg.reaches(s1, s2, g), "def survives the (read-only) call");
    }

    #[test]
    fn callee_store_flows_back() {
        let (m, pre, svfg) = build(
            r#"
            global g
            func writer() {
            entry:
              q = &g
              store q, q    // sw
              ret
            }
            func main() {
            entry:
              p = &g
              call writer()
              c = load p    // sees sw through FormalOut -> ActualOut
              ret
            }
        "#,
        );
        let g = pre.objects().base(m.global_by_name("g").unwrap());
        let sw = stmt_where(&m, "writer", |k| matches!(k, StmtKind::Store { .. }), 0);
        let load = stmt_where(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 0);
        assert!(svfg.reaches(sw, load, g));
    }

    /// Paper Figure 6: thread-oblivious def-use over Pseq with fork bypass
    /// and join side-effect edges.
    #[test]
    fn figure6_thread_oblivious_edges() {
        let (m, pre, svfg) = build(
            r#"
            global o
            func foo() {
            entry:
              q = &o
              store q, q      // s4: *q = ...
              c5 = load q     // s5: ... = *q
              ret
            }
            func main() {
            entry:
              p = &o
              store p, p      // s1: *p = ...
              t = fork foo()
              store p, p      // s2: *p = ...
              join t          // jn1
              c3 = load p     // s3: ... = *p
              ret
            }
        "#,
        );
        let o = pre.objects().base(m.global_by_name("o").unwrap());
        let s1 = stmt_where(&m, "main", |k| matches!(k, StmtKind::Store { .. }), 0);
        let s2 = stmt_where(&m, "main", |k| matches!(k, StmtKind::Store { .. }), 1);
        let s3 = stmt_where(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 0);
        let s4 = stmt_where(&m, "foo", |k| matches!(k, StmtKind::Store { .. }), 0);
        let s5 = stmt_where(&m, "foo", |k| matches!(k, StmtKind::Load { .. }), 0);

        // Fig 6(b): Pseq def-use.
        assert!(svfg.reaches(s1, s4, o), "s1 -> s4 (into forked routine)");
        assert!(svfg.reaches(s4, s5, o), "s4 -> s5 (inside foo)");
        assert!(svfg.reaches(s2, s3, o), "s2 -> s3");
        // Fig 6(c): fork bypass — s1 reaches s2 even though foo stores o.
        assert!(svfg.reaches(s1, s2, o), "fork-related bypass edge");
        // Fig 6(d): join side effect — s4 reaches s3.
        assert!(svfg.reaches(s4, s3, o), "join-related def-use edge");
    }

    /// Regression: a block that redefines the same object twice must not
    /// leak its first definition into a sibling branch (the dominator-walk
    /// rollback must restore the original version, not the intermediate).
    #[test]
    fn double_redefinition_does_not_leak_to_sibling() {
        let (m, pre, svfg) = build(
            r#"
            global g
            func main() {
            entry:
              p = &g
              br ?, l, r
            l:
              store p, p   // first def in l
              store p, p   // second def in l
              br merge
            r:
              c = load p   // must NOT see l's defs
              br merge
            merge:
              ret
            }
        "#,
        );
        let g = pre.objects().base(m.global_by_name("g").unwrap());
        let s_l1 = stmt_where(&m, "main", |k| matches!(k, StmtKind::Store { .. }), 0);
        let s_l2 = stmt_where(&m, "main", |k| matches!(k, StmtKind::Store { .. }), 1);
        let load_r = stmt_where(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 0);
        assert!(
            !svfg.reaches(s_l1, load_r, g),
            "sibling-arm leak (first def)"
        );
        assert!(
            !svfg.reaches(s_l2, load_r, g),
            "sibling-arm leak (second def)"
        );
    }

    #[test]
    fn thread_edges_can_be_added() {
        let (m, pre, mut svfg) = build(
            r#"
            global g
            func worker() {
            entry:
              q = &g
              store q, q   // sw
              ret
            }
            func main() {
            entry:
              p = &g
              t = fork worker()
              c = load p   // sl
              ret
            }
        "#,
        );
        let g = pre.objects().base(m.global_by_name("g").unwrap());
        let sw = stmt_where(&m, "worker", |k| matches!(k, StmtKind::Store { .. }), 0);
        let sl = stmt_where(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 0);
        let before = svfg.stats.edges;
        assert!(svfg.add_thread_edge(sw, sl, g));
        assert!(!svfg.add_thread_edge(sw, sl, g), "deduplicated");
        assert_eq!(svfg.stats.edges, before + 1);
        assert_eq!(svfg.stats.thread_edges, 1);
        assert!(svfg.reaches(sw, sl, g));
        let (nw, nl) = (svfg.stmt_node(sw).unwrap(), svfg.stmt_node(sl).unwrap());
        assert!(svfg.is_thread_edge(nw, nl));
        assert!(!svfg.is_thread_edge(nl, nw), "marks are directed");
    }

    fn group(obj: MemId, stores: &[StmtId], accesses: &[StmtId]) -> ThreadGroup {
        ThreadGroup {
            obj,
            stores: stores.to_vec(),
            accesses: accesses.to_vec(),
        }
    }

    /// The worker/main skeleton used by the grouped-insertion tests: one
    /// shared global plus enough store/load statements to form products.
    fn interference_world() -> (Module, PreAnalysis, Svfg, MemId) {
        let (m, pre, svfg) = build(
            r#"
            global g
            func worker() {
            entry:
              q = &g
              store q, q   // sw0
              store q, q   // sw1
              ret
            }
            func main() {
            entry:
              p = &g
              t = fork worker()
              c0 = load p  // sl0
              c1 = load p  // sl1
              ret
            }
        "#,
        );
        let g = pre.objects().base(m.global_by_name("g").unwrap());
        (m, pre, svfg, g)
    }

    #[test]
    fn grouped_insertion_matches_naive_edges() {
        let (m, _, base, g) = interference_world();
        let sw0 = stmt_where(&m, "worker", |k| matches!(k, StmtKind::Store { .. }), 0);
        let sw1 = stmt_where(&m, "worker", |k| matches!(k, StmtKind::Store { .. }), 1);
        let sl0 = stmt_where(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 0);
        let sl1 = stmt_where(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 1);
        let edges = vec![(sw0, sl0, g), (sw0, sl1, g), (sw1, sl0, g), (sw1, sl1, g)];

        let mut naive = base.clone();
        for &(s, a, o) in &edges {
            naive.add_thread_edge(s, a, o);
        }
        let mut grouped = base;
        let outcome = grouped.insert_thread_edges_grouped(&[group(g, &[sw0, sw1], &[sl0, sl1])]);
        assert_eq!(
            outcome,
            ThreadEdgeInsertion {
                classes: 1,
                junctions: 0,
                edges_added: 4
            }
        );

        for &(s, a, o) in &edges {
            assert!(grouped.reaches(s, a, o), "grouped must keep {s:?} -> {a:?}");
            assert!(naive.reaches(s, a, o));
        }
        assert_eq!(grouped.stats.thread_edges, 4, "small product stays direct");
    }

    #[test]
    fn grouped_insertion_keeps_classes_apart() {
        let (m, _, mut svfg, g) = interference_world();
        // Synthetic statement ids: disconnected in the base graph, so any
        // reachability below comes from the inserted edges alone.
        let hi = m.stmt_count() as u32;
        let (sw0, sw1) = (StmtId::new(hi + 1), StmtId::new(hi + 2));
        let (sl0, sl1) = (StmtId::new(hi + 3), StmtId::new(hi + 4));
        // sw0 interferes only with sl0, sw1 only with sl1: two classes.
        let outcome =
            svfg.insert_thread_edges_grouped(&[group(g, &[sw0], &[sl0]), group(g, &[sw1], &[sl1])]);
        assert_eq!((outcome.classes, outcome.edges_added), (2, 2));
        assert!(svfg.reaches(sw0, sl0, g));
        assert!(svfg.reaches(sw1, sl1, g));
        assert!(!svfg.reaches(sw0, sl1, g), "classes must not be merged");
        assert!(!svfg.reaches(sw1, sl0, g), "classes must not be merged");
    }

    #[test]
    fn grouped_insertion_uses_junction_for_large_products() {
        let (m, _, mut svfg, g) = interference_world();
        let sw0 = stmt_where(&m, "worker", |k| matches!(k, StmtKind::Store { .. }), 0);
        let sl0 = stmt_where(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 0);
        // Synthesize a 9×9 product (> the direct-edge limit of 64). The
        // statement ids need not exist in the module: thread edges intern
        // their own `Stmt` nodes.
        let hi = m.stmt_count() as u32;
        let stores: Vec<StmtId> = (0..9)
            .map(|i| if i == 0 { sw0 } else { StmtId::new(hi + i) })
            .collect();
        let accesses: Vec<StmtId> = (0..9)
            .map(|i| {
                if i == 0 {
                    sl0
                } else {
                    StmtId::new(hi + 100 + i)
                }
            })
            .collect();
        let before = svfg.stats.edges;
        let outcome = svfg.insert_thread_edges_grouped(&[group(g, &stores, &accesses)]);
        let junction = svfg
            .lookup(NodeKind::ThreadJunction { obj: g })
            .expect("large product must route through a junction");
        assert_eq!((outcome.classes, outcome.junctions), (1, 1));
        assert_eq!(outcome.edges_added, 18);
        assert_eq!(svfg.stats.edges - before, 18, "k+m edges, not k×m");
        // Both halves of the junction routing are marked as thread flow.
        let ns = svfg.stmt_node(sw0).unwrap();
        let na = svfg.stmt_node(sl0).unwrap();
        assert!(svfg.is_thread_edge(ns, junction));
        assert!(svfg.is_thread_edge(junction, na));
        for &s in &stores {
            for &a in &accesses {
                assert!(svfg.reaches(s, a, g));
            }
        }
    }

    /// The junction is interned per object: two classes above the fan-in
    /// threshold on one object share it, so each class's stores also reach
    /// the other's accesses.
    #[test]
    fn large_classes_on_one_object_share_its_junction() {
        let (m, _, mut svfg, g) = interference_world();
        let hi = m.stmt_count() as u32;
        let ids = |base: u32| {
            (0..9)
                .map(|i| StmtId::new(hi + base + i))
                .collect::<Vec<_>>()
        };
        let (s1, a1, s2, a2) = (ids(0), ids(100), ids(200), ids(300));
        let first = svfg.insert_thread_edges_grouped(&[group(g, &s1, &a1)]);
        let nodes = svfg.node_count();
        let second = svfg.insert_thread_edges_grouped(&[group(g, &s2, &a2)]);
        assert_eq!((first.junctions, second.junctions), (1, 0));
        assert_eq!(second.edges_added, 18);
        assert_eq!(svfg.node_count() - nodes, 18, "only the new statements");
        let junction = svfg.lookup(NodeKind::ThreadJunction { obj: g }).unwrap();
        for &s in s1.iter().chain(&s2) {
            let n = svfg.stmt_node(s).unwrap();
            assert!(svfg.is_thread_edge(n, junction));
        }
        assert!(
            svfg.reaches(s1[0], a2[0], g),
            "shared junction joins classes"
        );
        assert!(
            svfg.reaches(s2[0], a1[0], g),
            "shared junction joins classes"
        );
    }

    #[test]
    fn direct_var_maps() {
        let (m, _, svfg) = build(
            r#"
            global g
            func main() {
            entry:
              p = &g
              q = p
              store q, p
              ret
            }
        "#,
        );
        let p = m.var_ids().find(|&v| m.var(v).name == "p").unwrap();
        let def = svfg.var_def(p).unwrap();
        assert!(matches!(m.stmt(def).kind, StmtKind::Addr { .. }));
        assert_eq!(svfg.var_uses(p).len(), 2, "q = p and store q, p");
    }
}
