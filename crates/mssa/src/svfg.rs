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
//!
//! The graph is held once, in counted flat tables ([`Csr`]): dense node
//! tables, edge rows deduplicated in first-added order with thread edges
//! after each row's own, shared between clones until an insertion
//! replaces them, and the [`SlotTables`] the sparse solver walks, laid out
//! on first use. Building, extending and laying out the graph are linear
//! passes over these tables.

use std::iter::repeat_n;
use std::mem::replace;
use std::sync::{Arc, OnceLock};

use fsam_andersen::PreAnalysis;
pub use fsam_ir::csr::Csr;
use fsam_ir::dom::{DomTree, FrontierScratch};
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
    /// classes on `obj` share it — see
    /// [`Svfg::insert_thread_edges_grouped`].
    ThreadJunction {
        /// The object flowing through the junction.
        obj: MemId,
    },
}

impl NodeKind {
    /// The object a merge node (any node but a statement) defines.
    fn merged_obj(self) -> Option<MemId> {
        match self {
            NodeKind::Stmt(_) => None,
            NodeKind::MemPhi { obj, .. }
            | NodeKind::FormalIn { obj, .. }
            | NodeKind::FormalOut { obj, .. }
            | NodeKind::ActualOut { obj, .. }
            | NodeKind::ThreadJunction { obj } => Some(obj),
        }
    }
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

/// What a slot (one object definition at one node) computes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SlotKind {
    /// A store's chi output for one object: `P-STORE` + `P-SU/WU`.
    Store {
        /// The store's pointer.
        ptr: VarId,
        /// The stored value.
        val: VarId,
    },
    /// A merge node (mem-phi, formal/actual in/out, thread junction):
    /// output = union of reaching definitions.
    Merge,
}

/// One resolved successor of a slot: where a change of the slot's output
/// goes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SlotSucc {
    /// Slot `slot` of a merge node, or of the store `gate`, whose strong
    /// phase on the object kills the incoming flow.
    Slot {
        /// The target slot.
        slot: u32,
        /// The store owning the target slot, if it is one.
        gate: Option<StmtId>,
    },
    /// The load at node `node`: `dst = *ptr`.
    Load {
        /// The load's node.
        node: u32,
        /// The loaded variable.
        dst: VarId,
        /// The load's pointer.
        ptr: VarId,
    },
}

/// The graph resolved for the sparse solve: one slot per object
/// definition. A store has one per `chi` or incident-edge object, a merge
/// node one for its object, other statement nodes none.
#[derive(Clone, Debug, Default)]
pub struct SlotTables {
    /// Row `n`: the objects node `n` defines, ascending; slot `k` defines
    /// `obj.items[k]`.
    pub obj: Csr<MemId>,
    /// Node of each slot.
    pub node: Vec<u32>,
    /// What each slot computes.
    pub kind: Vec<SlotKind>,
    /// Row `k`: the resolved successors of slot `k`, one per edge carrying
    /// its object, in [`Svfg::succs`] order.
    pub succ: Csr<SlotSucc>,
    /// Row `n`: the objects reaching node `n`, ascending; row `i` of
    /// `in_slot`: the slots defining the `i`-th of them, in
    /// [`Svfg::preds`] order.
    in_obj: Csr<MemId>,
    in_slot: Csr<u32>,
}

impl SlotTables {
    /// The slots whose outputs reach node `node` as definitions of `o`.
    pub fn reaching(&self, node: usize, o: MemId) -> &[u32] {
        let key = self.in_obj.find(node, o);
        key.map_or(&[], |i| self.in_slot.row(i))
    }

    /// Lays out the slots of `g` and resolves its edges onto them, in one
    /// pass over the nodes for their objects and one over the edges.
    fn lay_out(g: &Svfg) -> SlotTables {
        let n_count = g.nodes.len();
        let store = |n: usize| match g.nodes[n] {
            NodeKind::Stmt(sid) => match g.access(sid) {
                Access::Store { ptr, val } => Some((sid, ptr, val)),
                _ => None,
            },
            _ => None,
        };
        // Room for every slot: a merge node defines its object, a store at
        // least its `chi`.
        let room = (0..n_count).map(|n| match store(n) {
            Some((sid, ..)) => g.ann.chi(sid).len(),
            None => usize::from(g.nodes[n].merged_obj().is_some()),
        });
        let room = room.sum();
        let (edges, preds) = (g.succ.items.len(), g.pred.items.len());
        let mut t = SlotTables {
            obj: Csr::with_capacity(n_count, room),
            node: Vec::with_capacity(room),
            kind: Vec::with_capacity(room),
            succ: Csr::with_capacity(0, edges),
            in_obj: Csr::with_capacity(n_count, preds),
            in_slot: Csr::with_capacity(preds, preds),
        };
        // The objects each node defines, ascending: a store's `chi`, merged
        // with its incident edges' objects only when one of them lies
        // outside it, and a merge node's object. Loads, calls and synthetic
        // statements define nothing.
        for n in 0..n_count {
            let objs = &mut t.obj.items;
            let kind = if let Some((sid, ptr, val)) = store(n) {
                let chi = g.ann.chi(sid);
                objs.extend(chi.iter());
                let incident = g.pred.row(n).iter().chain(g.succ.row(n));
                if incident.clone().any(|e| !chi.contains(e.1)) {
                    let mut all = objs.split_off(t.obj.base[n] as usize);
                    all.extend(incident.map(|e| e.1));
                    all.sort_unstable();
                    all.dedup();
                    objs.extend(all);
                }
                SlotKind::Store { ptr, val }
            } else {
                objs.extend(g.nodes[n].merged_obj());
                SlotKind::Merge
            };
            let len = objs.len() - t.obj.base[n] as usize;
            t.obj.base.push(objs.len() as u32);
            t.node.extend(repeat_n(n as u32, len));
            t.kind.extend(repeat_n(kind, len));
        }
        t.succ.base.resize(t.kind.len() + 1, 0);

        // Where a change of `o` at a node flows along the edge into `s`:
        // a load, a store's slot gated by its strong phase, a merge slot.
        let slot_of = |n: usize, o: MemId| t.obj.find(n, o);
        let resolve = |s: NodeId, o: MemId| {
            let node = s.index() as u32;
            let gate = match g.nodes[s.index()] {
                NodeKind::Stmt(sid) => match g.access(sid) {
                    Access::Load { dst, ptr } => return Some(SlotSucc::Load { node, dst, ptr }),
                    Access::Store { .. } => Some(sid),
                    Access::None => return None,
                },
                _ => None,
            };
            let slot = slot_of(s.index(), o)? as u32;
            Some(SlotSucc::Slot { slot, gate })
        };
        // Per node: its slots' successors in `succs` order, and its reaching
        // definitions grouped per object in `preds` order (stable sorts,
        // skipped where the row is in order already, as on every node with
        // one slot).
        let (mut succs, mut reaching) = (Vec::new(), Vec::new());
        for n in 0..n_count {
            succs.clear();
            let row = g.succ.row(n).iter();
            succs.extend(row.filter_map(|&(s, o)| Some((slot_of(n, o)?, resolve(s, o)?))));
            if !succs.is_sorted_by_key(|&(k, _)| k) {
                succs.sort_by_key(|&(k, _)| k);
            }
            for &(k, r) in &succs {
                t.succ.base[k + 1] += 1;
                t.succ.items.push(r);
            }
            reaching.clear();
            let row = g.pred.row(n).iter();
            reaching.extend(row.filter_map(|&(p, o)| Some((o, slot_of(p.index(), o)? as u32))));
            if !reaching.is_sorted_by_key(|&(o, _)| o) {
                reaching.sort_by_key(|&(o, _)| o);
            }
            for run in reaching.chunk_by(|a, b| a.0 == b.0) {
                t.in_obj.items.push(run[0].0);
                t.in_slot.push_row(run.iter().map(|&(_, k)| k));
            }
            t.in_obj.base.push(t.in_obj.items.len() as u32);
        }
        for k in 0..t.kind.len() {
            t.succ.base[k + 1] += t.succ.base[k];
        }
        t
    }
}

/// How a statement touches memory, as far as the solver's slots care.
#[derive(Copy, Clone, Debug)]
enum Access {
    None,
    Load { dst: VarId, ptr: VarId },
    Store { ptr: VarId, val: VarId },
}

/// Marks an empty entry of a dense node table.
const NONE: u32 = u32::MAX;

/// An edge: `(from, to, object)`.
type Edge = (NodeId, NodeId, MemId);

/// The node in `table[i]`, created as `kind` on first touch.
fn intern(nodes: &mut Vec<NodeKind>, table: &mut Vec<u32>, i: usize, kind: NodeKind) -> NodeId {
    if table.len() <= i {
        table.resize(i + 1, NONE);
    }
    if table[i] == NONE {
        table[i] = u32::try_from(nodes.len()).expect("too many SVFG nodes");
        nodes.push(kind);
    }
    NodeId(table[i])
}

/// The sparse value-flow graph.
///
/// `Clone` supports the staged pipeline: the thread-*oblivious* graph is
/// built once per module and cloned per configuration before the
/// configuration-specific thread-aware edges are inserted. A clone copies
/// the node tables and shares everything else: the edge rows until an
/// insertion builds fresh ones from them, the statement accesses, the
/// annotations and the mod/ref summaries.
#[derive(Clone, Debug)]
pub struct Svfg {
    nodes: Vec<NodeKind>,
    /// Node of each statement, or `NONE`.
    stmt_node: Vec<u32>,
    /// Thread junction of each object, or `NONE`.
    junction: Vec<u32>,
    /// Successor and predecessor rows, `(node, object)` per edge.
    succ: Arc<Csr<(NodeId, MemId)>>,
    pred: Arc<Csr<(NodeId, MemId)>>,
    /// How many of each successor row's edges are thread-oblivious; the
    /// rest of the row, and every row of a node past its end, is
    /// thread-aware.
    own: Arc<[u32]>,
    /// How each statement touches memory.
    access: Arc<[Access]>,
    ann: Arc<Annotations>,
    modref: Arc<ModRef>,
    /// Laid out on first use after the last change of the graph.
    slots: OnceLock<SlotTables>,
    /// Construction statistics.
    pub stats: SvfgStats,
}

impl Svfg {
    /// Builds the thread-oblivious SVFG (§3.2) for `module`.
    pub fn build(module: &Module, pre: &PreAnalysis, tm: &ThreadModel) -> Svfg {
        let modref = ModRef::compute(module, pre, tm);
        let ann = Annotations::compute(module, pre, tm, &modref);
        let access = (module.stmts())
            .map(|(_, s)| match s.kind {
                StmtKind::Load { dst, ptr } => Access::Load { dst, ptr },
                StmtKind::Store { ptr, val } => Access::Store { ptr, val },
                _ => Access::None,
            })
            .collect();
        let mut domains = Csr::with_capacity(module.func_count(), 0);
        for f in module.funcs() {
            domains.push_row(modref.domain(f.id).iter());
        }
        let mut b = Builder {
            ann: &ann,
            modref: &modref,
            formal_in: vec![NONE; domains.items.len()],
            formal_out: vec![NONE; domains.items.len()],
            domains: &domains,
            nodes: Vec::new(),
            stmt_node: vec![NONE; module.stmt_count()],
            edges: Vec::new(),
            mem_phis: 0,
        };
        let mut scratch = Scratch::new(pre.objects().len());
        let mut place = Placement::default();
        for func in module.funcs() {
            b.survey(module, pre, tm, func.id, &mut scratch, &mut place);
        }
        b.nodes.reserve_exact(place.nodes);
        b.edges.reserve_exact(place.edges);
        for func in module.funcs().filter(|f| !f.is_external) {
            b.rename_function(module, pre, tm, func.id, &place, &mut scratch);
        }
        debug_assert!(b.nodes.len() <= place.nodes && b.edges.len() <= place.edges);

        let edges = b.edges;
        let mut svfg = Svfg {
            stats: SvfgStats {
                nodes: b.nodes.len(),
                mem_phis: b.mem_phis,
                ..SvfgStats::default()
            },
            nodes: b.nodes,
            stmt_node: b.stmt_node,
            junction: Vec::new(),
            succ: Arc::default(),
            pred: Arc::default(),
            own: Arc::default(),
            access,
            ann: Arc::new(ann),
            modref: Arc::new(modref),
            slots: OnceLock::new(),
        };
        svfg.stats.edges = svfg.add_edges(&edges);
        let succ = &svfg.succ;
        svfg.own = (0..svfg.nodes.len())
            .map(|n| succ.row(n).len() as u32)
            .collect();
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
        self.succ.row(n.index())
    }

    /// Indirect def-use predecessors of `n`.
    pub fn preds(&self, n: NodeId) -> &[(NodeId, MemId)] {
        self.pred.row(n.index())
    }

    /// The node of a statement, if it participates in memory flow.
    pub fn stmt_node(&self, s: StmtId) -> Option<NodeId> {
        let n = *self.stmt_node.get(s.index())?;
        (n != NONE).then_some(NodeId(n))
    }

    /// The mu/chi annotations the graph was built from.
    pub fn annotations(&self) -> &Annotations {
        &self.ann
    }

    /// The mod/ref summaries the graph was built from.
    pub fn modref(&self) -> &ModRef {
        &self.modref
    }

    /// The slot tables the sparse solver walks, laid out on first use.
    pub fn slots(&self) -> &SlotTables {
        self.slots.get_or_init(|| SlotTables::lay_out(self))
    }

    /// Whether the `from → to` edge was appended by the thread
    /// interference phases rather than memory SSA: whether it lies past
    /// `from`'s thread-oblivious edges. Junction-routed flows mark both
    /// the store→junction and junction→access halves.
    pub fn is_thread_edge(&self, from: NodeId, to: NodeId) -> bool {
        let own = self.own.get(from.index()).map_or(0, |&k| k as usize);
        let thread = &self.succ.row(from.index())[own..];
        thread.iter().any(|&(t, _)| t == to)
    }

    fn access(&self, s: StmtId) -> Access {
        self.access.get(s.index()).copied().unwrap_or(Access::None)
    }

    // ---- thread edges -----------------------------------------------------

    /// Appends the thread-aware def-use flows produced by the interference
    /// phases (§3.3), one complete-bipartite class per group: every store
    /// interferes with every access. Small classes become direct edges; a
    /// class above the fan-in threshold is routed through its object's
    /// [`NodeKind::ThreadJunction`]. Node ids follow the order of `groups`.
    ///
    /// The junction is interned per object: all large groups on `obj` share
    /// it, so their stores also reach each other's accesses — a sound
    /// over-approximation kept because a junction per group costs x264 26 %
    /// more solver items for the same full-configuration fixpoint
    /// (EXPERIMENTS.md, "Shared thread junctions").
    ///
    /// Edges already present are dropped, and the slot tables are laid
    /// out afresh on their next use.
    pub fn insert_thread_edges_grouped(&mut self, groups: &[ThreadGroup]) -> ThreadEdgeInsertion {
        const DIRECT_LIMIT: usize = 64;
        let direct = |g: &ThreadGroup| g.stores.len() * g.accesses.len() <= DIRECT_LIMIT;
        let mut outcome = ThreadEdgeInsertion {
            classes: groups.len(),
            ..ThreadEdgeInsertion::default()
        };
        // Room for every requested edge and every junction, up front.
        let size = |g: &ThreadGroup| match direct(g) {
            true => g.stores.len() * g.accesses.len(),
            false => g.stores.len() + g.accesses.len(),
        };
        let mut edges: Vec<Edge> = Vec::with_capacity(groups.iter().map(size).sum());
        let routed = groups.iter().filter(|g| !direct(g));
        self.nodes.reserve_exact(routed.clone().count());
        let top = routed.map(|g| g.obj.index() + 1).max().unwrap_or(0);
        if self.junction.len() < top {
            self.junction.resize(top, NONE);
        }
        for g in groups {
            let obj = g.obj;
            if direct(g) {
                for &s in &g.stores {
                    for &a in g.accesses.iter().filter(|&&a| a != s) {
                        let from = self.thread_node(NodeKind::Stmt(s));
                        edges.push((from, self.thread_node(NodeKind::Stmt(a)), obj));
                    }
                }
                continue;
            }
            let nodes_before = self.nodes.len();
            let junction = self.thread_node(NodeKind::ThreadJunction { obj });
            outcome.junctions += self.nodes.len() - nodes_before;
            for &s in &g.stores {
                edges.push((self.thread_node(NodeKind::Stmt(s)), junction, obj));
            }
            for &a in &g.accesses {
                edges.push((junction, self.thread_node(NodeKind::Stmt(a)), obj));
            }
        }
        outcome.edges_added = self.add_edges(&edges);
        self.stats.nodes = self.nodes.len();
        self.stats.thread_edges += outcome.edges_added;
        self.stats.edges += outcome.edges_added;
        self.slots = OnceLock::new();
        outcome
    }

    /// The statement or junction node of `kind`, created on first touch.
    fn thread_node(&mut self, kind: NodeKind) -> NodeId {
        let (table, i) = match kind {
            NodeKind::Stmt(s) => (&mut self.stmt_node, s.index()),
            NodeKind::ThreadJunction { obj } => (&mut self.junction, obj.raw() as usize),
            _ => unreachable!("thread edges join statements, possibly through a junction"),
        };
        intern(&mut self.nodes, table, i, kind)
    }

    /// Merges `edges` into the rows, each after its row's present edges in
    /// `edges` order, minus every edge already present or repeated (the
    /// first one wins). Returns how many were appended. The rows are built
    /// afresh from the present ones, which clones may share: the new edges
    /// are bucketed by row in a counted pass, and each row is copied whole.
    fn add_edges(&mut self, edges: &[Edge]) -> usize {
        let n = self.nodes.len();
        let keep = self.fresh(edges);
        let new = (edges.iter().zip(&keep)).filter_map(|(&e, &k)| k.then_some(e));
        let out = new.clone().map(|(f, t, o)| (f.index(), (t, o)));
        self.succ = Arc::new(self.succ.extended(n, out));
        let into = new.clone().map(|(f, t, o)| (t.index(), (f, o)));
        self.pred = Arc::new(self.pred.extended(n, into));
        new.count()
    }

    /// Which of `edges` are new: neither in their source's row nor a
    /// repeat of an earlier one. The batch is bucketed by source with a
    /// counting pass. Each row's entries, its present edges first, are
    /// chained by target in row order, and each target's chain is checked
    /// against a table of the objects already seen on it, so a row costs
    /// its length however many objects share a target.
    fn fresh(&self, edges: &[Edge]) -> Vec<bool> {
        let (n, rows) = (self.nodes.len(), self.succ.base.len() - 1);
        let batch = Csr::from_pairs(n, (edges.iter().zip(0u32..)).map(|(e, i)| (e.0.index(), i)));
        let mut keep = vec![false; edges.len()];
        let row = |f: usize| {
            let present = if f < rows { self.succ.row(f) } else { &[] };
            (present, batch.row(f))
        };
        let longest = (0..n).map(|f| match row(f) {
            (_, []) => 0,
            (present, batch) => present.len() + batch.len(),
        });
        let longest = longest.max().unwrap_or(0);
        // Within a row, `head[t]` and `tail[t]` are the first and last
        // entries into `t`, and `next[j]` is the entry after `j` into the
        // same target; `targets` lists the row's targets.
        let (mut head, mut tail) = (vec![NONE; n], vec![NONE; n]);
        let (mut next, mut targets) = (Vec::with_capacity(longest), Vec::with_capacity(longest));
        // `seen[o] == stamp` iff `o` is on the chain walked last; an object
        // no edge of the batch carries cannot make one a repeat.
        let objs = edges.iter().map(|e| e.2.index() + 1).max().unwrap_or(0);
        let (mut seen, mut stamp) = (vec![0u32; objs], 0u32);
        for f in 0..n {
            let (present, batch) = row(f);
            if batch.is_empty() {
                continue;
            }
            // Entry `j` of the row: a present edge, then the batch's.
            let entry = |j: usize| match j.checked_sub(present.len()) {
                Some(b) => (edges[batch[b] as usize].1, edges[batch[b] as usize].2),
                None => present[j],
            };
            next.clear();
            next.resize(present.len() + batch.len(), NONE);
            for j in 0..next.len() {
                let t = entry(j).0.index();
                match head[t] {
                    NONE => {
                        head[t] = j as u32;
                        targets.push(t);
                    }
                    _ => next[tail[t] as usize] = j as u32,
                }
                tail[t] = j as u32;
            }
            for t in targets.drain(..) {
                stamp += 1;
                let mut j = replace(&mut head[t], NONE);
                while j != NONE {
                    let o = entry(j as usize).1.index();
                    if seen.get_mut(o).is_some_and(|s| replace(s, stamp) != stamp) {
                        if let Some(b) = (j as usize).checked_sub(present.len()) {
                            keep[batch[b] as usize] = true;
                        }
                    }
                    j = next[j as usize];
                }
            }
        }
        keep
    }
}

/// The renaming walk's state: the dense node tables and the edges
/// collected so far, in the order they were added.
struct Builder<'a> {
    ann: &'a Annotations,
    modref: &'a ModRef,
    /// Row `f`: function `f`'s mod/ref domain. The index of (`f`, object)
    /// in it keys the formal in/out node tables.
    domains: &'a Csr<MemId>,
    formal_in: Vec<u32>,
    formal_out: Vec<u32>,
    nodes: Vec<NodeKind>,
    stmt_node: Vec<u32>,
    edges: Vec<Edge>,
    mem_phis: usize,
}

impl Builder<'_> {
    fn node(&mut self, kind: NodeKind) -> NodeId {
        let domains = self.domains;
        let key = |f: FuncId, o| domains.find(f.index(), o).expect("outside the domain");
        let (table, i) = match kind {
            NodeKind::Stmt(s) => (&mut self.stmt_node, s.index()),
            NodeKind::FormalIn { func, obj } => (&mut self.formal_in, key(func, obj)),
            NodeKind::FormalOut { func, obj } => (&mut self.formal_out, key(func, obj)),
            // Each phi and each site's actual-out is placed once.
            _ => {
                self.nodes.push(kind);
                return NodeId::from_index(self.nodes.len() - 1);
            }
        };
        intern(&mut self.nodes, table, i, kind)
    }

    /// The first pass over `func`: where its memory phis go, its
    /// dominator tree, and room for the nodes and edges its walk creates.
    fn survey(
        &self,
        module: &Module,
        pre: &PreAnalysis,
        tm: &ThreadModel,
        func: FuncId,
        scratch: &mut Scratch,
        place: &mut Placement,
    ) {
        let f = module.func(func);
        let (ann, domains) = (self.ann, self.domains);
        let domain = domains.row(func.index());
        if f.is_external || domain.is_empty() {
            place.phis.push_row([]);
            place.idom.push_row([]);
            return;
        }
        let dom = DomTree::compute(f);
        let cg = pre.call_graph();
        let Scratch {
            defs,
            blocks,
            idf,
            phi_count,
            ..
        } = scratch;

        // Definition blocks per object (entry counts as a def via FormalIn),
        // in object order: the walk allocates phi NodeIds in that order,
        // and node numbering must be deterministic (results are compared
        // bit-for-bit across drivers). Each statement also makes room for
        // the nodes and edges the walk gives it, at most.
        defs.clear();
        defs.extend(domain.iter().map(|&o| (o, BlockId::ENTRY)));
        let (mut nodes, mut edges) = (2 * domain.len(), 0);
        for (bid, block) in f.blocks() {
            for &sid in &block.stmts {
                let chi = ann.chi(sid);
                defs.extend(chi.iter().map(|o| (o, bid)));
                let (n, e) = match &module.stmt(sid).kind {
                    StmtKind::Load { .. } => (1, ann.mu(sid).len()),
                    StmtKind::Store { .. } => (1, chi.len()),
                    StmtKind::Call { .. } | StmtKind::Fork { .. } => {
                        let callees = || cg.targets(sid).filter(|&c| !module.func(c).is_external);
                        let into: usize = callees().map(|c| domains.row(c.index()).len()).sum();
                        (chi.len(), into + chi.len() * (1 + callees().count()))
                    }
                    StmtKind::Join { .. } => (chi.len(), chi.len() * (1 + tm.joins_at(sid).len())),
                    _ => (0, 0),
                };
                nodes += n;
                edges += e;
            }
            if matches!(block.term, Terminator::Ret(_)) {
                edges += domain.len();
            }
        }
        defs.sort_unstable();
        defs.dedup();

        // Place memory phis; each takes one edge per predecessor at most.
        phi_count.clear();
        phi_count.resize(f.blocks.len(), 0);
        for run in defs.chunk_by(|a, b| a.0 == b.0) {
            blocks.clear();
            blocks.extend(run.iter().map(|&(_, b)| b));
            for &b in dom.iterated_frontier(blocks, idf) {
                place.phis.items.push((b, run[0].0));
                phi_count[b.index()] += 1;
            }
        }
        place.phis.base.push(place.phis.items.len() as u32);
        for (_, block) in f.blocks() {
            edges += block
                .term
                .successors()
                .map(|s| phi_count[s.index()])
                .sum::<usize>();
        }
        place.nodes += nodes + phi_count.iter().sum::<usize>();
        place.edges += edges;

        let idom = |i| {
            dom.idom(BlockId::from_usize(i))
                .map_or(NONE, |d| d.index() as u32)
        };
        place.idom.push_row((0..f.blocks.len()).map(idom));
    }

    /// The second pass over `func`: memory SSA renaming along its
    /// dominator tree, creating its nodes and collecting its edges.
    fn rename_function(
        &mut self,
        module: &Module,
        pre: &PreAnalysis,
        tm: &ThreadModel,
        func: FuncId,
        place: &Placement,
        scratch: &mut Scratch,
    ) {
        let f = module.func(func);
        let (ann, modref, domains) = (self.ann, self.modref, self.domains);
        let domain = domains.row(func.index());
        if domain.is_empty() {
            return;
        }
        let cg = pre.call_graph();
        let Scratch {
            cur,
            placed,
            phis,
            children,
            log,
            stack,
            callees,
            ..
        } = scratch;

        // The memory phis, bucketed by block in placement order.
        placed.clear();
        for &(block, obj) in place.phis.row(func.index()) {
            let n = self.node(NodeKind::MemPhi { func, block, obj });
            placed.push((block.index(), (obj, n)));
        }
        self.mem_phis += placed.len();
        let block_count = f.blocks.len();
        phis.refill(block_count, placed.iter().copied());

        // Dominator-tree children, in block order.
        let idom = place.idom.row(func.index());
        let child =
            |i: usize| (idom[i] != NONE).then(|| (idom[i] as usize, BlockId::from_usize(i)));
        children.refill(block_count, (0..block_count).filter_map(child));

        // Current version per object. A block logs each version it
        // replaces, and leaving the block undoes its log; every object the
        // walk defines is in the domain, whose versions start at FormalIn.
        let version = |cur: &[u32], o: MemId| Some(NodeId(cur[o.index()])).filter(|d| d.0 != NONE);
        let set_cur = |cur: &mut [u32], log: &mut Vec<(MemId, u32)>, o: MemId, n: NodeId| {
            log.push((o, replace(&mut cur[o.index()], n.0)));
        };
        for &o in domain {
            cur[o.index()] = self.node(NodeKind::FormalIn { func, obj: o }).0;
        }

        stack.push(Walk::Enter(BlockId::ENTRY));
        while let Some(step) = stack.pop() {
            let bid = match step {
                Walk::Leave(mark) => {
                    // Undo in reverse: a block that redefined the same
                    // object twice logged (original, intermediate) in that
                    // order, and the original must win.
                    for (o, n) in log.drain(mark..).rev() {
                        cur[o.index()] = n;
                    }
                    continue;
                }
                Walk::Enter(bid) => bid,
            };
            stack.push(Walk::Leave(log.len()));

            // Phis at block head define.
            for &(o, n) in phis.row(bid.index()) {
                set_cur(cur, log, o, n);
            }

            let block = &f.blocks[bid];
            for &sid in &block.stmts {
                match &module.stmt(sid).kind {
                    StmtKind::Load { .. } => {
                        let snode = self.node(NodeKind::Stmt(sid));
                        for o in ann.mu(sid).iter() {
                            if let Some(d) = version(cur, o) {
                                self.edges.push((d, snode, o));
                            }
                        }
                    }
                    StmtKind::Store { .. } => {
                        let snode = self.node(NodeKind::Stmt(sid));
                        for o in ann.chi(sid).iter() {
                            if let Some(d) = version(cur, o) {
                                self.edges.push((d, snode, o));
                            }
                            set_cur(cur, log, o, snode);
                        }
                    }
                    StmtKind::Call { .. } | StmtKind::Fork { .. } => {
                        callees.clear();
                        callees.extend(cg.targets(sid).filter(|&c| !module.func(c).is_external));
                        // Flow current versions into each callee.
                        for &callee in callees.iter() {
                            for &o in domains.row(callee.index()) {
                                if let Some(d) = version(cur, o) {
                                    let fin = self.node(NodeKind::FormalIn {
                                        func: callee,
                                        obj: o,
                                    });
                                    self.edges.push((d, fin, o));
                                }
                            }
                        }
                        // ActualOut per modified object (always weak:
                        // the incoming version merges in — for forks
                        // this is exactly the bypass of Fig. 6(c)).
                        for o in ann.chi(sid).iter() {
                            let ao = self.node(NodeKind::ActualOut { site: sid, obj: o });
                            if let Some(d) = version(cur, o) {
                                self.edges.push((d, ao, o));
                            }
                            for &callee in callees.iter() {
                                if modref.mods(callee).contains(o) {
                                    let fout = self.node(NodeKind::FormalOut {
                                        func: callee,
                                        obj: o,
                                    });
                                    self.edges.push((fout, ao, o));
                                }
                            }
                            set_cur(cur, log, o, ao);
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
                        let entries = tm.joins_at(sid);
                        for o in ann.chi(sid).iter() {
                            let ao = self.node(NodeKind::ActualOut { site: sid, obj: o });
                            // Whether the current version is the
                            // fork's ActualOut of every joined thread.
                            let cur_kind = version(cur, o).map(|d| self.nodes[d.index()]);
                            let cur_is_fork_out = !entries.is_empty()
                                && entries.iter().all(|e| {
                                    tm.info(e.thread).fork_site.is_some_and(|site| {
                                        cur_kind == Some(NodeKind::ActualOut { site, obj: o })
                                    })
                                });
                            if !cur_is_fork_out {
                                if let Some(d) = version(cur, o) {
                                    self.edges.push((d, ao, o));
                                }
                            }
                            for e in entries {
                                let r = tm.info(e.thread).routine;
                                if modref.mods(r).contains(o) {
                                    let fout = self.node(NodeKind::FormalOut { func: r, obj: o });
                                    self.edges.push((fout, ao, o));
                                }
                            }
                            set_cur(cur, log, o, ao);
                        }
                    }
                    _ => {}
                }
            }

            // Returns feed FormalOut.
            if matches!(block.term, Terminator::Ret(_)) {
                for &o in domain {
                    if let Some(d) = version(cur, o) {
                        let fout = self.node(NodeKind::FormalOut { func, obj: o });
                        self.edges.push((d, fout, o));
                    }
                }
            }

            // Feed successor phis.
            for succ in block.term.successors() {
                for &(o, n) in phis.row(succ.index()) {
                    if let Some(d) = version(cur, o).filter(|&d| d != n) {
                        self.edges.push((d, n, o));
                    }
                }
            }

            // Recurse into dominator children.
            for &c in children.row(bid.index()).iter().rev() {
                stack.push(Walk::Enter(c));
            }
        }

        for &o in domain {
            cur[o.index()] = NONE;
        }
    }
}

/// A step of the renaming walk over the dominator tree.
enum Walk {
    Enter(BlockId),
    /// Leave a block, undoing the log from this length on.
    Leave(usize),
}

/// What the first pass over the functions hands the second.
#[derive(Default)]
struct Placement {
    /// Row `f`: function `f`'s memory phis, `(block, object)` in
    /// placement order.
    phis: Csr<(BlockId, MemId)>,
    /// Row `f`: the immediate dominator of each of `f`'s blocks, or `NONE`.
    idom: Csr<u32>,
    /// Room for every node and edge the walks create.
    nodes: usize,
    edges: usize,
}

/// The flat tables renaming reuses from function to function.
struct Scratch {
    /// The current version (node) of each object, or `NONE`; every entry
    /// is `NONE` between functions.
    cur: Vec<u32>,
    /// `(object, block)` per definition, ascending.
    defs: Vec<(MemId, BlockId)>,
    /// One object's definition blocks.
    blocks: Vec<BlockId>,
    idf: FrontierScratch,
    /// Phis per block of one function.
    phi_count: Vec<usize>,
    /// `(block, (object, phi))` per phi, in placement order, and the
    /// phis bucketed by block.
    placed: Vec<(usize, (MemId, NodeId))>,
    phis: Csr<(MemId, NodeId)>,
    children: Csr<BlockId>,
    /// `(object, replaced version)` per version the walk replaced.
    log: Vec<(MemId, u32)>,
    stack: Vec<Walk>,
    callees: Vec<FuncId>,
}

impl Scratch {
    fn new(objects: usize) -> Scratch {
        Scratch {
            cur: vec![NONE; objects],
            defs: Vec::new(),
            blocks: Vec::new(),
            idf: FrontierScratch::default(),
            phi_count: Vec::new(),
            placed: Vec::new(),
            phis: Csr::default(),
            children: Csr::default(),
            log: Vec::new(),
            stack: Vec::new(),
            callees: Vec::new(),
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

    /// Whether a def-use path for `obj` exists from statement `from` to
    /// statement `to` (following `obj`-labeled edges through intermediate
    /// nodes).
    fn reaches(svfg: &Svfg, from: StmtId, to: StmtId, obj: MemId) -> bool {
        let (Some(from), Some(to)) = (svfg.stmt_node(from), svfg.stmt_node(to)) else {
            return false;
        };
        let mut seen = vec![false; svfg.node_count()];
        let mut work = vec![from];
        seen[from.index()] = true;
        while let Some(n) = work.pop() {
            for &(succ, o) in svfg.succs(n) {
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

    /// The thread junction of `obj`.
    fn junction(svfg: &Svfg, obj: MemId) -> Option<NodeId> {
        let kind = NodeKind::ThreadJunction { obj };
        svfg.node_ids().find(|&n| svfg.kind(n) == kind)
    }

    fn stmt_where(m: &Module, f: &str, pred: impl Fn(&StmtKind) -> bool, skip: usize) -> StmtId {
        let fid = m.func_by_name(f).unwrap();
        m.stmts()
            .filter(|(_, s)| s.func == fid && pred(&s.kind))
            .nth(skip)
            .unwrap_or_else(|| panic!("no matching stmt in {f}"))
            .0
    }

    /// The edge rows of [`Svfg`] kept as plain vectors: each edge is
    /// appended to its rows unless a linear scan of its source's row finds
    /// it there already. `own` holds the lengths of the rows first merged.
    #[derive(Default)]
    struct RefRows {
        succ: Vec<Vec<(NodeId, MemId)>>,
        pred: Vec<Vec<(NodeId, MemId)>>,
        own: Vec<usize>,
    }

    impl RefRows {
        fn add_edges(&mut self, n: usize, edges: &[Edge]) -> usize {
            self.succ.resize(n, Vec::new());
            self.pred.resize(n, Vec::new());
            let mut added = 0;
            for &(f, t, o) in edges {
                if !self.succ[f.index()].contains(&(t, o)) {
                    self.succ[f.index()].push((t, o));
                    self.pred[t.index()].push((f, o));
                    added += 1;
                }
            }
            added
        }
    }

    /// Seeded random batches merged into random graphs match the
    /// reference rows: on an empty graph, as [`Svfg::build`] merges, and
    /// on a built one, as the thread-edge insertion merges. The batches
    /// repeat edges, carry edges already present, edges onto nodes
    /// created for them and runs of objects between one pair of nodes,
    /// and some are empty.
    #[test]
    fn edge_merge_matches_linear_scan_reference() {
        use fsam_ir::rng::SmallRng;
        let (_, _, base) = build("func main() {\nentry:\n  ret\n}");
        for seed in 0..40 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut g = base.clone();
            g.nodes.clear();
            g.succ = Arc::default();
            g.pred = Arc::default();
            let mut reference = RefRows::default();
            let objs = rng.gen_range(1..24u32);
            for batch in 0..6 {
                // New nodes, which this batch's edges may reach or leave.
                for _ in 0..rng.gen_range(0..12usize) {
                    g.nodes.push(NodeKind::ThreadJunction {
                        obj: MemId::new(g.nodes.len() as u32),
                    });
                }
                let n = g.nodes.len();
                let mut edges: Vec<Edge> = Vec::new();
                if n > 0 && !rng.gen_bool(0.15) {
                    for _ in 0..rng.gen_range(0..4 * n) {
                        let pick = |rng: &mut SmallRng| NodeId::from_index(rng.gen_range(0..n));
                        let (f, t) = (pick(&mut rng), pick(&mut rng));
                        edges.push((f, t, MemId::new(rng.gen_range(0..objs))));
                        if rng.gen_bool(0.2) {
                            let again = edges[rng.gen_range(0..edges.len())];
                            edges.push(again);
                        }
                    }
                    // A run of objects between one pair, as between two
                    // stores with wide `chi`s.
                    if rng.gen_bool(0.3) {
                        let (f, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
                        let (f, t) = (NodeId::from_index(f), NodeId::from_index(t));
                        let run = (0..objs).rev().step_by(rng.gen_range(1..3));
                        edges.extend(run.map(|o| (f, t, MemId::new(o))));
                    }
                    // Edges already present.
                    for r in reference.succ.iter().enumerate().take(n / 2) {
                        let f = NodeId::from_index(r.0);
                        edges.extend(r.1.iter().take(2).map(|&(t, o)| (f, t, o)));
                    }
                }
                let added = g.add_edges(&edges);
                assert_eq!(added, reference.add_edges(n, &edges), "seed {seed}");
                if batch == 0 {
                    // As the build does: every edge so far is the graph's own.
                    g.own = (0..n).map(|i| g.succ.row(i).len() as u32).collect();
                    reference.own = reference.succ.iter().map(Vec::len).collect();
                }
                for i in 0..n {
                    let v = NodeId::from_index(i);
                    assert_eq!(g.succs(v), &reference.succ[i][..], "seed {seed} succ {i}");
                    assert_eq!(g.preds(v), &reference.pred[i][..], "seed {seed} pred {i}");
                    let own = reference.own.get(i).copied().unwrap_or(0);
                    for &(t, _) in &reference.succ[i] {
                        let thread = reference.succ[i][own..].iter().any(|e| e.0 == t);
                        assert_eq!(g.is_thread_edge(v, t), thread, "seed {seed} own {i}");
                    }
                }
            }
        }
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
        assert!(reaches(&svfg, s1, s2, g));
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
        assert!(reaches(&svfg, s1, s2, g));
        assert!(reaches(&svfg, s2, s3, g));
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
        assert!(reaches(&svfg, s_l, load, g));
        assert!(reaches(&svfg, s_r, load, g));
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
        assert!(reaches(&svfg, s1, callee_load, g), "def flows into callee");
        assert!(
            reaches(&svfg, s1, s2, g),
            "def survives the (read-only) call"
        );
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
        assert!(reaches(&svfg, sw, load, g));
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
        assert!(reaches(&svfg, s1, s4, o), "s1 -> s4 (into forked routine)");
        assert!(reaches(&svfg, s4, s5, o), "s4 -> s5 (inside foo)");
        assert!(reaches(&svfg, s2, s3, o), "s2 -> s3");
        // Fig 6(c): fork bypass — s1 reaches s2 even though foo stores o.
        assert!(reaches(&svfg, s1, s2, o), "fork-related bypass edge");
        // Fig 6(d): join side effect — s4 reaches s3.
        assert!(reaches(&svfg, s4, s3, o), "join-related def-use edge");
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
            !reaches(&svfg, s_l1, load_r, g),
            "sibling-arm leak (first def)"
        );
        assert!(
            !reaches(&svfg, s_l2, load_r, g),
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
        let one = [group(g, &[sw], &[sl])];
        assert_eq!(svfg.insert_thread_edges_grouped(&one).edges_added, 1);
        let again = svfg.insert_thread_edges_grouped(&one);
        assert_eq!(again.edges_added, 0, "deduplicated");
        assert_eq!(svfg.stats.edges, before + 1);
        assert_eq!(svfg.stats.thread_edges, 1);
        assert!(reaches(&svfg, sw, sl, g));
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
            naive.insert_thread_edges_grouped(&[group(o, &[s], &[a])]);
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
            assert!(
                reaches(&grouped, s, a, o),
                "grouped must keep {s:?} -> {a:?}"
            );
            assert!(reaches(&naive, s, a, o));
        }
        assert_eq!(grouped.stats.thread_edges, 4, "small product stays direct");
    }

    #[test]
    fn grouped_insertion_counts_the_nodes_it_adds() {
        let (m, _, mut svfg, g) = interference_world();
        let sw0 = stmt_where(&m, "worker", |k| matches!(k, StmtKind::Store { .. }), 0);
        // A 9×9 product of statements the base graph lacks: one junction
        // and 17 new statement nodes.
        let hi = m.stmt_count() as u32;
        let stores: Vec<StmtId> = (0..9)
            .map(|i| if i == 0 { sw0 } else { StmtId::new(hi + i) })
            .collect();
        let accesses: Vec<StmtId> = (0..9).map(|i| StmtId::new(hi + 100 + i)).collect();
        let before = svfg.node_count();
        assert_eq!(svfg.stats.nodes, before);
        svfg.insert_thread_edges_grouped(&[group(g, &stores, &accesses)]);
        assert_eq!(svfg.node_count(), before + 1 + 8 + 9);
        assert_eq!(svfg.stats.nodes, svfg.node_count());
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
        assert!(reaches(&svfg, sw0, sl0, g));
        assert!(reaches(&svfg, sw1, sl1, g));
        assert!(!reaches(&svfg, sw0, sl1, g), "classes must not be merged");
        assert!(!reaches(&svfg, sw1, sl0, g), "classes must not be merged");
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
        let junction = junction(&svfg, g).expect("large product must route through a junction");
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
                assert!(reaches(&svfg, s, a, g));
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
        let junction = junction(&svfg, g).unwrap();
        for &s in s1.iter().chain(&s2) {
            let n = svfg.stmt_node(s).unwrap();
            assert!(svfg.is_thread_edge(n, junction));
        }
        assert!(
            reaches(&svfg, s1[0], a2[0], g),
            "shared junction joins classes"
        );
        assert!(
            reaches(&svfg, s2[0], a1[0], g),
            "shared junction joins classes"
        );
    }

    /// An access in two large classes on one object reaches the shared
    /// junction once: the duplicate junction → access edge is dropped, and
    /// the counters count only the edges appended.
    #[test]
    fn shared_junction_counts_only_appended_edges() {
        let (m, _, mut svfg, g) = interference_world();
        let hi = m.stmt_count() as u32;
        let ids = |base: u32| {
            (0..9)
                .map(|i| StmtId::new(hi + base + i))
                .collect::<Vec<_>>()
        };
        let (s1, a1, s2, mut a2) = (ids(0), ids(100), ids(200), ids(300));
        a2[0] = a1[0];
        let before = svfg.stats.edges;
        let outcome = svfg.insert_thread_edges_grouped(&[group(g, &s1, &a1), group(g, &s2, &a2)]);
        let present: usize = svfg.node_ids().map(|n| svfg.succs(n).len()).sum();
        assert_eq!((outcome.classes, outcome.junctions), (2, 1));
        assert_eq!(outcome.edges_added, 35, "9 + 9 + 9 + 8 distinct edges");
        assert_eq!(present - before, 35);
        assert_eq!(svfg.stats.edges, present);
        assert_eq!(svfg.stats.thread_edges, 35);
    }
}
