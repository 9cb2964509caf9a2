//! The sparse flow-sensitive points-to solver — paper §3.4, Figure 10.
//!
//! Points-to facts propagate **only along the pre-computed def-use chains**:
//! top-level variables through the partial-SSA def-use maps (rules
//! `P-ADDR`/`P-COPY`/`P-PHI`), address-taken objects through the SVFG's
//! indirect edges (`P-LOAD`/`P-STORE`), with strong updates at stores whose
//! pointer resolves to a unique singleton object (`P-SU/WU` and the `kill`
//! function). Thread-aware edges appended by the interference phases are
//! ordinary indirect edges here — which is exactly why a strong update
//! remains sound: `[THREAD-VF]` added a direct edge from every MHP store to
//! every MHP access, so a kill at one store cannot hide another thread's
//! write.
//!
//! # Difference propagation
//!
//! Each worklist item carries only the **delta** since its last visit
//! (Hardekopf–Lin style): when a variable or object definition grows, the
//! new members alone flow along its def-use edges into per-target pending
//! deltas, and a visited item unions its pending delta into its current set.
//! Full recompute-and-replace survives solely as the fallback for the
//! non-monotone cases introduced by strong updates — a store's output
//! *shrinks* when its pointer's points-to set becomes a known singleton.
//! Each store tracks its pointer through a `∅ → singleton → multi` phase
//! flag (`StorePhase`); only the phase transitions (and explicit
//! non-monotone replacements, which cascade a recompute downstream) fall
//! back to re-evaluating a definition from its complete inputs, so the
//! fallback fires a bounded number of times per store. At quiescence every
//! dataflow equation holds exactly, so the solver reaches the same fixpoint
//! as pure recompute-and-replace — [`crate::recompute`] keeps that solver
//! as the equivalence oracle.
//!
//! # Level order
//!
//! Every worklist item is keyed on the topological *depth* of its SCC
//! ([`fsam_mssa::topo::TopoOrder::level`]) in the condensation of the
//! solver's own item graph: variables and slots, with an edge wherever a
//! change of one item can push another — a variable's dependencies, and
//! a slot's resolved successors below. Levels are small dense integers,
//! so the worklist is one bucket of item ids per level with a cursor at
//! the lowest non-empty one. The solver drains one level per round,
//! visiting its items in ascending id order; items pushed meanwhile
//! re-enter the queue for a later round. Definitions are processed before
//! their transitive uses wherever the graph is acyclic, and because
//! independent SCCs share a depth, a whole band of them drains together
//! instead of one component at a time — on the suite this needs a
//! fraction of the worklist items the total topological order needs. The
//! schedule is sequential and has no knobs, so the result never depends
//! on the pipeline's worker count.
//!
//! # Resolved tables
//!
//! The SVFG carries its def-use chains resolved onto slots
//! ([`SlotTables`]), so `Solver::new` allocates only solve state: values,
//! pending deltas, modes, store phases, levels and the per-variable
//! sources and dependencies (one counted CSR table each). A slot's
//! successors are target slots (gated by their store's strong phase) or
//! loads, in `svfg.succs` order, so a visit walks its own range with no
//! label filter, node-kind match or slot search.
//!
//! # Interned points-to store
//!
//! Every set the solver holds lives in a [`PtsPool`] of hash-consed
//! immutable sets, addressed by a 4-byte [`PtsRef`]: the value of each
//! variable and object definition, each item's pending delta and each
//! visit's fresh delta. Updates are copy-on-write handle swaps. A visit
//! takes its pending handle, and [`PtsPool::union_delta`] returns the grown
//! value and the fresh members as handles; forwarding a fresh delta unions
//! its handle into each target's pending handle with the memoized
//! [`PtsPool::union`]. A delta that arrives at an empty pending slot, or
//! that is disjoint from the value it grows, flows on as the same handle,
//! so a chain of merge slots copies 4 bytes per hop instead of a set. Sets
//! built member by member (a Gep's fields, a load's pulled definitions, a
//! store slot's pulled input, a recompute's new value) are interned once
//! and then unioned like any other delta. The pool is compacted down to the
//! live values when the solver finishes, so the final
//! [`SparseResult::pts_bytes`] reflects the retained state while
//! [`SolverStats::peak_pts_bytes`] records the in-flight peak.

use std::collections::HashMap;

use fsam_andersen::PreAnalysis;
use fsam_ir::stmt::{StmtKind, Terminator};
use fsam_ir::{Module, StmtId, VarId};
use fsam_mssa::topo::condense;
use fsam_mssa::{Csr, NodeId as VfNodeId, SlotKind, SlotSucc, SlotTables, Svfg};
use fsam_pts::{MemId, PtsPool, PtsRef, PtsSet};
use fsam_trace::{FieldValue, Recorder, SpanId};

use crate::queue::LevelQueue;

/// Solver statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Worklist items processed.
    pub processed: usize,
    /// Items processed in delta mode (pending difference only).
    pub delta_items: usize,
    /// Items processed in recompute mode (full re-evaluation fallback).
    pub recompute_items: usize,
    /// Store evaluations that applied a strong update.
    pub strong_updates: usize,
    /// Store evaluations that applied a weak update.
    pub weak_updates: usize,
    /// Final points-to pairs over top-level variables.
    pub var_pts_entries: usize,
    /// Final points-to pairs at object definitions.
    pub def_pts_entries: usize,
    /// Peak heap bytes of the points-to store before end-of-solve
    /// compaction (pool plus the per-variable/per-definition tables). The
    /// pool then also holds every pending and fresh delta the solve
    /// interned, and its union memo.
    pub peak_pts_bytes: usize,
}

/// The result of the sparse flow-sensitive analysis.
///
/// `PartialEq` compares the complete points-to state (per-variable and
/// per-definition sets plus statistics) — the driver-equivalence tests use
/// it to check that staged and standalone runs agree exactly. Use
/// [`points_to_eq`](SparseResult::points_to_eq) to compare sets only
/// (e.g. across solvers whose item counts legitimately differ).
#[derive(Debug)]
pub struct SparseResult {
    pool: PtsPool,
    pt_vars: Vec<PtsRef>,
    /// Row `n`: the objects SVFG node `n` defines, ascending, one slot each.
    slots: Csr<MemId>,
    slot_out: Vec<PtsRef>,
    /// Statistics.
    pub stats: SolverStats,
}

impl SparseResult {
    /// Flow-sensitive points-to set of a top-level variable (its unique SSA
    /// definition makes one set per variable flow-sensitive).
    pub fn pt_var(&self, v: VarId) -> &PtsSet {
        self.pool.get(self.pt_vars[v.index()])
    }

    /// Points-to set of object `o` immediately after its definition at SVFG
    /// node `n` (`pt(s, o)` of Figure 10).
    pub fn pt_def(&self, n: VfNodeId, o: MemId) -> &PtsSet {
        static EMPTY: PtsSet = PtsSet::new();
        let k = (n.index() + 1 < self.slots.base.len()).then(|| self.slots.find(n.index(), o));
        k.flatten()
            .map_or(&EMPTY, |k| self.pool.get(self.slot_out[k]))
    }

    /// Heap bytes held by the final points-to state (memory metering): the
    /// compacted pool plus the dense per-variable and per-definition tables.
    pub fn pts_bytes(&self) -> usize {
        self.pool.heap_bytes() + table_bytes(&self.pt_vars, &self.slots, &self.slot_out)
    }

    /// Whether two results assign the same points-to sets everywhere,
    /// ignoring statistics. Definitions holding the empty set compare equal
    /// to absent definitions.
    pub fn points_to_eq(&self, other: &SparseResult) -> bool {
        if self.pt_vars.len() != other.pt_vars.len() {
            return false;
        }
        for (&a, &b) in self.pt_vars.iter().zip(other.pt_vars.iter()) {
            if self.pool.get(a) != other.pool.get(b) {
                return false;
            }
        }
        let nodes = self.slots.base.len().max(other.slots.base.len()) - 1;
        for n in 0..nodes {
            let mut a = self.nonempty_defs_at(n);
            let mut b = other.nonempty_defs_at(n);
            loop {
                match (a.next(), b.next()) {
                    (None, None) => break,
                    (Some((oa, sa)), Some((ob, sb))) if oa == ob && sa == sb => {}
                    _ => return false,
                }
            }
        }
        true
    }

    /// The non-empty `(object, set)` definitions at node `n`, ascending.
    fn nonempty_defs_at(&self, n: usize) -> impl Iterator<Item = (MemId, &PtsSet)> + '_ {
        let base = &self.slots.base;
        let ks = if n + 1 < base.len() {
            base[n]..base[n + 1]
        } else {
            0..0
        };
        ks.filter_map(move |k| {
            let set = self.pool.get(self.slot_out[k as usize]);
            (!set.is_empty()).then_some((self.slots.items[k as usize], set))
        })
    }

    /// The interned pool backing every points-to set in this result.
    ///
    /// Exposed (together with [`var_handles`](SparseResult::var_handles) and
    /// [`slot_tables`](SparseResult::slot_tables)) so the snapshot layer can
    /// serialize the result as flat tables of handles; [`PtsPool::sets`] is
    /// the pool's stable serialization order.
    pub fn pool(&self) -> &PtsPool {
        &self.pool
    }

    /// Per-variable points-to handles into [`pool`](SparseResult::pool),
    /// indexed by [`VarId::index`].
    pub fn var_handles(&self) -> &[PtsRef] {
        &self.pt_vars
    }

    /// The per-definition slot tables `(slot_base, slot_obj, slot_out)`:
    /// node `n`'s definitions occupy slots `slot_base[n]..slot_base[n + 1]`,
    /// each defining `slot_obj[k]` with output set `slot_out[k]`.
    pub fn slot_tables(&self) -> (&[u32], &[MemId], &[PtsRef]) {
        (&self.slots.base, &self.slots.items, &self.slot_out)
    }

    /// Rebuilds a result from serialized tables, validating every invariant
    /// the accessors rely on: `slot_base` non-empty, monotone and ending at
    /// the slot count, `slot_obj`/`slot_out` the same length, objects
    /// strictly ascending within each node's range (binary-search order),
    /// and every handle interned in `pool`. Violations are reported as
    /// messages, never panics, so corrupted snapshots fail closed.
    pub fn from_tables(
        pool: PtsPool,
        pt_vars: Vec<PtsRef>,
        slot_base: Vec<u32>,
        slot_obj: Vec<MemId>,
        slot_out: Vec<PtsRef>,
        stats: SolverStats,
    ) -> Result<SparseResult, String> {
        if slot_base.is_empty() {
            return Err("slot_base must hold at least the terminating entry".into());
        }
        if slot_obj.len() != slot_out.len() {
            return Err(format!(
                "slot tables disagree: {} objects vs {} outputs",
                slot_obj.len(),
                slot_out.len()
            ));
        }
        if *slot_base.last().unwrap() as usize != slot_obj.len() {
            return Err(format!(
                "slot_base ends at {} but there are {} slots",
                slot_base.last().unwrap(),
                slot_obj.len()
            ));
        }
        for w in slot_base.windows(2) {
            if w[0] > w[1] {
                return Err("slot_base is not monotone".into());
            }
        }
        for n in 0..slot_base.len() - 1 {
            let (s, e) = (slot_base[n] as usize, slot_base[n + 1] as usize);
            if !slot_obj[s..e].windows(2).all(|w| w[0] < w[1]) {
                return Err(format!(
                    "slot objects of node {n} are not strictly ascending"
                ));
            }
        }
        for &r in pt_vars.iter().chain(slot_out.iter()) {
            if pool.handle(r.index()).is_none() {
                return Err(format!(
                    "handle p{} out of range (pool holds {} sets)",
                    r.index(),
                    pool.set_count()
                ));
            }
        }
        Ok(SparseResult {
            pool,
            pt_vars,
            slots: Csr {
                base: slot_base,
                items: slot_obj,
            },
            slot_out,
            stats,
        })
    }

    /// Builds a result from loose state (the recompute oracle's shape).
    pub(crate) fn from_state(
        pt_var_sets: Vec<PtsSet>,
        pt_defs: HashMap<(VfNodeId, MemId), PtsSet>,
        node_count: usize,
        stats: SolverStats,
    ) -> SparseResult {
        let mut pool = PtsPool::new();
        let pt_vars = pt_var_sets.into_iter().map(|s| pool.intern(s)).collect();
        let mut keys: Vec<(VfNodeId, MemId)> = pt_defs.keys().copied().collect();
        keys.sort_unstable();
        let mut result = SparseResult {
            slots: Csr::from_pairs(node_count, keys.iter().map(|&(n, o)| (n.index(), o))),
            slot_out: keys
                .iter()
                .map(|k| pool.intern(pt_defs[k].clone()))
                .collect(),
            pool,
            pt_vars,
            stats,
        };
        result.stats.peak_pts_bytes = result.pts_bytes();
        result
    }
}

impl PartialEq for SparseResult {
    fn eq(&self, other: &SparseResult) -> bool {
        self.stats == other.stats && self.points_to_eq(other)
    }
}

impl Eq for SparseResult {}

fn table_bytes(pt_vars: &[PtsRef], slots: &Csr<MemId>, slot_out: &[PtsRef]) -> usize {
    std::mem::size_of_val(pt_vars)
        + std::mem::size_of_val(&slots.base[..])
        + std::mem::size_of_val(&slots.items[..])
        + std::mem::size_of_val(slot_out)
}

/// Runs the sparse solver over the (thread-aware) SVFG.
pub fn solve(module: &Module, pre: &PreAnalysis, svfg: &Svfg) -> SparseResult {
    Solver::new(module, pre, svfg).run()
}

/// Runs the sparse solver with tracing: a `solve` span under `parent`
/// carrying the worklist counters (the `BENCH_solver.json` columns under
/// the `solve.` namespace) plus the pool's intern hit/miss totals. When
/// the recorder has explain events enabled, every points-to member
/// introduction is additionally recorded as a `prop` event — the
/// substrate for [`fsam_trace::why_points_to`].
pub fn solve_traced(
    module: &Module,
    pre: &PreAnalysis,
    svfg: &Svfg,
    rec: &Recorder,
    parent: Option<SpanId>,
) -> SparseResult {
    if !rec.is_enabled() {
        return solve(module, pre, svfg);
    }
    let span = rec.span_under(parent, "solve");
    let mut solver = Solver::new(module, pre, svfg);
    solver.trace = Some(rec);
    solver.trace_span = span.id();
    solver.trace_explain = rec.explain_enabled();
    let result = solver.run();
    export_solver_counters(&span, &result.stats);
    result
}

/// The sparse solve under its historical parallel entry point. The solve
/// is sequential: `threads` is accepted for API compatibility and no
/// longer affects the schedule or the result, which equals [`solve`]'s.
pub fn solve_par(module: &Module, pre: &PreAnalysis, svfg: &Svfg, _threads: usize) -> SparseResult {
    solve(module, pre, svfg)
}

/// Exports a [`SolverStats`] onto `span` with the canonical counter
/// names. Shared by the sparse solver and the recompute oracle so their
/// traces diff directly.
pub(crate) fn export_solver_counters(span: &fsam_trace::Span<'_>, s: &SolverStats) {
    span.counter("solve.worklist_items", s.processed as u64);
    span.counter("solve.delta_items", s.delta_items as u64);
    span.counter("solve.recompute_items", s.recompute_items as u64);
    span.counter("solve.strong_updates", s.strong_updates as u64);
    span.counter("solve.weak_updates", s.weak_updates as u64);
    span.counter("solve.var_pts_entries", s.var_pts_entries as u64);
    span.counter("solve.def_pts_entries", s.def_pts_entries as u64);
    span.counter("solve.peak_pts_bytes", s.peak_pts_bytes as u64);
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

/// A forward dependency of a variable: what a growth of `pt(v)` feeds.
#[derive(Copy, Clone, Debug)]
enum VarDep {
    /// `tgt ⊇ v` directly.
    Flow(VarId),
    /// `tgt ⊇ field(v, f)`.
    Gep(VarId, u32),
    /// `v` is the pointer of the load at `.0` defining `.1`.
    LoadPtr(StmtId, VarId),
    /// `v` is the pointer of the store at `.0`.
    StorePtr(StmtId),
    /// `v` is the stored value of the store at `.0`.
    StoreVal(StmtId),
}

/// The observed shape of a store pointer's points-to set. Only the
/// transitions of this flag (∅ → singleton → multi, plus non-monotone
/// replacements) trigger the recompute fallback at the store's slots.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum StorePhase {
    /// `pt(p) = ∅`: nothing written yet, every slot passes its input.
    Empty,
    /// `pt(p) = {o}` with `o` a singleton object: slot `o` is strong.
    Strong(MemId),
    /// Anything else: written slots update weakly.
    Weak,
}

/// Worklist modes. `RECOMP` supersedes `DELTA` for a queued item.
const DELTA: u8 = 1;
const RECOMP: u8 = 2;

struct Solver<'a> {
    module: &'a Module,
    pre: &'a PreAnalysis,
    svfg: &'a Svfg,
    /// The graph's slots, one per object definition (see [`SlotTables`]).
    slots: &'a SlotTables,
    pool: PtsPool,
    pt_vars: Vec<PtsRef>,
    /// Row `v`: variable `v`'s sources, and its dependencies.
    sources: Csr<VarSource>,
    deps: Csr<VarDep>,
    slot_out: Vec<PtsRef>,
    /// Per-statement store phase (meaningful for stores only).
    store_phase: Vec<StorePhase>,
    /// Pending deltas, one pool handle per variable / per slot.
    pending_var: Vec<PtsRef>,
    pending_slot: Vec<PtsRef>,
    /// Queued mode per item (vars `0..V`, then slots `V..V+K`).
    mode: Vec<u8>,
    queue: LevelQueue,
    v_count: usize,
    stats: SolverStats,
    /// Tracing sink (None when disabled — the hot loop pays nothing).
    trace: Option<&'a Recorder>,
    /// Span the counters and prop events attach to.
    trace_span: Option<SpanId>,
    /// Whether to record per-member `prop` introduction events.
    trace_explain: bool,
}

impl<'a> Solver<'a> {
    /// Builds a solver whose worklist is keyed on the per-SCC depth of
    /// every item (see the module docs).
    fn new(module: &'a Module, pre: &'a PreAnalysis, svfg: &'a Svfg) -> Self {
        let v_count = module.var_count();
        let k_count = svfg.slots().kind.len();
        let (sources, deps) = Self::build_sources(module, pre);
        let mut solver = Solver {
            module,
            pre,
            svfg,
            slots: svfg.slots(),
            pool: PtsPool::new(),
            pt_vars: vec![PtsRef::EMPTY; v_count],
            sources,
            deps,
            slot_out: vec![PtsRef::EMPTY; k_count],
            store_phase: vec![StorePhase::Empty; module.stmt_count()],
            pending_var: vec![PtsRef::EMPTY; v_count],
            pending_slot: vec![PtsRef::EMPTY; k_count],
            mode: vec![0; v_count + k_count],
            queue: LevelQueue::new(Vec::new()),
            v_count,
            stats: SolverStats::default(),
            trace: None,
            trace_span: None,
            trace_explain: false,
        };
        solver.queue = LevelQueue::new(solver.levels());
        solver
    }

    /// The topological level of every item: its SCC's depth in the
    /// condensation of the item graph the solve propagates over, whose
    /// edges are [`dep_items`](Self::dep_items) and
    /// [`succ_item`](Self::succ_item). The graph is filled into one flat
    /// CSR table first, so the condensation walks plain slices.
    fn levels(&self) -> Vec<u32> {
        let vars = (self.deps.pairs())
            .flat_map(|(v, dep)| self.dep_items(dep).map(move |id| (v, id as u32)));
        let slots =
            (self.slots.succ.pairs()).map(|(k, t)| (self.v_count + k, self.succ_item(t) as u32));
        let adj = Csr::from_pairs(self.mode.len(), vars.chain(slots));
        condense(self.mode.len(), |u| adj.row(u as usize).iter().copied()).level
    }

    /// Collects the complete source list and forward dependencies per
    /// variable, each one counted CSR table.
    fn build_sources(module: &Module, pre: &PreAnalysis) -> (Csr<VarSource>, Csr<VarDep>) {
        let mut var_sources: Vec<(VarId, VarSource)> = Vec::new();
        let mut var_deps: Vec<(VarId, VarDep)> = Vec::new();
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
                    var_sources.push((*dst, VarSource::Obj(m)));
                }
                StmtKind::Copy { dst, src } => {
                    var_sources.push((*dst, VarSource::Var(*src)));
                    var_deps.push((*src, VarDep::Flow(*dst)));
                }
                StmtKind::Phi { dst, arms } => {
                    for arm in arms {
                        var_sources.push((*dst, VarSource::Var(arm.var)));
                        var_deps.push((arm.var, VarDep::Flow(*dst)));
                    }
                }
                StmtKind::Load { dst, ptr } => {
                    var_sources.push((*dst, VarSource::LoadAt(sid, *ptr)));
                    var_deps.push((*ptr, VarDep::LoadPtr(sid, *dst)));
                }
                StmtKind::Gep { dst, base, field } => {
                    var_sources.push((*dst, VarSource::Gep(*base, *field)));
                    var_deps.push((*base, VarDep::Gep(*dst, *field)));
                }
                StmtKind::Store { ptr, val } => {
                    var_deps.push((*ptr, VarDep::StorePtr(sid)));
                    var_deps.push((*val, VarDep::StoreVal(sid)));
                }
                StmtKind::Call { args, dst, .. } => {
                    for callee in cg.targets(sid) {
                        let params = &module.func(callee).params;
                        for (&a, &p) in args.iter().zip(params.iter()) {
                            var_sources.push((p, VarSource::Var(a)));
                            var_deps.push((a, VarDep::Flow(p)));
                        }
                        if let Some(d) = dst {
                            if !module.func(callee).is_external {
                                for &r in &returns[callee.index()] {
                                    var_sources.push((*d, VarSource::Var(r)));
                                    var_deps.push((r, VarDep::Flow(*d)));
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
                    var_sources.push((*dst, VarSource::Obj(m)));
                    for callee in cg.targets(sid) {
                        let params = &module.func(callee).params;
                        if let (Some(&a), Some(&p)) = (arg.as_ref(), params.first()) {
                            var_sources.push((p, VarSource::Var(a)));
                            var_deps.push((a, VarDep::Flow(p)));
                        }
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
        let n = module.var_count();
        (
            Csr::from_pairs(n, var_sources.iter().map(|&(v, s)| (v.index(), s))),
            Csr::from_pairs(n, var_deps.iter().map(|&(v, d)| (v.index(), d))),
        )
    }

    /// The SVFG node of statement `sid`, if it has one.
    fn node_of(&self, sid: StmtId) -> Option<usize> {
        self.svfg.stmt_node(sid).map(VfNodeId::index)
    }

    /// The node of store `sid` and its slot range `s..e`; `None` when the
    /// store defines no slot.
    fn store_slots(&self, sid: StmtId) -> Option<(usize, usize, usize)> {
        let n = self.node_of(sid)?;
        let (s, e) = (
            self.slots.obj.base[n] as usize,
            self.slots.obj.base[n + 1] as usize,
        );
        (s < e).then_some((n, s, e))
    }

    /// The items a change of a variable can push through `dep`: the
    /// target variable, or every slot of the store.
    fn dep_items(&self, dep: VarDep) -> std::ops::Range<usize> {
        match dep {
            VarDep::Flow(t) | VarDep::Gep(t, _) | VarDep::LoadPtr(_, t) => t.index()..t.index() + 1,
            VarDep::StorePtr(sid) | VarDep::StoreVal(sid) => match self.store_slots(sid) {
                Some((_, s, e)) => self.v_count + s..self.v_count + e,
                None => 0..0,
            },
        }
    }

    /// The item a change of a slot can push through successor `t`.
    fn succ_item(&self, t: SlotSucc) -> usize {
        match t {
            SlotSucc::Slot { slot, .. } => self.v_count + slot as usize,
            SlotSucc::Load { dst, .. } => dst.index(),
        }
    }

    fn push_delta(&mut self, id: usize) {
        if self.mode[id] == 0 {
            self.mode[id] = DELTA;
        }
        self.queue.push(id);
    }

    fn push_recomp(&mut self, id: usize) {
        self.mode[id] = RECOMP;
        self.queue.push(id);
    }

    // ---- explain instrumentation ------------------------------------------
    //
    // When `trace_explain` is on, every points-to member *introduction* is
    // recorded as a `prop` event (the field contract lives in
    // `fsam_trace::explain`). Delta sites emit at the producer when they
    // push a pending delta; recompute sites replay their full inputs after
    // re-evaluation. Together that guarantees coverage: every member of
    // every final set has at least one recorded derivation, so
    // `why_points_to` can always walk a true fact back to its seed.

    /// Records one `prop` event: member `obj` arrived at the destination
    /// (`dst_var` selects variable vs. SVFG-node space) from the source.
    #[allow(clippy::too_many_arguments)]
    fn emit_prop(
        &self,
        dst_var: bool,
        dst: u64,
        obj: MemId,
        src_kind: &'static str,
        src: u64,
        src_obj: MemId,
        via: &'static str,
    ) {
        let Some(rec) = self.trace else { return };
        rec.point(
            self.trace_span,
            "prop",
            vec![
                (
                    "dst_kind".into(),
                    if dst_var { "var" } else { "def" }.into(),
                ),
                ("dst".into(), FieldValue::U64(dst)),
                ("obj".into(), FieldValue::U64(u64::from(obj.raw()))),
                ("src_kind".into(), src_kind.into()),
                ("src".into(), FieldValue::U64(src)),
                ("src_obj".into(), FieldValue::U64(u64::from(src_obj.raw()))),
                ("via".into(), via.into()),
            ],
        );
    }

    /// `merge`/`load` steps become `thread` when the SVFG edge they ride
    /// was appended by the interference phases.
    fn via_of(&self, from_node: usize, to_node: usize, fallback: &'static str) -> &'static str {
        if self.svfg.is_thread_edge(
            VfNodeId::from_index(from_node),
            VfNodeId::from_index(to_node),
        ) {
            "thread"
        } else {
            fallback
        }
    }

    /// Records `set`'s members arriving at `dst` along the SVFG edge
    /// `from → to`.
    fn trace_flow(
        &self,
        dst_var: bool,
        dst: u64,
        from: usize,
        to: usize,
        set: &PtsSet,
        fallback: &'static str,
    ) {
        let via = self.via_of(from, to, fallback);
        for m in set.iter() {
            self.emit_prop(dst_var, dst, m, "def", from as u64, m, via);
        }
    }

    /// Replays every reaching definition of `o` at `node` into `dst`.
    fn trace_defs(&self, dst_var: bool, dst: u64, node: usize, o: MemId, fallback: &'static str) {
        for &pk in self.slots.reaching(node, o) {
            let pn = self.slots.node[pk as usize] as usize;
            let set = self.pool.get(self.slot_out[pk as usize]);
            self.trace_flow(dst_var, dst, pn, node, set, fallback);
        }
    }

    /// Records `set`'s members reaching variable `dst` from variable `src`,
    /// by copy or, with `gep`, each mapped to that field.
    fn trace_vars(&self, dst: VarId, src: VarId, set: &PtsSet, gep: Option<u32>) {
        for o in set.iter() {
            let (m, via) = match gep {
                Some(field) => (self.pre.objects().field_existing(o, field), "gep"),
                None => (o, "copy"),
            };
            self.emit_prop(
                true,
                dst.index() as u64,
                m,
                "var",
                src.index() as u64,
                o,
                via,
            );
        }
    }

    /// Records `set` (from the stored value `val`) written at store node `n`.
    fn trace_store(&self, n: usize, val: VarId, set: &PtsSet) {
        for m in set.iter() {
            self.emit_prop(false, n as u64, m, "var", val.index() as u64, m, "store");
        }
    }

    /// Replays `v`'s full source contributions as `prop` events (after a
    /// recompute re-evaluated it from scratch).
    fn trace_var_sources(&self, v: VarId) {
        for source in self.sources.row(v.index()) {
            match *source {
                VarSource::Obj(m) => {
                    self.emit_prop(
                        true,
                        v.index() as u64,
                        m,
                        "addr",
                        u64::from(m.raw()),
                        m,
                        "addr",
                    );
                }
                VarSource::Var(src) => {
                    self.trace_vars(v, src, self.pool.get(self.pt_vars[src.index()]), None);
                }
                VarSource::LoadAt(sid, ptr) => {
                    let Some(node) = self.node_of(sid) else {
                        continue;
                    };
                    for o in self.pool.get(self.pt_vars[ptr.index()]).iter() {
                        self.trace_defs(true, v.index() as u64, node, o, "load");
                    }
                }
                VarSource::Gep(base, field) => {
                    let set = self.pool.get(self.pt_vars[base.index()]);
                    self.trace_vars(v, base, set, Some(field));
                }
            }
        }
    }

    /// Replays slot `k`'s full input contributions as `prop` events (after
    /// a recompute re-evaluated it from scratch).
    fn trace_slot_inputs(&self, k: usize) {
        let n = self.slots.node[k] as usize;
        let o = self.slots.obj.items[k];
        let (written, strong, val) = match self.slots.kind[k] {
            SlotKind::Merge => (false, false, None),
            SlotKind::Store { ptr, val } => {
                let ptr_set = self.pool.get(self.pt_vars[ptr.index()]);
                (
                    ptr_set.contains(o),
                    ptr_set
                        .as_singleton()
                        .is_some_and(|s| self.pre.objects().is_singleton(s)),
                    Some(val),
                )
            }
        };
        if !(written && strong) {
            self.trace_defs(false, n as u64, n, o, "merge");
        }
        if written {
            let val = val.expect("written implies store");
            self.trace_store(n, val, self.pool.get(self.pt_vars[val.index()]));
        }
    }

    /// Unions the reaching definitions of `o` at node `n` into `acc`.
    fn union_pt_in(&self, node: usize, o: MemId, acc: &mut PtsSet) {
        for &pk in self.slots.reaching(node, o) {
            acc.union_in_place(self.pool.get(self.slot_out[pk as usize]));
        }
    }

    /// Merge of the reaching definitions of `o` at node `n`.
    fn pt_in(&self, node: usize, o: MemId) -> PtsSet {
        let mut set = PtsSet::new();
        self.union_pt_in(node, o, &mut set);
        set
    }

    /// Evaluates `v` from its full source list (the recompute equation).
    fn eval_var(&self, v: VarId) -> PtsSet {
        let mut new = PtsSet::new();
        for source in self.sources.row(v.index()) {
            match *source {
                VarSource::Obj(m) => {
                    new.insert(m);
                }
                VarSource::Var(src) => {
                    new.union_in_place(self.pool.get(self.pt_vars[src.index()]));
                }
                VarSource::LoadAt(sid, ptr) => {
                    if let Some(node) = self.node_of(sid) {
                        for o in self.pool.get(self.pt_vars[ptr.index()]).iter() {
                            self.union_pt_in(node, o, &mut new);
                        }
                    }
                }
                VarSource::Gep(base, field) => {
                    for o in self.pool.get(self.pt_vars[base.index()]).iter() {
                        new.insert(self.pre.objects().field_existing(o, field));
                    }
                }
            }
        }
        new
    }

    /// The phase of a store pointer's current points-to set.
    fn phase_of(&self, ptr: VarId) -> StorePhase {
        let set = self.pool.get(self.pt_vars[ptr.index()]);
        if set.is_empty() {
            StorePhase::Empty
        } else {
            match set.as_singleton() {
                Some(s) if self.pre.objects().is_singleton(s) => StorePhase::Strong(s),
                _ => StorePhase::Weak,
            }
        }
    }

    /// Delta visit of a variable: fold the pending delta in; forward only
    /// the genuinely new members.
    fn delta_var(&mut self, v: VarId) {
        let delta = std::mem::replace(&mut self.pending_var[v.index()], PtsRef::EMPTY);
        if delta == PtsRef::EMPTY {
            return;
        }
        let (new_ref, fresh) = self.pool.union_delta(self.pt_vars[v.index()], delta);
        if fresh == PtsRef::EMPTY {
            return;
        }
        self.pt_vars[v.index()] = new_ref;
        self.apply_var_growth(v, fresh);
    }

    /// Recompute visit of a variable: re-evaluate from the full source
    /// list. Growth degrades gracefully to a delta forward; a non-monotone
    /// replacement cascades recomputes downstream.
    fn recompute_var(&mut self, v: VarId) {
        let new = self.eval_var(v);
        let cur = self.pt_vars[v.index()];
        let new = self.pool.intern(new);
        if new == cur {
            return;
        }
        self.pt_vars[v.index()] = new;
        if self.trace_explain {
            self.trace_var_sources(v);
        }
        match self.growth(cur, new) {
            Some(fresh) => self.apply_var_growth(v, fresh),
            None => self.cascade_var_recompute(v),
        }
    }

    /// The new bits of a replacement `cur → new` that only grows
    /// (`new \ cur`); `None` when it drops a member.
    fn growth(&mut self, cur: PtsRef, new: PtsRef) -> Option<PtsRef> {
        let grows = self.pool.get(cur).is_subset(self.pool.get(new));
        grows.then(|| self.pool.union_delta(cur, new).1)
    }

    /// Accumulates `delta` into variable `t`'s pending delta and queues it.
    fn pend_var(&mut self, t: VarId, delta: PtsRef) {
        self.pending_var[t.index()] = self.pool.union(self.pending_var[t.index()], delta);
        self.push_delta(t.index());
    }

    /// Accumulates `delta` into slot `k`'s pending delta and queues it.
    fn pend_slot(&mut self, k: usize, delta: PtsRef) {
        self.pending_slot[k] = self.pool.union(self.pending_slot[k], delta);
        self.push_delta(self.v_count + k);
    }

    /// Forwards a growth of `pt(v)` by `fresh` along `v`'s dependencies.
    fn apply_var_growth(&mut self, v: VarId, fresh: PtsRef) {
        for i in self.deps.base[v.index()]..self.deps.base[v.index() + 1] {
            let dep = self.deps.items[i as usize];
            match dep {
                VarDep::Flow(t) => {
                    if self.trace_explain {
                        self.trace_vars(t, v, self.pool.get(fresh), None);
                    }
                    self.pend_var(t, fresh);
                }
                VarDep::Gep(t, field) => {
                    if self.trace_explain {
                        self.trace_vars(t, v, self.pool.get(fresh), Some(field));
                    }
                    let objects = self.pre.objects();
                    let fields = (self.pool.get(fresh).iter())
                        .map(|o| objects.field_existing(o, field))
                        .collect();
                    let fields = self.pool.intern(fields);
                    self.pend_var(t, fields);
                }
                VarDep::LoadPtr(sid, dst) => {
                    // The load now also reads the new objects: pull their
                    // full reaching definitions once; later growth arrives
                    // through the (now open) forward gate.
                    if let Some(node) = self.node_of(sid) {
                        let mut add = PtsSet::new();
                        for o in self.pool.get(fresh).iter() {
                            if self.trace_explain {
                                self.trace_defs(true, dst.index() as u64, node, o, "load");
                            }
                            self.union_pt_in(node, o, &mut add);
                        }
                        if !add.is_empty() {
                            let add = self.pool.intern(add);
                            self.pend_var(dst, add);
                        }
                    }
                }
                VarDep::StoreVal(sid) => self.on_store_val_growth(sid, fresh),
                VarDep::StorePtr(sid) => self.on_store_ptr_growth(sid, fresh),
            }
        }
    }

    /// Non-monotone replacement of `pt(v)`: everything it feeds must be
    /// re-evaluated from full inputs.
    fn cascade_var_recompute(&mut self, v: VarId) {
        for i in self.deps.base[v.index()]..self.deps.base[v.index() + 1] {
            let dep = self.deps.items[i as usize];
            if let VarDep::StorePtr(sid) = dep {
                if let StmtKind::Store { ptr, .. } = self.module.stmt(sid).kind {
                    self.store_phase[sid.index()] = self.phase_of(ptr);
                }
            }
            for id in self.dep_items(dep) {
                self.push_recomp(id);
            }
        }
    }

    /// `pt(val)` of the store at `sid` grew by `fresh`: every written slot's
    /// output contains `pt(val)` (exactly, for the strong slot; as one
    /// operand of the union otherwise), so the delta flows straight in.
    fn on_store_val_growth(&mut self, sid: StmtId, fresh: PtsRef) {
        let Some((n, s, e)) = self.store_slots(sid) else {
            return;
        };
        let SlotKind::Store { ptr, val } = self.slots.kind[s] else {
            return;
        };
        for k in s..e {
            if self
                .pool
                .contains(self.pt_vars[ptr.index()], self.slots.obj.items[k])
            {
                if self.trace_explain {
                    self.trace_store(n, val, self.pool.get(fresh));
                }
                self.pend_slot(k, fresh);
            }
        }
    }

    /// `pt(ptr)` of the store at `sid` grew by `fresh`: reclassify the
    /// slots. Only the `∅ → singleton` transition is non-monotone (the
    /// strong slot's output becomes exactly `pt(val)`); every other
    /// transition adds members and propagates as deltas.
    fn on_store_ptr_growth(&mut self, sid: StmtId, fresh: PtsRef) {
        let Some((n, s, e)) = self.store_slots(sid) else {
            return;
        };
        let SlotKind::Store { ptr, val } = self.slots.kind[s] else {
            return;
        };
        let old_phase = self.store_phase[sid.index()];
        let new_phase = self.phase_of(ptr);
        self.store_phase[sid.index()] = new_phase;
        match (old_phase, new_phase) {
            (StorePhase::Empty, StorePhase::Strong(tgt)) => {
                // The written slot flips from pass-through to kill:
                // incomparable, so re-evaluate it. Other slots stay
                // unwritten pass-throughs.
                if let Some(k) = self.slots.obj.find(n, tgt) {
                    self.push_recomp(self.v_count + k);
                }
            }
            (StorePhase::Empty | StorePhase::Weak, StorePhase::Weak) => {
                self.write_fresh_slots(n, s..e, val, fresh);
            }
            (StorePhase::Strong(prev), StorePhase::Weak) => {
                // The strong slot weakens: its output regains the reaching
                // definitions it was killing (their deltas were gated out
                // while strong, so pull the full current input).
                if let Some(k) = self.slots.obj.find(n, prev) {
                    if self.trace_explain {
                        self.trace_defs(false, n as u64, n, prev, "merge");
                    }
                    let add = self.pt_in(n, prev);
                    if !add.is_empty() {
                        let add = self.pool.intern(add);
                        self.pend_slot(k, add);
                    }
                }
                self.write_fresh_slots(n, s..e, val, fresh);
            }
            // Growth strictly enlarges pt(ptr), so it can never *become*
            // empty, stay a singleton, or turn back into one. Re-evaluate
            // everything if an unexpected transition ever shows up.
            _ => {
                for id in self.dep_items(VarDep::StorePtr(sid)) {
                    self.push_recomp(id);
                }
            }
        }
    }

    /// Newly written slots (objects in `fresh`) of the store at node `n`
    /// gain `pt(val)` on top of their inputs.
    fn write_fresh_slots(
        &mut self,
        n: usize,
        slots: std::ops::Range<usize>,
        val: VarId,
        fresh: PtsRef,
    ) {
        let val_ref = self.pt_vars[val.index()];
        if val_ref == PtsRef::EMPTY {
            return;
        }
        for k in slots {
            if self.pool.contains(fresh, self.slots.obj.items[k]) {
                if self.trace_explain {
                    self.trace_store(n, val, self.pool.get(val_ref));
                }
                self.pend_slot(k, val_ref);
            }
        }
    }

    /// Delta visit of a slot: fold the pending delta into its output.
    fn delta_slot(&mut self, k: usize) {
        let delta = std::mem::replace(&mut self.pending_slot[k], PtsRef::EMPTY);
        if delta == PtsRef::EMPTY {
            return;
        }
        if let SlotKind::Store { ptr, .. } = self.slots.kind[k] {
            let ptr_set = self.pool.get(self.pt_vars[ptr.index()]);
            if ptr_set.contains(self.slots.obj.items[k]) {
                if ptr_set
                    .as_singleton()
                    .is_some_and(|s| self.pre.objects().is_singleton(s))
                {
                    self.stats.strong_updates += 1;
                } else {
                    self.stats.weak_updates += 1;
                }
            }
        }
        let (new_ref, fresh) = self.pool.union_delta(self.slot_out[k], delta);
        if fresh == PtsRef::EMPTY {
            return;
        }
        self.slot_out[k] = new_ref;
        self.forward_delta(k, fresh);
    }

    /// Recompute visit of a slot: re-evaluate its equation from full
    /// inputs and replace the output.
    fn recompute_slot(&mut self, k: usize) {
        let n = self.slots.node[k] as usize;
        let o = self.slots.obj.items[k];
        let out = match self.slots.kind[k] {
            SlotKind::Merge => self.pt_in(n, o),
            SlotKind::Store { ptr, val } => {
                let (written, strong) = {
                    let ptr_set = self.pool.get(self.pt_vars[ptr.index()]);
                    (
                        ptr_set.contains(o),
                        ptr_set
                            .as_singleton()
                            .is_some_and(|s| self.pre.objects().is_singleton(s)),
                    )
                };
                if written && strong {
                    // kill(s, p) = {o}: the old contents die.
                    self.stats.strong_updates += 1;
                    self.pool.get(self.pt_vars[val.index()]).clone()
                } else {
                    let mut out = self.pt_in(n, o);
                    if written {
                        self.stats.weak_updates += 1;
                        out.union_in_place(self.pool.get(self.pt_vars[val.index()]));
                    }
                    out
                }
            }
        };
        if self.trace_explain {
            self.trace_slot_inputs(k);
        }
        self.replace_slot(k, out);
    }

    /// Replaces a slot's output; growth forwards a delta, a non-monotone
    /// replacement cascades recomputes.
    fn replace_slot(&mut self, k: usize, new: PtsSet) {
        let cur = self.slot_out[k];
        let new = self.pool.intern(new);
        if new == cur {
            return;
        }
        self.slot_out[k] = new;
        match self.growth(cur, new) {
            Some(fresh) => self.forward_delta(k, fresh),
            None => self.forward_recompute(k),
        }
    }

    /// Forwards `fresh` new members of slot `k`'s output to its resolved
    /// successors.
    fn forward_delta(&mut self, k: usize, fresh: PtsRef) {
        let (n, o) = (self.slots.node[k] as usize, self.slots.obj.items[k]);
        let slots = self.slots;
        for &succ in slots.succ.row(k) {
            match succ {
                // A strong slot's output is exactly pt(val): its reaching
                // definitions are killed, so their deltas must not leak
                // through.
                SlotSucc::Slot {
                    gate: Some(sid), ..
                } if self.store_phase[sid.index()] == StorePhase::Strong(o) => {}
                SlotSucc::Slot { slot, .. } => {
                    let j = slot as usize;
                    if self.trace_explain {
                        let to = self.slots.node[j] as usize;
                        self.trace_flow(false, to as u64, n, to, self.pool.get(fresh), "merge");
                    }
                    self.pend_slot(j, fresh);
                }
                // P-LOAD is gated on o ∈ pt(ptr); a later pointer growth
                // pulls the full input via LoadPtr.
                SlotSucc::Load { node, dst, ptr } => {
                    if self.pool.contains(self.pt_vars[ptr.index()], o) {
                        if self.trace_explain {
                            self.trace_flow(
                                true,
                                dst.index() as u64,
                                n,
                                node as usize,
                                self.pool.get(fresh),
                                "load",
                            );
                        }
                        self.pend_var(dst, fresh);
                    }
                }
            }
        }
    }

    /// Non-monotone replacement of slot `k`'s output: everything it feeds
    /// must re-evaluate from full inputs.
    fn forward_recompute(&mut self, k: usize) {
        let slots = self.slots;
        for &succ in slots.succ.row(k) {
            self.push_recomp(self.succ_item(succ));
        }
    }

    /// Seeds the worklist: every variable with at least one source. Slots
    /// need no seeds — store and merge outputs start empty and consistent,
    /// and every input change reaches them through the dependency edges.
    fn seed(&mut self) {
        for v in self.module.var_ids() {
            if !self.sources.row(v.index()).is_empty() {
                self.push_recomp(v.index());
            }
        }
    }

    /// Termination backstop: the delta/recompute split converges after the
    /// bounded strong/weak flips, but the bound is generous; a blow-out
    /// indicates an implementation bug and should fail loudly rather than
    /// spin forever.
    fn item_limit(&self) -> usize {
        50_000usize.saturating_mul(self.module.stmt_count() + self.svfg.node_count() + 64)
    }

    /// One worklist visit of `id` in (already-taken) mode `m`.
    fn visit(&mut self, id: usize, m: u8) {
        if id < self.v_count {
            let v = VarId::from_usize(id);
            if m == RECOMP {
                self.stats.recompute_items += 1;
                self.pending_var[id] = PtsRef::EMPTY;
                self.recompute_var(v);
            } else {
                self.stats.delta_items += 1;
                self.delta_var(v);
            }
        } else {
            let k = id - self.v_count;
            if m == RECOMP {
                self.stats.recompute_items += 1;
                self.pending_slot[k] = PtsRef::EMPTY;
                self.recompute_slot(k);
            } else {
                self.stats.delta_items += 1;
                self.delta_slot(k);
            }
        }
    }

    /// The fixpoint loop (see the module docs): pop one topological level
    /// at a time and visit its items in ascending id order.
    fn run(mut self) -> SparseResult {
        self.seed();
        let limit = self.item_limit();
        let mut batch: Vec<u32> = Vec::new();
        while !self.queue.is_empty() {
            self.queue.pop_level(&mut batch);
            for id in batch.iter().map(|&id| id as usize) {
                let m = std::mem::replace(&mut self.mode[id], 0);
                self.stats.processed += 1;
                assert!(
                    self.stats.processed <= limit,
                    "sparse solver failed to converge after {limit} items"
                );
                self.visit(id, m);
            }
        }
        self.finish()
    }

    /// Final statistics, trace counters, and pool compaction.
    fn finish(mut self) -> SparseResult {
        self.stats.var_pts_entries = self.pt_vars.iter().map(|&r| self.pool.len_of(r)).sum();
        self.stats.def_pts_entries = self.slot_out.iter().map(|&r| self.pool.len_of(r)).sum();
        self.stats.peak_pts_bytes =
            self.pool.heap_bytes() + table_bytes(&self.pt_vars, &self.slots.obj, &self.slot_out);

        if let Some(rec) = self.trace {
            // The working pool's intern traffic (the payoff of
            // hash-consing) — recorded before compaction discards it.
            let is = self.pool.intern_stats();
            rec.counter(self.trace_span, "pool.intern_hits", is.hits);
            rec.counter(self.trace_span, "pool.intern_misses", is.misses);
            rec.counter(self.trace_span, "pool.sets", self.pool.set_count() as u64);
        }

        // Compact: rebuild the pool from the live handles only, dropping
        // every intermediate set the fixpoint iteration interned.
        let mut live = PtsPool::new();
        let mut memo: Vec<Option<PtsRef>> = vec![None; self.pool.set_count()];
        let pool = &self.pool;
        let mut remap =
            |r: PtsRef| *memo[r.index()].get_or_insert_with(|| live.intern(pool.get(r).clone()));
        let pt_vars: Vec<PtsRef> = self.pt_vars.iter().map(|&r| remap(r)).collect();
        let slot_out: Vec<PtsRef> = self.slot_out.iter().map(|&r| remap(r)).collect();
        SparseResult {
            pool: live,
            pt_vars,
            slots: self.slots.obj.clone(),
            slot_out,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsam_ir::icfg::Icfg;
    use fsam_ir::parse::parse_module;
    use fsam_threads::ThreadModel;

    /// Builds the thread-oblivious solver inputs the way the pipeline does.
    fn inputs(m: &Module) -> (PreAnalysis, Svfg) {
        let pre = PreAnalysis::run(m);
        let icfg = Icfg::build(m, pre.call_graph());
        let tm = ThreadModel::build(m, &pre, &icfg);
        let svfg = Svfg::build(m, &pre, &tm);
        (pre, svfg)
    }

    /// Handwritten stress programs: strong/weak updates, a loop-carried
    /// memory phi (an SCC wider than one statement), recursion (recompute
    /// cascades), and a fork whose callee interferes with main.
    const PROGRAMS: &[&str] = &[
        // Last store wins through a chain of strong updates.
        r#"
        global cell
        global a
        global b
        func main() {
        entry:
          p = &cell
          x = &a
          store p, x
          y = &b
          store p, y
          c = load p
          ret
        }
        "#,
        // Branch merge: strong per arm, weak at the join.
        r#"
        global cell
        global a
        global b
        global init
        func main() {
        entry:
          p = &cell
          i = &init
          store p, i
          br ?, l, r
        l:
          x = &a
          store p, x
          br done
        r:
          y = &b
          store p, y
          br done
        done:
          c = load p
          ret
        }
        "#,
        // Loop-carried memory phi: the header SCC has several members, so
        // one level holds items that feed each other within the round.
        r#"
        global cell
        global start
        global iter
        global last
        func main() {
        entry:
          p = &cell
          s = &start
          store p, s
          br header
        header:
          inloop = load p
          br ?, body, exit
        body:
          it = &iter
          store p, it
          br header
        exit:
          lv = &last
          store p, lv
          c = load p
          ret
        }
        "#,
        // Recursion: weak updates on the recursive local, recompute
        // cascades when pt(f) is replaced.
        r#"
        global a
        global b
        func rec(p) {
        local frame
        entry:
          f = &frame
          br ?, again, base
        again:
          x = &a
          store f, x
          r1 = call rec(f)
          br out
        base:
          y = &b
          store f, y
          br out
        out:
          c = load f
          ret c
        }
        func main() {
        entry:
          seed = &a
          r = call rec(seed)
          ret
        }
        "#,
        // A store through a pointer with no targets owns no slots; the
        // next node's slots must not be read as its own.
        r#"
        global cell
        global box
        global a
        func main() {
        entry:
          p = &cell
          q = load p
          x = &a
          store q, x
          b = &box
          store b, x
          c = load b
          ret
        }
        "#,
        // Fork: the paper's Figure 1(a) shape.
        r#"
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
          ret
        }
        "#,
    ];

    /// The level-ordered delta solver reaches the recompute oracle's
    /// fixpoint, with the same entry counts.
    #[test]
    fn level_drain_matches_recompute_oracle_on_handwritten_programs() {
        for (i, src) in PROGRAMS.iter().enumerate() {
            let m = parse_module(src).unwrap();
            let (pre, svfg) = inputs(&m);

            let delta = solve(&m, &pre, &svfg);
            let oracle = crate::recompute::solve_recompute(&m, &pre, &svfg);
            assert!(
                delta.points_to_eq(&oracle),
                "program {i}: fixpoint diverged"
            );
            assert_eq!(
                delta.stats.var_pts_entries, oracle.stats.var_pts_entries,
                "program {i}: var entries diverged"
            );
            assert_eq!(
                delta.stats.def_pts_entries, oracle.stats.def_pts_entries,
                "program {i}: def entries diverged"
            );
        }
    }

    /// `solve_par` ignores its worker count: every width is [`solve`], bit
    /// for bit.
    #[test]
    fn solve_par_is_solve_at_any_width() {
        let m = fsam_suite::Program::Kmeans.generate(fsam_suite::Scale::SMOKE);
        let (pre, svfg) = inputs(&m);
        let seq = solve(&m, &pre, &svfg);
        for threads in [1, 2, 8] {
            assert_eq!(seq, solve_par(&m, &pre, &svfg, threads));
        }
    }
}
