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
//! sets, and a visited item unions its pending delta into its current set.
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
//! Every worklist item is keyed on the topological *depth* of its SCC in
//! the condensation of the combined def-use graph
//! ([`fsam_mssa::topo::TopoOrder::level`], via [`Svfg::solve_order`]).
//! Levels are small dense integers, so the worklist is one bucket of item
//! ids per level with a cursor at the lowest non-empty one. The solver
//! drains one level per round, visiting its items in ascending id order;
//! items pushed meanwhile re-enter the queue for a later round. Definitions are processed before their transitive uses
//! wherever the graph is acyclic, and because independent SCCs share a
//! depth, a whole band of them drains together instead of one component
//! at a time — on the suite this needs a fraction of the worklist items
//! the total topological order needs. The schedule is sequential and has
//! no knobs, so the result never depends on the pipeline's worker count.
//!
//! # Resolved tables
//!
//! The def-use chains never change during the solve, so `Solver::new`
//! resolves them once into slot-indexed tables. **Successors per slot**:
//! each SVFG edge carrying the slot's object, in `svfg.succs` order,
//! becomes a target slot (with the store whose strong phase gates it) or
//! a load's `(node, dst, ptr)`, so a visit walks its own range with no
//! label filter, node-kind match or slot search. **Reaching definitions
//! per (node, object)**: sorted ranges shaped like `slot_base`/`slot_obj`.
//! **Statement → node**: a dense table.
//!
//! # Interned points-to store
//!
//! All points-to sets live in a [`PtsPool`] of hash-consed immutable sets;
//! the solver holds one 4-byte [`PtsRef`] per variable and per object
//! definition, and updates are copy-on-write handle swaps. The pool is
//! compacted down to the live sets when the solver finishes, so the final
//! [`SparseResult::pts_bytes`] reflects the retained state while
//! [`SolverStats::peak_pts_bytes`] records the in-flight peak.

use std::collections::HashMap;

use fsam_andersen::PreAnalysis;
use fsam_ir::stmt::{StmtKind, Terminator};
use fsam_ir::{Module, StmtId, VarId};
use fsam_mssa::{NodeId as VfNodeId, NodeKind as VfNodeKind, Svfg};
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
    /// compaction (pool plus the per-variable/per-definition tables).
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
    /// First slot of each SVFG node; `len == node_count + 1`.
    slot_base: Vec<u32>,
    /// Object defined by each slot, ascending within a node.
    slot_obj: Vec<MemId>,
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
        let i = n.index();
        if i + 1 >= self.slot_base.len() {
            return &EMPTY;
        }
        let (s, e) = (self.slot_base[i] as usize, self.slot_base[i + 1] as usize);
        match self.slot_obj[s..e].binary_search(&o) {
            Ok(k) => self.pool.get(self.slot_out[s + k]),
            Err(_) => &EMPTY,
        }
    }

    /// Heap bytes held by the final points-to state (memory metering): the
    /// compacted pool plus the dense per-variable and per-definition tables.
    pub fn pts_bytes(&self) -> usize {
        self.pool.heap_bytes()
            + table_bytes(
                &self.pt_vars,
                &self.slot_base,
                &self.slot_obj,
                &self.slot_out,
            )
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
        let nodes = self
            .slot_base
            .len()
            .max(other.slot_base.len())
            .saturating_sub(1);
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
        let (s, e) = if n + 1 < self.slot_base.len() {
            (self.slot_base[n] as usize, self.slot_base[n + 1] as usize)
        } else {
            (0, 0)
        };
        (s..e).filter_map(move |k| {
            let set = self.pool.get(self.slot_out[k]);
            (!set.is_empty()).then_some((self.slot_obj[k], set))
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
        (&self.slot_base, &self.slot_obj, &self.slot_out)
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
            slot_base,
            slot_obj,
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
        keys.sort_unstable_by_key(|&(n, o)| (n.index(), o));
        let mut slot_base = Vec::with_capacity(node_count + 1);
        let mut slot_obj = Vec::with_capacity(keys.len());
        let mut slot_out = Vec::with_capacity(keys.len());
        let mut it = keys.iter().peekable();
        for n in 0..node_count {
            slot_base.push(slot_obj.len() as u32);
            while let Some(&&(kn, o)) = it.peek() {
                if kn.index() != n {
                    break;
                }
                it.next();
                slot_obj.push(o);
                slot_out.push(pool.intern(pt_defs[&(kn, o)].clone()));
            }
        }
        slot_base.push(slot_obj.len() as u32);
        let mut result = SparseResult {
            pool,
            pt_vars,
            slot_base,
            slot_obj,
            slot_out,
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

fn table_bytes(
    pt_vars: &[PtsRef],
    slot_base: &[u32],
    slot_obj: &[MemId],
    slot_out: &[PtsRef],
) -> usize {
    std::mem::size_of_val(pt_vars)
        + std::mem::size_of_val(slot_base)
        + std::mem::size_of_val(slot_obj)
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

/// What a slot (one object definition at one SVFG node) computes.
#[derive(Copy, Clone, Debug)]
enum SlotKind {
    /// A store's chi output: `P-STORE` + `P-SU/WU` for one object.
    Store { ptr: VarId, val: VarId },
    /// A merge node (mem-phi, formal/actual in/out, thread junction):
    /// output = union of reaching definitions.
    Merge,
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

/// One resolved SVFG successor of a slot: where a change of the slot's
/// output goes.
#[derive(Copy, Clone, Debug)]
enum SlotSucc {
    /// Slot `slot` of a merge node, or of the store `gate`, whose strong
    /// phase on the object kills the incoming flow.
    Slot { slot: u32, gate: Option<StmtId> },
    /// The load at SVFG node `node`: `dst = *ptr`.
    Load { node: u32, dst: VarId, ptr: VarId },
}

/// Worklist modes. `RECOMP` supersedes `DELTA` for a queued item.
const DELTA: u8 = 1;
const RECOMP: u8 = 2;

struct Solver<'a> {
    module: &'a Module,
    pre: &'a PreAnalysis,
    svfg: &'a Svfg,
    pool: PtsPool,
    pt_vars: Vec<PtsRef>,
    var_sources: Vec<Vec<VarSource>>,
    var_deps: Vec<Vec<VarDep>>,
    /// Slot tables: one slot per object definition, grouped per SVFG node
    /// with ascending objects (see [`SparseResult`]).
    slot_base: Vec<u32>,
    slot_obj: Vec<MemId>,
    slot_out: Vec<PtsRef>,
    slot_node: Vec<u32>,
    slot_kind: Vec<SlotKind>,
    /// Per-statement store phase (meaningful for stores only).
    store_phase: Vec<StorePhase>,
    /// SVFG node per statement (`u32::MAX`: none).
    stmt_node: Vec<u32>,
    /// Slot `k`'s resolved successors: `succ[succ_base[k]..succ_base[k + 1]]`.
    succ_base: Vec<u32>,
    succ: Vec<SlotSucc>,
    /// Reaching-definition slots per (node, object): node `n`'s objects
    /// are `in_obj[in_base[n]..in_base[n + 1]]`, ascending, and key `i`'s
    /// slots are `in_slot[in_slot_base[i]..in_slot_base[i + 1]]`.
    in_base: Vec<u32>,
    in_obj: Vec<MemId>,
    in_slot_base: Vec<u32>,
    in_slot: Vec<u32>,
    /// Pending deltas, one accumulator per variable / per slot.
    pending_var: Vec<PtsSet>,
    pending_slot: Vec<PtsSet>,
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
        let s_count = module.stmt_count();
        let n_count = svfg.node_count();
        let v_count = module.var_count();

        // Slot layout: stores get one slot per chi / incident-edge object,
        // merge nodes one slot for their object. Plain statement nodes
        // (loads, calls, synthetic thread-edge endpoints) define nothing.
        let mut slot_base: Vec<u32> = Vec::with_capacity(n_count + 1);
        let mut slot_obj: Vec<MemId> = Vec::new();
        let mut slot_node: Vec<u32> = Vec::new();
        let mut slot_kind: Vec<SlotKind> = Vec::new();
        let mut stmt_node = vec![u32::MAX; s_count];
        for n in svfg.node_ids() {
            slot_base.push(slot_obj.len() as u32);
            match svfg.kind(n) {
                VfNodeKind::Stmt(sid) if sid.index() < s_count => {
                    stmt_node[sid.index()] = n.index() as u32;
                    if let StmtKind::Store { ptr, val } = module.stmt(sid).kind {
                        let mut objs: Vec<MemId> = svfg.annotations().chi(sid).iter().collect();
                        for &(_, o) in svfg.preds(n).iter().chain(svfg.succs(n)) {
                            objs.push(o);
                        }
                        objs.sort_unstable();
                        objs.dedup();
                        for o in objs {
                            slot_obj.push(o);
                            slot_node.push(n.index() as u32);
                            slot_kind.push(SlotKind::Store { ptr, val });
                        }
                    }
                }
                VfNodeKind::MemPhi { obj, .. }
                | VfNodeKind::FormalIn { obj, .. }
                | VfNodeKind::FormalOut { obj, .. }
                | VfNodeKind::ActualOut { obj, .. }
                | VfNodeKind::ThreadJunction { obj } => {
                    slot_obj.push(obj);
                    slot_node.push(n.index() as u32);
                    slot_kind.push(SlotKind::Merge);
                }
                VfNodeKind::Stmt(_) => {}
            }
        }
        slot_base.push(slot_obj.len() as u32);
        let k_count = slot_obj.len();

        // Resolved successors, in `svfg.succs` order per slot. The total
        // is counted first so the table is allocated once.
        let slot_at = |n: usize, o: MemId| slot_lookup(&slot_base, &slot_obj, n, o);
        let resolve = |succ: VfNodeId, o: MemId| match svfg.kind(succ) {
            VfNodeKind::Stmt(sid) if sid.index() < s_count => match module.stmt(sid).kind {
                StmtKind::Store { .. } => slot_at(succ.index(), o).map(|j| SlotSucc::Slot {
                    slot: j as u32,
                    gate: Some(sid),
                }),
                StmtKind::Load { dst, ptr } => Some(SlotSucc::Load {
                    node: succ.index() as u32,
                    dst,
                    ptr,
                }),
                // Other statements read no memory.
                _ => None,
            },
            // Synthetic statement nodes define and use nothing.
            VfNodeKind::Stmt(_) => None,
            _ => slot_at(succ.index(), o).map(|j| SlotSucc::Slot {
                slot: j as u32,
                gate: None,
            }),
        };
        let mut succ_base = vec![0u32; k_count + 1];
        for n in svfg.node_ids() {
            for &(succ, o) in svfg.succs(n) {
                if let Some(k) = slot_at(n.index(), o) {
                    succ_base[k + 1] += u32::from(resolve(succ, o).is_some());
                }
            }
        }
        for k in 0..k_count {
            succ_base[k + 1] += succ_base[k];
        }
        let mut succ = Vec::with_capacity(succ_base[k_count] as usize);
        let mut in_base = Vec::with_capacity(n_count + 1);
        let (mut in_obj, mut in_slot_base, mut in_slot) = (Vec::new(), Vec::new(), Vec::new());
        let mut scratch: Vec<(u32, SlotSucc)> = Vec::new();
        let mut preds: Vec<(MemId, u32)> = Vec::new();
        for n in svfg.node_ids() {
            scratch.clear();
            for &(s, o) in svfg.succs(n) {
                if let (Some(k), Some(t)) = (slot_at(n.index(), o), resolve(s, o)) {
                    scratch.push((k as u32, t));
                }
            }
            scratch.sort_by_key(|&(k, _)| k);
            succ.extend(scratch.iter().map(|&(_, t)| t));

            in_base.push(in_obj.len() as u32);
            preds.clear();
            for &(p, o) in svfg.preds(n) {
                if let Some(pk) = slot_at(p.index(), o) {
                    preds.push((o, pk as u32));
                }
            }
            preds.sort_by_key(|&(o, _)| o);
            for (i, &(o, pk)) in preds.iter().enumerate() {
                if i == 0 || preds[i - 1].0 != o {
                    in_obj.push(o);
                    in_slot_base.push(in_slot.len() as u32);
                }
                in_slot.push(pk);
            }
        }
        in_base.push(in_obj.len() as u32);
        in_slot_base.push(in_slot.len() as u32);

        let order = svfg.solve_order(module, pre.call_graph());
        let mut level = vec![u32::MAX; v_count];
        for v in module.var_ids() {
            if let Some(d) = svfg.var_def(v) {
                level[v.index()] = order.stmt_level[d.index()];
            }
        }
        let (var_sources, var_deps) =
            Self::build_sources(module, pre, &order.stmt_level, &mut level);
        level.extend(slot_node.iter().map(|&n| order.node_level[n as usize]));
        for l in level.iter_mut() {
            if *l == u32::MAX {
                *l = 0;
            }
        }

        Solver {
            module,
            pre,
            svfg,
            pool: PtsPool::new(),
            pt_vars: vec![PtsRef::EMPTY; v_count],
            var_sources,
            var_deps,
            slot_base,
            slot_obj,
            slot_out: vec![PtsRef::EMPTY; k_count],
            slot_node,
            slot_kind,
            store_phase: vec![StorePhase::Empty; s_count],
            stmt_node,
            succ_base,
            succ,
            in_base,
            in_obj,
            in_slot_base,
            in_slot,
            pending_var: vec![PtsSet::new(); v_count],
            pending_slot: vec![PtsSet::new(); k_count],
            mode: vec![0; v_count + k_count],
            queue: LevelQueue::new(level),
            v_count,
            stats: SolverStats::default(),
            trace: None,
            trace_span: None,
            trace_explain: false,
        }
    }

    /// Collects the complete source list and forward dependencies per
    /// variable. Binding a parameter at a call site also lowers the
    /// parameter's queue key (its level) to the site's (parameters have no
    /// def site).
    fn build_sources(
        module: &Module,
        pre: &PreAnalysis,
        stmt_key: &[u32],
        var_key: &mut [u32],
    ) -> (Vec<Vec<VarSource>>, Vec<Vec<VarDep>>) {
        let mut var_sources = vec![Vec::new(); module.var_count()];
        let mut var_deps = vec![Vec::new(); module.var_count()];
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
                    var_deps[src.index()].push(VarDep::Flow(*dst));
                }
                StmtKind::Phi { dst, arms } => {
                    for arm in arms {
                        var_sources[dst.index()].push(VarSource::Var(arm.var));
                        var_deps[arm.var.index()].push(VarDep::Flow(*dst));
                    }
                }
                StmtKind::Load { dst, ptr } => {
                    var_sources[dst.index()].push(VarSource::LoadAt(sid, *ptr));
                    var_deps[ptr.index()].push(VarDep::LoadPtr(sid, *dst));
                }
                StmtKind::Gep { dst, base, field } => {
                    var_sources[dst.index()].push(VarSource::Gep(*base, *field));
                    var_deps[base.index()].push(VarDep::Gep(*dst, *field));
                }
                StmtKind::Store { ptr, val } => {
                    var_deps[ptr.index()].push(VarDep::StorePtr(sid));
                    var_deps[val.index()].push(VarDep::StoreVal(sid));
                }
                StmtKind::Call { args, dst, .. } => {
                    for callee in cg.targets(sid) {
                        let params = &module.func(callee).params;
                        for (&a, &p) in args.iter().zip(params.iter()) {
                            var_sources[p.index()].push(VarSource::Var(a));
                            var_deps[a.index()].push(VarDep::Flow(p));
                            var_key[p.index()] = var_key[p.index()].min(stmt_key[sid.index()]);
                        }
                        if let Some(d) = dst {
                            if !module.func(callee).is_external {
                                for &r in &returns[callee.index()] {
                                    var_sources[d.index()].push(VarSource::Var(r));
                                    var_deps[r.index()].push(VarDep::Flow(*d));
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
                            var_deps[a.index()].push(VarDep::Flow(p));
                            var_key[p.index()] = var_key[p.index()].min(stmt_key[sid.index()]);
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
        (var_sources, var_deps)
    }

    fn slot_of(&self, node: usize, o: MemId) -> Option<usize> {
        slot_lookup(&self.slot_base, &self.slot_obj, node, o)
    }

    /// The SVFG node of statement `sid`, if it has one.
    fn node_of(&self, sid: StmtId) -> Option<usize> {
        let n = self.stmt_node[sid.index()];
        (n != u32::MAX).then_some(n as usize)
    }

    /// The node of store `sid` and its slot range `s..e`; `None` when the
    /// store defines no slot.
    fn store_slots(&self, sid: StmtId) -> Option<(usize, usize, usize)> {
        let n = self.node_of(sid)?;
        let (s, e) = (self.slot_base[n] as usize, self.slot_base[n + 1] as usize);
        (s < e).then_some((n, s, e))
    }

    /// The slots whose outputs reach node `node` as definitions of `o`.
    fn preds_of(&self, node: usize, o: MemId) -> &[u32] {
        let (s, e) = (self.in_base[node] as usize, self.in_base[node + 1] as usize);
        match self.in_obj[s..e].binary_search(&o) {
            Ok(i) => {
                let (a, b) = (self.in_slot_base[s + i], self.in_slot_base[s + i + 1]);
                &self.in_slot[a as usize..b as usize]
            }
            Err(_) => &[],
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
        for &pk in self.preds_of(node, o) {
            let pn = self.slot_node[pk as usize] as usize;
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
        for source in &self.var_sources[v.index()] {
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
        let n = self.slot_node[k] as usize;
        let o = self.slot_obj[k];
        let (written, strong, val) = match self.slot_kind[k] {
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
        for &pk in self.preds_of(node, o) {
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
        for source in &self.var_sources[v.index()] {
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
        let delta = std::mem::take(&mut self.pending_var[v.index()]);
        if delta.is_empty() {
            return;
        }
        let (new_ref, fresh) = self.pool.union_delta(self.pt_vars[v.index()], &delta);
        if fresh.is_empty() {
            return;
        }
        self.pt_vars[v.index()] = new_ref;
        self.apply_var_growth(v, &fresh);
    }

    /// Recompute visit of a variable: re-evaluate from the full source
    /// list. Growth degrades gracefully to a delta forward; a non-monotone
    /// replacement cascades recomputes downstream.
    fn recompute_var(&mut self, v: VarId) {
        let new = self.eval_var(v);
        let cur_ref = self.pt_vars[v.index()];
        let fresh = {
            let cur = self.pool.get(cur_ref);
            if *cur == new {
                return;
            }
            cur.is_subset(&new).then(|| new.difference(cur))
        };
        self.pt_vars[v.index()] = self.pool.intern(new);
        if self.trace_explain {
            self.trace_var_sources(v);
        }
        match fresh {
            Some(fresh) => self.apply_var_growth(v, &fresh),
            None => self.cascade_var_recompute(v),
        }
    }

    /// Forwards a growth of `pt(v)` by `fresh` along `v`'s dependencies.
    fn apply_var_growth(&mut self, v: VarId, fresh: &PtsSet) {
        for i in 0..self.var_deps[v.index()].len() {
            let dep = self.var_deps[v.index()][i];
            match dep {
                VarDep::Flow(t) => {
                    if self.trace_explain {
                        self.trace_vars(t, v, fresh, None);
                    }
                    self.pending_var[t.index()].union_in_place(fresh);
                    self.push_delta(t.index());
                }
                VarDep::Gep(t, field) => {
                    if self.trace_explain {
                        self.trace_vars(t, v, fresh, Some(field));
                    }
                    for o in fresh.iter() {
                        let f = self.pre.objects().field_existing(o, field);
                        self.pending_var[t.index()].insert(f);
                    }
                    self.push_delta(t.index());
                }
                VarDep::LoadPtr(sid, dst) => {
                    // The load now also reads the new objects: pull their
                    // full reaching definitions once; later growth arrives
                    // through the (now open) forward gate.
                    if let Some(node) = self.node_of(sid) {
                        let mut add = PtsSet::new();
                        for o in fresh.iter() {
                            if self.trace_explain {
                                self.trace_defs(true, dst.index() as u64, node, o, "load");
                            }
                            self.union_pt_in(node, o, &mut add);
                        }
                        if !add.is_empty() {
                            self.pending_var[dst.index()].union_in_place(&add);
                            self.push_delta(dst.index());
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
        for i in 0..self.var_deps[v.index()].len() {
            let dep = self.var_deps[v.index()][i];
            match dep {
                VarDep::Flow(t) | VarDep::Gep(t, _) => self.push_recomp(t.index()),
                VarDep::LoadPtr(_, dst) => self.push_recomp(dst.index()),
                VarDep::StoreVal(sid) => self.recomp_store_slots(sid),
                VarDep::StorePtr(sid) => {
                    if let StmtKind::Store { ptr, .. } = self.module.stmt(sid).kind {
                        self.store_phase[sid.index()] = self.phase_of(ptr);
                    }
                    self.recomp_store_slots(sid);
                }
            }
        }
    }

    fn recomp_store_slots(&mut self, sid: StmtId) {
        if let Some((_, s, e)) = self.store_slots(sid) {
            for k in s..e {
                self.push_recomp(self.v_count + k);
            }
        }
    }

    /// `pt(val)` of the store at `sid` grew by `fresh`: every written slot's
    /// output contains `pt(val)` (exactly, for the strong slot; as one
    /// operand of the union otherwise), so the delta flows straight in.
    fn on_store_val_growth(&mut self, sid: StmtId, fresh: &PtsSet) {
        let Some((n, s, e)) = self.store_slots(sid) else {
            return;
        };
        let SlotKind::Store { ptr, val } = self.slot_kind[s] else {
            return;
        };
        for k in s..e {
            if self
                .pool
                .contains(self.pt_vars[ptr.index()], self.slot_obj[k])
            {
                if self.trace_explain {
                    self.trace_store(n, val, fresh);
                }
                self.pending_slot[k].union_in_place(fresh);
                self.push_delta(self.v_count + k);
            }
        }
    }

    /// `pt(ptr)` of the store at `sid` grew by `fresh`: reclassify the
    /// slots. Only the `∅ → singleton` transition is non-monotone (the
    /// strong slot's output becomes exactly `pt(val)`); every other
    /// transition adds members and propagates as deltas.
    fn on_store_ptr_growth(&mut self, sid: StmtId, fresh: &PtsSet) {
        let Some((n, s, e)) = self.store_slots(sid) else {
            return;
        };
        let SlotKind::Store { ptr, val } = self.slot_kind[s] else {
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
                if let Some(k) = self.slot_of(n, tgt) {
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
                if let Some(k) = self.slot_of(n, prev) {
                    if self.trace_explain {
                        self.trace_defs(false, n as u64, n, prev, "merge");
                    }
                    let add = self.pt_in(n, prev);
                    if !add.is_empty() {
                        self.pending_slot[k].union_in_place(&add);
                        self.push_delta(self.v_count + k);
                    }
                }
                self.write_fresh_slots(n, s..e, val, fresh);
            }
            // Growth strictly enlarges pt(ptr), so it can never *become*
            // empty, stay a singleton, or turn back into one. Re-evaluate
            // everything if an unexpected transition ever shows up.
            _ => self.recomp_store_slots(sid),
        }
    }

    /// Newly written slots (objects in `fresh`) of the store at node `n`
    /// gain `pt(val)` on top of their inputs.
    fn write_fresh_slots(
        &mut self,
        n: usize,
        slots: std::ops::Range<usize>,
        val: VarId,
        fresh: &PtsSet,
    ) {
        let val_ref = self.pt_vars[val.index()];
        if self.pool.len_of(val_ref) == 0 {
            return;
        }
        for k in slots {
            if fresh.contains(self.slot_obj[k]) {
                if self.trace_explain {
                    self.trace_store(n, val, self.pool.get(val_ref));
                }
                self.pending_slot[k].union_in_place(self.pool.get(val_ref));
                self.push_delta(self.v_count + k);
            }
        }
    }

    /// Delta visit of a slot: fold the pending delta into its output.
    fn delta_slot(&mut self, k: usize) {
        let delta = std::mem::take(&mut self.pending_slot[k]);
        if delta.is_empty() {
            return;
        }
        if let SlotKind::Store { ptr, .. } = self.slot_kind[k] {
            let ptr_set = self.pool.get(self.pt_vars[ptr.index()]);
            if ptr_set.contains(self.slot_obj[k]) {
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
        let (new_ref, fresh) = self.pool.union_delta(self.slot_out[k], &delta);
        if fresh.is_empty() {
            return;
        }
        self.slot_out[k] = new_ref;
        self.forward_delta(k, &fresh);
    }

    /// Recompute visit of a slot: re-evaluate its equation from full
    /// inputs and replace the output.
    fn recompute_slot(&mut self, k: usize) {
        let n = self.slot_node[k] as usize;
        let o = self.slot_obj[k];
        let out = match self.slot_kind[k] {
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
        let fresh = {
            let cur = self.pool.get(self.slot_out[k]);
            if *cur == new {
                return;
            }
            cur.is_subset(&new).then(|| new.difference(cur))
        };
        self.slot_out[k] = self.pool.intern(new);
        match fresh {
            Some(fresh) => self.forward_delta(k, &fresh),
            None => self.forward_recompute(k),
        }
    }

    /// Forwards `fresh` new members of slot `k`'s output to its resolved
    /// successors.
    fn forward_delta(&mut self, k: usize, fresh: &PtsSet) {
        let (n, o) = (self.slot_node[k] as usize, self.slot_obj[k]);
        for i in self.succ_base[k] as usize..self.succ_base[k + 1] as usize {
            match self.succ[i] {
                // A strong slot's output is exactly pt(val): its reaching
                // definitions are killed, so their deltas must not leak
                // through.
                SlotSucc::Slot {
                    gate: Some(sid), ..
                } if self.store_phase[sid.index()] == StorePhase::Strong(o) => {}
                SlotSucc::Slot { slot, .. } => {
                    let j = slot as usize;
                    if self.trace_explain {
                        let to = self.slot_node[j] as usize;
                        self.trace_flow(false, to as u64, n, to, fresh, "merge");
                    }
                    self.pending_slot[j].union_in_place(fresh);
                    self.push_delta(self.v_count + j);
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
                                fresh,
                                "load",
                            );
                        }
                        self.pending_var[dst.index()].union_in_place(fresh);
                        self.push_delta(dst.index());
                    }
                }
            }
        }
    }

    /// Non-monotone replacement of slot `k`'s output: everything it feeds
    /// must re-evaluate from full inputs.
    fn forward_recompute(&mut self, k: usize) {
        for i in self.succ_base[k] as usize..self.succ_base[k + 1] as usize {
            let id = match self.succ[i] {
                SlotSucc::Slot { slot, .. } => self.v_count + slot as usize,
                SlotSucc::Load { dst, .. } => dst.index(),
            };
            self.push_recomp(id);
        }
    }

    /// Seeds the worklist: every variable with at least one source. Slots
    /// need no seeds — store and merge outputs start empty and consistent,
    /// and every input change reaches them through the dependency edges.
    fn seed(&mut self) {
        for v in self.module.var_ids() {
            if !self.var_sources[v.index()].is_empty() {
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
                self.pending_var[id].clear();
                self.recompute_var(v);
            } else {
                self.stats.delta_items += 1;
                self.delta_var(v);
            }
        } else {
            let k = id - self.v_count;
            if m == RECOMP {
                self.stats.recompute_items += 1;
                self.pending_slot[k].clear();
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
        self.stats.peak_pts_bytes = self.pool.heap_bytes()
            + table_bytes(
                &self.pt_vars,
                &self.slot_base,
                &self.slot_obj,
                &self.slot_out,
            );

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
            slot_base: self.slot_base,
            slot_obj: self.slot_obj,
            slot_out,
            stats: self.stats,
        }
    }
}

/// Binary-searches node `node`'s slot range for object `o`.
fn slot_lookup(slot_base: &[u32], slot_obj: &[MemId], node: usize, o: MemId) -> Option<usize> {
    let (s, e) = (slot_base[node] as usize, slot_base[node + 1] as usize);
    slot_obj[s..e].binary_search(&o).ok().map(|i| s + i)
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
