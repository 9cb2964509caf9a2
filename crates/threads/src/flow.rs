//! The context-sensitive forward data-flow driver over per-thread ICFGs,
//! on one dense instance space.
//!
//! Both the interleaving analysis (paper Figure 7) and the lock analyses
//! (§3.3.3) are forward data-flow problems solved per thread, with calls and
//! returns matched context-sensitively ([I-CALL]/[I-RET]) and call sites in
//! call-graph cycles analyzed context-insensitively (§3.1). Their states
//! are the instances `(thread, context, node)` reachable from a thread's
//! entry, and that set depends on the ICFG, the call graph and the thread
//! model alone, never on a fact. [`InstanceSpace::build`] enumerates it
//! once per analysis: a dense id per state, each node's states as one run
//! sorted by thread and context, and each state's successor ids, with the
//! context transitions of [`succ_context`] resolved once.
//!
//! [`run_forward`] walks state ids with a deduplicated worklist and keeps
//! each state's IN fact as an id into an interned fact table ([`Facts`]),
//! so a node that leaves its fact unchanged costs no clone and no hash.
//! Each analysis only supplies its lattice and transfer function, and
//! answers instance queries with a binary search over a node's few states.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::ops::Range;

use fsam_ir::callgraph::CallGraph;
use fsam_ir::context::{ContextTable, CtxId};
use fsam_ir::icfg::{EdgeKind, Icfg, NodeId, NodeKind};
use fsam_ir::{FuncId, StmtId};

use crate::model::{ThreadId, ThreadModel};

/// A `(thread, context, node)` state of a per-thread data-flow.
pub type State = (ThreadId, CtxId, NodeId);

/// A forward data-flow problem over per-thread ICFGs.
pub trait ForwardProblem {
    /// The data-flow fact attached to each state. Its default value gets
    /// fact id 0 in every [`Facts`] table.
    type Fact: Clone + Default + Eq + Hash;

    /// The fact at a thread's entry node.
    fn entry_fact(&mut self, t: ThreadId) -> Self::Fact;

    /// OUT = transfer(IN) at `node`, or `None` where OUT = IN.
    fn transfer(&mut self, t: ThreadId, node: NodeId, fact: &Self::Fact) -> Option<Self::Fact>;

    /// Merges `incoming` into `current`; returns `true` if `current` grew
    /// (union for may-analyses, intersection for must-analyses).
    fn merge(&mut self, current: &mut Self::Fact, incoming: &Self::Fact) -> bool;

    /// The OUT fact as it flows along the edge `from → to`, or `None`
    /// where it flows unchanged (the default). The interleaving analysis
    /// overrides this to kill symmetrically-joined threads on join-loop
    /// exit edges (Fig. 11).
    fn edge_transfer(
        &mut self,
        _t: ThreadId,
        _from: NodeId,
        _to: NodeId,
        _fact: &Self::Fact,
    ) -> Option<Self::Fact> {
        None
    }
}

/// Inserts `x` into the ascending `set`; returns `true` if it was new.
pub(crate) fn sorted_insert<T: Ord>(set: &mut Vec<T>, x: T) -> bool {
    let Err(i) = set.binary_search(&x) else {
        return false;
    };
    set.insert(i, x);
    true
}

/// Removes `x` from the ascending `set`; returns `true` if it was present.
pub(crate) fn sorted_remove<T: Ord>(set: &mut Vec<T>, x: &T) -> bool {
    let Ok(i) = set.binary_search(x) else {
        return false;
    };
    set.remove(i);
    true
}

/// Dense ids for equal values, in order of first appearance.
#[derive(Debug)]
pub(crate) struct Interner<T> {
    ids: HashMap<T, u32>,
    values: Vec<T>,
}

impl<T: Hash + Eq + Clone> Interner<T> {
    pub(crate) fn new() -> Self {
        Interner {
            ids: HashMap::new(),
            values: Vec::new(),
        }
    }

    pub(crate) fn id(&mut self, value: &T) -> u32 {
        if let Some(&id) = self.ids.get(value) {
            return id;
        }
        let id = u32::try_from(self.values.len()).expect("interned value count");
        self.values.push(value.clone());
        self.ids.insert(value.clone(), id);
        id
    }

    pub(crate) fn get(&self, id: u32) -> &T {
        &self.values[id as usize]
    }
}

/// The IN facts of one [`run_forward`] run: an interned fact id per state.
/// Fact id 0 is always the fact type's default value (the empty set).
#[derive(Debug)]
pub struct Facts<F> {
    table: Interner<F>,
    of_state: Vec<u32>,
}

impl<F: Clone + Default + Eq + Hash> Facts<F> {
    /// The fact id of the default (empty) fact.
    pub const EMPTY: u32 = 0;

    /// The fact id at `state`.
    pub fn id(&self, state: u32) -> u32 {
        self.of_state[state as usize]
    }

    /// The fact at `state`.
    pub fn at(&self, state: u32) -> &F {
        self.get(self.id(state))
    }

    /// The fact with id `id`.
    pub fn get(&self, id: u32) -> &F {
        self.table.get(id)
    }

    /// The id of `fact`, interning it if it is new.
    pub(crate) fn intern(&mut self, fact: &F) -> u32 {
        self.table.id(fact)
    }
}

/// The `(thread, context, node)` states reachable from the threads'
/// entries, with dense ids (module docs).
#[derive(Debug)]
pub struct InstanceSpace {
    /// Every state, sorted by node, then thread, then context: a state's
    /// id is its index.
    states: Vec<State>,
    /// `node_base[n]..node_base[n + 1]`: the states of node `n`.
    node_base: Vec<u32>,
    /// `succ_base[s]..succ_base[s + 1]` index `succ`: the states the ICFG
    /// edges out of state `s` lead to, in edge order.
    succ_base: Vec<u32>,
    succ: Vec<u32>,
    /// Each thread's entry state, indexed by [`ThreadId::index`].
    entries: Vec<u32>,
    /// Per statement, indexed by [`StmtId::index`]: its node and function.
    stmts: Vec<Option<(NodeId, FuncId)>>,
    /// The threads executing each function, ascending.
    execs: Vec<Vec<ThreadId>>,
}

impl InstanceSpace {
    /// Enumerates every state reachable from a thread's entry under the
    /// shared, pre-populated `ctxs` (see [`precompute_contexts`]).
    pub fn build(icfg: &Icfg, cg: &CallGraph, tm: &ThreadModel, ctxs: &ContextTable) -> Self {
        const NONE: u32 = u32::MAX;
        // Discovery, breadth-first; `head[n]` and `next` chain the
        // discovered states of node `n`.
        let mut states: Vec<State> = Vec::new();
        let mut head = vec![NONE; icfg.node_count()];
        let mut next: Vec<u32> = Vec::new();
        let mut discover = |states: &mut Vec<State>, s: State| {
            let mut id = head[s.2.index()];
            while id != NONE && states[id as usize] != s {
                id = next[id as usize];
            }
            if id == NONE {
                next.push(head[s.2.index()]);
                head[s.2.index()] = states.len() as u32;
                states.push(s);
            }
        };
        for ti in tm.threads() {
            discover(&mut states, (ti.id, CtxId::EMPTY, icfg.entry(ti.routine)));
        }
        let mut visit = 0;
        while let Some(&(t, ctx, node)) = states.get(visit) {
            visit += 1;
            for &(to, kind) in icfg.succs(node) {
                if let Some(sc) = succ_context(icfg, cg, ctxs, ctx, node, to, kind) {
                    discover(&mut states, (t, sc, to));
                }
            }
        }

        // Number the states by node, then thread, then context, and
        // resolve each one's successors against that numbering.
        states.sort_unstable_by_key(|&(t, c, n)| (n, t, c));
        let node_base = (0..=icfg.node_count())
            .map(|n| states.partition_point(|s| s.2.index() < n) as u32)
            .collect();
        let mut space = InstanceSpace {
            states,
            node_base,
            succ_base: vec![0],
            succ: Vec::new(),
            entries: Vec::new(),
            stmts: Vec::new(),
            execs: Vec::new(),
        };
        for &(t, ctx, node) in &space.states {
            for &(to, kind) in icfg.succs(node) {
                if let Some(sc) = succ_context(icfg, cg, ctxs, ctx, node, to, kind) {
                    space.succ.push(space.find(t, sc, to).expect("discovered"));
                }
            }
            space.succ_base.push(space.succ.len() as u32);
        }
        space.entries = (tm.threads().iter())
            .map(|ti| space.find(ti.id, CtxId::EMPTY, icfg.entry(ti.routine)))
            .map(|id| id.expect("entries are discovered"))
            .collect();
        let funcs = icfg.node_ids().map(|n| icfg.func_of(n).index() + 1).max();
        let funcs = (0..funcs.unwrap_or(0)).map(FuncId::from_usize);
        space.execs = funcs.map(|f| tm.threads_executing(f)).collect();
        for n in icfg.node_ids() {
            if let NodeKind::Stmt(s) = icfg.kind(n) {
                if space.stmts.len() <= s.index() {
                    space.stmts.resize(s.index() + 1, None);
                }
                space.stmts[s.index()] = Some((n, icfg.func_of(n)));
            }
        }
        space
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether no thread has an entry state.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Every state, indexed by id.
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// The state with id `id`.
    pub fn state(&self, id: u32) -> State {
        self.states[id as usize]
    }

    /// The successor states of `id`.
    pub fn succs(&self, id: u32) -> &[u32] {
        let (lo, hi) = (self.succ_base[id as usize], self.succ_base[id as usize + 1]);
        &self.succ[lo as usize..hi as usize]
    }

    /// The ids of node `n`'s states, sorted by thread and context.
    pub fn at_node(&self, n: NodeId) -> Range<u32> {
        self.node_base[n.index()]..self.node_base[n.index() + 1]
    }

    /// The id of state `(t, c, n)`, if it is reachable.
    pub fn find(&self, t: ThreadId, c: CtxId, n: NodeId) -> Option<u32> {
        let run = self.at_node(n);
        let states = &self.states[run.start as usize..run.end as usize];
        let i = states.binary_search_by(|&(t2, c2, _)| (t2, c2).cmp(&(t, c)));
        i.ok().map(|i| run.start + i as u32)
    }

    /// The ids of thread `t`'s states at node `n`, ascending by context.
    pub(crate) fn thread_at(&self, t: ThreadId, n: NodeId) -> Range<u32> {
        let run = self.at_node(n);
        let states = &self.states[run.start as usize..run.end as usize];
        let lo = states.partition_point(|&(t2, _, _)| t2 < t) as u32;
        let hi = states.partition_point(|&(t2, _, _)| t2 <= t) as u32;
        run.start + lo..run.start + hi
    }

    /// One past the highest statement id with a node.
    pub(crate) fn stmt_count(&self) -> usize {
        self.stmts.len()
    }

    /// The node of statement `s`, if it has one.
    pub(crate) fn stmt_node(&self, s: StmtId) -> Option<NodeId> {
        Some(self.stmts.get(s.index()).copied()??.0)
    }

    /// The threads executing statement `s`'s function, ascending.
    pub(crate) fn executors(&self, s: StmtId) -> &[ThreadId] {
        let f = self.stmts.get(s.index()).copied().flatten();
        f.map_or(&[], |(_, f)| &self.execs[f.index()])
    }

    /// The context-sensitive instances `(t, c)` of statement `s`, per
    /// executor in turn, each thread's ascending by context.
    pub(crate) fn instances(&self, s: StmtId) -> Vec<(ThreadId, CtxId)> {
        let Some(n) = self.stmt_node(s) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for &t in self.executors(s) {
            out.extend(
                self.thread_at(t, n)
                    .map(|id| (t, self.states[id as usize].1)),
            );
        }
        out
    }
}

/// The context in which `succ` executes when control flows from `node`
/// (context `ctx`) along an edge of kind `kind` ([I-CALL]/[I-RET]/[I-INTRA],
/// paper Figure 7). Returns `None` for infeasible call/return pairings.
///
/// `ctxs` must already contain every context reachable from the thread
/// entries — build it once with [`precompute_contexts`]. Keeping this
/// function read-only lets independent analyses share one frozen table and
/// run concurrently.
pub fn succ_context(
    icfg: &Icfg,
    cg: &CallGraph,
    ctxs: &ContextTable,
    ctx: CtxId,
    node: NodeId,
    succ: NodeId,
    kind: EdgeKind,
) -> Option<CtxId> {
    match kind {
        EdgeKind::Intra => Some(ctx),
        EdgeKind::Call(site) => {
            let caller = icfg.func_of(node);
            let callee = icfg.func_of(succ);
            if cg.push_context(caller, callee) {
                Some(ctxs.resolve(ctx, site))
            } else {
                Some(ctx)
            }
        }
        EdgeKind::Ret(site) => {
            let callee = icfg.func_of(node);
            let caller = icfg.func_of(succ);
            if ctxs.peek(ctx) == Some(site) {
                Some(ctxs.pop(ctx).expect("peeked frame").0)
            } else if !cg.push_context(caller, callee)
                || ctxs.contains(ctx, site)
                || ctxs.depth(ctx) >= ctxs.max_depth()
            {
                // The call was analyzed context-insensitively (cycle,
                // recursion collapse, or depth cap): return with the
                // context unchanged.
                Some(ctx)
            } else {
                // Context mismatch: infeasible call/return pairing.
                None
            }
        }
    }
}

/// Interns every calling context reachable from any thread's entry.
///
/// Context reachability depends only on the ICFG and the call graph — not on
/// any analysis's data-flow facts — so one pass over the `(context, node)`
/// state graph discovers exactly the contexts every [`run_forward`] client
/// will visit. The resulting table is then shared read-only (ids stay
/// consistent across analyses, and analyses can run in parallel).
pub fn precompute_contexts(icfg: &Icfg, cg: &CallGraph, tm: &ThreadModel) -> ContextTable {
    let mut ctxs = ContextTable::new();
    let mut seen: HashSet<(CtxId, NodeId)> = HashSet::new();
    let mut work: Vec<(CtxId, NodeId)> = Vec::new();
    for ti in tm.threads() {
        let entry = icfg.entry(ti.routine);
        if seen.insert((CtxId::EMPTY, entry)) {
            work.push((CtxId::EMPTY, entry));
        }
    }
    while let Some((ctx, node)) = work.pop() {
        for &(succ, kind) in icfg.succs(node) {
            // Call edges are the only place contexts grow; everything else
            // shares `succ_context`'s read-only logic.
            let sc = if let EdgeKind::Call(site) = kind {
                let caller = icfg.func_of(node);
                let callee = icfg.func_of(succ);
                if cg.push_context(caller, callee) {
                    ctxs.push(ctx, site)
                } else {
                    ctx
                }
            } else {
                match succ_context(icfg, cg, &ctxs, ctx, node, succ, kind) {
                    Some(c) => c,
                    None => continue,
                }
            };
            if seen.insert((sc, succ)) {
                work.push((sc, succ));
            }
        }
    }
    ctxs
}

/// Runs `problem` to a fixpoint over `space`, the states of every
/// thread's ICFG.
pub fn run_forward<P: ForwardProblem>(space: &InstanceSpace, problem: &mut P) -> Facts<P::Fact> {
    const UNSET: u32 = u32::MAX;
    let mut table = Interner::new();
    table.id(&P::Fact::default());
    let mut of_state = vec![UNSET; space.len()];
    let mut queued = vec![false; space.len()];
    let mut work = Vec::with_capacity(space.entries.len());
    for (t, &entry) in space.entries.iter().enumerate() {
        of_state[entry as usize] = table.id(&problem.entry_fact(ThreadId(t as u32)));
        queued[entry as usize] = true;
        work.push(entry);
    }

    while let Some(s) = work.pop() {
        queued[s as usize] = false;
        let (t, _, node) = space.state(s);
        let in_id = of_state[s as usize];
        let out = match problem.transfer(t, node, table.get(in_id)) {
            Some(fact) => table.id(&fact),
            None => in_id,
        };
        for &to in space.succs(s) {
            let edge_out = match problem.edge_transfer(t, node, space.state(to).2, table.get(out)) {
                Some(fact) => table.id(&fact),
                None => out,
            };
            let cur = of_state[to as usize];
            if cur == edge_out {
                continue;
            }
            if cur != UNSET {
                let mut merged = table.get(cur).clone();
                if !problem.merge(&mut merged, table.get(edge_out)) {
                    continue;
                }
                of_state[to as usize] = table.id(&merged);
            } else {
                of_state[to as usize] = edge_out;
            }
            if !std::mem::replace(&mut queued[to as usize], true) {
                work.push(to);
            }
        }
    }
    debug_assert!(!of_state.contains(&UNSET), "every state is reachable");
    Facts { table, of_state }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsam_andersen::PreAnalysis;
    use fsam_ir::parse::parse_module;
    use fsam_ir::{Module, StmtKind};

    /// A trivial reaching-"mark" analysis: the fact is a counter that
    /// never grows; used to exercise call/return matching.
    struct LockCounter;

    impl ForwardProblem for LockCounter {
        type Fact = u32;

        fn entry_fact(&mut self, _t: ThreadId) -> u32 {
            0
        }

        fn transfer(&mut self, _t: ThreadId, _node: NodeId, _fact: &u32) -> Option<u32> {
            None
        }

        fn merge(&mut self, current: &mut u32, incoming: &u32) -> bool {
            if *incoming > *current {
                *current = *incoming;
                true
            } else {
                false
            }
        }
    }

    /// The instance space of `src`, after running [`LockCounter`] over it
    /// (every state gets a fact) and checking the module's analyses
    /// against the reference driver.
    fn space_of(src: &str) -> (Module, Icfg, InstanceSpace) {
        let m = parse_module(src).unwrap();
        let pre = PreAnalysis::run(&m);
        let icfg = Icfg::build(&m, pre.call_graph());
        let tm = ThreadModel::build(&m, &pre, &icfg);
        let ctxs = precompute_contexts(&icfg, pre.call_graph(), &tm);
        let space = InstanceSpace::build(&icfg, pre.call_graph(), &tm, &ctxs);
        let facts = run_forward(&space, &mut LockCounter);
        assert!((0..space.len() as u32).all(|s| *facts.at(s) == 0));
        crate::reference::check(&m);
        (m, icfg, space)
    }

    #[test]
    fn reaches_all_nodes_of_all_threads() {
        let (m, icfg, space) = space_of(
            r#"
            func helper() {
            entry:
              ret
            }
            func worker() {
            entry:
              call helper()
              ret
            }
            func main() {
            entry:
              t = fork worker()
              call helper()
              join t
              ret
            }
        "#,
        );

        // helper's entry is visited under two different contexts for main
        // (its callsite) and one for worker.
        let helper = m.func_by_name("helper").unwrap();
        let entries: Vec<State> = (space.at_node(icfg.entry(helper)))
            .map(|s| space.state(s))
            .collect();
        assert!(
            entries.len() >= 2,
            "helper entry visited by both threads: {entries:?}"
        );
        // The join statement is reached in the main thread.
        let join = m
            .stmts()
            .find(|(_, s)| matches!(s.kind, StmtKind::Join { .. }))
            .unwrap()
            .0;
        assert!(!(space.thread_at(ThreadId::MAIN, icfg.stmt_node(join))).is_empty());
    }

    #[test]
    fn contexts_distinguish_callsites() {
        let (m, icfg, space) = space_of(
            r#"
            func leaf() {
            entry:
              ret
            }
            func main() {
            entry:
              call leaf()
              call leaf()
              ret
            }
        "#,
        );
        let leaf = m.func_by_name("leaf").unwrap();
        let leaf_ctxs: Vec<CtxId> = (space.at_node(icfg.entry(leaf)))
            .map(|s| space.state(s).1)
            .collect();
        assert_eq!(leaf_ctxs.len(), 2, "one context per callsite");
        // Both calls return: main's exit is reached under the empty context.
        let main = m.entry().unwrap();
        assert!(space
            .find(ThreadId::MAIN, CtxId::EMPTY, icfg.exit(main))
            .is_some());
    }

    #[test]
    fn recursion_is_context_insensitive_but_terminates() {
        let (m, icfg, space) = space_of(
            r#"
            func rec() {
            entry:
              br ?, again, out
            again:
              call rec()
              br out
            out:
              ret
            }
            func main() {
            entry:
              call rec()
              ret
            }
        "#,
        );
        // Terminates, and rec's entry has at most two contexts (from main's
        // callsite; the recursive call is collapsed).
        let rec = m.func_by_name("rec").unwrap();
        let n = space.at_node(icfg.entry(rec)).len();
        assert!(n <= 2, "recursive contexts collapsed, got {n}");
        let main = m.entry().unwrap();
        assert!(space
            .find(ThreadId::MAIN, CtxId::EMPTY, icfg.exit(main))
            .is_some());
    }
}
