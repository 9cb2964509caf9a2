//! The interleaving (MHP) analysis — paper §3.3.1, Figure 7.
//!
//! A flow- and context-sensitive forward data-flow over every thread's ICFG.
//! For each context-sensitive statement instance `(t, c, s)` it computes
//! `I(t, c, s)`: the set of threads that may be running in parallel when `t`
//! executes `s` under context `c`. Two statement instances may happen in
//! parallel (`∥`) iff each one's thread appears in the other's `I` set — or
//! the instances belong to the same *multi-forked* thread (Definition 1).
//!
//! The rules map onto the driver in [`crate::flow`] as follows:
//!
//! * `[I-DESCENDANT]` — the transfer function at a fork site adds the
//!   spawned subtree to the spawner's set (the transitive `[T-FORK]`
//!   premise), and every thread's entry fact contains its spawn-ancestors;
//! * `[I-SIBLING]` — entry facts also contain the eligible siblings (those
//!   not ordered by happens-before, Definition 2);
//! * `[I-JOIN]` — the transfer at a join site removes the threads the model
//!   proves dead ([`ThreadModel::dead_after_for`]);
//! * `[I-CALL]`/`[I-RET]`/`[I-INTRA]` — context transitions in the driver.

use std::collections::HashMap;

use fsam_ir::context::{ContextTable, CtxId};
use fsam_ir::icfg::{Icfg, NodeId, NodeKind};
use fsam_ir::{Module, StmtId, StmtKind};

use crate::flow::{run_forward, FlowState, ForwardProblem};
use crate::mhp::MhpOracle;
use crate::model::{ThreadId, ThreadModel};

/// A set of [`ThreadId`]s (a compact sorted vector; thread counts are small).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ThreadSet {
    ids: Vec<u32>,
}

impl ThreadSet {
    /// The empty set.
    pub fn new() -> ThreadSet {
        ThreadSet::default()
    }

    /// Whether `t` is a member.
    pub fn contains(&self, t: ThreadId) -> bool {
        self.ids.binary_search(&t.0).is_ok()
    }

    /// Inserts `t`; returns `true` if new.
    pub fn insert(&mut self, t: ThreadId) -> bool {
        match self.ids.binary_search(&t.0) {
            Ok(_) => false,
            Err(i) => {
                self.ids.insert(i, t.0);
                true
            }
        }
    }

    /// Removes `t`; returns `true` if it was present.
    pub fn remove(&mut self, t: ThreadId) -> bool {
        match self.ids.binary_search(&t.0) {
            Ok(i) => {
                self.ids.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Unions `other` into `self`; returns `true` if `self` grew.
    pub fn union_in_place(&mut self, other: &ThreadSet) -> bool {
        let mut changed = false;
        for &id in &other.ids {
            changed |= self.insert(ThreadId(id));
        }
        changed
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates over members.
    pub fn iter(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.ids.iter().map(|&id| ThreadId(id))
    }
}

impl FromIterator<ThreadId> for ThreadSet {
    fn from_iter<I: IntoIterator<Item = ThreadId>>(iter: I) -> Self {
        let mut s = ThreadSet::new();
        for t in iter {
            s.insert(t);
        }
        s
    }
}

struct InterleaveProblem<'a> {
    module: &'a Module,
    tm: &'a ThreadModel,
    entry_facts: Vec<ThreadSet>,
}

impl ForwardProblem for InterleaveProblem<'_> {
    type Fact = ThreadSet;

    fn entry_fact(&mut self, t: ThreadId) -> ThreadSet {
        self.entry_facts[t.index()].clone()
    }

    fn transfer(&mut self, _t: ThreadId, _c: CtxId, node: NodeId, fact: &ThreadSet) -> ThreadSet {
        let _ = node;
        fact.clone()
    }

    fn merge(&mut self, current: &mut ThreadSet, incoming: &ThreadSet) -> bool {
        current.union_in_place(incoming)
    }
}

// The real transfer needs the node kind; we specialize below by wrapping the
// generic problem (the driver calls `transfer` with the node id).
struct InterleaveTransfer<'a> {
    inner: InterleaveProblem<'a>,
    icfg: &'a Icfg,
    /// Symmetric-join kill edges: join-loop exit edges → the join sites
    /// whose symmetric entries die there (Fig. 11 semantics).
    symmetric_kills: HashMap<(NodeId, NodeId), Vec<StmtId>>,
}

impl ForwardProblem for InterleaveTransfer<'_> {
    type Fact = ThreadSet;

    fn entry_fact(&mut self, t: ThreadId) -> ThreadSet {
        self.inner.entry_fact(t)
    }

    fn transfer(&mut self, t: ThreadId, c: CtxId, node: NodeId, fact: &ThreadSet) -> ThreadSet {
        let mut out = fact.clone();
        if let NodeKind::Stmt(s) = self.icfg.kind(node) {
            match self.inner.module.stmt(s).kind {
                StmtKind::Fork { .. } => {
                    // [I-DESCENDANT]: everything spawned through this fork
                    // site (transitively) may now run in parallel with t.
                    for child in self.inner.tm.children_at(t, s) {
                        for d in self.inner.tm.subtree(child) {
                            out.insert(d);
                        }
                    }
                }
                StmtKind::Join { .. } => {
                    // [I-JOIN]: joined threads (closed under full joins) die.
                    // Symmetric (multi-forked) entries are excluded here:
                    // inside the join loop other runtime instances are still
                    // alive; they die on the loop-exit edges instead.
                    let tm = self.inner.tm;
                    let seed = tm
                        .joins_at(s)
                        .iter()
                        .filter(|e| e.spawner == t && !e.symmetric)
                        .map(|e| e.thread);
                    for dead in tm.close_under_full_joins(seed) {
                        out.remove(dead);
                    }
                }
                _ => {}
            }
        }
        let _ = c;
        out
    }

    fn merge(&mut self, current: &mut ThreadSet, incoming: &ThreadSet) -> bool {
        self.inner.merge(current, incoming)
    }

    fn edge_transfer(
        &mut self,
        t: ThreadId,
        _ctx: CtxId,
        from: NodeId,
        to: NodeId,
        mut fact: ThreadSet,
    ) -> ThreadSet {
        if let Some(join_sites) = self.symmetric_kills.get(&(from, to)) {
            let tm = self.inner.tm;
            for &jn in join_sites {
                let seed = tm
                    .joins_at(jn)
                    .iter()
                    .filter(|e| e.spawner == t && e.symmetric)
                    .map(|e| e.thread);
                for dead in tm.close_under_full_joins(seed) {
                    fact.remove(dead);
                }
            }
        }
        fact
    }
}

/// The result of the interleaving analysis.
#[derive(Debug)]
pub struct Interleaving {
    /// IN facts per `(thread, context, node)`.
    state: FlowState<ThreadSet>,
    /// Context instances per `(thread, statement)`.
    instances: HashMap<(ThreadId, StmtId), Vec<CtxId>>,
    /// Union over contexts of `I(t, ·, s)` per `(thread, statement)`.
    alive: HashMap<(ThreadId, StmtId), ThreadSet>,
    /// Threads executing each statement's function.
    executors: HashMap<StmtId, Vec<ThreadId>>,
    multi: Vec<bool>,
}

impl Interleaving {
    /// Runs the interleaving analysis. `ctxs` is the shared, pre-populated
    /// context table (see [`crate::flow::precompute_contexts`]); the lock
    /// analysis must use the same one so instance ids align. Taking it
    /// read-only lets both analyses run concurrently.
    pub fn compute(
        module: &Module,
        icfg: &Icfg,
        pre: &fsam_andersen::PreAnalysis,
        tm: &ThreadModel,
        ctxs: &ContextTable,
    ) -> Interleaving {
        // Entry facts: ancestors + unordered siblings.
        let mut entry_facts = Vec::with_capacity(tm.len());
        for ti in tm.threads() {
            let mut set = ThreadSet::new();
            // Spawn-ancestors ([I-DESCENDANT] conclusion at the spawnee).
            let mut anc = ti.spawner;
            while let Some(a) = anc {
                set.insert(a);
                anc = tm.info(a).spawner;
            }
            // Siblings not ordered by happens-before ([I-SIBLING]).
            for other in tm.threads() {
                if tm.are_siblings(ti.id, other.id)
                    && !tm.happens_before(icfg, ti.id, other.id)
                    && !tm.happens_before(icfg, other.id, ti.id)
                {
                    set.insert(other.id);
                }
            }
            entry_facts.push(set);
        }

        // Symmetric-join kill edges: the exit edges of each symmetric join's
        // loop (Fig. 11: all runtime instances are joined once the loop is
        // done).
        let mut symmetric_kills: HashMap<(NodeId, NodeId), Vec<StmtId>> = HashMap::new();
        let node_block = |n: NodeId| match icfg.kind(n) {
            NodeKind::Stmt(s) | NodeKind::CallRet(s) => {
                let st = module.stmt(s);
                Some((st.func, st.block))
            }
            NodeKind::Skip(f, b) => Some((f, b)),
            _ => None,
        };
        for (jn, stmt) in module.stmts() {
            if !matches!(stmt.kind, StmtKind::Join { .. }) {
                continue;
            }
            if !tm.joins_at(jn).iter().any(|e| e.symmetric) {
                continue;
            }
            let func = module.func(stmt.func);
            let dom = fsam_ir::dom::DomTree::compute(func);
            let li = fsam_ir::loops::LoopInfo::compute(func, &dom);
            let Some(lj) = li.innermost_loop(stmt.block) else {
                continue;
            };
            let loop_blocks = &li.loops()[lj as usize].blocks;
            for n1 in icfg.node_ids() {
                let Some((f1, b1)) = node_block(n1) else {
                    continue;
                };
                if f1 != stmt.func || !loop_blocks.contains(&b1) {
                    continue;
                }
                for &(n2, _) in icfg.succs(n1) {
                    match node_block(n2) {
                        Some((f2, b2)) if f2 == stmt.func && !loop_blocks.contains(&b2) => {
                            symmetric_kills.entry((n1, n2)).or_default().push(jn);
                        }
                        None if matches!(icfg.kind(n2), NodeKind::Exit(f) if f == stmt.func) => {
                            // Leaving the function is also leaving the loop.
                            symmetric_kills.entry((n1, n2)).or_default().push(jn);
                        }
                        _ => {}
                    }
                }
            }
        }

        let mut problem = InterleaveTransfer {
            inner: InterleaveProblem {
                module,
                tm,
                entry_facts,
            },
            icfg,
            symmetric_kills,
        };
        let state = run_forward(module, icfg, pre.call_graph(), tm, ctxs, &mut problem);

        // Summaries.
        let mut instances: HashMap<(ThreadId, StmtId), Vec<CtxId>> = HashMap::new();
        let mut alive: HashMap<(ThreadId, StmtId), ThreadSet> = HashMap::new();
        for (&(t, c, node), fact) in &state {
            if let NodeKind::Stmt(s) = icfg.kind(node) {
                instances.entry((t, s)).or_default().push(c);
                alive.entry((t, s)).or_default().union_in_place(fact);
            }
        }
        for ctxs_of in instances.values_mut() {
            ctxs_of.sort();
            ctxs_of.dedup();
        }
        let mut executors: HashMap<StmtId, Vec<ThreadId>> = HashMap::new();
        for (sid, stmt) in module.stmts() {
            let ts = tm.threads_executing(stmt.func);
            if !ts.is_empty() {
                executors.insert(sid, ts);
            }
        }
        let multi = tm.threads().iter().map(|ti| ti.multi_forked).collect();

        Interleaving {
            state,
            instances,
            alive,
            executors,
            multi,
        }
    }

    /// `I(t, c, s)`: threads that may run in parallel when `t` executes `s`
    /// under context `c` (`None` if the instance is unreachable).
    pub fn alive_at(&self, icfg: &Icfg, t: ThreadId, c: CtxId, s: StmtId) -> Option<&ThreadSet> {
        self.state.get(&(t, c, icfg.stmt_node(s)))
    }

    /// Union of `I(t, ·, s)` over all contexts.
    pub fn alive_any(&self, t: ThreadId, s: StmtId) -> Option<&ThreadSet> {
        self.alive.get(&(t, s))
    }

    /// Number of `(thread, context, node)` states (for statistics).
    pub fn state_count(&self) -> usize {
        self.state.len()
    }

    /// Threads executing each statement's function (the statement-level MHP
    /// inputs [`MhpBackend::relation`](crate::MhpBackend::relation) factors).
    pub fn executors_map(&self) -> &HashMap<StmtId, Vec<ThreadId>> {
        &self.executors
    }

    /// Per-thread multi-forked flags, indexed by [`ThreadId::index`].
    pub fn multi_flags(&self) -> &[bool] {
        &self.multi
    }

    /// Union-over-contexts alive sets per `(thread, statement)`.
    pub fn alive_map(&self) -> &HashMap<(ThreadId, StmtId), ThreadSet> {
        &self.alive
    }
}

impl MhpOracle for Interleaving {
    fn instances(&self, s: StmtId) -> Vec<(ThreadId, CtxId)> {
        let mut out = Vec::new();
        for &t in self.executors.get(&s).map_or(&[][..], Vec::as_slice) {
            if let Some(ctxs) = self.instances.get(&(t, s)) {
                out.extend(ctxs.iter().map(|&c| (t, c)));
            }
        }
        out
    }

    fn mhp_stmt(&self, s1: StmtId, s2: StmtId) -> bool {
        let (Some(e1), Some(e2)) = (self.executors.get(&s1), self.executors.get(&s2)) else {
            return false;
        };
        for &t1 in e1 {
            for &t2 in e2 {
                if t1 == t2 {
                    if self.multi[t1.index()] {
                        return true;
                    }
                    continue;
                }
                let fwd = self.alive.get(&(t1, s1)).is_some_and(|a| a.contains(t2));
                let bwd = self.alive.get(&(t2, s2)).is_some_and(|a| a.contains(t1));
                if fwd && bwd {
                    return true;
                }
            }
        }
        false
    }

    fn mhp_instances(
        &self,
        icfg: &Icfg,
        i1: (ThreadId, CtxId, StmtId),
        i2: (ThreadId, CtxId, StmtId),
    ) -> bool {
        let (t1, c1, s1) = i1;
        let (t2, c2, s2) = i2;
        if t1 == t2 {
            return self.multi[t1.index()];
        }
        let fwd = self
            .state
            .get(&(t1, c1, icfg.stmt_node(s1)))
            .is_some_and(|a| a.contains(t2));
        let bwd = self
            .state
            .get(&(t2, c2, icfg.stmt_node(s2)))
            .is_some_and(|a| a.contains(t1));
        fwd && bwd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsam_andersen::PreAnalysis;
    use fsam_ir::parse::parse_module;

    pub(crate) fn analyze(src: &str) -> (Module, Icfg, ThreadModel, Interleaving) {
        let m = parse_module(src).unwrap();
        fsam_ir::verify::verify_module(&m).unwrap();
        let pre = PreAnalysis::run(&m);
        let icfg = Icfg::build(&m, pre.call_graph());
        let tm = ThreadModel::build(&m, &pre, &icfg);
        let ctxs = crate::flow::precompute_contexts(&icfg, pre.call_graph(), &tm);
        let inter = Interleaving::compute(&m, &icfg, &pre, &tm, &ctxs);
        (m, icfg, tm, inter)
    }

    fn nth_stmt(m: &Module, f: &str, pred: impl Fn(&StmtKind) -> bool, n: usize) -> StmtId {
        let fid = m.func_by_name(f).unwrap();
        m.stmts()
            .filter(|(_, s)| s.func == fid && pred(&s.kind))
            .nth(n)
            .unwrap_or_else(|| panic!("no stmt #{n} in {f}"))
            .0
    }

    /// The paper's Figure 8, faithfully: main runs s1; forks t1; s2; joins
    /// t1; calls bar at cs4... — we encode the original shape.
    const FIG8: &str = r#"
        global g
        func bar() {
        entry:
          s5 = &g        // stands for statement s5
          ret
        }
        func foo2() {
        entry:
          call bar()     // cs4
          s3x = &g
          ret
        }
        func foo1() {
        entry:
          t3 = fork bar()   // fk3
          join t3           // jn3
          ret
        }
        func main() {
        entry:
          s1 = &g
          t1 = fork foo1()  // fk1
          s2 = &g           // s2: while t1 (and t3) alive
          join t1           // jn1
          t2 = fork foo2()  // fk2
          s3 = &g           // s3: while t2 alive
          join t2           // jn2
          ret
        }
    "#;

    #[test]
    fn figure8_interleaving_facts() {
        let (m, icfg, tm, inter) = analyze(FIG8);
        let by_routine = |name: &str| {
            let f = m.func_by_name(name).unwrap();
            tm.threads().iter().find(|t| t.routine == f).unwrap().id
        };
        let (t1, t2, t3) = (by_routine("foo1"), by_routine("foo2"), by_routine("bar"));
        let t0 = ThreadId::MAIN;
        let _ = icfg;

        // I(t0, s1) = {} — nothing forked yet.
        let s1 = nth_stmt(&m, "main", |k| matches!(k, StmtKind::Addr { .. }), 0);
        assert!(inter.alive_any(t0, s1).unwrap().is_empty());

        // I(t0, s2) = {t1, t3}.
        let s2 = nth_stmt(&m, "main", |k| matches!(k, StmtKind::Addr { .. }), 1);
        let alive_s2 = inter.alive_any(t0, s2).unwrap();
        assert!(alive_s2.contains(t1) && alive_s2.contains(t3));
        assert!(!alive_s2.contains(t2));

        // I(t0, s3) = {t2} — t1/t3 joined at jn1.
        let s3 = nth_stmt(&m, "main", |k| matches!(k, StmtKind::Addr { .. }), 2);
        let alive_s3 = inter.alive_any(t0, s3).unwrap();
        assert!(alive_s3.contains(t2));
        assert!(!alive_s3.contains(t1) && !alive_s3.contains(t3));

        // I(t3, s5) = {t0, t1} — not t2 (t3 > t2).
        let s5 = nth_stmt(&m, "bar", |k| matches!(k, StmtKind::Addr { .. }), 0);
        let alive_s5_t3 = inter.alive_any(t3, s5).unwrap();
        assert!(alive_s5_t3.contains(t0) && alive_s5_t3.contains(t1));
        assert!(!alive_s5_t3.contains(t2));

        // I(t2, s5 via cs4) = {t0}.
        let alive_s5_t2 = inter.alive_any(t2, s5).unwrap();
        assert!(alive_s5_t2.contains(t0));
        assert_eq!(alive_s5_t2.len(), 1);
    }

    #[test]
    fn figure8_mhp_pairs() {
        let (m, icfg, _, inter) = analyze(FIG8);
        let s2 = nth_stmt(&m, "main", |k| matches!(k, StmtKind::Addr { .. }), 1);
        let s3 = nth_stmt(&m, "main", |k| matches!(k, StmtKind::Addr { .. }), 2);
        let s5 = nth_stmt(&m, "bar", |k| matches!(k, StmtKind::Addr { .. }), 0);
        // Paper Fig 8(d): s2 ∥ s5 (under t3), s3 ∥ s5 (under t2).
        assert!(inter.mhp_stmt(s2, s5));
        assert!(inter.mhp_stmt(s3, s5));
        assert!(inter.mhp_stmt(s5, s2), "MHP is symmetric");
        // s1 happens before any fork: not parallel with anything.
        let s1 = nth_stmt(&m, "main", |k| matches!(k, StmtKind::Addr { .. }), 0);
        assert!(!inter.mhp_stmt(s1, s5));

        // Context-sensitivity: s5's instance under t2 ([cs4]) is parallel
        // with s3 but not with s2 — check at instance granularity.
        let inst5 = inter.instances(s5);
        assert!(inst5.len() >= 2, "s5 has an instance per executing thread");
        for &(t, c) in &inst5 {
            let i5 = (t, c, s5);
            let mhp_s2 = inter
                .instances(s2)
                .iter()
                .any(|&(t2, c2)| inter.mhp_instances(&icfg, i5, (t2, c2, s2)));
            let mhp_s3 = inter
                .instances(s3)
                .iter()
                .any(|&(t3, c3)| inter.mhp_instances(&icfg, i5, (t3, c3, s3)));
            // Each instance is parallel with exactly one of s2/s3.
            assert!(mhp_s2 ^ mhp_s3, "instance {i5:?}: s2={mhp_s2} s3={mhp_s3}");
        }
    }

    #[test]
    fn statements_after_full_join_are_sequential() {
        let (m, _, _, inter) = analyze(
            r#"
            global g
            func worker() {
            entry:
              w = &g
              ret
            }
            func main() {
            entry:
              t = fork worker()
              join t
              after = &g
              ret
            }
        "#,
        );
        let w = nth_stmt(&m, "worker", |k| matches!(k, StmtKind::Addr { .. }), 0);
        let after = nth_stmt(&m, "main", |k| matches!(k, StmtKind::Addr { .. }), 0);
        assert!(!inter.mhp_stmt(w, after), "master-slave join precision");
    }

    #[test]
    fn multi_forked_thread_is_self_parallel() {
        let (m, _, _, inter) = analyze(
            r#"
            global g
            func worker() {
            entry:
              w = &g
              ret
            }
            func main() {
            entry:
              br h
            h:
              br ?, b, x
            b:
              t = fork worker()
              br h
            x:
              ret
            }
        "#,
        );
        let w = nth_stmt(&m, "worker", |k| matches!(k, StmtKind::Addr { .. }), 0);
        assert!(
            inter.mhp_stmt(w, w),
            "two instances of a multi-forked thread"
        );
    }

    #[test]
    fn partial_join_keeps_mhp() {
        let (m, _, _, inter) = analyze(
            r#"
            global g
            func worker() {
            entry:
              w = &g
              ret
            }
            func main() {
            entry:
              t = fork worker()
              br ?, dojoin, skip
            dojoin:
              join t
              br out
            skip:
              br out
            out:
              after = &g
              ret
            }
        "#,
        );
        let w = nth_stmt(&m, "worker", |k| matches!(k, StmtKind::Addr { .. }), 0);
        let after = nth_stmt(&m, "main", |k| matches!(k, StmtKind::Addr { .. }), 0);
        assert!(inter.mhp_stmt(w, after), "join on one path only: still MHP");
    }

    #[test]
    fn symmetric_join_gives_master_slave_precision() {
        // The word_count pattern: after the join loop, slaves are dead.
        let (m, _, _, inter) = analyze(
            r#"
            global array tids
            global g
            func worker() {
            entry:
              w = &g
              ret
            }
            func main() {
            entry:
              ta = &tids
              br fh
            fh:
              br ?, fbody, jh
            fbody:
              t = fork worker()
              store ta, t
              br fh
            jh:
              br ?, jbody, post
            jbody:
              h = load ta
              join h
              br jh
            post:
              after = &g
              ret
            }
        "#,
        );
        let w = nth_stmt(&m, "worker", |k| matches!(k, StmtKind::Addr { .. }), 0);
        // main's Addr #0 is `ta = &tids`; the post-join marker is Addr #1.
        let after = nth_stmt(&m, "main", |k| matches!(k, StmtKind::Addr { .. }), 1);
        assert!(
            !inter.mhp_stmt(w, after),
            "slave statements do not run in parallel with post-join master code (Fig 11)"
        );
        assert!(
            inter.mhp_stmt(w, w),
            "slaves run in parallel with each other"
        );
    }
}
