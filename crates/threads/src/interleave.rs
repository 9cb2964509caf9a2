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
//!
//! The result keeps its [`InstanceSpace`], an interned [`ThreadSet`] id
//! per state, and per state the id of its alive set (the union over
//! contexts at its thread and node).

use std::sync::Arc;

use fsam_ir::context::{ContextTable, CtxId};
use fsam_ir::icfg::{Icfg, NodeId, NodeKind};
use fsam_ir::{Module, StmtId, StmtKind};

use crate::flow::{
    run_forward, sorted_insert, sorted_remove, Facts, ForwardProblem, InstanceSpace,
};
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
        sorted_insert(&mut self.ids, t.0)
    }

    /// Removes `t`; returns `true` if it was present.
    pub fn remove(&mut self, t: ThreadId) -> bool {
        sorted_remove(&mut self.ids, &t.0)
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

/// The interleaving data-flow (module docs): `I(t, c, n)` per state.
pub(crate) struct InterleaveProblem<'a> {
    module: &'a Module,
    icfg: &'a Icfg,
    tm: &'a ThreadModel,
    /// Each thread's entry fact: its ancestors and unordered siblings.
    entry_facts: Vec<ThreadSet>,
    /// Symmetric-join kill edges, sorted: each join-loop exit edge with a
    /// join site whose symmetric entries die there (Fig. 11 semantics).
    symmetric_kills: Vec<((NodeId, NodeId), StmtId)>,
}

impl<'a> InterleaveProblem<'a> {
    pub(crate) fn new(module: &'a Module, icfg: &'a Icfg, tm: &'a ThreadModel) -> Self {
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
        let mut symmetric_kills = Vec::new();
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
                            symmetric_kills.push(((n1, n2), jn));
                        }
                        None if matches!(icfg.kind(n2), NodeKind::Exit(f) if f == stmt.func) => {
                            // Leaving the function is also leaving the loop.
                            symmetric_kills.push(((n1, n2), jn));
                        }
                        _ => {}
                    }
                }
            }
        }
        symmetric_kills.sort_unstable();
        InterleaveProblem {
            module,
            icfg,
            tm,
            entry_facts,
            symmetric_kills,
        }
    }
}

impl ForwardProblem for InterleaveProblem<'_> {
    type Fact = ThreadSet;

    fn entry_fact(&mut self, t: ThreadId) -> ThreadSet {
        self.entry_facts[t.index()].clone()
    }

    fn transfer(&mut self, t: ThreadId, node: NodeId, fact: &ThreadSet) -> Option<ThreadSet> {
        let NodeKind::Stmt(s) = self.icfg.kind(node) else {
            return None;
        };
        let tm = self.tm;
        let mut out = fact.clone();
        match self.module.stmt(s).kind {
            StmtKind::Fork { .. } => {
                // [I-DESCENDANT]: everything spawned through this fork
                // site (transitively) may now run in parallel with t.
                for child in tm.children_at(t, s) {
                    for d in tm.subtree(child) {
                        out.insert(d);
                    }
                }
            }
            StmtKind::Join { .. } => {
                // [I-JOIN]: joined threads (closed under full joins) die.
                // Symmetric (multi-forked) entries are excluded here:
                // inside the join loop other runtime instances are still
                // alive; they die on the loop-exit edges instead.
                let seed = (tm.joins_at(s).iter())
                    .filter(|e| e.spawner == t && !e.symmetric)
                    .map(|e| e.thread);
                for dead in tm.close_under_full_joins(seed) {
                    out.remove(dead);
                }
            }
            _ => return None,
        }
        Some(out)
    }

    fn merge(&mut self, current: &mut ThreadSet, incoming: &ThreadSet) -> bool {
        current.union_in_place(incoming)
    }

    fn edge_transfer(
        &mut self,
        t: ThreadId,
        from: NodeId,
        to: NodeId,
        fact: &ThreadSet,
    ) -> Option<ThreadSet> {
        let kills = &self.symmetric_kills;
        let lo = kills.partition_point(|&(edge, _)| edge < (from, to));
        let sites = kills[lo..]
            .iter()
            .take_while(|&&(edge, _)| edge == (from, to));
        let mut out = None;
        for &(_, jn) in sites {
            let killed = out.get_or_insert_with(|| fact.clone());
            let seed = (self.tm.joins_at(jn).iter())
                .filter(|e| e.spawner == t && e.symmetric)
                .map(|e| e.thread);
            for dead in self.tm.close_under_full_joins(seed) {
                killed.remove(dead);
            }
        }
        out
    }
}

/// The result of the interleaving analysis.
#[derive(Debug)]
pub struct Interleaving {
    space: Arc<InstanceSpace>,
    /// `I(t, c, n)` per state.
    facts: Facts<ThreadSet>,
    /// Per state: the fact id of the union over contexts of `I(t, ·, n)`
    /// at its thread and node.
    alive: Vec<u32>,
    multi: Vec<bool>,
}

impl Interleaving {
    /// Runs the interleaving analysis on a space of its own. `ctxs` is the
    /// shared, pre-populated context table (see
    /// [`crate::flow::precompute_contexts`]); the lock analysis must use the
    /// same one so instance ids align.
    pub fn compute(
        module: &Module,
        icfg: &Icfg,
        pre: &fsam_andersen::PreAnalysis,
        tm: &ThreadModel,
        ctxs: &ContextTable,
    ) -> Interleaving {
        let space = InstanceSpace::build(icfg, pre.call_graph(), tm, ctxs);
        Interleaving::on_space(module, icfg, tm, Arc::new(space))
    }

    /// Runs the interleaving analysis on a shared instance space, the one
    /// the lock analysis and the PCG backend of the same pipeline use.
    pub fn on_space(
        module: &Module,
        icfg: &Icfg,
        tm: &ThreadModel,
        space: Arc<InstanceSpace>,
    ) -> Interleaving {
        let mut facts = run_forward(&space, &mut InterleaveProblem::new(module, icfg, tm));

        // Alive sets: one union per thread-and-node run of states.
        let mut alive = Vec::with_capacity(space.len());
        for run in space.states().chunk_by(|a, b| (a.0, a.2) == (b.0, b.2)) {
            let ids = alive.len() as u32..(alive.len() + run.len()) as u32;
            let id = match run.len() {
                1 => facts.id(ids.start),
                _ => {
                    let union: ThreadSet = ids.clone().flat_map(|s| facts.at(s).iter()).collect();
                    facts.intern(&union)
                }
            };
            alive.extend(ids.map(|_| id));
        }
        let multi = tm.threads().iter().map(|ti| ti.multi_forked).collect();

        Interleaving {
            space,
            facts,
            alive,
            multi,
        }
    }

    /// `I(t, c, s)`: threads that may run in parallel when `t` executes `s`
    /// under context `c` (`None` if the instance is unreachable).
    pub fn alive_at(&self, icfg: &Icfg, t: ThreadId, c: CtxId, s: StmtId) -> Option<&ThreadSet> {
        (self.space.find(t, c, icfg.stmt_node(s))).map(|id| self.facts.at(id))
    }

    /// Union of `I(t, ·, s)` over all contexts.
    pub fn alive_any(&self, t: ThreadId, s: StmtId) -> Option<&ThreadSet> {
        let first = self.space.thread_at(t, self.space.stmt_node(s)?).next()?;
        Some(self.facts.get(self.alive[first as usize]))
    }

    /// The fact id of [`alive_any`](Self::alive_any), or the empty set's
    /// when `t` never executes `s`: equal ids are equal sets
    /// ([`fact`](Self::fact)).
    pub(crate) fn alive_id(&self, t: ThreadId, s: StmtId) -> u32 {
        let first = (self.space.stmt_node(s)).and_then(|n| self.space.thread_at(t, n).next());
        first.map_or(Facts::<ThreadSet>::EMPTY, |id| self.alive[id as usize])
    }

    /// The thread set with fact id `id`.
    pub fn fact(&self, id: u32) -> &ThreadSet {
        self.facts.get(id)
    }

    /// Number of `(thread, context, node)` states (for statistics).
    pub fn state_count(&self) -> usize {
        self.space.len()
    }

    /// The analysis's states, and the threads executing each statement
    /// (the statement-level MHP inputs
    /// [`MhpBackend::relation`](crate::MhpBackend::relation) factors).
    pub(crate) fn space(&self) -> &InstanceSpace {
        &self.space
    }

    /// Per-thread multi-forked flags, indexed by [`ThreadId::index`].
    pub fn multi_flags(&self) -> &[bool] {
        &self.multi
    }
}

impl MhpOracle for Interleaving {
    fn instances(&self, s: StmtId) -> Vec<(ThreadId, CtxId)> {
        self.space.instances(s)
    }

    fn mhp_stmt(&self, s1: StmtId, s2: StmtId) -> bool {
        for &t1 in self.space.executors(s1) {
            for &t2 in self.space.executors(s2) {
                if t1 == t2 {
                    if self.multi[t1.index()] {
                        return true;
                    }
                    continue;
                }
                let fwd = self.alive_any(t1, s1).is_some_and(|a| a.contains(t2));
                let bwd = self.alive_any(t2, s2).is_some_and(|a| a.contains(t1));
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
            .alive_at(icfg, t1, c1, s1)
            .is_some_and(|a| a.contains(t2));
        let bwd = self
            .alive_at(icfg, t2, c2, s2)
            .is_some_and(|a| a.contains(t1));
        fwd && bwd
    }

    fn mhp_state(&self, icfg: &Icfg, i: (ThreadId, CtxId, StmtId)) -> Option<u32> {
        let (t, c, s) = i;
        (self.space.find(t, c, icfg.stmt_node(s))).map(|id| self.facts.id(id))
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
        crate::reference::check(&m);
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
