//! The lock analysis — paper §3.3.3, Definitions 3–6, Figure 9.
//!
//! Two pieces, both flow- and context-sensitive:
//!
//! 1. a **must-held-locks** data-flow (over the shared
//!    [`flow`](crate::flow) driver): the set of singleton lock objects that
//!    are certainly held at each `(thread, context, node)` instance — the
//!    paper's must-alias condition `l ≡ l'` is realized by tracking only
//!    locks whose pointer has a singleton points-to set — and its may-held
//!    companion;
//! 2. **lock-release spans** (Definition 3): from each context-sensitive
//!    acquisition instance we walk forward (matching calls and returns)
//!    until the corresponding release, collecting member instances; within
//!    each span we compute the *head* accesses (Definition 4: no in-span
//!    store reaches them) and *tail* stores (Definition 5: no in-span store
//!    follows them) per object.
//!
//! Both data-flows and every span walk run on one [`InstanceSpace`]:
//! locksets are interned fact ids per state, and a span's members, heads
//! and tails are state ids.
//!
//! A candidate thread-aware def-use edge is a *non-interference pair*
//! (Definition 6) — and is therefore filtered — when both instances hold a
//! common lock and the store is not a span tail or the access is not a span
//! head: mutual exclusion then guarantees the value is overwritten or
//! already redefined before the other span can observe it. Only pairs of
//! *locked* statements ([`LockAnalysis::locked_stmts`]) can qualify, so
//! the value-flow phase and the race reducer run their lock tests on those
//! alone.
//!
//! Definition 6 splits per instance: with `A(i)` the locks of the spans
//! guarding `i`, and `NT(i, o)`/`NH(i, o)` those whose span does not list
//! `i` as a tail/head of `o`, `non_interference(i1, i2, o)` is
//! `NT(i1, o) ∩ A(i2) ≠ ∅ ∨ A(i1) ∩ NH(i2, o) ≠ ∅`
//! (`LockAnalysis::span_locks`), and the [`lockclass`](crate::lockclass)
//! module runs both lock tests on classes of instances built from those
//! sets.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use fsam_andersen::PreAnalysis;
use fsam_ir::context::{ContextTable, CtxId};
use fsam_ir::icfg::{Icfg, NodeId, NodeKind};
use fsam_ir::{Module, StmtId, StmtKind};
use fsam_pts::MemId;

use crate::flow::{
    run_forward, sorted_insert, sorted_remove, Facts, ForwardProblem, InstanceSpace, State,
};
use crate::model::{ThreadId, ThreadModel};

/// A sorted set of singleton lock objects (small).
pub type LockSet = Vec<MemId>;

/// A context-sensitive statement instance `(thread, context, statement)`.
pub type Instance = (ThreadId, CtxId, StmtId);

/// The must-held locks data-flow, or with `may` its may-held companion:
/// the same transfer on resolved locks, but joins *union* and an unknown
/// release keeps the set (the release might target some other lock, so
/// everything stays possibly held). A lock in may-held but not in
/// must-held is held on some paths into the state and free on others —
/// the path inconsistency the lockset-inconsistency checker reports.
pub(crate) struct HeldLocks<'a> {
    pub module: &'a Module,
    pub pre: &'a PreAnalysis,
    pub icfg: &'a Icfg,
    pub may: bool,
}

impl ForwardProblem for HeldLocks<'_> {
    type Fact = LockSet;

    fn entry_fact(&mut self, _t: ThreadId) -> LockSet {
        Vec::new()
    }

    fn transfer(&mut self, _t: ThreadId, node: NodeId, fact: &LockSet) -> Option<LockSet> {
        let NodeKind::Stmt(s) = self.icfg.kind(node) else {
            return None;
        };
        let (acquire, lock) = match self.module.stmt(s).kind {
            StmtKind::Lock { lock } => (true, lock),
            StmtKind::Unlock { lock } => (false, lock),
            _ => return None,
        };
        let mut out = fact.clone();
        match (acquire, self.pre.must_lock_obj(lock)) {
            (true, Some(l)) => {
                sorted_insert(&mut out, l);
            }
            (false, Some(l)) => {
                sorted_remove(&mut out, &l);
            }
            // Unknown release: must-information drops everything; *may*
            // information removes nothing, every lock stays possibly held.
            (false, None) if !self.may => out.clear(),
            // A lock through an unresolved pointer adds nothing:
            // must-information may only shrink.
            _ => return None,
        }
        Some(out)
    }

    fn merge(&mut self, current: &mut LockSet, incoming: &LockSet) -> bool {
        let before = current.len();
        if self.may {
            for &l in incoming {
                sorted_insert(current, l);
            }
        } else {
            current.retain(|l| incoming.binary_search(l).is_ok());
        }
        current.len() != before
    }
}

/// One lock-release span (Definition 3).
#[derive(Debug)]
struct Span {
    /// The singleton lock object protecting the span.
    lock: MemId,
    /// Head accesses per object (Definition 4), as ascending state ids.
    hd: HashMap<MemId, Vec<u32>>,
    /// Tail stores per object (Definition 5), as ascending state ids.
    tl: HashMap<MemId, Vec<u32>>,
}

/// Definition 6's lock sets of one instance on one object
/// (`LockAnalysis::span_locks`), each ascending.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct SpanLocks {
    /// `A(i)`: the locks of the spans guarding the instance.
    pub all: LockSet,
    /// `NT(i, o)`: the locks of guarding spans where it is not a tail of `o`.
    pub not_tail: LockSet,
    /// `NH(i, o)`: the locks of guarding spans where it is not a head of `o`.
    pub not_head: LockSet,
}

/// The combined lock analysis result.
#[derive(Debug)]
pub struct LockAnalysis {
    /// The states both lock data-flows and the spans run over.
    space: Arc<InstanceSpace>,
    held: Facts<LockSet>,
    may_held: Facts<LockSet>,
    spans: Vec<Span>,
    /// `(state, span)` for each statement state of each span, sorted.
    members: Vec<(u32, u32)>,
    /// Statistics: number of spans discovered.
    pub span_count: usize,
}

/// Cap on the number of member states explored per span (degenerate spans
/// are dropped — never filtering is always sound).
const MAX_SPAN_STATES: usize = 100_000;

/// A set of state ids cleared in O(1): a state is a member while its stamp
/// equals the current generation.
struct Marks {
    stamp: Vec<u32>,
    generation: u32,
}

impl Marks {
    fn new(len: usize) -> Marks {
        Marks {
            stamp: vec![0; len],
            generation: 1,
        }
    }

    fn clear(&mut self) {
        self.generation += 1;
    }

    fn insert(&mut self, s: u32) -> bool {
        let stamp = &mut self.stamp[s as usize];
        let new = *stamp != self.generation;
        *stamp = self.generation;
        new
    }

    fn contains(&self, s: u32) -> bool {
        self.stamp[s as usize] == self.generation
    }
}

impl LockAnalysis {
    /// Runs the lock analysis on a space of its own. `ctxs` must be the
    /// same shared, pre-populated context table (see
    /// [`crate::flow::precompute_contexts`]) used by the interleaving
    /// analysis so instance ids agree.
    pub fn compute(
        module: &Module,
        icfg: &Icfg,
        pre: &PreAnalysis,
        tm: &ThreadModel,
        ctxs: &ContextTable,
    ) -> LockAnalysis {
        let space = InstanceSpace::build(icfg, pre.call_graph(), tm, ctxs);
        LockAnalysis::on_space(module, icfg, pre, Arc::new(space))
    }

    /// Runs the lock analysis on a shared instance space, the one the
    /// interleaving analysis of the same pipeline uses.
    pub fn on_space(
        module: &Module,
        icfg: &Icfg,
        pre: &PreAnalysis,
        space: Arc<InstanceSpace>,
    ) -> LockAnalysis {
        let mut problem = HeldLocks {
            module,
            pre,
            icfg,
            may: false,
        };
        let held = run_forward(&space, &mut problem);
        problem.may = true;
        let may_held = run_forward(&space, &mut problem);

        let mut analysis = LockAnalysis {
            space,
            held,
            may_held,
            spans: Vec::new(),
            members: Vec::new(),
            span_count: 0,
        };
        analysis.enumerate_spans(module, icfg, pre);
        analysis.span_count = analysis.spans.len();
        analysis
    }

    /// The state of instance `i`, if it is reachable.
    fn state_of(&self, icfg: &Icfg, (t, c, s): Instance) -> Option<u32> {
        self.space.find(t, c, icfg.stmt_node(s))
    }

    /// The singleton locks certainly held when instance `(t, c, s)` executes.
    pub fn held_at(&self, icfg: &Icfg, t: ThreadId, c: CtxId, s: StmtId) -> &[MemId] {
        self.held_at_node(t, c, icfg.stmt_node(s))
    }

    /// The singleton locks *possibly* held when instance `(t, c, s)`
    /// executes (may-analysis: union at joins). A lock in here but not in
    /// [`held_at`](Self::held_at) is held on some incoming path only.
    pub fn may_held_at(&self, icfg: &Icfg, t: ThreadId, c: CtxId, s: StmtId) -> &[MemId] {
        self.may_held_at_node(t, c, icfg.stmt_node(s))
    }

    /// [`held_at`](Self::held_at) keyed by raw ICFG node — needed at
    /// entry/exit nodes, which have no statement id.
    pub fn held_at_node(&self, t: ThreadId, c: CtxId, n: NodeId) -> &[MemId] {
        (self.space.find(t, c, n)).map_or(&[], |id| self.held.at(id))
    }

    /// [`may_held_at`](Self::may_held_at) keyed by raw ICFG node.
    pub fn may_held_at_node(&self, t: ThreadId, c: CtxId, n: NodeId) -> &[MemId] {
        (self.space.find(t, c, n)).map_or(&[], |id| self.may_held.at(id))
    }

    /// The interned id of [`held_at`](Self::held_at) at instance `i`:
    /// equal ids are equal locksets ([`held_set`](Self::held_set)).
    pub(crate) fn held_id(&self, icfg: &Icfg, i: Instance) -> u32 {
        (self.state_of(icfg, i)).map_or(Facts::<LockSet>::EMPTY, |id| self.held.id(id))
    }

    /// The must-held lockset with id `id`.
    pub(crate) fn held_set(&self, id: u32) -> &[MemId] {
        self.held.get(id)
    }

    /// Iterates every `(thread, ctx, node)` instance that has a computed
    /// may-held set, with that set, sorted by node, thread and context.
    pub fn may_states(&self) -> impl Iterator<Item = (State, &[MemId])> {
        let states = self.space.states().iter().enumerate();
        states.map(|(id, &state)| (state, self.may_held.at(id as u32).as_slice()))
    }

    /// The locks held on *some* but not *all* paths into `(t, c, n)` —
    /// `may_held \ must_held`, the inconsistency the FL0004 checker
    /// reports at function exits.
    pub fn inconsistent_at_node(&self, t: ThreadId, c: CtxId, n: NodeId) -> Vec<MemId> {
        let must = self.held_at_node(t, c, n);
        self.may_held_at_node(t, c, n)
            .iter()
            .copied()
            .filter(|l| must.binary_search(l).is_err())
            .collect()
    }

    /// Whether both instances certainly hold at least one common lock
    /// (lockset discipline; used by the race-detection client).
    pub fn commonly_protected(&self, icfg: &Icfg, i1: Instance, i2: Instance) -> bool {
        let h1 = self.held_at(icfg, i1.0, i1.1, i1.2);
        let h2 = self.held_at(icfg, i2.0, i2.1, i2.2);
        h1.iter().any(|l| h2.binary_search(l).is_ok())
    }

    /// Definition 6: whether the MHP pair `(store i1, access i2)` on object
    /// `o` is a *non-interference* pair — both instances protected by a
    /// common lock, and the store is not a span tail or the access is not a
    /// span head. Such pairs need no thread-aware def-use edge.
    pub fn non_interference(&self, icfg: &Icfg, i1: Instance, i2: Instance, o: MemId) -> bool {
        let (Some(s1), Some(s2)) = (self.state_of(icfg, i1), self.state_of(icfg, i2)) else {
            return false;
        };
        self.guarding_spans(s1).any(|span1| {
            self.guarding_spans(s2).any(|span2| {
                span2.lock == span1.lock && !(listed(&span1.tl, o, s1) && listed(&span2.hd, o, s2))
            })
        })
    }

    /// Definition 6's lock sets of instance `i` on object `o`, all empty
    /// when no span guards `i`:
    /// [`non_interference`](Self::non_interference) is
    /// `NT(i1, o) ∩ A(i2) ≠ ∅ ∨ A(i1) ∩ NH(i2, o) ≠ ∅` on these sets.
    pub(crate) fn span_locks(&self, icfg: &Icfg, i: Instance, o: MemId) -> SpanLocks {
        let mut locks = SpanLocks::default();
        let Some(s) = self.state_of(icfg, i) else {
            return locks;
        };
        for span in self.guarding_spans(s) {
            sorted_insert(&mut locks.all, span.lock);
            if !listed(&span.tl, o, s) {
                sorted_insert(&mut locks.not_tail, span.lock);
            }
            if !listed(&span.hd, o, s) {
                sorted_insert(&mut locks.not_head, span.lock);
            }
        }
        locks
    }

    /// The spans containing state `s` whose lock is must-held there
    /// (membership without must-protection does not count).
    fn guarding_spans(&self, s: u32) -> impl Iterator<Item = &Span> {
        let held = self.held.at(s);
        let lo = self.members.partition_point(|&(m, _)| m < s);
        let spans = self.members[lo..].iter().take_while(move |&&(m, _)| m == s);
        let spans = spans.map(|&(_, sp)| &self.spans[sp as usize]);
        spans.filter(move |span| held.binary_search(&span.lock).is_ok())
    }

    /// The statements with an instance whose must-held lockset is
    /// non-empty. For every other statement,
    /// [`commonly_protected`](Self::commonly_protected) and
    /// [`non_interference`](Self::non_interference) are false: a guarding
    /// span's lock is must-held.
    pub fn locked_stmts(&self, icfg: &Icfg) -> HashSet<StmtId> {
        let states = self.space.states().iter().enumerate();
        (states.filter(|&(id, _)| !self.held.at(id as u32).is_empty()))
            .filter_map(|(_, &(_, _, n))| match icfg.kind(n) {
                NodeKind::Stmt(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    /// Walks every context-sensitive acquisition instance and builds spans.
    fn enumerate_spans(&mut self, module: &Module, icfg: &Icfg, pre: &PreAnalysis) {
        let mut marks = [(); 3].map(|_| Marks::new(self.space.len()));
        for acq in 0..self.space.len() as u32 {
            // Acquisition instances: states at Lock statements with a
            // singleton lock object.
            let NodeKind::Stmt(s) = icfg.kind(self.space.state(acq).2) else {
                continue;
            };
            let StmtKind::Lock { lock } = module.stmt(s).kind else {
                continue;
            };
            let Some(l) = pre.must_lock_obj(lock) else {
                continue;
            };
            let Some(span) = self.walk_span(module, icfg, pre, acq, l, &mut marks) else {
                continue;
            };
            let idx = u32::try_from(self.spans.len()).expect("span count");
            self.members
                .extend(span.member_stmts.iter().map(|&m| (m, idx)));
            self.spans.push(Span {
                lock: l,
                hd: span.hd,
                tl: span.tl,
            });
        }
        self.members.sort_unstable();
    }

    /// DFS from the acquisition state `acq` until releases of the same
    /// lock; computes members and per-object head/tail sets. `marks` are
    /// the walk's seen states, the span's members and a reach set.
    fn walk_span(
        &self,
        module: &Module,
        icfg: &Icfg,
        pre: &PreAnalysis,
        acq: u32,
        l: MemId,
        [seen, member, reach]: &mut [Marks; 3],
    ) -> Option<SpanWalk> {
        // Collect the span subgraph: states reachable from the acquisition
        // without passing a release of `l`.
        let space = &self.space;
        let lock_node = space.state(acq).2;
        let mut members: Vec<u32> = Vec::new();
        let mut work = vec![acq];
        let mut seen_count = 1;
        seen.clear();
        seen.insert(acq);
        member.clear();
        while let Some(s) = work.pop() {
            if seen_count > MAX_SPAN_STATES {
                return None; // degenerate span: drop (sound)
            }
            let n = space.state(s).2;
            let is_release = matches!(icfg.kind(n), NodeKind::Stmt(s)
                if matches!(module.stmt(s).kind, StmtKind::Unlock { lock }
                    if pre.must_lock_obj(lock) == Some(l)));
            if n != lock_node {
                members.push(s);
                member.insert(s);
            }
            if is_release {
                continue; // the span ends here
            }
            for &to in space.succs(s) {
                if seen.insert(to) {
                    seen_count += 1;
                    work.push(to);
                }
            }
        }

        // Member statements and the per-object access sets. Only *must*
        // writes (singleton points-to set, singleton object) can kill a
        // value within a span: a may-aliased later store might dynamically
        // write a different object, leaving the earlier value live at the
        // release — treating it as a killer would unsoundly filter the
        // interference edge (caught by the dynamic-validation oracle).
        members.sort_unstable();
        let mut member_stmts: Vec<u32> = Vec::new();
        let mut stores: HashMap<MemId, Vec<u32>> = HashMap::new();
        let mut must_stores: HashMap<MemId, Vec<u32>> = HashMap::new();
        let mut accesses: HashMap<MemId, Vec<u32>> = HashMap::new();
        for &m in &members {
            let NodeKind::Stmt(s) = icfg.kind(space.state(m).2) else {
                continue;
            };
            member_stmts.push(m);
            match module.stmt(s).kind {
                StmtKind::Store { ptr, .. } => {
                    let pts = pre.pt_var(ptr);
                    let must = pts
                        .as_singleton()
                        .is_some_and(|o| pre.objects().is_singleton(o));
                    for o in pts.iter() {
                        stores.entry(o).or_default().push(m);
                        if must {
                            must_stores.entry(o).or_default().push(m);
                        }
                        accesses.entry(o).or_default().push(m);
                    }
                }
                StmtKind::Load { ptr, .. } => {
                    for o in pre.pt_var(ptr).iter() {
                        accesses.entry(o).or_default().push(m);
                    }
                }
                _ => {}
            }
        }

        // Head/tail sets per object. Forward reachability within the span:
        // an access *reached by* a must-store is not a head; a store that
        // *reaches* a must-store occurrence (other than the same occurrence
        // with no cycle) is not a tail.
        let mut hd: HashMap<MemId, Vec<u32>> = HashMap::new();
        let mut tl: HashMap<MemId, Vec<u32>> = HashMap::new();
        for (&o, obj_stores) in &stores {
            let obj_accesses = &accesses[&o];
            let obj_must = must_stores.get(&o).map_or(&[][..], Vec::as_slice);
            // Forward reach of all must-stores (kills heads downstream).
            let reached_by_must = span_reach(space, member, reach, obj_must);
            let heads = (obj_accesses.iter().copied())
                .filter(|&a| !reached_by_must.contains(a))
                .collect();
            // A store is a tail unless some must-store occurrence lies
            // strictly ahead of it within the span.
            let tails = (obj_stores.iter().copied())
                .filter(|&st| {
                    let reach = span_reach(space, member, reach, &[st]);
                    !obj_must.iter().any(|&m| reach.contains(m))
                })
                .collect();
            hd.insert(o, heads);
            tl.insert(o, tails);
        }
        // Objects accessed but never stored in the span: all accesses are
        // heads (nothing redefines them in-span).
        for (o, obj_accesses) in accesses {
            hd.entry(o).or_insert(obj_accesses);
        }

        Some(SpanWalk {
            member_stmts,
            hd,
            tl,
        })
    }
}

/// Marks in `reach` the span `member` states reachable from `from` in one
/// step or more.
fn span_reach<'m>(
    space: &InstanceSpace,
    member: &Marks,
    reach: &'m mut Marks,
    from: &[u32],
) -> &'m Marks {
    reach.clear();
    let mut work = from.to_vec();
    while let Some(s) = work.pop() {
        for &to in space.succs(s) {
            if member.contains(to) && reach.insert(to) {
                work.push(to);
            }
        }
    }
    reach
}

/// Whether a span's per-object head or tail `sets` list state `s` for `o`.
fn listed(sets: &HashMap<MemId, Vec<u32>>, o: MemId, s: u32) -> bool {
    sets.get(&o)
        .is_some_and(|set| set.binary_search(&s).is_ok())
}

struct SpanWalk {
    member_stmts: Vec<u32>,
    hd: HashMap<MemId, Vec<u32>>,
    tl: HashMap<MemId, Vec<u32>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::Interleaving;
    use crate::mhp::MhpOracle;
    use fsam_ir::parse::parse_module;

    fn analyze(src: &str) -> (Module, Icfg, ThreadModel, Interleaving, LockAnalysis) {
        let m = parse_module(src).unwrap();
        fsam_ir::verify::verify_module(&m).unwrap();
        let pre = PreAnalysis::run(&m);
        let icfg = Icfg::build(&m, pre.call_graph());
        let tm = ThreadModel::build(&m, &pre, &icfg);
        let ctxs = crate::flow::precompute_contexts(&icfg, pre.call_graph(), &tm);
        let inter = Interleaving::compute(&m, &icfg, &pre, &tm, &ctxs);
        let lock = LockAnalysis::compute(&m, &icfg, &pre, &tm, &ctxs);
        crate::reference::check(&m);
        (m, icfg, tm, inter, lock)
    }

    fn nth_stmt(m: &Module, f: &str, pred: impl Fn(&StmtKind) -> bool, n: usize) -> StmtId {
        let fid = m.func_by_name(f).unwrap();
        m.stmts()
            .filter(|(_, s)| s.func == fid && pred(&s.kind))
            .nth(n)
            .unwrap_or_else(|| panic!("no stmt #{n} in {f}"))
            .0
    }

    /// The paper's Figure 9 (structure): two threads, two lock-release
    /// spans over the same lock; s2 (an intermediate store) must not leak
    /// to s4 (the head access of the other span), but s3 (the tail) must.
    const FIG9: &str = r#"
        global o
        global lk
        func bar() {
        entry:
          q = &o
          s4 = load q        // s4: ... = *q
          ret
        }
        func foo1() {
        entry:
          p = &o
          l1 = &lk
          store p, p         // s1 (outside the span)
          lock l1
          store p, p         // s2 (intermediate: killed by s3 in-span)
          store p, p         // s3 (tail of the span)
          unlock l1
          ret
        }
        func foo2() {
        entry:
          l2 = &lk
          lock l2
          call bar()         // cs4: s4 runs inside the span
          unlock l2
          ret
        }
        func main() {
        entry:
          t1 = fork foo1()
          t2 = fork foo2()
          join t1
          join t2
          ret
        }
    "#;

    #[test]
    fn figure9_spans_and_heads_tails() {
        let (m, icfg, _, inter, lock) = analyze(FIG9);
        assert_eq!(lock.span_count, 2);

        let s2 = nth_stmt(&m, "foo1", |k| matches!(k, StmtKind::Store { .. }), 1);
        let s3 = nth_stmt(&m, "foo1", |k| matches!(k, StmtKind::Store { .. }), 2);
        let s4 = nth_stmt(&m, "bar", |k| matches!(k, StmtKind::Load { .. }), 0);

        // All three MHP (threads are siblings without HB).
        assert!(inter.mhp_stmt(s2, s4));
        assert!(inter.mhp_stmt(s3, s4));

        // Instance-level filtering per Definition 6.
        let o = {
            let pre = fsam_andersen::PreAnalysis::run(&m);
            pre.objects().base(m.global_by_name("o").unwrap())
        };
        let i2 = inter.instances(s2);
        let i3 = inter.instances(s3);
        let i4 = inter.instances(s4);
        // s2 -> s4 is non-interference (s2 is not the span tail).
        let filtered_s2 = i2.iter().all(|&(t1, c1)| {
            i4.iter().all(|&(t2, c2)| {
                !inter.mhp_instances(&icfg, (t1, c1, s2), (t2, c2, s4))
                    || lock.non_interference(&icfg, (t1, c1, s2), (t2, c2, s4), o)
            })
        });
        assert!(filtered_s2, "spurious s2 -> s4 edge is filtered (Fig 9)");
        // s3 -> s4 interferes (tail to head).
        let kept_s3 = i3.iter().any(|&(t1, c1)| {
            i4.iter().any(|&(t2, c2)| {
                inter.mhp_instances(&icfg, (t1, c1, s3), (t2, c2, s4))
                    && !lock.non_interference(&icfg, (t1, c1, s3), (t2, c2, s4), o)
            })
        });
        assert!(kept_s3, "tail-to-head edge s3 -> s4 must remain");

        // The split sets behind the instance classes: s2 is no tail, s3 is
        // the tail, s4 is the head, all under the one lock `lk`.
        let lk = {
            let pre = fsam_andersen::PreAnalysis::run(&m);
            pre.objects().base(m.global_by_name("lk").unwrap())
        };
        let locks = |s: StmtId, (t, c): (ThreadId, CtxId)| lock.span_locks(&icfg, (t, c, s), o);
        for &i in &i2 {
            assert_eq!(locks(s2, i).not_tail, [lk]);
        }
        for &i in &i3 {
            assert_eq!(locks(s3, i).all, [lk]);
            assert!(locks(s3, i).not_tail.is_empty());
        }
        for &i in &i4 {
            assert_eq!(locks(s4, i).all, [lk]);
            assert!(locks(s4, i).not_head.is_empty());
        }
    }

    #[test]
    fn unprotected_access_is_never_filtered() {
        let (m, icfg, _, inter, lock) = analyze(
            r#"
            global o
            global lk
            func a() {
            entry:
              p = &o
              l = &lk
              lock l
              store p, p     // protected store
              unlock l
              ret
            }
            func b() {
            entry:
              q = &o
              c = load q     // unprotected load
              ret
            }
            func main() {
            entry:
              t1 = fork a()
              t2 = fork b()
              join t1
              join t2
              ret
            }
        "#,
        );
        let store = nth_stmt(&m, "a", |k| matches!(k, StmtKind::Store { .. }), 0);
        let load = nth_stmt(&m, "b", |k| matches!(k, StmtKind::Load { .. }), 0);
        let pre = fsam_andersen::PreAnalysis::run(&m);
        let o = pre.objects().base(m.global_by_name("o").unwrap());
        assert!(inter.mhp_stmt(store, load));
        for &(t1, c1) in &inter.instances(store) {
            for &(t2, c2) in &inter.instances(load) {
                assert!(
                    !lock.non_interference(&icfg, (t1, c1, store), (t2, c2, load), o),
                    "no common lock: the edge must not be filtered"
                );
            }
        }
    }

    #[test]
    fn different_locks_do_not_filter() {
        let (m, icfg, _, inter, lock) = analyze(
            r#"
            global o
            global lk1
            global lk2
            func a() {
            entry:
              p = &o
              l = &lk1
              lock l
              store p, p
              unlock l
              ret
            }
            func b() {
            entry:
              q = &o
              l = &lk2
              lock l
              c = load q
              unlock l
              ret
            }
            func main() {
            entry:
              t1 = fork a()
              t2 = fork b()
              join t1
              join t2
              ret
            }
        "#,
        );
        assert_eq!(lock.span_count, 2);
        let store = nth_stmt(&m, "a", |k| matches!(k, StmtKind::Store { .. }), 0);
        let load = nth_stmt(&m, "b", |k| matches!(k, StmtKind::Load { .. }), 0);
        let pre = fsam_andersen::PreAnalysis::run(&m);
        let o = pre.objects().base(m.global_by_name("o").unwrap());
        for &(t1, c1) in &inter.instances(store) {
            for &(t2, c2) in &inter.instances(load) {
                assert!(!lock.non_interference(&icfg, (t1, c1, store), (t2, c2, load), o));
            }
        }
    }

    #[test]
    fn must_held_is_flow_sensitive() {
        let (m, icfg, _, inter, lock) = analyze(
            r#"
            global o
            global lk
            func main() {
            entry:
              p = &o
              l = &lk
              before = load p
              lock l
              during = load p
              unlock l
              after = load p
              ret
            }
        "#,
        );
        let _ = inter;
        let before = nth_stmt(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 0);
        let during = nth_stmt(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 1);
        let after = nth_stmt(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 2);
        let t = ThreadId::MAIN;
        let c = CtxId::EMPTY;
        assert!(lock.held_at(&icfg, t, c, before).is_empty());
        assert_eq!(lock.held_at(&icfg, t, c, during).len(), 1);
        assert!(lock.held_at(&icfg, t, c, after).is_empty());
    }

    /// Trylock-style conditional acquire: one branch arm locks, the other
    /// does not. At the merge the lock is in the may-set (union) but not
    /// the must-set (intersection) — the path inconsistency surfaced by
    /// `inconsistent_at_node`.
    #[test]
    fn conditional_acquire_splits_must_and_may() {
        let (m, icfg, _, _inter, lock) = analyze(
            r#"
            global o
            global lk
            func main() {
            entry:
              p = &o
              l = &lk
              br ?, yes, no
            yes:
              lock l
              br merge
            no:
              br merge
            merge:
              c = load p
              unlock l
              ret
            }
        "#,
        );
        let c_load = nth_stmt(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 0);
        let t = ThreadId::MAIN;
        let cx = CtxId::EMPTY;
        assert!(lock.held_at(&icfg, t, cx, c_load).is_empty());
        assert_eq!(lock.may_held_at(&icfg, t, cx, c_load).len(), 1);
        let n = icfg.stmt_node(c_load);
        assert_eq!(lock.inconsistent_at_node(t, cx, n).len(), 1);
    }

    /// Nested reacquire of the same lock: locksets are *sets* and locks are
    /// non-reentrant, so the second `lock l` is a no-op and a single
    /// `unlock l` releases the lock completely.
    #[test]
    fn nested_same_lock_reacquire_is_idempotent() {
        let (m, icfg, _, _inter, lock) = analyze(
            r#"
            global o
            global lk
            func main() {
            entry:
              p = &o
              l = &lk
              lock l
              lock l
              inner = load p
              unlock l
              after = load p
              ret
            }
        "#,
        );
        let inner = nth_stmt(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 0);
        let after = nth_stmt(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 1);
        let t = ThreadId::MAIN;
        let cx = CtxId::EMPTY;
        assert_eq!(lock.held_at(&icfg, t, cx, inner).len(), 1);
        assert!(lock.held_at(&icfg, t, cx, after).is_empty());
        assert!(lock.may_held_at(&icfg, t, cx, after).is_empty());
    }

    /// An unlock with no matching lock is a no-op: both locksets stay
    /// empty and the analysis does not fault.
    #[test]
    fn unlock_without_lock_is_a_noop() {
        let (m, icfg, _, _inter, lock) = analyze(
            r#"
            global o
            global lk
            func main() {
            entry:
              p = &o
              l = &lk
              unlock l
              c = load p
              ret
            }
        "#,
        );
        let c_load = nth_stmt(&m, "main", |k| matches!(k, StmtKind::Load { .. }), 0);
        let t = ThreadId::MAIN;
        let cx = CtxId::EMPTY;
        assert!(lock.held_at(&icfg, t, cx, c_load).is_empty());
        assert!(lock.may_held_at(&icfg, t, cx, c_load).is_empty());
        assert_eq!(lock.span_count, 0);
    }
}
