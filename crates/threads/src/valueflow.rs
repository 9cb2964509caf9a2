//! The value-flow analysis — paper §3.3.2, rule `[THREAD-VF]`.
//!
//! Every MHP store-load and store-store pair whose pointers share a
//! pointed-to object (`o ∈ AS(*p, *q)` from the pre-analysis) gets a
//! thread-aware def-use flow, unless Definition 6 (the lock analysis)
//! finds every MHP instance pair non-interfering. The flows come out as
//! complete store × access classes ([`ThreadGroup`]): a store reaches the
//! accesses in the MHP regions parallel to its own, so all stores of a
//! region share one access set. Only pairs of *locked* statements
//! ([`LockAnalysis::locked_stmts`]) get the lock test, and a store that
//! loses accesses gets a class of its own. The test runs on instance
//! classes ([`LockClasses`]), once per class pair and object.
//!
//! The *No-Value-Flow* ablation of Figure 12 (`blind` mode) disregards the
//! aliasing condition: every MHP store/access pair gets flows for all of
//! the store's targets, the unnecessary value flows whose cost §4.4
//! quantifies.

use std::collections::{BTreeMap, HashMap};

use fsam_andersen::PreAnalysis;
use fsam_ir::icfg::Icfg;
use fsam_ir::{Module, StmtId, StmtKind};
use fsam_pts::MemId;

use crate::lock::LockAnalysis;
use crate::lockclass::LockClasses;
use crate::mhp::MhpOracle;
use crate::relation::MhpRelation;
use crate::shared::SharedObjects;

/// Statistics of the value-flow phase.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValueFlowStats {
    /// Objects with accesses from more than one thread.
    pub shared_objects: usize,
    /// Store/access pairs with a common object (candidate `aliased pairs`).
    pub aliased_pairs: usize,
    /// Candidates that may happen in parallel.
    pub mhp_pairs: usize,
    /// Pairs removed by the lock analysis (Definition 6).
    pub lock_filtered: usize,
    /// Thread-aware def-use flows produced (the sum of class products).
    pub edges: usize,
}

impl ValueFlowStats {
    /// Exports the phase counters onto `span` under the `vf.` namespace
    /// (the Figure 10/11 columns: candidate aliased pairs, MHP-surviving
    /// pairs, lock-filtered pairs, edges produced).
    pub fn export_trace(&self, span: &fsam_trace::Span<'_>) {
        span.counter("vf.shared_objects", self.shared_objects as u64);
        span.counter("vf.aliased_pairs", self.aliased_pairs as u64);
        span.counter("vf.mhp_pairs", self.mhp_pairs as u64);
        span.counter("vf.lock_filtered", self.lock_filtered as u64);
        span.counter("vf.edges", self.edges as u64);
    }
}

/// One complete interference class: every store flows to every access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadGroup {
    /// The object the values flow through.
    pub obj: MemId,
    /// The stores, ascending.
    pub stores: Vec<StmtId>,
    /// The accesses, ascending; a store of a self-parallel region is one.
    pub accesses: Vec<StmtId>,
}

/// The thread-aware def-use flows to append to the SVFG — of every object,
/// or of one ([`ValueFlowPlan::object_flow`]).
#[derive(Debug, Default)]
pub struct ThreadValueFlow {
    /// The classes, by object and then by access set.
    pub edges: Vec<ThreadGroup>,
    /// Phase statistics.
    pub stats: ValueFlowStats,
}

impl ThreadValueFlow {
    /// Appends `obj`'s classes and adds their pair counts. A store's access
    /// set starts as the `accesses` (ascending) in regions parallel to its
    /// own, computed once per region; `keep(s, a)` may then drop pairs, but
    /// is asked only when both statements are `guarded`. Stores with equal
    /// sets form one class, and classes come out in access-set order.
    fn add_classes(
        &mut self,
        obj: MemId,
        rel: &MhpRelation,
        stores: &[StmtId],
        accesses: &[(StmtId, u32)],
        guarded: impl Fn(StmtId) -> bool,
        mut keep: impl FnMut(StmtId, StmtId) -> bool,
    ) {
        let mut by_region: BTreeMap<u32, Vec<StmtId>> = BTreeMap::new();
        for (s, r) in regions(rel, stores) {
            by_region.entry(r).or_default().push(s);
        }
        let mut classes: BTreeMap<Vec<StmtId>, Vec<StmtId>> = BTreeMap::new();
        for (r, region_stores) in by_region {
            let parallel = |&(a, ra): &(StmtId, u32)| rel.related_regions(r, ra).then_some(a);
            let union: Vec<StmtId> = accesses.iter().filter_map(parallel).collect();
            let mut unfiltered = Vec::new();
            for s in region_stores {
                self.stats.mhp_pairs += union.len();
                let kept = |&a: &StmtId| !guarded(a) || keep(s, a);
                let own =
                    guarded(s).then(|| union.iter().copied().filter(kept).collect::<Vec<_>>());
                match own {
                    Some(own) if own.len() < union.len() => {
                        self.stats.lock_filtered += union.len() - own.len();
                        if !own.is_empty() {
                            classes.entry(own).or_default().push(s);
                        }
                    }
                    _ => unfiltered.push(s),
                }
            }
            if !union.is_empty() && !unfiltered.is_empty() {
                classes.entry(union).or_default().extend(unfiltered);
            }
        }
        for (accesses, mut stores) in classes {
            stores.sort_unstable();
            self.stats.edges += stores.len() * accesses.len();
            self.edges.push(ThreadGroup {
                obj,
                stores,
                accesses,
            });
        }
    }
}

/// The value-flow analysis decomposed into independent per-object units.
///
/// Each shared object's classes depend only on immutable inputs
/// ([`ValueFlowPlan::object_flow`] takes `&self`), so the objects can be
/// evaluated in any order — or concurrently on a worker pool, which is how
/// the pipeline runs this phase when configured with more than one thread.
/// [`ValueFlowPlan::merge`] folds the per-object results back **in object
/// order**, reproducing the sequential [`compute`] bit for bit: the group
/// list, ordered by ascending object, is exactly what the sequential loop
/// emits, and the statistics are sums of per-object counts.
pub struct ValueFlowPlan<'a> {
    rel: &'a MhpRelation,
    /// The Definition 6 instance classes; `None` without a lock analysis.
    lock: Option<LockClasses<'a>>,
    /// Per locked load/store and object of the plan: its class as a store
    /// (stores only) and as an access. Empty without a lock analysis.
    span_classes: HashMap<(StmtId, MemId), (Option<u32>, u32)>,
    stores_of: HashMap<MemId, Vec<StmtId>>,
    accesses_of: HashMap<MemId, Vec<StmtId>>,
    /// The shared, multiply-accessed objects, ascending — one work unit each.
    objects: Vec<MemId>,
}

impl<'a> ValueFlowPlan<'a> {
    /// Builds the plan: indexes stores/accesses per object, selects the
    /// objects that can produce edges (accessed at least twice, and shared
    /// across threads), and builds the locked statements' Definition 6
    /// classes on them.
    pub fn new(
        module: &'a Module,
        icfg: &'a Icfg,
        pre: &'a PreAnalysis,
        oracle: &'a (dyn MhpOracle + Sync),
        rel: &'a MhpRelation,
        lock: Option<&'a LockAnalysis>,
    ) -> ValueFlowPlan<'a> {
        // The sharedness half of the value-flow analysis: objects that never
        // escape their creating frame cannot interfere across threads (§4.4:
        // "non-shared memory locations").
        let shared = SharedObjects::compute(module, pre);
        let (stores_of, accesses_of) = index_accesses(module, pre);
        let mut objects: Vec<MemId> = stores_of.keys().copied().collect();
        objects.sort();
        objects
            .retain(|&o| accesses_of.get(&o).map_or(0, Vec::len) >= 2 && shared.is_shared(pre, o));
        let mut span_classes = HashMap::new();
        let lock = lock.map(|lock| {
            let mut classes = LockClasses::new(icfg, oracle, lock);
            for s in lock.locked_stmts(icfg) {
                let (ptr, is_store) = match module.stmt(s).kind {
                    StmtKind::Store { ptr, .. } => (ptr, true),
                    StmtKind::Load { ptr, .. } => (ptr, false),
                    _ => continue,
                };
                let planned = pre.pt_var(ptr).iter();
                let planned = planned.filter(|o| objects.binary_search(o).is_ok());
                for (o, store, access) in classes.span_classes(s, is_store, planned) {
                    span_classes.insert((s, o), (store, access));
                }
            }
            classes
        });
        ValueFlowPlan {
            rel,
            lock,
            span_classes,
            stores_of,
            accesses_of,
            objects,
        }
    }

    /// The work units: shared objects in ascending order.
    pub fn objects(&self) -> &[MemId] {
        &self.objects
    }

    /// Evaluates work unit `i` (the `i`-th object's classes).
    /// Pure with respect to the plan — safe to run concurrently.
    pub fn object_flow(&self, i: usize) -> ThreadValueFlow {
        let o = self.objects[i];
        let (stores, accesses) = (&self.stores_of[&o], &self.accesses_of[&o]);
        let mut out = ThreadValueFlow::default();
        // Every store is also an access, and not aliased with itself.
        out.stats.aliased_pairs = stores.len() * accesses.len() - stores.len();
        let guarded = |x| self.span_classes.contains_key(&(x, o));
        // Drop the flow only when *every* MHP instance pair is a
        // non-interference pair (Definition 6), tested once per class pair.
        let mut memo: HashMap<(u32, u32), bool> = HashMap::new();
        let keep = |s, a| {
            let classes = self.lock.as_ref().expect("guarded statements have classes");
            let store = self.span_classes[&(s, o)].0.expect("a store's class");
            let access = self.span_classes[&(a, o)].1;
            !*(memo.entry((store, access)))
                .or_insert_with(|| classes.non_interfering(store, access))
        };
        let accesses = regions(self.rel, accesses);
        out.add_classes(o, self.rel, stores, &accesses, guarded, keep);
        out
    }

    /// Folds per-object results — **in object order** — into the final
    /// value flow. Deterministic for any evaluation schedule: the caller
    /// passes `flows[i] = object_flow(i)`.
    pub fn merge(&self, flows: impl IntoIterator<Item = ThreadValueFlow>) -> ThreadValueFlow {
        let mut out = ThreadValueFlow::default();
        out.stats.shared_objects = self.objects.len();
        for flow in flows {
            out.stats.aliased_pairs += flow.stats.aliased_pairs;
            out.stats.mhp_pairs += flow.stats.mhp_pairs;
            out.stats.lock_filtered += flow.stats.lock_filtered;
            out.stats.edges += flow.stats.edges;
            out.edges.extend(flow.edges);
        }
        out
    }
}

/// Per object: the stores that may write it and the loads/stores that may
/// access it, each ascending. Only store/load statements participate in
/// [THREAD-VF]; the race reducer indexes its candidates the same way.
pub fn index_accesses(
    module: &Module,
    pre: &PreAnalysis,
) -> (HashMap<MemId, Vec<StmtId>>, HashMap<MemId, Vec<StmtId>>) {
    let mut stores_of: HashMap<MemId, Vec<StmtId>> = HashMap::new();
    let mut accesses_of: HashMap<MemId, Vec<StmtId>> = HashMap::new();
    for (sid, stmt) in module.stmts() {
        match stmt.kind {
            StmtKind::Store { ptr, .. } => {
                for o in pre.pt_var(ptr).iter() {
                    stores_of.entry(o).or_default().push(sid);
                    accesses_of.entry(o).or_default().push(sid);
                }
            }
            StmtKind::Load { ptr, .. } => {
                for o in pre.pt_var(ptr).iter() {
                    accesses_of.entry(o).or_default().push(sid);
                }
            }
            _ => {}
        }
    }
    (stores_of, accesses_of)
}

/// `stmts` paired with their MHP regions; statements without one are never
/// parallel with anything and are left out.
fn regions(rel: &MhpRelation, stmts: &[StmtId]) -> Vec<(StmtId, u32)> {
    stmts
        .iter()
        .filter_map(|&s| Some((s, rel.region_of(s)?)))
        .collect()
}

/// Computes the thread-aware def-use flows.
///
/// * `oracle` supplies instance-level MHP facts for the lock filter (the
///   interleaving analysis, or the PCG baseline in the *No-Interleaving*
///   configuration);
/// * `rel` is the same backend factored into region form — the classes
///   are built from per-region unions, never per-pair oracle probes;
/// * `lock` enables Definition 6 filtering (`None` in the *No-Lock*
///   configuration);
/// * `blind` disregards the aliasing condition (*No-Value-Flow*).
pub fn compute(
    module: &Module,
    icfg: &Icfg,
    pre: &PreAnalysis,
    oracle: &(dyn MhpOracle + Sync),
    rel: &MhpRelation,
    lock: Option<&LockAnalysis>,
    blind: bool,
) -> ThreadValueFlow {
    if blind {
        // Sharedness and aliasing are both disregarded in blind mode, so
        // the per-object plan does not apply; this ablation path stays
        // sequential (it exists to be measured, not to be fast).
        return compute_blind(module, pre, rel);
    }
    let plan = ValueFlowPlan::new(module, icfg, pre, oracle, rel, lock);
    plan.merge((0..plan.objects().len()).map(|i| plan.object_flow(i)))
}

/// The *No-Value-Flow* ablation: every store is paired with every MHP
/// access but itself, no aliasing or sharedness test, with flows on all of
/// the store's targets (a flow needs an object label to exist in the graph).
fn compute_blind(module: &Module, pre: &PreAnalysis, rel: &MhpRelation) -> ThreadValueFlow {
    let (stores_of, accesses_of) = index_accesses(module, pre);
    let mut all: Vec<StmtId> = accesses_of.into_values().flatten().collect();
    all.sort_unstable();
    all.dedup();
    let accesses = regions(rel, &all);
    let mut objects: Vec<MemId> = stores_of.keys().copied().collect();
    objects.sort_unstable();
    let mut out = ThreadValueFlow::default();
    for o in objects {
        out.add_classes(o, rel, &stores_of[&o], &accesses, |_| true, |s, a| s != a);
    }
    // Each store's pairs count once, not once per target object, and none
    // is lock-filtered.
    let is_store =
        |&&(s, _): &&(StmtId, u32)| matches!(module.stmt(s).kind, StmtKind::Store { .. });
    out.stats.mhp_pairs = (accesses.iter().filter(is_store))
        .map(|&(s, r)| {
            accesses
                .iter()
                .filter(|&&(a, ra)| a != s && rel.related_regions(r, ra))
                .count()
        })
        .sum();
    out.stats.lock_filtered = 0;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::Interleaving;
    use crate::lock::LockAnalysis;
    use crate::mhp::MhpBackend;
    use crate::model::ThreadModel;
    use fsam_ir::parse::parse_module;

    struct World {
        m: Module,
        icfg: Icfg,
        pre: PreAnalysis,
        inter: MhpBackend,
        rel: MhpRelation,
        lock: LockAnalysis,
    }

    fn analyze(src: &str) -> World {
        let m = parse_module(src).unwrap();
        fsam_ir::verify::verify_module(&m).unwrap();
        let pre = PreAnalysis::run(&m);
        let icfg = Icfg::build(&m, pre.call_graph());
        let tm = ThreadModel::build(&m, &pre, &icfg);
        let ctxs = crate::flow::precompute_contexts(&icfg, pre.call_graph(), &tm);
        let inter = Interleaving::compute(&m, &icfg, &pre, &tm, &ctxs);
        let inter = MhpBackend::Interleaving(std::sync::Arc::new(inter));
        let rel = inter.relation();
        let lock = LockAnalysis::compute(&m, &icfg, &pre, &tm, &ctxs);
        World {
            m,
            icfg,
            pre,
            inter,
            rel,
            lock,
        }
    }

    /// Whether some class of `vf` carries a flow from `store` to `access`.
    fn has_flow(vf: &ThreadValueFlow, store: StmtId, access: StmtId) -> bool {
        vf.edges.iter().any(|g| {
            g.stores.binary_search(&store).is_ok() && g.accesses.binary_search(&access).is_ok()
        })
    }

    fn nth_stmt(m: &Module, f: &str, pred: impl Fn(&StmtKind) -> bool, n: usize) -> StmtId {
        let fid = m.func_by_name(f).unwrap();
        m.stmts()
            .filter(|(_, s)| s.func == fid && pred(&s.kind))
            .nth(n)
            .unwrap()
            .0
    }

    /// Paper Figure 1(d): *x = r and c = *p don't alias — no edge.
    #[test]
    fn non_aliased_mhp_pair_gets_no_edge() {
        let w = analyze(
            r#"
            global xobj
            global pobj
            func foo() {
            entry:
              p2 = &pobj
              x = &xobj
              store p2, p2     // *p = q
              store x, x       // *x = r — different object
              ret
            }
            func main() {
            entry:
              p = &pobj
              t = fork foo()
              c = load p       // c = *p
              join t
              ret
            }
        "#,
        );
        let vf = compute(
            &w.m,
            &w.icfg,
            &w.pre,
            &w.inter,
            &w.rel,
            Some(&w.lock),
            false,
        );
        let store_x = nth_stmt(&w.m, "foo", |k| matches!(k, StmtKind::Store { .. }), 1);
        let load = nth_stmt(&w.m, "main", |k| matches!(k, StmtKind::Load { .. }), 0);
        assert!(
            !has_flow(&vf, store_x, load),
            "*x and *p don't alias: no thread-aware edge (Fig 1(d))"
        );
        let store_p = nth_stmt(&w.m, "foo", |k| matches!(k, StmtKind::Store { .. }), 0);
        assert!(
            has_flow(&vf, store_p, load),
            "*p in foo does interfere with c = *p"
        );
    }

    #[test]
    fn blind_mode_floods_edges() {
        let w = analyze(
            r#"
            global xobj
            global pobj
            func foo() {
            entry:
              x = &xobj
              store x, x
              ret
            }
            func main() {
            entry:
              p = &pobj
              t = fork foo()
              c = load p
              join t
              ret
            }
        "#,
        );
        let precise = compute(
            &w.m,
            &w.icfg,
            &w.pre,
            &w.inter,
            &w.rel,
            Some(&w.lock),
            false,
        );
        let blind = compute(&w.m, &w.icfg, &w.pre, &w.inter, &w.rel, Some(&w.lock), true);
        assert!(
            blind.stats.edges > precise.stats.edges,
            "blind mode adds spurious edges"
        );
    }

    #[test]
    fn sequential_program_has_no_thread_edges() {
        let w = analyze(
            r#"
            global g
            func main() {
            entry:
              p = &g
              store p, p
              c = load p
              ret
            }
        "#,
        );
        let vf = compute(
            &w.m,
            &w.icfg,
            &w.pre,
            &w.inter,
            &w.rel,
            Some(&w.lock),
            false,
        );
        assert!(vf.edges.is_empty());
        assert_eq!(vf.stats.mhp_pairs, 0);
    }

    /// The per-object plan must reproduce the sequential `compute` exactly
    /// — edges in the same order, identical stats — no matter in which
    /// order the object flows are *evaluated* (merge reorders by object).
    #[test]
    fn plan_merge_matches_sequential_compute_for_any_evaluation_order() {
        let w = analyze(
            r#"
            global a
            global b
            global lk
            func worker() {
            entry:
              p = &a
              q = &b
              l = &lk
              store p, q
              lock l
              store q, p
              unlock l
              c = load p
              d = load q
              ret
            }
            func main() {
            entry:
              t1 = fork worker()
              t2 = fork worker()
              p0 = &a
              e = load p0
              join t1
              join t2
              ret
            }
        "#,
        );
        let seq = compute(
            &w.m,
            &w.icfg,
            &w.pre,
            &w.inter,
            &w.rel,
            Some(&w.lock),
            false,
        );
        let plan = ValueFlowPlan::new(&w.m, &w.icfg, &w.pre, &w.inter, &w.rel, Some(&w.lock));
        assert!(
            plan.objects().len() >= 2,
            "test program must exercise more than one work unit"
        );
        // Evaluate in reverse order (a worker pool evaluates in *any*
        // order), then merge in object order.
        let mut flows: Vec<ThreadValueFlow> = (0..plan.objects().len())
            .rev()
            .map(|i| plan.object_flow(i))
            .collect();
        flows.reverse();
        let merged = plan.merge(flows);
        assert_eq!(merged.stats, seq.stats);
        assert_eq!(
            merged.edges, seq.edges,
            "group order is part of the contract"
        );
    }

    /// Paper Figure 1(e)/Figure 9: lock correlation removes spurious edges.
    #[test]
    fn lock_filter_reduces_edges() {
        let src = r#"
            global o
            global lk
            func a() {
            entry:
              p = &o
              l = &lk
              lock l
              store p, p     // intermediate
              store p, p     // tail
              unlock l
              ret
            }
            func b() {
            entry:
              q = &o
              l = &lk
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
        "#;
        let w = analyze(src);
        let with_lock = compute(
            &w.m,
            &w.icfg,
            &w.pre,
            &w.inter,
            &w.rel,
            Some(&w.lock),
            false,
        );
        let without = compute(&w.m, &w.icfg, &w.pre, &w.inter, &w.rel, None, false);
        assert!(with_lock.stats.lock_filtered >= 1, "{:?}", with_lock.stats);
        assert!(with_lock.stats.edges < without.stats.edges);
        // The tail store -> head load edge must survive.
        let tail = nth_stmt(&w.m, "a", |k| matches!(k, StmtKind::Store { .. }), 1);
        let head = nth_stmt(&w.m, "b", |k| matches!(k, StmtKind::Load { .. }), 0);
        assert!(has_flow(&with_lock, tail, head));
        // The intermediate store -> head edge is filtered.
        let mid = nth_stmt(&w.m, "a", |k| matches!(k, StmtKind::Store { .. }), 0);
        assert!(!has_flow(&with_lock, mid, head));
    }
}
