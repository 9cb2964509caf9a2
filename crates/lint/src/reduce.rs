//! The staged race-candidate reducer.
//!
//! A naive race detector confirms every pair in the O(n²) store × access
//! space with the most expensive test it has. This module runs the cheap,
//! coarse filters first and the flow-sensitive alias confirmation *last*,
//! and never visits a pair: each load/store site is keyed once by its MHP
//! region, its happens-before region, the interned class ([`PtsRef`]) of
//! its flow-sensitive points-to set, and a lock key (the site itself when
//! it is [locked](fsam_threads::LockAnalysis::locked_stmts), else `None`).
//! Every stage's predicate is constant on that key, so per object the
//! stores and loads are bucketed by key, and each bucket pair runs the
//! stages once for its `|B1|·|B2|` pairs (`|B|(|B|+1)/2` for a store
//! bucket with itself):
//!
//! 1. **enumerate** — store × access pairs per abstract object, from the
//!    *Andersen* points-to sets (a superset of the flow-sensitive sets);
//! 2. **shared** — drop objects never visible to two threads
//!    ([`SharedObjects`]) and analysis artifacts (thread handles);
//! 3. **MHP** — one [`MhpRelation`](fsam_threads::MhpRelation) bit test;
//! 4. **happens-before** — one [`HbFacts`](fsam_threads::hb::HbFacts) bit
//!    test (DESIGN §1.9); must-ordered pairs are synchronized, not racy,
//!    and fold into the `hb_protected` (FL0005) groups;
//! 5. **lockset** — [`fsam::racy_instances`], only between two locked
//!    sites (single-site buckets). A pair with an unlocked side is never
//!    commonly protected, and every region-parallel pair has an MHP
//!    instance pair, so it is racy;
//! 6. **alias confirm** — the object must be in *both* sides' classes,
//!    probed at most once per `(object, class)`.
//!
//! Survivors are *grouped* per abstract object into a [`RaceGroup`] — the
//! smallest pair plus an instance count — which is what the checkers
//! report (the dedup key is `(object, field, lockset)`; this IR has no
//! field accesses and a confirmed race's common lockset is empty by
//! construction, so the key degenerates to the object). The test suite
//! asserts identity with the classic enumerating detector and with a
//! pair-by-pair reducer. Each stage exports a kill counter on the
//! `lint.*` trace namespace, alongside `lint.confirmed_groups`,
//! `lint.alias_classes` and `lint.class_probes`.

use std::collections::{HashMap, HashSet};

use fsam::Fsam;
use fsam_ir::{Module, StmtId, StmtKind};
use fsam_pts::{MemId, PtsRef};
use fsam_query::QueryEngine;
use fsam_threads::mhp::MhpOracle;
use fsam_threads::valueflow::index_accesses;
use fsam_threads::SharedObjects;
use fsam_trace::Recorder;

/// One store × access candidate on one abstract object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RacePair {
    /// The writing statement.
    pub store: StmtId,
    /// The racing access (load or store).
    pub access: StmtId,
    /// The abstract object both may touch.
    pub obj: MemId,
}

/// All confirmed (or refuted) pairs on one abstract object, deduplicated
/// to a representative.
///
/// The dedup key is `(object, field, lockset)`; with no field accesses in
/// the IR and an empty common lockset on every surviving pair (stage 5
/// killed the locked ones), the key is the object. `rep` is the smallest
/// pair in `(store, access)` order; `instances` counts every pair the
/// group absorbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RaceGroup {
    /// The abstract object all the group's pairs touch — the dedup key.
    pub obj: MemId,
    /// The smallest surviving `(store, access)` pair on `obj`.
    pub rep: RacePair,
    /// How many pairs the group absorbed (≥ 1).
    pub instances: u64,
}

/// Per-stage candidate counts of one reducer run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Candidates enumerated from the Andersen sets (after store-pair
    /// deduplication).
    pub candidates: u64,
    /// Killed because the object is thread-private or an analysis
    /// artifact.
    pub killed_shared: u64,
    /// Killed by the statement-level may-happen-in-parallel filter.
    pub killed_mhp: u64,
    /// Killed because condvar/barrier/atomic synchronization must-orders
    /// the pair (these also become [`Reduction::hb_protected`] groups).
    pub killed_hb: u64,
    /// Killed because every parallel instance pair holds a common lock.
    pub killed_lockset: u64,
    /// Killed by the flow-sensitive alias confirmation (these become the
    /// [`Reduction::hb_protected`] groups).
    pub killed_alias: u64,
    /// Survivors of every stage — the confirmed race pairs (instances,
    /// summed across groups).
    pub confirmed: u64,
    /// Confirmed races after per-object grouping — one per reported
    /// diagnostic.
    pub confirmed_groups: u64,
    /// Refuted near-miss groups (the FL0005 diagnostics).
    pub hb_groups: u64,
}

impl ReductionStats {
    /// Candidates alive after the thread-shared filter.
    pub fn after_shared(&self) -> u64 {
        self.candidates - self.killed_shared
    }

    /// Candidates alive after the MHP filter.
    pub fn after_mhp(&self) -> u64 {
        self.after_shared() - self.killed_mhp
    }

    /// Candidates alive after the happens-before filter.
    pub fn after_hb(&self) -> u64 {
        self.after_mhp() - self.killed_hb
    }

    /// Candidates alive after the lockset filter — exactly the pairs that
    /// reach the flow-sensitive alias confirmation.
    pub fn after_lockset(&self) -> u64 {
        self.after_hb() - self.killed_lockset
    }
}

/// The reducer's output: confirmed races and flow-sensitively refuted
/// near-misses, grouped per object, plus the per-stage funnel.
#[derive(Clone, Debug, Default)]
pub struct Reduction {
    /// Groups whose pairs survived every stage, sorted by object. The
    /// union of their instances is result-identical to the classic
    /// enumerating detector.
    pub confirmed: Vec<RaceGroup>,
    /// Groups killed by the happens-before stage (must-ordered by
    /// condvar/barrier/atomic sync) or by the final alias confirmation
    /// (parallel, unlocked, Andersen-aliased — but the flow-sensitive
    /// points-to sets refute the alias). Sorted by object; instance counts
    /// sum to `killed_hb + killed_alias`.
    pub hb_protected: Vec<RaceGroup>,
    /// The per-stage funnel.
    pub stats: ReductionStats,
}

/// The per-site facts every stage keys on.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    mhp: Option<u32>,
    hb: Option<u32>,
    class: Option<PtsRef>,
    /// The site itself when it is locked, so locked sites bucket alone.
    lock: Option<StmtId>,
}

/// The sites of one object sharing a key: the smallest, and how many.
struct Bucket {
    key: Key,
    min: StmtId,
    len: u64,
}

/// Buckets `sites` (ascending) by key, in order of first site.
fn buckets(sites: impl Iterator<Item = StmtId>, keys: &HashMap<StmtId, Key>) -> Vec<Bucket> {
    let mut index: HashMap<Key, usize> = HashMap::new();
    let mut out: Vec<Bucket> = Vec::new();
    for s in sites {
        let key = keys[&s];
        let i = *index.entry(key).or_insert_with(|| {
            out.push(Bucket {
                key,
                min: s,
                len: 0,
            });
            out.len() - 1
        });
        out[i].len += 1;
    }
    out
}

/// Adds `n` pairs with smallest pair `(store, access)` to `group`.
fn absorb(group: &mut Option<RaceGroup>, obj: MemId, (store, access): (StmtId, StmtId), n: u64) {
    let rep = RacePair { store, access, obj };
    let g = group.get_or_insert(RaceGroup {
        obj,
        rep,
        instances: 0,
    });
    g.rep = g.rep.min(rep);
    g.instances += n;
}

/// Runs the staged reducer. See the module docs for the stage pipeline;
/// kill counters land on `recorder` under `lint.*`.
pub fn reduce(
    module: &Module,
    fsam: &Fsam,
    engine: &QueryEngine,
    shared: &SharedObjects,
    recorder: &Recorder,
) -> Reduction {
    let oracle: &dyn MhpOracle = &fsam.mhp;
    let rel = engine.mhp_relation();
    let pool = engine.db().result().pool();
    let locked: HashSet<StmtId> =
        (fsam.lock.as_deref()).map_or_else(HashSet::new, |l| l.locked_stmts(&fsam.icfg));
    let mut stats = ReductionStats::default();

    // Stage 1 enumeration — Andersen (pre-analysis) points-to sets. The
    // flow-sensitive sets are subsets, so every classic pair is covered.
    let (stores_of, accesses_of) = index_accesses(module, &fsam.pre);
    let mut keys: HashMap<StmtId, Key> = HashMap::new();
    for (sid, stmt) in module.stmts() {
        if let StmtKind::Store { ptr, .. } | StmtKind::Load { ptr, .. } = stmt.kind {
            let key = Key {
                mhp: rel.region_of(sid),
                hb: fsam.hb.region_of(sid),
                class: engine.class_of(ptr),
                lock: locked.contains(&sid).then_some(sid),
            };
            keys.insert(sid, key);
        }
    }
    let is_load = |&a: &StmtId| matches!(module.stmt(a).kind, StmtKind::Load { .. });

    let mut objects: Vec<MemId> = stores_of.keys().copied().collect();
    objects.sort();

    let mut confirmed: Vec<RaceGroup> = Vec::new();
    let mut hb_protected: Vec<RaceGroup> = Vec::new();
    let mut class_probes = 0;

    for o in objects {
        let stores = &stores_of[&o];
        let accesses = accesses_of.get(&o).map_or(&[][..], Vec::as_slice);
        // Store/store pairs count once per unordered pair, a store with
        // itself included; store/load pairs once.
        let n_stores = stores.len() as u64;
        let pair_count = n_stores * accesses.len() as u64 - n_stores * (n_stores - 1) / 2;
        stats.candidates += pair_count;

        // Stage 2 — thread-shared filter, per object.
        let artifact = fsam.pre.objects().as_thread_handle(o).is_some();
        if artifact || !shared.is_shared(&fsam.pre, o) {
            stats.killed_shared += pair_count;
            continue;
        }

        let stores = buckets(stores.iter().copied(), &keys);
        let loads = buckets(accesses.iter().copied().filter(is_load), &keys);
        let (stores, loads) = (&stores, &loads);
        // Every bucket pair: both keys, its pair count and smallest pair
        // (buckets come in order of their smallest site).
        let pairs = stores.iter().enumerate().flat_map(|(i, s)| {
            let own = (s.key, s.key, s.len * (s.len + 1) / 2, (s.min, s.min));
            let other_stores = (stores[i + 1..].iter())
                .map(move |t| (s.key, t.key, s.len * t.len, (s.min, t.min)));
            let loads = (loads.iter()).map(move |l| (s.key, l.key, s.len * l.len, (s.min, l.min)));
            std::iter::once(own).chain(other_stores).chain(loads)
        });

        let mut conf_group: Option<RaceGroup> = None;
        let mut hb_group: Option<RaceGroup> = None;
        let mut probed: HashMap<PtsRef, bool> = HashMap::new();
        for (k1, k2, n, rep) in pairs {
            // Stage 3 — MHP, one bit test per bucket pair.
            if !matches!((k1.mhp, k2.mhp), (Some(r1), Some(r2)) if rel.related_regions(r1, r2)) {
                stats.killed_mhp += n;
                continue;
            }
            // Stage 4 — happens-before: a must-ordered pair is
            // synchronized, not racy; it folds into the FL0005 group.
            if matches!((k1.hb, k2.hb), (Some(r1), Some(r2)) if fsam.hb.related_regions(r1, r2)) {
                stats.killed_hb += n;
                absorb(&mut hb_group, o, rep, n);
                continue;
            }
            // Stage 5 — lockset, only between two locked sites (both
            // buckets are that one site, so `rep` is the pair).
            let locked_pair = k1.lock.and(k2.lock).is_some();
            if locked_pair && !fsam::racy_instances(fsam, oracle, rep.0, rep.1) {
                stats.killed_lockset += n;
                continue;
            }
            // Stage 6 — flow-sensitive alias confirmation.
            let mut has = |c: Option<PtsRef>| {
                c.is_some_and(|c| *probed.entry(c).or_insert_with(|| pool.contains(c, o)))
            };
            if has(k1.class) && has(k2.class) {
                absorb(&mut conf_group, o, rep, n);
            } else {
                stats.killed_alias += n;
                absorb(&mut hb_group, o, rep, n);
            }
        }
        class_probes += probed.len() as u64;
        if let Some(g) = conf_group {
            stats.confirmed += g.instances;
            confirmed.push(g);
        }
        if let Some(g) = hb_group {
            hb_protected.push(g);
        }
    }
    stats.confirmed_groups = confirmed.len() as u64;
    stats.hb_groups = hb_protected.len() as u64;

    recorder.counter(None, "lint.candidates", stats.candidates);
    recorder.counter(None, "lint.killed_shared", stats.killed_shared);
    recorder.counter(None, "lint.killed_mhp", stats.killed_mhp);
    recorder.counter(None, "lint.killed_hb", stats.killed_hb);
    recorder.counter(None, "lint.killed_lockset", stats.killed_lockset);
    recorder.counter(None, "lint.killed_alias", stats.killed_alias);
    recorder.counter(None, "lint.confirmed", stats.confirmed);
    recorder.counter(None, "lint.confirmed_groups", stats.confirmed_groups);
    recorder.counter(None, "lint.hb_groups", stats.hb_groups);
    let alias_classes: HashSet<PtsRef> = keys.values().filter_map(|k| k.class).collect();
    recorder.counter(None, "lint.alias_classes", alias_classes.len() as u64);
    recorder.counter(None, "lint.class_probes", class_probes);

    Reduction {
        confirmed,
        hb_protected,
        stats,
    }
}
