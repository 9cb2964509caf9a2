//! Engine-backed client analyses: races, deadlocks, instrumentation.
//!
//! These are the shipping enumerating clients (the core crate's old
//! `detect` entry points were retired in their favour), built on
//! [`QueryEngine::query_many`]: every statement-level fact a client
//! consumes — points-to sets of accessed pointers, pairwise
//! may-happen-in-parallel — is fetched as one batch of [`Query`]s
//! instead of ad-hoc calls into the pipeline. The
//! *instance-level* refinements (lockset filtering over
//! context-sensitive thread instances) still consult the live [`Fsam`],
//! via the core crate's public `racy_instances` / `instances_protected`
//! helpers, because instance data is intentionally not part of the
//! snapshot.
//!
//! `tests/clients.rs` pins these against in-test reference enumerations
//! on every test program.

use std::collections::{HashMap, HashSet};

use fsam::instrument::instances_protected;
use fsam::race::racy_instances;
use fsam::{Deadlock, Fsam, InstrumentationPlan, Race};
use fsam_ir::icfg::NodeKind;
use fsam_ir::{Module, StmtId, StmtKind, VarId};
use fsam_pts::MemId;
use fsam_threads::mhp::MhpOracle;
use fsam_threads::SharedObjects;

use crate::engine::{Answer, Query, QueryEngine};

/// The accessed pointer of every load/store, batched through the engine.
/// Returns `(sid, is_store, objects)` per access in statement order.
fn batched_accesses(module: &Module, engine: &QueryEngine) -> Vec<(StmtId, bool, Vec<MemId>)> {
    let mut sites: Vec<(StmtId, bool, VarId)> = Vec::new();
    for (sid, stmt) in module.stmts() {
        match stmt.kind {
            StmtKind::Store { ptr, .. } => sites.push((sid, true, ptr)),
            StmtKind::Load { ptr, .. } => sites.push((sid, false, ptr)),
            _ => {}
        }
    }
    let slab: Vec<Query> = sites
        .iter()
        .map(|&(_, _, ptr)| Query::PointsTo(ptr))
        .collect();
    let answers = engine.query_many(&slab);
    sites
        .into_iter()
        .zip(answers)
        .map(|((sid, is_store, _), ans)| {
            let Answer::Objects(objs) = ans else {
                unreachable!("PointsTo answers Objects");
            };
            (sid, is_store, objs)
        })
        .collect()
}

/// Answers one batch of `Mhp` queries as a pair-keyed map.
fn batched_mhp(
    engine: &QueryEngine,
    pairs: &[(StmtId, StmtId)],
) -> HashMap<(StmtId, StmtId), bool> {
    let slab: Vec<Query> = pairs.iter().map(|&(a, b)| Query::Mhp(a, b)).collect();
    let answers = engine.query_many(&slab);
    pairs
        .iter()
        .zip(answers)
        .map(|(&(a, b), ans)| {
            let Answer::Bool(v) = ans else {
                unreachable!("Mhp answers Bool");
            };
            ((a, b), v)
        })
        .collect()
}

/// Engine-backed data-race detection: the classic lockset × MHP check
/// over the flow-sensitive sets, enumerated pair by pair (the grouped,
/// deduplicated form lives in the `fsam-lint` FL0001 checker).
pub fn detect_races(module: &Module, fsam: &Fsam, engine: &QueryEngine) -> Vec<Race> {
    let oracle: &dyn MhpOracle = &fsam.mhp;
    let shared = SharedObjects::compute(module, &fsam.pre);

    let mut stores_of: HashMap<MemId, Vec<StmtId>> = HashMap::new();
    let mut accesses_of: HashMap<MemId, Vec<StmtId>> = HashMap::new();
    for (sid, is_store, objs) in batched_accesses(module, engine) {
        for o in objs {
            if is_store {
                stores_of.entry(o).or_default().push(sid);
            }
            accesses_of.entry(o).or_default().push(sid);
        }
    }

    // Enumerate candidate pairs, then resolve their MHP facts in one batch.
    let mut objects: Vec<MemId> = stores_of.keys().copied().collect();
    objects.sort();
    let mut candidates: Vec<(MemId, StmtId, StmtId)> = Vec::new();
    for &o in &objects {
        if fsam.pre.objects().as_thread_handle(o).is_some() {
            continue;
        }
        if !shared.is_shared(&fsam.pre, o) {
            continue;
        }
        let stores = &stores_of[&o];
        let accesses = accesses_of.get(&o).map_or(&[][..], Vec::as_slice);
        let store_set: HashSet<StmtId> = stores.iter().copied().collect();
        for &s in stores {
            for &a in accesses {
                if store_set.contains(&a) && s > a {
                    continue;
                }
                candidates.push((o, s, a));
            }
        }
    }
    let mhp = batched_mhp(
        engine,
        &candidates
            .iter()
            .map(|&(_, s, a)| (s, a))
            .collect::<Vec<_>>(),
    );

    let mut races = Vec::new();
    for (o, s, a) in candidates {
        if !mhp[&(s, a)] {
            continue;
        }
        if racy_instances(fsam, oracle, s, a) {
            races.push(Race {
                store: s,
                access: a,
                obj: o,
            });
        }
    }
    races.sort_by_key(|r| (r.store, r.access, r.obj));
    races.dedup();
    races
}

/// Engine-backed ABBA deadlock detection: opposite-order lock-order
/// edges whose sites may happen in parallel.
pub fn detect_deadlocks(module: &Module, fsam: &Fsam, engine: &QueryEngine) -> Vec<Deadlock> {
    let Some(lock) = &fsam.lock else {
        return Vec::new();
    };
    let oracle: &dyn MhpOracle = &fsam.mhp;

    // Lock-order edges need must-held locksets per context-sensitive
    // instance — live-pipeline data, same as the core client.
    let mut edges: HashMap<(MemId, MemId), Vec<StmtId>> = HashMap::new();
    for (sid, stmt) in module.stmts() {
        let StmtKind::Lock { lock: lvar } = stmt.kind else {
            continue;
        };
        let Some(acquired) = fsam.pre.must_lock_obj(lvar) else {
            continue;
        };
        let node = fsam.icfg.stmt_node(sid);
        debug_assert!(matches!(fsam.icfg.kind(node), NodeKind::Stmt(_)));
        for (t, c) in oracle.instances(sid) {
            for &held in lock.held_at(&fsam.icfg, t, c, sid) {
                if held != acquired {
                    let entry = edges.entry((held, acquired)).or_default();
                    if !entry.contains(&sid) {
                        entry.push(sid);
                    }
                }
            }
        }
    }

    // Opposite-order site pairs, with the MHP check batched.
    let mut candidates: Vec<(MemId, MemId, StmtId, StmtId)> = Vec::new();
    for (&(a, b), sites_ab) in &edges {
        if a >= b {
            continue;
        }
        let Some(sites_ba) = edges.get(&(b, a)) else {
            continue;
        };
        for &s_ab in sites_ab {
            for &s_ba in sites_ba {
                candidates.push((a, b, s_ab, s_ba));
            }
        }
    }
    let mhp = batched_mhp(
        engine,
        &candidates
            .iter()
            .map(|&(_, _, s_ab, s_ba)| (s_ab, s_ba))
            .collect::<Vec<_>>(),
    );

    let mut out = Vec::new();
    let mut seen: HashSet<(MemId, MemId, StmtId, StmtId)> = HashSet::new();
    for (a, b, s_ab, s_ba) in candidates {
        if mhp[&(s_ab, s_ba)] && seen.insert((a, b, s_ab, s_ba)) {
            out.push(Deadlock {
                lock_a: a,
                lock_b: b,
                site_ab: s_ab,
                site_ba: s_ba,
            });
        }
    }
    out.sort_by_key(|d| (d.site_ab, d.site_ba));
    out
}

/// Engine-backed instrumentation planning; result-identical to
/// [`fsam::plan_instrumentation`], with the MHP facts batched.
pub fn plan_instrumentation(
    module: &Module,
    fsam: &Fsam,
    engine: &QueryEngine,
) -> InstrumentationPlan {
    let oracle: &dyn MhpOracle = &fsam.mhp;
    let shared = SharedObjects::compute(module, &fsam.pre);

    let mut stores_of: HashMap<MemId, Vec<StmtId>> = HashMap::new();
    let mut accesses_of: HashMap<MemId, Vec<StmtId>> = HashMap::new();
    let mut all_accesses: Vec<StmtId> = Vec::new();
    for (sid, is_store, objs) in batched_accesses(module, engine) {
        all_accesses.push(sid);
        for o in objs {
            if shared.is_shared(&fsam.pre, o) {
                if is_store {
                    stores_of.entry(o).or_default().push(sid);
                }
                accesses_of.entry(o).or_default().push(sid);
            }
        }
    }

    // Batch the MHP facts for every store/access pair on a common object.
    let mut pair_set: HashSet<(StmtId, StmtId)> = HashSet::new();
    let mut per_object: Vec<(StmtId, StmtId)> = Vec::new();
    for (&o, stores) in &stores_of {
        let accesses = accesses_of.get(&o).map_or(&[][..], Vec::as_slice);
        for &s in stores {
            for &a in accesses {
                per_object.push((s, a));
                pair_set.insert((s, a));
            }
        }
    }
    let distinct: Vec<(StmtId, StmtId)> = pair_set.into_iter().collect();
    let mhp = batched_mhp(engine, &distinct);

    let mut needs: HashSet<StmtId> = HashSet::new();
    for (s, a) in per_object {
        if needs.contains(&s) && needs.contains(&a) {
            continue;
        }
        if !mhp[&(s, a)] {
            continue;
        }
        if !instances_protected(fsam, oracle, s, a) {
            needs.insert(s);
            needs.insert(a);
        }
    }

    let mut instrument = Vec::new();
    let mut skip = Vec::new();
    for sid in all_accesses {
        if needs.contains(&sid) {
            instrument.push(sid);
        } else {
            skip.push(sid);
        }
    }
    InstrumentationPlan { instrument, skip }
}
