//! The value-flow phase emits its thread-aware flows as region-level
//! classes (`fsam_threads::valueflow`). These tests pin that construction
//! against the pair-level algorithm it replaced, kept here as the
//! reference:
//!
//! * **identity** — one Definition 6 test per region-parallel store ×
//!   access pair, a `(store, access, object)` triple per survivor, then a
//!   regrouping of the triples by object and exact access set. The classes
//!   (order included) and the statistics must match on every suite and
//!   sync program, under both MHP backends with the lock analysis on and
//!   off, and in blind (*No-Value-Flow*) mode;
//! * **invariant** — the class construction skips the lock test unless both
//!   statements are locked, and so does the race reducer of `fsam-lint`.
//!   That is exact only because every region-parallel pair has at least
//!   one MHP instance pair (otherwise Definition 6 would hold vacuously and
//!   drop the pair, and `racy_instances` would be false). It is checked on
//!   the reducer's object set, which adds shared objects with a single
//!   access. A counterexample would make the classes keep a flow the
//!   reference drops — sound, but a change to report, not to paper over.
//!
//! The scale-0.32 cases run only in release builds (CI runs
//! `cargo test --release --test thread_flows`).

use std::collections::{BTreeMap, BTreeSet};

use fsam::{Fsam, PhaseConfig};
use fsam_andersen::PreAnalysis;
use fsam_ir::rng::SmallRng;
use fsam_ir::{Module, StmtId, StmtKind};
use fsam_pts::MemId;
use fsam_suite::{Program, Scale, SyncProgram};
use fsam_threads::valueflow::{self, ThreadGroup, ValueFlowStats};
use fsam_threads::{LockAnalysis, SharedObjects};

mod common;
use common::{build_random_module, sample_shape};

/// Interleaving/PCG × lock on/off.
const PRECISE: [PhaseConfig; 4] = [
    PhaseConfig {
        interleaving: true,
        value_flow: true,
        lock: true,
        hb: true,
    },
    PhaseConfig {
        interleaving: true,
        value_flow: true,
        lock: false,
        hb: true,
    },
    PhaseConfig {
        interleaving: false,
        value_flow: true,
        lock: true,
        hb: true,
    },
    PhaseConfig {
        interleaving: false,
        value_flow: true,
        lock: false,
        hb: true,
    },
];

/// Per object, ascending: the stores that may write it and the loads and
/// stores that may access it.
type AccessIndex = BTreeMap<MemId, Vec<StmtId>>;

fn index_accesses(m: &Module, pre: &PreAnalysis) -> (AccessIndex, AccessIndex) {
    let (mut stores, mut accesses) = (AccessIndex::new(), AccessIndex::new());
    for (sid, stmt) in m.stmts() {
        let (ptr, is_store) = match stmt.kind {
            StmtKind::Store { ptr, .. } => (ptr, true),
            StmtKind::Load { ptr, .. } => (ptr, false),
            _ => continue,
        };
        for o in pre.pt_var(ptr).iter() {
            if is_store {
                stores.entry(o).or_default().push(sid);
            }
            accesses.entry(o).or_default().push(sid);
        }
    }
    (stores, accesses)
}

/// The shared objects with a store and at least `min_accesses` accesses,
/// with their stores and accesses. The value-flow phase considers those
/// accessed at least twice; the race reducer (`fsam-lint`) also those with
/// a single access, a store whose only pair is with itself.
fn shared_objects(
    m: &Module,
    f: &Fsam,
    min_accesses: usize,
) -> Vec<(MemId, Vec<StmtId>, Vec<StmtId>)> {
    let shared = SharedObjects::compute(m, &f.pre);
    let (stores_of, mut accesses_of) = index_accesses(m, &f.pre);
    stores_of
        .into_iter()
        .filter_map(|(o, stores)| {
            let accesses = accesses_of.remove(&o).unwrap_or_default();
            (accesses.len() >= min_accesses && shared.is_shared(&f.pre, o))
                .then_some((o, stores, accesses))
        })
        .collect()
}

/// Definition 6 over every MHP instance pair of `(store, access)`.
fn all_instances_non_interfering(
    f: &Fsam,
    lock: &LockAnalysis,
    store: StmtId,
    access: StmtId,
    o: MemId,
) -> bool {
    let oracle = f.mhp.oracle();
    for (t1, c1) in oracle.instances(store) {
        for (t2, c2) in oracle.instances(access) {
            let (i1, i2) = ((t1, c1, store), (t2, c2, access));
            if oracle.mhp_instances(&f.icfg, i1, i2) && !lock.non_interference(&f.icfg, i1, i2, o) {
                return false;
            }
        }
    }
    true
}

/// The pair-level algorithm: triples, then classes by object and exact
/// access set.
fn reference(m: &Module, f: &Fsam, blind: bool) -> (Vec<ThreadGroup>, ValueFlowStats) {
    let rel = &f.mhp_rel;
    let mut stats = ValueFlowStats::default();
    let mut triples: Vec<(StmtId, StmtId, MemId)> = Vec::new();
    if blind {
        let (stores_of, accesses_of) = index_accesses(m, &f.pre);
        let all_stores: BTreeSet<StmtId> = stores_of.values().flatten().copied().collect();
        let all_accesses: BTreeSet<StmtId> = accesses_of.values().flatten().copied().collect();
        for &s in &all_stores {
            for &a in &all_accesses {
                if s == a || !rel.mhp_stmt(s, a) {
                    continue;
                }
                stats.mhp_pairs += 1;
                if let StmtKind::Store { ptr, .. } = m.stmt(s).kind {
                    for o in f.pre.pt_var(ptr).iter() {
                        triples.push((s, a, o));
                    }
                }
            }
        }
    } else {
        for (o, stores, accesses) in shared_objects(m, f, 2) {
            stats.shared_objects += 1;
            for &s in &stores {
                for &a in &accesses {
                    if s != a {
                        stats.aliased_pairs += 1;
                    }
                    if !rel.mhp_stmt(s, a) {
                        continue;
                    }
                    stats.mhp_pairs += 1;
                    if let Some(lock) = f.lock.as_deref() {
                        if all_instances_non_interfering(f, lock, s, a, o) {
                            stats.lock_filtered += 1;
                            continue;
                        }
                    }
                    triples.push((s, a, o));
                }
            }
        }
    }
    stats.edges = triples.len();

    let mut access_sets: BTreeMap<MemId, BTreeMap<StmtId, BTreeSet<StmtId>>> = BTreeMap::new();
    for (s, a, o) in triples {
        access_sets
            .entry(o)
            .or_default()
            .entry(s)
            .or_default()
            .insert(a);
    }
    let mut groups = Vec::new();
    for (obj, sets) in access_sets {
        let mut classes: BTreeMap<Vec<StmtId>, Vec<StmtId>> = BTreeMap::new();
        for (s, accs) in sets {
            classes
                .entry(accs.into_iter().collect())
                .or_default()
                .push(s);
        }
        groups.extend(classes.into_iter().map(|(accesses, stores)| ThreadGroup {
            obj,
            stores,
            accesses,
        }));
    }
    (groups, stats)
}

/// Runs `config` and checks the classes against the reference;
/// returns the statistics.
fn assert_identity(name: &str, m: &Module, config: PhaseConfig) -> ValueFlowStats {
    let f = Fsam::analyze_with(m, config);
    let blind = !config.value_flow;
    let vf = valueflow::compute(
        m,
        &f.icfg,
        &f.pre,
        &f.mhp,
        &f.mhp_rel,
        f.lock.as_deref(),
        blind,
    );
    let (groups, stats) = reference(m, &f, blind);
    assert_eq!(vf.stats, stats, "{name} {config:?}: statistics diverge");
    assert_eq!(f.vf_stats, stats, "{name} {config:?}: pipeline statistics");
    assert!(
        vf.edges == groups,
        "{name} {config:?}: {} classes, reference {}",
        vf.edges.len(),
        groups.len()
    );
    stats
}

/// Asserts that every region-parallel store × access pair of a shared
/// object has an MHP instance pair; returns the number of pairs checked.
/// The objects are the race reducer's, a superset of the value-flow
/// phase's: both skip their lock tests on a pair with an unlocked side.
fn assert_parallel_pairs_have_mhp_instances(name: &str, m: &Module, config: PhaseConfig) -> usize {
    let f = Fsam::analyze_with(m, config);
    let oracle = f.mhp.oracle();
    let mut pairs = 0;
    for (o, stores, accesses) in shared_objects(m, &f, 1) {
        for &s in &stores {
            let is1 = oracle.instances(s);
            for &a in &accesses {
                if !f.mhp_rel.mhp_stmt(s, a) {
                    continue;
                }
                pairs += 1;
                let is2 = oracle.instances(a);
                let witnessed = is1.iter().any(|&(t1, c1)| {
                    is2.iter()
                        .any(|&(t2, c2)| oracle.mhp_instances(&f.icfg, (t1, c1, s), (t2, c2, a)))
                });
                assert!(
                    witnessed,
                    "{name} {config:?}: {s:?} and {a:?} on {o:?} are region-parallel \
                     but no instance pair is MHP"
                );
            }
        }
    }
    pairs
}

/// The 10 suite programs and 3 sync programs at `scale`.
fn programs(scale: Scale) -> Vec<(String, Module)> {
    let suite = Program::all()
        .into_iter()
        .map(|p| (p.name().to_string(), p.generate(scale)));
    let sync = SyncProgram::all()
        .into_iter()
        .map(|p| (p.name().to_string(), p.generate(scale)));
    suite.chain(sync).collect()
}

/// Seeded random programs, half of them with a locked region per worker.
fn random_programs() -> Vec<(String, Module)> {
    let mut rng = SmallRng::seed_from_u64(0x7F10_3501);
    (0..24)
        .map(|case| {
            let shape = sample_shape(&mut rng);
            (
                format!("random case {case} ({shape:?})"),
                build_random_module(&shape),
            )
        })
        .collect()
}

#[test]
fn classes_match_the_pair_level_reference() {
    let mut lock_filtered = 0;
    for (name, m) in programs(Scale::SMOKE).iter().chain(&random_programs()) {
        for config in PRECISE {
            lock_filtered += assert_identity(name, m, config).lock_filtered;
        }
        assert_identity(name, m, PhaseConfig::no_value_flow());
    }
    assert!(lock_filtered > 0, "the lock filter must be exercised");
}

/// Identity and the invariant on the two programs the scale-0.32
/// benchmark runs use most.
#[test]
fn classes_match_the_pair_level_reference_at_scale() {
    if cfg!(debug_assertions) {
        eprintln!("scale-0.32 identity runs in release builds only");
        return;
    }
    for p in [Program::Automount, Program::X264] {
        let m = p.generate(Scale(0.32));
        for config in PRECISE {
            assert_identity(p.name(), &m, config);
        }
        for config in [PhaseConfig::full(), PhaseConfig::no_interleaving()] {
            let pairs = assert_parallel_pairs_have_mhp_instances(p.name(), &m, config);
            eprintln!(
                "{} {config:?}: {pairs} region-parallel pairs checked",
                p.name()
            );
        }
    }
    // Blind mode on x264 expands to ~9.5 M reference triples; automount
    // covers the blind path at this scale.
    let m = Program::Automount.generate(Scale(0.32));
    assert_identity("automount", &m, PhaseConfig::no_value_flow());
}

#[test]
fn region_parallel_pairs_have_mhp_instance_pairs() {
    let mut pairs = 0;
    for (name, m) in programs(Scale::SMOKE).iter().chain(&random_programs()) {
        for config in [PhaseConfig::full(), PhaseConfig::no_interleaving()] {
            pairs += assert_parallel_pairs_have_mhp_instances(name, m, config);
        }
    }
    assert!(pairs > 0);
    eprintln!("{pairs} region-parallel pairs, each with an MHP instance pair");
}
