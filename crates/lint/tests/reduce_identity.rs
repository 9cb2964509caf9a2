//! The race reducer runs its stages on buckets of access sites, never on
//! pairs. This test keeps the pair-by-pair reducer it replaced as a
//! reference and asserts that the bucketed one returns the same
//! [`Reduction`]: every [`ReductionStats`] field, and the confirmed and
//! `hb_protected` group lists, order included.
//!
//! Cases: the 10 suite programs and the 3 sync programs with and without
//! their seeded bug, under the full configuration and the four Figure 12
//! ablations, at the smoke scale; and x264 and raytrace at scale 0.32
//! under the full and No-Interleaving configurations. The scale-0.32 cases
//! run only in release builds (CI runs `cargo test --release -p fsam-lint`).

use std::collections::{HashMap, HashSet};

use fsam::{Fsam, PhaseConfig};
use fsam_ir::{Module, StmtId, StmtKind};
use fsam_lint::{LintContext, RaceGroup, RacePair, Reduction, ReductionStats};
use fsam_pts::{MemId, PtsRef};
use fsam_query::QueryEngine;
use fsam_suite::{Program, Scale, SyncProgram};
use fsam_threads::mhp::MhpOracle;
use fsam_threads::SharedObjects;

/// The full configuration and the four ablations.
fn configs() -> [PhaseConfig; 5] {
    [
        PhaseConfig::full(),
        PhaseConfig::no_interleaving(),
        PhaseConfig::no_lock(),
        PhaseConfig::no_hb(),
        PhaseConfig::no_value_flow(),
    ]
}

/// Adds one pair to `slot`, the first pair becoming the representative.
fn absorb_pair(slot: &mut Option<RaceGroup>, s: StmtId, a: StmtId, o: MemId) {
    match slot {
        Some(g) => g.instances += 1,
        None => {
            *slot = Some(RaceGroup {
                obj: o,
                rep: RacePair {
                    store: s,
                    access: a,
                    obj: o,
                },
                instances: 1,
            })
        }
    }
}

/// The pair-by-pair reducer: every store × access pair of a shared object
/// walks MHP, happens-before, the memoised lockset test and the memoised
/// class membership test, in that order.
fn reference(
    module: &Module,
    fsam: &Fsam,
    engine: &QueryEngine,
    shared: &SharedObjects,
) -> Reduction {
    let oracle: &dyn MhpOracle = &fsam.mhp;
    let rel = engine.mhp_relation();
    let pool = engine.db().result().pool();
    let mut stats = ReductionStats::default();

    let mut stores_of: HashMap<MemId, Vec<StmtId>> = HashMap::new();
    let mut accesses_of: HashMap<MemId, Vec<StmtId>> = HashMap::new();
    let mut region: HashMap<StmtId, Option<u32>> = HashMap::new();
    let mut class: HashMap<StmtId, Option<PtsRef>> = HashMap::new();
    for (sid, stmt) in module.stmts() {
        let (ptr, is_store) = match stmt.kind {
            StmtKind::Store { ptr, .. } => (ptr, true),
            StmtKind::Load { ptr, .. } => (ptr, false),
            _ => continue,
        };
        region.insert(sid, rel.region_of(sid));
        class.insert(sid, engine.class_of(ptr));
        for o in fsam.pre.pt_var(ptr).iter() {
            if is_store {
                stores_of.entry(o).or_default().push(sid);
            }
            accesses_of.entry(o).or_default().push(sid);
        }
    }
    let mut objects: Vec<MemId> = stores_of.keys().copied().collect();
    objects.sort();

    let mut racy_memo: HashMap<(StmtId, StmtId), bool> = HashMap::new();
    let mut fs_memo: HashMap<(PtsRef, MemId), bool> = HashMap::new();
    let mut confirmed: Vec<RaceGroup> = Vec::new();
    let mut hb_protected: Vec<RaceGroup> = Vec::new();
    for o in objects {
        let stores = &stores_of[&o];
        let accesses = accesses_of.get(&o).map_or(&[][..], Vec::as_slice);
        let n_stores = stores.len() as u64;
        let pair_count = n_stores * accesses.len() as u64 - n_stores * (n_stores - 1) / 2;
        stats.candidates += pair_count;
        let artifact = fsam.pre.objects().as_thread_handle(o).is_some();
        if artifact || !shared.is_shared(&fsam.pre, o) {
            stats.killed_shared += pair_count;
            continue;
        }

        let store_set: HashSet<StmtId> = stores.iter().copied().collect();
        let mut conf_group: Option<RaceGroup> = None;
        let mut hb_group: Option<RaceGroup> = None;
        let mut fs_has = |site: StmtId, o: MemId| match class[&site] {
            Some(c) => *fs_memo.entry((c, o)).or_insert_with(|| pool.contains(c, o)),
            None => false,
        };
        for &s in stores {
            for &a in accesses {
                if store_set.contains(&a) && s > a {
                    continue;
                }
                let parallel = match (region[&s], region[&a]) {
                    (Some(r1), Some(r2)) => rel.related_regions(r1, r2),
                    _ => false,
                };
                if !parallel {
                    stats.killed_mhp += 1;
                    continue;
                }
                if fsam.hb.related(s, a) {
                    stats.killed_hb += 1;
                    absorb_pair(&mut hb_group, s, a, o);
                    continue;
                }
                let racy = *racy_memo
                    .entry((s, a))
                    .or_insert_with(|| fsam::racy_instances(fsam, oracle, s, a));
                if !racy {
                    stats.killed_lockset += 1;
                    continue;
                }
                if fs_has(s, o) && fs_has(a, o) {
                    absorb_pair(&mut conf_group, s, a, o);
                } else {
                    stats.killed_alias += 1;
                    absorb_pair(&mut hb_group, s, a, o);
                }
            }
        }
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
    Reduction {
        confirmed,
        hb_protected,
        stats,
    }
}

/// Runs `config` on `m` and asserts the reducer equals the reference;
/// returns the funnel.
fn assert_identity(name: &str, m: &Module, config: PhaseConfig) -> ReductionStats {
    let fsam = Fsam::analyze_with(m, config);
    let engine = QueryEngine::from_fsam(m, &fsam);
    let cx = LintContext::new(m, &fsam, &engine);
    let got = cx.reduction();
    let want = reference(m, &fsam, &engine, cx.shared());
    assert_eq!(got.stats, want.stats, "{name} {config:?}: funnel diverges");
    assert_eq!(
        got.confirmed, want.confirmed,
        "{name} {config:?}: confirmed groups diverge"
    );
    assert_eq!(
        got.hb_protected, want.hb_protected,
        "{name} {config:?}: hb_protected groups diverge"
    );
    got.stats
}

#[test]
fn bucketed_reducer_matches_the_pair_reference_on_every_program_and_ablation() {
    let suite = Program::all()
        .into_iter()
        .map(|p| (p.name().to_string(), p.generate(Scale::SMOKE)));
    let sync = SyncProgram::all().into_iter().flat_map(|p| {
        [false, true].map(|bug| {
            let name = format!("{}{}", p.name(), if bug { " (seeded bug)" } else { "" });
            (name, p.generate_with(Scale::SMOKE, bug))
        })
    });
    let mut total = ReductionStats::default();
    for (name, m) in suite.chain(sync) {
        for config in configs() {
            let s = assert_identity(&name, &m, config);
            total.killed_mhp += s.killed_mhp;
            total.killed_hb += s.killed_hb;
            total.killed_lockset += s.killed_lockset;
            total.killed_alias += s.killed_alias;
            total.confirmed += s.confirmed;
        }
    }
    // Every stage must have killed something somewhere, or the identity
    // says nothing about it.
    assert!(total.killed_mhp > 0, "{total:?}");
    assert!(total.killed_hb > 0, "{total:?}");
    assert!(total.killed_lockset > 0, "{total:?}");
    assert!(total.killed_alias > 0, "{total:?}");
    assert!(total.confirmed > 0, "{total:?}");
}

#[test]
fn bucketed_reducer_matches_the_pair_reference_at_scale() {
    if cfg!(debug_assertions) {
        eprintln!("scale-0.32 identity runs in release builds only");
        return;
    }
    for p in [Program::X264, Program::Raytrace] {
        let m = p.generate(Scale(0.32));
        for config in [PhaseConfig::full(), PhaseConfig::no_interleaving()] {
            let s = assert_identity(p.name(), &m, config);
            eprintln!("{} {config:?}: {s:?}", p.name());
        }
    }
}
