//! Result-identity of the registry checkers with a reference pair
//! enumeration, asserted per suite program: the staged reducer must kill
//! candidates for *speed* and group them for *deduplication*, never
//! changing which races exist.
//!
//! The reference below is the classic enumerating detector spelled out
//! pair by pair — the exact algorithm the core crate's retired
//! `race::detect` implemented: flow-sensitively confirmed store × access
//! pairs on shared objects that may happen in parallel without a common
//! lock. The reducer's grouped output must cover the same pairs exactly:
//! same objects, same per-object pair counts, and each group's
//! representative is the smallest surviving pair on its object.

use std::collections::{BTreeMap, HashMap, HashSet};

use fsam::Fsam;
use fsam_ir::{Module, StmtId, StmtKind};
use fsam_lint::{LintContext, Registry};
use fsam_pts::MemId;
use fsam_query::QueryEngine;
use fsam_suite::{Program, Scale};
use fsam_threads::mhp::MhpOracle;
use fsam_threads::SharedObjects;

/// The classic lockset × MHP detector over the flow-sensitive sets, one
/// `(store, access, obj)` triple per racy pair.
fn reference_races(module: &Module, fsam: &Fsam) -> Vec<(StmtId, StmtId, MemId)> {
    let oracle: &dyn MhpOracle = &fsam.mhp;
    let shared = SharedObjects::compute(module, &fsam.pre);
    let mut stores_of: HashMap<MemId, Vec<StmtId>> = HashMap::new();
    let mut accesses_of: HashMap<MemId, Vec<StmtId>> = HashMap::new();
    for (sid, stmt) in module.stmts() {
        match stmt.kind {
            StmtKind::Store { ptr, .. } => {
                for o in fsam.result.pt_var(ptr).iter() {
                    stores_of.entry(o).or_default().push(sid);
                    accesses_of.entry(o).or_default().push(sid);
                }
            }
            StmtKind::Load { ptr, .. } => {
                for o in fsam.result.pt_var(ptr).iter() {
                    accesses_of.entry(o).or_default().push(sid);
                }
            }
            _ => {}
        }
    }
    let mut races = Vec::new();
    let mut objects: Vec<MemId> = stores_of.keys().copied().collect();
    objects.sort();
    for o in objects {
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
                // Store/store pairs appear in both orders; keep one.
                if store_set.contains(&a) && s > a {
                    continue;
                }
                if !fsam.mhp_rel.related(s, a) {
                    continue;
                }
                // Pairs must-ordered by condvar/barrier/atomic sync are
                // synchronized, not racy (DESIGN §1.9).
                if fsam.hb.related(s, a) {
                    continue;
                }
                if fsam::racy_instances(fsam, oracle, s, a) {
                    races.push((s, a, o));
                }
            }
        }
    }
    races.sort();
    races.dedup();
    races
}

/// Groups reference pairs per object: (min pair, count).
fn group_reference(pairs: &[(StmtId, StmtId, MemId)]) -> BTreeMap<MemId, ((StmtId, StmtId), u64)> {
    let mut groups: BTreeMap<MemId, ((StmtId, StmtId), u64)> = BTreeMap::new();
    for &(s, a, o) in pairs {
        groups
            .entry(o)
            .and_modify(|(rep, n)| {
                *rep = (*rep).min((s, a));
                *n += 1;
            })
            .or_insert(((s, a), 1));
    }
    groups
}

#[test]
fn grouped_races_cover_the_reference_enumeration_on_every_suite_program() {
    for p in Program::all() {
        let module = p.generate(Scale::SMOKE);
        let fsam = Fsam::analyze(&module);
        let engine = QueryEngine::from_fsam(&module, &fsam);
        let cx = LintContext::new(&module, &fsam, &engine);
        let report = Registry::with_default_checkers().run(&cx);

        let reference = reference_races(&module, &fsam);
        let want = group_reference(&reference);
        let got: BTreeMap<MemId, ((StmtId, StmtId), u64)> = cx
            .reduction()
            .confirmed
            .iter()
            .map(|g| (g.obj, ((g.rep.store, g.rep.access), g.instances)))
            .collect();
        assert_eq!(
            got,
            want,
            "{}: grouped races diverge from the reference enumeration",
            p.name()
        );
        assert_eq!(
            cx.reduction().stats.confirmed,
            reference.len() as u64,
            "{}: instance total must close against the reference",
            p.name()
        );

        // FL0001: one diagnostic per group, carrying the representative's
        // raw ids and the instance count.
        let fl1: Vec<(u32, u32, u32, u64)> = report
            .with_code("FL0001")
            .chain(report.suppressed.iter().filter(|d| d.code == "FL0001"))
            .map(|d| {
                (
                    d.prop("store").unwrap().parse().unwrap(),
                    d.prop("access").unwrap().parse().unwrap(),
                    d.prop("obj_id").unwrap().parse().unwrap(),
                    d.prop("instances").unwrap().parse().unwrap(),
                )
            })
            .collect();
        let mut want_fl1: Vec<(u32, u32, u32, u64)> = want
            .iter()
            .map(|(&o, &((s, a), n))| (s.raw(), a.raw(), o.raw(), n))
            .collect();
        want_fl1.sort();
        let mut got_fl1 = fl1;
        got_fl1.sort();
        assert_eq!(
            got_fl1,
            want_fl1,
            "{}: FL0001 diagnostics diverge",
            p.name()
        );

        // Deadlocks: FL0002's ABBA findings must carry exactly the
        // engine-backed detector's (lock_a, lock_b, site_ab, site_ba)
        // tuples.
        let mut want_dl: Vec<(String, String, String, String)> =
            fsam_query::detect_deadlocks(&module, &fsam, &engine)
                .into_iter()
                .map(|d| {
                    (
                        d.lock_a.raw().to_string(),
                        d.lock_b.raw().to_string(),
                        d.site_ab.raw().to_string(),
                        d.site_ba.raw().to_string(),
                    )
                })
                .collect();
        want_dl.sort();
        let mut lint_dl: Vec<(String, String, String, String)> = report
            .with_code("FL0002")
            .chain(report.suppressed.iter().filter(|d| d.code == "FL0002"))
            .filter(|d| d.prop("kind") == Some("abba"))
            .map(|d| {
                (
                    d.prop("lock_a").unwrap().to_owned(),
                    d.prop("lock_b").unwrap().to_owned(),
                    d.prop("site_ab").unwrap().to_owned(),
                    d.prop("site_ba").unwrap().to_owned(),
                )
            })
            .collect();
        lint_dl.sort();
        assert_eq!(lint_dl, want_dl, "{}: deadlock sets diverge", p.name());
    }
}

/// The reducer's funnel must be coherent on every suite program: stages
/// only ever shrink the candidate set, the confirmed count closes the
/// arithmetic, and the grouped forms never exceed their instance totals.
#[test]
fn reduction_funnel_is_coherent_on_every_suite_program() {
    for p in Program::all() {
        let module = p.generate(Scale::SMOKE);
        let fsam = Fsam::analyze(&module);
        let engine = QueryEngine::from_fsam(&module, &fsam);
        let cx = LintContext::new(&module, &fsam, &engine);
        let s = cx.reduction().stats;
        assert!(s.after_shared() <= s.candidates, "{}: {s:?}", p.name());
        assert!(s.after_mhp() <= s.after_shared(), "{}: {s:?}", p.name());
        assert!(s.after_hb() <= s.after_mhp(), "{}: {s:?}", p.name());
        assert!(s.after_lockset() <= s.after_hb(), "{}: {s:?}", p.name());
        assert_eq!(
            s.after_lockset() - s.killed_alias,
            s.confirmed,
            "{}: {s:?}",
            p.name()
        );
        let red = cx.reduction();
        assert_eq!(red.confirmed.len() as u64, s.confirmed_groups);
        assert_eq!(red.hb_protected.len() as u64, s.hb_groups);
        assert_eq!(
            red.confirmed.iter().map(|g| g.instances).sum::<u64>(),
            s.confirmed,
            "{}: group instances must sum to the confirmed pairs",
            p.name()
        );
        assert_eq!(
            red.hb_protected.iter().map(|g| g.instances).sum::<u64>(),
            s.killed_hb + s.killed_alias,
            "{}: every HB and alias kill lands in an FL0005 group",
            p.name()
        );
        assert!(
            s.confirmed_groups <= s.confirmed && s.hb_groups <= s.killed_hb + s.killed_alias,
            "{}: grouping never invents findings: {s:?}",
            p.name()
        );
    }
}
