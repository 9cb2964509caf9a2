//! Value-flow and the lint reducer run their lock tests on classes of
//! context-sensitive instances (`fsam_threads::lockclass`). This test pins
//! the classes against the instance loops they replaced, which stay as the
//! public references:
//!
//! * **Definition 6** — for every locked store × locked access of an
//!   object, `LockClasses::non_interfering` on their span classes equals
//!   `LockAnalysis::non_interference` over every MHP instance pair;
//! * **lockset** — `LockClasses::protected` on the two lockset classes
//!   equals `!fsam::racy_instances`.
//!
//! Both run under the interleaving and the PCG backend, on every suite and
//! sync program, on a handwritten two-lock program, on the lock-using
//! random programs of `tests/common`, and
//! on radiosity at scale 0.32 (release builds only; CI runs
//! `cargo test --release --test lock_classes`), whose task-queue spans are
//! the paper's Figure 13.

use std::collections::{BTreeMap, HashMap};

use fsam::{Fsam, PhaseConfig};
use fsam_ir::parse::parse_module;
use fsam_ir::rng::SmallRng;
use fsam_ir::{Module, StmtId, StmtKind};
use fsam_pts::MemId;
use fsam_suite::{Program, Scale, SyncProgram};
use fsam_threads::{LockAnalysis, LockClasses};

mod common;
use common::{build_random_module, sample_shape};

/// How often each test held, to show both outcomes are exercised.
#[derive(Default)]
struct Tally {
    pairs: usize,
    non_interfering: usize,
    protected: usize,
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
    oracle.instances(store).into_iter().all(|(t1, c1)| {
        oracle.instances(access).into_iter().all(|(t2, c2)| {
            let (i1, i2) = ((t1, c1, store), (t2, c2, access));
            !oracle.mhp_instances(&f.icfg, i1, i2) || lock.non_interference(&f.icfg, i1, i2, o)
        })
    })
}

/// Per object, ascending: the locked stores and the locked loads and
/// stores that may access it.
fn locked_accesses(
    m: &Module,
    f: &Fsam,
    lock: &LockAnalysis,
) -> BTreeMap<MemId, (Vec<StmtId>, Vec<StmtId>)> {
    let locked = lock.locked_stmts(&f.icfg);
    let mut by_obj: BTreeMap<MemId, (Vec<StmtId>, Vec<StmtId>)> = BTreeMap::new();
    for (sid, stmt) in m.stmts() {
        let (ptr, is_store) = match stmt.kind {
            StmtKind::Store { ptr, .. } => (ptr, true),
            StmtKind::Load { ptr, .. } => (ptr, false),
            _ => continue,
        };
        if !locked.contains(&sid) {
            continue;
        }
        for o in f.pre.pt_var(ptr).iter() {
            let (stores, accesses) = by_obj.entry(o).or_default();
            if is_store {
                stores.push(sid);
            }
            accesses.push(sid);
        }
    }
    by_obj
}

/// Runs `config` on `m` and checks both class tests against the instance
/// loops on every locked store × access pair.
fn assert_classes_match(name: &str, m: &Module, config: PhaseConfig, tally: &mut Tally) {
    let f = Fsam::analyze_with(m, config);
    let lock = f
        .lock
        .as_deref()
        .expect("the configuration runs the lock analysis");
    let mut classes = LockClasses::new(&f.icfg, &f.mhp, lock);
    let mut racy: HashMap<(StmtId, StmtId), bool> = HashMap::new();
    for (o, (stores, accesses)) in locked_accesses(m, &f, lock) {
        let span_class = |classes: &mut LockClasses, s: StmtId, is_store: bool| {
            classes.span_classes(s, is_store, [o])[0]
        };
        for &s in &stores {
            let store = span_class(&mut classes, s, true).1.expect("a store class");
            let held_s = classes.held_class(s);
            for &a in &accesses {
                let is_store = matches!(m.stmt(a).kind, StmtKind::Store { .. });
                let access = span_class(&mut classes, a, is_store).2;
                let non_interfering = all_instances_non_interfering(&f, lock, s, a, o);
                assert_eq!(
                    classes.non_interfering(store, access),
                    non_interfering,
                    "{name} {config:?}: Definition 6 on {s:?} -> {a:?} over {o:?}"
                );
                let held_a = classes.held_class(a);
                let protected = !*racy
                    .entry((s, a))
                    .or_insert_with(|| fsam::racy_instances(&f, &f.mhp, s, a));
                assert_eq!(
                    classes.protected(held_s, held_a),
                    protected,
                    "{name} {config:?}: lockset test on {s:?} and {a:?}"
                );
                tally.pairs += 1;
                tally.non_interfering += usize::from(non_interfering);
                tally.protected += usize::from(protected);
            }
        }
    }
}

/// Two workers write one global, each under its own lock: locked pairs
/// that share no lock, on which both tests fail under either backend
/// (every locked pair of the suite and sync programs shares a lock).
const TWO_LOCKS: &str = r#"
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
      store q, q
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

/// The full configuration and *No-Interleaving* (the PCG backend).
const BACKENDS: [fn() -> PhaseConfig; 2] = [PhaseConfig::full, PhaseConfig::no_interleaving];

#[test]
fn lock_classes_match_the_instance_loops() {
    let mut programs: Vec<(String, Module)> = Program::all()
        .into_iter()
        .map(|p| (p.name().to_string(), p.generate(Scale::SMOKE)))
        .chain(
            SyncProgram::all()
                .into_iter()
                .map(|p| (p.name().to_string(), p.generate(Scale::SMOKE))),
        )
        .collect();
    programs.push(("two locks".to_string(), parse_module(TWO_LOCKS).unwrap()));
    let mut rng = SmallRng::seed_from_u64(0x10C4_C1A5);
    for case in 0..32 {
        let shape = sample_shape(&mut rng);
        if shape.use_locks {
            let name = format!("random case {case} ({shape:?})");
            programs.push((name, build_random_module(&shape)));
        }
    }
    let mut tally = Tally::default();
    for (name, m) in &programs {
        for config in BACKENDS {
            assert_classes_match(name, m, config(), &mut tally);
        }
    }
    assert!(
        tally.non_interfering > 0,
        "Definition 6 must hold on some pair"
    );
    assert!(
        tally.protected > 0,
        "the lockset test must hold on some pair"
    );
    assert!(
        tally.non_interfering < tally.pairs && tally.protected < tally.pairs,
        "both tests must also fail on some pair"
    );
}

/// Figure 13: radiosity's task-queue spans at the benchmark scale.
#[test]
fn figure_13_radiosity_lock_classes_at_scale() {
    if cfg!(debug_assertions) {
        eprintln!("scale-0.32 lock classes run in release builds only");
        return;
    }
    let m = Program::Radiosity.generate(Scale(0.32));
    for config in BACKENDS {
        let mut tally = Tally::default();
        assert_classes_match("radiosity", &m, config(), &mut tally);
        if config().interleaving {
            assert!(tally.non_interfering > 0 && tally.protected > 0);
        }
        eprintln!(
            "radiosity {:?}: {} locked pairs, {} non-interfering, {} protected",
            config(),
            tally.pairs,
            tally.non_interfering,
            tally.protected
        );
    }
}
