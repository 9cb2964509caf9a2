//! Integration coverage of the client analyses (§6 of the paper) over the
//! benchmark suite: race detection, deadlock detection, and the dynamic
//! instrumentation planner — all through the engine-backed
//! `fsam_query::clients` entry points (the core crate's direct `detect`
//! functions were retired in their favour).

use fsam::{Fsam, InstrumentationPlan};
use fsam_ir::parse::parse_module;
use fsam_ir::{Module, StmtId, StmtKind};
use fsam_query::{detect_deadlocks, detect_races, plan_instrumentation, AnalysisDb, QueryEngine};
use fsam_suite::{Program, Scale, SyncProgram};

/// The 10 suite programs, then the 3 sync programs with and without their
/// seeded bug, at the smoke scale.
fn benchmarks() -> Vec<(String, Module)> {
    let suite = Program::all()
        .into_iter()
        .map(|p| (p.name().to_string(), p.generate(Scale::SMOKE)));
    let sync = SyncProgram::all().into_iter().flat_map(|p| {
        [false, true].map(|bug| {
            let name = format!("{}{}", p.name(), if bug { " (seeded bug)" } else { "" });
            (name, p.generate_with(Scale::SMOKE, bug))
        })
    });
    suite.chain(sync).collect()
}

#[test]
fn clients_run_on_every_benchmark() {
    for (name, module) in benchmarks() {
        let fsam = Fsam::analyze(&module);
        let engine = QueryEngine::from_fsam(&module, &fsam);

        let races = detect_races(&module, &fsam, &engine);
        let deadlocks = detect_deadlocks(&module, &fsam, &engine);
        let plan = plan_instrumentation(&module, &fsam, &engine);

        // Structural invariants.
        let accesses = module.stmts().filter(|(_, s)| s.is_memory_access()).count();
        assert_eq!(
            plan.instrument.len() + plan.skip.len(),
            accesses,
            "{}: plan must classify every access",
            name
        );
        // Every racy access pair's members must be in the instrument set:
        // the planner may not skip an access the race detector flags.
        for r in &races {
            assert!(
                plan.instrument.contains(&r.store),
                "{}: racy store skipped by the planner: {}",
                name,
                module.describe_stmt(r.store)
            );
            assert!(
                plan.instrument.contains(&r.access),
                "{}: racy access skipped by the planner: {}",
                name,
                module.describe_stmt(r.access)
            );
        }
        // Race endpoints must actually be loads/stores.
        for r in &races {
            assert!(matches!(module.stmt(r.store).kind, StmtKind::Store { .. }));
            assert!(module.stmt(r.access).is_memory_access());
        }
        // Deadlock reports must name two distinct singleton locks.
        for d in &deadlocks {
            assert_ne!(d.lock_a, d.lock_b, "{}", name);
            assert!(fsam.pre.objects().is_singleton(d.lock_a));
            assert!(fsam.pre.objects().is_singleton(d.lock_b));
        }
    }
}

/// The clients must report exactly the same findings whether the engine
/// runs over a freshly captured snapshot or over one that went through the
/// full serialize/deserialize cycle — the persisted form loses nothing the
/// clients depend on (points-to sets, MHP facts, locksets).
#[test]
fn snapshot_roundtrip_preserves_client_results_on_every_benchmark() {
    for p in Program::all() {
        let module = p.generate(Scale::SMOKE);
        let fsam = Fsam::analyze(&module);

        let captured = QueryEngine::new(AnalysisDb::capture(&module, &fsam));
        let db = AnalysisDb::capture(&module, &fsam);
        let roundtripped =
            QueryEngine::new(AnalysisDb::from_bytes(&db.to_bytes()).expect("roundtrip"));

        let fresh_races = detect_races(&module, &fsam, &captured);
        let persisted_races = detect_races(&module, &fsam, &roundtripped);
        assert_eq!(fresh_races, persisted_races, "{}: races diverge", p.name());

        let fresh_dl = detect_deadlocks(&module, &fsam, &captured);
        let persisted_dl = detect_deadlocks(&module, &fsam, &roundtripped);
        assert_eq!(fresh_dl, persisted_dl, "{}: deadlocks diverge", p.name());

        let fresh_plan = plan_instrumentation(&module, &fsam, &captured);
        let persisted_plan = plan_instrumentation(&module, &fsam, &roundtripped);
        assert_eq!(
            (fresh_plan.instrument, fresh_plan.skip),
            (persisted_plan.instrument, persisted_plan.skip),
            "{}: instrumentation plans diverge",
            p.name()
        );
    }
}

#[test]
fn lock_heavy_programs_have_substantial_skippable_fraction() {
    // The ferret pipeline's heavy local traffic should be mostly skippable
    // (the paper's §6 TSan-overhead argument).
    let module = Program::Ferret.generate(Scale::SMOKE);
    let fsam = Fsam::analyze(&module);
    let engine = QueryEngine::from_fsam(&module, &fsam);
    let plan = plan_instrumentation(&module, &fsam, &engine);
    assert!(
        plan.reduction() > 0.5,
        "ferret should skip most accesses, got {:.2}",
        plan.reduction()
    );
}

#[test]
fn consistently_ordered_suite_locks_produce_no_deadlocks() {
    // The generators acquire locks in consistent orders; the deadlock
    // detector must stay quiet on all of them.
    for p in [Program::Radiosity, Program::Automount, Program::Ferret] {
        let module = p.generate(Scale::SMOKE);
        let fsam = Fsam::analyze(&module);
        let engine = QueryEngine::from_fsam(&module, &fsam);
        let deadlocks = detect_deadlocks(&module, &fsam, &engine);
        assert!(
            deadlocks.is_empty(),
            "{}: unexpected deadlocks {:?}",
            p.name(),
            deadlocks
        );
    }
}

/// The engine planner's plan for a FIR program, with the module.
fn plan_for(src: &str) -> (Module, InstrumentationPlan) {
    let m = parse_module(src).unwrap();
    let fsam = Fsam::analyze(&m);
    let engine = QueryEngine::from_fsam(&m, &fsam);
    let p = plan_instrumentation(&m, &fsam, &engine);
    (m, p)
}

fn render(m: &Module, stmts: &[StmtId]) -> Vec<String> {
    stmts.iter().map(|&s| m.describe_stmt(s)).collect()
}

#[test]
fn sequential_program_needs_no_instrumentation() {
    let (_, p) = plan_for(
        r#"
        global g
        func main() {
        entry:
          q = &g
          store q, q
          c = load q
          ret
        }
    "#,
    );
    assert!(p.instrument.is_empty());
    assert_eq!(p.reduction(), 1.0);
}

#[test]
fn racy_accesses_are_instrumented_private_ones_skipped() {
    let (m, p) = plan_for(
        r#"
        global counter
        func worker() {
        local scratch
        entry:
          q = &counter
          s = &scratch
          v = load s          // private: skip
          store s, v          // private: skip
          store q, q          // races with main's read
          ret
        }
        func main() {
        entry:
          q = &counter
          t = fork worker()
          c = load q          // races with worker's store
          join t
          ret
        }
    "#,
    );
    // The two racy accesses are instrumented; the private ones skip.
    assert_eq!(p.instrument.len(), 2, "{:?}", render(&m, &p.instrument));
    assert!(p.skip.len() >= 2);
    assert!(p.reduction() > 0.0 && p.reduction() < 1.0);
}

#[test]
fn consistently_locked_accesses_are_skipped() {
    let (_, p) = plan_for(
        r#"
        global counter
        global mu
        func worker() {
        entry:
          q = &counter
          l = &mu
          lock l
          v = load q
          store q, v
          unlock l
          ret
        }
        func main() {
        entry:
          q = &counter
          l = &mu
          t = fork worker()
          lock l
          c = load q
          unlock l
          join t
          ret
        }
    "#,
    );
    assert!(
        p.instrument.is_empty(),
        "locked accesses need no dynamic checking: {:?}",
        p.instrument
    );
}

/// Regression: zero memory accesses means full reduction (nothing to
/// instrument), not `0.0`.
#[test]
fn no_accesses_is_full_reduction() {
    let (_, p) = plan_for(
        r#"
        func main() {
        entry:
          ret
        }
    "#,
    );
    assert!(p.instrument.is_empty());
    assert!(p.skip.is_empty());
    assert_eq!(p.reduction(), 1.0);
}
