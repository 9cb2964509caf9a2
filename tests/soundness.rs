//! Cross-crate soundness invariants, checked on the benchmark suite and on
//! randomly generated programs.
//!
//! The invariants (DESIGN.md §2):
//!
//! * `pt_FSAM(v) ⊆ pt_NonSparse(v) ⊆ pt_Andersen(v)` for every top-level
//!   variable — the sparse analysis refines the baseline, both refine the
//!   pre-analysis;
//! * MHP is symmetric, and nothing is parallel with statements that
//!   happen before every fork;
//! * every ablation configuration over-approximates the full configuration.

use fsam::{nonsparse, Fsam, NonSparseOutcome, PhaseConfig};
use fsam_ir::rng::SmallRng;
use fsam_ir::Module;
use fsam_suite::{Program, Scale, SyncProgram};
use fsam_threads::mhp::MhpOracle;

mod common;
use common::{build_random_module, sample_shape};

fn check_soundness_chain(module: &Module) {
    let fsam = Fsam::analyze(module);
    let outcome = nonsparse::run(module, &fsam.pre, &fsam.icfg, &fsam.tm, None);
    let NonSparseOutcome::Done(ns) = outcome else {
        panic!("baseline did not finish");
    };
    let sequential = fsam.tm.is_empty();
    for v in module.var_ids() {
        // Both flow-sensitive analyses refine the pre-analysis.
        assert!(
            fsam.result.pt_var(v).is_subset(fsam.pre.pt_var(v)),
            "FSAM ⊄ Andersen on {}",
            module.var_name(v),
        );
        assert!(
            ns.pt_var(v).is_subset(fsam.pre.pt_var(v)),
            "NonSparse ⊄ Andersen on {}",
            module.var_name(v),
        );
        // On sequential programs the two flow-sensitive analyses agree up
        // to FSAM's extra precision. On multithreaded programs neither
        // dominates pointwise: FSAM's weak-update pass-through chains
        // (store → store → load thread edges) over-approximate some flows
        // the baseline's generated-facts-only interference does not, and
        // vice versa — both are sound over-approximations of the runtime
        // truth (see DESIGN.md).
        if sequential {
            assert!(
                fsam.result.pt_var(v).is_subset(ns.pt_var(v)),
                "sequential FSAM ⊄ NonSparse on {}: {:?} vs {:?}",
                module.var_name(v),
                fsam.result.pt_var(v),
                ns.pt_var(v),
            );
        }
    }
}

#[test]
fn suite_programs_satisfy_the_soundness_chain() {
    for p in Program::all() {
        let module = p.generate(Scale::SMOKE);
        check_soundness_chain(&module);
    }
}

#[test]
fn suite_ablations_over_approximate() {
    for p in [Program::WordCount, Program::Radiosity, Program::Ferret] {
        let module = p.generate(Scale::SMOKE);
        let full = Fsam::analyze(&module);
        for cfg in [
            PhaseConfig::no_interleaving(),
            PhaseConfig::no_value_flow(),
            PhaseConfig::no_lock(),
            PhaseConfig::no_hb(),
        ] {
            let ablated = Fsam::analyze_with(&module, cfg);
            for v in module.var_ids() {
                assert!(
                    full.result.pt_var(v).is_subset(ablated.result.pt_var(v)),
                    "{}: {cfg:?} lost soundness on {}",
                    p.name(),
                    module.var_name(v)
                );
            }
        }
    }
}

#[test]
fn suite_mhp_is_symmetric() {
    let module = Program::Radiosity.generate(Scale::SMOKE);
    let fsam = Fsam::analyze(&module);
    let inter = fsam.mhp.interleaving().expect("full config");
    let stmts: Vec<_> = module.stmt_ids().collect();
    // Sample pairs (full quadratic check is wasteful).
    for (i, &a) in stmts.iter().enumerate() {
        for &b in stmts.iter().skip(i).step_by(7) {
            assert_eq!(
                inter.mhp_stmt(a, b),
                inter.mhp_stmt(b, a),
                "MHP not symmetric for {a} / {b}"
            );
        }
    }
}

#[test]
fn race_detection_runs_on_the_suite() {
    for p in [Program::HttpdServer, Program::Automount] {
        let module = p.generate(Scale::SMOKE);
        let fsam = Fsam::analyze(&module);
        // The servers intentionally contain unlocked shared mutations.
        let engine = fsam_query::QueryEngine::from_fsam(&module, &fsam);
        let races = fsam_query::detect_races(&module, &fsam, &engine);
        // No assertion on the count (generator-dependent); the detector
        // must terminate and report shared objects only.
        for r in &races {
            assert!(
                fsam_threads::SharedObjects::compute(&module, &fsam.pre)
                    .is_shared(&fsam.pre, r.obj),
                "race on a thread-private object: {r:?}"
            );
        }
    }
}

// --------------------------------------------- happens-before end-to-end --

/// Runs the default lint registry and returns (reducer stats, FL0001
/// diagnostic count).
fn lint_funnel(module: &Module, cfg: PhaseConfig) -> (fsam_lint::ReductionStats, usize) {
    let fsam = Fsam::analyze_with(module, cfg);
    let engine = fsam_query::QueryEngine::from_fsam(module, &fsam);
    let cx = fsam_lint::LintContext::new(module, &fsam, &engine);
    let report = fsam_lint::Registry::with_default_checkers().run(&cx);
    (cx.reduction().stats, report.count_of("FL0001"))
}

/// The HB stage's end-to-end contract on the synchronization
/// micro-benchmarks: with HB enabled every condvar/barrier/atomic-ordered
/// candidate dies before the alias stage (zero FL0001 groups, nonzero
/// `killed_hb`); with the *No-HB* ablation the same pairs resurface as
/// confirmed races.
#[test]
fn sync_programs_are_race_free_with_hb_and_racy_without() {
    for p in SyncProgram::all() {
        let module = p.generate(Scale::SMOKE);

        let (stats, fl1) = lint_funnel(&module, PhaseConfig::full());
        assert_eq!(
            fl1,
            0,
            "{}: the synchronized form must report no races",
            p.name()
        );
        assert_eq!(stats.confirmed, 0, "{}: {stats:?}", p.name());
        assert!(
            stats.killed_hb > 0,
            "{}: the ordered candidates must be killed by HB, not upstream: {stats:?}",
            p.name()
        );

        let (ablated, fl1_ablated) = lint_funnel(&module, PhaseConfig::no_hb());
        assert!(
            fl1_ablated > 0 && ablated.confirmed > 0,
            "{}: ablating HB must resurface the ordered pairs: {ablated:?}",
            p.name()
        );
        assert_eq!(ablated.killed_hb, 0, "{}: {ablated:?}", p.name());
    }
}

/// The seeded-bug forms stay racy even with HB enabled: the rogue thread
/// reads the cells without synchronizing, and the diagnostic names them.
#[test]
fn sync_programs_with_seeded_bug_stay_racy_under_hb() {
    for p in SyncProgram::all() {
        let module = p.generate_with(Scale::SMOKE, true);
        let fsam = Fsam::analyze(&module);
        let engine = fsam_query::QueryEngine::from_fsam(&module, &fsam);
        let cx = fsam_lint::LintContext::new(&module, &fsam, &engine);
        let report = fsam_lint::Registry::with_default_checkers().run(&cx);
        let races: Vec<_> = report.with_code("FL0001").collect();
        assert!(
            !races.is_empty(),
            "{}: the seeded race must survive HB",
            p.name()
        );
        assert!(
            races.iter().any(|d| d.message.contains(p.bug_object())),
            "{}: no reported race names `{}`: {races:?}",
            p.name(),
            p.bug_object()
        );
    }
}

// ------------------------------------------------------ randomized shapes --

/// Random programs are well-formed, every analysis terminates, and the
/// FSAM ⊆ NonSparse ⊆ Andersen chain holds (24 deterministic cases).
#[test]
fn random_programs_satisfy_the_soundness_chain() {
    let mut rng = SmallRng::seed_from_u64(0xC0FF_EE01);
    for case in 0..24 {
        let shape = sample_shape(&mut rng);
        let module = build_random_module(&shape);
        fsam_ir::verify::verify_module(&module)
            .unwrap_or_else(|e| panic!("case {case} ({shape:?}): invalid SSA: {e:?}"));
        check_soundness_chain(&module);
    }
}

/// Random programs: ablations never drop points-to facts (24 cases).
#[test]
fn random_programs_ablations_over_approximate() {
    let mut rng = SmallRng::seed_from_u64(0xC0FF_EE02);
    for case in 0..24 {
        let shape = sample_shape(&mut rng);
        let module = build_random_module(&shape);
        let full = Fsam::analyze(&module);
        let ablated = Fsam::analyze_with(&module, PhaseConfig::no_lock());
        for v in module.var_ids() {
            assert!(
                full.result.pt_var(v).is_subset(ablated.result.pt_var(v)),
                "case {case}: no-lock lost soundness on {}",
                module.var_name(v)
            );
        }
    }
}
