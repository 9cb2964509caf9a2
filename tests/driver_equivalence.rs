//! Driver equivalence: the staged [`Pipeline`] and the legacy one-shot
//! `Fsam::analyze_with` entry point must be interchangeable.
//!
//! For every Figure 12 configuration on real suite programs, a stage-sharing
//! `Pipeline::run_all` batch must produce bit-identical points-to results and
//! value-flow statistics to a fresh `Fsam::analyze_with` call, and the shared
//! stages must have been built exactly once across the batch.

use fsam::{Fsam, PhaseConfig, Pipeline};
use fsam_suite::{Program, Scale};

fn configs() -> [PhaseConfig; 4] {
    [
        PhaseConfig::full(),
        PhaseConfig::no_interleaving(),
        PhaseConfig::no_value_flow(),
        PhaseConfig::no_lock(),
    ]
}

const PROGRAMS: [Program; 2] = [Program::WordCount, Program::Bodytrack];
const SCALE: Scale = Scale(0.05);

#[test]
fn staged_runs_match_legacy_driver_bit_for_bit() {
    for p in PROGRAMS {
        let module = p.generate(SCALE);
        let pipeline = Pipeline::for_module(&module);
        let staged = pipeline.run_all();
        let configs = configs();
        assert_eq!(staged.len(), configs.len());

        for (run, &config) in staged.iter().zip(&configs) {
            assert_eq!(
                run.config,
                config,
                "{}: run order matches configs()",
                p.name()
            );
            let legacy = Fsam::analyze_with(&module, config);
            assert_eq!(
                run.result,
                legacy.result,
                "{}/{:?}: staged and legacy points-to results diverge",
                p.name(),
                config
            );
            assert_eq!(
                run.vf_stats,
                legacy.vf_stats,
                "{}/{:?}: staged and legacy value-flow statistics diverge",
                p.name(),
                config
            );
            assert_eq!(run.lock.is_some(), legacy.lock.is_some());
            assert_eq!(
                run.mhp.interleaving().is_some(),
                legacy.mhp.interleaving().is_some(),
                "{}/{:?}: MHP backend variant differs",
                p.name(),
                config
            );
        }
    }
}

/// The delta-propagating solver must reach exactly the fixpoint of the
/// recompute-and-replace oracle — same points-to set at every variable and
/// every object definition — on every suite program. (Item counts and
/// strong/weak tallies legitimately differ between the two strategies;
/// the sets may not.)
#[test]
fn delta_solver_matches_recompute_oracle_on_every_program() {
    for p in Program::all() {
        let module = p.generate(Scale::SMOKE);
        let fsam = Fsam::analyze(&module);
        let oracle = fsam::solve_recompute(&module, &fsam.pre, &fsam.svfg);
        assert!(
            fsam.result.points_to_eq(&oracle),
            "{}: delta and recompute fixpoints diverge",
            p.name()
        );
        assert_eq!(
            fsam.result.stats.var_pts_entries,
            oracle.stats.var_pts_entries,
            "{}: variable points-to entry totals diverge",
            p.name()
        );
        assert_eq!(
            fsam.result.stats.def_pts_entries,
            oracle.stats.def_pts_entries,
            "{}: definition points-to entry totals diverge",
            p.name()
        );
    }
}

#[test]
fn batch_builds_each_shared_stage_once() {
    let module = Program::WordCount.generate(SCALE);
    let pipeline = Pipeline::for_module(&module);
    let _ = pipeline.run_all();

    let counts = pipeline.build_counts();
    assert_eq!(counts.pre_analysis, 1, "one Andersen pre-analysis");
    assert_eq!(counts.icfg, 1, "one ICFG + thread model");
    assert_eq!(counts.contexts, 1, "one context-table precompute");
    assert_eq!(
        counts.instances, 1,
        "one instance space, shared by the interleaving, PCG and lock analyses"
    );
    assert_eq!(counts.svfg, 1, "one thread-oblivious SVFG");
    assert_eq!(counts.interleaving, 1, "one interleaving analysis");
    assert_eq!(counts.pcg, 1, "one PCG fallback (for no-interleaving)");
    assert_eq!(counts.lock, 1, "one lock analysis");
}

#[test]
fn phase_times_report_every_stage_the_config_exercises() {
    let module = Program::WordCount.generate(SCALE);
    let pipeline = Pipeline::for_module(&module);

    for run in pipeline.run_all() {
        let t = &run.times;
        // Shared stages report their (one) build duration on every run, so
        // totals stay comparable between a fresh run and a cached run.
        assert!(
            !t.pre_analysis.is_zero(),
            "{:?}: pre-analysis timed",
            run.config
        );
        assert!(
            !t.thread_model.is_zero(),
            "{:?}: thread model timed",
            run.config
        );
        assert!(!t.svfg.is_zero(), "{:?}: SVFG timed", run.config);
        assert!(
            !t.value_flow.is_zero(),
            "{:?}: value-flow timed",
            run.config
        );
        assert!(
            !t.sparse_solve.is_zero(),
            "{:?}: sparse solve timed",
            run.config
        );
        assert!(t.total() >= t.sparse_solve);
        // The lock phase is only charged when the configuration enables it.
        assert_eq!(
            t.lock.is_zero(),
            !run.config.lock,
            "{:?}: lock timing gated",
            run.config
        );
    }
}
