//! Worker-count identity: the pipeline's result must not depend on how
//! many workers the value-flow pool runs, on any suite program, for both
//! MHP backends — and must be deterministic run to run.
//!
//! Only value-flow is parallel: its per-object store × access loops are
//! sharded across the pool and folded back in object order. The sparse
//! solve is sequential. So the *full* result — points-to sets, solver
//! statistics, value-flow statistics and the frozen snapshot bytes — must
//! be identical at 1, 2 and 8 workers. `FSAM_THREADS` in CI's pool-smoke
//! job raises the default width the first test compares against.

use fsam::{PhaseConfig, Pipeline};
use fsam_query::AnalysisDb;
use fsam_suite::{Program, Scale};

/// Every program × both MHP backends: the pooled run equals the inline
/// one, statistics and all.
#[test]
fn parallel_matches_sequential_on_all_programs_and_backends() {
    for p in Program::all() {
        let module = p.generate(Scale::SMOKE);
        for config in [PhaseConfig::full(), PhaseConfig::no_interleaving()] {
            let seq = Pipeline::for_module(&module).with_threads(1).run(config);
            let par = Pipeline::for_module(&module)
                .with_threads(fsam::thread_count().max(2))
                .run(config);
            assert_eq!(
                seq.result,
                par.result,
                "{}: solve result diverged (interleaving={})",
                p.name(),
                config.interleaving
            );
            assert_eq!(
                seq.vf_stats,
                par.vf_stats,
                "{}: value-flow stats diverged",
                p.name()
            );
        }
    }
}

/// Worker-count independence: one, two and eight workers produce the
/// *same* result, statistics and all, down to the snapshot bytes.
#[test]
fn one_two_and_eight_workers_are_bit_identical() {
    for p in [Program::X264, Program::MtDaapd, Program::WordCount] {
        let module = p.generate(Scale::SMOKE);
        let run = |threads| {
            Pipeline::for_module(&module)
                .with_threads(threads)
                .run(PhaseConfig::full())
        };
        let one = run(1);
        let one_bytes = AnalysisDb::capture(&module, &one).to_bytes();
        for threads in [2, 8] {
            let other = run(threads);
            assert_eq!(
                one.result,
                other.result,
                "{}: results differ between 1 and {threads} workers",
                p.name()
            );
            assert_eq!(one.vf_stats, other.vf_stats, "{}", p.name());
            assert!(
                one_bytes == AnalysisDb::capture(&module, &other).to_bytes(),
                "{}: snapshot bytes differ between 1 and {threads} workers",
                p.name()
            );
        }
    }
}

/// Run-to-run determinism at eight workers: the frozen [`AnalysisDb`]
/// snapshot — points-to sets, definitions, interned pool, the lot — is
/// byte-identical across two independent pipeline runs. Any unordered
/// iteration smuggled into the pooled path (a `HashMap` walk feeding the
/// value-flow merge, a schedule-dependent order leaking into the result)
/// breaks this.
#[test]
fn eight_worker_runs_are_byte_deterministic() {
    for p in [Program::Raytrace, Program::HttpdServer] {
        let module = p.generate(Scale::SMOKE);
        let run = || {
            let fsam = Pipeline::for_module(&module)
                .with_threads(8)
                .run(PhaseConfig::full());
            AnalysisDb::capture(&module, &fsam).to_bytes()
        };
        assert_eq!(
            run(),
            run(),
            "{}: snapshot bytes differ run to run",
            p.name()
        );
    }
}
