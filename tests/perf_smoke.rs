//! Perf smoke: the sparse solver's worklist traffic must stay bounded.
//!
//! The delta-propagating solver's whole point is that each suite program
//! converges in a small, deterministic number of worklist items (module
//! generation and the solver schedule are both seeded — reruns are
//! bit-identical). These bounds are the measured item counts at the smoke
//! scale, plus one program at the benchmark scale, with ~50% headroom; a
//! regression that reintroduces redundant recomputation (e.g. losing delta
//! gating or the topological level order) blows through them long before
//! wall-clock noise would show it.
//!
//! CI runs this as a dedicated perf-smoke step. If an intentional solver
//! change shifts the counts, re-measure (the failure message prints the
//! actual) and update the table alongside the change.

use std::time::Instant;

use fsam::{Fsam, PhaseConfig, Pipeline};
use fsam_query::QueryEngine;
use fsam_suite::{Program, Scale};

/// `stats.processed` per program at `Scale::SMOKE`, times 1.5, as measured
/// under the solver's former total-priority pop order. The level drain that
/// replaced it visits 3–17 % more items at this scale (x264 3545,
/// raytrace 3150, bodytrack 290, word_count 260, each within its bound),
/// so re-measuring would loosen these bounds, not tighten them; the order
/// is pinned by [`LEVEL_ORDER_BOUND`] at a scale where it matters. The
/// solve is sequential, so the count is the same at every worker count.
const BOUNDS: [(&str, usize); 10] = [
    ("word_count", 365),
    ("kmeans", 425),
    ("radiosity", 894),
    ("automount", 1181),
    ("ferret", 557),
    ("bodytrack", 405),
    ("httpd_server", 1164),
    ("mt_daapd", 1991),
    ("raytrace", 4475),
    ("x264", 5259),
];

/// `stats.processed` for httpd_server at the benchmark scale 0.32, times
/// 1.5. The level drain processes 16,782 items there; the former
/// total-priority order needed 40,262, so going back to it fails here.
const LEVEL_ORDER_BOUND: (Program, Scale, usize) = (Program::HttpdServer, Scale(0.32), 25_173);

#[test]
fn worklist_items_stay_under_checked_in_bounds() {
    let smoke = Program::all().into_iter().map(|p| {
        let bound = BOUNDS
            .iter()
            .find(|(name, _)| *name == p.name())
            .unwrap_or_else(|| panic!("no bound checked in for {}", p.name()))
            .1;
        (p, Scale::SMOKE, bound)
    });
    for (p, scale, bound) in smoke.chain([LEVEL_ORDER_BOUND]) {
        let module = p.generate(scale);
        let fsam = Pipeline::for_module(&module)
            .with_threads(1)
            .run(PhaseConfig::full());
        let processed = fsam.result.stats.processed;
        assert!(
            processed <= bound,
            "{} @ {}: solver processed {processed} worklist items, bound is {bound}",
            p.name(),
            scale.0
        );
    }
}

/// The parallel pipeline must stay inside generous wall-clock ceilings on
/// the four largest programs — a scheduling regression (a pool worker
/// spinning, a solve that stops converging) shows up here as a hang or a
/// blowout long before the identity tests time out.
#[test]
fn parallel_pipeline_stays_under_wall_clock_ceilings() {
    let ceiling_ms: u128 = if cfg!(debug_assertions) {
        20_000
    } else {
        4_000
    };
    let threads = fsam::thread_count().max(2);
    for p in [
        Program::X264,
        Program::Raytrace,
        Program::MtDaapd,
        Program::HttpdServer,
    ] {
        let module = p.generate(Scale::SMOKE);
        let start = Instant::now();
        let fsam = Pipeline::for_module(&module)
            .with_threads(threads)
            .run(PhaseConfig::full());
        let wall_ms = start.elapsed().as_millis();
        assert!(
            wall_ms <= ceiling_ms,
            "{}: parallel pipeline took {wall_ms} ms at {threads} threads, ceiling is {ceiling_ms} ms",
            p.name()
        );
        assert!(fsam.result.stats.processed > 0, "{}: empty solve", p.name());
    }
}

/// With a real multicore (≥ 8 workers available), the value-flow phase —
/// the one phase the worker pool still serves — must beat its sequential
/// run by at least 2x on the two heaviest programs at the benchmark scale.
/// Self-skips on smaller hosts — a 1-core CI container can only measure
/// overhead, not speedup.
#[test]
fn parallel_speedup_reaches_two_x_on_eight_cores() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < 8 {
        eprintln!("skipping speedup assertion: only {cores} cores available");
        return;
    }
    let scale = Scale(0.32);
    let (mut seq_us, mut par_us) = (0u128, 0u128);
    for p in [Program::X264, Program::Raytrace] {
        let module = p.generate(scale);
        let seq = Pipeline::for_module(&module)
            .with_threads(1)
            .run(PhaseConfig::full());
        let par = Pipeline::for_module(&module)
            .with_threads(8)
            .run(PhaseConfig::full());
        assert!(seq.result.points_to_eq(&par.result), "{}", p.name());
        seq_us += seq.times.value_flow.as_micros();
        par_us += par.times.value_flow.as_micros();
    }
    let speedup = seq_us as f64 / par_us.max(1) as f64;
    assert!(
        speedup >= 2.0,
        "value-flow speedup is {speedup:.2}x (seq {seq_us} us, par {par_us} us), need 2x"
    );
}

/// The factored lint path must stay cheap on the largest suite program:
/// grouped diagnostics and the streamed SARIF writer mean neither the wall
/// time nor the report size scales with the confirmed *pair* count
/// (x264 at this scale confirms 302 pairs but reports 11 groups).
///
/// Measured at smoke scale: ~6 ms / 12,591 SARIF bytes (debug). The time
/// ceiling is debug-aware and generous against CI noise; the byte ceiling
/// is tight because the output is seeded and deterministic.
#[test]
fn x264_lint_time_and_sarif_size_stay_under_checked_in_ceilings() {
    use fsam_lint::{write_sarif, LintContext, Registry};

    const SARIF_BYTES_CEILING: u64 = 65_536;
    let wall_ms_ceiling: u128 = if cfg!(debug_assertions) { 2_000 } else { 500 };

    let module = Program::X264.generate(Scale::SMOKE);
    let fsam = Fsam::analyze(&module);

    let start = Instant::now();
    let engine = QueryEngine::from_fsam(&module, &fsam);
    let cx = LintContext::new(&module, &fsam, &engine);
    let registry = Registry::with_default_checkers();
    let report = registry.run(&cx);
    let mut sarif = Vec::new();
    let stream =
        write_sarif(&cx, &registry, &report, None, None, &mut sarif).expect("stream to memory");
    let wall_ms = start.elapsed().as_millis();

    assert!(
        wall_ms <= wall_ms_ceiling,
        "x264 lint took {wall_ms} ms, ceiling is {wall_ms_ceiling} ms"
    );
    assert!(
        stream.bytes <= SARIF_BYTES_CEILING,
        "x264 SARIF is {} bytes, ceiling is {SARIF_BYTES_CEILING}",
        stream.bytes
    );
    assert!(
        cx.reduction().stats.confirmed > cx.reduction().stats.confirmed_groups,
        "the size argument assumes grouping collapses pairs"
    );
}
