//! Query-engine benchmarks: demand-driven throughput and snapshot I/O.
//!
//! Exercises `fsam-query` on the largest suite program (x264) and exports
//! `BENCH_query.json` at the workspace root:
//!
//! * `may_alias` throughput, with every answer checked against the direct
//!   intersection and a `MemoryMeter` assertion that the slab does not
//!   grow the engine's heap by a byte;
//! * snapshot save/load wall time and the on-disk size;
//! * `pt_names` throughput, under the same no-growth assertion.
//!
//! The alias slab is adversarial: the variables with the *largest*
//! points-to sets, all-pairs with distinct interned handle pairs, so every
//! query pays a full set intersection rather than a short-circuit.

use std::time::Duration;

use fsam::Fsam;
use fsam_bench::timing::bench;
use fsam_query::{AnalysisDb, Answer, Query, QueryEngine};
use fsam_suite::{Program, Scale};

const BENCH_SCALE: Scale = Scale(0.08);
const SAMPLES: usize = 10;
/// Passes over the alias slab per timed sample.
const ALIAS_PASSES: usize = 200;

/// All-pairs over the variables with the largest points-to sets, keeping
/// only pairs whose interned handle pair is new — so no two queries
/// intersect the same pair of sets.
fn adversarial_alias_slab(engine: &QueryEngine, target: usize) -> Vec<Query> {
    let handles = engine.db().result().var_handles();
    let pool = engine.db().result().pool();
    let mut by_size: Vec<(usize, u32)> = handles
        .iter()
        .enumerate()
        .map(|(i, &r)| (pool.get(r).len(), i as u32))
        .collect();
    by_size.sort_by(|a, b| b.cmp(a));

    let mut seen = std::collections::HashSet::new();
    let mut slab = Vec::with_capacity(target);
    'outer: for (ai, &(_, a)) in by_size.iter().enumerate() {
        for &(_, b) in &by_size[ai + 1..] {
            let (ra, rb) = (handles[a as usize].index(), handles[b as usize].index());
            let key = (ra.min(rb), ra.max(rb));
            // Equal or empty handles short-circuit; keep only pairs that
            // intersect.
            if ra == rb || ra == 0 || rb == 0 || !seen.insert(key) {
                continue;
            }
            slab.push(Query::MayAlias(
                fsam_ir::VarId::new(a),
                fsam_ir::VarId::new(b),
            ));
            if slab.len() >= target {
                break 'outer;
            }
        }
    }
    slab
}

fn qps(queries: usize, d: Duration) -> f64 {
    queries as f64 / d.as_secs_f64()
}

fn main() {
    let program = Program::X264; // largest suite program (Table 1)
    let module = program.generate(BENCH_SCALE);
    let fsam = Fsam::analyze(&module);
    let db = AnalysisDb::capture(&module, &fsam);

    // ---- snapshot I/O ----------------------------------------------------
    let bytes = db.to_bytes();
    let snapshot_bytes = bytes.len();
    let path = std::env::temp_dir().join(format!("fsam-bench-query-{}.fsamdb", std::process::id()));
    let save_median = bench("query/snapshot_save", SAMPLES, || {
        db.save(&path).expect("save snapshot")
    });
    let load_median = bench("query/snapshot_load", SAMPLES, || {
        AnalysisDb::load(&path).expect("load snapshot")
    });
    std::fs::remove_file(&path).ok();

    // ---- may_alias -------------------------------------------------------
    let engine = QueryEngine::new(AnalysisDb::from_bytes(&bytes).expect("roundtrip"));
    let slab = adversarial_alias_slab(&engine, 2_000);
    assert!(
        slab.len() >= 100,
        "suite program too small for an alias slab"
    );
    let pairs: Vec<(fsam_ir::VarId, fsam_ir::VarId)> = slab
        .iter()
        .map(|q| match q {
            Query::MayAlias(a, b) => (*a, *b),
            _ => unreachable!(),
        })
        .collect();

    // Every answer equals the direct intersection of the two sets, and
    // answering the slab leaves the engine's heap exactly as it was.
    let heap_before = engine.memory().total_bytes();
    let pool = engine.db().result().pool();
    let handles = engine.db().result().var_handles();
    for (&(a, b), answer) in pairs.iter().zip(engine.query_many(&slab)) {
        let direct = pool
            .get(handles[a.index()])
            .intersects(pool.get(handles[b.index()]));
        assert_eq!(answer, Answer::Bool(direct), "may_alias({a:?}, {b:?})");
    }
    let alias_median = bench("query/may_alias", SAMPLES, || {
        let mut acc = 0usize;
        for _ in 0..ALIAS_PASSES {
            for &(a, b) in std::hint::black_box(&pairs) {
                acc += usize::from(engine.may_alias(a, b));
            }
        }
        acc
    });
    let heap_after = engine.memory().total_bytes();
    assert_eq!(
        heap_before,
        heap_after,
        "may_alias grew the engine heap by {} bytes",
        heap_after.saturating_sub(heap_before)
    );
    let alias_qps = qps(slab.len() * ALIAS_PASSES, alias_median);

    // ---- pt_names: throughput + no-growth micro-assertion ----------------
    let sample_names: Vec<(String, String)> = engine
        .db()
        .var_names()
        .iter()
        .step_by(17)
        .take(64)
        .cloned()
        .collect();
    // Warm once, then pin the meter: repeated name queries must not grow
    // the engine's heap (borrowed strings, no per-call interning).
    for (f, v) in &sample_names {
        let _ = engine.pt_names(f, v);
    }
    let heap_before = engine.memory().total_bytes();
    let names_median = bench("query/pt_names", SAMPLES, || {
        let mut total = 0usize;
        for (f, v) in &sample_names {
            total += engine.pt_names(f, v).map_or(0, |n| n.len());
        }
        total
    });
    let heap_after = engine.memory().total_bytes();
    assert_eq!(
        heap_before,
        heap_after,
        "pt_names grew the engine heap by {} bytes",
        heap_after.saturating_sub(heap_before)
    );
    let names_qps = qps(sample_names.len(), names_median);

    // ---- export ----------------------------------------------------------
    let json = format!(
        concat!(
            "{{\n",
            "  \"program\": \"{}\", \"scale\": {},\n",
            "  \"alias_slab\": {}, \"may_alias_qps\": {:.0},\n",
            "  \"snapshot_bytes\": {}, \"save_wall_ms\": {:.3}, \"load_wall_ms\": {:.3},\n",
            "  \"pt_names_qps\": {:.0}, \"pt_names_heap_growth_bytes\": {}\n",
            "}}\n"
        ),
        program.name(),
        BENCH_SCALE.0,
        slab.len(),
        alias_qps,
        snapshot_bytes,
        save_median.as_secs_f64() * 1e3,
        load_median.as_secs_f64() * 1e3,
        names_qps,
        heap_after - heap_before,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json");
    std::fs::write(path, &json).expect("write BENCH_query.json");
    println!("wrote BENCH_query.json: may_alias {alias_qps:.0} qps");
}
