//! End-to-end tests of the tracing tentpole: the pipeline's trace stream
//! agrees with the solver's own statistics, validates against the JSONL
//! schema, explains a points-to fact from the paper's quickstart program,
//! costs nothing when disabled, and pins the exported benchmark key sets
//! against drift.

use std::sync::Arc;

use fsam::{PhaseConfig, Pipeline};
use fsam_ir::parse::parse_module;
use fsam_suite::{Program, Scale};
use fsam_trace::{json, schema, why_points_to, Event, Recorder};

fn counter(events: &[Event], name: &str) -> Option<u64> {
    // Last reading wins (a single run emits each counter once).
    events.iter().rev().find_map(|e| match e {
        Event::Counter { name: n, value, .. } if n == name => Some(*value),
        _ => None,
    })
}

/// The trace stream carries the same solver counters the result struct
/// reports, on more than one suite program.
#[test]
fn solver_trace_counters_match_result_stats_on_suite_programs() {
    for p in [Program::WordCount, Program::Ferret] {
        let module = p.generate(Scale::SMOKE);
        let rec = Arc::new(Recorder::new(1 << 14));
        let pipeline = Pipeline::for_module(&module).with_trace(Arc::clone(&rec));
        let run = pipeline.run(PhaseConfig::full());
        let events = rec.events();
        let s = &run.result.stats;
        let pairs: [(&str, usize); 8] = [
            ("solve.worklist_items", s.processed),
            ("solve.delta_items", s.delta_items),
            ("solve.recompute_items", s.recompute_items),
            ("solve.strong_updates", s.strong_updates),
            ("solve.weak_updates", s.weak_updates),
            ("solve.var_pts_entries", s.var_pts_entries),
            ("solve.def_pts_entries", s.def_pts_entries),
            ("solve.peak_pts_bytes", s.peak_pts_bytes),
        ];
        for (name, want) in pairs {
            assert_eq!(
                counter(&events, name),
                Some(want as u64),
                "{}: {name}",
                p.name()
            );
        }
        assert_eq!(rec.dropped(), 0, "{}: ring sized for a full run", p.name());
    }
}

/// Every event a traced pipeline run records serializes to a JSONL line
/// the strict schema validator accepts, and the span tree is rooted.
#[test]
fn traced_run_exports_valid_jsonl_with_nested_spans() {
    let module = Program::WordCount.generate(Scale::SMOKE);
    let rec = Arc::new(Recorder::new(1 << 14));
    let pipeline = Pipeline::for_module(&module).with_trace(Arc::clone(&rec));
    let _ = pipeline.run(PhaseConfig::full());
    let events = rec.events();
    assert!(!events.is_empty());
    for line in schema::export_jsonl(&events).lines() {
        schema::validate_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    // The solve span nests under the pipeline.run span.
    let span_of = |name: &str| {
        events.iter().find_map(|e| match e {
            Event::Span {
                id,
                parent,
                name: n,
                ..
            } if n == name => Some((*id, *parent)),
            _ => None,
        })
    };
    let (run_id, run_parent) = span_of("pipeline.run").expect("run span");
    let (_, solve_parent) = span_of("solve").expect("solve span");
    assert_eq!(run_parent, None);
    assert_eq!(solve_parent, Some(run_id));
    // Shared stages were traced too (as roots: they are built once and
    // shared by later runs, so they belong to no single run).
    for stage in ["stage.pre_analysis", "stage.svfg"] {
        assert!(span_of(stage).is_some(), "missing {stage}");
    }
}

/// `why_points_to` on the paper's Figure 1(a) program: the fact
/// `pt(main::c) ∋ y` is only true because of thread interference, so its
/// derivation must ride a `thread` edge back to `q = &y` in the forked
/// function.
#[test]
fn why_points_to_explains_quickstart_fact_through_a_thread_edge() {
    let m = parse_module(
        r#"
        global x
        global y
        global z
        func foo() {
        entry:
          p2 = &x
          q = &y
          store p2, q      // *p = q (in thread t)
          ret
        }
        func main() {
        entry:
          p = &x
          r = &z
          t = fork foo()
          store p, r       // *p = r
          c = load p       // c = *p
          ret
        }
    "#,
    )
    .unwrap();
    let rec = Arc::new(Recorder::with_explain(1 << 16));
    let pipeline = Pipeline::for_module(&m).with_trace(Arc::clone(&rec));
    let run = pipeline.run(PhaseConfig::full());
    let c = fsam::Fsam::var_named(&m, "main", "c");
    let y = run
        .result
        .pt_var(c)
        .iter()
        .find(|&o| run.pre.objects().display_name(&m, o) == "y")
        .expect("pt(c) contains y");
    let events = rec.events();
    assert_eq!(rec.dropped(), 0);
    let path = why_points_to(&events, c.index() as u64, u64::from(y.raw()))
        .expect("the fact pt(c) ∋ y has a recorded derivation");
    // Valid SVFG path: starts at c, chains src → dst, ends at the seed.
    assert_eq!(
        path.first().unwrap().dst,
        fsam_trace::ExplainNode::Var(c.index() as u64)
    );
    for w in path.windows(2) {
        assert_eq!(w[0].src, Some(w[1].dst), "{path:#?}");
        assert_eq!(w[0].src_obj, w[1].obj, "{path:#?}");
    }
    let last = path.last().unwrap();
    assert_eq!(last.via, "addr", "{path:#?}");
    assert_eq!(last.src, None);
    assert!(
        path.iter().any(|s| s.via == "thread"),
        "y reaches c only across the fork's interference edge: {path:#?}"
    );
    // z, by contrast, arrives without leaving main (sequential store).
    let z = run
        .result
        .pt_var(c)
        .iter()
        .find(|&o| run.pre.objects().display_name(&m, o) == "z")
        .expect("pt(c) contains z");
    let z_path = why_points_to(&events, c.index() as u64, u64::from(z.raw())).expect("derivable");
    assert_eq!(z_path.last().unwrap().via, "addr");
}

/// Tracing off is genuinely free: zero events, zero recorder heap, and
/// the analysis result is bit-identical to an untraced run.
#[test]
fn disabled_tracing_records_nothing_and_changes_nothing() {
    let module = Program::WordCount.generate(Scale::SMOKE);
    let rec = Arc::new(Recorder::disabled());
    let traced = Pipeline::for_module(&module)
        .with_trace(Arc::clone(&rec))
        .run(PhaseConfig::full());
    let plain = Pipeline::for_module(&module).run(PhaseConfig::full());
    assert_eq!(traced.result, plain.result);
    assert_eq!(rec.events().len(), 0);
    assert_eq!(rec.recorded(), 0);
    assert_eq!(rec.dropped(), 0);
    assert_eq!(
        rec.heap_bytes(),
        0,
        "disabled tracing must not grow the heap"
    );
    // The default pipeline recorder is the same inert instance.
    let default_pipeline = Pipeline::for_module(&module);
    assert!(!default_pipeline.trace().is_enabled());
    assert_eq!(default_pipeline.trace().heap_bytes(), 0);
}

fn record_keys(path: &str, want: &[&str]) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let parsed = json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let json::Value::Arr(records) = parsed else {
        panic!("{path}: expected a top-level array");
    };
    assert!(!records.is_empty(), "{path}: no records");
    for r in &records {
        let json::Value::Obj(fields) = r else {
            panic!("{path}: expected object records");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, want, "{path}: exported key set drifted");
    }
}

/// The exported benchmark files keep their exact key sets (in order):
/// EXPERIMENTS.md and the CI trace-smoke job read them by name.
#[test]
fn bench_export_keys_have_not_drifted() {
    record_keys(
        concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_solver.json"),
        &[
            "program",
            "scale",
            "worklist_items",
            "delta_items",
            "recompute_items",
            "strong_updates",
            "weak_updates",
            "peak_pts_bytes",
            "fsam_wall_ms",
            "nonsparse_wall_ms",
        ],
    );
    record_keys(
        concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_trace.json"),
        &[
            "program",
            "scale",
            "pre_analysis_us",
            "thread_model_us",
            "svfg_us",
            "interleaving_us",
            "hb_us",
            "lock_us",
            "value_flow_us",
            "sparse_solve_us",
            "total_us",
            "worklist_items",
            "delta_items",
            "recompute_items",
            "strong_updates",
            "weak_updates",
            "peak_pts_bytes",
            "thread_edges_added",
            "mhp_pairs",
            "aliased_pairs",
            "events_recorded",
            "events_dropped",
            "threads",
            "par_value_flow_us",
            "par_sparse_solve_us",
            "speedup_vs_seq",
        ],
    );
    record_keys(
        concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_server.json"),
        &[
            "program",
            "scale",
            "clients",
            "batch",
            "queries",
            "wall_ms",
            "qps",
            "p50_us",
            "p95_us",
            "p99_us",
            "swaps",
            "errors",
            "peak_rss_kb",
        ],
    );
    record_keys(
        concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_lint.json"),
        &[
            "program",
            "scale",
            "candidates",
            "after_shared",
            "after_mhp",
            "after_hb",
            "killed_hb",
            "after_lockset",
            "confirmed",
            "confirmed_groups",
            "hb_groups",
            "races",
            "deadlocks",
            "double_acquires",
            "lockset_inconsistencies",
            "hb_protected",
            "suppressed",
            "sarif_bytes",
            "sarif_results",
            "sarif_omitted",
            "peak_rss_kb",
            "wall_ms",
        ],
    );
}

/// The factored representations leave their evidence in the stream: the
/// pipeline's `stage.mhp_relation` span exports the region bitmatrix's
/// shape (`mhp.*`), and a traced lint run adds the reducer funnel plus
/// the grouping/class counters (`lint.*`) — the numbers EXPERIMENTS.md
/// quotes for "no per-statement pair set was materialized".
#[test]
fn factored_mhp_and_lint_dedup_counters_are_exported() {
    let module = Program::WordCount.generate(Scale::SMOKE);
    let rec = Arc::new(Recorder::new(1 << 16));
    let fsam = Pipeline::for_module(&module)
        .with_trace(Arc::clone(&rec))
        .run(PhaseConfig::full());
    let engine = fsam_query::QueryEngine::from_fsam(&module, &fsam);
    let cx = fsam_lint::LintContext::with_trace(&module, &fsam, &engine, Arc::clone(&rec));
    let _ = fsam_lint::Registry::with_default_checkers().run(&cx);
    let events = rec.events();

    let regions = counter(&events, "mhp.regions").expect("pipeline exports mhp.regions");
    let stmts = counter(&events, "mhp.region_stmts").expect("mhp.region_stmts");
    assert!(
        regions >= 1 && regions <= stmts,
        "{regions} regions / {stmts} stmts"
    );
    let matrix = counter(&events, "mhp.matrix_bits").expect("mhp.matrix_bits");
    assert_eq!(matrix, regions * regions);
    assert!(counter(&events, "mhp.parallel_bits").expect("mhp.parallel_bits") <= matrix);

    let s = cx.reduction().stats;
    assert_eq!(counter(&events, "lint.candidates"), Some(s.candidates));
    assert_eq!(counter(&events, "lint.confirmed"), Some(s.confirmed));
    assert_eq!(
        counter(&events, "lint.confirmed_groups"),
        Some(s.confirmed_groups)
    );
    assert_eq!(counter(&events, "lint.hb_groups"), Some(s.hb_groups));
    assert_eq!(counter(&events, "lint.killed_hb"), Some(s.killed_hb));
    let classes = counter(&events, "lint.alias_classes").expect("lint.alias_classes");
    let probes = counter(&events, "lint.class_probes").expect("lint.class_probes");
    assert!(
        classes >= 1,
        "accessed pointers intern to at least one class"
    );
    assert!(
        probes <= s.after_hb() * 2,
        "memoised membership never exceeds two probes per pair entering the \
         lockset stage: {probes} probes, {classes} classes, {} pairs",
        s.after_hb()
    );
}

/// The NonSparse baseline feeds the same stream with the shared counter
/// schema plus its own `nonsparse.*` section.
#[test]
fn nonsparse_trace_shares_the_counter_schema() {
    let module = Program::WordCount.generate(Scale::SMOKE);
    let rec = Arc::new(Recorder::new(1 << 12));
    let pipeline = Pipeline::for_module(&module).with_trace(Arc::clone(&rec));
    let _ = pipeline.run_nonsparse(None);
    let events = rec.events();
    assert!(counter(&events, "solve.worklist_items").is_some());
    assert!(counter(&events, "nonsparse.nodes").is_some());
    assert_eq!(counter(&events, "nonsparse.out_of_time"), Some(0));
    for line in schema::export_jsonl(&events).lines() {
        schema::validate_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
}
