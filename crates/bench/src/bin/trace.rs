//! Traced suite runs: per-phase breakdowns exported as `BENCH_trace.json`.
//!
//! ```text
//! cargo run --release -p fsam-bench --bin trace [-- --scale 0.32] \
//!     [--program word_count] [--validate] [--report] [--out PATH]
//! ```
//!
//! For every suite program, the full FSAM configuration runs once through
//! a single-threaded [`Pipeline`] with an attached [`Recorder`], and one
//! record per program is exported: the eight phase times, the sparse
//! solver's worklist counters *as carried by the trace stream* (not read
//! off the result struct — the point is that the stream is
//! self-sufficient), the value-flow phase's pruning counters, and the
//! recorder's own recorded/dropped accounting.
//!
//! A second run per program with the value-flow worker pool enabled
//! (width `fsam::thread_count()`, floored at 2 so the pool is always
//! exercised) feeds the `threads`, `par_value_flow_us`,
//! `par_sparse_solve_us` and `speedup_vs_seq` columns; its events go
//! through the same schema validation. Only the value-flow phase differs
//! between the two runs: the sparse solve is sequential in both, so its
//! column measures run-to-run noise, and the pipeline asserts the two
//! results are identical. The speedup is wall-clock over value-flow plus
//! solve combined (the column set is pinned) — on a host with fewer cores
//! than workers it hovers at or below 1.0, and the column says so
//! honestly.
//!
//! `--validate` additionally round-trips every recorded event through the
//! JSONL schema validator (`fsam_trace::schema`), which is what the CI
//! `trace-smoke` job runs at a small scale; `--report` prints the
//! human-readable span tree per program.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use fsam::{PhaseConfig, Pipeline};
use fsam_suite::{Program, Scale};
use fsam_trace::{report, schema, Event, Recorder};

/// Ring capacity: a traced full run emits well under a hundred span and
/// counter events; leave generous headroom so `dropped` staying at zero
/// is meaningful.
const CAPACITY: usize = 1 << 14;

fn main() {
    let scale = Scale(arg_value("--scale").unwrap_or(0.32));
    let only = arg_str("--program");
    let validate = has_flag("--validate");
    let show_report = has_flag("--report");
    let out = arg_str("--out")
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json").into());

    let mut records = Vec::new();
    let mut validated = 0usize;
    for p in Program::all() {
        if only.as_deref().is_some_and(|n| n != p.name()) {
            continue;
        }
        let module = p.generate(scale);
        let rec = Arc::new(Recorder::new(CAPACITY));
        let pipeline = Pipeline::for_module(&module)
            .with_trace(Arc::clone(&rec))
            .with_threads(1);
        let run = pipeline.run(PhaseConfig::full());
        let events = rec.events();

        // The pooled companion run: own pipeline (so no stage cache blurs
        // the timing), own recorder (so the par.* counters don't overwrite
        // the sequential stream).
        let threads = fsam::thread_count().max(2);
        let par_rec = Arc::new(Recorder::new(CAPACITY));
        let par_run = Pipeline::for_module(&module)
            .with_trace(Arc::clone(&par_rec))
            .with_threads(threads)
            .run(PhaseConfig::full());
        assert!(
            run.result == par_run.result,
            "{}: the solve result depends on the worker count",
            p.name()
        );
        let par_events = par_rec.events();
        if validate {
            for ev in events.iter().chain(par_events.iter()) {
                let line = schema::to_jsonl_line(ev);
                if let Err(e) = schema::validate_line(&line) {
                    eprintln!("{}: schema violation: {e}\n  {line}", p.name());
                    std::process::exit(1);
                }
                validated += 1;
            }
        }
        if show_report {
            println!("== {} ==\n{}", p.name(), report::render(&events));
        }
        let counters = counter_readings(&events);
        let counter = |name: &str| {
            *counters
                .get(name)
                .unwrap_or_else(|| panic!("{}: trace stream missing counter {name}", p.name()))
        };
        let us = |d: std::time::Duration| d.as_micros();
        let seq_hot = us(run.times.value_flow) + us(run.times.sparse_solve);
        let par_hot = us(par_run.times.value_flow) + us(par_run.times.sparse_solve);
        let speedup = seq_hot as f64 / (par_hot.max(1)) as f64;
        let mut r = String::new();
        write!(
            r,
            concat!(
                "  {{\"program\": \"{}\", \"scale\": {}, ",
                "\"pre_analysis_us\": {}, \"thread_model_us\": {}, \"svfg_us\": {}, ",
                "\"interleaving_us\": {}, \"hb_us\": {}, \"lock_us\": {}, \"value_flow_us\": {}, ",
                "\"sparse_solve_us\": {}, \"total_us\": {}, ",
                "\"worklist_items\": {}, \"delta_items\": {}, \"recompute_items\": {}, ",
                "\"strong_updates\": {}, \"weak_updates\": {}, \"peak_pts_bytes\": {}, ",
                "\"thread_edges_added\": {}, \"mhp_pairs\": {}, \"aliased_pairs\": {}, ",
                "\"events_recorded\": {}, \"events_dropped\": {}, ",
                "\"threads\": {}, \"par_value_flow_us\": {}, ",
                "\"par_sparse_solve_us\": {}, \"speedup_vs_seq\": {:.2}}}"
            ),
            p.name(),
            scale.0,
            us(run.times.pre_analysis),
            us(run.times.thread_model),
            us(run.times.svfg),
            us(run.times.interleaving),
            us(run.times.hb),
            us(run.times.lock),
            us(run.times.value_flow),
            us(run.times.sparse_solve),
            us(run.times.total()),
            counter("solve.worklist_items"),
            counter("solve.delta_items"),
            counter("solve.recompute_items"),
            counter("solve.strong_updates"),
            counter("solve.weak_updates"),
            counter("solve.peak_pts_bytes"),
            counter("svfg.thread_edges_added"),
            counter("vf.mhp_pairs"),
            counter("vf.aliased_pairs"),
            rec.recorded(),
            rec.dropped(),
            threads,
            us(par_run.times.value_flow),
            us(par_run.times.sparse_solve),
            speedup,
        )
        .expect("write to string");
        records.push(r);
        println!(
            "{:<14} {:>5} events  solve {:>8} items  {:>7} thread edges",
            p.name(),
            rec.recorded(),
            counter("solve.worklist_items"),
            counter("svfg.thread_edges_added"),
        );
    }

    let json = format!("[\n{}\n]\n", records.join(",\n"));
    std::fs::write(&out, &json).expect("write BENCH_trace.json");
    print!("wrote {out} ({} programs)", records.len());
    if validate {
        print!(", {validated} JSONL lines validated");
    }
    println!();
}

/// The last reading of every counter in the stream (a full run emits each
/// counter once; "last wins" also does the right thing for re-runs).
fn counter_readings(events: &[Event]) -> HashMap<String, u64> {
    let mut out = HashMap::new();
    for ev in events {
        if let Event::Counter { name, value, .. } = ev {
            out.insert(name.to_string(), *value);
        }
    }
    out
}

fn arg_value(flag: &str) -> Option<f64> {
    arg_str(flag).and_then(|v| v.parse().ok())
}

fn arg_str(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}
