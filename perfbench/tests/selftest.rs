//! Self-tests of the benchmark: its checks reject wrong answers, it prints
//! exactly the metrics `BENCHMARK.json` declares, and its traced staged
//! run describes the same analysis as `Pipeline::run`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use fsam::{PhaseConfig, Pipeline};
use fsam_mssa::Svfg;
use fsam_query::Answer;
use fsam_suite::{Program, Scale, SyncProgram};
use fsam_trace::json::{self, Value};
use perfbench::analyze::{self, Counts};
use perfbench::check::{diag_listing, pts_listing};
use perfbench::serve::Serve;
use perfbench::trace::Tracer;
use perfbench::workload::{self, END_TO_END, PER_LAYER};

fn smoke_programs() -> Vec<(&'static str, fsam_ir::Module)> {
    Program::all()
        .iter()
        .map(|p| (p.name(), p.generate(Scale::SMOKE)))
        .chain(
            SyncProgram::all()
                .iter()
                .map(|p| (p.name(), p.generate(Scale::SMOKE))),
        )
        .collect()
}

#[test]
fn expected_file_check_rejects_a_solve_without_thread_edges() {
    // automount's variables see values only thread-aware edges carry.
    let fir = Program::Automount.generate(Scale::SMOKE).to_string();
    let good = analyze::run(&fir);
    let input = analyze::Input {
        name: "automount",
        fir: fir.clone(),
        expected_pts: pts_listing(&good.module, &good.fsam),
        expected_diags: diag_listing(&good.report),
    };
    assert!(input.matches(&analyze::run(&fir)), "a clean rerun matches");

    // Corrupt the answer: solve on the thread-oblivious SVFG, as if the
    // value-flow layer had dropped every thread-aware edge.
    let mut bad = analyze::run(&fir);
    let oblivious = Svfg::build(&bad.module, &bad.fsam.pre, &bad.fsam.tm);
    bad.fsam.result = fsam::solve_par(&bad.module, &bad.fsam.pre, &oblivious, 1);
    assert!(
        !input.matches(&bad),
        "lost thread edges must change the listing"
    );

    // Corrupt the diagnostics: one dropped.
    let mut fewer = analyze::run(&fir);
    assert!(!fewer.report.diagnostics.is_empty());
    fewer.report.diagnostics.pop();
    assert!(!input.matches(&fewer), "a dropped diagnostic is caught");
}

#[test]
fn serve_check_counts_corrupted_answers() {
    let fir = Program::Ferret.generate(Scale::SMOKE).to_string();
    let mut serve = Serve::start(&fir, 7);
    let round = serve.plan();
    let mut answers = serve.run(&round).expect("round answered");
    assert_eq!(
        serve.mismatches(&round, &answers),
        0,
        "served answers are right"
    );

    let mut flipped = 0;
    for a in answers.iter_mut().flatten() {
        match a {
            Answer::Bool(b) if flipped == 0 => {
                *b = !*b;
                flipped += 1;
            }
            Answer::Objects(objs) if flipped == 1 && !objs.is_empty() => {
                objs.pop();
                flipped += 1;
            }
            _ => {}
        }
    }
    assert_eq!(flipped, 2, "the round has a bool and a non-empty set");
    assert_eq!(serve.mismatches(&round, &answers), 2);
    answers.pop();
    assert!(
        serve.mismatches(&round, &answers) >= 2 + 512 - 1,
        "a missing batch counts"
    );
    serve.stop();
}

#[test]
fn staged_run_reaches_the_pipeline_fixpoint() {
    for threads in [1, 2] {
        for (name, generated) in smoke_programs() {
            // Both sides analyze the parsed FIR, so their ids agree.
            let fir = generated.to_string();
            let module = fsam_ir::parse::parse_module(&fir).expect("printed FIR parses");
            let mut tracer = Tracer::new();
            let mut counts = Counts::default();
            let staged = analyze::run_staged(&fir, threads, &mut tracer, &mut counts);
            let piped = Pipeline::for_module(&module)
                .with_threads(threads)
                .run(PhaseConfig::full());
            assert!(
                staged.fsam.result.points_to_eq(&piped.result),
                "{name} ({threads} workers): staged fixpoint differs"
            );
            assert_eq!(staged.fsam.vf_stats, piped.vf_stats, "{name}: value-flow");
            assert_eq!(
                diag_listing(&staged.report),
                diag_listing(&analyze::lint(&module, &piped).0),
                "{name}: diagnostics"
            );
            assert_eq!(counts.stmts, module.stmt_count() as u64);
        }
    }
}

#[test]
fn span_self_times_cover_the_root() {
    let mut t = Tracer::new();
    let root = t.enter("op");
    t.time("a", || {
        std::thread::sleep(std::time::Duration::from_millis(5))
    });
    t.enter("b");
    t.time("a", || std::hint::black_box(vec![0u8; 1 << 20]));
    t.exit();
    t.exit();
    let s = t.self_totals(root);
    let sum: f64 = ["op", "a", "b"].iter().map(|n| s.ms(n)).sum();
    let wall = t.duration(root).as_secs_f64() * 1e3;
    assert!((sum - wall).abs() < 1e-6, "self times {sum} vs wall {wall}");
    assert!(s.ms("a") >= 5.0);
    assert!(s.alloc_mib("a") >= 1.0, "the ledger sees the 1 MiB vector");
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("valid JSON")
}

fn declared(section: &str) -> Vec<(String, String)> {
    let Some(Value::Arr(items)) = benchmark_json().get(section).cloned() else {
        panic!("BENCHMARK.json has no {section} array");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|&(n, u)| (n.into(), u.into())).collect()
}

#[test]
fn declared_metrics_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared("per_layer"), pairs(&PER_LAYER));
    let Some(Value::Arr(workloads)) = benchmark_json().get("workloads").cloned() else {
        panic!("BENCHMARK.json has no workloads array");
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(names, workload::WORKLOADS);
}

/// Runs the benchmark binary and returns its last stdout line's metrics
/// as `(name, unit)` in print order.
fn printed_metrics(trace: &str) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "analyze-small",
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args(["--trace", trace])
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "perfbench failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = json::parse(stdout.lines().last().expect("output")).expect("JSON last line");
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(last.get("failed").and_then(Value::as_num), Some(0.0));
    let Some(Value::Obj(metrics)) = last.get("metrics").cloned() else {
        panic!("no metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_num).is_some(),
                "{name} has a value"
            );
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    assert_eq!(printed_metrics("0"), declared("end_to_end"));
    assert_eq!(printed_metrics("1"), declared("per_layer"));
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
