//! The workloads behind one interface, the op meter, and the metric
//! declarations the binary prints.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::analyze::{self, Counts};
use crate::check::{diag_listing, pts_listing};
use crate::serve::Serve;
use crate::trace::{SelfTotals, Tracer};
use crate::{alloc, sys, MIB};

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["analyze-x264", "analyze-small", "serve-x264"];

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("latency_ms", "ms"),
    ("throughput", "1/s"),
    ("cpu_ms", "ms"),
    ("alloc_mb", "MiB"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A layer
/// the workload's op does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("ir.parse_ms", "ms"),
    ("ir.parse_alloc_mb", "MiB"),
    ("ir.stmts", "count"),
    ("andersen.ms", "ms"),
    ("andersen.alloc_mb", "MiB"),
    ("andersen.pts_entries", "count"),
    ("threads.model_ms", "ms"),
    ("threads.abstract_threads", "count"),
    ("mssa.svfg_ms", "ms"),
    ("mssa.svfg_alloc_mb", "MiB"),
    ("mssa.svfg_edges", "count"),
    ("threads.interleave_ms", "ms"),
    ("threads.mhp_regions", "count"),
    ("threads.hb_ms", "ms"),
    ("threads.hb_regions", "count"),
    ("threads.lock_ms", "ms"),
    ("threads.lock_spans", "count"),
    ("threads.valueflow_ms", "ms"),
    ("threads.valueflow_alloc_mb", "MiB"),
    ("threads.mhp_pairs", "count"),
    ("threads.aliased_pairs", "count"),
    ("threads.thread_edges", "count"),
    ("threads.edge_yield", "ratio"),
    ("core.solve_ms", "ms"),
    ("core.solve_alloc_mb", "MiB"),
    ("core.processed", "count"),
    ("core.delta_items", "count"),
    ("core.recompute_items", "count"),
    ("core.recompute_share", "ratio"),
    ("core.peak_pts_bytes", "bytes"),
    ("lint.ms", "ms"),
    ("lint.alloc_mb", "MiB"),
    ("lint.candidates", "count"),
    ("lint.confirmed", "count"),
    ("lint.fs_yield", "ratio"),
    ("query.capture_ms", "ms"),
    ("query.encode_ms", "ms"),
    ("query.decode_ms", "ms"),
    ("query.snapshot_bytes", "bytes"),
    ("query.engine_ms", "ms"),
    ("query.cache_hit_ratio", "ratio"),
    ("server.roundtrip_ms", "ms"),
    ("server.wire_ms", "ms"),
    ("server.reload_ms", "ms"),
    ("server.errors", "count"),
    ("env.workers", "count"),
    ("env.cores", "count"),
    ("env.steal_pct", "%"),
    ("op.peak_live_mb", "MiB"),
    ("trace.op_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.unaccounted_ms", "ms"),
];

/// What one op cost, measured around its timed part only.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// Wall time.
    pub wall: Duration,
    /// Process CPU time (every thread).
    pub cpu: Duration,
    /// Bytes allocated.
    pub alloc: usize,
    /// Peak live bytes above the live size at the op's start.
    pub peak_live: usize,
}

/// Runs `f` and measures it.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Sample) {
    alloc::reset_peak();
    let live0 = alloc::live();
    let alloc0 = alloc::allocated();
    let cpu0 = sys::process_cpu();
    let t0 = Instant::now();
    let r = f();
    let wall = t0.elapsed();
    let sample = Sample {
        wall,
        cpu: sys::process_cpu().saturating_sub(cpu0),
        alloc: alloc::allocated() - alloc0,
        peak_live: alloc::peak().saturating_sub(live0),
    };
    (r, sample)
}

/// The outcome of one op.
pub struct OpResult {
    /// Its cost.
    pub sample: Sample,
    /// Work items it completed (programs analyzed, queries answered).
    pub items: u64,
    /// Whether any output was wrong or any request failed.
    pub failed: bool,
    /// Per-layer readings, for traced ops.
    pub layers: BTreeMap<&'static str, f64>,
}

/// A workload ready to run ops.
pub trait Workload {
    /// Runs one op, traced into `t` when given, and checks its outputs.
    fn op(&mut self, t: Option<&mut Tracer>) -> OpResult;

    /// Cross-checks the workload's analysis results against the
    /// recomputing reference solver; true when every fixpoint agrees.
    fn cross_check(&self) -> bool;

    /// Stops whatever the workload started.
    fn stop(self: Box<Self>) {}
}

/// Sets up `name` (seeded with `seed`): builds its inputs and starts its
/// services. `None` for an unknown name.
pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "analyze-x264" | "analyze-small" => Some(Box::new(Analyze::new(name))),
        "serve-x264" => Some(Box::new(ServeWorkload::new(seed))),
        _ => None,
    }
}

/// The directory of expected files.
fn expected_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected")
}

/// Writes the expected files of every analyze program from a fresh run of
/// the current code.
pub fn bless() -> std::io::Result<()> {
    for workload in ["analyze-x264", "analyze-small"] {
        for (name, module) in analyze::programs(workload) {
            let out = analyze::run(&module.to_string());
            let dir = expected_dir();
            std::fs::write(
                dir.join(format!("{name}.pts")),
                pts_listing(&out.module, &out.fsam),
            )?;
            std::fs::write(dir.join(format!("{name}.diags")), diag_listing(&out.report))?;
        }
    }
    Ok(())
}

/// The analyze workloads.
struct Analyze {
    workload: String,
    inputs: Vec<analyze::Input>,
    threads: usize,
}

impl Analyze {
    /// Generates the workload's programs, prints them as FIR and loads
    /// their expected results.
    fn new(workload: &str) -> Analyze {
        let dir = expected_dir();
        let read = |file: String| {
            std::fs::read_to_string(dir.join(&file))
                .unwrap_or_else(|e| panic!("read expected file {file}: {e}"))
        };
        let inputs = analyze::programs(workload)
            .into_iter()
            .map(|(name, module)| analyze::Input {
                name,
                fir: module.to_string(),
                expected_pts: read(format!("{name}.pts")),
                expected_diags: read(format!("{name}.diags")),
            })
            .collect();
        Analyze {
            workload: workload.to_string(),
            inputs,
            threads: fsam::thread_count(),
        }
    }
}

impl Workload for Analyze {
    fn op(&mut self, t: Option<&mut Tracer>) -> OpResult {
        let mut layers = BTreeMap::new();
        let inputs = &self.inputs;
        let (outs, sample) = match t {
            None => measure(|| {
                inputs
                    .iter()
                    .map(|i| analyze::run(&i.fir))
                    .collect::<Vec<_>>()
            }),
            Some(t) => {
                let mut counts = Counts::default();
                let threads = self.threads;
                let ((root, outs), sample) = measure(|| {
                    let root = t.enter("op");
                    let outs: Vec<_> = inputs
                        .iter()
                        .map(|i| {
                            t.enter("program");
                            let out = analyze::run_staged(&i.fir, threads, t, &mut counts);
                            t.exit();
                            out
                        })
                        .collect();
                    t.exit();
                    (root, outs)
                });
                analyze_layers(&mut layers, &t.self_totals(root), &counts, t, root);
                layers.insert("op.peak_live_mb", sample.peak_live as f64 / MIB);
                (outs, sample)
            }
        };
        // Check every program, so each difference is reported.
        let failed = inputs
            .iter()
            .zip(&outs)
            .filter(|(i, o)| !i.matches(o))
            .count()
            > 0;
        OpResult {
            sample,
            items: inputs.len() as u64,
            failed,
            layers,
        }
    }

    fn cross_check(&self) -> bool {
        check_against_oracle(&self.workload)
    }
}

/// Runs [`analyze::cross_check`] and reports any program that differs.
fn check_against_oracle(workload: &str) -> bool {
    let differing = analyze::cross_check(workload);
    for name in &differing {
        eprintln!("{name}: fixpoint differs from solve_recompute");
    }
    differing.is_empty()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn analyze_layers(
    m: &mut BTreeMap<&'static str, f64>,
    s: &SelfTotals,
    c: &Counts,
    t: &Tracer,
    root: usize,
) {
    let timed: [(&'static str, &'static str, Option<&'static str>); 13] = [
        ("ir.parse", "ir.parse_ms", Some("ir.parse_alloc_mb")),
        ("andersen", "andersen.ms", Some("andersen.alloc_mb")),
        ("threads.model", "threads.model_ms", None),
        ("mssa.svfg", "mssa.svfg_ms", Some("mssa.svfg_alloc_mb")),
        ("threads.interleave", "threads.interleave_ms", None),
        ("threads.hb", "threads.hb_ms", None),
        ("threads.lock", "threads.lock_ms", None),
        (
            "threads.valueflow",
            "threads.valueflow_ms",
            Some("threads.valueflow_alloc_mb"),
        ),
        ("core.solve", "core.solve_ms", Some("core.solve_alloc_mb")),
        ("lint", "lint.ms", Some("lint.alloc_mb")),
        ("query.capture", "query.capture_ms", None),
        ("query.encode", "query.encode_ms", None),
        ("query.decode", "query.decode_ms", None),
    ];
    for (span, ms, alloc) in timed {
        m.insert(ms, s.ms(span));
        if let Some(a) = alloc {
            m.insert(a, s.alloc_mib(span));
        }
    }
    let counts: [(&'static str, u64); 17] = [
        ("ir.stmts", c.stmts),
        ("andersen.pts_entries", c.pts_entries),
        ("threads.abstract_threads", c.abstract_threads),
        ("mssa.svfg_edges", c.svfg_edges),
        ("threads.mhp_regions", c.mhp_regions),
        ("threads.hb_regions", c.hb_regions),
        ("threads.lock_spans", c.lock_spans),
        ("threads.mhp_pairs", c.mhp_pairs),
        ("threads.aliased_pairs", c.aliased_pairs),
        ("threads.thread_edges", c.thread_edges),
        ("core.processed", c.processed),
        ("core.delta_items", c.delta_items),
        ("core.recompute_items", c.recompute_items),
        ("core.peak_pts_bytes", c.peak_pts_bytes),
        ("lint.candidates", c.lint_candidates),
        ("lint.confirmed", c.lint_confirmed),
        ("query.snapshot_bytes", c.snapshot_bytes),
    ];
    for (name, v) in counts {
        m.insert(name, v as f64);
    }
    m.insert("threads.edge_yield", ratio(c.thread_edges, c.aliased_pairs));
    m.insert(
        "core.recompute_share",
        ratio(c.recompute_items, c.processed),
    );
    m.insert("lint.fs_yield", ratio(c.lint_confirmed, c.lint_fs_stage));
    m.insert("trace.op_ms", t.duration(root).as_secs_f64() * 1e3);
    m.insert("trace.unaccounted_ms", s.ms("op") + s.ms("program"));
}

/// The serve workload.
struct ServeWorkload {
    serve: Serve,
}

impl ServeWorkload {
    /// Analyzes x264, starts the server and connects the client.
    fn new(seed: u64) -> ServeWorkload {
        let (_, module) = analyze::programs("analyze-x264")
            .pop()
            .expect("x264 is generated");
        ServeWorkload {
            serve: Serve::start(&module.to_string(), seed),
        }
    }
}

impl Workload for ServeWorkload {
    fn op(&mut self, t: Option<&mut Tracer>) -> OpResult {
        let round = self.serve.plan();
        let mut layers = BTreeMap::new();
        let (answers, sample) = match t {
            None => measure(|| self.serve.run(&round)),
            Some(t) => {
                let ((root, answers), sample) = measure(|| {
                    let root = t.enter("round");
                    let answers = self.serve.run_traced(&round, t);
                    t.exit();
                    (root, answers)
                });
                let s = t.self_totals(root);
                for (span, ms) in [
                    ("query.engine", "query.engine_ms"),
                    ("server.roundtrip", "server.roundtrip_ms"),
                    ("server.reload", "server.reload_ms"),
                    ("query.decode", "query.decode_ms"),
                ] {
                    layers.insert(ms, s.ms(span));
                }
                layers.insert(
                    "server.wire_ms",
                    s.ms("server.roundtrip") - s.ms("query.engine"),
                );
                layers.insert("query.snapshot_bytes", self.serve.snapshot_bytes() as f64);
                layers.insert("query.cache_hit_ratio", self.serve.mirror_hit_ratio());
                layers.insert("server.errors", self.serve.server_errors() as f64);
                layers.insert("op.peak_live_mb", sample.peak_live as f64 / MIB);
                layers.insert("trace.op_ms", t.duration(root).as_secs_f64() * 1e3);
                layers.insert("trace.unaccounted_ms", s.ms("round"));
                (answers, sample)
            }
        };
        let failed = match answers {
            Ok(answers) => self.serve.mismatches(&round, &answers) > 0,
            Err(e) => {
                eprintln!("serve round failed: {e:?}");
                self.serve.reconnect();
                true
            }
        };
        OpResult {
            sample,
            items: round.queries(),
            failed,
            layers,
        }
    }

    fn cross_check(&self) -> bool {
        check_against_oracle("analyze-x264")
    }

    fn stop(self: Box<Self>) {
        self.serve.stop();
    }
}
