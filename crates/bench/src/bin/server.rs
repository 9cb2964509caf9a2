//! Multi-client load generator for the `fsam-server` daemon, exported as
//! `BENCH_server.json`.
//!
//! ```text
//! cargo run --release -p fsam-bench --bin server [-- --scale 0.32] \
//!     [--programs big4|all|NAME[,NAME…]] [--clients 8] [--batch 512] \
//!     [--millis 1000] [--verify] [--swap] [--out PATH] [--no-assert]
//! ```
//!
//! For each program the harness solves the analysis once, spawns an
//! in-process daemon on an ephemeral loopback port, and hammers it from
//! `--clients` concurrent TCP connections, each shipping `--batch`-sized
//! `query_many` slabs for `--millis` of wall time. `--verify` checks every
//! answer byte-for-byte against an in-process `QueryEngine` over the same
//! snapshot; `--swap` pushes an in-band `Reload` mid-load and requires
//! zero failed or misanswered requests across the swap. One record per
//! program captures aggregate throughput, the daemon's log₂ latency
//! percentiles, and peak RSS.
//!
//! The >1 M queries/s aggregate assertion runs only with ≥ 8
//! clients on ≥ 8 hardware threads (`--no-assert` disables it); smaller
//! machines still produce honest records — EXPERIMENTS.md quotes the
//! single-core numbers from this container.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fsam::Fsam;
use fsam_query::{AnalysisDb, Query, QueryEngine};
use fsam_server::{Client, Server, ServerState};
use fsam_suite::{Program, Scale};

fn main() {
    let scale = Scale(arg_value("--scale").unwrap_or(0.32));
    let clients = arg_value("--clients").unwrap_or(8.0) as usize;
    let batch = arg_value("--batch").unwrap_or(512.0) as usize;
    let millis = arg_value("--millis").unwrap_or(1000.0) as u64;
    let verify = has_flag("--verify");
    let do_swap = has_flag("--swap");
    let no_assert = has_flag("--no-assert");
    let out = arg_str("--out")
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json").into());

    let programs = select_programs(&arg_str("--programs").unwrap_or_else(|| "big4".into()));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut records = Vec::new();
    for p in &programs {
        let r = run_one(*p, scale, clients, batch, millis, verify, do_swap);
        println!(
            "{:<14} {:>6} clients x {:>4}/batch  {:>12.0} q/s  p50 {:>5} us  p95 {:>5} us  p99 {:>6} us  swaps {}  errors {}",
            p.name(),
            clients,
            batch,
            r.qps,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.swaps,
            r.errors,
        );
        assert_eq!(
            r.errors,
            0,
            "{}: the daemon answered errors under load",
            p.name()
        );
        records.push(r);
    }

    // The acceptance throughput bar applies only at full fan-out on real
    // hardware; the record is honest either way.
    let aggregate_qps: f64 = records.iter().map(|r| r.qps).sum::<f64>() / records.len() as f64;
    if !no_assert && clients >= 8 && cores >= 8 {
        assert!(
            aggregate_qps > 1_000_000.0,
            "mean query throughput {aggregate_qps:.0}/s is under the 1M/s bar"
        );
    } else if !no_assert {
        println!(
            "throughput bar skipped: {clients} clients on {cores} hardware threads (needs 8 on 8)"
        );
    }

    let json = format!(
        "[\n{}\n]\n",
        records
            .iter()
            .map(RunRecord::to_json)
            .collect::<Vec<_>>()
            .join(",\n")
    );
    std::fs::write(&out, &json).expect("write BENCH_server.json");
    println!("wrote {out} ({} programs)", records.len());
}

/// The per-program record exported to `BENCH_server.json`. Key order is
/// pinned by `bench_export_keys_have_not_drifted`.
struct RunRecord {
    program: &'static str,
    scale: f64,
    clients: usize,
    batch: usize,
    queries: u64,
    wall_ms: f64,
    qps: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    swaps: u64,
    errors: u64,
    peak_rss_kb: u64,
}

impl RunRecord {
    fn to_json(&self) -> String {
        let mut r = String::new();
        write!(
            r,
            concat!(
                "  {{\"program\": \"{}\", \"scale\": {}, \"clients\": {}, ",
                "\"batch\": {}, \"queries\": {}, \"wall_ms\": {:.3}, ",
                "\"qps\": {:.0}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, ",
                "\"swaps\": {}, \"errors\": {}, ",
                "\"peak_rss_kb\": {}}}"
            ),
            self.program,
            self.scale,
            self.clients,
            self.batch,
            self.queries,
            self.wall_ms,
            self.qps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.swaps,
            self.errors,
            self.peak_rss_kb,
        )
        .expect("write to string");
        r
    }
}

fn run_one(
    p: Program,
    scale: Scale,
    clients: usize,
    batch: usize,
    millis: u64,
    verify: bool,
    do_swap: bool,
) -> RunRecord {
    let module = p.generate(scale);
    let fsam = Fsam::analyze(&module);
    let db = AnalysisDb::capture(&module, &fsam);
    let snapshot_bytes = do_swap.then(|| db.to_bytes());

    // The reference engine answers the same snapshot in-process; the
    // daemon serves an independently decoded copy of the same bytes.
    let reference = QueryEngine::new(AnalysisDb::capture(&module, &fsam));
    let handle =
        Server::spawn(ServerState::new(QueryEngine::new(db)), "127.0.0.1:0").expect("bind");

    // The working set: a slab over live variables (plus MHP pairs for
    // spice), precomputed once so the clients replay a fixed workload —
    // the steady state a resident daemon actually serves.
    let slab = build_slab(&module, batch.max(64) * 8);
    let expected = verify.then(|| reference.query_many(&slab));
    // One pass before the measured window: it checks every answer once
    // (with `--verify`) and opens the daemon's first connection outside it.
    {
        let mut warm = Client::connect(handle.addr()).expect("warm client");
        let answers = warm.query_many(&slab).expect("warm pass");
        if let Some(expected) = &expected {
            assert_eq!(&answers, expected, "{}: warm pass diverged", p.name());
        }
    }

    let stop = AtomicBool::new(false);
    let total_queries = AtomicU64::new(0);
    let verify_failures = AtomicU64::new(0);
    let addr = handle.addr();
    let deadline = Duration::from_millis(millis);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let slab = &slab;
            let expected = expected.as_deref();
            let stop = &stop;
            let total_queries = &total_queries;
            let verify_failures = &verify_failures;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("client connect");
                // Stagger each client's starting offset so the daemon sees
                // interleaved, not lock-step, batches.
                let mut offset = (c * batch) % slab.len();
                while !stop.load(Ordering::Relaxed) {
                    let end = (offset + batch).min(slab.len());
                    let chunk = &slab[offset..end];
                    let answers = client.query_many(chunk).expect("batch answered");
                    if let Some(expected) = expected {
                        if answers != expected[offset..end] {
                            verify_failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    total_queries.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                    offset = if end == slab.len() { 0 } else { end };
                }
            });
        }

        // The swap lands mid-window from its own connection: the same
        // snapshot bytes, so every in-flight and future answer stays
        // verifiable — the bar is zero failed, zero misanswered requests.
        if let Some(bytes) = &snapshot_bytes {
            let mut swapper = Client::connect(addr).expect("swap client");
            std::thread::sleep(deadline / 2);
            swapper.reload(bytes).expect("mid-load reload");
        }

        while t0.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    assert_eq!(
        verify_failures.load(Ordering::Relaxed),
        0,
        "{}: remote answers diverged from the in-process engine",
        p.name()
    );

    // Final counters over the daemon's own stats op (exercising the wire
    // path one more time), cross-checked against the handle.
    let mut probe = Client::connect(addr).expect("stats client");
    let stats = probe.stats().expect("stats answered");
    let get = |k: &str| stats.iter().find(|(n, _)| n == k).map_or(0, |(_, v)| *v);
    export_trace_counters(&handle);

    let queries = total_queries.load(Ordering::Relaxed);
    let record = RunRecord {
        program: p.name(),
        scale: scale.0,
        clients,
        batch,
        queries,
        wall_ms,
        qps: queries as f64 / (wall_ms / 1e3),
        p50_us: get("p50_us"),
        p95_us: get("p95_us"),
        p99_us: get("p99_us"),
        swaps: get("swaps"),
        errors: handle.metrics().errors(),
        peak_rss_kb: peak_rss_kb().unwrap_or(0),
    };
    probe.shutdown().expect("in-band shutdown");
    handle.join();
    record
}

/// A query slab over the snapshot's live variables: points-to and
/// may-alias over pointers with non-empty solutions, plus MHP pairs —
/// the op mix a race checker front-end issues.
fn build_slab(module: &fsam_ir::Module, target: usize) -> Vec<Query> {
    let live: Vec<_> = module.var_ids().collect();
    let stmts: Vec<_> = module.stmts().map(|(s, _)| s).take(256).collect();
    let mut slab = Vec::with_capacity(target);
    let mut i = 0usize;
    while slab.len() < target {
        let p = live[i % live.len()];
        let q = live[(i * 7 + 13) % live.len()];
        match i % 4 {
            0 => slab.push(Query::PointsTo(p)),
            1 | 2 => slab.push(Query::MayAlias(p, q)),
            _ => slab.push(Query::Mhp(
                stmts[i % stmts.len()],
                stmts[(i * 3 + 1) % stmts.len()],
            )),
        }
        i += 1;
    }
    slab
}

/// Round-trips every `server.*` counter through the trace schema, so the
/// export stays valid JSONL on the same stream the solver feeds. The
/// whole-export validator additionally checks the counter vocabulary and
/// rejects duplicate names.
fn export_trace_counters(handle: &fsam_server::ServerHandle) {
    let rec = fsam_trace::Recorder::new(256);
    {
        let span = rec.span("server");
        handle.metrics().export_trace(&span);
    }
    let doc = fsam_trace::schema::export_jsonl(&rec.events());
    fsam_trace::schema::validate_export(&doc).expect("server.* counters are schema-valid");
}

fn select_programs(spec: &str) -> Vec<Program> {
    match spec {
        "big4" => Program::all()
            .into_iter()
            .filter(|p| matches!(p.name(), "httpd_server" | "mt_daapd" | "raytrace" | "x264"))
            .collect(),
        "all" => Program::all().into_iter().collect(),
        names => names
            .split(',')
            .map(|n| {
                Program::all()
                    .into_iter()
                    .find(|p| p.name() == n)
                    .unwrap_or_else(|| panic!("unknown program {n:?}"))
            })
            .collect(),
    }
}

/// The process's peak resident set size in kB (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
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
