//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload analyze-x264 --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --bless
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (traced and untraced ops alternate, so the tracing overhead is
//! measured in the same run). Human-readable lines come first; the last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Any wrong output makes
//! the exit code 1. `--bless` rewrites the expected files from the current
//! code.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::sys::{self, CpuJiffies};
use perfbench::trace::Tracer;
use perfbench::workload::{self, OpResult, END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::{median, tail, MIB};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const USAGE: &str = "usage: perfbench --workload <analyze-x264|analyze-small|serve-x264> \
                     --seed <n> --seconds <n> --trace <0|1>\n       perfbench --bless";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--bless" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Some(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    }))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match workload::bless() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: writing expected files failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Set up several times and keep the last; each set-up ends with one
    // checked warm-up op.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut wl = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut w = workload::setup(&args.workload, args.seed).expect("workload name was checked");
        let warm = w.op(None);
        attempted += 1;
        failed += u64::from(warm.failed);
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(old) = wl.replace(w) {
            old.stop();
        }
    }
    let mut wl = wl.expect("at least one set-up");
    let t0 = Instant::now();
    // The reference cross-check counts as one more checked op.
    attempted += 1;
    failed += u64::from(!wl.cross_check());
    let reference_s = t0.elapsed().as_secs_f64();
    let to_first_op = started.elapsed().as_secs_f64();

    let mut tracer = Tracer::new();
    let mut plain: Vec<OpResult> = Vec::new();
    let mut traced: Vec<OpResult> = Vec::new();
    let jiffies = CpuJiffies::now();
    let window = Instant::now();
    let seconds = Duration::from_secs(args.seconds);
    while window.elapsed() < seconds || plain.is_empty() || (args.trace && traced.is_empty()) {
        let trace_this = args.trace && plain.len() > traced.len();
        let r = wl.op(trace_this.then_some(&mut tracer));
        attempted += 1;
        failed += u64::from(r.failed);
        if trace_this {
            traced.push(r);
        } else {
            plain.push(r);
        }
    }
    let steal_pct = CpuJiffies::now().steal_pct_since(jiffies);
    wl.stop();

    let workers = fsam::thread_count();
    let cores = sys::cores();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let plain_ms: Vec<f64> = plain.iter().map(|r| ms(r.sample.wall)).collect();
    let n = plain.len() as f64;
    println!(
        "workload {} seed {} ({} timed ops)",
        args.workload,
        args.seed,
        plain.len()
    );
    println!("env.workers = {workers}, env.cores = {cores}, env.steal_pct = {steal_pct:.2} %");
    println!(
        "setup: {SETUP_REPS} set-ups {:?} s; reference cross-check {reference_s:.3} s; \
         process start to first timed op {to_first_op:.3} s",
        setups
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    match tail(&plain_ms) {
        Some((p, v)) => println!("tail latency p{p} = {v:.3} ms over {} ops", plain.len()),
        None => println!(
            "tail latency: too few ops ({}) for a percentile",
            plain.len()
        ),
    }
    println!(
        "error_rate = {} ratio ({failed} of {attempted} ops failed)",
        failed as f64 / attempted as f64
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let traced_ms: Vec<f64> = traced.iter().map(|r| ms(r.sample.wall)).collect();
        let path = std::env::current_exe()
            .expect("the running executable's path")
            .with_file_name(format!("perfbench-trace-{}.jsonl", args.workload));
        match std::fs::write(&path, tracer.to_jsonl()) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing spans to {} failed: {e}", path.display()),
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "env.workers" => workers as f64,
                    "env.cores" => cores as f64,
                    "env.steal_pct" => steal_pct,
                    "trace.overhead_ms" => median(&traced_ms) - median(&plain_ms),
                    _ => median(
                        &traced
                            .iter()
                            .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                            .collect::<Vec<_>>(),
                    ),
                };
                (name, v, unit)
            })
            .collect()
    } else {
        let rates: Vec<f64> = plain
            .iter()
            .map(|r| r.items as f64 / r.sample.wall.as_secs_f64())
            .collect();
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "latency_ms" => median(&plain_ms),
                    "throughput" => median(&rates),
                    "cpu_ms" => plain.iter().map(|r| ms(r.sample.cpu)).sum::<f64>() / n,
                    "alloc_mb" => {
                        plain.iter().map(|r| r.sample.alloc as f64).sum::<f64>() / n / MIB
                    }
                    "peak_rss_mb" => sys::peak_rss_mb(),
                    "setup_s" => median(&setups),
                    other => unreachable!("undeclared end-to-end metric {other}"),
                };
                (name, v, unit)
            })
            .collect()
    };

    for (name, v, unit) in &metrics {
        println!("{name} = {v} {unit}");
    }
    let correct = failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
