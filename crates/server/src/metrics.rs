//! Server-side counters: throughput, rolling-window latency percentiles,
//! per-op request counts, swap count, and the slow-query log.
//!
//! [`Metrics`] is a set of wait-free atomics bumped on the hot serving
//! path — one `fetch_add` per frame plus a handful of histogram bumps per
//! batch — and read by the in-band `Stats` / `MetricsText` ops and the
//! `server.*` trace export.
//!
//! # Rolling windows
//!
//! Latency lives in log₂ histograms of per-batch service time in
//! microseconds (decode → `query_many` → encode). Instead of one
//! process-lifetime histogram there is a **ring of interval snapshots**:
//! writers keep bumping the *active* slot, and a flipper rotates the ring
//! on a coarse one-second clock (lazily, from whichever recording or
//! reading thread first notices the tick has advanced — no background
//! thread). Window queries (`last 1s / 10s / 60s`) sum the slots whose
//! tick falls inside the window; lifetime totals accumulate separately so
//! they survive slot reuse.
//!
//! Writers are wait-free: a recorder loads the active slot index
//! (`Acquire`), bumps that slot's atomics, and never blocks — the flipper
//! takes a `try_lock` and simply skips the rotation if another thread got
//! there first. The full memory-ordering argument lives in DESIGN §1.8;
//! the short form: the flipper clears the *incoming* slot **before**
//! publishing it as active (`Release`), so a writer that observes the new
//! index observes cleared buckets, and a writer still holding the old
//! index keeps bumping the *previous* interval's slot — the sample lands
//! one tick early, still inside every window that covers it, and in the
//! lifetime totals regardless. Samples are never lost or double-counted
//! (each record bumps exactly one slot plus the lifetime totals; a slot
//! is not reused for `SLOTS` (64) ticks ≈ one minute).
//!
//! # Percentiles
//!
//! Every percentile — windowed or lifetime — is derived by one shared
//! routine, [`percentile_from_buckets`], so the reference semantics are
//! unit-tested once: nearest-rank over bucket counts, each bucket
//! reporting its upper bound, clamped to the observed maximum (so the
//! saturating top bucket reports the real worst case, not 2³⁹ µs).
//!
//! # Slow-query log
//!
//! A bounded lock-striped ring of the worst batches ([`SlowLog`]): each
//! stripe keeps its worst `SLOW_PER_STRIPE` (8) entries behind a mutex
//! guarded by a lock-free threshold check, so fast batches skip the lock
//! entirely once the stripe is full. `Stats` serves the merged worst-N.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of log₂ latency buckets: bucket `i` holds batches that took
/// `[2^(i-1), 2^i)` µs (bucket 0: under 1 µs). 2^39 µs ≈ 6.4 days caps
/// the range.
pub const BUCKETS: usize = 40;

/// Ring slots. At one [`TICK_US`] tick per slot the ring covers 64 s —
/// enough for the 60 s window plus the active slot and slack.
const SLOTS: usize = 64;

/// Interval covered by one ring slot, in microseconds (the flipper's
/// coarse clock).
const TICK_US: u64 = 1_000_000;

/// The rolling windows exposed by [`Metrics::window`], in seconds.
pub const WINDOWS_S: [u64; 3] = [1, 10, 60];

/// Wire/request operations the server counts individually. Kept in sync
/// with `fsam_trace::schema`'s `server.*` vocabulary (a unit test below
/// cross-checks every exported key).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `Request::Ping`.
    Ping,
    /// `Request::Batch` / `Request::TracedBatch`.
    Batch,
    /// `Request::Stats`.
    Stats,
    /// `Request::Reload`.
    Reload,
    /// `Request::Shutdown`.
    Shutdown,
    /// `Request::Diags`.
    Diags,
    /// `Request::Resolve`.
    Resolve,
    /// `Request::PtNames`.
    PtNames,
    /// `Request::DumpTrace`.
    DumpTrace,
    /// `Request::MetricsText`.
    MetricsText,
}

/// How many [`Op`] variants there are.
pub const OPS: usize = 10;

/// Stable exposition names, indexed by `Op as usize`.
pub const OP_NAMES: [&str; OPS] = [
    "ping",
    "batch",
    "stats",
    "reload",
    "shutdown",
    "diags",
    "resolve",
    "pt_names",
    "dump_trace",
    "metrics_text",
];

/// The `p`-th percentile (`0 < p ≤ 100`) of a log₂ histogram, as the
/// upper bound of the bucket holding the nearest-rank sample, clamped to
/// the observed maximum `max_us`. Zero when the histogram is empty.
///
/// This is **the** percentile routine: windowed and lifetime percentiles,
/// the `Stats` op, the Prometheus exposition and `BENCH_server.json` all
/// derive from it, so its reference semantics are tested once
/// (`percentile_matches_exact_reference` below): for a non-empty
/// histogram the answer is an upper bound on the exact nearest-rank
/// percentile of the recorded samples, at most 2× above it (log₂ bucket
/// width), and never above the observed maximum.
pub fn percentile_from_buckets(counts: &[u64; BUCKETS], max_us: u64, p: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = (((p / 100.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            // Bucket upper bound, except the saturating top bucket whose
            // nominal 2³⁹ µs bound is a lie in both directions — it
            // reports the observed maximum instead.
            if i == BUCKETS - 1 {
                return max_us.max(1);
            }
            let bound = if i == 0 { 1 } else { 1u64 << i };
            return bound.min(max_us.max(1));
        }
    }
    max_us
}

/// The log₂ bucket index for a latency of `us` microseconds.
fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// One latency histogram: log₂ bucket counts plus the observed maximum
/// (so the saturating bucket can report a real number).
struct Hist {
    buckets: [AtomicU64; BUCKETS],
    max_us: AtomicU64,
}

impl Hist {
    fn new() -> Hist {
        Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            max_us: AtomicU64::new(0),
        }
    }

    fn record(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        // Sub-microsecond batches report a 1 µs ceiling, matching the
        // bucket-0 upper bound.
        self.max_us.fetch_max(us.max(1), Ordering::Relaxed);
    }

    fn counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.max_us.store(0, Ordering::Relaxed);
    }
}

/// One ring slot: the interval's histogram plus its per-op counts.
struct Slot {
    /// Tick number this slot covers; `u64::MAX` marks a never-used slot.
    tick: AtomicU64,
    hist: Hist,
    ops: [AtomicU64; OPS],
    batches: AtomicU64,
    queries: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            tick: AtomicU64::new(u64::MAX),
            hist: Hist::new(),
            ops: std::array::from_fn(|_| AtomicU64::new(0)),
            batches: AtomicU64::new(0),
            queries: AtomicU64::new(0),
        }
    }

    fn clear(&self) {
        self.hist.clear();
        for o in &self.ops {
            o.store(0, Ordering::Relaxed);
        }
        self.batches.store(0, Ordering::Relaxed);
        self.queries.store(0, Ordering::Relaxed);
    }
}

/// Aggregated view of one window (or the lifetime): totals and the
/// derived percentiles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Batches recorded in the window.
    pub batches: u64,
    /// Queries answered in the window.
    pub queries: u64,
    /// Request frames per op in the window (indexed like [`OP_NAMES`]).
    pub ops: [u64; OPS],
    /// Batch-latency p50, µs (0 when empty).
    pub p50_us: u64,
    /// Batch-latency p95, µs.
    pub p95_us: u64,
    /// Batch-latency p99, µs.
    pub p99_us: u64,
    /// Worst batch latency observed in the window, µs.
    pub max_us: u64,
}

/// One slow-query log entry: the worst batches by service time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlowEntry {
    /// Batch service time, µs.
    pub us: u64,
    /// Queries in the batch.
    pub queries: u64,
    /// The server-assigned request id (correlates with `req.*` trace
    /// events when sampling was on).
    pub req_id: u64,
    /// Op mix of the batch: `[points_to, may_alias, aliases_of, mhp]`
    /// counts, the order of `fsam_query::op_mix`.
    pub mix: [u64; 4],
}

/// Stripes in the slow-query log. Entries hash to a stripe by request id,
/// so concurrent batches rarely contend on one mutex.
const SLOW_STRIPES: usize = 8;

/// Worst entries kept per stripe. The merged log serves the overall
/// worst-[`SLOW_WORST`]; per-stripe capacity matches it so a pathological
/// hash skew cannot evict a global-worst entry.
const SLOW_PER_STRIPE: usize = 8;

/// Entries served by [`SlowLog::worst`] / the `Stats` op.
pub const SLOW_WORST: usize = 8;

struct SlowStripe {
    /// Admission threshold: the stripe's smallest kept latency once full,
    /// read lock-free so fast batches skip the mutex.
    floor_us: AtomicU64,
    entries: Mutex<Vec<SlowEntry>>,
}

/// A bounded, lock-striped log of the worst batches (see module docs).
pub struct SlowLog {
    stripes: [SlowStripe; SLOW_STRIPES],
}

impl SlowLog {
    fn new() -> SlowLog {
        SlowLog {
            stripes: std::array::from_fn(|_| SlowStripe {
                floor_us: AtomicU64::new(0),
                entries: Mutex::new(Vec::with_capacity(SLOW_PER_STRIPE)),
            }),
        }
    }

    /// Offers a batch to the log. Cheap on the hot path: one relaxed load
    /// rejects anything under the stripe's floor without touching the
    /// mutex.
    pub fn offer(&self, entry: SlowEntry) {
        let stripe = &self.stripes[(entry.req_id as usize) % SLOW_STRIPES];
        if entry.us < stripe.floor_us.load(Ordering::Relaxed) {
            return;
        }
        let mut entries = stripe.entries.lock().unwrap();
        if entries.len() == SLOW_PER_STRIPE {
            // Full: replace the smallest if this one is worse.
            let (min_i, min_us) = entries
                .iter()
                .enumerate()
                .map(|(i, e)| (i, e.us))
                .min_by_key(|&(_, us)| us)
                .expect("stripe is full, not empty");
            if entry.us <= min_us {
                return;
            }
            entries[min_i] = entry;
        } else {
            entries.push(entry);
        }
        if entries.len() == SLOW_PER_STRIPE {
            let floor = entries.iter().map(|e| e.us).min().unwrap_or(0);
            stripe.floor_us.store(floor, Ordering::Relaxed);
        }
    }

    /// The merged worst-`n` entries across stripes, slowest first, ties
    /// broken by request id for a deterministic order.
    pub fn worst(&self, n: usize) -> Vec<SlowEntry> {
        let mut all: Vec<SlowEntry> = Vec::with_capacity(SLOW_STRIPES * SLOW_PER_STRIPE);
        for stripe in &self.stripes {
            all.extend(stripe.entries.lock().unwrap().iter().copied());
        }
        all.sort_by(|a, b| b.us.cmp(&a.us).then(a.req_id.cmp(&b.req_id)));
        all.truncate(n);
        all
    }
}

/// Wait-free serving counters with rolling windows (see module docs).
pub struct Metrics {
    started: Instant,
    connections: AtomicU64,
    frames: AtomicU64,
    errors: AtomicU64,
    swaps: AtomicU64,
    /// Lifetime totals: never cleared, survive slot reuse.
    life: Slot,
    /// The interval ring (see module docs for the rotation protocol).
    slots: Vec<Slot>,
    /// Index of the slot currently receiving samples.
    active: AtomicUsize,
    /// The tick the active slot covers.
    cur_tick: AtomicU64,
    /// Rotation guard: `try_lock`, so writers never block on the flip.
    flip: Mutex<()>,
    slow: SlowLog,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh counters; uptime starts now.
    pub fn new() -> Metrics {
        let m = Metrics {
            started: Instant::now(),
            connections: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            life: Slot::new(),
            slots: (0..SLOTS).map(|_| Slot::new()).collect(),
            active: AtomicUsize::new(0),
            cur_tick: AtomicU64::new(0),
            flip: Mutex::new(()),
            slow: SlowLog::new(),
        };
        m.slots[0].tick.store(0, Ordering::Relaxed);
        m
    }

    /// Microseconds since the metrics were created.
    pub fn uptime_us(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// The flipper (see module docs): if the coarse clock has advanced
    /// past the active slot's tick, claim the rotation lock and publish a
    /// cleared slot for the new tick. Callers that lose the `try_lock`
    /// race simply keep writing — the winner's rotation covers them.
    fn maybe_rotate(&self, now_us: u64) {
        let tick = now_us / TICK_US;
        if tick <= self.cur_tick.load(Ordering::Acquire) {
            return;
        }
        if let Ok(_guard) = self.flip.try_lock() {
            let cur = self.cur_tick.load(Ordering::Acquire);
            if tick > cur {
                let idx = (tick % SLOTS as u64) as usize;
                // Clear BEFORE publishing: anyone who observes the new
                // active index observes empty buckets.
                self.slots[idx].clear();
                self.slots[idx].tick.store(tick, Ordering::Release);
                self.active.store(idx, Ordering::Release);
                self.cur_tick.store(tick, Ordering::Release);
            }
        }
    }

    /// A connection was accepted.
    pub fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// A request frame was served (any op, including errored ones).
    pub fn record_frame(&self) {
        self.frames.fetch_add(1, Ordering::Relaxed);
    }

    /// A decoded request of kind `op` was handled.
    pub fn record_op(&self, op: Op) {
        self.record_op_at(op, self.uptime_us());
    }

    fn record_op_at(&self, op: Op, now_us: u64) {
        self.maybe_rotate(now_us);
        self.life.ops[op as usize].fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[self.active.load(Ordering::Acquire)];
        slot.ops[op as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// A batch of `queries` was answered in `took`.
    pub fn record_batch(&self, queries: usize, took: Duration) {
        let us = u64::try_from(took.as_micros()).unwrap_or(u64::MAX);
        self.record_batch_at(queries, us, self.uptime_us());
    }

    /// Clock-explicit form of [`record_batch`](Metrics::record_batch),
    /// used directly by the rotation tests (`now_us` drives the coarse
    /// tick, `us` is the batch latency).
    pub fn record_batch_at(&self, queries: usize, us: u64, now_us: u64) {
        self.maybe_rotate(now_us);
        self.life.hist.record(us);
        self.life.batches.fetch_add(1, Ordering::Relaxed);
        self.life
            .queries
            .fetch_add(queries as u64, Ordering::Relaxed);
        let slot = &self.slots[self.active.load(Ordering::Acquire)];
        slot.hist.record(us);
        slot.batches.fetch_add(1, Ordering::Relaxed);
        slot.queries.fetch_add(queries as u64, Ordering::Relaxed);
    }

    /// A request was answered with an in-band error.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot swap completed.
    pub fn record_swap(&self) {
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// The slow-query log.
    pub fn slow(&self) -> &SlowLog {
        &self.slow
    }

    /// Total queries answered so far.
    pub fn queries(&self) -> u64 {
        self.life.queries.load(Ordering::Relaxed)
    }

    /// Total snapshot swaps so far.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Total in-band errors so far.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Lifetime stats (same shape as a window, never cleared).
    pub fn lifetime(&self) -> WindowStats {
        let counts = self.life.hist.counts();
        let max_us = self.life.hist.max_us.load(Ordering::Relaxed);
        WindowStats {
            batches: self.life.batches.load(Ordering::Relaxed),
            queries: self.life.queries.load(Ordering::Relaxed),
            ops: std::array::from_fn(|i| self.life.ops[i].load(Ordering::Relaxed)),
            p50_us: percentile_from_buckets(&counts, max_us, 50.0),
            p95_us: percentile_from_buckets(&counts, max_us, 95.0),
            p99_us: percentile_from_buckets(&counts, max_us, 99.0),
            max_us,
        }
    }

    /// Aggregate over the last `seconds` (1, 10 or 60 in the exposed
    /// vocabulary, but any span up to the ring's 64 s works).
    pub fn window(&self, seconds: u64) -> WindowStats {
        self.window_at(seconds, self.uptime_us())
    }

    /// Clock-explicit form of [`window`](Metrics::window) for tests.
    pub fn window_at(&self, seconds: u64, now_us: u64) -> WindowStats {
        self.maybe_rotate(now_us);
        let cur = self.cur_tick.load(Ordering::Acquire);
        let oldest = cur.saturating_sub(seconds.saturating_sub(1));
        let mut counts = [0u64; BUCKETS];
        let mut stats = WindowStats::default();
        let mut max_us = 0u64;
        for slot in &self.slots {
            let tick = slot.tick.load(Ordering::Acquire);
            if tick == u64::MAX || tick < oldest || tick > cur {
                continue;
            }
            for (acc, b) in counts.iter_mut().zip(&slot.hist.buckets) {
                *acc += b.load(Ordering::Relaxed);
            }
            max_us = max_us.max(slot.hist.max_us.load(Ordering::Relaxed));
            stats.batches += slot.batches.load(Ordering::Relaxed);
            stats.queries += slot.queries.load(Ordering::Relaxed);
            for (acc, o) in stats.ops.iter_mut().zip(&slot.ops) {
                *acc += o.load(Ordering::Relaxed);
            }
        }
        stats.p50_us = percentile_from_buckets(&counts, max_us, 50.0);
        stats.p95_us = percentile_from_buckets(&counts, max_us, 95.0);
        stats.p99_us = percentile_from_buckets(&counts, max_us, 99.0);
        stats.max_us = max_us;
        stats
    }

    /// The counter vocabulary as `(name, value)` pairs — the `Stats` op's
    /// payload and the trace export's source. Names are bare (no
    /// `server.` prefix); [`export_trace`](Metrics::export_trace)
    /// prefixes them. Every name here must be accepted by
    /// `fsam_trace::schema::known_server_counter` (cross-checked in a
    /// test below).
    pub fn pairs(&self) -> Vec<(String, u64)> {
        let life = self.lifetime();
        let mut pairs = vec![
            ("uptime_us".into(), self.uptime_us()),
            (
                "connections".into(),
                self.connections.load(Ordering::Relaxed),
            ),
            ("frames".into(), self.frames.load(Ordering::Relaxed)),
            ("batches".into(), life.batches),
            ("queries".into(), life.queries),
            ("errors".into(), self.errors()),
            ("swaps".into(), self.swaps()),
            ("p50_us".into(), life.p50_us),
            ("p95_us".into(), life.p95_us),
            ("p99_us".into(), life.p99_us),
            ("max_us".into(), life.max_us),
        ];
        for (i, name) in OP_NAMES.iter().enumerate() {
            pairs.push((format!("op_{name}"), life.ops[i]));
        }
        for &secs in &WINDOWS_S {
            let w = self.window(secs);
            let p = |suffix: &str| format!("w{secs}s_{suffix}");
            pairs.push((p("batches"), w.batches));
            pairs.push((p("queries"), w.queries));
            pairs.push((p("p50_us"), w.p50_us));
            pairs.push((p("p95_us"), w.p95_us));
            pairs.push((p("p99_us"), w.p99_us));
            pairs.push((p("max_us"), w.max_us));
            for (i, name) in OP_NAMES.iter().enumerate() {
                pairs.push((p(&format!("op_{name}")), w.ops[i]));
            }
        }
        pairs
    }

    /// Exports every counter as `server.<name>` into a trace span, on the
    /// same stream the pipeline, solver and query engine feed.
    pub fn export_trace(&self, span: &fsam_trace::Span<'_>) {
        for (name, value) in self.pairs() {
            span.counter(format!("server.{name}"), value);
        }
    }

    /// Renders the Prometheus-style text exposition served by the
    /// `MetricsText` op: every metric family is declared with a `# TYPE`
    /// line, counters carry the `_total` suffix, and windowed percentiles
    /// are labelled gauges. `extra` appends caller-owned gauges (snapshot
    /// table sizes, diagnostic counts) under stable names.
    pub fn render_prometheus(&self, extra: &[(&str, u64)]) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let life = self.lifetime();

        let _ = writeln!(out, "# TYPE fsam_server_uptime_seconds gauge");
        let _ = writeln!(
            out,
            "fsam_server_uptime_seconds {:.3}",
            self.uptime_us() as f64 / 1e6
        );
        for (family, value) in [
            (
                "fsam_server_connections_total",
                self.connections.load(Ordering::Relaxed),
            ),
            (
                "fsam_server_frames_total",
                self.frames.load(Ordering::Relaxed),
            ),
            ("fsam_server_batches_total", life.batches),
            ("fsam_server_queries_total", life.queries),
            ("fsam_server_errors_total", self.errors()),
            ("fsam_server_swaps_total", self.swaps()),
        ] {
            let _ = writeln!(out, "# TYPE {family} counter");
            let _ = writeln!(out, "{family} {value}");
        }

        let _ = writeln!(out, "# TYPE fsam_server_requests_total counter");
        for (i, name) in OP_NAMES.iter().enumerate() {
            let _ = writeln!(
                out,
                "fsam_server_requests_total{{op=\"{name}\"}} {}",
                life.ops[i]
            );
        }

        let windows: Vec<(String, WindowStats)> = WINDOWS_S
            .iter()
            .map(|&s| (format!("{s}s"), self.window(s)))
            .chain(std::iter::once(("life".to_string(), life)))
            .collect();
        let _ = writeln!(out, "# TYPE fsam_server_batch_latency_us gauge");
        for (label, w) in &windows {
            for (q, v) in [("0.5", w.p50_us), ("0.95", w.p95_us), ("0.99", w.p99_us)] {
                let _ = writeln!(
                    out,
                    "fsam_server_batch_latency_us{{window=\"{label}\",quantile=\"{q}\"}} {v}"
                );
            }
        }
        let _ = writeln!(out, "# TYPE fsam_server_batch_latency_max_us gauge");
        for (label, w) in &windows {
            let _ = writeln!(
                out,
                "fsam_server_batch_latency_max_us{{window=\"{label}\"}} {}",
                w.max_us
            );
        }
        let _ = writeln!(out, "# TYPE fsam_server_window_batches gauge");
        for (label, w) in &windows {
            let _ = writeln!(
                out,
                "fsam_server_window_batches{{window=\"{label}\"}} {}",
                w.batches
            );
        }
        let _ = writeln!(out, "# TYPE fsam_server_window_queries gauge");
        for (label, w) in &windows {
            let _ = writeln!(
                out,
                "fsam_server_window_queries{{window=\"{label}\"}} {}",
                w.queries
            );
        }

        let slow = self.slow.worst(SLOW_WORST);
        let _ = writeln!(out, "# TYPE fsam_server_slow_batch_us gauge");
        for (rank, e) in slow.iter().enumerate() {
            let _ = writeln!(
                out,
                "fsam_server_slow_batch_us{{rank=\"{rank}\",req=\"{:016x}\",queries=\"{}\"}} {}",
                e.req_id, e.queries, e.us
            );
        }

        for (name, value) in extra {
            let _ = writeln!(out, "# TYPE fsam_server_{name} gauge");
            let _ = writeln!(out, "fsam_server_{name} {value}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `pairs.iter().find(...)` helper that names the missing key instead
    /// of panicking on a bare `Option::unwrap`.
    fn get(pairs: &[(String, u64)], key: &str) -> u64 {
        pairs
            .iter()
            .find(|(n, _)| n == key)
            .unwrap_or_else(|| panic!("missing metrics key {key:?} in {:?}", keys(pairs)))
            .1
    }

    fn keys(pairs: &[(String, u64)]) -> Vec<&str> {
        pairs.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Exact nearest-rank percentile over raw samples — the reference the
    /// histogram-derived routine is tested against.
    fn exact_percentile(samples: &mut [u64], p: f64) -> u64 {
        assert!(!samples.is_empty());
        samples.sort_unstable();
        let rank = (((p / 100.0) * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        samples[rank - 1]
    }

    fn hist_of(samples: &[u64]) -> ([u64; BUCKETS], u64) {
        let mut counts = [0u64; BUCKETS];
        let mut max = 0;
        for &s in samples {
            counts[bucket_of(s)] += 1;
            max = max.max(s.max(1));
        }
        (counts, max)
    }

    #[test]
    fn batch_and_query_totals_accumulate() {
        let m = Metrics::new();
        m.record_batch(10, Duration::from_micros(3));
        m.record_batch(5, Duration::from_micros(900));
        assert_eq!(m.queries(), 15);
        let pairs = m.pairs();
        assert_eq!(get(&pairs, "batches"), 2);
        assert_eq!(get(&pairs, "queries"), 15);
        assert_eq!(get(&pairs, "swaps"), 0);
    }

    #[test]
    #[should_panic(expected = "missing metrics key \"no_such_key\"")]
    fn missing_stat_key_panics_with_its_name() {
        let m = Metrics::new();
        get(&m.pairs(), "no_such_key");
    }

    /// The shared routine vs an exact nearest-rank reference: the
    /// histogram answer brackets the exact answer within one log₂ bucket
    /// and never exceeds the observed maximum.
    #[test]
    fn percentile_matches_exact_reference() {
        let mut rng = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for trial in 0..50 {
            let n = 1 + (next() % 500) as usize;
            let mut samples: Vec<u64> = (0..n).map(|_| next() % 100_000).collect();
            let (counts, max) = hist_of(&samples);
            for p in [50.0, 90.0, 95.0, 99.0, 100.0] {
                let exact = exact_percentile(&mut samples, p);
                let derived = percentile_from_buckets(&counts, max, p);
                assert!(
                    derived >= exact.min(max),
                    "trial {trial} p{p}: derived {derived} under exact {exact}"
                );
                assert!(
                    derived <= (exact.max(1) * 2).min(max.max(1)),
                    "trial {trial} p{p}: derived {derived} over 2x exact {exact} (max {max})"
                );
            }
        }
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty histogram.
        assert_eq!(percentile_from_buckets(&[0; BUCKETS], 0, 50.0), 0);
        // One sample: every percentile reports its (clamped) bucket bound.
        let (counts, max) = hist_of(&[700]);
        for p in [1.0, 50.0, 100.0] {
            let v = percentile_from_buckets(&counts, max, p);
            assert!((700..=1024).contains(&v), "p{p} = {v}");
        }
        // One zero-latency sample: 1 µs ceiling, not 0.
        let (counts, max) = hist_of(&[0]);
        assert_eq!(percentile_from_buckets(&counts, max, 50.0), 1);
        // All samples in the saturating top bucket: the observed maximum
        // is reported, not the 2^39 µs bucket bound.
        let big = 1u64 << 45;
        let (counts, max) = hist_of(&[big, big + 7]);
        assert_eq!(counts[BUCKETS - 1], 2);
        assert_eq!(percentile_from_buckets(&counts, max, 99.0), big + 7);
    }

    #[test]
    fn top_bucket_reports_observed_max_in_lifetime_stats() {
        let m = Metrics::new();
        let big_us = (1u64 << 44) + 12_345;
        m.record_batch_at(1, big_us, 0);
        let life = m.lifetime();
        assert_eq!(life.p99_us, big_us, "saturating bucket must report max");
        assert_eq!(life.max_us, big_us);
    }

    #[test]
    fn percentiles_are_log2_upper_bounds() {
        let m = Metrics::new();
        for _ in 0..99 {
            m.record_batch(1, Duration::from_micros(2));
        }
        m.record_batch(1, Duration::from_micros(1000));
        let life = m.lifetime();
        assert!(
            life.p50_us <= 4,
            "p50 {} should sit in the fast bucket",
            life.p50_us
        );
        assert!(
            life.p99_us <= 4,
            "p99 {}: 99 of 100 batches are fast",
            life.p99_us
        );
        assert_eq!(life.max_us, 1000);
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let m = Metrics::new();
        let life = m.lifetime();
        assert_eq!(life.p50_us, 0);
        assert_eq!(life.p99_us, 0);
        assert_eq!(m.window(10).p99_us, 0);
    }

    /// Samples land in the tick the clock says; windows include exactly
    /// the covered ticks.
    #[test]
    fn windows_cover_their_ticks() {
        let m = Metrics::new();
        let s = |secs: u64| secs * TICK_US;
        m.record_batch_at(1, 10, s(0)); // tick 0
        m.record_batch_at(1, 10, s(5)); // tick 5
        m.record_batch_at(1, 10, s(5) + 17); // tick 5
        m.record_batch_at(1, 10_000, s(11)); // tick 11

        // At t=11s: the 1 s window sees only tick 11.
        let w1 = m.window_at(1, s(11));
        assert_eq!(w1.batches, 1);
        assert_eq!(w1.max_us, 10_000);
        // The 10 s window covers ticks 2..=11: the two tick-5 samples +
        // tick 11.
        let w10 = m.window_at(10, s(11));
        assert_eq!(w10.batches, 3);
        // The 60 s window covers everything so far.
        let w60 = m.window_at(60, s(11));
        assert_eq!(w60.batches, 4);
        assert_eq!(w60.queries, 4);
        // Lifetime always has everything.
        assert_eq!(m.lifetime().batches, 4);

        // Much later, the windows drain but lifetime does not.
        assert_eq!(m.window_at(60, s(200)).batches, 0);
        assert_eq!(m.lifetime().batches, 4);
    }

    #[test]
    fn per_op_counts_roll_through_windows() {
        let m = Metrics::new();
        m.record_op_at(Op::Ping, 0);
        m.record_op_at(Op::Batch, 0);
        m.record_op_at(Op::Batch, 2 * TICK_US);
        let w = m.window_at(1, 2 * TICK_US);
        assert_eq!(w.ops[Op::Batch as usize], 1);
        assert_eq!(w.ops[Op::Ping as usize], 0);
        let life = m.lifetime();
        assert_eq!(life.ops[Op::Batch as usize], 2);
        assert_eq!(life.ops[Op::Ping as usize], 1);
        let pairs = m.pairs();
        assert_eq!(get(&pairs, "op_batch"), 2);
        assert_eq!(get(&pairs, "w1s_op_batch"), 1);
    }

    /// 8 writers hammer `record_batch_at` while a rotator advances the
    /// coarse clock: rotation must never lose or double-count a sample —
    /// the lifetime totals equal the written count, and the sum over all
    /// ring slots equals it too (no slot was reused inside the horizon).
    #[test]
    fn concurrent_bumps_survive_rotation_without_loss() {
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 20_000;
        let m = Metrics::new();
        let now = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let m = &m;
                let now = &now;
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        let t = now.load(Ordering::Relaxed);
                        m.record_batch_at(1, (w as u64) * 7 + i % 513, t);
                    }
                });
            }
            let m = &m;
            let now = &now;
            scope.spawn(move || {
                // Advance the clock through ~40 ticks while writers run
                // (staying under the 64-slot horizon so no slot reuse).
                let mut t = 0u64;
                while t < 40 * TICK_US {
                    t += TICK_US / 4;
                    now.store(t, Ordering::Relaxed);
                    m.maybe_rotate(t);
                    std::thread::yield_now();
                }
            });
        });
        let written = (WRITERS as u64) * PER_WRITER;
        let life = m.lifetime();
        assert_eq!(life.batches, written, "lifetime lost or duplicated samples");
        assert_eq!(life.queries, written);
        let slot_total: u64 = m
            .slots
            .iter()
            .map(|s| s.batches.load(Ordering::Relaxed))
            .sum();
        assert_eq!(
            slot_total, written,
            "ring slots lost or duplicated samples across rotations"
        );
        let hist_total: u64 = m.life.hist.counts().iter().sum();
        assert_eq!(hist_total, written);
    }

    #[test]
    fn slow_log_keeps_the_worst_batches() {
        let log = SlowLog::new();
        for i in 0..1000u64 {
            log.offer(SlowEntry {
                us: i,
                queries: 1,
                req_id: i.wrapping_mul(0x9E3779B97F4A7C15),
                mix: [1, 0, 0, 0],
            });
        }
        let worst = log.worst(SLOW_WORST);
        assert_eq!(worst.len(), SLOW_WORST);
        // Slowest first, and nothing fast survived the stripes' floors.
        assert!(worst.windows(2).all(|w| w[0].us >= w[1].us));
        assert!(
            worst[0].us >= 990,
            "worst entry {} is not slow",
            worst[0].us
        );
        assert!(worst.iter().all(|e| e.us >= 900));
    }

    #[test]
    fn trace_export_prefixes_and_validates() {
        let m = Metrics::new();
        m.record_op(Op::Batch);
        m.record_batch(3, Duration::from_micros(10));
        m.record_swap();
        let rec = fsam_trace::Recorder::new(256);
        {
            let span = rec.span("server");
            m.export_trace(&span);
        }
        let events = rec.events();
        assert_eq!(rec.dropped(), 0, "export overflowed the test recorder");
        let mut found_queries = false;
        for ev in &events {
            let line = fsam_trace::schema::to_jsonl_line(ev);
            fsam_trace::schema::validate_line(&line).expect("schema-valid");
            if let fsam_trace::Event::Counter { name, value, .. } = ev {
                assert!(
                    fsam_trace::schema::known_server_counter(name),
                    "counter {name} is not in the schema's server.* vocabulary"
                );
                if name.as_ref() == "server.queries" {
                    assert_eq!(*value, 3);
                    found_queries = true;
                }
            }
        }
        assert!(found_queries);
        // The whole export passes the stricter export-level validation
        // (vocabulary + duplicate rejection).
        let doc = fsam_trace::schema::export_jsonl(&events);
        fsam_trace::schema::validate_export(&doc).expect("export-valid");
    }

    #[test]
    fn prometheus_exposition_declares_every_family() {
        let m = Metrics::new();
        m.record_op(Op::Batch);
        m.record_batch(4, Duration::from_micros(50));
        m.slow().offer(SlowEntry {
            us: 50,
            queries: 4,
            req_id: 1,
            mix: [2, 2, 0, 0],
        });
        let text = m.render_prometheus(&[("vars", 12), ("objects", 3)]);
        let mut declared = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let family = it.next().expect("family name");
                let kind = it.next().expect("family kind");
                assert!(matches!(kind, "counter" | "gauge"), "bad kind {kind}");
                declared.insert(family.to_string());
            } else if !line.is_empty() {
                let family = line.split(['{', ' ']).next().expect("metric name");
                assert!(
                    declared.contains(family),
                    "sample {line:?} has no # TYPE declaration"
                );
            }
        }
        assert!(text.contains("fsam_server_queries_total 4"));
        assert!(text.contains("fsam_server_requests_total{op=\"batch\"} 1"));
        assert!(text.contains("fsam_server_slow_batch_us{rank=\"0\""));
        assert!(text.contains("fsam_server_vars 12"));
    }
}
