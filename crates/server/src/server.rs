//! The daemon: accept loop, per-connection workers, hot snapshot swap.
//!
//! [`Server::spawn`] binds a std TCP listener and serves each connection
//! on its own thread. All connections share one [`Arc<ServerState>`]
//! behind an `RwLock<Arc<_>>`:
//!
//! * a **batch** clones the current `Arc` once (a read lock held for the
//!   duration of one pointer clone) and answers the whole slab against
//!   that snapshot — every batch is internally consistent even if a swap
//!   lands mid-slab;
//! * a **reload** validates the pushed snapshot bytes *outside* the lock
//!   (a corrupt snapshot is rejected in-band and the old engine keeps
//!   serving), then replaces the `Arc` under the write lock. In-flight
//!   batches still hold the old `Arc`, so the old engine is freed only
//!   when its last reader finishes — readers are never dropped, stalled
//!   or pointed at freed tables.
//!
//! The memory-ordering argument is the lock's: `RwLock` release/acquire
//! edges make everything the reloader wrote into the new [`ServerState`]
//! visible to every reader that observes the new `Arc`, and the `Arc`
//! refcount keeps the old state alive for readers that raced ahead of the
//! swap. (An `AtomicPtr` swap would save the read lock's ~nanoseconds but
//! needs `unsafe`, which this workspace forbids; the lock is held for a
//! refcount increment, never across query evaluation, so it is not a
//! scalability bottleneck — see `BENCH_server.json`.)
//!
//! Shutdown is in-band: a `Shutdown` frame flips the shared flag and
//! wakes the accept loop with a loopback connection, so tests and CI
//! never need signal handling.
//!
//! # Observability
//!
//! Every decoded request bumps a per-op counter and every batch lands in
//! the rolling-window histograms ([`Metrics`]) and, when slow enough, the
//! slow-query log. Per-request *tracing* is separate and off by default:
//! when [`ServerConfig::sample`] is `N > 0` (set via `FSAM_TRACE_SAMPLE`,
//! `"1/N"` or `"N"`), one batch in `N` records its four phase timings —
//! `req.decode`, `req.queue`, `req.engine`, `req.encode` — as
//! schema-valid point events into an in-process [`Recorder`] ring,
//! dumped in-band by the `DumpTrace` op. Request ids are SplitMix64 over
//! a process-wide sequence, so they are unique, well-mixed across the
//! slow log's stripes, and cheap to assign.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use fsam_ir::rng::SmallRng;
use fsam_query::{AnalysisDb, Query, QueryEngine, SnapshotError};
use fsam_trace::{FieldValue, Recorder};

use crate::metrics::{Metrics, Op, SlowEntry, SLOW_WORST};
use crate::proto::{read_frame, write_frame, ProtoError, Request, Response, WireDiag};

/// Everything one snapshot serves: the query engine and the lint
/// diagnostics computed for that snapshot (empty when the daemon was
/// handed a bare snapshot — diagnostics need the module, so they are
/// computed by whoever ran the analysis and handed to the server).
pub struct ServerState {
    engine: QueryEngine,
    diags: Vec<WireDiag>,
}

impl ServerState {
    /// State serving queries only (no lint diagnostics).
    pub fn new(engine: QueryEngine) -> ServerState {
        ServerState {
            engine,
            diags: Vec::new(),
        }
    }

    /// State serving queries and a precomputed diagnostic report.
    pub fn with_diags(engine: QueryEngine, diags: Vec<WireDiag>) -> ServerState {
        ServerState { engine, diags }
    }

    /// Validates serialized snapshot bytes and builds serving state. The
    /// pushed snapshot carries no diagnostics.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<ServerState, SnapshotError> {
        Ok(ServerState::new(QueryEngine::new(AnalysisDb::from_bytes(
            bytes,
        )?)))
    }

    /// The engine this state answers from.
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// The diagnostics this state serves.
    pub fn diags(&self) -> &[WireDiag] {
        &self.diags
    }
}

/// Serving-side observability knobs, normally derived from the
/// environment ([`ServerConfig::from_env`]) and overridden explicitly in
/// tests so parallel test processes never race on env vars.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Trace one batch in `sample`; `0` disables request tracing (the
    /// default — the hot path then pays one relaxed load per frame).
    pub sample: u64,
    /// Capacity of the `req.*` event ring when sampling is on.
    pub trace_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            sample: 0,
            trace_capacity: 4096,
        }
    }
}

impl ServerConfig {
    /// Reads `FSAM_TRACE_SAMPLE` — `"1/N"` or plain `"N"` samples one
    /// request in N; unset, `0` or unparsable leaves tracing off.
    pub fn from_env() -> ServerConfig {
        let sample = std::env::var("FSAM_TRACE_SAMPLE")
            .ok()
            .and_then(|v| parse_sample(&v))
            .unwrap_or(0);
        ServerConfig {
            sample,
            ..ServerConfig::default()
        }
    }
}

fn parse_sample(v: &str) -> Option<u64> {
    let v = v.trim();
    let n = v.strip_prefix("1/").unwrap_or(v).trim();
    n.parse::<u64>().ok().filter(|&n| n > 0)
}

struct Shared {
    state: RwLock<Arc<ServerState>>,
    metrics: Metrics,
    trace: Recorder,
    /// Trace one batch in `sample`; `0` = never.
    sample: u64,
    /// Process-wide batch sequence; request ids are SplitMix64 of this.
    req_seq: AtomicU64,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    /// The serving snapshot, cloned out from under the read lock — the
    /// lock is held for one refcount increment only.
    fn current(&self) -> Arc<ServerState> {
        self.state.read().unwrap().clone()
    }

    /// Assigns the next request id and decides whether this request is
    /// sampled. The id is the SplitMix64 mix of a plain sequence number,
    /// so ids are unique per process and uniformly spread; sampling is
    /// exact 1-in-N over the sequence (not the mixed id), so
    /// `FSAM_TRACE_SAMPLE=1/1` traces every batch deterministically.
    fn next_request(&self) -> (u64, bool) {
        let seq = self.req_seq.fetch_add(1, Ordering::Relaxed);
        let id = SmallRng::seed_from_u64(seq).next_u64();
        let sampled = self.sample > 0 && seq.is_multiple_of(self.sample);
        (id, sampled)
    }
}

/// Namespace for [`Server::spawn`].
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `state` in background threads, with tracing configured from the
    /// environment ([`ServerConfig::from_env`]). The returned handle
    /// reports the bound address and joins the accept loop.
    pub fn spawn(state: ServerState, addr: impl ToSocketAddrs) -> std::io::Result<ServerHandle> {
        Server::spawn_with(state, addr, ServerConfig::from_env())
    }

    /// [`Server::spawn`] with explicit observability knobs.
    pub fn spawn_with(
        state: ServerState,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let trace = if config.sample > 0 {
            Recorder::new(config.trace_capacity)
        } else {
            Recorder::disabled()
        };
        let shared = Arc::new(Shared {
            state: RwLock::new(Arc::new(state)),
            metrics: Metrics::new(),
            trace,
            sample: config.sample,
            req_seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            addr,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("fsam-server-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(ServerHandle {
            shared,
            addr,
            accept: Some(accept),
        })
    }
}

/// A handle to a running server: the bound address, metrics access, and
/// the local (non-TCP) face of the snapshot-swap path.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the daemon is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving counters.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The per-request trace ring (inert unless sampling is on).
    pub fn trace(&self) -> &Recorder {
        &self.shared.trace
    }

    /// Swaps in new serving state locally — the same path the in-band
    /// `Reload` op takes, for callers that share the process (an
    /// incremental re-solver pushing a fresh fixpoint).
    pub fn swap(&self, state: ServerState) {
        *self.shared.state.write().unwrap() = Arc::new(state);
        self.shared.metrics.record_swap();
    }

    /// Whether an in-band `Shutdown` has been observed.
    pub fn is_shut_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Requests shutdown from the owning process (the in-process
    /// equivalent of the `Shutdown` op) without waiting.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        wake_accept(self.addr);
    }

    /// Blocks until the accept loop exits (an in-band `Shutdown` frame or
    /// a [`ServerHandle::shutdown`] call).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Wakes a blocked `accept` by making (and immediately dropping) a
/// loopback connection.
fn wake_accept(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        shared.metrics.record_connection();
        let conn_shared = Arc::clone(&shared);
        let _ = std::thread::Builder::new()
            .name("fsam-server-conn".into())
            .spawn(move || handle_conn(stream, conn_shared));
    }
}

/// Serves one connection: a strict request → response loop. Malformed
/// payloads are answered in-band and the connection survives (the frame
/// boundary is intact); oversized or torn frames desync the stream, so
/// those answer once and close.
fn handle_conn(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => return, // client closed cleanly
            Err(e @ ProtoError::Oversized { .. }) => {
                shared.metrics.record_error();
                let resp = Response::Error(e.to_string()).encode();
                let _ = write_frame(&mut stream, &resp);
                return; // cannot resync: the payload was never read
            }
            Err(_) => return, // torn stream
        };
        shared.metrics.record_frame();
        let t_decode = Instant::now();
        let decoded = Request::decode(&payload);
        let decode_us = elapsed_us(t_decode);
        let (resp, shutting_down, sampled) = match decoded {
            Ok(req) => {
                shared.metrics.record_op(op_of(&req));
                handle_request(req, &shared)
            }
            Err(e) => {
                shared.metrics.record_error();
                (Response::Error(format!("bad request: {e}")), false, None)
            }
        };
        let t_encode = Instant::now();
        let write_ok = write_frame(&mut stream, &resp.encode()).is_ok();
        let encode_us = elapsed_us(t_encode);
        if let Some(s) = sampled {
            emit_req_points(&shared.trace, &s, decode_us, encode_us);
        }
        if !write_ok {
            return;
        }
        if shutting_down {
            let _ = stream.flush();
            wake_accept(shared.addr);
            return;
        }
    }
}

/// Microseconds since `t`, saturating.
fn elapsed_us(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The per-op metrics slot a decoded request bumps. Traced batches count
/// as `batch`: the op mix is what operators dashboard on, and the trace
/// context changes the attribution, not the work.
fn op_of(req: &Request) -> Op {
    match req {
        Request::Ping => Op::Ping,
        Request::Batch(_) | Request::TracedBatch { .. } => Op::Batch,
        Request::Stats => Op::Stats,
        Request::Reload { .. } => Op::Reload,
        Request::Shutdown => Op::Shutdown,
        Request::Diags { .. } => Op::Diags,
        Request::Resolve { .. } => Op::Resolve,
        Request::PtNames { .. } => Op::PtNames,
        Request::DumpTrace => Op::DumpTrace,
        Request::MetricsText => Op::MetricsText,
    }
}

/// Phase timings of one sampled batch, carried from the handler back to
/// the connection loop (which alone observes decode and encode time).
struct SampledBatch {
    req_id: u64,
    ctx: u64,
    queries: u64,
    queue_us: u64,
    engine_us: u64,
}

/// Emits the four `req.*` phase events for one sampled batch. Every
/// event carries the request id, the phase duration, the client's trace
/// context and the batch size, so a dumped trace joins against both the
/// client's timeline (`ctx`) and the slow-query log (`req`).
fn emit_req_points(trace: &Recorder, s: &SampledBatch, decode_us: u64, encode_us: u64) {
    let phases = [
        ("req.decode", decode_us),
        ("req.queue", s.queue_us),
        ("req.engine", s.engine_us),
        ("req.encode", encode_us),
    ];
    for (name, us) in phases {
        trace.point(
            None,
            name,
            vec![
                ("req".into(), FieldValue::U64(s.req_id)),
                ("us".into(), FieldValue::U64(us)),
                ("ctx".into(), FieldValue::U64(s.ctx)),
                ("queries".into(), FieldValue::U64(s.queries)),
            ],
        );
    }
}

/// Answers a batch (traced or not): one snapshot per batch — clone the
/// `Arc` once, answer the whole slab against it; a swap landing mid-slab
/// affects only later batches. Every batch gets a request id (the slow
/// log keys on it); sampled ones also return their phase timings.
fn answer_batch(
    shared: &Shared,
    ctx: Option<u64>,
    queries: Vec<Query>,
) -> (Response, bool, Option<SampledBatch>) {
    let (req_id, sampled) = shared.next_request();
    let t_queue = Instant::now();
    let state = shared.current();
    let queue_us = elapsed_us(t_queue);
    let t0 = Instant::now();
    let answers = state.engine.query_many(&queries);
    let took = t0.elapsed();
    let engine_us = u64::try_from(took.as_micros()).unwrap_or(u64::MAX);
    shared.metrics.record_batch(queries.len(), took);
    shared.metrics.slow().offer(SlowEntry {
        us: engine_us,
        queries: queries.len() as u64,
        req_id,
        mix: fsam_query::op_mix(&queries),
    });
    let trace = sampled.then(|| SampledBatch {
        req_id,
        ctx: ctx.unwrap_or(0),
        queries: queries.len() as u64,
        queue_us,
        engine_us,
    });
    (Response::Answers(answers), false, trace)
}

/// Answers one request. Returns the response, whether this frame shuts
/// the server down, and the phase timings when this was a sampled batch.
fn handle_request(req: Request, shared: &Shared) -> (Response, bool, Option<SampledBatch>) {
    match req {
        Request::Ping => (Response::Pong, false, None),
        Request::Batch(queries) => answer_batch(shared, None, queries),
        Request::TracedBatch { ctx, queries } => answer_batch(shared, Some(ctx), queries),
        Request::Stats => {
            let state = shared.current();
            let mut pairs = shared.metrics.pairs();
            pairs.push(("vars".into(), state.engine.db().var_names().len() as u64));
            pairs.push(("objects".into(), state.engine.db().obj_names().len() as u64));
            pairs.push(("diags".into(), state.diags.len() as u64));
            // The slow-query log rides along under `slow.<rank>.*` keys —
            // in `Stats` (operator-facing) but deliberately not in
            // `Metrics::pairs` (whose keys feed the closed trace-counter
            // vocabulary).
            for (i, e) in shared.metrics.slow().worst(SLOW_WORST).iter().enumerate() {
                pairs.push((format!("slow.{i}.us"), e.us));
                pairs.push((format!("slow.{i}.queries"), e.queries));
                pairs.push((format!("slow.{i}.req_id"), e.req_id));
                pairs.push((format!("slow.{i}.points_to"), e.mix[0]));
                pairs.push((format!("slow.{i}.may_alias"), e.mix[1]));
                pairs.push((format!("slow.{i}.aliases_of"), e.mix[2]));
                pairs.push((format!("slow.{i}.mhp"), e.mix[3]));
            }
            (Response::Stats(pairs), false, None)
        }
        Request::Reload { snapshot } => match ServerState::from_snapshot_bytes(&snapshot) {
            Ok(new_state) => {
                let vars = new_state.engine.db().var_names().len() as u32;
                let objects = new_state.engine.db().obj_names().len() as u32;
                *shared.state.write().unwrap() = Arc::new(new_state);
                shared.metrics.record_swap();
                (Response::Reloaded { vars, objects }, false, None)
            }
            Err(e) => {
                shared.metrics.record_error();
                (
                    Response::Error(format!("reload rejected: {e}")),
                    false,
                    None,
                )
            }
        },
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::Release);
            (Response::ShuttingDown, true, None)
        }
        Request::Diags { code } => {
            let state = shared.current();
            let diags = state
                .diags
                .iter()
                .filter(|d| code.is_empty() || d.code == code)
                .cloned()
                .collect();
            (Response::Diags(diags), false, None)
        }
        Request::Resolve { func, var } => {
            let state = shared.current();
            (
                Response::Resolved(state.engine.var_named(&func, &var)),
                false,
                None,
            )
        }
        Request::PtNames { func, var } => {
            let state = shared.current();
            let names = state
                .engine
                .pt_names(&func, &var)
                .map(|ns| ns.into_iter().map(String::from).collect());
            (Response::Names(names), false, None)
        }
        Request::DumpTrace => {
            let events = shared.trace.events();
            (
                Response::TraceDump {
                    jsonl: fsam_trace::schema::export_jsonl(&events),
                    recorded: shared.trace.recorded() as u64,
                    dropped: shared.trace.dropped() as u64,
                },
                false,
                None,
            )
        }
        Request::MetricsText => {
            let state = shared.current();
            let extra = [
                ("vars", state.engine.db().var_names().len() as u64),
                ("objects", state.engine.db().obj_names().len() as u64),
                ("diags", state.diags.len() as u64),
            ];
            (
                Response::Text(shared.metrics.render_prometheus(&extra)),
                false,
                None,
            )
        }
    }
}

/// Converts a lint report into the wire form the `Diags` op serves, in
/// the report's deterministic order.
pub fn wire_diags(report: &fsam_lint::LintReport) -> Vec<WireDiag> {
    report
        .diagnostics
        .iter()
        .map(|d| WireDiag {
            code: d.code.to_string(),
            severity: d.severity.sarif_level().to_string(),
            stmt: d.primary,
            message: d.message.clone(),
        })
        .collect()
}
