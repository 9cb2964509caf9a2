//! # fsam-server — a persistent analysis daemon with hot snapshot swap
//!
//! The sparse analysis is solve-once/query-many: `fsam-query` froze the
//! solved state into [`AnalysisDb`](fsam_query::AnalysisDb) snapshots and
//! answers demand-driven queries straight from their immutable tables, so
//! concurrent readers share one engine without locks.
//! This crate puts that engine behind a process boundary: a
//! multi-threaded std-TCP daemon that loads snapshots and serves
//! `points_to` / `may_alias` / `mhp` / `aliases_of` / lint-diagnostic
//! queries to many concurrent clients over a length-prefixed binary
//! protocol ([`proto`]) layered on the snapshot codec.
//!
//! * Requests batch into the engine's existing `query_many` slabs — one
//!   frame, one slab, one snapshot (`Arc` clone) per batch.
//! * A new snapshot pushed in-band ([`Request::Reload`]) is validated,
//!   then swapped in atomically; in-flight readers finish on the old
//!   engine and the old tables free when the last reader drops
//!   ([`server`] module docs give the memory-ordering argument).
//! * `Ping` / `Stats` / `Shutdown` control ops make the daemon
//!   health-checkable and stoppable in-band — no signal handling in
//!   tests or CI.
//! * Serving counters (qps, latency percentiles, swap count) export as
//!   `server.*` through `fsam-trace` ([`Metrics`]), over rolling
//!   1s/10s/60s windows as well as process lifetime.
//! * The observability plane (protocol v2): sampled per-request `req.*`
//!   phase traces dumped in-band (`DumpTrace`), a slow-query log riding
//!   the `Stats` op, a Prometheus-style text exposition (`MetricsText`),
//!   and a `--watch` live view in the shipped binary — see README
//!   § Watching a live server.
//!
//! ## Example: serve and query in one process
//!
//! ```
//! use fsam::Fsam;
//! use fsam_ir::parse::parse_module;
//! use fsam_query::QueryEngine;
//! use fsam_server::{Client, Server, ServerState};
//!
//! let module = parse_module(r#"
//!     global x
//!     func main() {
//!     entry:
//!       p = &x
//!       q = &x
//!       ret
//!     }
//! "#)?;
//! let fsam = Fsam::analyze(&module);
//! let engine = QueryEngine::from_fsam(&module, &fsam);
//!
//! let handle = Server::spawn(ServerState::new(engine), "127.0.0.1:0").unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let p = client.var_named("main", "p").unwrap().unwrap();
//! let q = client.var_named("main", "q").unwrap().unwrap();
//! assert!(client.may_alias(p, q).unwrap());
//! client.shutdown().unwrap();
//! handle.join();
//! # Ok::<(), fsam_ir::parse::ParseError>(())
//! ```
//!
//! The `fsam-server` binary wraps [`Server::spawn`] for the two-process
//! deployment: `fsam-server --snapshot app.fsamdb` (or `--program` for a
//! suite program) in one terminal, `fsam-server --connect ADDR …` or the
//! [`Client`] API in the other. See README § Serving.
//!
//! [`Request::Reload`]: proto::Request::Reload

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;

pub use client::Client;
pub use metrics::Metrics;
pub use proto::{ProtoError, Request, Response, WireDiag, MAX_FRAME, PROTO_VERSION};
pub use server::{wire_diags, Server, ServerConfig, ServerHandle, ServerState};
