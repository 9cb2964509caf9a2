//! # fsam-query — demand-driven queries and persistent analysis snapshots
//!
//! The analysis pipeline in the core crate answers questions by holding the
//! whole solved state in memory, inside the process that ran the solve.
//! This crate decouples *consuming* an analysis from *running* it:
//!
//! * [`AnalysisDb`] freezes a solved [`Fsam`](fsam::Fsam) run — interned
//!   points-to tables, the MHP and HB region relations, name tables — into a
//!   self-contained value with a versioned, checksummed binary form
//!   ([`AnalysisDb::save`] / [`AnalysisDb::load`]). Corrupt, truncated or
//!   wrong-version files come back as typed [`SnapshotError`]s, never
//!   panics.
//! * [`QueryEngine`] answers `points_to` / `may_alias` / `aliases_of` /
//!   `mhp` demand-drivenly over a database, straight from the snapshot's
//!   interned sets and factored MHP relation, with no answer cache;
//!   [`QueryEngine::query_many`] answers a batched slab in request order.
//! * [`clients`] rebuilds the race, deadlock and instrumentation clients
//!   on the batched query interface, result-identical to the core crate's
//!   direct implementations.
//!
//! ## Example: solve once, query anywhere
//!
//! ```
//! use fsam::Fsam;
//! use fsam_ir::parse::parse_module;
//! use fsam_query::{AnalysisDb, QueryEngine};
//!
//! let module = parse_module(r#"
//!     global x
//!     global y
//!     func main() {
//!     entry:
//!       p = &x
//!       q = &y
//!       c = load p
//!       ret
//!     }
//! "#)?;
//! let fsam = Fsam::analyze(&module);
//!
//! // Process A: solve and persist.
//! let db = AnalysisDb::capture(&module, &fsam);
//! let bytes = db.to_bytes(); // or db.save(path)
//!
//! // Process B: load and query — no module, no pipeline.
//! let engine = QueryEngine::new(AnalysisDb::from_bytes(&bytes).unwrap());
//! let p = engine.var_named("main", "p").unwrap();
//! let q = engine.var_named("main", "q").unwrap();
//! assert!(!engine.may_alias(p, q));
//! assert_eq!(engine.pt_names("main", "p").unwrap(), ["x"]);
//! # Ok::<(), fsam_ir::parse::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clients;
pub mod codec;
pub mod engine;
pub mod snapshot;

pub use clients::{detect_deadlocks, detect_races, plan_instrumentation};
pub use codec::CodecError;
pub use engine::{op_mix, Answer, CacheStats, Query, QueryEngine};
pub use snapshot::{AnalysisDb, SnapshotError, FORMAT_VERSION, MAGIC};
