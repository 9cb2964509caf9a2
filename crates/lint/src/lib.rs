//! # fsam-lint — staged concurrency checkers over FSAM results
//!
//! A checker framework that runs a registry of concurrency checkers over
//! a completed analysis (`Fsam` + its [`QueryEngine`](fsam_query::QueryEngine)
//! snapshot) and reports through one unified [`Diagnostic`] model with
//! deterministic ordering, source-comment suppression, and two renderers
//! (human text, SARIF 2.1.0).
//!
//! ## The default checkers
//!
//! | code     | name                    | finds |
//! |----------|-------------------------|-------|
//! | `FL0001` | `data-race`             | write ∥ access, no common lock — one diagnostic per racy object, with an instance count |
//! | `FL0002` | `lock-order`            | ABBA inversions and longer lock-order cycles |
//! | `FL0003` | `double-acquire`        | re-acquiring a non-reentrant lock (self-deadlock) |
//! | `FL0004` | `lockset-inconsistency` | a lock held on some but not all paths to a function exit |
//! | `FL0005` | `racy-init`             | Andersen-level race candidates refuted by HB sync or flow-sensitively |
//!
//! The race-shaped checkers share one [staged reducer](reduce) that cuts
//! the O(n²) access-pair space with cheap filters (thread-escape, MHP,
//! happens-before, locksets) before any flow-sensitive alias query runs.
//! It runs those stages on buckets of access sites that agree on every
//! filter's input, so it costs buckets, not pairs; each stage exports a
//! kill counter on the `lint.*` trace namespace.
//!
//! ## Suppression
//!
//! A FIR comment `// fsam-lint: allow(FL0001, FL0003)` suppresses
//! matching diagnostics anchored on the same line or the line below.
//! Suppressed findings stay in the [`LintReport`] (and in the SARIF
//! output, marked `suppressed`) — they are hidden, not destroyed.
//!
//! ## Example
//!
//! ```
//! use fsam::Fsam;
//! use fsam_ir::parse::parse_module;
//! use fsam_lint::{LintContext, Registry};
//! use fsam_query::QueryEngine;
//!
//! let module = parse_module(r#"
//!     global counter
//!     func worker() {
//!     entry:
//!       p = &counter
//!       store p, p
//!       ret
//!     }
//!     func main() {
//!     entry:
//!       q = &counter
//!       t = fork worker()
//!       c = load q
//!       join t
//!       ret
//!     }
//! "#)?;
//! let fsam = Fsam::analyze(&module);
//! let engine = QueryEngine::from_fsam(&module, &fsam);
//! let cx = LintContext::new(&module, &fsam, &engine);
//! let report = Registry::with_default_checkers().run(&cx);
//! assert_eq!(report.count_of("FL0001"), 1); // the unlocked counter race
//! # Ok::<(), fsam_ir::parse::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkers;
pub mod context;
pub mod diag;
pub mod reduce;
pub mod render;
pub mod sarif;

pub use checkers::{Checker, Registry};
pub use context::LintContext;
pub use diag::{Diagnostic, LintReport, Related, Severity};
pub use reduce::{RaceGroup, RacePair, Reduction, ReductionStats};
pub use render::render_text;
pub use sarif::{to_sarif, validate_sarif, write_sarif, SarifStream};
