//! # fsam — sparse flow-sensitive pointer analysis for multithreaded programs
//!
//! A from-scratch reproduction of *FSAM* (Sui, Di & Xue, CGO 2016): a
//! flow-sensitive pointer analysis that scales to multithreaded C-like
//! programs by propagating points-to facts sparsely along def-use chains
//! pre-computed by a series of thread-interference analyses.
//!
//! * [`Fsam`] runs the full pipeline of the paper's Figure 2 —
//!   Andersen pre-analysis, static thread model, thread-oblivious SVFG,
//!   interleaving/value-flow/lock analyses, sparse resolution;
//! * [`PhaseConfig`] toggles the interference phases (the Figure 12
//!   ablation);
//! * [`nonsparse`] is the traditional data-flow baseline (`NonSparse`,
//!   §4.3) the paper compares against;
//! * [`race`] holds the data-race primitives clients build on (§6).
//!
//! Name-based convenience queries (`pt_names`, `may_alias`, race/deadlock
//! reports) live downstream in `fsam_query::QueryEngine` and the
//! `fsam-lint` checker registry; this crate exposes the raw results.
//!
//! ## Example
//!
//! ```
//! use fsam::Fsam;
//! use fsam_ir::parse::parse_module;
//!
//! // The paper's Figure 1(a): a store in a spawned thread interferes with
//! // a load in main, so pt(c) = {y, z}.
//! let module = parse_module(r#"
//!     global x
//!     global y
//!     global z
//!     func foo() {
//!     entry:
//!       p2 = &x
//!       q = &y
//!       store p2, q
//!       ret
//!     }
//!     func main() {
//!     entry:
//!       p = &x
//!       r = &z
//!       t = fork foo()
//!       store p, r
//!       c = load p
//!       ret
//!     }
//! "#)?;
//! let fsam = Fsam::analyze(&module);
//! let c = Fsam::var_named(&module, "main", "c");
//! let mut names: Vec<String> = fsam
//!     .result
//!     .pt_var(c)
//!     .iter()
//!     .map(|o| fsam.pre.objects().display_name(&module, o))
//!     .collect();
//! names.sort();
//! assert_eq!(names, vec!["y", "z"]);
//! # Ok::<(), fsam_ir::parse::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deadlock;
pub mod instrument;
pub mod nonsparse;
pub mod par;
pub mod pipeline;
mod queue;
pub mod race;
pub mod recompute;
pub mod solver;

pub use deadlock::{detect_cycles, lock_order_edges, Deadlock, LockCycle};
pub use fsam_threads::MhpBackend;
pub use instrument::InstrumentationPlan;
pub use nonsparse::{NonSparseOutcome, NonSparseResult, NonSparseStats};
pub use par::thread_count;
pub use pipeline::{Fsam, PhaseConfig, PhaseTimes, Pipeline, StageBuildCounts};
pub use race::{racy_instances, Race};
pub use recompute::solve_recompute;
pub use solver::{solve_par, SolverStats, SparseResult};
