//! # fsam-andersen — the FSAM pre-analysis
//!
//! An inclusion-based (Andersen-style) pointer analysis: flow- and
//! context-insensitive, field-sensitive, with wave propagation of
//! differences, online cycle collapsing (including positive-weight cycles
//! from field constraints) and an on-the-fly call graph that resolves
//! function pointers and fork targets. Each round costs what changed since
//! the last one: only deltas travel, the cycle pass runs only after the
//! graph changed, and a complex constraint whose pointer did not change is
//! skipped without reading its set.
//!
//! This is the *pre-analysis* stage of the paper's Figure 2 pipeline: its
//! over-approximate points-to sets bootstrap the memory SSA, the thread
//! interference analyses and, ultimately, the sparse flow-sensitive solver.
//!
//! ## Example
//!
//! ```
//! use fsam_andersen::PreAnalysis;
//! use fsam_ir::parse::parse_module;
//!
//! let module = parse_module(r#"
//!     global x
//!     func main() {
//!     entry:
//!       p = &x
//!       q = p
//!       ret
//!     }
//! "#)?;
//! let pre = PreAnalysis::run(&module);
//! let q = module.var_ids().find(|&v| module.var(v).name == "q").unwrap();
//! assert_eq!(pre.pt_var(q).len(), 1);
//! # Ok::<(), fsam_ir::parse::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
#[cfg(test)]
mod reference;
pub mod solve;

pub use solve::{AndersenStats, PreAnalysis};
