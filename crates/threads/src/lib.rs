//! # fsam-threads — thread model and interference analyses
//!
//! The paper's §3.1 and §3.3: the static thread model (abstract threads,
//! fork/join relations, multi-forked threads, happens-before), the flow- and
//! context-sensitive interleaving (MHP) analysis of Figure 7, the
//! `[THREAD-VF]` value-flow analysis producing thread-aware def-use edges,
//! and the lock analysis (Definitions 3–6) that filters non-interference
//! pairs, run on classes of instances ([`LockClasses`]). The interleaving
//! and lock data-flows run on a dense instance space of `(thread,
//! context, node)` states ([`flow`]). [`ProcMhp`] is the coarse PCG-style
//! baseline used by the *No-Interleaving* ablation and the NonSparse
//! comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod hb;
pub mod interleave;
pub mod lock;
pub mod lockclass;
pub mod mhp;
pub mod model;
#[cfg(test)]
mod reference;
pub mod relation;
pub mod shared;
pub mod valueflow;

pub use hb::{HbFacts, VecClock};
pub use interleave::{Interleaving, ThreadSet};
pub use lock::LockAnalysis;
pub use lockclass::LockClasses;
pub use mhp::{MhpBackend, MhpOracle, ProcMhp};
pub use model::{JoinEntry, ThreadId, ThreadInfo, ThreadModel};
pub use relation::{MhpRelation, RegionRelation, RelationError};
pub use shared::SharedObjects;
pub use valueflow::{ThreadGroup, ThreadValueFlow, ValueFlowPlan, ValueFlowStats};
