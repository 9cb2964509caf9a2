//! # fsam-mssa — memory SSA and the sparse value-flow graph
//!
//! Builds the *thread-oblivious* def-use chains of the paper's §3.2: mu/chi
//! annotation from the pre-analysis (§2.2, Figure 4), interprocedural
//! mod/ref summaries, SSA renaming of address-taken objects, and the sparse
//! value-flow graph (SVFG) over the sequentialized program `Pseq` — with
//! fork sites treated as weak calls (steps 1–2, Figure 6(c)) and resolved
//! join sites exposing the joined thread's side effects (step 3,
//! Figure 6(d)). Thread-aware edges (§3.3) are appended afterwards via
//! [`Svfg::insert_thread_edges_grouped`], one interference class at a time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotate;
pub mod modref;
pub mod svfg;
pub mod topo;

pub use annotate::Annotations;
pub use modref::ModRef;
pub use svfg::{
    Csr, NodeId, NodeKind, SlotKind, SlotSucc, SlotTables, Svfg, SvfgStats, ThreadEdgeInsertion,
};
pub use topo::{condense, TopoOrder};
