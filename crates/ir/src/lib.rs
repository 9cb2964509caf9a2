//! # fsam-ir — partial-SSA IR for the FSAM reproduction
//!
//! This crate provides the program representation consumed by every analysis
//! in the [FSAM](https://doi.org/10.1145/2854038.2854043) reproduction: a
//! compact, LLVM-flavoured partial-SSA IR (paper §2.1) in which
//!
//! * *top-level* variables (`T`) are in SSA form and held in registers, and
//! * *address-taken* objects (`A`) are accessed only through `load`/`store`;
//!
//! plus the Pthreads intrinsics `fork`/`join`/`lock`/`unlock` that the thread
//! interference analyses reason about.
//!
//! ## What's here
//!
//! * [`module`] / [`stmt`] / [`ids`] — the IR data structures;
//! * [`builder`] — programmatic construction;
//! * [`parse`] / [`mod@print`] — the FIR textual syntax (round-trippable);
//! * [`verify`] — SSA well-formedness checking;
//! * [`dom`] / [`loops`] — dominators, dominance frontiers, natural loops;
//! * [`csr`] — counted flat tables of short rows;
//! * [`icfg`] — the interprocedural CFG with call/return node splitting
//!   (paper §3.1);
//! * [`callgraph`] — call graph with separate call and fork edges;
//! * [`context`] — interned calling contexts.
//!
//! ## Example
//!
//! ```
//! use fsam_ir::parse::parse_module;
//!
//! let module = parse_module(r#"
//!     global x
//!     func main() {
//!     entry:
//!       p = &x
//!       c = load p
//!       ret
//!     }
//! "#)?;
//! fsam_ir::verify::verify_module(&module).unwrap();
//! assert_eq!(module.stmt_count(), 2);
//! # Ok::<(), fsam_ir::parse::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod callgraph;
pub mod context;
pub mod csr;
pub mod dom;
pub mod icfg;
pub mod ids;
pub mod interp;
pub mod loops;
pub mod module;
pub mod parse;
pub mod print;
pub mod rng;
pub mod stmt;
pub mod verify;

pub use builder::ModuleBuilder;
pub use ids::{BlockId, FuncId, ObjId, StmtId, VarId};
pub use module::{Function, LintDirective, Module, ObjInfo, ObjKind, VarInfo};
pub use stmt::{Callee, Stmt, StmtKind, Terminator};
