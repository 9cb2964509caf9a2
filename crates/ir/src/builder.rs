//! Programmatic construction of [`Module`]s.
//!
//! [`ModuleBuilder`] mints globals and functions; [`FunctionBuilder`] appends
//! blocks and statements. The builders are deliberately permissive — they let
//! you construct ill-formed programs (e.g. a variable defined twice) so that
//! [`verify`](crate::verify) has something to report; run
//! [`verify_module`](crate::verify::verify_module) after building.
//!
//! # Examples
//!
//! Building the paper's Figure 1(a):
//!
//! ```
//! use fsam_ir::builder::ModuleBuilder;
//!
//! let mut mb = ModuleBuilder::new();
//! let (x, y, z) = (mb.global("x"), mb.global("y"), mb.global("z"));
//! let foo = mb.declare_func("foo", &[]);
//!
//! let mut f = mb.define_func(foo);
//! let p = f.addr("p", x);
//! let q = f.addr("q", y);
//! f.store(p, q); // *p = q
//! f.ret(None);
//! f.finish();
//!
//! let main = mb.declare_func("main", &[]);
//! let mut m = mb.define_func(main);
//! let p = m.addr("p", x);
//! let r = m.addr("r", z);
//! let _t = m.fork("t", foo, None);
//! m.store(p, r); // *p = r
//! let _c = m.load("c", p);
//! m.ret(None);
//! m.finish();
//!
//! let module = mb.build();
//! assert_eq!(module.func_count(), 2);
//! fsam_ir::verify::verify_module(&module).unwrap();
//! ```

use std::collections::HashMap;

use crate::ids::{BlockId, FuncId, IdVec, ObjId, StmtId, VarId};
use crate::module::{Block, Function, Module, ObjInfo, ObjKind, VarInfo};
use crate::stmt::{Callee, PhiArm, Stmt, StmtKind, Terminator};

/// Builds a [`Module`] incrementally.
#[derive(Debug, Default)]
pub struct ModuleBuilder {
    module: Module,
    globals: HashMap<String, ObjId>,
    anon_counter: u32,
    /// Source line tagged onto subsequently appended statements; 0 = none.
    cur_line: u32,
}

impl ModuleBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a global object, creating it on first mention.
    pub fn global(&mut self, name: &str) -> ObjId {
        self.intern_global(name, false)
    }

    /// Interns a global *array* object (monolithic, never strongly updated).
    pub fn global_array(&mut self, name: &str) -> ObjId {
        self.intern_global(name, true)
    }

    fn intern_global(&mut self, name: &str, is_array: bool) -> ObjId {
        if let Some(&id) = self.globals.get(name) {
            return id;
        }
        let id = ObjId::from_usize(self.module.objs.len());
        self.module.objs.push(ObjInfo {
            name: name.to_owned(),
            kind: ObjKind::Global,
            is_array,
        });
        self.globals.insert(name.to_owned(), id);
        id
    }

    /// Declares a function with named parameters, without a body yet.
    /// Declaring creates the function object (for function pointers) and the
    /// parameter variables.
    ///
    /// # Panics
    ///
    /// Panics if a function with this name already exists.
    pub fn declare_func(&mut self, name: &str, params: &[&str]) -> FuncId {
        assert!(
            self.module.func_by_name(name).is_none(),
            "function `{name}` declared twice"
        );
        let id = FuncId::from_usize(self.module.funcs.len());
        let func_obj = ObjId::from_usize(self.module.objs.len());
        self.module.objs.push(ObjInfo {
            name: name.to_owned(),
            kind: ObjKind::Func(id),
            is_array: false,
        });
        let param_ids: Vec<VarId> = params
            .iter()
            .map(|p| {
                let v = VarId::from_usize(self.module.vars.len());
                self.module.vars.push(VarInfo {
                    name: (*p).to_owned(),
                    func: id,
                });
                v
            })
            .collect();
        let mut blocks = IdVec::new();
        blocks.push(Block {
            name: "entry".to_owned(),
            stmts: Vec::new(),
            term: Terminator::Ret(None),
        });
        self.module.funcs.push(Function {
            name: name.to_owned(),
            id,
            params: param_ids,
            blocks,
            locals: Vec::new(),
            func_obj,
            is_external: true, // until defined
        });
        self.module.func_by_name.insert(name.to_owned(), id);
        id
    }

    /// Declares an external function (no body will be provided).
    pub fn extern_func(&mut self, name: &str, params: &[&str]) -> FuncId {
        self.declare_func(name, params)
    }

    /// Starts defining the body of a previously declared function.
    pub fn define_func(&mut self, id: FuncId) -> FunctionBuilder<'_> {
        self.module.funcs[id.index()].is_external = false;
        FunctionBuilder {
            mb: self,
            func: id,
            cur_block: BlockId::ENTRY,
            vars_by_name: HashMap::new(),
        }
    }

    /// Declares and immediately starts defining a function.
    pub fn func(&mut self, name: &str, params: &[&str]) -> FunctionBuilder<'_> {
        let id = self.declare_func(name, params);
        self.define_func(id)
    }

    /// Reserves room for `stmts` more statements, `vars` variables and
    /// `objs` objects, so a caller that knows its sizes grows each once.
    pub fn reserve(&mut self, stmts: usize, vars: usize, objs: usize) {
        let m = &mut self.module;
        m.stmts.reserve_exact(stmts);
        m.stmt_lines.reserve_exact(stmts);
        m.vars.reserve_exact(vars);
        m.objs.reserve_exact(objs);
    }

    /// Records a `fsam-lint:` suppression directive (used by the FIR
    /// parser; see [`Module::lint_directives`]).
    pub fn lint_directive(&mut self, line: u32, codes: Vec<String>) {
        self.module
            .lint_directives
            .push(crate::module::LintDirective { line, codes });
    }

    /// Finishes construction and returns the module.
    pub fn build(self) -> Module {
        self.module
    }

    /// Read-only access to the module under construction.
    pub fn module(&self) -> &Module {
        &self.module
    }

    fn fresh_anon(&mut self, prefix: &str) -> String {
        self.anon_counter += 1;
        format!("{prefix}.{}", self.anon_counter)
    }
}

/// Appends blocks and statements to one function. Obtained from
/// [`ModuleBuilder::func`] or [`ModuleBuilder::define_func`].
///
/// A statement constructor resolves its destination by name and calls
/// [`push`](Self::push); a caller that resolves names itself (the FIR
/// parser) mints variables with [`var`](Self::var) and pushes directly.
#[derive(Debug)]
pub struct FunctionBuilder<'m> {
    mb: &'m mut ModuleBuilder,
    func: FuncId,
    cur_block: BlockId,
    vars_by_name: HashMap<String, VarId>,
}

impl<'m> FunctionBuilder<'m> {
    /// The function being built.
    pub fn id(&self) -> FuncId {
        self.func
    }

    /// The `i`-th formal parameter.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param(&self, i: usize) -> VarId {
        self.mb.module.funcs[self.func.index()].params[i]
    }

    /// Declares an address-taken stack local of this function.
    pub fn local(&mut self, name: &str) -> ObjId {
        self.local_impl(name, false)
    }

    /// Declares an address-taken stack *array* local (monolithic).
    pub fn local_array(&mut self, name: &str) -> ObjId {
        self.local_impl(name, true)
    }

    fn local_impl(&mut self, name: &str, is_array: bool) -> ObjId {
        let id = ObjId::from_usize(self.mb.module.objs.len());
        self.mb.module.objs.push(ObjInfo {
            name: name.to_owned(),
            kind: ObjKind::Stack(self.func),
            is_array,
        });
        self.mb.module.funcs[self.func.index()].locals.push(id);
        id
    }

    /// Returns the variable with the given name, creating it on first
    /// mention. This allows forward references (e.g. phi arms over loop back
    /// edges); the verifier checks that every variable ends up with exactly
    /// one dominating definition. Variables minted by [`Self::var`] are not
    /// found by name.
    pub fn named(&mut self, name: &str) -> VarId {
        if self.vars_by_name.is_empty() {
            // The parameters are indexed on first use, so a caller that
            // never looks a name up (the FIR parser) does not pay for it.
            for &p in &self.mb.module.funcs[self.func.index()].params {
                let param = self.mb.module.vars[p.index()].name.clone();
                self.vars_by_name.insert(param, p);
            }
        }
        if let Some(&v) = self.vars_by_name.get(name) {
            return v;
        }
        let v = self.var(name.to_owned());
        self.vars_by_name.insert(name.to_owned(), v);
        v
    }

    /// Mints a fresh variable of this function, without looking its name
    /// up: the entry point for a caller that resolves names itself.
    pub fn var(&mut self, name: String) -> VarId {
        let v = VarId::from_usize(self.mb.module.vars.len());
        self.mb.module.vars.push(VarInfo {
            name,
            func: self.func,
        });
        v
    }

    // ---- blocks ---------------------------------------------------------

    /// Creates a new (empty) basic block with the given label.
    pub fn block(&mut self, name: &str) -> BlockId {
        let f = &mut self.mb.module.funcs[self.func.index()];
        let id = BlockId::from_usize(f.blocks.len());
        f.blocks.push(Block {
            name: name.to_owned(),
            stmts: Vec::new(),
            term: Terminator::Ret(None),
        });
        id
    }

    /// Renames a block's label (used by the parser, whose first label need
    /// not be called `entry`).
    pub fn rename_block(&mut self, block: BlockId, name: &str) {
        self.mb.module.funcs[self.func.index()].blocks[block].name = name.to_owned();
    }

    /// Redirects subsequent statement appends to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(block.index() < self.mb.module.funcs[self.func.index()].blocks.len());
        self.cur_block = block;
    }

    /// The block currently being appended to.
    pub fn current_block(&self) -> BlockId {
        self.cur_block
    }

    /// Tags subsequently appended statements with a 1-based source line
    /// (0 clears the tag). Set by the FIR parser; programmatic builders
    /// leave every statement untagged.
    pub fn at_line(&mut self, line: u32) {
        self.mb.cur_line = line;
    }

    /// Appends a statement to the current block: every constructor ends
    /// here. A fork goes through [`Self::fork_with`], which mints its handle.
    pub fn push(&mut self, kind: StmtKind) -> StmtId {
        let id = StmtId::from_usize(self.mb.module.stmts.len());
        self.mb.module.stmts.push(Stmt {
            kind,
            func: self.func,
            block: self.cur_block,
        });
        self.mb.module.stmt_lines.push(self.mb.cur_line);
        self.mb.module.funcs[self.func.index()].blocks[self.cur_block]
            .stmts
            .push(id);
        id
    }

    // ---- statements -------------------------------------------------------

    /// `dst = &obj`.
    pub fn addr(&mut self, dst: &str, obj: ObjId) -> VarId {
        let dst = self.named(dst);
        self.push(StmtKind::Addr { dst, obj });
        dst
    }

    /// `dst = &func` — takes the address of a function.
    pub fn addr_of_func(&mut self, dst: &str, func: FuncId) -> VarId {
        let obj = self.mb.module.funcs[func.index()].func_obj;
        self.addr(dst, obj)
    }

    /// `dst = malloc(...)` — creates a fresh heap object and takes its
    /// address. Returns the destination variable and the heap object.
    pub fn alloc(&mut self, dst: &str, obj_name: &str) -> (VarId, ObjId) {
        let obj = self.heap(obj_name.to_owned());
        (self.addr(dst, obj), obj)
    }

    /// Mints a heap object (an allocation site) named `name`.
    pub fn heap(&mut self, name: String) -> ObjId {
        let obj = ObjId::from_usize(self.mb.module.objs.len());
        self.mb.module.objs.push(ObjInfo {
            name,
            kind: ObjKind::Heap,
            is_array: false,
        });
        obj
    }

    /// `dst = src`.
    pub fn copy(&mut self, dst: &str, src: VarId) -> VarId {
        let dst = self.named(dst);
        self.push(StmtKind::Copy { dst, src });
        dst
    }

    /// `dst = phi(...)`. Arms are `(predecessor block, incoming var)`.
    pub fn phi(&mut self, dst: &str, arms: &[(BlockId, VarId)]) -> VarId {
        let dst = self.named(dst);
        let arms = arms
            .iter()
            .map(|&(pred, var)| PhiArm { pred, var })
            .collect();
        self.push(StmtKind::Phi { dst, arms });
        dst
    }

    /// `dst = *ptr`.
    pub fn load(&mut self, dst: &str, ptr: VarId) -> VarId {
        let dst = self.named(dst);
        self.push(StmtKind::Load { dst, ptr });
        dst
    }

    /// `*ptr = val`. Returns the statement id (handy in tests).
    pub fn store(&mut self, ptr: VarId, val: VarId) -> StmtId {
        self.push(StmtKind::Store { ptr, val })
    }

    /// `dst = &base->field`.
    pub fn gep(&mut self, dst: &str, base: VarId, field: u32) -> VarId {
        let dst = self.named(dst);
        self.push(StmtKind::Gep { dst, base, field });
        dst
    }

    /// Direct call `dst = callee(args...)`; pass `None` to discard the result.
    pub fn call(&mut self, dst: Option<&str>, callee: FuncId, args: &[VarId]) -> StmtId {
        let dst = dst.map(|d| self.named(d));
        self.push(StmtKind::Call {
            callee: Callee::Direct(callee),
            args: args.to_vec(),
            dst,
        })
    }

    /// Indirect call through a function pointer.
    pub fn call_indirect(&mut self, dst: Option<&str>, fptr: VarId, args: &[VarId]) -> StmtId {
        let dst = dst.map(|d| self.named(d));
        self.push(StmtKind::Call {
            callee: Callee::Indirect(fptr),
            args: args.to_vec(),
            dst,
        })
    }

    /// `dst = fork callee(arg)` — `pthread_create`. The returned variable
    /// holds the thread handle; it may be stored into arrays and joined later.
    pub fn fork(&mut self, dst: &str, callee: FuncId, arg: Option<VarId>) -> VarId {
        let dst = self.named(dst);
        self.fork_with(dst, Callee::Direct(callee), arg)
    }

    /// Fork through a function pointer.
    pub fn fork_indirect(&mut self, dst: &str, fptr: VarId, arg: Option<VarId>) -> VarId {
        let dst = self.named(dst);
        self.fork_with(dst, Callee::Indirect(fptr), arg)
    }

    /// `dst = fork callee(arg)`: mints the thread-handle object and pushes.
    pub fn fork_with(&mut self, dst: VarId, callee: Callee, arg: Option<VarId>) -> VarId {
        let stmt_id = StmtId::from_usize(self.mb.module.stmts.len());
        let handle_obj = ObjId::from_usize(self.mb.module.objs.len());
        let name = self.mb.fresh_anon("thread");
        self.mb.module.objs.push(ObjInfo {
            name,
            kind: ObjKind::Thread(stmt_id),
            is_array: false,
        });
        self.push(StmtKind::Fork {
            dst,
            callee,
            arg,
            handle_obj,
        });
        dst
    }

    /// `join handle` — `pthread_join`.
    pub fn join(&mut self, handle: VarId) -> StmtId {
        self.push(StmtKind::Join { handle })
    }

    /// `lock l`.
    pub fn lock(&mut self, lock: VarId) -> StmtId {
        self.push(StmtKind::Lock { lock })
    }

    /// `unlock l`.
    pub fn unlock(&mut self, lock: VarId) -> StmtId {
        self.push(StmtKind::Unlock { lock })
    }

    /// `signal cond` — `pthread_cond_signal` under FIR's sticky-event
    /// semantics (see [`StmtKind::Signal`]).
    pub fn signal(&mut self, cond: VarId) -> StmtId {
        self.push(StmtKind::Signal { cond })
    }

    /// `wait cond` — blocks until the condvar event has been published.
    pub fn wait(&mut self, cond: VarId) -> StmtId {
        self.push(StmtKind::Wait { cond })
    }

    /// `broadcast cond` — `pthread_cond_broadcast` (sticky: same effect as
    /// signal on the abstract event state).
    pub fn broadcast(&mut self, cond: VarId) -> StmtId {
        self.push(StmtKind::Broadcast { cond })
    }

    /// `barrier_init bar, count` — `pthread_barrier_init`.
    pub fn barrier_init(&mut self, bar: VarId, count: u32) -> StmtId {
        self.push(StmtKind::BarrierInit { bar, count })
    }

    /// `barrier_wait bar` — `pthread_barrier_wait`.
    pub fn barrier_wait(&mut self, bar: VarId) -> StmtId {
        self.push(StmtKind::BarrierWait { bar })
    }

    /// `dst = atomic_load ptr` with the given memory order.
    pub fn atomic_load(&mut self, dst: &str, ptr: VarId, order: crate::stmt::MemOrder) -> VarId {
        let dst = self.named(dst);
        self.push(StmtKind::AtomicLoad { dst, ptr, order });
        dst
    }

    /// `atomic_store ptr, val` with the given memory order.
    pub fn atomic_store(&mut self, ptr: VarId, val: VarId, order: crate::stmt::MemOrder) -> StmtId {
        self.push(StmtKind::AtomicStore { ptr, val, order })
    }

    /// `dst = atomic_rmw ptr, val` — FIR's blocking swap-when-set intrinsic
    /// (see [`StmtKind::AtomicRmw`]) with the given memory order.
    pub fn atomic_rmw(
        &mut self,
        dst: &str,
        ptr: VarId,
        val: VarId,
        order: crate::stmt::MemOrder,
    ) -> VarId {
        let dst = self.named(dst);
        self.push(StmtKind::AtomicRmw {
            dst,
            ptr,
            val,
            order,
        });
        dst
    }

    // ---- terminators ------------------------------------------------------

    fn set_term(&mut self, term: Terminator) {
        self.mb.module.funcs[self.func.index()].blocks[self.cur_block].term = term;
    }

    /// Ends the current block with an unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.set_term(Terminator::Jump(target));
    }

    /// Ends the current block with a two-way branch (opaque condition).
    pub fn branch(&mut self, then_bb: BlockId, else_bb: BlockId) {
        self.set_term(Terminator::Branch(then_bb, else_bb));
    }

    /// Ends the current block with a return.
    pub fn ret(&mut self, val: Option<VarId>) {
        self.set_term(Terminator::Ret(val));
    }

    /// Finishes the function body.
    pub fn finish(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ObjKind;

    #[test]
    fn build_single_function() {
        let mut mb = ModuleBuilder::new();
        let g = mb.global("g");
        let mut f = mb.func("main", &[]);
        let p = f.addr("p", g);
        let q = f.copy("q", p);
        f.store(p, q);
        f.ret(None);
        f.finish();
        let m = mb.build();
        assert_eq!(m.func_count(), 1);
        assert_eq!(m.stmt_count(), 3);
        assert_eq!(m.entry(), m.func_by_name("main"));
        assert_eq!(m.var_name(p), "main::p");
    }

    #[test]
    fn globals_are_interned() {
        let mut mb = ModuleBuilder::new();
        let a = mb.global("g");
        let b = mb.global("g");
        assert_eq!(a, b);
        assert_eq!(mb.module().obj_count(), 1);
    }

    #[test]
    fn fork_creates_thread_object() {
        let mut mb = ModuleBuilder::new();
        let worker = mb.declare_func("worker", &["arg"]);
        let mut f = mb.func("main", &[]);
        let t = f.fork("t", worker, None);
        f.join(t);
        f.ret(None);
        f.finish();
        let m = mb.build();
        let thread_objs: Vec<_> = m
            .objs()
            .filter(|(_, o)| matches!(o.kind, ObjKind::Thread(_)))
            .collect();
        assert_eq!(thread_objs.len(), 1);
    }

    #[test]
    fn blocks_and_phis() {
        let mut mb = ModuleBuilder::new();
        let g = mb.global("g");
        let mut f = mb.func("main", &[]);
        let bb1 = f.block("left");
        let bb2 = f.block("right");
        let bb3 = f.block("merge");
        let entry = f.current_block();
        f.branch(bb1, bb2);
        f.switch_to(bb1);
        let p = f.addr("p", g);
        f.jump(bb3);
        f.switch_to(bb2);
        let q = f.addr("q", g);
        f.jump(bb3);
        f.switch_to(bb3);
        let r = f.phi("r", &[(bb1, p), (bb2, q)]);
        f.ret(Some(r));
        f.finish();
        let m = mb.build();
        assert_eq!(entry, BlockId::ENTRY);
        assert_eq!(m.func(m.entry().unwrap()).blocks.len(), 4);
        crate::verify::verify_module(&m).unwrap();
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn duplicate_function_panics() {
        let mut mb = ModuleBuilder::new();
        mb.declare_func("f", &[]);
        mb.declare_func("f", &[]);
    }

    #[test]
    fn external_functions_have_no_body() {
        let mut mb = ModuleBuilder::new();
        let e = mb.extern_func("printf", &["fmt"]);
        let m = mb.build();
        assert!(m.func(e).is_external);
    }
}
