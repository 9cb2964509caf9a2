//! The abstract-object model: base objects, field objects and singleton
//! classification.
//!
//! The analyses are field-sensitive (paper §4.2): each field of a struct is a
//! separate abstract object, arrays are monolithic, and positive-weight
//! cycles discovered by the pre-analysis collapse the affected objects to
//! field-insensitive treatment.
//!
//! [`MemId`] extends the IR's [`ObjId`] space: the first `obj_count` ids map
//! 1:1 to module objects; field objects are interned on demand after them.

use std::collections::HashMap;
use std::fmt;

use fsam_ir::{FuncId, Module, ObjId, ObjKind, StmtId};

/// Identifies an abstract memory location (a base object or a field of one).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemId(u32);

impl MemId {
    /// Creates a `MemId` from a raw index.
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The index as `usize`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for MemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

impl fmt::Display for MemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// What a [`MemId`] denotes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MemKind {
    /// A base object from the module.
    Base(ObjId),
    /// Field `field` of base object `base` (fields of fields accumulate
    /// offsets onto the root base).
    Field {
        /// The root base object's mem id.
        base: MemId,
        /// Accumulated field offset.
        field: u32,
    },
}

#[derive(Clone, Debug)]
struct MemInfo {
    kind: MemKind,
    singleton: bool,
    collapsed: bool,
}

/// Field offsets beyond this cap collapse the object (guards against
/// unbounded gep chains).
pub const MAX_FIELD_OFFSET: u32 = 4096;

/// The module's abstract memory locations.
///
/// Construction starts from a module ([`ObjectModel::from_module`]); the
/// Andersen pre-analysis then interns field objects
/// ([`ObjectModel::field`]) and may collapse objects involved in
/// positive-weight cycles ([`ObjectModel::collapse`]).
#[derive(Clone, Debug)]
pub struct ObjectModel {
    infos: Vec<MemInfo>,
    field_intern: HashMap<(MemId, u32), MemId>,
    /// Each base object's interned field objects, in creation order.
    fields: Vec<Vec<MemId>>,
    base_count: u32,
    /// Cached per-base-object IR kind, for cheap queries.
    obj_kinds: Vec<ObjKind>,
    is_array: Vec<bool>,
}

impl ObjectModel {
    /// Builds the model with one [`MemId`] per module object.
    ///
    /// Singleton classification follows the paper's Fig. 10 (`singletons`
    /// from Lhoták & Chung): heap objects, arrays and functions are never
    /// singletons; stack locals of recursive functions are excluded via
    /// [`ObjectModel::demote_recursive_locals`] once the call graph is known.
    pub fn from_module(module: &Module) -> Self {
        let mut infos = Vec::with_capacity(module.obj_count());
        let mut obj_kinds = Vec::with_capacity(module.obj_count());
        let mut is_array = Vec::with_capacity(module.obj_count());
        for (oid, info) in module.objs() {
            let singleton = match info.kind {
                ObjKind::Global | ObjKind::Stack(_) => !info.is_array,
                ObjKind::Heap | ObjKind::Func(_) | ObjKind::Thread(_) => false,
            };
            infos.push(MemInfo {
                kind: MemKind::Base(oid),
                singleton,
                collapsed: false,
            });
            obj_kinds.push(info.kind);
            is_array.push(info.is_array);
        }
        let base_count = u32::try_from(infos.len()).expect("too many objects");
        Self {
            infos,
            field_intern: HashMap::new(),
            fields: vec![Vec::new(); base_count as usize],
            base_count,
            obj_kinds,
            is_array,
        }
    }

    /// Demotes stack locals of functions in call-graph cycles from singleton
    /// status (their frames may exist more than once at runtime).
    pub fn demote_recursive_locals(&mut self, module: &Module, in_cycle: impl Fn(FuncId) -> bool) {
        for (oid, info) in module.objs() {
            if let ObjKind::Stack(f) = info.kind {
                if in_cycle(f) {
                    self.infos[oid.index()].singleton = false;
                }
            }
        }
    }

    /// Total number of mem ids (base + interned field objects).
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Whether the model is empty (a module with no objects).
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Number of base (module) objects.
    pub fn base_count(&self) -> u32 {
        self.base_count
    }

    /// The mem id of a module object.
    pub fn base(&self, obj: ObjId) -> MemId {
        debug_assert!(obj.raw() < self.base_count);
        MemId(obj.raw())
    }

    /// The kind of a mem id.
    pub fn kind(&self, mem: MemId) -> MemKind {
        self.infos[mem.index()].kind
    }

    /// The root base object of `mem` (itself for base objects).
    pub fn root(&self, mem: MemId) -> MemId {
        match self.infos[mem.index()].kind {
            MemKind::Base(_) => mem,
            MemKind::Field { base, .. } => base,
        }
    }

    /// The IR object behind `mem`'s root.
    pub fn root_obj(&self, mem: MemId) -> ObjId {
        ObjId::new(self.root(mem).raw())
    }

    /// Interns the field object `base.field`.
    ///
    /// Arrays and collapsed objects absorb their fields (monolithic
    /// treatment); fields of field objects accumulate offsets onto the root;
    /// offsets beyond [`MAX_FIELD_OFFSET`] collapse the root.
    pub fn field(&mut self, base: MemId, field: u32) -> MemId {
        let root = self.root(base);
        let base_off = match self.infos[base.index()].kind {
            MemKind::Base(_) => 0,
            MemKind::Field { field, .. } => field,
        };
        let off = base_off.saturating_add(field);
        if self.infos[root.index()].collapsed || self.is_array[root.index()] {
            return root;
        }
        if off == 0 {
            return root;
        }
        if off > MAX_FIELD_OFFSET {
            self.collapse(root);
            return root;
        }
        if let Some(&id) = self.field_intern.get(&(root, off)) {
            return id;
        }
        let id = MemId(u32::try_from(self.infos.len()).expect("too many field objects"));
        let singleton = self.infos[root.index()].singleton;
        self.infos.push(MemInfo {
            kind: MemKind::Field {
                base: root,
                field: off,
            },
            singleton,
            collapsed: false,
        });
        self.field_intern.insert((root, off), id);
        self.fields[root.index()].push(id);
        id
    }

    /// Looks up the field object `base.field` *without interning*.
    ///
    /// The sparse solver's points-to sets are subsets of the pre-analysis
    /// sets, so every field combination it encounters was interned during
    /// the pre-analysis; a missing entry therefore only arises for collapsed
    /// or array objects, for which the root is the correct answer.
    pub fn field_existing(&self, base: MemId, field: u32) -> MemId {
        let root = self.root(base);
        let base_off = match self.infos[base.index()].kind {
            MemKind::Base(_) => 0,
            MemKind::Field { field, .. } => field,
        };
        let off = base_off.saturating_add(field);
        if off == 0 || self.infos[root.index()].collapsed || self.is_array[root.index()] {
            return root;
        }
        self.field_intern.get(&(root, off)).copied().unwrap_or(root)
    }

    /// Collapses `mem`'s root to field-insensitive treatment (PWC handling,
    /// paper §4.2). Subsequent `field()` calls return the root. Existing
    /// field objects remain valid ids; callers that collapse must merge
    /// their points-to state into the root (the Andersen solver does).
    pub fn collapse(&mut self, mem: MemId) {
        let root = self.root(mem);
        self.infos[root.index()].collapsed = true;
    }

    /// Whether `mem`'s root has been collapsed.
    pub fn is_collapsed(&self, mem: MemId) -> bool {
        let root = self.root(mem);
        self.infos[root.index()].collapsed
    }

    /// Existing field objects of base object `root`, in creation order
    /// (used to merge state on collapse).
    pub fn fields_of(&self, root: MemId) -> &[MemId] {
        &self.fields[root.index()]
    }

    /// Whether `mem` denotes a unique runtime location (strong updates are
    /// permitted on it, paper Fig. 10).
    pub fn is_singleton(&self, mem: MemId) -> bool {
        self.infos[mem.index()].singleton
    }

    /// If `mem` is (a field of) a function object, the function.
    pub fn as_function(&self, mem: MemId) -> Option<FuncId> {
        match self.obj_kinds[self.root(mem).index()] {
            ObjKind::Func(f) => Some(f),
            _ => None,
        }
    }

    /// If `mem` is a thread handle object, the fork site that created it.
    pub fn as_thread_handle(&self, mem: MemId) -> Option<StmtId> {
        match self.obj_kinds[self.root(mem).index()] {
            ObjKind::Thread(s) => Some(s),
            _ => None,
        }
    }

    /// IR kind of `mem`'s root object.
    pub fn root_kind(&self, mem: MemId) -> ObjKind {
        self.obj_kinds[self.root(mem).index()]
    }

    /// Human-readable name, e.g. `buf`, `task.f2`.
    pub fn display_name(&self, module: &Module, mem: MemId) -> String {
        match self.infos[mem.index()].kind {
            MemKind::Base(o) => module.obj(o).name.clone(),
            MemKind::Field { base, field } => {
                format!("{}.f{}", module.obj(ObjId::new(base.raw())).name, field)
            }
        }
    }

    /// All mem ids currently interned.
    pub fn mem_ids(&self) -> impl Iterator<Item = MemId> {
        (0..self.infos.len() as u32).map(MemId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsam_ir::ModuleBuilder;

    fn model() -> (Module, ObjectModel) {
        let mut mb = ModuleBuilder::new();
        mb.global("g");
        mb.global_array("arr");
        let mut f = mb.func("main", &[]);
        f.local("stack");
        f.alloc("h", "heap_obj");
        f.ret(None);
        f.finish();
        let m = mb.build();
        let om = ObjectModel::from_module(&m);
        (m, om)
    }

    #[test]
    fn base_objects_map_one_to_one() {
        let (m, om) = model();
        assert_eq!(om.base_count() as usize, m.obj_count());
        for oid in m.obj_ids() {
            assert_eq!(om.base(oid).raw(), oid.raw());
            assert_eq!(om.kind(om.base(oid)), MemKind::Base(oid));
        }
    }

    #[test]
    fn singleton_classification() {
        let (m, om) = model();
        let g = m.global_by_name("g").unwrap();
        let arr = m.global_by_name("arr").unwrap();
        assert!(om.is_singleton(om.base(g)));
        assert!(!om.is_singleton(om.base(arr)));
        // heap object: never a singleton
        let heap = m.objs().find(|(_, o)| o.kind == ObjKind::Heap).unwrap().0;
        assert!(!om.is_singleton(om.base(heap)));
        // function object: never a singleton
        let func = m
            .objs()
            .find(|(_, o)| matches!(o.kind, ObjKind::Func(_)))
            .unwrap()
            .0;
        assert!(!om.is_singleton(om.base(func)));
        // stack local of a non-recursive function: singleton
        let stack = m
            .objs()
            .find(|(_, o)| matches!(o.kind, ObjKind::Stack(_)))
            .unwrap()
            .0;
        assert!(om.is_singleton(om.base(stack)));
    }

    #[test]
    fn recursive_locals_are_demoted() {
        let (m, mut om) = model();
        let stack = m
            .objs()
            .find(|(_, o)| matches!(o.kind, ObjKind::Stack(_)))
            .unwrap()
            .0;
        assert!(om.is_singleton(om.base(stack)));
        om.demote_recursive_locals(&m, |_| true);
        assert!(!om.is_singleton(om.base(stack)));
    }

    #[test]
    fn fields_are_interned_and_arrays_monolithic() {
        let (m, mut om) = model();
        let g = om.base(m.global_by_name("g").unwrap());
        let arr = om.base(m.global_by_name("arr").unwrap());
        let f1 = om.field(g, 1);
        let f1b = om.field(g, 1);
        let f2 = om.field(g, 2);
        assert_eq!(f1, f1b);
        assert_ne!(f1, f2);
        assert_ne!(f1, g);
        assert_eq!(om.root(f1), g);
        assert_eq!(om.field(arr, 3), arr); // arrays absorb fields
        assert_eq!(om.field(g, 0), g); // offset 0 is the object itself
        assert_eq!(om.display_name(&m, f1), "g.f1");
    }

    #[test]
    fn nested_fields_accumulate() {
        let (m, mut om) = model();
        let g = om.base(m.global_by_name("g").unwrap());
        let f1 = om.field(g, 1);
        let f1_2 = om.field(f1, 2);
        assert_eq!(f1_2, om.field(g, 3));
        assert_eq!(om.root(f1_2), g);
    }

    #[test]
    fn collapse_absorbs_future_fields() {
        let (m, mut om) = model();
        let g = om.base(m.global_by_name("g").unwrap());
        let f1 = om.field(g, 1);
        om.collapse(g);
        assert!(om.is_collapsed(g));
        assert!(om.is_collapsed(f1));
        assert_eq!(om.field(g, 7), g);
        assert_eq!(om.fields_of(g), [f1]);
    }

    #[test]
    fn huge_offsets_collapse() {
        let (m, mut om) = model();
        let g = om.base(m.global_by_name("g").unwrap());
        assert_eq!(om.field(g, MAX_FIELD_OFFSET + 1), g);
        assert!(om.is_collapsed(g));
    }

    #[test]
    fn function_and_thread_queries() {
        let mut mb = ModuleBuilder::new();
        let worker = mb.declare_func("worker", &[]);
        let mut f = mb.define_func(worker);
        f.ret(None);
        f.finish();
        let mut f = mb.func("main", &[]);
        let t = f.fork("t", worker, None);
        let _ = t;
        f.ret(None);
        f.finish();
        let m = mb.build();
        let om = ObjectModel::from_module(&m);
        let func_obj = m.func(worker).func_obj;
        assert_eq!(om.as_function(om.base(func_obj)), Some(worker));
        let th = m
            .objs()
            .find(|(_, o)| matches!(o.kind, ObjKind::Thread(_)))
            .unwrap()
            .0;
        assert!(om.as_thread_handle(om.base(th)).is_some());
        assert_eq!(om.as_function(om.base(th)), None);
    }
}
