//! The demand-driven query engine: [`QueryEngine`], [`Query`], [`Answer`].
//!
//! A [`QueryEngine`] wraps a frozen [`AnalysisDb`] — captured from a live
//! run or loaded from disk — and answers the four demand-driven queries
//! the paper's clients are built on:
//!
//! * `points_to(v)` — the flow-sensitive points-to set of a top-level
//!   variable (a pooled handle dereference, no computation),
//! * `may_alias(p, q)` — one intersection of two interned sets, after
//!   two short-circuits (an empty handle answers false; equal handles,
//!   which hash-consing makes equal sets, answer true),
//! * `aliases_of(o)` — the precomputed reverse index object → variables,
//! * `mhp(s1, s2)` — the statement-level may-happen-in-parallel relation,
//!   answered from the snapshot's [`MhpRelation`] as stored and refined by
//!   its happens-before facts: two region lookups and one bit test per
//!   relation, no per-pair memoisation needed because no per-pair work
//!   remains.
//!
//! Batched lookups go through [`QueryEngine::query_many`], one pass over
//! the slab in request order. The engine keeps no answer cache: a direct
//! intersection of two pooled sets is cheaper than a hash probe (DESIGN.md
//! §1.2 has the measurement).

use fsam::Fsam;
use fsam_ir::{Module, StmtId, VarId};
use fsam_pts::{MemId, MemoryMeter, PtsRef, PtsSet};
use fsam_threads::relation::{MhpRelation, MHP_COUNTERS};

use crate::snapshot::{lookup_var, name_order, AnalysisDb};

/// One demand-driven query against a solved analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Query {
    /// The points-to set of a top-level variable.
    PointsTo(VarId),
    /// Whether two pointers may reference a common object.
    MayAlias(VarId, VarId),
    /// The variables whose points-to set contains an object.
    AliasesOf(MemId),
    /// Whether two statements may happen in parallel.
    Mhp(StmtId, StmtId),
}

impl Query {
    /// Dense kind index, the slot this query occupies in [`op_mix`]:
    /// `PointsTo` 0, `MayAlias` 1, `AliasesOf` 2, `Mhp` 3.
    pub fn kind_index(self) -> usize {
        match self {
            Query::PointsTo(_) => 0,
            Query::MayAlias(..) => 1,
            Query::AliasesOf(_) => 2,
            Query::Mhp(..) => 3,
        }
    }
}

/// Counts a slab's queries by kind, indexed by [`Query::kind_index`]:
/// `[points_to, may_alias, aliases_of, mhp]`. The serving layer records
/// this as a slow-batch's op mix.
pub fn op_mix(queries: &[Query]) -> [u64; 4] {
    let mut mix = [0u64; 4];
    for q in queries {
        mix[q.kind_index()] += 1;
    }
    mix
}

/// The answer to a [`Query`], in the same order as the request slab.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// Objects a variable may point to, ascending.
    Objects(Vec<MemId>),
    /// A yes/no relation result (`MayAlias`, `Mhp`).
    Bool(bool),
    /// Variables aliasing an object, ascending.
    Vars(Vec<VarId>),
}

/// The hit/miss counters [`QueryEngine::cache_stats`] reports, always
/// zero: the engine keeps no cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a cache.
    pub hits: u64,
    /// Lookups that fell through to the computation.
    pub misses: u64,
}

/// A demand-driven query engine over a frozen [`AnalysisDb`] (see module
/// docs).
pub struct QueryEngine {
    db: AnalysisDb,
    /// Variable indices sorted by `(function, name)` for allocation-free
    /// binary-search lookup in [`var_named`](QueryEngine::var_named).
    name_order: Vec<u32>,
}

static EMPTY_SET: PtsSet = PtsSet::new();

impl QueryEngine {
    /// Wraps a database (typically loaded with [`AnalysisDb::load`]).
    pub fn new(db: AnalysisDb) -> QueryEngine {
        let name_order = name_order(db.var_names());
        QueryEngine { db, name_order }
    }

    /// Captures a live run and wraps it in one step.
    pub fn from_fsam(module: &Module, fsam: &Fsam) -> QueryEngine {
        QueryEngine::new(AnalysisDb::capture(module, fsam))
    }

    /// The underlying database.
    pub fn db(&self) -> &AnalysisDb {
        &self.db
    }

    /// The flow-sensitive points-to set of `v` at its definition, or the
    /// empty set for a variable the snapshot does not know.
    pub fn points_to(&self, v: VarId) -> &PtsSet {
        match self.db.result().var_handles().get(v.index()) {
            Some(&r) => self.db.result().pool().get(r),
            None => &EMPTY_SET,
        }
    }

    /// Whether `p` and `q` may point to a common object: one intersection
    /// of their interned sets, short-circuited on empty or equal handles.
    pub fn may_alias(&self, p: VarId, q: VarId) -> bool {
        let handles = self.db.result().var_handles();
        let (rp, rq) = match (handles.get(p.index()), handles.get(q.index())) {
            (Some(&rp), Some(&rq)) => (rp, rq),
            _ => return false,
        };
        if rp == PtsRef::EMPTY || rq == PtsRef::EMPTY {
            return false;
        }
        if rp == rq {
            // Hash-consing: identical handles are identical non-empty sets.
            return true;
        }
        let pool = self.db.result().pool();
        pool.get(rp).intersects(pool.get(rq))
    }

    /// Variables whose points-to set contains `o`, ascending (the
    /// precomputed reverse index; empty for unknown objects).
    pub fn aliases_of(&self, o: MemId) -> &[VarId] {
        self.db.aliased_by(o)
    }

    /// Whether `s1` and `s2` may happen in parallel — two region lookups
    /// and one bit test on the snapshot's [`MhpRelation`], refined by the
    /// snapshot's happens-before facts: a pair must-ordered by a
    /// condvar/barrier/atomic synchronization chain answers `false` even
    /// when the raw interleaving relation allows it. Symmetric. On a
    /// snapshot without sync intrinsics the HB facts are empty and this
    /// is bit-identical to the raw relation.
    pub fn mhp(&self, s1: StmtId, s2: StmtId) -> bool {
        self.db.mhp().related(s1, s2) && !self.db.hb().related(s1, s2)
    }

    /// The snapshot's happens-before facts (factored region form).
    pub fn hb(&self) -> &fsam_threads::hb::HbFacts {
        self.db.hb()
    }

    /// The factored statement-level MHP relation backing
    /// [`mhp`](QueryEngine::mhp). Clients that answer many pair queries (the
    /// lint reducer's MHP stage) can fetch statement regions once and
    /// test region pairs directly.
    pub fn mhp_relation(&self) -> &MhpRelation {
        self.db.mhp()
    }

    /// The interned points-to equivalence class of `v`: the hash-consed
    /// [`PtsRef`] handle of its flow-sensitive set. Two variables share a
    /// class exactly when their sets are equal, so pair iteration over
    /// variables factors into iteration over classes. `None` when the
    /// snapshot does not know `v` or its set is empty (such a variable
    /// aliases nothing).
    pub fn class_of(&self, v: VarId) -> Option<PtsRef> {
        let r = *self.db.result().var_handles().get(v.index())?;
        if r == PtsRef::EMPTY {
            None
        } else {
            Some(r)
        }
    }

    /// Resolves a variable by `(function, name)` against the snapshot's
    /// name table. Allocation-free (binary search over a precomputed
    /// permutation).
    pub fn var_named(&self, func: &str, var: &str) -> Option<VarId> {
        lookup_var(self.db.var_names(), &self.name_order, func, var)
    }

    /// Display names of the objects `var` (in `func`) may point to,
    /// sorted; `None` if the name is unknown. The strings are borrowed
    /// from the snapshot's name table — repeated calls allocate only the
    /// returned `Vec`, never new strings, and never grow the engine.
    pub fn pt_names(&self, func: &str, var: &str) -> Option<Vec<&str>> {
        let v = self.var_named(func, var)?;
        let names = self.db.obj_names();
        let mut out: Vec<&str> = self
            .points_to(v)
            .iter()
            .map(|m| names[m.index()].as_str())
            .collect();
        out.sort_unstable();
        Some(out)
    }

    /// Answers a slab of queries, one answer per query in request order.
    pub fn query_many(&self, queries: &[Query]) -> Vec<Answer> {
        queries
            .iter()
            .map(|&q| match q {
                Query::PointsTo(v) => Answer::Objects(self.points_to(v).iter().collect()),
                Query::MayAlias(p, q) => Answer::Bool(self.may_alias(p, q)),
                Query::AliasesOf(o) => Answer::Vars(self.aliases_of(o).to_vec()),
                Query::Mhp(a, b) => Answer::Bool(self.mhp(a, b)),
            })
            .collect()
    }

    /// Always zero: the engine keeps no cache. This shim stays only because
    /// the repository benchmark reads it, and goes when the benchmark next
    /// changes.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// A formatted "query engine" section: the size of the factored MHP
    /// relation and of the happens-before facts answering the pair queries.
    pub fn stats(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "query engine statistics");
        for (name, rel, set) in [
            ("mhp", self.db.mhp(), "matrix"),
            ("hb", &**self.db.hb(), "ordered"),
        ] {
            let _ = writeln!(
                out,
                "  {name:<5} factored: {} stmts -> {} regions, {}/{} {set} bits set",
                rel.stmt_count(),
                rel.region_count(),
                rel.related_bits(),
                rel.matrix_bits(),
            );
        }
        out
    }

    /// Exports the factored MHP relation's shape (`mhp.regions`,
    /// `mhp.region_stmts`, `mhp.matrix_bits`, `mhp.parallel_bits`) and the
    /// happens-before facts' (`hb.*`) into a trace span, under the same
    /// stream the pipeline and solver feed.
    pub fn export_trace(&self, span: &fsam_trace::Span<'_>) {
        self.db.mhp().export_trace(span, MHP_COUNTERS);
        self.db.hb().export_trace(span);
    }

    /// Approximate heap held by the engine, by disjoint categories: the
    /// snapshot's points-to and name tables, the name-lookup index, the MHP
    /// relation and the happens-before facts.
    pub fn memory(&self) -> MemoryMeter {
        let mut m = MemoryMeter::default();
        m.add("snapshot", self.db.heap_bytes());
        m.add(
            "name-index",
            self.name_order.capacity() * std::mem::size_of::<u32>(),
        );
        m.add("mhp-relation", self.db.mhp().heap_bytes());
        m.add("hb-facts", self.db.hb().heap_bytes());
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsam_ir::parse::parse_module;

    const SRC: &str = r#"
        global x
        global y
        global z
        func foo() {
        entry:
          p2 = &x
          q = &y
          store p2, q
          ret
        }
        func main() {
        entry:
          p = &x
          r = &z
          t = fork foo()
          store p, r
          c = load p
          ret
        }
    "#;

    fn engine() -> (fsam_ir::Module, Fsam, QueryEngine) {
        let m = parse_module(SRC).unwrap();
        let fsam = Fsam::analyze(&m);
        let engine = QueryEngine::from_fsam(&m, &fsam);
        (m, fsam, engine)
    }

    #[test]
    fn engine_matches_direct_result_on_every_variable_pair() {
        let (m, fsam, engine) = engine();
        let vars: Vec<VarId> = m.var_ids().collect();
        for &p in &vars {
            assert_eq!(engine.points_to(p), fsam.result.pt_var(p), "{p:?}");
            for &q in &vars {
                let direct = fsam.result.pt_var(p).intersects(fsam.result.pt_var(q));
                assert_eq!(engine.may_alias(p, q), direct, "{p:?} vs {q:?}");
            }
        }
    }

    #[test]
    fn mhp_matches_oracle_and_is_symmetric() {
        let (m, fsam, engine) = engine();
        let oracle = fsam.mhp.oracle();
        let stmts: Vec<StmtId> = m.stmts().map(|(s, _)| s).collect();
        for &a in &stmts {
            for &b in &stmts {
                assert_eq!(engine.mhp(a, b), oracle.mhp_stmt(a, b), "{a:?} vs {b:?}");
                assert_eq!(engine.mhp(a, b), engine.mhp(b, a));
            }
        }
    }

    #[test]
    fn query_many_answers_in_request_order_and_duplicates_agree() {
        let (m, _fsam, engine) = engine();
        let r = engine.var_named("main", "r").unwrap();
        let c = engine.var_named("main", "c").unwrap();
        let q = engine.var_named("foo", "q").unwrap();
        let stmts: Vec<StmtId> = m.stmts().map(|(s, _)| s).collect();
        let (s1, s2) = (stmts[0], stmts[stmts.len() - 1]);
        let slab = vec![
            Query::MayAlias(r, c),
            Query::MayAlias(c, r), // symmetric dup of the first
            Query::PointsTo(q),
            Query::MayAlias(r, c), // exact dup
            Query::Mhp(s1, s2),
            Query::Mhp(s2, s1), // symmetric dup
            Query::PointsTo(q), // exact dup
        ];
        let answers = engine.query_many(&slab);
        assert_eq!(answers.len(), slab.len());
        assert_eq!(answers[0], Answer::Bool(true));
        assert_eq!(answers[1], answers[0]);
        assert_eq!(answers[3], answers[0]);
        assert!(matches!(&answers[2], Answer::Objects(objs) if objs.len() == 1));
        assert_eq!(answers[6], answers[2]);
        assert_eq!(answers[4], Answer::Bool(engine.mhp(s1, s2)));
        assert_eq!(answers[5], answers[4]);
    }

    #[test]
    fn aliases_of_inverts_points_to() {
        let (m, _fsam, engine) = engine();
        for v in m.var_ids() {
            for o in engine.points_to(v).iter() {
                assert!(engine.aliases_of(o).contains(&v));
            }
        }
    }

    #[test]
    fn pt_names_borrows_and_engine_stays_flat() {
        let (_m, _fsam, engine) = engine();
        let names = engine.pt_names("main", "c").unwrap();
        assert_eq!(names, ["y", "z"]);
        let before = engine.memory().total_bytes();
        for _ in 0..100 {
            let again = engine.pt_names("main", "c").unwrap();
            assert_eq!(again, ["y", "z"]);
        }
        assert_eq!(engine.memory().total_bytes(), before);
        assert_eq!(engine.pt_names("main", "nope"), None);
    }

    /// The formatted section and the trace export both describe the
    /// factored MHP relation and the happens-before facts.
    #[test]
    fn stats_section_and_trace_export_describe_the_relations() {
        let (_m, _fsam, engine) = engine();
        let section = engine.stats();
        assert!(section.contains("query engine statistics"), "{section}");
        assert!(section.contains("mhp"), "{section}");
        assert!(section.contains("hb"), "{section}");

        let rec = fsam_trace::Recorder::new(64);
        {
            let span = rec.span("query");
            engine.export_trace(&span);
        }
        let find = |name: &str| {
            rec.events().iter().find_map(|e| match e {
                fsam_trace::Event::Counter { name: n, value, .. } if n == name => Some(*value),
                _ => None,
            })
        };
        let regions = find("mhp.regions").expect("relation counters exported");
        assert!(regions >= 1);
        assert_eq!(
            find("mhp.region_stmts"),
            Some(engine.mhp_relation().stmt_count() as u64)
        );
        assert_eq!(
            find("hb.region_stmts"),
            Some(engine.db.hb().stmt_count() as u64)
        );
    }

    /// The memory categories do not overlap: each relation is counted once,
    /// under its own category, and `snapshot` excludes both — it is the same
    /// for a capture whose relations are empty.
    #[test]
    fn memory_counts_each_relation_once() {
        let m = fsam_suite::SyncProgram::ProducerConsumer.generate(fsam_suite::Scale::SMOKE);
        let mut fsam = Fsam::analyze(&m);
        let engine = QueryEngine::from_fsam(&m, &fsam);
        assert!(engine.hb().region_count() > 0, "HB is non-empty here");
        let meter = engine.memory();
        let category = |meter: &MemoryMeter, name: &str| {
            let mut found = meter.categories().filter(|&(c, _)| c == name);
            let (_, bytes) = found.next().expect("category present");
            assert!(found.next().is_none(), "{name} counted twice");
            bytes
        };
        let mhp = category(&meter, "mhp-relation");
        let hb = category(&meter, "hb-facts");
        assert_eq!(mhp, engine.mhp_relation().heap_bytes());
        assert_eq!(hb, engine.hb().heap_bytes());
        assert!(mhp > 0 && hb > 0);
        let parts = category(&meter, "snapshot") + category(&meter, "name-index") + mhp + hb;
        assert_eq!(meter.total_bytes(), parts);

        fsam.mhp_rel = std::sync::Arc::new(MhpRelation::default());
        fsam.hb = std::sync::Arc::new(fsam_threads::HbFacts::empty());
        let bare = QueryEngine::from_fsam(&m, &fsam).memory();
        assert_eq!(category(&bare, "snapshot"), category(&meter, "snapshot"));
    }

    #[test]
    fn unknown_ids_answer_conservatively() {
        let (_m, _fsam, engine) = engine();
        let bogus = VarId::new(9_999);
        assert!(engine.points_to(bogus).is_empty());
        assert!(!engine.may_alias(bogus, bogus));
        assert!(engine.aliases_of(MemId::new(9_999)).is_empty());
    }
}
