//! The MHP oracle abstraction and the PCG-style procedure-level baseline.
//!
//! The value-flow and lock phases query may-happen-in-parallel facts through
//! [`MhpOracle`] so the pipeline can swap the paper's flow- and
//! context-sensitive interleaving analysis (§3.3.1) for the coarser
//! procedure-level analysis of Joisha et al. (PCG \[14\]) — that swap is the
//! *No-Interleaving* configuration of the Figure 12 ablation, and the MHP
//! source for the NonSparse baseline (§4.3).

use std::collections::HashMap;
use std::sync::Arc;

use fsam_ir::context::CtxId;
use fsam_ir::icfg::Icfg;
use fsam_ir::{Module, StmtId};

use crate::interleave::Interleaving;
use crate::model::{ThreadId, ThreadModel};

/// May-happen-in-parallel queries at statement and instance granularity.
pub trait MhpOracle {
    /// The context-sensitive instances `(t, c)` under which `s` executes.
    fn instances(&self, s: StmtId) -> Vec<(ThreadId, CtxId)>;

    /// Whether `s1` and `s2` may happen in parallel under *some* pair of
    /// instances.
    fn mhp_stmt(&self, s1: StmtId, s2: StmtId) -> bool;

    /// Whether two specific instances may happen in parallel.
    fn mhp_instances(
        &self,
        icfg: &Icfg,
        i1: (ThreadId, CtxId, StmtId),
        i2: (ThreadId, CtxId, StmtId),
    ) -> bool;
}

/// The MHP oracle a pipeline configuration selected: the paper's flow- and
/// context-sensitive interleaving analysis (§3.3.1), or the PCG-style
/// procedure-level baseline used by the *No-Interleaving* ablation.
///
/// Exactly one backend always exists — this replaces the
/// `(Option<Interleaving>, Option<ProcMhp>)` pair whose `(None, None)` arm
/// was unreachable by construction. The analyses sit behind `Arc` so a
/// staged pipeline can hand the same computed oracle to several
/// configuration runs (and clients) without recomputing or cloning it.
#[derive(Clone, Debug)]
pub enum MhpBackend {
    /// The interleaving analysis (every configuration but *No-Interleaving*).
    Interleaving(Arc<Interleaving>),
    /// The procedure-level fallback (*No-Interleaving* and NonSparse).
    Pcg(Arc<ProcMhp>),
}

impl MhpBackend {
    /// The interleaving analysis, when this backend carries one.
    pub fn interleaving(&self) -> Option<&Interleaving> {
        match self {
            MhpBackend::Interleaving(i) => Some(i),
            MhpBackend::Pcg(_) => None,
        }
    }

    /// The PCG baseline, when this backend carries one.
    pub fn pcg(&self) -> Option<&ProcMhp> {
        match self {
            MhpBackend::Interleaving(_) => None,
            MhpBackend::Pcg(p) => Some(p),
        }
    }

    /// The backend as a plain oracle trait object.
    pub fn oracle(&self) -> &dyn MhpOracle {
        match self {
            MhpBackend::Interleaving(i) => i.as_ref(),
            MhpBackend::Pcg(p) => p.as_ref(),
        }
    }
}

impl MhpOracle for MhpBackend {
    fn instances(&self, s: StmtId) -> Vec<(ThreadId, CtxId)> {
        self.oracle().instances(s)
    }

    fn mhp_stmt(&self, s1: StmtId, s2: StmtId) -> bool {
        self.oracle().mhp_stmt(s1, s2)
    }

    fn mhp_instances(
        &self,
        icfg: &Icfg,
        i1: (ThreadId, CtxId, StmtId),
        i2: (ThreadId, CtxId, StmtId),
    ) -> bool {
        self.oracle().mhp_instances(icfg, i1, i2)
    }
}

/// Procedure-level MHP (the PCG baseline): two statements may happen in
/// parallel iff some pair of distinct threads executing their functions is
/// not ordered by happens-before — with no statement-level join or fork
/// positioning (a statement *after* a join in the master is still considered
/// parallel with the slaves, which is precisely the imprecision the paper's
/// interleaving phase removes, §4.4).
#[derive(Debug)]
pub struct ProcMhp {
    executors: HashMap<StmtId, Vec<ThreadId>>,
    /// `concurrent[a][b]` for thread pair (a, b).
    concurrent: Vec<Vec<bool>>,
    multi: Vec<bool>,
}

impl ProcMhp {
    /// Builds the procedure-level MHP relation.
    pub fn build(module: &Module, icfg: &Icfg, tm: &ThreadModel) -> ProcMhp {
        let n = tm.len();
        let mut concurrent = vec![vec![false; n]; n];
        for a in tm.threads() {
            for b in tm.threads() {
                if a.id == b.id {
                    continue;
                }
                let ordered = tm.are_siblings(a.id, b.id)
                    && (tm.happens_before(icfg, a.id, b.id) || tm.happens_before(icfg, b.id, a.id));
                concurrent[a.id.index()][b.id.index()] = !ordered;
            }
        }
        let mut executors = HashMap::new();
        for (sid, stmt) in module.stmts() {
            let ts = tm.threads_executing(stmt.func);
            if !ts.is_empty() {
                executors.insert(sid, ts);
            }
        }
        let multi = tm.threads().iter().map(|t| t.multi_forked).collect();
        ProcMhp {
            executors,
            concurrent,
            multi,
        }
    }

    fn threads_of(&self, s: StmtId) -> &[ThreadId] {
        self.executors.get(&s).map_or(&[], Vec::as_slice)
    }

    /// Threads executing each statement's function (the statement-level MHP
    /// inputs [`MhpBackend::relation`] factors).
    pub fn executors_map(&self) -> &HashMap<StmtId, Vec<ThreadId>> {
        &self.executors
    }

    /// Per-thread multi-forked flags, indexed by [`ThreadId::index`].
    pub fn multi_flags(&self) -> &[bool] {
        &self.multi
    }

    /// The symmetric thread-concurrency matrix.
    pub fn concurrent_matrix(&self) -> &[Vec<bool>] {
        &self.concurrent
    }
}

impl MhpOracle for ProcMhp {
    fn instances(&self, s: StmtId) -> Vec<(ThreadId, CtxId)> {
        self.threads_of(s)
            .iter()
            .map(|&t| (t, CtxId::EMPTY))
            .collect()
    }

    fn mhp_stmt(&self, s1: StmtId, s2: StmtId) -> bool {
        for &t1 in self.threads_of(s1) {
            for &t2 in self.threads_of(s2) {
                if t1 == t2 {
                    if self.multi[t1.index()] {
                        return true;
                    }
                } else if self.concurrent[t1.index()][t2.index()] {
                    return true;
                }
            }
        }
        false
    }

    fn mhp_instances(
        &self,
        _icfg: &Icfg,
        i1: (ThreadId, CtxId, StmtId),
        i2: (ThreadId, CtxId, StmtId),
    ) -> bool {
        let (t1, _, _) = i1;
        let (t2, _, _) = i2;
        if t1 == t2 {
            self.multi[t1.index()]
        } else {
            self.concurrent[t1.index()][t2.index()]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsam_andersen::PreAnalysis;
    use fsam_ir::parse::parse_module;
    use fsam_ir::StmtKind;

    #[test]
    fn proc_level_is_coarser_than_interleaving() {
        // Master-slave: statement after the join. The interleaving analysis
        // proves it sequential (see interleave::tests); PCG cannot.
        let src = r#"
            global g
            func worker() {
            entry:
              w = &g
              ret
            }
            func main() {
            entry:
              t = fork worker()
              join t
              after = &g
              ret
            }
        "#;
        let m = parse_module(src).unwrap();
        let pre = PreAnalysis::run(&m);
        let icfg = Icfg::build(&m, pre.call_graph());
        let tm = ThreadModel::build(&m, &pre, &icfg);
        let pcg = ProcMhp::build(&m, &icfg, &tm);
        let worker = m.func_by_name("worker").unwrap();
        let w = m
            .stmts()
            .find(|(_, s)| s.func == worker && matches!(s.kind, StmtKind::Addr { .. }))
            .unwrap()
            .0;
        let after = m
            .stmts()
            .filter(|(_, s)| {
                s.func == m.entry().unwrap() && matches!(s.kind, StmtKind::Addr { .. })
            })
            .last()
            .unwrap()
            .0;
        assert!(
            pcg.mhp_stmt(w, after),
            "PCG has no statement-level join precision"
        );
        assert!(
            !pcg.mhp_stmt(w, w),
            "single-forked thread not self-parallel"
        );
    }

    #[test]
    fn backend_delegates_to_its_oracle() {
        let src = r#"
            global g
            func worker() {
            entry:
              w = &g
              ret
            }
            func main() {
            entry:
              t = fork worker()
              join t
              after = &g
              ret
            }
        "#;
        let m = parse_module(src).unwrap();
        let pre = PreAnalysis::run(&m);
        let icfg = Icfg::build(&m, pre.call_graph());
        let tm = ThreadModel::build(&m, &pre, &icfg);
        let backend = MhpBackend::Pcg(Arc::new(ProcMhp::build(&m, &icfg, &tm)));
        assert!(backend.pcg().is_some());
        assert!(backend.interleaving().is_none());
        let w = m
            .stmts()
            .find(|(_, s)| s.func == m.func_by_name("worker").unwrap())
            .unwrap()
            .0;
        let after = m
            .stmts()
            .filter(|(_, s)| s.func == m.entry().unwrap())
            .last()
            .unwrap()
            .0;
        // The enum answers exactly like the oracle it wraps.
        assert_eq!(
            backend.mhp_stmt(w, after),
            backend.oracle().mhp_stmt(w, after)
        );
        assert_eq!(backend.instances(w), backend.oracle().instances(w));
    }

    #[test]
    fn hb_ordered_siblings_are_sequential_even_for_pcg() {
        let src = r#"
            global g
            func a() {
            entry:
              sa = &g
              ret
            }
            func b() {
            entry:
              sb = &g
              ret
            }
            func main() {
            entry:
              t1 = fork a()
              join t1
              t2 = fork b()
              join t2
              ret
            }
        "#;
        let m = parse_module(src).unwrap();
        let pre = PreAnalysis::run(&m);
        let icfg = Icfg::build(&m, pre.call_graph());
        let tm = ThreadModel::build(&m, &pre, &icfg);
        let pcg = ProcMhp::build(&m, &icfg, &tm);
        let sa = m
            .stmts()
            .find(|(_, s)| s.func == m.func_by_name("a").unwrap())
            .unwrap()
            .0;
        let sb = m
            .stmts()
            .find(|(_, s)| s.func == m.func_by_name("b").unwrap())
            .unwrap()
            .0;
        assert!(!pcg.mhp_stmt(sa, sb), "t1 > t2 orders the siblings");
    }
}
