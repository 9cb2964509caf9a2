//! Data-race primitives shared by FSAM's race-detection clients.
//!
//! The paper names race detection as the first intended client (§1, §6:
//! "we plan to evaluate the effectiveness of FSAM in helping bug-detection
//! tools in detecting concurrency bugs such as data races"). A pair
//! `(store s, access s')` on a common abstract object races when
//! * some pair of their context-sensitive instances may happen in parallel
//!   (interleaving analysis), and
//! * that instance pair does not hold a common lock (lock analysis).
//!
//! The enumerating detectors live downstream: the `fsam-lint` registry
//! (checker FL0001, backed by the staged reducer) and the engine-backed
//! `fsam_query::detect_races`. This module provides what they share — the
//! [`Race`] report type and the instance-level lockset × MHP check
//! [`racy_instances`].

use fsam_ir::{Module, StmtId};
use fsam_pts::MemId;
use fsam_threads::mhp::MhpOracle;

use crate::pipeline::Fsam;

/// One potential data race.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Race {
    /// The writing statement.
    pub store: StmtId,
    /// The racing access (load or store).
    pub access: StmtId,
    /// The abstract object both may touch.
    pub obj: MemId,
}

impl Race {
    /// Human-readable rendering, e.g. for the race-detection example.
    pub fn render(&self, module: &Module, fsam: &Fsam) -> String {
        format!(
            "race on `{}`: write at {} || access at {}",
            fsam.pre.objects().display_name(module, self.obj),
            module.describe_stmt(self.store),
            module.describe_stmt(self.access),
        )
    }
}

/// Whether some MHP instance pair of `(s, a)` lacks a common lock.
///
/// Public so engine-backed clients (`fsam-query`) can reuse the
/// instance-level refinement after answering the statement-level queries
/// from a snapshot.
pub fn racy_instances(module_fsam: &Fsam, oracle: &dyn MhpOracle, s: StmtId, a: StmtId) -> bool {
    let icfg = &module_fsam.icfg;
    let is1 = oracle.instances(s);
    let is2 = oracle.instances(a);
    for &(t1, c1) in &is1 {
        for &(t2, c2) in &is2 {
            let i1 = (t1, c1, s);
            let i2 = (t2, c2, a);
            if !oracle.mhp_instances(icfg, i1, i2) {
                continue;
            }
            match &module_fsam.lock {
                Some(lock) => {
                    if !lock.commonly_protected(icfg, i1, i2) {
                        return true;
                    }
                }
                None => return true,
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    use fsam_ir::parse::parse_module;
    use fsam_ir::StmtKind;

    /// Reference enumeration for these tests: the classic lockset × MHP
    /// check over the flow-sensitive sets, spelled out pair by pair. The
    /// shipping detectors (`fsam-lint` FL0001, `fsam_query::detect_races`)
    /// report the same races in factored/grouped form; here the point is to
    /// exercise `racy_instances` against known-racy and known-clean
    /// programs without any of that machinery.
    fn enumerate(module: &Module, fsam: &Fsam) -> Vec<Race> {
        let oracle: &dyn MhpOracle = &fsam.mhp;
        let shared = fsam_threads::SharedObjects::compute(module, &fsam.pre);
        let mut stores_of: HashMap<MemId, Vec<StmtId>> = HashMap::new();
        let mut accesses_of: HashMap<MemId, Vec<StmtId>> = HashMap::new();
        for (sid, stmt) in module.stmts() {
            match stmt.kind {
                StmtKind::Store { ptr, .. } => {
                    for o in fsam.result.pt_var(ptr).iter() {
                        stores_of.entry(o).or_default().push(sid);
                        accesses_of.entry(o).or_default().push(sid);
                    }
                }
                StmtKind::Load { ptr, .. } => {
                    for o in fsam.result.pt_var(ptr).iter() {
                        accesses_of.entry(o).or_default().push(sid);
                    }
                }
                _ => {}
            }
        }
        let mut races = Vec::new();
        let mut objects: Vec<MemId> = stores_of.keys().copied().collect();
        objects.sort();
        for o in objects {
            if fsam.pre.objects().as_thread_handle(o).is_some() {
                continue;
            }
            if !shared.is_shared(&fsam.pre, o) {
                continue;
            }
            let stores = &stores_of[&o];
            let accesses = accesses_of.get(&o).map_or(&[][..], Vec::as_slice);
            let store_set: HashSet<StmtId> = stores.iter().copied().collect();
            for &s in stores {
                for &a in accesses {
                    // Store/store pairs appear in both orders; keep one.
                    if store_set.contains(&a) && s > a {
                        continue;
                    }
                    if !fsam.mhp_rel.related(s, a) {
                        continue;
                    }
                    if racy_instances(fsam, oracle, s, a) {
                        races.push(Race {
                            store: s,
                            access: a,
                            obj: o,
                        });
                    }
                }
            }
        }
        races.sort_by_key(|r| (r.store, r.access, r.obj));
        races.dedup();
        races
    }

    fn races_of(src: &str) -> (Module, Fsam, Vec<Race>) {
        let m = parse_module(src).unwrap();
        let fsam = Fsam::analyze(&m);
        let races = enumerate(&m, &fsam);
        (m, fsam, races)
    }

    #[test]
    fn unprotected_parallel_write_is_a_race() {
        let (m, fsam, races) = races_of(
            r#"
            global counter
            func worker() {
            entry:
              p = &counter
              v = load p
              store p, v
              ret
            }
            func main() {
            entry:
              q = &counter
              t = fork worker()
              c = load q
              join t
              ret
            }
        "#,
        );
        assert!(!races.is_empty(), "write in worker races with main's read");
        let rendered = races[0].render(&m, &fsam);
        assert!(rendered.contains("counter"), "{rendered}");
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        let (_, _, races) = races_of(
            r#"
            global counter
            global mu
            func worker() {
            entry:
              p = &counter
              l = &mu
              lock l
              v = load p
              store p, v
              unlock l
              ret
            }
            func main() {
            entry:
              q = &counter
              l2 = &mu
              t = fork worker()
              lock l2
              c = load q
              unlock l2
              join t
              ret
            }
        "#,
        );
        assert!(
            races.is_empty(),
            "consistent locking: no races, got {races:?}"
        );
    }

    #[test]
    fn post_join_access_does_not_race() {
        let (_, _, races) = races_of(
            r#"
            global counter
            func worker() {
            entry:
              p = &counter
              store p, p
              ret
            }
            func main() {
            entry:
              q = &counter
              t = fork worker()
              join t
              c = load q
              ret
            }
        "#,
        );
        assert!(
            races.is_empty(),
            "access after join is ordered, got {races:?}"
        );
    }

    #[test]
    fn inconsistent_locking_races() {
        let (_, _, races) = races_of(
            r#"
            global counter
            global mu
            func worker() {
            entry:
              p = &counter
              l = &mu
              lock l
              store p, p
              unlock l
              ret
            }
            func main() {
            entry:
              q = &counter
              t = fork worker()
              c = load q     // no lock held: races with worker's store
              join t
              ret
            }
        "#,
        );
        assert_eq!(races.len(), 1, "{races:?}");
    }

    /// Regression: a race must be reported even when the store's statement
    /// id is larger than the load's (the pair only enumerates store-first).
    #[test]
    fn store_after_load_in_program_order_still_races() {
        let (_, _, races) = races_of(
            r#"
            global counter
            func main_reader() {
            entry:
              q = &counter
              snapshot = load q   // load has the smaller statement id
              ret
            }
            func writer() {
            entry:
              p = &counter
              store p, p          // store has the larger statement id
              ret
            }
            func main() {
            entry:
              t1 = fork main_reader()
              t2 = fork writer()
              join t1
              join t2
              ret
            }
        "#,
        );
        assert_eq!(races.len(), 1, "{races:?}");
    }

    #[test]
    fn sequential_program_has_no_races() {
        let (_, _, races) = races_of(
            r#"
            global g
            func main() {
            entry:
              p = &g
              store p, p
              c = load p
              ret
            }
        "#,
        );
        assert!(races.is_empty());
    }
}
