//! A deadlock-detection client built on FSAM's results.
//!
//! Deadlock detection is among the clients the paper motivates FSAM with
//! (§1, citing Gadara \[30\]). This module implements the classic
//! *lock-order-graph* check on top of the pipeline's analyses:
//!
//! * the lock analysis supplies, for every context-sensitive acquisition
//!   instance, the set of locks already held (must-held, singleton locks
//!   only — the paper's `l ≡ l'` condition);
//! * an edge `l1 → l2` means some thread acquires `l2` while holding `l1`;
//! * two acquisitions in *opposite order* by two instances that may happen
//!   in parallel (interleaving analysis) are a potential deadlock;
//! * larger cycles in the lock-order graph are reported as warnings
//!   (without the pairwise MHP justification).

use std::collections::HashMap;

use fsam_ir::icfg::NodeKind;
use fsam_ir::{Module, StmtId, StmtKind};
use fsam_pts::MemId;
use fsam_threads::mhp::MhpOracle;

use crate::pipeline::Fsam;

/// A potential ABBA deadlock: two parallel acquisitions in opposite order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Deadlock {
    /// First lock object.
    pub lock_a: MemId,
    /// Second lock object.
    pub lock_b: MemId,
    /// Acquisition of `lock_b` while holding `lock_a`.
    pub site_ab: StmtId,
    /// Acquisition of `lock_a` while holding `lock_b`.
    pub site_ba: StmtId,
}

impl Deadlock {
    /// Human-readable rendering.
    pub fn render(&self, module: &Module, fsam: &Fsam) -> String {
        let name = |o| fsam.pre.objects().display_name(module, o);
        format!(
            "potential deadlock between `{}` and `{}`: {} (holding {}) || {} (holding {})",
            name(self.lock_a),
            name(self.lock_b),
            module.describe_stmt(self.site_ab),
            name(self.lock_a),
            module.describe_stmt(self.site_ba),
            name(self.lock_b),
        )
    }
}

/// A lock-order cycle of length ≥ 3 — a deadlock pattern no ABBA pair
/// check can see (e.g. `la → lb → lc → la` across three threads).
///
/// `locks[i]` is held while `sites[i]` acquires `locks[(i + 1) % len]`.
/// The cycle is canonical: it starts at its smallest lock and every other
/// lock on it is larger, so each simple cycle is enumerated exactly once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockCycle {
    /// The locks on the cycle, starting from the smallest.
    pub locks: Vec<MemId>,
    /// One acquisition site per edge (`sites[i]` acquires the next lock
    /// while holding `locks[i]`); the smallest such site is chosen.
    pub sites: Vec<StmtId>,
}

impl LockCycle {
    /// Human-readable rendering.
    pub fn render(&self, module: &Module, fsam: &Fsam) -> String {
        let name = |o| fsam.pre.objects().display_name(module, o);
        let ring = self
            .locks
            .iter()
            .chain(self.locks.first())
            .map(|&l| format!("`{}`", name(l)))
            .collect::<Vec<_>>()
            .join(" -> ");
        let sites = self
            .sites
            .iter()
            .map(|&s| module.describe_stmt(s))
            .collect::<Vec<_>>()
            .join("; ");
        format!("potential deadlock cycle {ring}: acquisitions at {sites}")
    }
}

/// The context-sensitive lock-order graph: `(held, acquired)` →
/// acquisition statements, over must-held locksets and singleton lock
/// objects. Empty when the lock analysis did not run.
///
/// This is the shared substrate for the cycle check ([`detect_cycles`]) and
/// the `fsam-lint` deadlock checkers (FL0002's ABBA pair check rides these
/// edges, as does the engine-backed `fsam_query::detect_deadlocks`).
pub fn lock_order_edges(module: &Module, fsam: &Fsam) -> HashMap<(MemId, MemId), Vec<StmtId>> {
    let mut edges: HashMap<(MemId, MemId), Vec<StmtId>> = HashMap::new();
    let Some(lock) = &fsam.lock else {
        return edges;
    };
    let oracle: &dyn MhpOracle = &fsam.mhp;
    for (sid, stmt) in module.stmts() {
        let StmtKind::Lock { lock: lvar } = stmt.kind else {
            continue;
        };
        let Some(acquired) = fsam.pre.must_lock_obj(lvar) else {
            continue;
        };
        let node = fsam.icfg.stmt_node(sid);
        debug_assert!(matches!(fsam.icfg.kind(node), NodeKind::Stmt(_)));
        for (t, c) in oracle.instances(sid) {
            for &held in lock.held_at(&fsam.icfg, t, c, sid) {
                if held != acquired {
                    let entry = edges.entry((held, acquired)).or_default();
                    if !entry.contains(&sid) {
                        entry.push(sid);
                    }
                }
            }
        }
    }
    edges
}

/// Upper bound on reported cycles — the lock-order graphs of real
/// programs are tiny, so hitting this means something degenerate.
const MAX_CYCLES: usize = 64;

/// Detects simple lock-order cycles of length ≥ 3.
///
/// Two-cycles are the ABBA pairs of the `fsam-lint` FL0002 checker (with
/// their per-site MHP justification) and are deliberately excluded here to
/// avoid duplicate reports. Enumeration is canonical — each cycle is rooted at its
/// smallest lock and the DFS only extends through larger locks — and
/// capped at `MAX_CYCLES` (64). Results are sorted by lock sequence.
pub fn detect_cycles(module: &Module, fsam: &Fsam) -> Vec<LockCycle> {
    let edges = lock_order_edges(module, fsam);
    let mut adj: HashMap<MemId, Vec<MemId>> = HashMap::new();
    for &(from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    for succs in adj.values_mut() {
        succs.sort();
        succs.dedup();
    }
    let mut starts: Vec<MemId> = adj.keys().copied().collect();
    starts.sort();

    fn dfs(
        cur: MemId,
        start: MemId,
        adj: &HashMap<MemId, Vec<MemId>>,
        path: &mut Vec<MemId>,
        cycles: &mut Vec<Vec<MemId>>,
    ) {
        if cycles.len() >= MAX_CYCLES {
            return;
        }
        for &next in adj.get(&cur).map_or(&[][..], Vec::as_slice) {
            if next == start {
                if path.len() >= 3 {
                    cycles.push(path.clone());
                }
            } else if next > start && !path.contains(&next) {
                path.push(next);
                dfs(next, start, adj, path, cycles);
                path.pop();
            }
        }
    }

    let mut cycles: Vec<Vec<MemId>> = Vec::new();
    for &start in &starts {
        if cycles.len() >= MAX_CYCLES {
            break;
        }
        let mut path = vec![start];
        dfs(start, start, &adj, &mut path, &mut cycles);
    }

    let mut out: Vec<LockCycle> = cycles
        .into_iter()
        .map(|locks| {
            let sites = (0..locks.len())
                .map(|i| {
                    let edge = (locks[i], locks[(i + 1) % locks.len()]);
                    *edges[&edge].iter().min().expect("edge has a site")
                })
                .collect();
            LockCycle { locks, sites }
        })
        .collect();
    out.sort_by(|a, b| a.locks.cmp(&b.locks));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    use fsam_ir::parse::parse_module;

    /// Reference ABBA enumeration for these tests: opposite-order
    /// lock-order edges whose acquisition sites may happen in parallel.
    /// The shipping detectors (`fsam-lint` FL0002,
    /// `fsam_query::detect_deadlocks`) ride the same [`lock_order_edges`]
    /// substrate; spelling the pair walk out here keeps that substrate
    /// covered without them.
    fn abba(module: &Module, fsam: &Fsam) -> Vec<Deadlock> {
        if fsam.lock.is_none() {
            return Vec::new();
        }
        let edges = lock_order_edges(module, fsam);
        let mut out = Vec::new();
        let mut seen: HashSet<(MemId, MemId, StmtId, StmtId)> = HashSet::new();
        for (&(a, b), sites_ab) in &edges {
            if a >= b {
                continue; // each unordered lock pair once
            }
            let Some(sites_ba) = edges.get(&(b, a)) else {
                continue;
            };
            for &s_ab in sites_ab {
                for &s_ba in sites_ba {
                    if fsam.mhp_rel.related(s_ab, s_ba) && seen.insert((a, b, s_ab, s_ba)) {
                        out.push(Deadlock {
                            lock_a: a,
                            lock_b: b,
                            site_ab: s_ab,
                            site_ba: s_ba,
                        });
                    }
                }
            }
        }
        out.sort_by_key(|d| (d.site_ab, d.site_ba));
        out
    }

    fn detect_in(src: &str) -> (Module, Fsam, Vec<Deadlock>) {
        let m = parse_module(src).unwrap();
        let fsam = Fsam::analyze(&m);
        let dl = abba(&m, &fsam);
        (m, fsam, dl)
    }

    #[test]
    fn abba_pattern_is_detected() {
        let (m, fsam, dl) = detect_in(
            r#"
            global la
            global lb
            global data
            func t1body() {
            entry:
              a = &la
              b = &lb
              p = &data
              lock a
              lock b        // holds la, acquires lb
              v = load p
              unlock b
              unlock a
              ret
            }
            func t2body() {
            entry:
              a = &la
              b = &lb
              p = &data
              lock b
              lock a        // holds lb, acquires la: opposite order
              v = load p
              unlock a
              unlock b
              ret
            }
            func main() {
            entry:
              t1 = fork t1body()
              t2 = fork t2body()
              join t1
              join t2
              ret
            }
        "#,
        );
        assert_eq!(dl.len(), 1, "{dl:?}");
        let rendered = dl[0].render(&m, &fsam);
        assert!(
            rendered.contains("la") && rendered.contains("lb"),
            "{rendered}"
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let (_, _, dl) = detect_in(
            r#"
            global la
            global lb
            func w() {
            entry:
              a = &la
              b = &lb
              lock a
              lock b
              unlock b
              unlock a
              ret
            }
            func main() {
            entry:
              t1 = fork w()
              t2 = fork w()
              join t1
              join t2
              ret
            }
        "#,
        );
        assert!(dl.is_empty(), "consistent lock order: {dl:?}");
    }

    #[test]
    fn sequential_opposite_order_is_clean() {
        // Opposite orders that can never run in parallel don't deadlock.
        let (_, _, dl) = detect_in(
            r#"
            global la
            global lb
            func first() {
            entry:
              a = &la
              b = &lb
              lock a
              lock b
              unlock b
              unlock a
              ret
            }
            func second() {
            entry:
              a = &la
              b = &lb
              lock b
              lock a
              unlock a
              unlock b
              ret
            }
            func main() {
            entry:
              t1 = fork first()
              join t1          // first is dead before second starts
              t2 = fork second()
              join t2
              ret
            }
        "#,
        );
        assert!(dl.is_empty(), "HB-ordered threads cannot deadlock: {dl:?}");
    }

    #[test]
    fn three_lock_cycle_is_detected() {
        // la -> lb -> lc -> la across three threads: invisible to the
        // ABBA pair check, caught by the cycle enumeration.
        let (m, fsam, dl) = detect_in(
            r#"
            global la
            global lb
            global lc
            func w1() {
            entry:
              a = &la
              b = &lb
              lock a
              lock b        // la -> lb
              unlock b
              unlock a
              ret
            }
            func w2() {
            entry:
              b = &lb
              c = &lc
              lock b
              lock c        // lb -> lc
              unlock c
              unlock b
              ret
            }
            func w3() {
            entry:
              c = &lc
              a = &la
              lock c
              lock a        // lc -> la
              unlock a
              unlock c
              ret
            }
            func main() {
            entry:
              t1 = fork w1()
              t2 = fork w2()
              t3 = fork w3()
              join t1
              join t2
              join t3
              ret
            }
        "#,
        );
        assert!(dl.is_empty(), "no 2-cycle here: {dl:?}");
        let cycles = detect_cycles(&m, &fsam);
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert_eq!(cycles[0].locks.len(), 3);
        assert_eq!(cycles[0].sites.len(), 3);
        let rendered = cycles[0].render(&m, &fsam);
        assert!(
            rendered.contains("la") && rendered.contains("lb") && rendered.contains("lc"),
            "{rendered}"
        );
    }

    #[test]
    fn abba_is_not_reported_as_a_cycle() {
        let (m, fsam, dl) = detect_in(
            r#"
            global la
            global lb
            func t1body() {
            entry:
              a = &la
              b = &lb
              lock a
              lock b
              unlock b
              unlock a
              ret
            }
            func t2body() {
            entry:
              a = &la
              b = &lb
              lock b
              lock a
              unlock a
              unlock b
              ret
            }
            func main() {
            entry:
              t1 = fork t1body()
              t2 = fork t2body()
              join t1
              join t2
              ret
            }
        "#,
        );
        assert_eq!(dl.len(), 1, "{dl:?}");
        assert!(
            detect_cycles(&m, &fsam).is_empty(),
            "2-cycles belong to the ABBA check"
        );
    }

    #[test]
    fn no_locks_no_deadlocks() {
        let (_, _, dl) = detect_in(
            r#"
            global g
            func w() {
            entry:
              p = &g
              ret
            }
            func main() {
            entry:
              t = fork w()
              join t
              ret
            }
        "#,
        );
        assert!(dl.is_empty());
    }
}
