//! Vector-clock happens-before analysis over the abstract thread model.
//!
//! A peer of the MHP stage: where MHP answers "may these two statements run
//! concurrently", this pass answers the stronger *must* question "is one of
//! them guaranteed to complete before the other starts" — the property that
//! lets the lint funnel retire FL0001 candidates ordered by condvar,
//! barrier, or release→acquire atomic synchronization before any
//! flow-sensitive alias query runs (DESIGN §1.9).
//!
//! # Clocks and certificates
//!
//! Each abstract thread `t` gets a *must-sync chain*: the sync intrinsics of
//! its routine whose blocks dominate every reachable `ret` block and sit in
//! no CFG cycle. Such events execute exactly once per run, and — because two
//! acyclic all-exit-dominating blocks that don't dominate each other would
//! have to form a cycle — they are totally ordered by dominance. Progress of
//! `t` is measured on a half-step counter over that chain: *arrival* at
//! chain event `i` is certificate `2i−1`, *completion* is `2i`, and thread
//! exit is a virtual event with arrival `2K+1` (for a `K`-event chain).
//!
//! A [`VecClock`] maps every abstract thread to a certificate: component
//! `u = v` claims "all of `u`'s events with certificate ≤ `v` have
//! completed". The analysis computes, for each thread and chain position,
//! the clock that must hold when that event completes, by a descending
//! (greatest-fixpoint-style) iteration over the synchronization edges:
//!
//! - **fork**: the child's entry clock is the spawner's clock at the fork
//!   site (own component zeroed if the spawner is multi-forked);
//! - **join**: a join chain event receives the *meet* over the exit clocks
//!   of every thread the handle may resolve to — the join returned, so one
//!   of them finished, and the meet under-approximates whichever it was;
//! - **signal→wait**: FIR condvars are sticky events, so a returned `wait`
//!   means *some* may-aliasing `signal`/`broadcast` site executed; the wait
//!   receives the meet over all such publishers' pre-clocks;
//! - **barrier phases**: when a barrier group is statically well-formed
//!   (init count equals the participant count, every participant is a
//!   non-multi-forked thread whose waits are chain events, and all
//!   participants perform the same number of waits), the `k`-th wait of
//!   each participant receives the *join* over every participant's `k`-th
//!   arrival clock — all arrivals of a phase precede all departures;
//! - **release→acquire atomics**: the blocking `atomic_rmw` returns only
//!   once the cell is non-zero, so it receives the meet over the publish
//!   clocks of every may-aliasing `atomic_store`/`atomic_rmw` site. A
//!   release-ordered writer publishes its pre-clock; a relaxed writer
//!   publishes ⊥ (killing the edge); an `atomic_rmw` *passes through* the
//!   clock it acquired (the FIR analogue of a C11 release sequence), plus
//!   its own pre-clock when release-ordered.
//!
//! Plain `lock`/`unlock` hand-off contributes **no** must-edges: the first
//! acquisition of a mutex has no prior releaser, so the meet over
//! publishers necessarily includes ⊥. Mutual exclusion stays the lockset
//! stage's job; HB only models the ordering primitives above.
//!
//! Any solution `x ≤ F(x)` of the edge equations is sound: inducting over
//! a concrete trace in temporal order, every receive that actually returns
//! was enabled by a publisher that completed strictly earlier, whose claim
//! holds by induction — self-supporting cycles (deadlocks) never complete,
//! so their claims are vacuous. The descending iteration therefore
//! converges to the most precise sound solution reachable from ⊤.
//!
//! # Factored form
//!
//! Whether `s1` and `s2` are ordered depends only on a small
//! per-statement key: for each executor `t`, the index of the last chain
//! event dominating the statement (whose clock is the statement's
//! *pre-clock*) and the statement's completion certificate (`post`).
//! Statements sharing a key are HB-indistinguishable, so the quadratic
//! relation factors into the same [`RegionRelation`] MHP uses: a
//! statement → region map plus a region × region symmetric bitmatrix. No
//! statement × statement pair set is ever materialized.
//!
//! Modules containing no sync intrinsics gate to [`HbFacts::empty`], which
//! orders nothing: downstream consumers behave bit-identically to the
//! pre-HB pipeline on such programs.

use std::collections::HashMap;

use fsam_andersen::PreAnalysis;
use fsam_ir::dom::DomTree;
use fsam_ir::{BlockId, FuncId, Module, StmtId, StmtKind, Terminator, VarId};

use crate::model::{ThreadId, ThreadModel};
use crate::relation::RegionRelation;

/// A vector clock: one certificate per abstract thread. Component `u = v`
/// claims that all of thread `u`'s timeline events with certificate ≤ `v`
/// have completed (module docs). The lattice is pointwise: `join` is
/// pointwise max, `meet` pointwise min, and [`VecClock::happens_before`]
/// the induced strict order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VecClock {
    c: Vec<u32>,
}

impl VecClock {
    /// The bottom clock (no knowledge) of the given width.
    pub fn bottom(width: usize) -> VecClock {
        VecClock { c: vec![0; width] }
    }

    /// Number of components — always the abstract-thread count.
    pub fn width(&self) -> usize {
        self.c.len()
    }

    /// The certificate claimed for thread index `i`.
    pub fn get(&self, i: usize) -> u32 {
        self.c[i]
    }

    /// Overwrites the certificate for thread index `i`.
    pub fn set(&mut self, i: usize, v: u32) {
        self.c[i] = v;
    }

    /// Pointwise maximum. Widths must match.
    pub fn join(&self, other: &VecClock) -> VecClock {
        debug_assert_eq!(self.width(), other.width());
        VecClock {
            c: self
                .c
                .iter()
                .zip(&other.c)
                .map(|(&a, &b)| a.max(b))
                .collect(),
        }
    }

    /// Pointwise minimum. Widths must match.
    pub fn meet(&self, other: &VecClock) -> VecClock {
        debug_assert_eq!(self.width(), other.width());
        VecClock {
            c: self
                .c
                .iter()
                .zip(&other.c)
                .map(|(&a, &b)| a.min(b))
                .collect(),
        }
    }

    /// Pointwise `≤`.
    pub fn leq(&self, other: &VecClock) -> bool {
        debug_assert_eq!(self.width(), other.width());
        self.c.iter().zip(&other.c).all(|(&a, &b)| a <= b)
    }

    /// The strict order induced by the pointwise lattice: `self ≤ other`
    /// and the two differ. Irreflexive, asymmetric, transitive — the
    /// property tests below pin all three.
    pub fn happens_before(&self, other: &VecClock) -> bool {
        self.leq(other) && self != other
    }
}

/// Statement-level must-happens-before factored as a [`RegionRelation`]
/// (module docs), which it dereferences to: `related(s1, s2)` means that in
/// every execution, for each pair of distinct thread instances running the
/// two statements, one statement's executions all complete before the other
/// statement runs. Statements without a region (dead code, or an
/// [`HbFacts::empty`] gate) answer `false`: no ordering is claimed.
#[derive(Clone, Debug, PartialEq)]
pub struct HbFacts {
    rel: RegionRelation,
    /// Abstract-thread count the clocks were built over (trace counter).
    threads: u32,
    /// Total must-sync chain events across all threads (trace counter).
    chain_events: u32,
}

impl HbFacts {
    /// The no-knowledge relation: nothing is ordered. Produced for modules
    /// without sync intrinsics and by the `--no-hb` ablation; consumers see
    /// the pre-HB pipeline bit-for-bit.
    pub fn empty() -> HbFacts {
        HbFacts::from_relation(RegionRelation::default(), 0, 0)
    }

    /// Builds the relation for `module`. Gates to [`HbFacts::empty`] when
    /// the module has no sync intrinsics (so fork/join-only programs keep
    /// their exact pre-HB diagnostics) or fewer than two abstract threads.
    pub fn build(module: &Module, pre: &PreAnalysis, tm: &ThreadModel) -> HbFacts {
        if tm.len() < 2 || !module.stmts().any(|(_, s)| s.is_sync_intrinsic()) {
            return HbFacts::empty();
        }
        let analysis = Analysis::solve(module, pre, tm);
        analysis.factor(module, tm)
    }

    /// Wraps an ordered-pair relation (built here, or decoded with
    /// [`RegionRelation::from_parts`]) with the clock dimensions it was
    /// solved over.
    pub fn from_relation(rel: RegionRelation, threads: u32, chain_events: u32) -> HbFacts {
        HbFacts {
            rel,
            threads,
            chain_events,
        }
    }

    /// Abstract-thread count the clocks span.
    pub fn thread_count(&self) -> u32 {
        self.threads
    }

    /// Total must-sync chain events across all threads.
    pub fn chain_event_count(&self) -> u32 {
        self.chain_events
    }

    /// Exports the factored-form counters onto `span` under the `hb.`
    /// namespace, mirroring `mhp.*`: region/matrix sizes plus the clock
    /// dimensions, the evidence that no pair set was materialized.
    pub fn export_trace(&self, span: &fsam_trace::Span<'_>) {
        self.rel.export_trace(
            span,
            [
                "hb.regions",
                "hb.region_stmts",
                "hb.matrix_bits",
                "hb.ordered_bits",
            ],
        );
        span.counter("hb.threads", self.threads as u64);
        span.counter("hb.chain_events", self.chain_events as u64);
    }
}

impl std::ops::Deref for HbFacts {
    type Target = RegionRelation;

    fn deref(&self) -> &RegionRelation {
        &self.rel
    }
}

/// The HB-equivalence key of one statement: `(raw thread id, pre-clock
/// chain index, post certificate)` per executor, in ascending thread order.
/// The pair formula in [`keys_ordered`] reads nothing else.
type RegionKey = Vec<(u32, u32, u32)>;

/// The must-sync chain of one thread: chain events in dominance order,
/// positions 1-based (`events[i-1]` is position `i`).
struct Chain {
    events: Vec<StmtId>,
    /// StmtId → 1-based chain position.
    pos_of: HashMap<StmtId, usize>,
    /// `(block, in-block position)` of each event, aligned with `events`.
    locs: Vec<(BlockId, usize)>,
}

impl Chain {
    fn len(&self) -> usize {
        self.events.len()
    }
}

/// Per-routine CFG facts the chain and certificate computations need.
struct FuncCfg {
    dom: DomTree,
    /// `reach[a][b]`: a path of length ≥ 1 from block `a` to block `b`.
    reach: Vec<Vec<bool>>,
}

impl FuncCfg {
    fn compute(func: &fsam_ir::Function) -> FuncCfg {
        let dom = DomTree::compute(func);
        let n = func.blocks.len();
        let succs: Vec<Vec<usize>> = (0..n)
            .map(|b| {
                func.blocks[BlockId::from_usize(b)]
                    .term
                    .successors()
                    .map(|s| s.index())
                    .collect()
            })
            .collect();
        let mut reach = vec![vec![false; n]; n];
        for a in 0..n {
            let mut stack: Vec<usize> = succs[a].clone();
            while let Some(b) = stack.pop() {
                if reach[a][b] {
                    continue;
                }
                reach[a][b] = true;
                stack.extend(succs[b].iter().copied());
            }
        }
        FuncCfg { dom, reach }
    }
}

/// One statically-validated barrier group (module docs): every member wait
/// is a chain event, participants are non-multi-forked, wait counts agree,
/// and the init count equals the participant count.
struct BarrierGroup {
    valid: bool,
    /// Thread index → its group waits' chain positions, in chain order
    /// (ordinal `k` ⇒ phase `k`).
    phases: HashMap<usize, Vec<usize>>,
}

/// A publisher to a sticky condvar event: `(site, cond var)`.
struct SignalSite {
    stmt: StmtId,
    cond: VarId,
    execs: Vec<ThreadId>,
}

/// A writer to an atomic cell: publish semantics depend on `release` and,
/// for RMWs, on the clock the site itself acquired (pass-through).
struct AtomicWrite {
    stmt: StmtId,
    ptr: VarId,
    release: bool,
    is_rmw: bool,
    execs: Vec<ThreadId>,
}

/// The solved clock state plus everything needed to factor it.
struct Analysis {
    chains: Vec<Chain>,
    /// `states[t][i]`: clock holding once thread `t`'s chain event `i`
    /// completes (`states[t][0]` is the entry clock).
    states: Vec<Vec<VecClock>>,
    multi: Vec<bool>,
    cfgs: HashMap<FuncId, FuncCfg>,
}

impl Analysis {
    fn solve(module: &Module, pre: &PreAnalysis, tm: &ThreadModel) -> Analysis {
        let n = tm.len();
        let multi: Vec<bool> = tm.threads().iter().map(|t| t.multi_forked).collect();

        // Per-routine CFG facts and per-thread must-sync chains.
        let mut cfgs: HashMap<FuncId, FuncCfg> = HashMap::new();
        let mut chains: Vec<Chain> = Vec::with_capacity(n);
        for info in tm.threads() {
            let func = module.func(info.routine);
            if func.is_external {
                chains.push(Chain {
                    events: Vec::new(),
                    pos_of: HashMap::new(),
                    locs: Vec::new(),
                });
                continue;
            }
            let cfg = cfgs
                .entry(info.routine)
                .or_insert_with(|| FuncCfg::compute(func));
            chains.push(build_chain(module, func, cfg));
        }

        // Publisher site tables.
        let mut signals: Vec<SignalSite> = Vec::new();
        let mut atomics: Vec<AtomicWrite> = Vec::new();
        for (sid, s) in module.stmts() {
            let (cond, ptr, release, is_rmw) = match &s.kind {
                StmtKind::Signal { cond } | StmtKind::Broadcast { cond } => {
                    (Some(*cond), None, false, false)
                }
                StmtKind::AtomicStore { ptr, order, .. } => {
                    (None, Some(*ptr), order.is_release(), false)
                }
                StmtKind::AtomicRmw { ptr, order, .. } => {
                    (None, Some(*ptr), order.is_release(), true)
                }
                _ => continue,
            };
            let execs = tm.threads_executing(s.func);
            if execs.is_empty() {
                continue; // dead publishers never fire
            }
            if let Some(cond) = cond {
                signals.push(SignalSite {
                    stmt: sid,
                    cond,
                    execs,
                });
            } else if let Some(ptr) = ptr {
                atomics.push(AtomicWrite {
                    stmt: sid,
                    ptr,
                    release,
                    is_rmw,
                    execs,
                });
            }
        }

        let groups = barrier_groups(module, pre, tm, &chains, &multi);

        // Membership: (thread, chain position) → (group, ordinal).
        let mut barrier_of: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
        for (g, group) in groups.iter().enumerate() {
            for (&t, positions) in &group.phases {
                for (k, &pos) in positions.iter().enumerate() {
                    barrier_of.insert((t, pos), (g, k + 1));
                }
            }
        }

        // ⊤ clock: every component at its thread's exit-arrival
        // certificate — the largest value any claim can take.
        let top = VecClock {
            c: chains.iter().map(|c| 2 * c.len() as u32 + 1).collect(),
        };

        let mut states: Vec<Vec<VecClock>> = (0..n)
            .map(|t| {
                (0..=chains[t].len())
                    .map(|i| {
                        let mut v = top.clone();
                        v.set(t, 2 * i as u32);
                        v
                    })
                    .collect()
            })
            .collect();
        // Main has no spawner: its entry clock is ⊥ from the start.
        states[0][0] = VecClock::bottom(n);

        // Acquired-clock state of every (rmw site, executor) pair, for the
        // release-sequence pass-through publish.
        let mut rmw_inc: HashMap<(StmtId, usize), VecClock> = HashMap::new();
        for w in atomics.iter().filter(|w| w.is_rmw) {
            for &u in &w.execs {
                rmw_inc.insert((w.stmt, u.index()), top.clone());
            }
        }

        // Descending chaotic iteration: every update meets the old value
        // with the recomputed equation, so values strictly descend until
        // the solution satisfies x ≤ F(x) — sound per the module docs.
        loop {
            let mut changed = false;

            let rmw_keys: Vec<(StmtId, usize)> = rmw_inc.keys().copied().collect();
            for key in rmw_keys {
                let site_ptr = atomics
                    .iter()
                    .find(|w| w.stmt == key.0)
                    .map(|w| w.ptr)
                    .expect("rmw site registered");
                let inc = atomic_incoming(
                    site_ptr, pre, &atomics, &chains, &states, &multi, &rmw_inc, n,
                );
                let old = &rmw_inc[&key];
                let new = old.meet(&inc);
                if new != *old {
                    rmw_inc.insert(key, new);
                    changed = true;
                }
            }

            for t in 0..n {
                // Entry clock: the spawner's publish at the fork site.
                if t != 0 {
                    let info = &tm.threads()[t];
                    let mut entry = match (info.spawner, info.fork_site) {
                        (Some(sp), Some(site)) => {
                            publish_pre(site, sp.index(), &chains, &states, &multi)
                        }
                        _ => VecClock::bottom(n),
                    };
                    entry.set(t, 0);
                    let new = states[t][0].meet(&entry);
                    if new != states[t][0] {
                        states[t][0] = new;
                        changed = true;
                    }
                }

                for i in 1..=chains[t].len() {
                    let event = chains[t].events[i - 1];
                    let inc = incoming(
                        module,
                        pre,
                        tm,
                        event,
                        t,
                        i,
                        &signals,
                        &groups,
                        &barrier_of,
                        &chains,
                        &states,
                        &multi,
                        &rmw_inc,
                        n,
                    );
                    let mut v = states[t][i - 1].join(&inc);
                    v.set(t, 2 * i as u32);
                    let new = states[t][i].meet(&v);
                    if new != states[t][i] {
                        states[t][i] = new;
                        changed = true;
                    }
                }
            }

            if !changed {
                break;
            }
        }

        Analysis {
            chains,
            states,
            multi,
            cfgs,
        }
    }

    /// `(pre-clock index, post certificate)` of statement `s` as executed
    /// by thread index `t` (module docs).
    fn pre_post(&self, module: &Module, tm: &ThreadModel, s: StmtId, t: usize) -> (u32, u32) {
        let chain = &self.chains[t];
        let k = chain.len();
        let exit_post = 2 * k as u32 + 1;
        let st = module.stmt(s);
        let routine = tm.threads()[t].routine;
        if st.func != routine {
            // Callee statements: only the entry clock precedes them for
            // certain, and only thread exit certifies their completion.
            return (0, exit_post);
        }
        if let Some(&j) = chain.pos_of.get(&s) {
            return ((j - 1) as u32, 2 * j as u32);
        }
        let cfg = &self.cfgs[&routine];
        if !cfg.dom.is_reachable(st.block) {
            return (0, exit_post);
        }
        let p = module.stmt_pos(s);

        // Pre-clock: the last chain event dominating `s`.
        let mut pre = 0u32;
        for j in (1..=k).rev() {
            let (bj, pj) = chain.locs[j - 1];
            if (bj == st.block && pj < p) || (bj != st.block && cfg.dom.dominates(bj, st.block)) {
                pre = j as u32;
                break;
            }
        }

        // Post certificate: the first chain event `s` dominates that
        // cannot loop back to re-execute `s` — its arrival proves every
        // execution of `s` is done. Fallback: thread exit.
        let mut post = exit_post;
        for (j, &(bj, pj)) in chain.locs.iter().enumerate() {
            let s_dominates =
                (bj == st.block && p < pj) || (bj != st.block && cfg.dom.dominates(st.block, bj));
            if s_dominates && !cfg.reach[bj.index()][st.block.index()] {
                post = 2 * (j + 1) as u32 - 1;
                break;
            }
        }
        (pre, post)
    }

    /// Factors the solved clocks into an [`HbFacts`] (module docs).
    fn factor(&self, module: &Module, tm: &ThreadModel) -> HbFacts {
        let mut execs_of: HashMap<FuncId, Vec<ThreadId>> = HashMap::new();
        let keyed = module.stmts().filter_map(|(s, st)| {
            let execs = execs_of
                .entry(st.func)
                .or_insert_with(|| tm.threads_executing(st.func));
            let key: RegionKey = (execs.iter())
                .map(|&t| {
                    let (pre, post) = self.pre_post(module, tm, s, t.index());
                    (t.0, pre, post)
                })
                .collect();
            (!key.is_empty()).then_some((s, key))
        });
        let rel = RegionRelation::factor(keyed, |k1, k2| {
            keys_ordered(k1, k2, &self.states, &self.multi)
        });
        let chain_events = self.chains.iter().map(|c| c.len() as u32).sum();
        HbFacts::from_relation(rel, tm.len() as u32, chain_events)
    }
}

/// The pair formula over two region keys: every cross-thread instance pair
/// must be ordered in one direction or the other; a multi-forked common
/// executor races with itself. Symmetric in `k1`/`k2`.
fn keys_ordered(k1: &RegionKey, k2: &RegionKey, states: &[Vec<VecClock>], multi: &[bool]) -> bool {
    for &(t1, pre1, post1) in k1 {
        for &(t2, pre2, post2) in k2 {
            if t1 == t2 {
                if multi[t1 as usize] {
                    return false;
                }
                continue;
            }
            let fwd = states[t2 as usize][pre2 as usize].get(t1 as usize) >= post1;
            let bwd = states[t1 as usize][pre1 as usize].get(t2 as usize) >= post2;
            if !(fwd || bwd) {
                return false;
            }
        }
    }
    true
}

/// Whether this statement kind anchors a must-sync chain position.
fn chain_kind(k: &StmtKind) -> bool {
    matches!(
        k,
        StmtKind::Fork { .. }
            | StmtKind::Join { .. }
            | StmtKind::Signal { .. }
            | StmtKind::Wait { .. }
            | StmtKind::Broadcast { .. }
            | StmtKind::BarrierWait { .. }
            | StmtKind::AtomicStore { .. }
            | StmtKind::AtomicRmw { .. }
    )
}

/// Collects a routine's must-sync chain: sync intrinsics in reachable,
/// acyclic blocks that dominate every reachable `ret` (module docs).
fn build_chain(module: &Module, func: &fsam_ir::Function, cfg: &FuncCfg) -> Chain {
    let rets: Vec<BlockId> = func
        .blocks()
        .filter(|(b, blk)| cfg.dom.is_reachable(*b) && matches!(blk.term, Terminator::Ret(_)))
        .map(|(b, _)| b)
        .collect();
    let mut blocks: Vec<BlockId> = Vec::new();
    if !rets.is_empty() {
        for (b, _) in func.blocks() {
            if cfg.dom.is_reachable(b)
                && !cfg.reach[b.index()][b.index()]
                && rets.iter().all(|&r| cfg.dom.dominates(b, r))
            {
                blocks.push(b);
            }
        }
    }
    // Qualifying blocks form a dominance chain (module docs); sort by it.
    blocks.sort_by(|&a, &b| {
        use std::cmp::Ordering;
        if a == b {
            Ordering::Equal
        } else if cfg.dom.dominates(a, b) {
            Ordering::Less
        } else {
            Ordering::Greater
        }
    });

    let mut events = Vec::new();
    let mut pos_of = HashMap::new();
    let mut locs = Vec::new();
    for b in blocks {
        for (p, &sid) in func.blocks[b].stmts.iter().enumerate() {
            if chain_kind(&module.stmt(sid).kind) {
                events.push(sid);
                pos_of.insert(sid, events.len());
                locs.push((b, p));
            }
        }
    }
    Chain {
        events,
        pos_of,
        locs,
    }
}

/// The clock a site publishes *on arrival*: the state after the preceding
/// chain event, own component at the arrival certificate — or the entry
/// clock with own component zeroed when the site is not a chain event
/// (still sound: the thread started before reaching it). Multi-forked
/// publishers zero their own component: one instance's progress says
/// nothing about the abstract thread's.
fn publish_pre(
    site: StmtId,
    u: usize,
    chains: &[Chain],
    states: &[Vec<VecClock>],
    multi: &[bool],
) -> VecClock {
    if let Some(&j) = chains[u].pos_of.get(&site) {
        let mut c = states[u][j - 1].clone();
        c.set(u, if multi[u] { 0 } else { 2 * j as u32 - 1 });
        c
    } else {
        let mut c = states[u][0].clone();
        c.set(u, 0);
        c
    }
}

/// The clock an atomic writer's value carries (module docs): release
/// stores publish their pre-clock, relaxed stores ⊥, and RMWs pass through
/// the clock they acquired (plus their pre-clock when release-ordered).
fn publish_atomic(
    w: &AtomicWrite,
    u: usize,
    chains: &[Chain],
    states: &[Vec<VecClock>],
    multi: &[bool],
    rmw_inc: &HashMap<(StmtId, usize), VecClock>,
    width: usize,
) -> VecClock {
    if w.is_rmw {
        let base = rmw_inc[&(w.stmt, u)].clone();
        if w.release {
            base.join(&publish_pre(w.stmt, u, chains, states, multi))
        } else {
            base
        }
    } else if w.release {
        publish_pre(w.stmt, u, chains, states, multi)
    } else {
        VecClock::bottom(width)
    }
}

/// Meet over every may-aliasing writer to an atomic cell — the clock any
/// blocking reader of that cell must have been unblocked by.
#[allow(clippy::too_many_arguments)]
fn atomic_incoming(
    ptr: VarId,
    pre: &PreAnalysis,
    atomics: &[AtomicWrite],
    chains: &[Chain],
    states: &[Vec<VecClock>],
    multi: &[bool],
    rmw_inc: &HashMap<(StmtId, usize), VecClock>,
    width: usize,
) -> VecClock {
    let mut acc: Option<VecClock> = None;
    for w in atomics {
        if !pre.may_alias(w.ptr, ptr) {
            continue;
        }
        for &u in &w.execs {
            let p = publish_atomic(w, u.index(), chains, states, multi, rmw_inc, width);
            acc = Some(match acc {
                Some(a) => a.meet(&p),
                None => p,
            });
        }
    }
    // No possible publisher: the read never unblocks; claim nothing.
    acc.unwrap_or_else(|| VecClock::bottom(width))
}

/// The clock received by chain event `i` of thread `t` (module docs).
#[allow(clippy::too_many_arguments)]
fn incoming(
    module: &Module,
    pre: &PreAnalysis,
    tm: &ThreadModel,
    event: StmtId,
    t: usize,
    i: usize,
    signals: &[SignalSite],
    groups: &[BarrierGroup],
    barrier_of: &HashMap<(usize, usize), (usize, usize)>,
    chains: &[Chain],
    states: &[Vec<VecClock>],
    multi: &[bool],
    rmw_inc: &HashMap<(StmtId, usize), VecClock>,
    width: usize,
) -> VecClock {
    match &module.stmt(event).kind {
        StmtKind::Wait { cond } => {
            let mut acc: Option<VecClock> = None;
            for site in signals {
                if !pre.may_alias(site.cond, *cond) {
                    continue;
                }
                for &u in &site.execs {
                    let p = publish_pre(site.stmt, u.index(), chains, states, multi);
                    acc = Some(match acc {
                        Some(a) => a.meet(&p),
                        None => p,
                    });
                }
            }
            acc.unwrap_or_else(|| VecClock::bottom(width))
        }
        StmtKind::AtomicRmw { .. } => rmw_inc[&(event, t)].clone(),
        StmtKind::BarrierWait { .. } => match barrier_of.get(&(t, i)) {
            Some(&(g, k)) if groups[g].valid => {
                let mut acc = VecClock::bottom(width);
                for (&v, positions) in &groups[g].phases {
                    let pos = positions[k - 1];
                    let mut arrival = states[v][pos - 1].clone();
                    arrival.set(v, 2 * pos as u32 - 1);
                    acc = acc.join(&arrival);
                }
                acc
            }
            _ => VecClock::bottom(width),
        },
        StmtKind::Join { .. } => {
            let mut acc: Option<VecClock> = None;
            for e in tm.joins_at(event) {
                if e.spawner.index() != t || e.symmetric || multi[e.thread.index()] {
                    continue;
                }
                let c = e.thread.index();
                let mut exit = states[c][chains[c].len()].clone();
                exit.set(c, 2 * chains[c].len() as u32 + 1);
                acc = Some(match acc {
                    Some(a) => a.meet(&exit),
                    None => exit,
                });
            }
            acc.unwrap_or_else(|| VecClock::bottom(width))
        }
        // Fork, Signal, Broadcast, AtomicStore: publish-only, no receive.
        _ => VecClock::bottom(width),
    }
}

/// Groups barrier-wait sites by may-alias connectivity and validates each
/// group's static phase structure (module docs).
fn barrier_groups(
    module: &Module,
    pre: &PreAnalysis,
    tm: &ThreadModel,
    chains: &[Chain],
    multi: &[bool],
) -> Vec<BarrierGroup> {
    struct WaitSite {
        stmt: StmtId,
        bar: VarId,
        execs: Vec<ThreadId>,
    }
    let mut waits: Vec<WaitSite> = Vec::new();
    let mut inits: Vec<(VarId, u32)> = Vec::new();
    for (sid, s) in module.stmts() {
        match &s.kind {
            StmtKind::BarrierWait { bar } => {
                let execs = tm.threads_executing(s.func);
                if !execs.is_empty() {
                    waits.push(WaitSite {
                        stmt: sid,
                        bar: *bar,
                        execs,
                    });
                }
            }
            StmtKind::BarrierInit { bar, count } if !tm.threads_executing(s.func).is_empty() => {
                inits.push((*bar, *count));
            }
            _ => {}
        }
    }

    // Union-find over wait sites by pairwise may-alias of their barriers.
    let mut parent: Vec<usize> = (0..waits.len()).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    for a in 0..waits.len() {
        for b in a + 1..waits.len() {
            if pre.may_alias(waits[a].bar, waits[b].bar) {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                parent[ra] = rb;
            }
        }
    }
    let mut members: HashMap<usize, Vec<usize>> = HashMap::new();
    for a in 0..waits.len() {
        let r = find(&mut parent, a);
        members.entry(r).or_default().push(a);
    }

    let mut groups = Vec::new();
    for (_, sites) in members {
        let mut valid = true;
        let mut phases: HashMap<usize, Vec<usize>> = HashMap::new();
        for &a in &sites {
            for &u in &waits[a].execs {
                let t = u.index();
                if multi[t] {
                    valid = false;
                }
                match chains[t].pos_of.get(&waits[a].stmt) {
                    Some(&pos) => phases.entry(t).or_default().push(pos),
                    // A wait executed outside its thread's chain (in a
                    // callee or a loop) makes phase ordinals unknowable.
                    None => valid = false,
                }
            }
        }
        for positions in phases.values_mut() {
            positions.sort_unstable();
        }
        let counts: Vec<usize> = phases.values().map(|p| p.len()).collect();
        if counts.is_empty() || counts.windows(2).any(|w| w[0] != w[1]) {
            valid = false;
        }
        // The init count must match the arrivals-per-phase exactly.
        let mut init_counts: Vec<u32> = inits
            .iter()
            .filter(|(bar, _)| sites.iter().any(|&a| pre.may_alias(waits[a].bar, *bar)))
            .map(|&(_, c)| c)
            .collect();
        init_counts.sort_unstable();
        init_counts.dedup();
        if init_counts.len() != 1 || init_counts[0] as usize != phases.len() {
            valid = false;
        }
        groups.push(BarrierGroup { valid, phases });
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsam_ir::icfg::Icfg;
    use fsam_ir::parse::parse_module;
    use fsam_ir::rng::SmallRng;

    fn harness(src: &str) -> (Module, PreAnalysis, ThreadModel) {
        let m = parse_module(src).unwrap();
        let pre = PreAnalysis::run(&m);
        let icfg = Icfg::build(&m, pre.call_graph());
        let tm = ThreadModel::build(&m, &pre, &icfg);
        (m, pre, tm)
    }

    fn facts(src: &str) -> (Module, HbFacts) {
        let (m, pre, tm) = harness(src);
        let hb = HbFacts::build(&m, &pre, &tm);
        (m, hb)
    }

    /// The statement of `func` at in-block position `pos` of its entry
    /// block chain, found by matching the printed form.
    fn stmt_matching(m: &Module, needle: &str) -> StmtId {
        let mut found = None;
        for (sid, _) in m.stmts() {
            let text = fsam_ir::print::stmt_to_string(m, sid);
            if text.trim().contains(needle) {
                assert!(found.is_none(), "ambiguous needle {needle}");
                found = Some(sid);
            }
        }
        found.unwrap_or_else(|| panic!("no statement matches {needle}"))
    }

    fn rand_clock(rng: &mut SmallRng, width: usize) -> VecClock {
        let mut c = VecClock::bottom(width);
        for i in 0..width {
            c.set(i, rng.gen_range(0u32..6));
        }
        c
    }

    // ---- satellite 1: vector-clock lattice property tests ----

    #[test]
    fn join_is_commutative_associative_idempotent() {
        let mut rng = SmallRng::seed_from_u64(0x9e3779b97f4a7c15);
        for _ in 0..500 {
            let w = rng.gen_range(1usize..8);
            let (a, b, c) = (
                rand_clock(&mut rng, w),
                rand_clock(&mut rng, w),
                rand_clock(&mut rng, w),
            );
            assert_eq!(a.join(&b), b.join(&a));
            assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
            assert_eq!(a.join(&a), a);
            // meet mirrors join on the dual lattice
            assert_eq!(a.meet(&b), b.meet(&a));
            assert_eq!(a.meet(&b).meet(&c), a.meet(&b.meet(&c)));
            assert_eq!(a.meet(&a), a);
            // absorption ties the two operations together
            assert_eq!(a.join(&a.meet(&b)), a);
            assert_eq!(a.meet(&a.join(&b)), a);
        }
    }

    #[test]
    fn happens_before_is_a_strict_partial_order() {
        let mut rng = SmallRng::seed_from_u64(0xd1b54a32d192ed03);
        for _ in 0..500 {
            let w = rng.gen_range(1usize..8);
            let (a, b, c) = (
                rand_clock(&mut rng, w),
                rand_clock(&mut rng, w),
                rand_clock(&mut rng, w),
            );
            assert!(!a.happens_before(&a), "irreflexive");
            if a.happens_before(&b) {
                assert!(!b.happens_before(&a), "asymmetric");
            }
            if a.happens_before(&b) && b.happens_before(&c) {
                assert!(a.happens_before(&c), "transitive");
            }
            // join is the least upper bound w.r.t. leq
            assert!(a.leq(&a.join(&b)) && b.leq(&a.join(&b)));
            assert!(a.meet(&b).leq(&a) && a.meet(&b).leq(&b));
        }
    }

    #[test]
    fn join_preserves_width() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            let w = rng.gen_range(1usize..9);
            let a = rand_clock(&mut rng, w);
            let b = rand_clock(&mut rng, w);
            assert_eq!(a.join(&b).width(), w);
            assert_eq!(a.meet(&b).width(), w);
        }
    }

    const PRODUCER_CONSUMER: &str = r#"
        global buf
        global cv
        func producer() {
        entry:
          p = &buf
          one = &buf
          store p, one
          c = &cv
          signal c
          ret
        }
        func main() {
        entry:
          t = fork producer()
          c2 = &cv
          wait c2
          q = &buf
          v = load q
          join t
          ret
        }
    "#;

    /// Clock width always equals the abstract-thread count (satellite 1).
    #[test]
    fn clock_width_is_thread_count() {
        let (m, pre, tm) = harness(PRODUCER_CONSUMER);
        let a = Analysis::solve(&m, &pre, &tm);
        assert_eq!(a.states.len(), tm.len());
        for per_thread in &a.states {
            for clock in per_thread {
                assert_eq!(clock.width(), tm.len());
            }
        }
    }

    // ---- edge-rule end-to-end tests ----

    #[test]
    fn signal_wait_orders_producer_store_before_consumer_load() {
        let (m, hb) = facts(PRODUCER_CONSUMER);
        let store = stmt_matching(&m, "store p, one");
        let load = stmt_matching(&m, "v = load q");
        assert!(hb.related(store, load));
        assert!(hb.related(load, store), "relation is symmetric");
    }

    #[test]
    fn unsynchronized_racy_pair_is_not_ordered() {
        let (m, hb) = facts(
            r#"
            global buf
            global cv
            func worker() {
            entry:
              p = &buf
              one = &buf
              store p, one
              c = &cv
              signal c
              ret
            }
            func main() {
            entry:
              t = fork worker()
              q = &buf
              v = load q
              join t
              ret
            }
        "#,
        );
        // main's load happens without waiting on the condvar: racy.
        let store = stmt_matching(&m, "store p, one");
        let load = stmt_matching(&m, "v = load q");
        assert!(!hb.related(store, load));
    }

    #[test]
    fn module_without_sync_intrinsics_gates_to_empty() {
        let (m, hb) = facts(
            r#"
            global g
            func worker() {
            entry:
              w = &g
              ret
            }
            func main() {
            entry:
              t = fork worker()
              x = &g
              join t
              ret
            }
        "#,
        );
        assert_eq!(hb.region_count(), 0);
        for (s1, _) in m.stmts() {
            for (s2, _) in m.stmts() {
                assert!(!hb.related(s1, s2));
            }
        }
    }

    #[test]
    fn barrier_phases_order_pre_phase_writes_before_post_phase_reads() {
        let (m, hb) = facts(
            r#"
            global data
            global bar
            func worker() {
            entry:
              p = &data
              one = &data
              store p, one
              b = &bar
              barrier_wait b
              ret
            }
            func main() {
            entry:
              b0 = &bar
              barrier_init b0, 2
              t = fork worker()
              b1 = &bar
              barrier_wait b1
              q = &data
              v = load q
              join t
              ret
            }
        "#,
        );
        let store = stmt_matching(&m, "store p, one");
        let load = stmt_matching(&m, "v = load q");
        assert!(hb.related(store, load));
    }

    #[test]
    fn barrier_with_wrong_init_count_gives_no_ordering() {
        let (m, hb) = facts(
            r#"
            global data
            global bar
            func worker() {
            entry:
              p = &data
              one = &data
              store p, one
              b = &bar
              barrier_wait b
              ret
            }
            func main() {
            entry:
              b0 = &bar
              barrier_init b0, 3
              t = fork worker()
              b1 = &bar
              barrier_wait b1
              q = &data
              v = load q
              join t
              ret
            }
        "#,
        );
        // count 3 but only two participants: the group is invalid and the
        // phase edge must not be claimed.
        let store = stmt_matching(&m, "store p, one");
        let load = stmt_matching(&m, "v = load q");
        assert!(!hb.related(store, load));
    }

    #[test]
    fn release_store_acquire_rmw_orders_init_before_use() {
        let (m, hb) = facts(
            r#"
            global data
            global flag
            func init() {
            entry:
              p = &data
              one = &data
              store p, one
              f = &flag
              tok = &data
              atomic_store f, tok, rel
              ret
            }
            func main() {
            entry:
              t = fork init()
              f2 = &flag
              tok2 = &data
              old = atomic_rmw f2, tok2, acq
              q = &data
              v = load q
              join t
              ret
            }
        "#,
        );
        let store = stmt_matching(&m, "store p, one");
        let load = stmt_matching(&m, "v = load q");
        assert!(hb.related(store, load));
    }

    #[test]
    fn relaxed_store_publishes_nothing() {
        let (m, hb) = facts(
            r#"
            global data
            global flag
            func init() {
            entry:
              p = &data
              one = &data
              store p, one
              f = &flag
              tok = &data
              atomic_store f, tok
              ret
            }
            func main() {
            entry:
              t = fork init()
              f2 = &flag
              tok2 = &data
              old = atomic_rmw f2, tok2, acq
              q = &data
              v = load q
              join t
              ret
            }
        "#,
        );
        // The store is relaxed: the rmw unblocks but acquires ⊥.
        let store = stmt_matching(&m, "store p, one");
        let load = stmt_matching(&m, "v = load q");
        assert!(!hb.related(store, load));
    }

    #[test]
    fn join_orders_child_work_before_post_join_reads() {
        let (m, hb) = facts(
            r#"
            global g
            global cv
            func worker() {
            entry:
              p = &g
              one = &g
              store p, one
              c = &cv
              signal c
              ret
            }
            func main() {
            entry:
              t = fork worker()
              join t
              q = &g
              v = load q
              ret
            }
        "#,
        );
        let store = stmt_matching(&m, "store p, one");
        let load = stmt_matching(&m, "v = load q");
        assert!(hb.related(store, load));
    }

    // ---- factored form ----

    #[test]
    fn relation_parts_roundtrip() {
        let (_, hb) = facts(PRODUCER_CONSUMER);
        assert!(hb.region_count() > 0, "a sync program has HB regions");
        let rel = RegionRelation::from_parts(
            hb.region_map().to_vec(),
            hb.region_count() as u32,
            hb.bit_words().to_vec(),
        )
        .unwrap();
        let rebuilt = HbFacts::from_relation(rel, hb.thread_count(), hb.chain_event_count());
        assert_eq!(hb, rebuilt);
    }

    #[test]
    fn empty_facts_have_no_regions_and_order_nothing() {
        let hb = HbFacts::empty();
        assert_eq!(hb.region_count(), 0);
        assert_eq!(hb.stmt_count(), 0);
        assert_eq!(hb.matrix_bits(), 0);
        assert!(!hb.related(StmtId::new(0), StmtId::new(1)));
    }
}
