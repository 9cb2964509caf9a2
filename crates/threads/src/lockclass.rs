//! The lock tests by instance class — Definition 6 and the lockset test on
//! classes of context-sensitive instances, not on instance pairs.
//!
//! Both tests read few facts of an instance `i = (t, c, s)`:
//!
//! * its *MHP state*: the thread and the fact
//!   [`MhpOracle::mhp_instances`] reads there ([`MhpOracle::mhp_state`]:
//!   the interleaving fact `I(t, c, s)`, or nothing under the PCG
//!   backend);
//! * for the lockset test, its must-held lockset;
//! * for Definition 6 on object `o`, its guarding-span locks `A(i)` and,
//!   per role, `NT(i, o)` (as the store) or `NH(i, o)` (as the access)
//!   (`LockAnalysis::span_locks`).
//!
//! [`LockClasses`] interns those facts into dense *key* ids. A locked
//! statement's *class* (per role, and per object for Definition 6) is the
//! set of its instances' keys, interned too. Both tests are pure functions
//! of a class pair, because every key has an instance and the instance
//! loops range over all pairs; callers memoize them per class pair. On
//! radiosity at scale 0.32 the 702 instances of the locked loads and
//! stores have 24 distinct lockset keys.
//!
//! The instance loops stay as the public references
//! ([`LockAnalysis::non_interference`], `fsam::racy_instances`) and the
//! tests compare the classes against them.

use fsam_ir::icfg::Icfg;
use fsam_ir::StmtId;
use fsam_pts::MemId;

use crate::flow::Interner;
use crate::lock::{Instance, LockAnalysis, LockSet};
use crate::mhp::MhpOracle;
use crate::model::ThreadId;

/// One instance key: `[state, locks, split]`. The lockset test's keys
/// carry the must-held lockset's fact id ([`LockAnalysis`]'s own) in
/// `locks` and the empty set in `split`; Definition 6's carry `A(i)` in
/// `locks` and `NT(i, o)` (store role) or `NH(i, o)` (access role) in
/// `split`, both ids of this table's lock sets.
type Key = [u32; 3];

/// Interned instance keys and classes of one analysis (module docs).
pub struct LockClasses<'a> {
    icfg: &'a Icfg,
    oracle: &'a (dyn MhpOracle + Sync),
    lock: &'a LockAnalysis,
    /// MHP states, each `(thread, mhp_state)`.
    states: Interner<(ThreadId, Option<u32>)>,
    /// One instance per state, to ask the oracle on.
    reps: Vec<Instance>,
    sets: Interner<LockSet>,
    keys: Interner<Key>,
    classes: Interner<Vec<u32>>,
}

/// Whether two ascending lock sets share a lock.
fn meet(a: &[MemId], b: &[MemId]) -> bool {
    a.iter().any(|l| b.binary_search(l).is_ok())
}

impl<'a> LockClasses<'a> {
    /// An empty table over one analysis's oracle and lock analysis.
    pub fn new(
        icfg: &'a Icfg,
        oracle: &'a (dyn MhpOracle + Sync),
        lock: &'a LockAnalysis,
    ) -> LockClasses<'a> {
        let mut sets = Interner::new();
        sets.id(&LockSet::new());
        LockClasses {
            icfg,
            oracle,
            lock,
            states: Interner::new(),
            reps: Vec::new(),
            sets,
            keys: Interner::new(),
            classes: Interner::new(),
        }
    }

    /// The instances of `s`, each with its MHP state id.
    fn instances(&mut self, s: StmtId) -> Vec<(Instance, u32)> {
        let (icfg, oracle) = (self.icfg, self.oracle);
        let mut out = Vec::new();
        for (t, c) in oracle.instances(s) {
            let i = (t, c, s);
            let state = (t, oracle.mhp_state(icfg, i));
            let id = self.states.id(&state);
            if id as usize == self.reps.len() {
                self.reps.push(i);
            }
            out.push((i, id));
        }
        out
    }

    /// Interns the class of `keys`.
    fn class(&mut self, mut keys: Vec<u32>) -> u32 {
        keys.sort_unstable();
        keys.dedup();
        self.classes.id(&keys)
    }

    /// The lockset test's class of statement `s`: its instances' MHP
    /// states with their must-held locksets.
    pub fn held_class(&mut self, s: StmtId) -> u32 {
        let keys = (self.instances(s).into_iter())
            .map(|(i, state)| self.keys.id(&[state, self.lock.held_id(self.icfg, i), 0]))
            .collect();
        self.class(keys)
    }

    /// Definition 6's classes of load/store `s` on each of `objects`:
    /// `(o, store class, access class)`, the store class only when
    /// `is_store`.
    pub fn span_classes(
        &mut self,
        s: StmtId,
        is_store: bool,
        objects: impl IntoIterator<Item = MemId>,
    ) -> Vec<(MemId, Option<u32>, u32)> {
        let instances = self.instances(s);
        let mut out = Vec::new();
        for o in objects {
            let (mut stores, mut accesses) = (Vec::new(), Vec::new());
            for &(i, state) in &instances {
                let locks = self.lock.span_locks(self.icfg, i, o);
                let all = self.sets.id(&locks.all);
                if is_store {
                    let not_tail = self.sets.id(&locks.not_tail);
                    stores.push(self.keys.id(&[state, all, not_tail]));
                }
                let not_head = self.sets.id(&locks.not_head);
                accesses.push(self.keys.id(&[state, all, not_head]));
            }
            let store = is_store.then(|| self.class(stores));
            out.push((o, store, self.class(accesses)));
        }
        out
    }

    /// Whether the states' instances may happen in parallel.
    fn mhp(&self, s1: u32, s2: u32) -> bool {
        let (r1, r2) = (self.reps[s1 as usize], self.reps[s2 as usize]);
        self.oracle.mhp_instances(self.icfg, r1, r2)
    }

    /// Whether `f` holds on every MHP key pair of the two classes.
    fn every_mhp_pair(&self, c1: u32, c2: u32, f: impl Fn(Key, Key) -> bool) -> bool {
        let (c1, c2) = (self.classes.get(c1), self.classes.get(c2));
        c1.iter().all(|&k1| {
            let k1 = *self.keys.get(k1);
            c2.iter().all(|&k2| {
                let k2 = *self.keys.get(k2);
                !self.mhp(k1[0], k2[0]) || f(k1, k2)
            })
        })
    }

    /// Definition 6 on classes from [`span_classes`](Self::span_classes)
    /// of one object: whether every MHP instance pair of the store class
    /// and the access class is a non-interference pair.
    pub fn non_interfering(&self, store: u32, access: u32) -> bool {
        let set = |id: u32| self.sets.get(id).as_slice();
        self.every_mhp_pair(store, access, |[_, a1, nt1], [_, a2, nh2]| {
            meet(set(nt1), set(a2)) || meet(set(a1), set(nh2))
        })
    }

    /// The lockset test on classes from [`held_class`](Self::held_class):
    /// whether every MHP instance pair holds a common lock — the negation
    /// of `fsam::racy_instances`.
    pub fn protected(&self, c1: u32, c2: u32) -> bool {
        let set = |id: u32| self.lock.held_set(id);
        self.every_mhp_pair(c1, c2, |[_, h1, _], [_, h2, _]| meet(set(h1), set(h2)))
    }
}
