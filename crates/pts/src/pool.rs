//! An arena of hash-consed, immutable points-to sets.
//!
//! The sparse solver holds every set it works with as a [`PtsRef`]: one
//! per variable and per object definition, and one per pending and per
//! freshly derived delta. Identical sets — and pointer analyses produce
//! *many* identical sets — are stored once; updating a binding is a
//! copy-on-write: the new value is interned and the 4-byte handle swapped.
//! [`PtsPool::intern`] takes a borrowed set, so a caller builds in a
//! scratch set it reuses, and the pool copies the set only when it is not
//! interned yet, in its canonical representation at exact capacity: at
//! most 16 members as the sorted vector, more as a bitmap without
//! trailing zero words. Two operations work on handles alone:
//!
//! * [`PtsPool::union`] is memoized on the handle pair, and answers at
//!   once for equal handles and [`PtsRef::EMPTY`], so accumulating a delta
//!   into an empty pending slot, or forwarding one unchanged down a chain
//!   of merges, copies a handle instead of a set.
//! * [`PtsPool::union_delta`] is the delta-propagation primitive: it
//!   returns the grown set's handle together with a handle to exactly the
//!   new bits, so downstream edges carry only the difference. When the
//!   delta is disjoint from the set it grows, the new bits are the delta
//!   itself; otherwise they are built in a scratch set the pool owns.
//!
//! A pool that nothing interns into any more is *frozen*
//! ([`PtsPool::freeze`], and [`PtsPool::retain`], which compacts a solve's
//! pool down to its live sets): it drops the union memo, the hash cache,
//! the index and the scratch set, and holds its sets alone. Interning into
//! a frozen pool rebuilds the hash cache and the index first, so the API
//! stays total.
//!
//! Byte accounting stays exact for the Table 2 memory column:
//! [`PtsPool::heap_bytes`] sums the interned sets' heap storage plus the
//! arena and whatever working state the pool holds — the hash cache, the
//! index, the union memo and the scratch set, all empty once frozen.
//!
//! # The index hash
//!
//! The index is keyed on `PtsPool::hash_of`, not SipHash: the wrapping
//! sum, over the members `m`, of output `m + 1` of a SplitMix64 stream
//! (`mix`). The stream's seed comes from `RandomState`, since
//! [`PtsPool::from_sets`] interns sets read from snapshot files. The hash
//! must be *canonical* — a function of the members only, never of the
//! representation — so a bitmap that shrank below the spill threshold
//! interns to the same handle as the equal small-vector set. Each set's
//! hash is computed once, when it is interned, and cached beside it. The
//! index is one open-addressed table of `u32` arena ids, at most half
//! full, probed linearly from the hash's low bits; a probe compares the
//! cached hash before it compares a set, and growing the table re-places
//! the ids from the cached hashes without reading a set. As a sum, the
//! hash of a union is the hash of one operand plus the hash of the
//! other's members it lacks: [`PtsPool::union`] finds an interned union
//! before building it, without rehashing the larger operand.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use crate::objects::MemId;
use crate::set::PtsSet;

/// A handle to an interned set in a [`PtsPool`].
///
/// Handles are only meaningful with the pool that produced them. Two handles
/// from the same pool are equal iff the sets are equal (hash-consing
/// canonicalizes on [`PtsSet`]'s element-wise equality).
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct PtsRef(u32);

impl PtsRef {
    /// The empty set, interned at id 0 in every pool.
    pub const EMPTY: PtsRef = PtsRef(0);

    /// Raw dense index into the pool's arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for PtsRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Why a serialized set table could not be rebuilt into a [`PtsPool`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolRebuildError {
    /// The table's first entry is not the empty set (handle 0 is reserved
    /// for [`PtsRef::EMPTY`] in every pool).
    FirstNotEmpty,
    /// Two table entries hold the same set; interning the entry at `index`
    /// returned the earlier handle `canonical` instead of a fresh one.
    Duplicate {
        /// Position of the offending entry.
        index: usize,
        /// The earlier entry it duplicates.
        canonical: usize,
    },
}

impl std::fmt::Display for PoolRebuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolRebuildError::FirstNotEmpty => {
                write!(f, "set table entry 0 must be the empty set")
            }
            PoolRebuildError::Duplicate { index, canonical } => {
                write!(f, "set table entry {index} duplicates entry {canonical}")
            }
        }
    }
}

impl std::error::Error for PoolRebuildError {}

/// Hit/miss totals for a pool's hash-consing index.
///
/// A *hit* is an [`PtsPool::intern`] or [`PtsPool::union`] call answered
/// by an existing canonical set (a union's memo or index); a *miss*
/// appended a new one. The ratio is the
/// observable payoff of hash-consing (how often the solver re-derives a
/// set it already has), exported by the tracing layer as
/// `pool.intern_hits` / `pool.intern_misses`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Interns answered by an existing set.
    pub hits: u64,
    /// Interns that appended a new set.
    pub misses: u64,
}

/// The empty slot of the open-addressed index.
const VACANT: u32 = u32::MAX;

/// An append-only arena of deduplicated [`PtsSet`]s.
#[derive(Clone, Debug)]
pub struct PtsPool {
    sets: Vec<PtsSet>,
    /// `hash_of` each interned set, computed once when it is interned.
    hashes: Vec<u64>,
    /// Open-addressed table of arena ids, probed linearly from a set's
    /// cached hash; `VACANT` marks a free slot. Its length is a power of
    /// two at least twice the set count, or zero when the pool is frozen.
    index: Vec<u32>,
    /// [`PtsPool::union`] results keyed on the ordered handle pair
    /// (`pair_key`). Working state: a pool rebuilt from its sets starts
    /// without it.
    memo: HashMap<u64, PtsRef, BuildHasherDefault<PairHasher>>,
    /// Where [`PtsPool::union_delta`] builds a difference and
    /// [`PtsPool::union`] a union before they are interned.
    scratch: PtsSet,
    /// The random seed of `hash_of` (see the module docs).
    seed: u64,
    /// Running sum of the interned sets' own heap bytes.
    set_bytes: usize,
    /// Intern hit/miss totals (monotonic; not part of pool equality or
    /// serialization).
    intern_stats: InternStats,
}

impl Default for PtsPool {
    fn default() -> PtsPool {
        PtsPool::new()
    }
}

impl PtsPool {
    /// Creates a pool with the empty set pre-interned at [`PtsRef::EMPTY`].
    pub fn new() -> PtsPool {
        let mut pool = PtsPool {
            sets: Vec::new(),
            hashes: Vec::new(),
            index: Vec::new(),
            memo: HashMap::default(),
            scratch: PtsSet::new(),
            seed: RandomState::new().hash_one(0u64),
            set_bytes: 0,
            intern_stats: InternStats::default(),
        };
        pool.push(0, &PtsSet::new());
        // The bootstrap intern of ∅ is construction, not workload.
        pool.intern_stats = InternStats::default();
        pool
    }

    /// The canonical hash of `set` (see the module docs).
    fn hash_of(&self, set: &PtsSet) -> u64 {
        set.iter().fold(0, |h, m| h.wrapping_add(mix(self.seed, m)))
    }

    /// Interns `set`, returning the handle of the canonical copy. The set
    /// is copied, in its canonical representation, only when no equal set
    /// is interned yet.
    pub fn intern(&mut self, set: &PtsSet) -> PtsRef {
        self.thaw();
        let h = self.hash_of(set);
        match self.find(h, |s| s == set) {
            Some(r) => {
                self.intern_stats.hits += 1;
                r
            }
            None => self.push(h, set),
        }
    }

    /// The interned set with hash `h` that satisfies `is`, if any.
    fn find(&self, h: u64, is: impl Fn(&PtsSet) -> bool) -> Option<PtsRef> {
        let mask = self.index.len() - 1;
        let mut at = h as usize & mask;
        loop {
            let id = self.index[at];
            if id == VACANT {
                return None;
            }
            if self.hashes[id as usize] == h && is(&self.sets[id as usize]) {
                return Some(PtsRef(id));
            }
            at = (at + 1) & mask;
        }
    }

    /// Appends a canonical copy of `set`, which is not interned yet, under
    /// its hash `h`.
    fn push(&mut self, h: u64, set: &PtsSet) -> PtsRef {
        self.intern_stats.misses += 1;
        let id = (u32::try_from(self.sets.len()).ok())
            .filter(|&id| id != VACANT)
            .expect("points-to pool overflow");
        let set = set.compacted();
        self.set_bytes += set.heap_bytes();
        self.sets.push(set);
        self.hashes.push(h);
        if 2 * self.sets.len() > self.index.len() {
            self.reindex();
        } else {
            self.place(id);
        }
        PtsRef(id)
    }

    /// Puts arena id `id` in the first free slot of its probe sequence.
    fn place(&mut self, id: u32) {
        let mask = self.index.len() - 1;
        let mut at = self.hashes[id as usize] as usize & mask;
        while self.index[at] != VACANT {
            at = (at + 1) & mask;
        }
        self.index[at] = id;
    }

    /// Rebuilds the index at twice the set count, rounded up to a power of
    /// two, from the cached hashes.
    fn reindex(&mut self) {
        let slots = (2 * self.sets.len()).next_power_of_two().max(8);
        self.index.clear();
        self.index.resize(slots, VACANT);
        for id in 0..self.sets.len() as u32 {
            self.place(id);
        }
    }

    /// Drops the working state that only interning needs: the union memo,
    /// the hash cache, the index and the scratch set. A pool that nothing
    /// interns into any more (a solve's result, a decoded snapshot) then
    /// holds its sets alone; [`PtsPool::intern`] and [`PtsPool::union`]
    /// rebuild what they need first, so a frozen pool still interns
    /// canonically.
    pub fn freeze(&mut self) {
        self.hashes = Vec::new();
        self.index = Vec::new();
        self.memo = HashMap::default();
        self.scratch = PtsSet::new();
        self.sets.shrink_to_fit();
    }

    /// Rebuilds the hash cache and the index of a frozen pool.
    fn thaw(&mut self) {
        if self.index.is_empty() {
            self.hashes = self.sets.iter().map(|s| self.hash_of(s)).collect();
            self.reindex();
        }
    }

    /// Keeps only the sets that `tables` refer to, renumbered densely in
    /// the order the tables first name them (∅ stays [`PtsRef::EMPTY`]),
    /// rewrites every handle in `tables`, and freezes the pool. The kept
    /// sets move; none is copied.
    pub fn retain(&mut self, tables: &mut [&mut [PtsRef]]) {
        let mut renumber = vec![VACANT; self.sets.len()];
        renumber[0] = 0;
        let mut kept = 1u32;
        for r in tables.iter_mut().flat_map(|t| t.iter_mut()) {
            let to = &mut renumber[r.index()];
            if *to == VACANT {
                *to = kept;
                kept += 1;
            }
            *r = PtsRef(*to);
        }
        let mut order = vec![0u32; kept as usize];
        for (from, &to) in renumber.iter().enumerate() {
            if to != VACANT {
                order[to as usize] = from as u32;
            }
        }
        let mut sets = Vec::with_capacity(kept as usize);
        sets.extend(
            order
                .iter()
                .map(|&from| std::mem::take(&mut self.sets[from as usize])),
        );
        self.sets = sets;
        self.set_bytes = self.sets.iter().map(PtsSet::heap_bytes).sum();
        self.freeze();
    }

    /// The set behind a handle.
    pub fn get(&self, r: PtsRef) -> &PtsSet {
        &self.sets[r.index()]
    }

    /// Number of elements in the set behind `r`.
    pub fn len_of(&self, r: PtsRef) -> usize {
        self.sets[r.index()].len()
    }

    /// Whether the set behind `r` contains `m`.
    pub fn contains(&self, r: PtsRef, m: MemId) -> bool {
        self.sets[r.index()].contains(m)
    }

    /// `a ∪ b` as an interned handle. Equal handles and [`PtsRef::EMPTY`]
    /// answer at once; any other pair is memoized, so a repeated union
    /// costs one memo lookup.
    pub fn union(&mut self, a: PtsRef, b: PtsRef) -> PtsRef {
        if a == b || b == PtsRef::EMPTY {
            return a;
        }
        if a == PtsRef::EMPTY {
            return b;
        }
        let key = pair_key(a, b);
        if let Some(&r) = self.memo.get(&key) {
            self.intern_stats.hits += 1;
            return r;
        }
        let (big, small) = if self.len_of(a) >= self.len_of(b) {
            (a, b)
        } else {
            (b, a)
        };
        let r = self.union_unmemoized(big, small);
        self.memo.insert(key, r);
        r
    }

    /// `big ∪ small`. The union's hash is `big`'s cached hash plus the
    /// hash of `small \ big`, so an interned union is found before one is
    /// built, and a new one is built in the scratch set.
    fn union_unmemoized(&mut self, big: PtsRef, small: PtsRef) -> PtsRef {
        self.thaw();
        let (b, s) = (&self.sets[big.index()], &self.sets[small.index()]);
        let (mut h, mut len) = (self.hashes[big.index()], b.len());
        for m in s.iter().filter(|&m| !b.contains(m)) {
            h = h.wrapping_add(mix(self.seed, m));
            len += 1;
        }
        if len == b.len() {
            return big;
        }
        if let Some(r) = self.find(h, |u| u.len() == len && b.is_subset(u) && s.is_subset(u)) {
            self.intern_stats.hits += 1;
            return r;
        }
        let mut grown = std::mem::take(&mut self.scratch);
        grown.reset();
        grown.union_in_place(&self.sets[big.index()]);
        grown.union_in_place(&self.sets[small.index()]);
        let r = self.push(h, &grown);
        self.scratch = grown;
        r
    }

    /// `a ∪ d` together with the *new bits* `d \ a`, both as handles:
    /// `(a, EMPTY)` when nothing is new, and `d` itself as the new bits
    /// when `d` and `a` are disjoint, so a delta that grows its target
    /// whole is forwarded without building a set. A partial overlap builds
    /// `d \ a` in the scratch set and interns it from there.
    pub fn union_delta(&mut self, a: PtsRef, d: PtsRef) -> (PtsRef, PtsRef) {
        let (base, delta) = (&self.sets[a.index()], &self.sets[d.index()]);
        let fresh = if delta.is_subset(base) {
            return (a, PtsRef::EMPTY);
        } else if !delta.intersects(base) {
            d
        } else {
            let mut fresh = std::mem::take(&mut self.scratch);
            delta.difference_into(base, &mut fresh);
            let r = self.intern(&fresh);
            self.scratch = fresh;
            r
        };
        (self.union(a, fresh), fresh)
    }

    /// Number of distinct interned sets.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Intern hit/miss totals since construction.
    pub fn intern_stats(&self) -> InternStats {
        self.intern_stats
    }

    /// The handle at dense index `index`, if one exists.
    ///
    /// The inverse of [`PtsRef::index`]: deserializers that stored raw
    /// indices rebuild validated handles through this instead of forging
    /// them, so an out-of-range table entry surfaces as `None` rather than a
    /// panic on the first `get`.
    pub fn handle(&self, index: usize) -> Option<PtsRef> {
        (index < self.sets.len()).then_some(PtsRef(index as u32))
    }

    /// The interned sets in dense handle order (`sets().nth(r.index())` is
    /// the set behind `r`). This is the pool's stable serialization order:
    /// writing the sets in this order and rebuilding with
    /// [`PtsPool::from_sets`] reproduces every handle bit-for-bit.
    pub fn sets(&self) -> impl ExactSizeIterator<Item = &PtsSet> {
        self.sets.iter()
    }

    /// Rebuilds a pool from a serialized set table, preserving handles.
    ///
    /// The table must be a valid pool image: the first set empty (it becomes
    /// [`PtsRef::EMPTY`]) and no two sets equal — hash-consing would
    /// otherwise assign a different handle than the table position, silently
    /// re-aliasing every downstream reference. Violations are reported as
    /// typed errors, never panics, so corrupted snapshots stay loadable-safe.
    pub fn from_sets<'s>(
        table: impl IntoIterator<Item = &'s PtsSet>,
    ) -> Result<PtsPool, PoolRebuildError> {
        let mut pool = PtsPool::new();
        for (i, set) in table.into_iter().enumerate() {
            if i == 0 {
                if !set.is_empty() {
                    return Err(PoolRebuildError::FirstNotEmpty);
                }
                continue; // `new()` already interned it at id 0.
            }
            let r = pool.intern(set);
            if r.index() != i {
                return Err(PoolRebuildError::Duplicate {
                    index: i,
                    canonical: r.index(),
                });
            }
        }
        Ok(pool)
    }

    /// Heap bytes held by the pool: interned set storage, the arena vector
    /// with its hash cache, the index, the union memo and the scratch set.
    pub fn heap_bytes(&self) -> usize {
        self.set_bytes
            + self.sets.capacity() * std::mem::size_of::<PtsSet>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
            + self.index.capacity() * std::mem::size_of::<u32>()
            + self.memo.capacity() * std::mem::size_of::<(u64, PtsRef)>()
            + self.scratch.heap_bytes()
    }
}

/// The memo key of the unordered handle pair `{a, b}`.
fn pair_key(a: PtsRef, b: PtsRef) -> u64 {
    let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
    u64::from(lo) << 32 | u64::from(hi)
}

/// Output `m + 1` of the SplitMix64 stream seeded with `seed`. Its
/// multiply–xorshift rounds are far from additive, so sums over distinct
/// sets do not collide systematically.
fn mix(seed: u64, m: MemId) -> u64 {
    let step = u64::from(m.raw()) + 1;
    splitmix(seed.wrapping_add(step.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// The SplitMix64 output function.
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`Hasher`] for the union memo's packed handle pairs (`pair_key`),
/// which need mixing: both halves are small dense ids.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("the union memo hashes only u64 keys")
    }
    fn write_u64(&mut self, key: u64) {
        self.0 = splitmix(key);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use fsam_ir::rng::SmallRng;

    use super::*;
    use crate::set::SMALL_MAX;

    fn m(i: u32) -> MemId {
        MemId::new(i)
    }

    #[test]
    fn empty_is_preinterned() {
        let mut pool = PtsPool::new();
        assert_eq!(pool.intern(&PtsSet::new()), PtsRef::EMPTY);
        assert!(pool.get(PtsRef::EMPTY).is_empty());
        assert_eq!(pool.set_count(), 1);
    }

    #[test]
    fn interning_deduplicates() {
        let mut pool = PtsPool::new();
        let a = pool.intern(&[m(1), m(2)].into_iter().collect());
        let b = pool.intern(&[m(2), m(1)].into_iter().collect());
        assert_eq!(a, b);
        assert_eq!(pool.set_count(), 2);
        let c = pool.intern(&[m(1), m(3)].into_iter().collect());
        assert_ne!(a, c);
    }

    /// Representation-independent interning: a bitmap that shrank below the
    /// spill threshold must land on the same handle as the small-vector set.
    #[test]
    fn interning_canonicalizes_across_representations() {
        let mut pool = PtsPool::new();
        let mut bitmap = PtsSet::new();
        for i in 0..40 {
            bitmap.insert(m(i));
        }
        for i in 4..40 {
            bitmap.remove(m(i));
        }
        let small: PtsSet = (0..4).map(m).collect();
        let a = pool.intern(&small);
        let b = pool.intern(&bitmap);
        assert_eq!(a, b);
    }

    #[test]
    fn union_delta_returns_only_new_bits() {
        let mut pool = PtsPool::new();
        let a = pool.intern(&[m(1), m(2)].into_iter().collect());
        let d = pool.intern(&[m(2), m(3), m(4)].into_iter().collect());
        let (grown, fresh) = pool.union_delta(a, d);
        assert_eq!(
            pool.get(grown),
            &[m(1), m(2), m(3), m(4)].into_iter().collect()
        );
        assert_eq!(pool.get(fresh), &[m(3), m(4)].into_iter().collect());
        // Idempotent: no new bits, handle unchanged.
        assert_eq!(pool.union_delta(grown, d), (grown, PtsRef::EMPTY));
        // A disjoint delta is its own new bits.
        let e = pool.intern(&[m(7)].into_iter().collect());
        assert_eq!(pool.union_delta(a, e).1, e);
        // The original handle still maps to the original set (immutability).
        assert_eq!(pool.len_of(a), 2);
    }

    #[test]
    fn union_answers_trivial_pairs_without_the_memo() {
        let mut pool = PtsPool::new();
        let a = pool.intern(&[m(1), m(2)].into_iter().collect());
        let stats = pool.intern_stats();
        assert_eq!(pool.union(a, a), a);
        assert_eq!(pool.union(a, PtsRef::EMPTY), a);
        assert_eq!(pool.union(PtsRef::EMPTY, a), a);
        assert_eq!(pool.intern_stats(), stats);
        assert_eq!(pool.memo.len(), 0);
    }

    #[test]
    fn rebuild_from_sets_preserves_handles() {
        let mut pool = PtsPool::new();
        let a = pool.intern(&[m(1), m(2)].into_iter().collect());
        let b = pool.intern(&(0..40).map(m).collect());
        let rebuilt = PtsPool::from_sets(pool.sets()).unwrap();
        assert_eq!(rebuilt.set_count(), pool.set_count());
        for r in [PtsRef::EMPTY, a, b] {
            assert_eq!(rebuilt.handle(r.index()), Some(r));
            assert_eq!(rebuilt.get(r), pool.get(r));
        }
        assert_eq!(rebuilt.handle(pool.set_count()), None);
        // The rebuilt pool keeps hash-consing: re-interning lands on the
        // original handles.
        let mut rebuilt = rebuilt;
        assert_eq!(rebuilt.intern(&[m(1), m(2)].into_iter().collect()), a);
    }

    #[test]
    fn rebuild_rejects_bad_tables() {
        let one: PtsSet = [m(1)].into_iter().collect();
        assert_eq!(
            PtsPool::from_sets([&one]).unwrap_err(),
            PoolRebuildError::FirstNotEmpty
        );
        assert_eq!(
            PtsPool::from_sets([&PtsSet::new(), &one, &one]).unwrap_err(),
            PoolRebuildError::Duplicate {
                index: 2,
                canonical: 1
            }
        );
        let err = PoolRebuildError::Duplicate {
            index: 2,
            canonical: 1,
        };
        assert!(err.to_string().contains("duplicates"));
        assert!(PoolRebuildError::FirstNotEmpty
            .to_string()
            .contains("empty"));
    }

    #[test]
    fn intern_stats_count_hits_and_misses() {
        let mut pool = PtsPool::new();
        assert_eq!(pool.intern_stats(), InternStats::default());
        pool.intern(&[m(1)].into_iter().collect()); // miss
        pool.intern(&[m(1)].into_iter().collect()); // hit
        pool.intern(&PtsSet::new()); // hit (pre-interned empty)
        assert_eq!(pool.intern_stats(), InternStats { hits: 2, misses: 1 });
    }

    #[test]
    fn heap_bytes_grows_with_contents() {
        let mut pool = PtsPool::new();
        let before = pool.heap_bytes();
        pool.intern(&(0..500).map(m).collect());
        assert!(pool.heap_bytes() > before);
    }

    /// The ids of `ids` as a set built one of three ways: inserted
    /// directly (small vector up to `SMALL_MAX`, bitmap past it), or as a
    /// spilled bitmap shrunk back down by `remove` or by `difference`.
    fn build(rng: &mut SmallRng, ids: &BTreeSet<u32>) -> PtsSet {
        let extra: Vec<u32> = (0..=SMALL_MAX as u32).map(|i| 1_000 + 7 * i).collect();
        match rng.gen_range(0u32..3) {
            0 => ids.iter().copied().map(m).collect(),
            1 => {
                let mut set: PtsSet = ids.iter().chain(&extra).copied().map(m).collect();
                for &e in &extra {
                    set.remove(m(e));
                }
                set
            }
            _ => {
                let big: PtsSet = ids.iter().chain(&extra).copied().map(m).collect();
                let drop: PtsSet = extra.iter().copied().map(m).collect();
                big.difference(&drop)
            }
        }
    }

    /// A random id set on either side of `SMALL_MAX`, from a universe
    /// small enough that sets overlap and repeat.
    fn random_ids(rng: &mut SmallRng) -> BTreeSet<u32> {
        let n = rng.gen_range(0..3 * SMALL_MAX);
        (0..n).map(|_| rng.gen_range(0u32..150)).collect()
    }

    fn as_ids(set: &PtsSet) -> BTreeSet<u32> {
        set.iter().map(MemId::raw).collect()
    }

    /// Seeded properties of interning over random sets in both
    /// representations: equal sets intern to equal handles (and distinct
    /// sets to distinct ones), `union_delta(a, d)` is
    /// `(intern(a ∪ d), intern(d \ a))`, and `from_sets` reproduces every
    /// handle.
    #[test]
    fn interning_properties_hold_on_random_sets() {
        let mut rng = SmallRng::seed_from_u64(0x9001);
        let mut pool = PtsPool::new();
        let mut model: BTreeMap<BTreeSet<u32>, PtsRef> = BTreeMap::new();
        model.insert(BTreeSet::new(), PtsRef::EMPTY);
        for _ in 0..2_000 {
            let ids = random_ids(&mut rng);
            let r = pool.intern(&build(&mut rng, &ids));
            assert_eq!(*model.entry(ids.clone()).or_insert(r), r, "{ids:?}");
            assert_eq!(pool.intern(&build(&mut rng, &ids)), r, "{ids:?}");

            let a = *model.values().nth(rng.gen_range(0..model.len())).unwrap();
            let d_ids = random_ids(&mut rng);
            let a_ids = as_ids(pool.get(a));
            let d = pool.intern(&build(&mut rng, &d_ids));
            model.entry(d_ids.clone()).or_insert(d);
            let (u, fresh) = pool.union_delta(a, d);
            let u_ids: BTreeSet<u32> = a_ids.union(&d_ids).copied().collect();
            let fresh_ids: BTreeSet<u32> = d_ids.difference(&a_ids).copied().collect();
            assert_eq!(as_ids(pool.get(u)), u_ids);
            assert_eq!(pool.intern(&build(&mut rng, &u_ids)), u);
            assert_eq!(as_ids(pool.get(fresh)), fresh_ids);
            assert_eq!(pool.intern(&build(&mut rng, &fresh_ids)), fresh);
            if fresh == PtsRef::EMPTY {
                assert_eq!(u, a);
            }
            assert_eq!(*model.entry(u_ids).or_insert(u), u);
            assert_eq!(*model.entry(fresh_ids).or_insert(fresh), fresh);
        }
        assert_eq!(pool.set_count(), model.len());
        let mut rebuilt = PtsPool::from_sets(pool.sets()).unwrap();
        for (ids, &r) in &model {
            assert_eq!(rebuilt.handle(r.index()), Some(r));
            assert_eq!(as_ids(rebuilt.get(r)), *ids);
            assert_eq!(rebuilt.intern(&build(&mut rng, ids)), r);
        }
        assert_eq!(rebuilt.set_count(), pool.set_count());
    }

    /// How `d` relates to `a` in one `union_delta(a, d)` case.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    enum Overlap {
        Empty,
        Subset,
        Disjoint,
        Partial,
    }

    /// A random `d` standing in relation `case` to `a_ids`, from the
    /// same universe as [`random_ids`].
    fn related_ids(rng: &mut SmallRng, a_ids: &BTreeSet<u32>, case: Overlap) -> BTreeSet<u32> {
        let inside: Vec<u32> = a_ids.iter().copied().collect();
        let outside: Vec<u32> = (0u32..150).filter(|i| !a_ids.contains(i)).collect();
        let pick = |from: &[u32], rng: &mut SmallRng| -> BTreeSet<u32> {
            let n = rng.gen_range(1..from.len().min(2 * SMALL_MAX) + 1);
            (0..n).map(|_| from[rng.gen_range(0..from.len())]).collect()
        };
        match case {
            Overlap::Empty => BTreeSet::new(),
            Overlap::Subset => pick(&inside, rng),
            Overlap::Disjoint => pick(&outside, rng),
            Overlap::Partial => {
                let mut d = pick(&inside, rng);
                d.extend(pick(&outside, rng));
                d
            }
        }
    }

    /// Seeded properties of the handle operations against a `BTreeSet`
    /// model: `union(a, b)` is `intern(a ∪ b)`, is commutative and is
    /// answered by the memo the second time (no new set, one more hit);
    /// `union_delta(a, d)` is `(a ∪ d, d \ a)` in the empty, subset,
    /// disjoint and partial cases, with `(a, EMPTY)` when nothing is new
    /// and `d` itself when `d` is disjoint from `a`; and a pool rebuilt
    /// with `from_sets` hashes consistently: it re-interns every set and
    /// every union onto the original handles.
    #[test]
    fn interning_properties_of_handle_unions() {
        let mut rng = SmallRng::seed_from_u64(0x51ab);
        let mut pool = PtsPool::new();
        let mut handles = vec![PtsRef::EMPTY];
        let mut cases = BTreeMap::new();
        for _ in 0..2_000 {
            let a_ids = random_ids(&mut rng);
            let a = pool.intern(&build(&mut rng, &a_ids));
            let b = handles[rng.gen_range(0..handles.len())];
            let b_ids = as_ids(pool.get(b));

            let u = pool.union(a, b);
            let u_ids: BTreeSet<u32> = a_ids.union(&b_ids).copied().collect();
            assert_eq!(as_ids(pool.get(u)), u_ids);
            assert_eq!(pool.intern(&build(&mut rng, &u_ids)), u);
            assert_eq!(pool.union(b, a), u);
            let (count, stats) = (pool.set_count(), pool.intern_stats());
            assert_eq!(pool.union(a, b), u);
            assert_eq!(pool.set_count(), count);
            let memoized = a != b && a != PtsRef::EMPTY && b != PtsRef::EMPTY;
            assert_eq!(pool.intern_stats().hits, stats.hits + u64::from(memoized));
            assert_eq!(pool.intern_stats().misses, stats.misses);

            let case = [
                Overlap::Empty,
                Overlap::Subset,
                Overlap::Disjoint,
                Overlap::Partial,
            ][rng.gen_range(0..4)];
            let case = match case {
                Overlap::Subset | Overlap::Partial if a_ids.is_empty() => Overlap::Empty,
                case => case,
            };
            let d_ids = related_ids(&mut rng, &a_ids, case);
            let d = pool.intern(&build(&mut rng, &d_ids));
            let (grown, fresh) = pool.union_delta(a, d);
            let fresh_ids: BTreeSet<u32> = d_ids.difference(&a_ids).copied().collect();
            let grown_ids: BTreeSet<u32> = a_ids.union(&d_ids).copied().collect();
            assert_eq!(as_ids(pool.get(grown)), grown_ids, "{case:?}");
            assert_eq!(as_ids(pool.get(fresh)), fresh_ids, "{case:?}");
            assert_eq!(grown, pool.union(a, d), "{case:?}");
            match case {
                Overlap::Empty | Overlap::Subset => assert_eq!((grown, fresh), (a, PtsRef::EMPTY)),
                Overlap::Disjoint => assert_eq!(fresh, d),
                Overlap::Partial => assert_eq!(fresh, pool.intern(&build(&mut rng, &fresh_ids))),
            }
            *cases.entry(case).or_insert(0) += 1;
            handles.extend([a, u, d, grown, fresh]);
        }
        assert!(cases.values().all(|&n| n >= 300), "{cases:?}");

        let mut rebuilt = PtsPool::from_sets(pool.sets()).unwrap();
        for r in (0..pool.set_count()).map(|i| pool.handle(i).unwrap()) {
            assert_eq!(rebuilt.hashes[r.index()], rebuilt.hash_of(pool.get(r)));
            assert_eq!(rebuilt.intern(&build(&mut rng, &as_ids(pool.get(r)))), r);
        }
        for _ in 0..2_000 {
            let a = handles[rng.gen_range(0..handles.len())];
            let b = handles[rng.gen_range(0..handles.len())];
            let u_ids: BTreeSet<u32> = as_ids(pool.get(a))
                .union(&as_ids(pool.get(b)))
                .copied()
                .collect();
            let u = rebuilt.union(a, b);
            assert_eq!(as_ids(rebuilt.get(u)), u_ids);
            assert_eq!(rebuilt.intern(&build(&mut rng, &u_ids)), u);
            if u.index() < pool.set_count() {
                assert_eq!(u, pool.union(a, b));
            }
        }
    }

    /// The heap bytes of `ids` stored canonically: the sorted vector at
    /// exact capacity up to `SMALL_MAX` members, past it the bitmap up to
    /// the word of the largest member.
    fn canonical_bytes(ids: &BTreeSet<u32>) -> usize {
        match ids.iter().next_back() {
            Some(&max) if ids.len() > SMALL_MAX => 8 * (max as usize / 64 + 1),
            _ => 4 * ids.len(),
        }
    }

    /// Seeded properties of the borrowed intern path: a scratch set reused
    /// from build to build (reset, never dropped, so once spilled it stays
    /// a bitmap even when it holds `SMALL_MAX` members or fewer) interns to
    /// the handle of the same members built fresh, and the pool stores a
    /// canonical copy at exact capacity; `union_delta`'s scratch difference
    /// is the handle of `d \ a` built fresh; the index keeps every handle
    /// through many doublings; and a frozen pool interns canonically.
    #[test]
    fn interning_properties_of_borrowed_scratch_sets() {
        let mut rng = SmallRng::seed_from_u64(0xb0b0);
        let mut pool = PtsPool::new();
        let mut scratch = PtsSet::new();
        let mut model: BTreeMap<BTreeSet<u32>, PtsRef> = BTreeMap::new();
        model.insert(BTreeSet::new(), PtsRef::EMPTY);
        let (mut spilled_small, mut doublings, mut slots) = (0, 0, pool.index.len());
        for round in 0..6_000 {
            // Early rounds keep the scratch small; later ones spill it.
            let ids = if round % 3 == 0 && round > 100 {
                (0..rng.gen_range(0..4 * SMALL_MAX))
                    .map(|_| rng.gen_range(0u32..600))
                    .collect()
            } else {
                random_ids(&mut rng)
            };
            scratch.reset();
            scratch.extend(ids.iter().copied().map(m));
            if scratch.is_bitmap() && ids.len() <= SMALL_MAX {
                spilled_small += 1;
            }
            let bytes = pool.heap_bytes();
            let r = pool.intern(&scratch);
            let fresh: PtsSet = ids.iter().copied().map(m).collect();
            assert_eq!(pool.intern(&fresh), r, "{ids:?}");
            assert_eq!(*model.entry(ids.clone()).or_insert(r), r, "{ids:?}");
            assert_eq!(as_ids(pool.get(r)), ids);
            assert_eq!(pool.get(r).heap_bytes(), canonical_bytes(&ids), "{ids:?}");
            if pool.index.len() != slots {
                doublings += 1;
                slots = pool.index.len();
            } else if r.index() + 1 == pool.set_count() && model.len() == pool.set_count() {
                // A miss grows the pool by exactly the canonical copy.
                let grown = pool.heap_bytes() - bytes;
                assert!(grown >= canonical_bytes(&ids), "{ids:?}");
            }
            assert!(pool.index.len().is_power_of_two());
            assert!(pool.index.len() >= 2 * pool.set_count());

            let a = *model.values().nth(rng.gen_range(0..model.len())).unwrap();
            let a_ids = as_ids(pool.get(a));
            let (_, fresh) = pool.union_delta(a, r);
            let d_minus_a: BTreeSet<u32> = ids.difference(&a_ids).copied().collect();
            let built: PtsSet = d_minus_a.iter().copied().map(m).collect();
            assert_eq!(pool.intern(&built), fresh);
            assert_eq!(pool.get(fresh).heap_bytes(), canonical_bytes(&d_minus_a));
            model.entry(d_minus_a).or_insert(fresh);
            let u = pool.union(a, r);
            model.entry(as_ids(pool.get(u))).or_insert(u);
        }
        assert!(
            spilled_small >= 300,
            "{spilled_small} small builds in a bitmap"
        );
        assert!(doublings >= 5, "{doublings} index doublings");
        assert_eq!(pool.set_count(), model.len());

        // Frozen: the working state is gone, the sets and handles stay, and
        // interning rebuilds the index first.
        let count = pool.set_count();
        pool.freeze();
        assert!(pool.index.is_empty() && pool.hashes.is_empty() && pool.memo.is_empty());
        assert_eq!(
            pool.heap_bytes(),
            pool.set_bytes + pool.sets.capacity() * std::mem::size_of::<PtsSet>()
        );
        for (ids, &r) in model.iter().take(500) {
            scratch.reset();
            scratch.extend(ids.iter().copied().map(m));
            assert_eq!(pool.intern(&scratch), r, "{ids:?}");
        }
        assert_eq!(pool.set_count(), count);
        let new: BTreeSet<u32> = (600..640).collect();
        let r = pool.intern(&new.iter().copied().map(m).collect());
        assert_eq!((r.index(), as_ids(pool.get(r))), (count, new));
        let mut frozen = PtsPool::from_sets(pool.sets()).unwrap();
        frozen.freeze();
        let (a, b) = (*model.values().nth(model.len() / 2).unwrap(), r);
        let u = frozen.union(a, b);
        assert_eq!(u, pool.union(a, b));
    }

    /// `retain` keeps the sets the tables name, renumbered in first-use
    /// order with ∅ first, moves them, rewrites the tables and freezes.
    #[test]
    fn retain_renumbers_in_first_use_order_and_freezes() {
        let mut pool = PtsPool::new();
        let sets: Vec<PtsSet> = (0..6u32).map(|i| (i..i + 3 * i).map(m).collect()).collect();
        let h: Vec<PtsRef> = sets.iter().map(|s| pool.intern(s)).collect();
        let mut vars = [h[4], PtsRef::EMPTY, h[2], h[4]];
        let mut slots = [h[5], h[2]];
        pool.retain(&mut [&mut vars[..], &mut slots[..]]);
        assert_eq!(pool.set_count(), 4);
        assert!(pool.index.is_empty() && pool.hashes.is_empty());
        assert_eq!(
            vars.iter().map(|r| r.index()).collect::<Vec<_>>(),
            [1, 0, 2, 1]
        );
        assert_eq!(slots.iter().map(|r| r.index()).collect::<Vec<_>>(), [3, 2]);
        assert_eq!(pool.get(vars[0]), &sets[4]);
        assert_eq!(pool.get(vars[2]), &sets[2]);
        assert_eq!(pool.get(slots[0]), &sets[5]);
        assert_eq!(
            pool.set_bytes,
            pool.sets().map(PtsSet::heap_bytes).sum::<usize>()
        );
        assert_eq!(pool.intern(&sets[5]), slots[0]);
    }
}
