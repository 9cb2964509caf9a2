//! Hybrid points-to sets.
//!
//! Points-to sets are the dominant memory consumer in both FSAM and the
//! NonSparse baseline (the paper's Table 2 memory column measures exactly
//! this growth). [`PtsSet`] uses the classic hybrid representation: small
//! sets are a sorted inline vector; sets past a threshold switch to a dense
//! bitmap of 64-bit words. Both representations support fast union
//! (`union_in_place` returns whether anything changed, which drives the
//! worklists) and byte-accurate [`heap_bytes`](PtsSet::heap_bytes)
//! accounting for the memory experiments.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::objects::MemId;

/// Sets smaller than this stay in the sorted-vector representation.
pub(crate) const SMALL_MAX: usize = 16;

#[derive(Clone)]
enum Repr {
    /// Sorted, deduplicated vector of ids.
    Small(Vec<u32>),
    /// Dense bitmap; `len` tracks the population count.
    Bits { words: Vec<u64>, len: usize },
}

/// A set of [`MemId`]s with a hybrid small-vector/bitmap representation.
///
/// Equality and hashing are *canonical* (element-wise): two sets holding the
/// same ids compare equal and hash identically even when their
/// representations differ (a bitmap can drop to ≤ `SMALL_MAX` (16) elements
/// after removals and still compare equal to a small-vector set). The
/// hash-consing [`PtsPool`](crate::pool::PtsPool) relies on this.
#[derive(Clone)]
pub struct PtsSet {
    repr: Repr,
}

impl PartialEq for PtsSet {
    fn eq(&self, other: &PtsSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => a == b,
            (Repr::Bits { words: a, len: la }, Repr::Bits { words: b, len: lb }) => {
                la == lb && {
                    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                    short.iter().zip(long.iter()).all(|(x, y)| x == y)
                        && long[short.len()..].iter().all(|&w| w == 0)
                }
            }
            _ => self.len() == other.len() && self.iter().zip(other.iter()).all(|(x, y)| x == y),
        }
    }
}

impl Eq for PtsSet {}

impl Hash for PtsSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for m in self.iter() {
            state.write_u32(m.raw());
        }
    }
}

impl Default for PtsSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PtsSet {
    /// Creates an empty set.
    pub const fn new() -> Self {
        Self {
            repr: Repr::Small(Vec::new()),
        }
    }

    /// Creates a singleton set.
    pub fn singleton(id: MemId) -> Self {
        Self {
            repr: Repr::Small(vec![id.raw()]),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Small(v) => v.len(),
            Repr::Bits { len, .. } => *len,
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the set contains `id`.
    pub fn contains(&self, id: MemId) -> bool {
        match &self.repr {
            Repr::Small(v) => v.binary_search(&id.raw()).is_ok(),
            Repr::Bits { words, .. } => {
                let (w, b) = (id.raw() as usize / 64, id.raw() as usize % 64);
                w < words.len() && words[w] & (1 << b) != 0
            }
        }
    }

    /// Inserts `id`; returns `true` if it was not already present.
    pub fn insert(&mut self, id: MemId) -> bool {
        match &mut self.repr {
            Repr::Small(v) => match v.binary_search(&id.raw()) {
                Ok(_) => false,
                Err(pos) => {
                    v.insert(pos, id.raw());
                    if v.len() > SMALL_MAX {
                        self.spill();
                    }
                    true
                }
            },
            Repr::Bits { words, len } => {
                let (w, b) = (id.raw() as usize / 64, id.raw() as usize % 64);
                if w >= words.len() {
                    words.resize(w + 1, 0);
                }
                let fresh = words[w] & (1 << b) == 0;
                if fresh {
                    words[w] |= 1 << b;
                    *len += 1;
                }
                fresh
            }
        }
    }

    /// Removes `id`; returns `true` if it was present.
    pub fn remove(&mut self, id: MemId) -> bool {
        match &mut self.repr {
            Repr::Small(v) => match v.binary_search(&id.raw()) {
                Ok(pos) => {
                    v.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Repr::Bits { words, len } => {
                let (w, b) = (id.raw() as usize / 64, id.raw() as usize % 64);
                if w < words.len() && words[w] & (1 << b) != 0 {
                    words[w] &= !(1 << b);
                    *len -= 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.repr = Repr::Small(Vec::new());
    }

    /// Unions `other` into `self`; returns `true` if `self` grew.
    pub fn union_in_place(&mut self, other: &PtsSet) -> bool {
        if other.is_empty() {
            return false;
        }
        match (&mut self.repr, &other.repr) {
            (Repr::Bits { words, len }, Repr::Bits { words: ow, .. }) => {
                if words.len() < ow.len() {
                    words.resize(ow.len(), 0);
                }
                let mut added = 0usize;
                for (w, o) in words.iter_mut().zip(ow.iter()) {
                    let fresh = o & !*w;
                    if fresh != 0 {
                        added += fresh.count_ones() as usize;
                        *w |= o;
                    }
                }
                *len += added;
                added > 0
            }
            (_, Repr::Small(ov)) => {
                let mut changed = false;
                for &id in ov {
                    changed |= self.insert(MemId::new(id));
                }
                changed
            }
            (Repr::Small(_), Repr::Bits { .. }) => {
                self.spill();
                self.union_in_place(other)
            }
        }
    }

    /// Whether `self` and `other` share at least one element.
    pub fn intersects(&self, other: &PtsSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), _) if a.len() <= other.len() => {
                a.iter().any(|&id| other.contains(MemId::new(id)))
            }
            (_, Repr::Small(b)) => b.iter().any(|&id| self.contains(MemId::new(id))),
            (Repr::Bits { words: a, .. }, Repr::Bits { words: b, .. }) => {
                a.iter().zip(b.iter()).any(|(x, y)| x & y != 0)
            }
            (Repr::Small(a), _) => a.iter().any(|&id| other.contains(MemId::new(id))),
        }
    }

    /// The intersection of two sets.
    pub fn intersection(&self, other: &PtsSet) -> PtsSet {
        let (small, big) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = PtsSet::new();
        for id in small.iter() {
            if big.contains(id) {
                out.insert(id);
            }
        }
        out
    }

    /// The elements of `self` that are not in `other` (`self \ other`).
    ///
    /// This is the delta-propagation primitive: the solver diffs an incoming
    /// pending set against a target's current value and forwards only the
    /// new bits.
    pub fn difference(&self, other: &PtsSet) -> PtsSet {
        if other.is_empty() {
            return self.clone();
        }
        match (&self.repr, &other.repr) {
            (Repr::Bits { words: a, .. }, Repr::Bits { words: b, .. }) => {
                let mut words: Vec<u64> = a
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| w & !b.get(i).copied().unwrap_or(0))
                    .collect();
                while words.last() == Some(&0) {
                    words.pop();
                }
                let len = words.iter().map(|w| w.count_ones() as usize).sum();
                if len == 0 {
                    PtsSet::new()
                } else {
                    PtsSet {
                        repr: Repr::Bits { words, len },
                    }
                }
            }
            _ => {
                let mut out = PtsSet::new();
                for m in self.iter() {
                    if !other.contains(m) {
                        out.insert(m);
                    }
                }
                out
            }
        }
    }

    /// Drops a bitmap of at most `SMALL_MAX` members to the sorted vector,
    /// the representation inserting the same members one by one builds
    /// (a [`difference`](PtsSet::difference) of bitmaps stays a bitmap).
    pub fn compact(&mut self) {
        if let Repr::Bits { len, .. } = self.repr {
            if len <= SMALL_MAX {
                *self = self.iter().collect();
            }
        }
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &PtsSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Bits { words: a, .. }, Repr::Bits { words: b, .. }) => a
                .iter()
                .enumerate()
                .all(|(i, &w)| w & !b.get(i).copied().unwrap_or(0) == 0),
            _ => self.iter().all(|id| other.contains(id)),
        }
    }

    /// If the set has exactly one element, returns it.
    pub fn as_singleton(&self) -> Option<MemId> {
        if self.len() == 1 {
            self.iter().next()
        } else {
            None
        }
    }

    /// Iterates over the elements in ascending id order.
    pub fn iter(&self) -> Iter<'_> {
        match &self.repr {
            Repr::Small(v) => Iter::Small(v.iter()),
            Repr::Bits { words, .. } => Iter::Bits {
                words,
                word_idx: 0,
                cur: words.first().copied().unwrap_or(0),
            },
        }
    }

    /// Heap bytes used by this set's storage (the quantity summed by
    /// [`MemoryMeter`](crate::meter::MemoryMeter)).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Small(v) => v.capacity() * std::mem::size_of::<u32>(),
            Repr::Bits { words, .. } => words.capacity() * std::mem::size_of::<u64>(),
        }
    }

    fn spill(&mut self) {
        if let Repr::Small(v) = &self.repr {
            let max = v.last().copied().unwrap_or(0) as usize;
            let mut words = vec![0u64; max / 64 + 1];
            for &id in v {
                words[id as usize / 64] |= 1 << (id as usize % 64);
            }
            let len = v.len();
            self.repr = Repr::Bits { words, len };
        }
    }
}

impl fmt::Debug for PtsSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<MemId> for PtsSet {
    fn from_iter<I: IntoIterator<Item = MemId>>(iter: I) -> Self {
        let mut s = PtsSet::new();
        for id in iter {
            s.insert(id);
        }
        s
    }
}

impl Extend<MemId> for PtsSet {
    fn extend<I: IntoIterator<Item = MemId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl<'a> IntoIterator for &'a PtsSet {
    type Item = MemId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over a [`PtsSet`], produced by [`PtsSet::iter`].
#[derive(Clone, Debug)]
pub enum Iter<'a> {
    #[doc(hidden)]
    Small(std::slice::Iter<'a, u32>),
    #[doc(hidden)]
    Bits {
        words: &'a [u64],
        word_idx: usize,
        cur: u64,
    },
}

impl Iterator for Iter<'_> {
    type Item = MemId;

    fn next(&mut self) -> Option<MemId> {
        match self {
            Iter::Small(it) => it.next().map(|&id| MemId::new(id)),
            Iter::Bits {
                words,
                word_idx,
                cur,
            } => loop {
                if *cur != 0 {
                    let bit = cur.trailing_zeros();
                    *cur &= *cur - 1;
                    return Some(MemId::new((*word_idx as u32) * 64 + bit));
                }
                *word_idx += 1;
                if *word_idx >= words.len() {
                    return None;
                }
                *cur = words[*word_idx];
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: u32) -> MemId {
        MemId::new(i)
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = PtsSet::new();
        assert!(s.insert(m(5)));
        assert!(!s.insert(m(5)));
        assert!(s.contains(m(5)));
        assert!(!s.contains(m(6)));
        assert!(s.remove(m(5)));
        assert!(!s.remove(m(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn spills_to_bitmap_and_back_compatible() {
        let mut s = PtsSet::new();
        for i in 0..100 {
            assert!(s.insert(m(i * 3)));
        }
        assert_eq!(s.len(), 100);
        for i in 0..100 {
            assert!(s.contains(m(i * 3)));
            assert!(!s.contains(m(i * 3 + 1)));
        }
        let collected: Vec<u32> = s.iter().map(|x| x.raw()).collect();
        let expected: Vec<u32> = (0..100).map(|i| i * 3).collect();
        assert_eq!(collected, expected);
    }

    #[test]
    fn union_small_into_small() {
        let a: PtsSet = [m(1), m(3)].into_iter().collect();
        let mut b: PtsSet = [m(2)].into_iter().collect();
        assert!(b.union_in_place(&a));
        assert!(!b.union_in_place(&a)); // idempotent
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn union_across_representations() {
        let big: PtsSet = (0..200).map(m).collect();
        let mut small: PtsSet = [m(500)].into_iter().collect();
        assert!(small.union_in_place(&big));
        assert_eq!(small.len(), 201);
        assert!(small.contains(m(500)));
        let mut big2: PtsSet = (0..200).map(m).collect();
        let tiny: PtsSet = [m(500), m(3)].into_iter().collect();
        assert!(big2.union_in_place(&tiny));
        assert_eq!(big2.len(), 201);
    }

    #[test]
    fn intersects_and_intersection() {
        let a: PtsSet = [m(1), m(2), m(3)].into_iter().collect();
        let b: PtsSet = [m(3), m(4)].into_iter().collect();
        let c: PtsSet = [m(900)].into_iter().collect();
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&b), [m(3)].into_iter().collect());
        let big: PtsSet = (0..300).map(m).collect();
        assert!(big.intersects(&a));
        assert_eq!(big.intersection(&c).len(), 0);
    }

    #[test]
    fn subset_and_singleton() {
        let a: PtsSet = [m(1), m(2)].into_iter().collect();
        let b: PtsSet = [m(1), m(2), m(3)].into_iter().collect();
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert_eq!(PtsSet::singleton(m(7)).as_singleton(), Some(m(7)));
        assert_eq!(a.as_singleton(), None);
        assert_eq!(PtsSet::new().as_singleton(), None);
    }

    #[test]
    fn heap_bytes_tracks_representation() {
        let mut s = PtsSet::new();
        s.insert(m(1));
        let small_bytes = s.heap_bytes();
        for i in 0..1000 {
            s.insert(m(i));
        }
        assert!(s.heap_bytes() > small_bytes);
    }

    /// Canonical equality: a bitmap shrunk below the spill threshold by
    /// removals must still equal (and hash like) a small-vector set with the
    /// same elements.
    #[test]
    fn equality_and_hash_are_representation_independent() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        let mut bitmap = PtsSet::new();
        for i in 0..40 {
            bitmap.insert(m(i));
        }
        for i in 8..40 {
            bitmap.remove(m(i));
        }
        let small: PtsSet = (0..8).map(m).collect();
        assert_eq!(bitmap, small);
        assert_eq!(small, bitmap);

        let hash = |s: &PtsSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&bitmap), hash(&small));

        let other: PtsSet = (1..9).map(m).collect();
        assert_ne!(bitmap, other);
    }

    #[test]
    fn difference_across_representations() {
        let big: PtsSet = (0..100).map(m).collect();
        let small: PtsSet = [m(1), m(99), m(200)].into_iter().collect();
        let d = big.difference(&small);
        assert_eq!(d.len(), 98);
        assert!(!d.contains(m(1)));
        assert!(!d.contains(m(99)));
        assert!(d.contains(m(0)));
        let d2 = small.difference(&big);
        assert_eq!(d2, PtsSet::singleton(m(200)));
        assert!(big.difference(&big).is_empty());
        assert_eq!(big.difference(&PtsSet::new()), big);
    }

    #[test]
    fn compact_drops_small_bitmaps_to_the_vector() {
        let big: PtsSet = (0..40).map(m).collect();
        let mut d = big.difference(&(16..40).map(m).collect());
        assert!(matches!(d.repr, Repr::Bits { .. }));
        d.compact();
        assert!(matches!(d.repr, Repr::Small(_)));
        assert_eq!(d, (0..16).map(m).collect());
        // Past the threshold the bitmap stays.
        let mut d = big.difference(&(17..40).map(m).collect());
        d.compact();
        assert!(matches!(d.repr, Repr::Bits { len: 17, .. }));
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", PtsSet::new()), "{}");
        let s = PtsSet::singleton(m(4));
        assert_eq!(format!("{s:?}"), "{M4}");
    }
}
