//! An indexed min-priority worklist.
//!
//! The sparse solvers assign every worklist item a *static* topological
//! key from the SCC condensation of their def-use graph (see
//! [`fsam_mssa::topo`]). The delta solver keys on SCC depth and drains one
//! whole level per round ([`IndexedPriorityQueue::pop_level`]); the
//! recompute oracle keys on the total priority order and pops one item at
//! a time ([`IndexedPriorityQueue::pop`]). Either way definitions are
//! processed before their transitive uses whenever the graph is acyclic,
//! so a fact crosses each region once per fixpoint round instead of
//! rippling in LIFO order.
//!
//! Priorities never change after construction, so no decrease-key is
//! needed: a plain binary heap of `(priority, item)` pairs plus a dense
//! `queued` bitmap (for O(1) dedup) suffices. Ties break on the item id,
//! keeping pops — and therefore solver results — fully deterministic.

/// A deduplicating min-priority queue over dense item ids with fixed
/// priorities.
#[derive(Debug)]
pub struct IndexedPriorityQueue {
    prio: Vec<u32>,
    /// Binary min-heap of item ids, ordered by `(prio[id], id)`.
    heap: Vec<u32>,
    queued: Vec<bool>,
}

impl IndexedPriorityQueue {
    /// Creates a queue for items `0..prio.len()`, each with its fixed
    /// priority.
    pub fn new(prio: Vec<u32>) -> Self {
        let n = prio.len();
        IndexedPriorityQueue {
            prio,
            heap: Vec::new(),
            queued: vec![false; n],
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    #[inline]
    fn key(&self, id: u32) -> (u32, u32) {
        (self.prio[id as usize], id)
    }

    /// Enqueues `id`; returns `false` if it was already queued.
    pub fn push(&mut self, id: usize) -> bool {
        if self.queued[id] {
            return false;
        }
        self.queued[id] = true;
        self.heap.push(id as u32);
        self.sift_up(self.heap.len() - 1);
        true
    }

    /// Pops the queued item with the smallest `(priority, id)`.
    pub fn pop(&mut self) -> Option<usize> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        self.queued[top as usize] = false;
        Some(top as usize)
    }

    /// Pops *every* queued item sharing the current smallest priority,
    /// appending them to `out` in ascending id order (the heap's tie-break).
    ///
    /// One call is one round of the delta solver's level drain: with the
    /// queue keyed on topological *levels* rather than the total priority
    /// order, everything returned here is mutually independent outside its
    /// own SCC. `out` is cleared first. Items pushed back while the batch
    /// is being processed re-enter the queue for a later call.
    pub fn pop_level(&mut self, out: &mut Vec<usize>) {
        out.clear();
        let Some(&first) = self.heap.first() else {
            return;
        };
        let level = self.prio[first as usize];
        while let Some(&top) = self.heap.first() {
            if self.prio[top as usize] != level {
                break;
            }
            out.push(self.pop().expect("non-empty heap"));
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.key(self.heap[i]) < self.key(self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.heap.len() && self.key(self.heap[l]) < self.key(self.heap[smallest]) {
                smallest = l;
            }
            if r < self.heap.len() && self.key(self.heap[r]) < self.key(self.heap[smallest]) {
                smallest = r;
            }
            if smallest == i {
                return;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_priority_order() {
        let mut q = IndexedPriorityQueue::new(vec![3, 0, 2, 1]);
        for i in 0..4 {
            assert!(q.push(i));
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
        assert!(q.is_empty());
    }

    #[test]
    fn push_deduplicates_until_popped() {
        let mut q = IndexedPriorityQueue::new(vec![0, 1]);
        assert!(q.push(0));
        assert!(!q.push(0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(0));
        assert!(q.push(0), "re-queuable after pop");
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_priorities_break_ties_by_id() {
        let mut q = IndexedPriorityQueue::new(vec![5; 6]);
        for i in [4, 2, 0, 5, 1, 3] {
            q.push(i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn pop_level_drains_exactly_one_priority_band() {
        let mut q = IndexedPriorityQueue::new(vec![1, 0, 1, 0, 2, 1]);
        for i in 0..6 {
            q.push(i);
        }
        let mut batch = Vec::new();
        q.pop_level(&mut batch);
        assert_eq!(batch, vec![1, 3], "level 0, ascending id");
        q.pop_level(&mut batch);
        assert_eq!(batch, vec![0, 2, 5], "level 1, ascending id");
        q.pop_level(&mut batch);
        assert_eq!(batch, vec![4]);
        q.pop_level(&mut batch);
        assert!(batch.is_empty(), "empty queue yields an empty batch");
        assert!(q.is_empty());
    }

    #[test]
    fn pop_level_items_can_requeue_for_a_later_batch() {
        let mut q = IndexedPriorityQueue::new(vec![0, 0, 1]);
        q.push(0);
        q.push(1);
        let mut batch = Vec::new();
        q.pop_level(&mut batch);
        assert_eq!(batch, vec![0, 1]);
        // A popped item pushed back mid-batch lands in a later call, even at
        // the same priority.
        assert!(q.push(1));
        assert!(q.push(2));
        q.pop_level(&mut batch);
        assert_eq!(batch, vec![1]);
        q.pop_level(&mut batch);
        assert_eq!(batch, vec![2]);
    }

    #[test]
    fn interleaved_push_pop_keeps_heap_invariant() {
        use fsam_ir::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x90E0E);
        let n = 64usize;
        let prio: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..8)).collect();
        let mut q = IndexedPriorityQueue::new(prio.clone());
        let mut queued = vec![false; n];
        for _ in 0..1000 {
            if rng.gen_bool(0.6) {
                let id = rng.gen_range(0u32..n as u32) as usize;
                assert_eq!(q.push(id), !queued[id]);
                queued[id] = true;
            } else if let Some(popped) = q.pop() {
                assert!(queued[popped]);
                queued[popped] = false;
                // Min-heap property: nothing queued has a smaller key.
                for (id, &still) in queued.iter().enumerate() {
                    if still {
                        assert!((prio[popped], popped) < (prio[id], id));
                    }
                }
            }
        }
    }
}
