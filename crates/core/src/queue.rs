//! The delta solver's level-bucket worklist.
//!
//! The delta solver keys every worklist item on the topological *level*
//! of its SCC in the condensation of the def-use graph (see
//! [`fsam_mssa::topo`]) and drains one whole level per round. Levels are
//! small dense integers that never change after construction, so the
//! queue is one bucket of item ids per level, a dense `queued` bitmap for
//! O(1) dedup, and a cursor at the lowest level that may be non-empty.
//! A round sorts its bucket, so items come back in ascending id order and
//! the solve is fully deterministic.

/// A deduplicating worklist over dense item ids with fixed levels, popped
/// one level at a time.
#[derive(Debug)]
pub(crate) struct LevelQueue {
    level: Vec<u32>,
    /// Queued item ids per level, in push order.
    buckets: Vec<Vec<u32>>,
    queued: Vec<bool>,
    /// No bucket below `cursor` holds an item.
    cursor: usize,
    len: usize,
}

impl LevelQueue {
    /// Creates a queue for items `0..level.len()`, each with its fixed
    /// level.
    pub(crate) fn new(level: Vec<u32>) -> Self {
        let levels = level.iter().max().map_or(0, |&l| l as usize + 1);
        LevelQueue {
            queued: vec![false; level.len()],
            level,
            buckets: vec![Vec::new(); levels],
            cursor: levels,
            len: 0,
        }
    }

    /// Whether nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues `id`; returns `false` if it was already queued.
    pub(crate) fn push(&mut self, id: usize) -> bool {
        if std::mem::replace(&mut self.queued[id], true) {
            return false;
        }
        let l = self.level[id] as usize;
        self.buckets[l].push(id as u32);
        self.cursor = self.cursor.min(l);
        self.len += 1;
        true
    }

    /// Pops *every* queued item of the lowest queued level into `out`
    /// (cleared first), in ascending id order.
    ///
    /// One call is one round of the delta solver's level drain: everything
    /// returned is mutually independent outside its own SCC. Items pushed
    /// back while the batch is being processed re-enter the queue for a
    /// later call, even at the same level.
    pub(crate) fn pop_level(&mut self, out: &mut Vec<u32>) {
        out.clear();
        if self.len == 0 {
            return;
        }
        while self.buckets[self.cursor].is_empty() {
            self.cursor += 1;
        }
        std::mem::swap(out, &mut self.buckets[self.cursor]);
        out.sort_unstable();
        for &id in out.iter() {
            self.queued[id as usize] = false;
        }
        self.len -= out.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut LevelQueue) -> Vec<Vec<u32>> {
        let mut batches = Vec::new();
        let mut batch = Vec::new();
        while !q.is_empty() {
            q.pop_level(&mut batch);
            batches.push(batch.clone());
        }
        batches
    }

    #[test]
    fn pop_level_drains_exactly_one_band_in_id_order() {
        let mut q = LevelQueue::new(vec![1, 0, 1, 0, 2, 1]);
        for i in [5, 4, 3, 2, 1, 0] {
            assert!(q.push(i));
        }
        assert_eq!(drain(&mut q), vec![vec![1, 3], vec![0, 2, 5], vec![4]]);
        let mut batch = vec![7];
        q.pop_level(&mut batch);
        assert!(batch.is_empty(), "empty queue yields an empty batch");
    }

    #[test]
    fn push_deduplicates_until_popped() {
        let mut q = LevelQueue::new(vec![0, 1]);
        assert!(q.push(0));
        assert!(!q.push(0));
        let mut batch = Vec::new();
        q.pop_level(&mut batch);
        assert_eq!(batch, vec![0]);
        assert!(q.is_empty());
        assert!(q.push(0), "re-queuable after pop");
        assert!(!q.is_empty());
    }

    #[test]
    fn items_requeued_mid_batch_come_back_in_a_later_call() {
        let mut q = LevelQueue::new(vec![0, 0, 1]);
        q.push(0);
        q.push(1);
        let mut batch = Vec::new();
        q.pop_level(&mut batch);
        assert_eq!(batch, vec![0, 1]);
        // A popped item pushed back mid-batch lands in a later call, even at
        // the same level.
        assert!(q.push(1));
        assert!(q.push(2));
        assert_eq!(drain(&mut q), vec![vec![1], vec![2]]);
    }

    #[test]
    fn push_below_the_cursor_moves_it_back() {
        let mut q = LevelQueue::new(vec![0, 1, 2, 3]);
        q.push(2);
        q.push(3);
        let mut batch = Vec::new();
        q.pop_level(&mut batch);
        assert_eq!(batch, vec![2], "cursor advanced to level 2");
        q.push(0);
        q.push(1);
        assert_eq!(drain(&mut q), vec![vec![0], vec![1], vec![3]]);
    }

    /// Random pushes and pops against a sorted `(level, id)` reference:
    /// every batch is the reference's lowest level, in id order.
    #[test]
    fn batches_match_a_sorted_reference_randomized() {
        use fsam_ir::rng::SmallRng;
        use std::collections::BTreeSet;
        let mut rng = SmallRng::seed_from_u64(0x90E0E);
        for _ in 0..20 {
            let n = rng.gen_range(1usize..64);
            let level: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..8)).collect();
            let mut q = LevelQueue::new(level.clone());
            let mut model: BTreeSet<(u32, u32)> = BTreeSet::new();
            let mut batch = Vec::new();
            for _ in 0..500 {
                if rng.gen_bool(0.7) {
                    let id = rng.gen_range(0u32..n as u32);
                    assert_eq!(q.push(id as usize), model.insert((level[id as usize], id)));
                } else {
                    q.pop_level(&mut batch);
                    let want: Vec<u32> = match model.first() {
                        Some(&(l, _)) => {
                            model.iter().take_while(|e| e.0 == l).map(|e| e.1).collect()
                        }
                        None => Vec::new(),
                    };
                    model.retain(|e| !want.contains(&e.1));
                    assert_eq!(batch, want);
                }
                assert_eq!(q.is_empty(), model.is_empty());
            }
        }
    }
}
