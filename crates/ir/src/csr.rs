//! Counted CSR tables: many short rows of `Copy` items in two flat
//! vectors, built by counting the items per row and then placing them.

/// A counted CSR table: row `r` holds `items[base[r]..base[r + 1]]`. Its
/// constructors keep `base` ascending and ending at `items.len()`.
#[derive(Clone, Debug)]
pub struct Csr<T> {
    /// Start of each row in `items`, plus the end; `len == rows + 1`.
    pub base: Vec<u32>,
    /// The items, row after row.
    pub items: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Csr::with_capacity(0, 0)
    }
}

impl<T> Csr<T> {
    /// An empty table with room for `rows` rows of `items` items in all.
    pub fn with_capacity(rows: usize, items: usize) -> Csr<T> {
        let mut base = Vec::with_capacity(rows + 1);
        base.push(0);
        let items = Vec::with_capacity(items);
        Csr { base, items }
    }
}

impl<T: Copy> Csr<T> {
    /// `n` rows holding the items of `pairs` (row, item), each row in
    /// `pairs` order: counted, then filled in place.
    pub fn from_pairs(n: usize, pairs: impl Iterator<Item = (usize, T)> + Clone) -> Csr<T> {
        let mut t = Csr {
            base: Vec::new(),
            items: Vec::new(),
        };
        t.refill(n, pairs);
        t
    }

    /// Refills the table as [`Csr::from_pairs`] builds one, in its own
    /// buffers.
    pub fn refill(&mut self, n: usize, pairs: impl Iterator<Item = (usize, T)> + Clone) {
        self.fill(n, |_| &[], pairs);
    }

    /// `n ≥ rows` rows: each row of `self` (empty past its end), then the
    /// items of `more` (row, item) for that row, in `more` order.
    pub fn extended(&self, n: usize, more: impl Iterator<Item = (usize, T)> + Clone) -> Csr<T> {
        let mut t = Csr {
            base: Vec::new(),
            items: Vec::new(),
        };
        let rows = self.base.len() - 1;
        t.fill(n, |r| if r < rows { self.row(r) } else { &[] }, more);
        t
    }

    /// Refills the table with `n` rows, row `r` holding `head(r)` and then
    /// the items of `pairs` for `r` in `pairs` order: counted, then each
    /// head copied whole and each pair placed, in the table's own buffers.
    fn fill<'h>(
        &mut self,
        n: usize,
        head: impl Fn(usize) -> &'h [T],
        pairs: impl Iterator<Item = (usize, T)> + Clone,
    ) where
        T: 'h,
    {
        let base = &mut self.base;
        base.clear();
        base.resize(n + 1, 0);
        for (r, _) in pairs.clone() {
            base[r + 1] += 1;
        }
        for r in 0..n {
            base[r + 1] += base[r] + head(r).len() as u32;
        }
        self.items.clear();
        let fill = (0..n).find_map(|r| head(r).first().copied());
        if let Some(t) = fill.or_else(|| pairs.clone().next().map(|(_, t)| t)) {
            self.items.resize(base[n] as usize, t);
        }
        // `base[r]` is row `r`'s fill cursor, and ends at row `r + 1`'s
        // start; shifting the table one row up restores the starts.
        for (r, at) in base[..n].iter_mut().enumerate() {
            let row = head(r);
            self.items[*at as usize..*at as usize + row.len()].copy_from_slice(row);
            *at += row.len() as u32;
        }
        for (r, t) in pairs {
            self.items[base[r] as usize] = t;
            base[r] += 1;
        }
        base.copy_within(..n, 1);
        base[0] = 0;
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = T>) {
        self.items.extend(row);
        self.base.push(self.items.len() as u32);
    }

    /// Row `r`.
    pub fn row(&self, r: usize) -> &[T] {
        &self.items[self.base[r] as usize..self.base[r + 1] as usize]
    }

    /// Every item with its row, row after row.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, T)> + Clone + '_ {
        (0..self.base.len() - 1).flat_map(move |r| self.row(r).iter().map(move |&t| (r, t)))
    }

    /// The index in `items` of `x` in row `r`, whose items ascend.
    pub fn find(&self, r: usize, x: T) -> Option<usize>
    where
        T: Ord,
    {
        let s = self.base[r] as usize;
        self.row(r).binary_search(&x).ok().map(|i| s + i)
    }
}
