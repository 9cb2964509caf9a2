//! Region relations: a symmetric statement-level relation factored into a
//! statement → region map and a region × region bitmatrix.
//!
//! Statement-level MHP and happens-before both depend only on a small
//! per-statement key. For MHP it is the executor list plus, for the
//! interleaving analysis, the alive set of each executor *at that
//! statement*; the PCG thread-concurrency matrix is statement-independent.
//! For HB it is each executor's pre-clock and completion certificate.
//! Statements sharing a key answer every pair query identically, so they
//! form a *region*, and the whole quadratic statement × statement relation
//! factors into
//!
//! 1. a dense statement → region map (one `u32` per statement), and
//! 2. a symmetric region × region bitmatrix (one bit per region pair).
//!
//! Regions track function boundaries and fork/join frontiers, so their count
//! stays near the function count while statements grow with program size —
//! the matrix is effectively constant-size. A pair query is one indexed
//! load per statement and one bit test, and no statement × statement pair
//! set is ever materialized.
//!
//! [`RegionRelation`] is the one implementation: [`RegionRelation::factor`]
//! builds it from keyed statements and a pair formula, and
//! [`RegionRelation::from_parts`] rebuilds it from the raw parts a snapshot
//! stores, validating them. [`MhpBackend::relation`] factors the live MHP
//! backends (pinned pair for pair against their `mhp_stmt` by the tests
//! here and in `tests/mhp_relation.rs`); [`HbFacts`](crate::hb::HbFacts)
//! wraps the happens-before relation.

use std::collections::HashMap;
use std::hash::Hash;

use fsam_ir::StmtId;

use crate::flow::InstanceSpace;
use crate::mhp::MhpBackend;
use crate::model::ThreadId;

/// The dense map's marker for a statement without a region.
const NO_REGION: u32 = u32::MAX;

/// The `mhp.*` counters [`RegionRelation::export_trace`] writes for the
/// MHP relation.
pub const MHP_COUNTERS: [&str; 4] = [
    "mhp.regions",
    "mhp.region_stmts",
    "mhp.matrix_bits",
    "mhp.parallel_bits",
];

/// Why deserialized parts do not form a valid [`RegionRelation`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RelationError {
    /// The bit vector's length is not `regions × ⌈regions / 64⌉`.
    BitsLength {
        /// Expected word count.
        expected: usize,
        /// Actual word count.
        got: usize,
    },
    /// A statement maps to a region ≥ the region count.
    RegionOutOfRange {
        /// Raw id of the offending statement.
        stmt: u32,
        /// The out-of-range region.
        region: u32,
        /// Total region count.
        regions: u32,
    },
    /// A row sets a bit past the last region.
    PaddingBits {
        /// The offending row.
        row: u32,
    },
    /// The matrix relates `r1` to `r2` but not `r2` to `r1`.
    Asymmetric {
        /// The lower region of the pair.
        r1: u32,
        /// The higher region of the pair.
        r2: u32,
    },
}

impl std::fmt::Display for RelationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelationError::BitsLength { expected, got } => {
                write!(f, "region matrix has {got} words, expected {expected}")
            }
            RelationError::RegionOutOfRange {
                stmt,
                region,
                regions,
            } => write!(f, "stmt {stmt} names region {region} of {regions}"),
            RelationError::PaddingBits { row } => {
                write!(f, "region matrix row {row} sets bits past the last region")
            }
            RelationError::Asymmetric { r1, r2 } => {
                write!(f, "region matrix is asymmetric at ({r1}, {r2})")
            }
        }
    }
}

impl std::error::Error for RelationError {}

/// A symmetric statement-level relation factored as regions over a
/// bitmatrix (module docs). The default value relates nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegionRelation {
    /// Region of each statement, indexed by [`StmtId::index`]. Statements
    /// marked [`NO_REGION`] or past the end relate to nothing.
    region_of: Vec<u32>,
    regions: usize,
    /// `u64` words per bitmatrix row.
    words: usize,
    /// Row-major `regions × regions` symmetric bitmatrix.
    bits: Vec<u64>,
}

/// Statement-level MHP as a [`RegionRelation`]: two statements are related
/// when they may happen in parallel.
pub type MhpRelation = RegionRelation;

impl RegionRelation {
    /// Factors a relation from `keyed` statements, each with its region key,
    /// in ascending statement order (regions are numbered by first
    /// appearance). `related` is the pair formula over two keys and must be
    /// symmetric; statements not in `keyed` relate to nothing.
    pub fn factor<K: Hash + Eq + Clone>(
        keyed: impl IntoIterator<Item = (StmtId, K)>,
        related: impl Fn(&K, &K) -> bool,
    ) -> RegionRelation {
        let mut intern: HashMap<K, u32> = HashMap::new();
        let mut keys: Vec<K> = Vec::new();
        let mut region_of = Vec::new();
        for (s, key) in keyed {
            let id = *intern.entry(key.clone()).or_insert_with(|| {
                keys.push(key);
                (keys.len() - 1) as u32
            });
            if region_of.len() <= s.index() {
                region_of.resize(s.index() + 1, NO_REGION);
            }
            region_of[s.index()] = id;
        }

        let regions = keys.len();
        let words = regions.div_ceil(64);
        let mut bits = vec![0u64; regions * words];
        for r1 in 0..regions {
            // `related` is symmetric, so the upper triangle suffices; mirror
            // it as we go.
            for r2 in r1..regions {
                if related(&keys[r1], &keys[r2]) {
                    bits[r1 * words + r2 / 64] |= 1 << (r2 % 64);
                    bits[r2 * words + r1 / 64] |= 1 << (r1 % 64);
                }
            }
        }
        RegionRelation {
            region_of,
            regions,
            words,
            bits,
        }
    }

    /// Reassembles a relation from its serialized parts: the dense region
    /// map (`u32::MAX` = none), the region count and the row-major bit
    /// words. Every invariant the queries rely on is validated, so a corrupt
    /// snapshot can neither index out of bounds nor answer asymmetrically.
    pub fn from_parts(
        region_of: Vec<u32>,
        regions: u32,
        bits: Vec<u64>,
    ) -> Result<RegionRelation, RelationError> {
        let n = regions as usize;
        let words = n.div_ceil(64);
        let expected = n.saturating_mul(words);
        if bits.len() != expected {
            return Err(RelationError::BitsLength {
                expected,
                got: bits.len(),
            });
        }
        if let Some((stmt, &region)) =
            (region_of.iter().enumerate()).find(|&(_, &r)| r != NO_REGION && r >= regions)
        {
            return Err(RelationError::RegionOutOfRange {
                stmt: stmt as u32,
                region,
                regions,
            });
        }
        let rel = RegionRelation {
            region_of,
            regions: n,
            words,
            bits,
        };
        let tail = n % 64;
        for r1 in 0..regions {
            if tail != 0 && rel.bits[(r1 as usize + 1) * words - 1] >> tail != 0 {
                return Err(RelationError::PaddingBits { row: r1 });
            }
            for r2 in r1 + 1..regions {
                if rel.related_regions(r1, r2) != rel.related_regions(r2, r1) {
                    return Err(RelationError::Asymmetric { r1, r2 });
                }
            }
        }
        Ok(rel)
    }

    /// The region of `s`, or `None` when `s` relates to nothing.
    pub fn region_of(&self, s: StmtId) -> Option<u32> {
        self.region_of
            .get(s.index())
            .copied()
            .filter(|&r| r != NO_REGION)
    }

    /// One bit test: whether the two regions are related.
    pub fn related_regions(&self, r1: u32, r2: u32) -> bool {
        debug_assert!((r1 as usize) < self.regions && (r2 as usize) < self.regions);
        self.bits[r1 as usize * self.words + r2 as usize / 64] & (1 << (r2 % 64)) != 0
    }

    /// Whether `s1` and `s2` are related — two region lookups and a bit
    /// test. Statements without a region answer `false`.
    pub fn related(&self, s1: StmtId, s2: StmtId) -> bool {
        match (self.region_of(s1), self.region_of(s2)) {
            (Some(r1), Some(r2)) => self.related_regions(r1, r2),
            _ => false,
        }
    }

    /// Number of regions (distinct keys).
    pub fn region_count(&self) -> usize {
        self.regions
    }

    /// Number of statements mapped to a region.
    pub fn stmt_count(&self) -> usize {
        self.region_of.iter().filter(|&&r| r != NO_REGION).count()
    }

    /// Number of set (related) bits in the full `regions²` matrix.
    pub fn related_bits(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Total bit capacity of the matrix (`regions²`).
    pub fn matrix_bits(&self) -> usize {
        self.regions * self.regions
    }

    /// The dense statement → region map, for the snapshot codec.
    pub fn region_map(&self) -> &[u32] {
        &self.region_of
    }

    /// The raw bitmatrix words, row-major, for the snapshot codec.
    pub fn bit_words(&self) -> &[u64] {
        &self.bits
    }

    /// Exports the factored-form counters onto `span` under `names`: the
    /// region count, the mapped statements, the matrix capacity and the set
    /// bits — the evidence that no statement × statement pair set was
    /// materialized.
    pub fn export_trace(&self, span: &fsam_trace::Span<'_>, names: [&'static str; 4]) {
        let [regions, stmts, matrix, set] = names;
        span.counter(regions, self.regions as u64);
        span.counter(stmts, self.stmt_count() as u64);
        span.counter(matrix, self.matrix_bits() as u64);
        span.counter(set, self.related_bits() as u64);
    }

    /// Approximate owned heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.bits.capacity() * size_of::<u64>() + self.region_of.capacity() * size_of::<u32>()
    }
}

impl MhpBackend {
    /// Factors the backend's statement-level MHP into region form, straight
    /// from its live maps. The key of a statement is its executor list plus,
    /// for the interleaving analysis, the fact id of each executor's alive
    /// set there (equal ids are equal sets): the backend's `mhp_stmt` reads
    /// nothing else.
    pub fn relation(&self) -> MhpRelation {
        match self {
            MhpBackend::Interleaving(inter) => {
                let keyed = executed(inter.space()).map(|(s, execs)| {
                    let alive: Vec<u32> = execs.iter().map(|&t| inter.alive_id(t, s)).collect();
                    (s, (execs, alive))
                });
                RegionRelation::factor(keyed, |(e1, a1), (e2, a2)| {
                    any_parallel(e1, e2, inter.multi_flags(), |i1, i2| {
                        inter.fact(a1[i1]).contains(e2[i2]) && inter.fact(a2[i2]).contains(e1[i1])
                    })
                })
            }
            MhpBackend::Pcg(pcg) => {
                let matrix = pcg.concurrent_matrix();
                RegionRelation::factor(executed(pcg.space()), |e1, e2| {
                    any_parallel(e1, e2, pcg.multi_flags(), |i1, i2| {
                        matrix[e1[i1].index()][e2[i2].index()]
                    })
                })
            }
        }
    }
}

/// The statements with executors in ascending order, each with its
/// executor list.
fn executed(space: &InstanceSpace) -> impl Iterator<Item = (StmtId, &[ThreadId])> {
    let stmts = (0..space.stmt_count()).map(StmtId::from_usize);
    stmts
        .map(|s| (s, space.executors(s)))
        .filter(|(_, e)| !e.is_empty())
}

/// The backends' shared statement-level MHP formula over two executor
/// lists: a common multi-forked executor races with itself, and two
/// distinct executors `e1[i1]`, `e2[i2]` are parallel when `parallel(i1,
/// i2)` says so. Symmetric whenever `parallel` is.
fn any_parallel(
    e1: &[ThreadId],
    e2: &[ThreadId],
    multi: &[bool],
    parallel: impl Fn(usize, usize) -> bool,
) -> bool {
    for (i1, &t1) in e1.iter().enumerate() {
        for (i2, &t2) in e2.iter().enumerate() {
            if t1 == t2 {
                if multi[t1.index()] {
                    return true;
                }
                continue;
            }
            if parallel(i1, i2) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::Interleaving;
    use crate::mhp::{MhpOracle, ProcMhp};
    use crate::model::ThreadModel;
    use fsam_andersen::PreAnalysis;
    use fsam_ir::icfg::Icfg;
    use fsam_ir::parse::parse_module;
    use fsam_ir::Module;

    const SRC: &str = r#"
        global g
        func worker() {
        entry:
          w = &g
          ret
        }
        func other() {
        entry:
          o = &g
          ret
        }
        func main() {
        entry:
          t1 = fork worker()
          t2 = fork other()
          mid = &g
          join t1
          join t2
          after = &g
          ret
        }
    "#;

    fn backends(m: &Module) -> (MhpBackend, MhpBackend) {
        let pre = PreAnalysis::run(m);
        let icfg = Icfg::build(m, pre.call_graph());
        let tm = ThreadModel::build(m, &pre, &icfg);
        let ctxs = crate::flow::precompute_contexts(&icfg, pre.call_graph(), &tm);
        let inter = Interleaving::compute(m, &icfg, &pre, &tm, &ctxs);
        let pcg = ProcMhp::build(&icfg, &pre, &tm, &ctxs);
        (
            MhpBackend::Interleaving(std::sync::Arc::new(inter)),
            MhpBackend::Pcg(std::sync::Arc::new(pcg)),
        )
    }

    /// Rebuilds `rel` through the snapshot's parts.
    fn via_parts(rel: &RegionRelation) -> Result<RegionRelation, RelationError> {
        RegionRelation::from_parts(
            rel.region_map().to_vec(),
            rel.region_count() as u32,
            rel.bit_words().to_vec(),
        )
    }

    #[test]
    fn relation_matches_backend_on_every_pair() {
        let m = parse_module(SRC).unwrap();
        let (inter, pcg) = backends(&m);
        for backend in [inter, pcg] {
            let rel = backend.relation();
            for (s1, _) in m.stmts() {
                for (s2, _) in m.stmts() {
                    assert_eq!(
                        rel.related(s1, s2),
                        backend.mhp_stmt(s1, s2),
                        "{s1:?} {s2:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn regions_factor_below_statement_count() {
        let m = parse_module(SRC).unwrap();
        let (inter, _) = backends(&m);
        let rel = inter.relation();
        assert!(rel.region_count() >= 1);
        assert!(
            rel.region_count() < rel.stmt_count(),
            "the fork/join program has MHP-equivalent statements: {} regions / {} stmts",
            rel.region_count(),
            rel.stmt_count()
        );
        assert_eq!(rel.matrix_bits(), rel.region_count() * rel.region_count());
        assert!(rel.related_bits() > 0, "forked threads are parallel");
        assert!(rel.related_bits() <= rel.matrix_bits());
        assert!(rel.heap_bytes() > 0);
    }

    #[test]
    fn statements_without_executors_have_no_region() {
        let m = parse_module(
            r#"
            global g
            func dead() {
            entry:
              d = &g
              ret
            }
            func main() {
            entry:
              p = &g
              ret
            }
        "#,
        )
        .unwrap();
        let (inter, _) = backends(&m);
        let rel = inter.relation();
        let dead = m.func_by_name("dead").unwrap();
        let d = m.stmts().find(|(_, s)| s.func == dead).unwrap().0;
        assert_eq!(rel.region_of(d), None);
        assert!(!rel.related(d, d));
        // Out-of-range statements answer like dead ones.
        let beyond = StmtId::new(m.stmt_count() as u32 + 7);
        assert_eq!(rel.region_of(beyond), None);
        assert!(!rel.related(beyond, d));
    }

    #[test]
    fn from_parts_roundtrips_both_backends() {
        let m = parse_module(SRC).unwrap();
        let (inter, pcg) = backends(&m);
        for backend in [inter, pcg] {
            let rel = backend.relation();
            assert_eq!(via_parts(&rel).unwrap(), rel);
        }
        let empty = RegionRelation::default();
        assert_eq!(via_parts(&empty).unwrap(), empty);
        assert_eq!(empty.stmt_count(), 0);
        assert!(!empty.related(StmtId::new(0), StmtId::new(1)));
    }

    #[test]
    fn from_parts_rejects_corruption() {
        // 65 regions need two words per row; one is a length error.
        assert!(matches!(
            RegionRelation::from_parts(vec![], 65, vec![0; 65]),
            Err(RelationError::BitsLength { .. })
        ));
        assert!(matches!(
            RegionRelation::from_parts(vec![], 2, vec![0; 3]),
            Err(RelationError::BitsLength { .. })
        ));
        assert_eq!(
            RegionRelation::from_parts(vec![NO_REGION, 2], 2, vec![0; 2]),
            Err(RelationError::RegionOutOfRange {
                stmt: 1,
                region: 2,
                regions: 2
            })
        );
        assert_eq!(
            RegionRelation::from_parts(vec![0], 2, vec![0b100, 0]),
            Err(RelationError::PaddingBits { row: 0 })
        );
        assert_eq!(
            RegionRelation::from_parts(vec![0, 1], 2, vec![0b10, 0]),
            Err(RelationError::Asymmetric { r1: 0, r2: 1 })
        );
        // The same bit mirrored is accepted.
        assert!(RegionRelation::from_parts(vec![0, 1], 2, vec![0b10, 0b01]).is_ok());
    }
}
