//! End-to-end and per-layer benchmark of the FSAM reproduction.
//!
//! The binary (`src/main.rs`) runs one named workload for a fixed number
//! of seconds and prints its metrics; `README.md` beside this package
//! explains the workloads, the op of each, and which layer metric should
//! move which end-to-end metric. The library half holds the pieces the
//! self-tests exercise directly.

pub mod alloc;
pub mod analyze;
pub mod check;
pub mod serve;
pub mod sys;
pub mod trace;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Bytes per MiB, the unit of every `*_mb` metric.
pub const MIB: f64 = 1024.0 * 1024.0;

/// SplitMix64: a small, seedable generator for the query stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of the p50/p75/p90/p95/p99/p99.9 latency percentiles that
/// has at least ten samples above it, as `(percentile, nearest-rank
/// value)`; `None` with fewer than twenty samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .map(|p| {
            let rank = ((p / 100.0 * n).ceil() as usize).clamp(1, v.len());
            (p, v[rank - 1])
        })
}
