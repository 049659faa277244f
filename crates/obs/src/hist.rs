//! The workspace's one histogram: fixed-size, lock-free, log-linear,
//! with OpenMetrics exemplar cells built in.
//!
//! Values are plain `u64`s in whatever unit the owner picks (latency in
//! nanoseconds, batch members, ...). Each power-of-two octave is split
//! into [`SUB`] linear sub-buckets (HDR-style), so all of `u64` fits in
//! [`BUCKETS`] counters and a quantile read from them is within
//! `value / 4 + 1` of the exact order statistic. Recording is a handful
//! of relaxed atomic adds — no lock, no allocation — and reading goes
//! through [`Histogram::snapshot`], so a reader never blocks a writer.
//!
//! A histogram built [`with_ladder`](Histogram::with_ladder) also owns a
//! coarse ladder of `le` bounds: [`HistogramSnapshot::ladder`] projects
//! the fine buckets onto it for the Prometheus `histogram` exposition,
//! and [`Histogram::exemplar`] stamps a trace id into the ladder bucket a
//! value belongs to.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power-of-two octave (a power of two).
const SUB: u64 = 1 << SUB_BITS;
const SUB_BITS: u32 = 2;
/// Bucket count: every `u64` maps below this.
pub const BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB as usize;

/// Bucket index for `v` (monotone in `v`).
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let major = (msb - SUB_BITS + 1) as u64;
    let sub = (v >> (msb - SUB_BITS)) & (SUB - 1);
    (major * SUB + sub) as usize
}

/// Smallest value mapping to bucket `idx` (inverse of [`bucket_index`]
/// on bucket floors).
pub fn bucket_floor(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx;
    }
    let major = idx >> SUB_BITS;
    let sub = idx & (SUB - 1);
    (SUB + sub) << (major - 1)
}

/// One past the largest value mapping to bucket `idx` (saturating for
/// the last bucket).
fn bucket_ceil(idx: usize) -> u64 {
    if idx + 1 < BUCKETS {
        bucket_floor(idx + 1)
    } else {
        u64::MAX
    }
}

/// 1-based rank of the `q`-quantile among `count` samples and the index of
/// the bucket of `counts` holding that rank; `None` when there are no
/// samples or the walk runs out (a reader racing a `record`).
fn quantile_bucket(
    mut counts: impl Iterator<Item = u64>,
    count: u64,
    q: f64,
) -> Option<(u64, usize)> {
    if count == 0 {
        return None;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    let idx = counts.position(|n| {
        seen += n;
        seen >= rank
    })?;
    Some((rank, idx))
}

/// `(trace id, value)` of the most recent exemplar stamped into one
/// ladder bucket. Two relaxed stores per stamp; a torn read can at worst
/// pair a trace id with a neighbouring stamp's value, which is harmless
/// for a debugging link.
#[derive(Debug, Default)]
struct ExemplarCell {
    trace: AtomicU64,
    value: AtomicU64,
}

/// A fixed-size, lock-free, log-linear histogram of `u64` values.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    /// Ascending `le` bounds of the exposition ladder; the `+Inf` bucket
    /// is implicit.
    ladder: &'static [u64],
    /// One cell per ladder bound plus the `+Inf` cell.
    exemplars: Box<[ExemplarCell]>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::with_ladder(&[])
    }
}

impl Histogram {
    /// A fresh, empty histogram with no exposition ladder.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// A fresh, empty histogram exposed over `ladder` (ascending `le`
    /// bounds in the recorded unit; `+Inf` is implicit).
    pub fn with_ladder(ladder: &'static [u64]) -> Histogram {
        debug_assert!(ladder.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            ladder,
            exemplars: (0..=ladder.len())
                .map(|_| ExemplarCell::default())
                .collect(),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Take back one sample recorded earlier with the same value — what a
    /// rolling window does when a sample ages out. The observed maximum
    /// is a high-water mark and is not lowered.
    pub fn unrecord(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_sub(1, Ordering::Relaxed);
        self.count.fetch_sub(1, Ordering::Relaxed);
        self.sum.fetch_sub(v, Ordering::Relaxed);
    }

    /// Stamp `trace` as the exemplar of the ladder bucket `v` belongs to
    /// (the first bound with `v <= le`, else `+Inf`). Does not count a
    /// sample: the owner records the value when it is measured and stamps
    /// the exemplar later, once the trace is known to be worth linking.
    pub fn exemplar(&self, v: u64, trace: u64) {
        let cell = &self.exemplars[self.ladder.partition_point(|&le| le < v)];
        cell.value.store(v, Ordering::Relaxed);
        cell.trace.store(trace, Ordering::Relaxed);
    }

    /// Exclusive upper bound of the bucket holding the `q`-quantile's
    /// rank, read straight off the live counters: never below the exact
    /// order statistic and at most 25% above it; 0 when empty. For owners
    /// that already serialize access (the flight recorder's rolling
    /// window, under its lock) and ask once per request — no snapshot
    /// copy, and independent of the maximum, which [`unrecord`] leaves
    /// stale.
    ///
    /// [`unrecord`]: Histogram::unrecord
    pub fn quantile_upper(&self, q: f64) -> u64 {
        let counts = self.buckets.iter().map(|b| b.load(Ordering::Relaxed));
        quantile_bucket(counts, self.count.load(Ordering::Relaxed), q)
            .map_or(0, |(_, idx)| bucket_ceil(idx))
    }

    /// Copy the current contents for quantile and ladder reads.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            ladder: self.ladder,
            exemplars: self
                .exemplars
                .iter()
                .map(|c| {
                    (
                        c.trace.load(Ordering::Relaxed),
                        c.value.load(Ordering::Relaxed),
                    )
                })
                .collect(),
        }
    }
}

/// One row of the exposition ladder (see [`HistogramSnapshot::ladder`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderBucket {
    /// Upper bound; `None` is `+Inf`.
    pub le: Option<u64>,
    /// Samples at or below `le` (cumulative).
    pub count: u64,
    /// `(trace id, value)` of the bucket's most recent exemplar.
    pub exemplar: Option<(u64, u64)>,
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
    ladder: &'static [u64],
    exemplars: Vec<(u64, u64)>,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        Histogram::default().snapshot()
    }
}

impl HistogramSnapshot {
    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (exact, not bucketed).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample ever recorded.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`): the midpoint of the bucket
    /// holding the rank, clamped to the observed maximum, so the answer is
    /// within `value / 4 + 1` of the exact order statistic. The top rank
    /// is the observed maximum exactly. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        match quantile_bucket(self.buckets.iter().copied(), self.count, q) {
            Some((rank, idx)) if rank < self.count => {
                let lo = bucket_floor(idx);
                (lo + (bucket_ceil(idx) - lo) / 2).min(self.max)
            }
            // The top rank — or a snapshot that raced a `record` and holds
            // a count one ahead of its buckets: at most the maximum.
            _ => self.max,
        }
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.9)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Samples recorded at or below `v`, to bucket resolution: the whole
    /// bucket containing `v` is included, so the answer can overcount by
    /// at most one sub-bucket's width (~25%). Monotone in `v`.
    pub fn count_le(&self, v: u64) -> u64 {
        self.buckets[..=bucket_index(v)].iter().sum()
    }

    /// The cumulative exposition ladder: one row per `le` bound of the
    /// source histogram's ladder, then `+Inf`. Counts are monotone
    /// non-decreasing and the `+Inf` row equals [`count`](Self::count).
    pub fn ladder(&self) -> impl Iterator<Item = LadderBucket> + '_ {
        let bounds = self.ladder.iter().map(|&le| Some(le)).chain([None]);
        bounds
            .zip(&self.exemplars)
            .map(|(le, &(trace, value))| LadderBucket {
                le,
                // A snapshot racing a `record` can see its bucket add before
                // its count add; the clamp keeps the ladder monotone up to +Inf.
                count: le.map_or(self.count, |le| self.count_le(le).min(self.count)),
                exemplar: (trace != 0).then_some((trace, value)),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_floor_inverts() {
        // Dense check over the low range, then octave boundaries up high.
        let mut last = 0usize;
        for v in 0u64..100_000 {
            let idx = bucket_index(v);
            assert!(idx >= last, "index not monotone at {v}");
            assert!(idx < BUCKETS);
            assert!(bucket_floor(idx) <= v, "floor above value at {v}");
            assert!(v < bucket_ceil(idx), "ceil not above value at {v}");
            last = idx;
        }
        for shift in 17..63u32 {
            let v = 1u64 << shift;
            assert!(bucket_index(v - 1) <= bucket_index(v), "boundary at {v}");
            assert!(bucket_index(v) <= bucket_index(v + 1), "boundary at {v}");
            assert!(bucket_floor(bucket_index(v)) <= v);
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
        // Floors map back to their own bucket.
        for idx in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_floor(idx)), idx, "floor/index at {idx}");
        }
    }

    #[test]
    fn unrecord_rolls_a_sample_out() {
        let h = Histogram::new();
        h.record(1 << 30);
        h.record(1000);
        h.unrecord(1 << 30);
        let s = h.snapshot();
        assert_eq!((s.count(), s.sum()), (1, 1000));
        assert_eq!(h.quantile_upper(0.99), 1024);
        assert_eq!(Histogram::new().quantile_upper(0.99), 0);
    }
}
