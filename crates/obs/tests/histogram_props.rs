//! Property tests for the one histogram (`nimble_obs::hist`): quantiles
//! against the exact sorted-vector reference, the exposition ladder, its
//! exemplar cells, and lossless concurrent recording.
//!
//! The histogram is log-linear with 4 sub-buckets per octave, so a bucket
//! containing value `s` is at most `s/4` wide and the returned midpoint
//! can miss the exact rank statistic by at most half a bucket (plus one
//! for integer rounding): `|quantile(q) - exact(q)| <= exact(q)/4 + 1`.
//! The top rank is special-cased to the observed maximum exactly, and an
//! empty histogram reports zero. These are the properties the serve
//! stats table, the Prometheus summary quantiles and the SLO watchdog
//! rely on.

use nimble_obs::hist::{Histogram, LadderBucket};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

/// Exact reference: the same rank the histogram targets, read from the
/// sorted samples (`rank = ceil(q * n)` clamped to `1..=n`, 1-based).
fn exact_rank(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Samples mixing magnitudes from single digits to the full u64 range,
/// so octave boundaries and the saturating top bucket are hit.
fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![0u64..8, 0u64..4_096, 0u64..2_000_000_000, 0u64..u64::MAX,],
        1..300,
    )
}

/// A latency-style ladder (ns): 1ms, 5ms, 10ms, 50ms, then `+Inf`.
static LADDER: [u64; 4] = [1_000_000, 5_000_000, 10_000_000, 50_000_000];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn quantile_tracks_sorted_reference(samples in arb_samples(), q in 0.0001f64..1.0) {
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(snap.count(), sorted.len() as u64);
        prop_assert_eq!(snap.max(), *sorted.last().unwrap());

        let exact = exact_rank(&sorted, q);
        let got = snap.quantile(q);
        let bound = exact / 4 + 1;
        prop_assert!(
            got.abs_diff(exact) <= bound,
            "quantile({}) = {} vs exact {} (bound {})",
            q, got, exact, bound
        );
        // The bucket's upper bound never undershoots the exact statistic.
        prop_assert!(h.quantile_upper(q) >= exact);
        // The top rank is the exact maximum, not a bucket midpoint.
        prop_assert_eq!(snap.quantile(1.0), *sorted.last().unwrap());
    }

    #[test]
    fn single_sample_every_quantile_is_exact(v in 0u64..u64::MAX, q in 0.0001f64..1.0) {
        let h = Histogram::new();
        h.record(v);
        // With one sample every rank is 1 == count, the exact-max path.
        prop_assert_eq!(h.snapshot().quantile(q), v);
    }

    #[test]
    fn ladder_counts_are_monotone_and_end_at_count(
        samples in proptest::collection::vec(0u64..200_000_000, 0..300),
    ) {
        let h = Histogram::with_ladder(&LADDER);
        for &v in &samples {
            h.record(v);
        }
        let snap = h.snapshot();
        let rows: Vec<LadderBucket> = snap.ladder().collect();
        prop_assert_eq!(rows.len(), LADDER.len() + 1);
        for (row, le) in rows.iter().zip(&LADDER) {
            prop_assert_eq!(row.le, Some(*le));
            // Bucket-granular: never fewer than the exact count at `le`.
            let exact = samples.iter().filter(|&&v| v <= *le).count() as u64;
            prop_assert!(row.count >= exact, "le {} count {} < exact {}", le, row.count, exact);
        }
        for pair in rows.windows(2) {
            prop_assert!(pair[0].count <= pair[1].count, "ladder not monotone: {:?}", rows);
        }
        let inf = rows.last().unwrap();
        prop_assert_eq!((inf.le, inf.count), (None, samples.len() as u64));
    }

    #[test]
    fn exemplar_lands_in_the_bucket_its_value_belongs_to(
        v in 0u64..200_000_000,
        trace in 1u64..u64::MAX,
    ) {
        let h = Histogram::with_ladder(&LADDER);
        h.exemplar(v, trace);
        let snap = h.snapshot();
        // A stamp is a link, not a sample.
        prop_assert_eq!(snap.count(), 0);
        let want = LADDER.iter().position(|&le| v <= le).unwrap_or(LADDER.len());
        for (i, row) in snap.ladder().enumerate() {
            let expect = (i == want).then_some((trace, v));
            prop_assert_eq!(row.exemplar, expect, "bucket {} for value {}", i, v);
        }
    }
}

#[test]
fn exemplar_cells_hold_the_most_recent_trace() {
    let h = Histogram::with_ladder(&LADDER);
    h.exemplar(2_000_000, 42); // 5ms bucket
    h.exemplar(3_000_000, 43); // same bucket, overwrites
    h.exemplar(999_000_000_000, 7); // +Inf bucket
    let cells: Vec<_> = h.snapshot().ladder().map(|b| b.exemplar).collect();
    assert_eq!(
        cells,
        [
            None,
            Some((43, 3_000_000)),
            None,
            None,
            Some((7, 999_000_000_000))
        ]
    );
}

#[test]
fn empty_histogram_reports_zero() {
    let snap = Histogram::new().snapshot();
    assert_eq!(snap.count(), 0);
    assert_eq!(snap.quantile(0.5), 0);
    assert_eq!(snap.quantile(1.0), 0);
    assert_eq!(snap.max(), 0);
    assert_eq!(snap.sum(), 0);
    // No ladder still renders the `+Inf` row.
    assert_eq!(snap.ladder().count(), 1);
}

#[test]
fn top_of_range_is_representable() {
    let h = Histogram::new();
    h.record(u64::MAX);
    h.record(1);
    let snap = h.snapshot();
    assert_eq!(snap.count(), 2);
    assert_eq!(snap.max(), u64::MAX);
    assert_eq!(snap.quantile(1.0), u64::MAX);
    // The lower rank still resolves to the small sample's bucket.
    assert!(snap.quantile(0.5) <= 2);
}

#[test]
fn concurrent_record_loses_nothing() {
    const THREADS: u64 = 8;
    const PER: u64 = 2_000;
    let h = Arc::new(Histogram::with_ladder(&LADDER));
    // The barrier releases every recorder at once, so the adds contend.
    let start = Arc::new(Barrier::new(THREADS as usize));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (h, start) = (Arc::clone(&h), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for i in 0..PER {
                    h.record((t * PER + i) * 1_000);
                }
            })
        })
        .collect();
    for j in handles {
        j.join().unwrap();
    }
    let snap = h.snapshot();
    let n = THREADS * PER;
    assert_eq!(snap.count(), n);
    assert_eq!(snap.sum(), (0..n).map(|i| i * 1_000).sum::<u64>());
    assert_eq!(snap.max(), (n - 1) * 1_000);
    assert_eq!(snap.count_le(u64::MAX), n, "bucket counts lost an add");
    assert_eq!(snap.ladder().last().unwrap().count, n);
}
