//! Percentiles, slice medians and the per-request sample record.

/// One request as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the request was due (open loop) or sent (closed loop), in
    /// nanoseconds from the start of the window.
    pub at_ns: u64,
    /// Completion time minus `at_ns`; for a refused request, the time until
    /// the refusal was known.
    pub latency_ns: u64,
    /// Tokens (sequence length, leaves, rows) the request carried.
    pub tokens: u64,
    /// Completed with the expected output.
    pub ok: bool,
    /// Which kind of request it was: on `serve_closed` the model it went
    /// to, 0 elsewhere. Latency percentiles are taken per class and then
    /// averaged.
    pub class: u8,
}

/// The `q`-quantile (0..=1) of `sorted` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let (lo, frac) = (pos.floor() as usize, pos.fract());
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values.to_vec()), 0.5)
}

/// Latencies of the correct completions among `samples`, in milliseconds,
/// ascending.
pub fn latencies_ms<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Vec<f64> {
    sorted(
        samples
            .into_iter()
            .filter(|s| s.ok)
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect(),
    )
}

/// What one slice of a window yields.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SliceStats {
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// Slice duration ÷ tokens of the requests that completed correctly.
    pub us_per_token: f64,
    /// Correct completions within `limit_ns`, per second.
    pub goodput_rps: f64,
}

/// Number of slices a window is cut into: half a second each at the default
/// 20-second window.
pub const SLICES: usize = 40;

/// Cut `[0, window_ns)` into [`SLICES`] equal slices by `at_ns` and
/// summarise each. Latency percentiles cover correct completions only,
/// class by class, averaged over the classes; anything else misses the
/// limit.
pub fn slice_stats(samples: &[Sample], window_ns: u64, limit_ns: u64) -> Vec<SliceStats> {
    let slice_ns = (window_ns / SLICES as u64).max(1);
    let mut buckets: Vec<Vec<&Sample>> = vec![Vec::new(); SLICES];
    for s in samples {
        let i = (s.at_ns / slice_ns) as usize;
        if i < SLICES {
            buckets[i].push(s);
        }
    }
    let slice_s = slice_ns as f64 / 1e9;
    buckets
        .iter()
        .map(|bucket| {
            // A mix of a fast and a slow model puts p90 on the edge between
            // the two, where a small change of the mix moves it by a third;
            // per class, each percentile sits inside one population.
            let mut classes: Vec<u8> = bucket.iter().map(|s| s.class).collect();
            classes.sort_unstable();
            classes.dedup();
            let per_class: Vec<Vec<f64>> = classes
                .iter()
                .map(|&c| latencies_ms(bucket.iter().copied().filter(|s| s.class == c)))
                .collect();
            let mean_of = |q: f64| {
                let sum: f64 = per_class.iter().map(|lat| percentile_sorted(lat, q)).sum();
                sum / per_class.len().max(1) as f64
            };
            let tokens: u64 = bucket.iter().filter(|s| s.ok).map(|s| s.tokens).sum();
            let good = bucket
                .iter()
                .filter(|s| s.ok && s.latency_ns <= limit_ns)
                .count();
            SliceStats {
                p50_ms: mean_of(0.5),
                p90_ms: mean_of(0.9),
                us_per_token: slice_s * 1e6 / tokens.max(1) as f64,
                goodput_rps: good as f64 / slice_s,
            }
        })
        .collect()
}

/// A metric's value (the better decile of its slices) with the slices
/// behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Sliced {
    pub value: f64,
    pub slices: Vec<f64>,
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The decile of the slices on the metric's better side. On a shared
/// 2-core box a noisy neighbour slows stretches of seconds to tens of
/// seconds by a quarter, which drags a median over slices along with it;
/// interference only ever makes a slice worse, so the better decile stays
/// put as long as a tenth of the window is undisturbed, while a real
/// change, which moves every slice, still moves it.
pub fn sliced(stats: &[SliceStats], better: Better, pick: impl Fn(&SliceStats) -> f64) -> Sliced {
    let slices: Vec<f64> = stats.iter().map(pick).collect();
    let q = match better {
        Better::Lower => 0.1,
        Better::Higher => 0.9,
    };
    Sliced {
        value: percentile_sorted(&sorted(slices.clone()), q),
        slices,
    }
}

/// Distance between the quartiles of the slices ÷ their median: how far a
/// single run disagrees with itself. `compare` calls a metric unresolved
/// when this exceeds its bound.
pub fn slice_spread(slices: &[f64]) -> f64 {
    let s = sorted(slices.to_vec());
    let mid = percentile_sorted(&s, 0.5);
    if mid > 0.0 {
        (percentile_sorted(&s, 0.75) - percentile_sorted(&s, 0.25)) / mid
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 3.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 1.0), 5.0);
        assert!((percentile_sorted(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn stalled_slices_do_not_move_the_better_decile() {
        // 1 ms requests back to back for 20 s; seconds 2 to 17 stall.
        let mut samples = Vec::new();
        for i in 0..20_000u64 {
            let at_ns = i * 1_000_000;
            let stalled = (2_000_000_000..18_000_000_000).contains(&at_ns);
            samples.push(Sample {
                at_ns,
                latency_ns: if stalled { 9_000_000 } else { 1_000_000 },
                tokens: 10,
                ok: true,
                class: 0,
            });
        }
        let stats = slice_stats(&samples, 20_000_000_000, 5_000_000);
        assert_eq!(stats.len(), SLICES);
        assert_eq!(stats[4].p50_ms, 9.0);
        let p50 = sliced(&stats, Better::Lower, |s| s.p50_ms);
        assert_eq!(p50.value, 1.0);
        assert_eq!(median(&p50.slices), 9.0);
        assert_eq!(p50.slices.len(), SLICES);
        assert!((stats[0].us_per_token - 100.0).abs() < 1e-9);
        let goodput = sliced(&stats, Better::Higher, |s| s.goodput_rps);
        assert!((goodput.value - 1000.0).abs() < 1e-9);
        assert_eq!(stats[4].goodput_rps, 0.0);
        assert!((slice_spread(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_change_of_the_mix_does_not_move_the_percentiles() {
        // A fast class at 1 ms and a slow one at 10 ms. Over the mix, p90
        // jumps from 1 ms to 10 ms when the slow share crosses a tenth; per
        // class and averaged it stays where it was.
        let p90_with = |slow: usize| {
            let samples: Vec<Sample> = (0..100)
                .map(|i| Sample {
                    at_ns: 0,
                    latency_ns: if i < slow { 10_000_000 } else { 1_000_000 },
                    tokens: 1,
                    ok: true,
                    class: u8::from(i < slow),
                })
                .collect();
            slice_stats(&samples, 20_000_000_000, u64::MAX)[0].p90_ms
        };
        assert_eq!(p90_with(8), 5.5);
        assert_eq!(p90_with(12), 5.5);
    }

    #[test]
    fn failures_and_late_answers_miss_goodput() {
        let mk = |latency_ns, ok| Sample {
            at_ns: 0,
            latency_ns,
            tokens: 1,
            ok,
            class: 0,
        };
        let samples = [mk(5, true), mk(50, true), mk(5, false)];
        let stats = slice_stats(&samples, 20_000_000_000, 10);
        // One good answer in a half-second slice.
        assert!((stats[0].goodput_rps - 2.0).abs() < 1e-9);
        assert_eq!(stats[1].goodput_rps, 0.0);
    }
}
