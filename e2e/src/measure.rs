//! Helpers every workload shares: clocks, output checks, the resolved
//! configuration, and turning a window of samples into end-to-end metrics.

use crate::report::{Config, Record};
use crate::stats::{self, Sample};
use nimble_tensor::Tensor;
use nimble_vm::Object;
use std::time::{Duration, Instant};

pub const INPUTS: usize = 64;

/// What a closure returned and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Median seconds per call of `f` over `calls` calls.
pub fn median_secs(calls: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..calls).map(|_| timed(&mut f).1).collect();
    stats::median(&times)
}

/// Set-ups per run: at least `MIN_SETUPS`, then more while `SETUP_BUDGET`
/// lasts. The box changes speed for stretches of tenths of a second, so a
/// set-up of milliseconds is repeated across many of them, and one of half
/// a second does not eat the run.
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Set up repeatedly, tearing each stack down before the next is built,
/// and keep the last: the stack and the median set-up seconds.
pub fn set_up_repeatedly<T>(
    mut set_up: impl FnMut() -> T,
    mut tear_down: impl FnMut(T),
) -> (T, f64) {
    let begun = Instant::now();
    let (mut stack, first) = timed(&mut set_up);
    let mut seconds = vec![first];
    while seconds.len() < MIN_SETUPS || begun.elapsed() < SETUP_BUDGET {
        tear_down(stack);
        let (next, s) = timed(&mut set_up);
        stack = next;
        seconds.push(s);
    }
    (stack, stats::median(&seconds))
}

/// Median seconds per call of `f`, from batches of calls that fill
/// `budget`; for calls too short to time one by one.
pub fn per_call_secs(budget: Duration, mut f: impl FnMut()) -> f64 {
    let once = timed(&mut f).1.max(1e-9);
    let batch = ((0.005 / once) as usize).clamp(1, 10_000);
    let deadline = Instant::now() + budget;
    let mut batches = Vec::new();
    while batches.len() < 5 || Instant::now() < deadline {
        batches.push(timed(|| (0..batch).for_each(|_| f())).1 / batch as f64);
        if batches.len() >= 10_000 {
            break;
        }
    }
    stats::median(&batches)
}

/// FNV-1a over the output's bits: equal outputs, equal checksums.
pub fn checksum(t: &Tensor) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |word: u64| {
        h = (h ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    };
    t.dims().iter().for_each(|&d| eat(d as u64));
    if let Ok(values) = t.as_f32() {
        values.iter().for_each(|v| eat(u64::from(v.to_bits())));
    }
    h
}

/// `t` has the checksum first seen for its input (and is the first seen, if
/// none was).
pub fn same_as_first(seen: &mut Option<u64>, t: &Tensor) -> bool {
    let sum = checksum(t);
    *seen.get_or_insert(sum) == sum
}

/// The output tensor of a finished run, if it is one.
pub fn output_tensor(result: &Result<Object, nimble_vm::VmError>) -> Option<Tensor> {
    result.as_ref().ok().and_then(|o| o.wait_tensor().ok())
}

/// `got` equals `want` element by element within `tol`.
pub fn close(got: &Tensor, want: &Tensor, tol: f32) -> bool {
    match (got.as_f32(), want.as_f32()) {
        (Ok(g), Ok(w)) => {
            got.dims() == want.dims() && g.iter().zip(w).all(|(a, b)| (a - b).abs() <= tol)
        }
        _ => false,
    }
}

pub fn bitwise_equal(a: &Tensor, b: &Tensor) -> bool {
    match (a.as_f32(), b.as_f32()) {
        (Ok(x), Ok(y)) => {
            a.dims() == b.dims() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => false,
    }
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where `/proc` is
/// absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h,
        Err(_) => return "unknown".to_string(),
    };
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.len() >= 12 && rev.chars().all(|c| c.is_ascii_hexdigit()) {
        rev[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pin what can be pinned and echo what the run resolved to. The caller
/// has already refused to start with any `NIMBLE_*` variable set, so the
/// ISA is the detected one and tracing is off until a phase turns it on.
pub fn resolve_config() -> Config {
    nimble_tensor::pool::set_default_profile(nimble_tensor::ExecProfile::Server);
    nimble_obs::set_mode(nimble_obs::TraceMode::Off);
    Config {
        isa: nimble_simd::active().label().to_string(),
        profile: "server".to_string(),
        nproc: nproc() as u64,
        git_rev: git_rev(),
    }
}

/// Fill the end-to-end metrics every workload reports from the samples of
/// its window. `limit` is the latency limit of `goodput_rps`.
pub fn fill_end_to_end(
    rec: &mut Record,
    setup_s: f64,
    samples: &[Sample],
    window: Duration,
    limit: Duration,
) {
    let slices = stats::slice_stats(samples, window.as_nanos() as u64, limit.as_nanos() as u64);
    use stats::Better::{Higher, Lower};
    type Pick = fn(&stats::SliceStats) -> f64;
    let sliced: [(&str, stats::Better, Pick); 4] = [
        ("latency_p50_ms", Lower, |s| s.p50_ms),
        ("latency_p90_ms", Lower, |s| s.p90_ms),
        ("us_per_token", Lower, |s| s.us_per_token),
        ("goodput_rps", Higher, |s| s.goodput_rps),
    ];
    rec.set("setup_s", setup_s);
    for (name, better, pick) in sliced {
        rec.set_sliced(name, stats::sliced(&slices, better, pick));
    }
    rec.set("peak_rss_mb", peak_rss_mb());
}

/// Run `traffic` with the program's flight recorder on (`TraceMode::Tail`)
/// and record what it cost against `off`, the same traffic with tracing off.
pub fn flight_recorder_phase(
    rec: &mut Record,
    off: &[Sample],
    traffic: impl FnOnce() -> Vec<Sample>,
) {
    nimble_obs::set_mode(nimble_obs::TraceMode::Tail);
    let tail = traffic();
    rec.set(
        "obs.dropped_spans",
        nimble_obs::dropped_spans_total() as f64,
    );
    nimble_obs::set_mode(nimble_obs::TraceMode::Off);
    nimble_obs::reset();
    rec.set(
        "obs.trace_overhead_share",
        p50_ms(&tail) / p50_ms(off) - 1.0,
    );
}

/// p50 of the correct completions, in milliseconds.
pub fn p50_ms(samples: &[Sample]) -> f64 {
    percentile_ms(samples, 0.5)
}

pub fn percentile_ms(samples: &[Sample], q: f64) -> f64 {
    stats::percentile_sorted(&stats::latencies_ms(samples), q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksums_follow_the_bits() {
        let a = Tensor::from_vec_f32(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec_f32(vec![1.0, 2.0], &[1, 2]).unwrap();
        let c = Tensor::from_vec_f32(vec![1.0, -0.0], &[2]).unwrap();
        let d = Tensor::from_vec_f32(vec![1.0, 0.0], &[2]).unwrap();
        assert_eq!(checksum(&a), checksum(&a.clone()));
        assert_ne!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&c), checksum(&d));
        assert!(close(&c, &d, 1e-6) && !bitwise_equal(&c, &d));
        assert!(!close(&a, &b, 1.0));
    }

    #[test]
    fn per_call_timing_grows_with_the_work() {
        let spin = |n: u64| {
            move || {
                std::hint::black_box((0..std::hint::black_box(n)).fold(0u64, |a, b| a ^ b));
            }
        };
        let short = per_call_secs(Duration::from_millis(20), spin(1_000));
        let long = per_call_secs(Duration::from_millis(20), spin(100_000));
        assert!(long > short * 5.0, "{short} vs {long}");
    }
}
