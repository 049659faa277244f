//! `e2e compare <a.json> <b.json>`: two result sets side by side, judged
//! by the bounds the benchmark fixed.

use crate::catalog;
use crate::report::{Metric, Record};
use crate::stats::slice_spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// A side's own slices disagree by more than the bound, so the pair
    /// cannot be called unchanged.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

pub fn judge(a: &Metric, b: &Metric, better: &str, bound: f64) -> Verdict {
    if slice_spread(&a.slices) > bound || slice_spread(&b.slices) > bound {
        Verdict::Unresolved
    } else if worsening(a.value, b.value, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn failed_share(r: &Record) -> f64 {
    r.failed as f64 / r.attempted.max(1) as f64
}

/// Print the comparison; true when nothing is worse.
pub fn compare(a: &[Record], b: &[Record]) -> bool {
    let mut clean = true;
    println!(
        "{:<16} {:<16} {:>12} {:>12} {:>22} {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a (base a)", "bound"
    );
    for ra in a.iter().filter(|r| !r.traced) {
        let Some(rb) = b.iter().find(|r| !r.traced && r.workload == ra.workload) else {
            println!("{:<16} missing from b", ra.workload);
            clean = false;
            continue;
        };
        for m in catalog::END_TO_END {
            let (Some(ma), Some(mb)) = (ra.get(m.name), rb.get(m.name)) else {
                continue;
            };
            let verdict = judge(ma, mb, m.better, m.bound);
            clean &= verdict != Verdict::Worse;
            let ratio = format!("{:.3}x of {:.4}", mb.value / ma.value, ma.value);
            println!(
                "{:<16} {:<16} {:>12.4} {:>12.4} {:>22} {:>5.0}%  {}",
                ra.workload,
                m.name,
                ma.value,
                mb.value,
                ratio,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let (fa, fb) = (failed_share(ra), failed_share(rb));
        if fb > fa {
            println!(
                "{:<16} failed_share rose from {fa} to {fb}: worse",
                ra.workload
            );
            clean = false;
        }
    }
    println!("\nper-layer metrics (information only; exact counts print == or the delta)");
    for ra in a.iter().filter(|r| r.traced) {
        let Some(rb) = b.iter().find(|r| r.traced && r.workload == ra.workload) else {
            continue;
        };
        if failed_share(rb) > failed_share(ra) {
            println!(
                "{:<16} failed_share rose in the traced run: worse",
                ra.workload
            );
            clean = false;
        }
        for ma in &ra.metrics {
            let Some(mb) = rb.get(&ma.name) else { continue };
            let exact = catalog::per_layer(&ma.name).is_some_and(|m| m.exact);
            let note = match (exact, ma.value == mb.value) {
                (true, true) => "==".to_string(),
                (true, false) => format!("delta {:+}", mb.value - ma.value),
                (false, _) if ma.value != 0.0 => format!("{:.3}x of a", mb.value / ma.value),
                (false, _) => String::new(),
            };
            println!(
                "{:<16} {:<36} {:>14.4} {:>14.4}  {note}",
                ra.workload, ma.name, ma.value, mb.value
            );
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, slices: &[f64]) -> Metric {
        Metric {
            name: "latency_p50_ms".into(),
            value,
            unit: "ms".into(),
            slices: slices.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [1.0, 1.0, 1.0, 1.0, 1.0];
        let a = metric(1.0, &steady);
        assert_eq!(judge(&a, &metric(1.09, &steady), "lower", 0.1), Verdict::Ok);
        assert_eq!(
            judge(&a, &metric(1.11, &steady), "lower", 0.1),
            Verdict::Worse
        );
        assert_eq!(judge(&a, &metric(0.5, &steady), "lower", 0.1), Verdict::Ok);
        assert_eq!(
            judge(&a, &metric(0.85, &steady), "higher", 0.1),
            Verdict::Worse
        );
        assert_eq!(judge(&a, &metric(1.5, &steady), "higher", 0.1), Verdict::Ok);
        let noisy = metric(1.5, &[1.0, 1.2, 1.5, 1.8, 2.0]);
        assert_eq!(judge(&a, &noisy, "lower", 0.1), Verdict::Unresolved);
        // setup_s and peak_rss_mb carry no slices: never unresolved.
        assert_eq!(
            judge(&metric(1.0, &[]), &metric(1.3, &[]), "lower", 0.25),
            Verdict::Worse
        );
    }
}
