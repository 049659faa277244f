//! Measured schedule selection (Section 4.5, dispatch extension).
//!
//! "The dispatch function can be extended to invoke either compiler
//! generated kernels or third party library whichever is faster from the
//! profiling results." Generated and library dense kernels are one
//! microkernel here, so what is left to pick by measurement is the
//! schedule: [`select_schedule`] races tuner candidates against the
//! default on the shapes that matter and keeps the winner.

use crate::tuner;
use nimble_tensor::kernels::MatmulSchedule;

/// Outcome of [`select_schedule`]: the measured winner plus the default
/// schedule's cost on the same shapes, for regression checks.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleChoice {
    /// The winning schedule (lowest mean cost across the tuning shapes).
    pub schedule: MatmulSchedule,
    /// Mean measured cost (ns, volume-normalized) of the winner.
    pub cost: f64,
    /// Mean measured cost of [`MatmulSchedule::default`] on the same
    /// shapes and the same measurement pass.
    pub default_cost: f64,
}

/// Pick the best schedule for a `[n, k]` weight from `candidates`
/// (typically a tuner report's `top_configs`), measured across `shapes`
/// row counts.
///
/// The default schedule is always entered as a candidate and scored in the
/// same pass, so the returned choice is — by measurement, not assumption —
/// never worse than the default on the tuning shapes
/// (`choice.cost <= choice.default_cost`).
pub fn select_schedule(
    n: usize,
    k: usize,
    candidates: &[MatmulSchedule],
    shapes: &[usize],
    repeats: usize,
) -> ScheduleChoice {
    let default = MatmulSchedule::default().sanitized();
    let mut pool: Vec<MatmulSchedule> = vec![default];
    for c in candidates {
        let c = c.sanitized();
        if !pool.contains(&c) {
            pool.push(c);
        }
    }
    let score = |sched: MatmulSchedule| -> f64 {
        let scores: Vec<f64> = shapes
            .iter()
            .map(|&m| tuner::measure(m.max(1), n, k, sched, repeats) / m.max(1) as f64)
            .collect();
        scores.iter().sum::<f64>() / scores.len().max(1) as f64
    };
    let mut best = default;
    let mut best_cost = f64::INFINITY;
    let mut default_cost = f64::INFINITY;
    for &sched in &pool {
        let cost = score(sched);
        if sched == default {
            default_cost = cost;
        }
        if cost < best_cost {
            best_cost = cost;
            best = sched;
        }
    }
    ScheduleChoice {
        schedule: best,
        cost: best_cost,
        default_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_schedule_never_worse_than_default() {
        let cands = [
            MatmulSchedule {
                tile_m: 8,
                tile_n: 16,
                tile_k: 8,
            },
            MatmulSchedule {
                tile_m: 64,
                tile_n: 128,
                tile_k: 256,
            },
        ];
        let choice = select_schedule(24, 32, &cands, &[8, 24], 3);
        assert!(
            choice.cost <= choice.default_cost,
            "winner {:?} cost {} must not exceed default cost {}",
            choice.schedule,
            choice.cost,
            choice.default_cost
        );
    }
}
