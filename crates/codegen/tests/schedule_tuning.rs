//! Tuner regression tests: the schedule search space must change *measured
//! cost only* — every `MatmulSchedule` produces the identical result, and
//! selection over the tuner's top-k is never worse than the default
//! schedule.

use nimble_codegen::select_schedule;
use nimble_codegen::tuner::{self, measure, search_space, TunerConfig};
use nimble_tensor::kernels::MatmulSchedule;
use nimble_tensor::Tensor;
use rand::SeedableRng;

/// A deliberately bad schedule: 1-wide reduction blocks maximize packing
/// and loop overhead per accumulated element.
fn pathological() -> MatmulSchedule {
    MatmulSchedule {
        tile_m: 8,
        tile_n: 8,
        tile_k: 1,
    }
}

#[test]
fn distinct_schedules_identical_outputs() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let x = Tensor::rand_f32(&mut rng, &[19, 48], 1.0);
    let w = Tensor::rand_f32(&mut rng, &[33, 48], 0.5);
    let reference: Vec<u32> = tuner::dense_with_schedule(&x, &w, MatmulSchedule::default())
        .unwrap()
        .as_f32()
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let mut configs = search_space();
    configs.push(pathological());
    assert!(configs.len() >= 2, "need at least two distinct configs");
    for sched in configs {
        let got: Vec<u32> = tuner::dense_with_schedule(&x, &w, sched)
            .unwrap()
            .as_f32()
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(got, reference, "schedule {sched:?} changed the output");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock comparison: unoptimized code does not rank schedules; run with --release"
)]
fn schedules_have_distinguishable_costs() {
    // Cost must be a real function of the schedule: the 1-wide-reduction
    // pathological config has to measure slower than the default on a
    // mid-size GEMM. Best-of-three medians on each side to shrug off
    // scheduler noise in CI.
    let (m, n, k) = (96, 128, 128);
    let best_of = |sched: MatmulSchedule| -> f64 {
        (0..3)
            .map(|_| measure(m, n, k, sched, 5))
            .fold(f64::INFINITY, f64::min)
    };
    let good = best_of(MatmulSchedule::default());
    let bad = best_of(pathological());
    assert!(
        bad > good * 1.1,
        "schedules must have distinguishable costs: default {good:.0} ns vs \
         pathological {bad:.0} ns"
    );
}

#[test]
fn tuner_top_k_selection_never_worse_than_default() {
    let (n, k) = (64, 64);
    let report = tune_small(n, k);
    assert!(!report.top_configs.is_empty());
    let choice = select_schedule(n, k, &report.top_configs, &[16, 96], 3);
    assert!(
        choice.cost <= choice.default_cost,
        "selected {:?} at {:.0} ns/row must not be worse than default at {:.0} ns/row",
        choice.schedule,
        choice.cost,
        choice.default_cost
    );
}

fn tune_small(n: usize, k: usize) -> tuner::TuneReport {
    tune_with(
        n,
        k,
        TunerConfig {
            proxy_dim: 32,
            top_k: 4,
            eval_shapes: vec![8, 64],
            repeats: 2,
            max_trials: 12,
            seed: 7,
        },
    )
}

fn tune_with(n: usize, k: usize, cfg: TunerConfig) -> tuner::TuneReport {
    tuner::tune_dense_symbolic(n, k, &cfg)
}
