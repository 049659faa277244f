//! Shape-specialization A/B: a Zipfian row-count mix over a row-dynamic
//! MLP served by two identical stacks — specialization **off**
//! (symbolic kernels only) and **on** (hot-shape cache + background
//! tuner installing shape-concretized kernels).
//!
//! Asserts, at every effort level:
//!
//! 1. **bitwise identity** — the specializing stack answers every
//!    request bitwise-identically to the symbolic stack, before, during
//!    and after installs land;
//! 2. **tuning off the request path** — the tune counter is frozen
//!    across the timed phase: every tune ran in the background during
//!    warmup, never inside a measured request;
//! 3. under `--full`, **>= 1.2x p50** on the hot shape after warmup
//!    (the concretized kernel vs the symbolic one).
//!
//! `--smoke` (the default effort) is wired into CI.

use nimble_bench::harness::Effort;
use nimble_core::{CompileOptions, EngineConfig};
use nimble_models::{MlpConfig, MlpModel};
use nimble_serve::{ModelRegistry, RegistryConfig, SpecializeConfig};
use nimble_tensor::{prepack, Tensor};
use nimble_vm::Object;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct row counts, hottest first: the Zipfian sampler weights
/// rank r by 1/r^1.2, so `SHAPES[0]` carries most of the mass.
const SHAPES: [usize; 8] = [1, 16, 4, 8, 2, 6, 12, 24];

/// Seeded Zipfian schedule of row counts over [`SHAPES`].
fn zipf_schedule(len: usize, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=SHAPES.len())
        .map(|r| 1.0 / (r as f64).powf(1.2))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let mut u = rng.gen::<f64>() * total;
            for (i, w) in weights.iter().enumerate() {
                u -= w;
                if u <= 0.0 {
                    return SHAPES[i];
                }
            }
            SHAPES[SHAPES.len() - 1]
        })
        .collect()
}

fn build_stack(model: &MlpModel, specialize: Option<SpecializeConfig>) -> ModelRegistry {
    let reg = ModelRegistry::new(RegistryConfig {
        engine: EngineConfig::with_workers(1),
        specialize,
        ..RegistryConfig::default()
    });
    reg.register("mlp", "v1", &model.module(), &CompileOptions::default())
        .expect("register mlp");
    reg
}

/// One request through the serving engine, returning the output bits.
fn serve_bits(reg: &ModelRegistry, x: &Tensor) -> Vec<u32> {
    let entry = reg.get("mlp").expect("registered");
    entry
        .engine()
        .run("main", vec![Object::tensor(x.clone())])
        .expect("engine alive")
        .result
        .expect("run ok")
        .wait_tensor()
        .expect("tensor")
        .as_f32()
        .expect("f32")
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// p50 of `samples` timed batches of `reps` direct VM runs each,
/// reported as per-run latency. Direct `vm.run` keeps engine queue
/// noise out of the measurement; the specializer hooks the VM itself,
/// so the fast path is still exercised.
fn p50_per_run(reg: &ModelRegistry, x: &Tensor, samples: usize, reps: usize) -> Duration {
    let vm = Arc::clone(reg.get("mlp").expect("registered").vm());
    let run = |x: &Tensor| {
        vm.run("main", vec![Object::tensor(x.clone())])
            .expect("run")
            .wait_tensor()
            .expect("tensor");
    };
    for _ in 0..reps {
        run(x);
    }
    let mut batches: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                run(x);
            }
            start.elapsed() / reps as u32
        })
        .collect();
    batches.sort();
    batches[batches.len() / 2]
}

fn main() {
    let effort = Effort::from_args();
    let full = effort == Effort::full();
    println!("shape_cache: specialization A/B over a Zipfian shape mix ({effort:?})");

    let prepack_baseline = prepack::cache_len();
    // 512-wide hidden layers: big enough that the default schedule's
    // tiling is measurably off for the hot row counts, so concretizing
    // the shape buys real time.
    let model = MlpModel::new(MlpConfig {
        input: 64,
        hidden: 512,
        layers: 2,
        classes: 16,
        seed: 42,
    });
    let reg_off = build_stack(&model, None);
    let reg_on = build_stack(
        &model,
        Some(SpecializeConfig {
            hit_threshold: 4,
            repeats: 3,
            ..SpecializeConfig::default()
        }),
    );
    let spec = Arc::clone(
        reg_on
            .get("mlp")
            .unwrap()
            .specializer()
            .expect("specializer attached to the dense stack"),
    );

    // ---- Phase 1: Zipfian mix, bitwise identity while tuning races ----
    let schedule = zipf_schedule(effort.samples * 16, 7);
    let hot = SHAPES[0];
    let hot_share = schedule.iter().filter(|&&m| m == hot).count() as f64 / schedule.len() as f64;
    println!(
        "  mix: {} requests over {:?} (hot rows={hot}, {:.0}% of mass)",
        schedule.len(),
        SHAPES,
        hot_share * 100.0
    );
    let mut rng = StdRng::seed_from_u64(13);
    for (i, &m) in schedule.iter().enumerate() {
        let x = model.random_input(&mut rng, m);
        assert_eq!(
            serve_bits(&reg_off, &x),
            serve_bits(&reg_on, &x),
            "request {i} (rows={m}): specializing stack diverged"
        );
    }

    // ---- Phase 2: drain the tuner; installs land off the request path ----
    spec.quiesce();
    let warm = spec.stats();
    assert!(warm.tunes > 0, "hot shapes never crossed the threshold");
    assert_eq!(
        warm.installs + warm.rejected,
        warm.tunes,
        "tune outcome leak: {warm:?}"
    );
    println!(
        "  warmup: {} hits / {} misses, {} tunes -> {} installed ({} rejected by the bitwise probe)",
        warm.hits, warm.misses, warm.tunes, warm.installs, warm.rejected
    );

    // ---- Phase 3: timed A/B on the hot shape ----
    let x_hot = model.random_input(&mut rng, hot);
    let reps = if full { 64 } else { 8 };
    let samples = effort.iters.max(3) * 5;
    let p50_off = p50_per_run(&reg_off, &x_hot, samples, reps);
    let p50_on = p50_per_run(&reg_on, &x_hot, samples, reps);
    let after = spec.stats();
    assert_eq!(
        after.tunes, warm.tunes,
        "tuning ran on the request path during the timed phase"
    );
    assert!(
        after.hits > warm.hits,
        "timed phase never dispatched through the shape cache"
    );
    // Identity holds on the exact measured input too.
    assert_eq!(
        serve_bits(&reg_off, &x_hot),
        serve_bits(&reg_on, &x_hot),
        "hot-shape outputs diverged after install"
    );

    let speedup = p50_off.as_secs_f64() / p50_on.as_secs_f64().max(1e-12);
    println!(
        "\n  hot shape [{hot}x{}]: p50 {p50_off:.2?} (off) -> {p50_on:.2?} (on)  {speedup:.2}x",
        model.config.input
    );
    if full {
        assert!(
            after.installs > 0,
            "--full requires an installed specialization: {after:?}"
        );
        assert!(
            speedup >= 1.2,
            "specialized p50 speedup {speedup:.2}x below the 1.2x bar"
        );
    }

    // ---- Phase 4: teardown unwinds every specialized layout ----
    reg_on.shutdown();
    reg_off.shutdown();
    assert_eq!(
        prepack::cache_len(),
        prepack_baseline,
        "teardown must return the prepack cache to baseline"
    );
    println!("shape_cache: OK");
}
