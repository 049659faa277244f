//! End-to-end lifecycle of the shape specializer against a compiled
//! dense stack: attach → observe → background tune + bitwise-gated
//! install → fast-path dispatch → eviction → shutdown. Every dispatch,
//! before and after any install, must be bitwise identical to the
//! symbolic-only outputs captured pre-attach, and teardown must return
//! the process-wide prepack cache to its pre-attach size.
//!
//! The prepack cache is process-global, so each `#[test]` builds its own
//! VM, phrases cache assertions as deltas, and holds [`cache_lock`] so the
//! other test cannot move the cache size under its delta.

use nimble_core::{compile, CompileOptions};
use nimble_device::DeviceSet;
use nimble_ir::attrs::Attrs;
use nimble_ir::builder::FunctionBuilder;
use nimble_ir::types::TensorType;
use nimble_ir::Module;
use nimble_specialize::{ModelSpecializer, SpecializeConfig};
use nimble_tensor::{prepack, DType, Tensor};
use nimble_vm::{Object, VirtualMachine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, MutexGuard};

fn cache_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `main(x: [?, width])`: two dense(+bias)+relu blocks — after fusion,
/// two specializable dense anchors.
fn mlp_module(width: usize, seed: u64) -> Module {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fb = FunctionBuilder::new("main");
    let mut x = fb.param(
        "x",
        TensorType::with_any(&[None, Some(width as u64)], DType::F32),
    );
    for _ in 0..2 {
        let w = fb.constant(Tensor::rand_f32(&mut rng, &[width, width], 0.5));
        let b = fb.constant(Tensor::rand_f32(&mut rng, &[width], 0.5));
        x = fb.call("dense", vec![x, w, b], Attrs::new());
        x = fb.call("relu", vec![x], Attrs::new());
    }
    let mut m = Module::new();
    m.add_function("main", fb.finish(x));
    m
}

fn build_vm(width: usize, seed: u64) -> Arc<VirtualMachine> {
    let (exe, _) = compile(&mlp_module(width, seed), &CompileOptions::default()).expect("compile");
    exe.prepack_weights();
    Arc::new(VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).expect("vm"))
}

fn run_rows(vm: &VirtualMachine, x: &Tensor) -> Vec<u32> {
    vm.run("main", vec![Object::tensor(x.clone())])
        .expect("run")
        .wait_tensor()
        .expect("tensor")
        .as_f32()
        .expect("f32")
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn install_serves_hot_shapes_bitwise_identically() {
    let _cache = cache_lock();
    let width = 16;
    let vm = build_vm(width, 7);
    let baseline = prepack::cache_len();
    let mut rng = StdRng::seed_from_u64(11);
    let shapes = [1usize, 3, 5];
    let inputs: Vec<Tensor> = shapes
        .iter()
        .map(|&m| Tensor::rand_f32(&mut rng, &[m, width], 1.0))
        .collect();
    // Symbolic-only reference, captured before the hook exists.
    let reference: Vec<Vec<u32>> = inputs.iter().map(|x| run_rows(&vm, x)).collect();

    let spec = ModelSpecializer::attach(
        &vm,
        SpecializeConfig {
            hit_threshold: 2,
            max_trials: 4,
            repeats: 1,
            ..SpecializeConfig::default()
        },
    )
    .expect("dense anchors must be found");

    // Three rounds per shape: crosses the threshold and keeps dispatching
    // while tunes are in flight — every output must stay bitwise equal.
    for _ in 0..3 {
        for (x, want) in inputs.iter().zip(&reference) {
            assert_eq!(&run_rows(&vm, x), want, "divergence while warming");
        }
    }
    spec.quiesce();
    let s = spec.stats();
    // Two fused dense anchors x three shapes, each past the threshold
    // exactly once (dispatch here is single-threaded, so exact).
    assert_eq!(s.tunes, 6, "exactly-once tune enqueue broke: {s:?}");
    assert_eq!(s.installs + s.rejected, s.tunes, "tune outcome leak: {s:?}");
    assert_eq!(s.evictions, 0, "no eviction expected under capacity");

    // Hot phase: installed kernels now serve; outputs stay bitwise equal.
    let hits_before = s.hits;
    for (x, want) in inputs.iter().zip(&reference) {
        assert_eq!(&run_rows(&vm, x), want, "divergence on the fast path");
    }
    let s = spec.stats();
    if s.installs > 0 {
        assert!(s.hits > hits_before, "installed kernels never dispatched");
        assert!(
            shapes.iter().any(|&m| spec.is_warm(m)),
            "no warm shape after install"
        );
    }

    // A never-observed shape still runs (symbolic fallback) and counts as
    // a miss, not an error.
    let cold = Tensor::rand_f32(&mut rng, &[7, width], 1.0);
    let direct = run_rows(&vm, &cold);
    assert_eq!(direct.len(), 7 * width);

    // Teardown releases every specialized layout; the shared base packs
    // (owned by the executable) survive.
    spec.shutdown();
    assert_eq!(spec.stats().extra_pack_entries, 0);
    assert_eq!(
        prepack::cache_len(),
        baseline,
        "shutdown must unwind to the pre-attach prepack size"
    );
    // Hook detached: dispatch still bitwise identical.
    for (x, want) in inputs.iter().zip(&reference) {
        assert_eq!(&run_rows(&vm, x), want, "divergence after shutdown");
    }
}

#[test]
fn capacity_eviction_never_strands_a_live_kernel() {
    let _cache = cache_lock();
    let width = 12;
    let vm = build_vm(width, 23);
    let baseline = prepack::cache_len();
    let mut rng = StdRng::seed_from_u64(29);
    let inputs: Vec<Tensor> = (1usize..=6)
        .map(|m| Tensor::rand_f32(&mut rng, &[m, width], 1.0))
        .collect();
    let reference: Vec<Vec<u32>> = inputs.iter().map(|x| run_rows(&vm, x)).collect();

    // Capacity far below the 2 anchors x 6 shapes the stream observes:
    // the LRU churns continuously, including entries mid-tune.
    let spec = ModelSpecializer::attach(
        &vm,
        SpecializeConfig {
            hit_threshold: 1,
            capacity: 3,
            max_trials: 2,
            repeats: 1,
            ..SpecializeConfig::default()
        },
    )
    .expect("dense anchors must be found");

    for _ in 0..4 {
        for (x, want) in inputs.iter().zip(&reference) {
            assert_eq!(&run_rows(&vm, x), want, "divergence under eviction churn");
        }
    }
    spec.quiesce();
    let s = spec.stats();
    assert!(s.evictions > 0, "capacity 3 must evict: {s:?}");
    assert!(s.cache_len <= 3, "capacity cap violated: {s:?}");
    // Installed kernels pin at most one extra layout each; eviction must
    // have released the rest (the exact count depends on tuner choices).
    assert!(
        s.extra_pack_entries <= s.installed,
        "evicted entries left packs behind: {s:?}"
    );

    // Dropping every entry releases every specialized layout even while
    // the VM keeps serving.
    spec.evict_all();
    let s = spec.stats();
    assert_eq!(s.cache_len, 0);
    assert_eq!(s.extra_pack_entries, 0, "evict_all stranded packs: {s:?}");
    for (x, want) in inputs.iter().zip(&reference) {
        assert_eq!(&run_rows(&vm, x), want, "divergence after evict_all");
    }

    spec.shutdown();
    assert_eq!(prepack::cache_len(), baseline);
}
