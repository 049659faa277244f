//! Property test for the executable's serialize/deserialize cycle
//! through the *file* API: for randomly generated programs, a VM loaded
//! from `Executable::save_to`/`load_from` must produce bitwise-identical
//! outputs to the VM running the in-memory executable.
//!
//! Programs are random chains of unary ops, broadcast adds against
//! random constants, dense layers with random weights, and LSTM-style
//! cells (a fused group reading `split` parts in place and exporting two
//! values; the program then returns a tuple) over a dynamic-row input —
//! enough to exercise the varint bytecode encoder
//! across register counts, the constant-pool tensor codec (including
//! non-finite-free but otherwise arbitrary f32 bit patterns from the
//! rng), kernel descriptors for fused and shape-function entries, and
//! dynamic-shape execution after reload.

use nimble_core::{compile, CompileOptions};
use nimble_device::DeviceSet;
use nimble_ir::attrs::{AttrValue, Attrs};
use nimble_ir::builder::FunctionBuilder;
use nimble_ir::types::TensorType;
use nimble_ir::{Expr, Module};
use nimble_tensor::{DType, Tensor};
use nimble_vm::{Executable, Object, VirtualMachine};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One random pipeline stage (decoded from a generated byte).
#[derive(Debug, Clone, Copy)]
enum Stage {
    Relu,
    Tanh,
    Sigmoid,
    Neg,
    AddConst,
    Dense {
        out: usize,
    },
    /// An LSTM-style cell keeping the width: gates from a dense, split in
    /// four; its `c` is returned beside the final value.
    Cell,
}

fn decode_stages(codes: &[u8], rng: &mut rand::rngs::StdRng) -> Vec<Stage> {
    codes
        .iter()
        .map(|c| match c % 7 {
            0 => Stage::Relu,
            1 => Stage::Tanh,
            2 => Stage::Sigmoid,
            3 => Stage::Neg,
            4 => Stage::AddConst,
            5 => Stage::Dense {
                out: rng.gen_range(1usize..7),
            },
            _ => Stage::Cell,
        })
        .collect()
}

/// Build a module applying `stages` to a dynamic-row `[?, cols]` input.
fn build_module(stages: &[Stage], cols: usize, rng: &mut rand::rngs::StdRng) -> Module {
    let mut fb = FunctionBuilder::new("main");
    let mut x = fb.param(
        "x",
        TensorType::with_any(&[None, Some(cols as u64)], DType::F32),
    );
    let mut width = cols;
    let mut cell_c = None;
    for stage in stages {
        x = match stage {
            Stage::Relu => fb.call("relu", vec![x], Attrs::new()),
            Stage::Tanh => fb.call("tanh", vec![x], Attrs::new()),
            Stage::Sigmoid => fb.call("sigmoid", vec![x], Attrs::new()),
            Stage::Neg => fb.call("neg", vec![x], Attrs::new()),
            Stage::AddConst => {
                let c = fb.constant(Tensor::rand_f32(rng, &[width], 2.0));
                fb.call("add", vec![x, c], Attrs::new())
            }
            Stage::Dense { out } => {
                let w = fb.constant(Tensor::rand_f32(rng, &[*out, width], 0.8));
                width = *out;
                fb.call("dense", vec![x, w], Attrs::new())
            }
            Stage::Cell => {
                let w = fb.constant(Tensor::rand_f32(rng, &[4 * width, width], 0.8));
                let b = fb.constant(Tensor::rand_f32(rng, &[4 * width], 0.5));
                let gates = fb.call("dense", vec![x.clone(), w], Attrs::new());
                let gates = fb.call("add", vec![gates, b], Attrs::new());
                let split = Attrs::new()
                    .with("parts", AttrValue::Int(4))
                    .with("axis", AttrValue::Int(1));
                let parts = fb.call("split", vec![gates], split);
                let mut gate = |k: usize, op: &str| {
                    let part = fb.bind("part", Expr::tuple_get(parts.clone(), k));
                    fb.call(op, vec![part], Attrs::new())
                };
                let (i, f, u, o) = (
                    gate(0, "sigmoid"),
                    gate(1, "sigmoid"),
                    gate(2, "tanh"),
                    gate(3, "sigmoid"),
                );
                let fx = fb.call("mul", vec![f, x], Attrs::new());
                let iu = fb.call("mul", vec![i, u], Attrs::new());
                let c = fb.call("add", vec![fx, iu], Attrs::new());
                let tc = fb.call("tanh", vec![c.clone()], Attrs::new());
                cell_c = Some(c);
                fb.call("mul", vec![o, tc], Attrs::new())
            }
        };
    }
    let result = match cell_c {
        Some(c) => Expr::tuple(vec![x, c]),
        None => x,
    };
    let mut m = Module::new();
    m.add_function("main", fb.finish(result));
    m
}

fn unique_artifact_path() -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "nimble-exe-roundtrip-{}-{}.nmbl",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn run_f32(vm: &VirtualMachine, input: &Tensor) -> Vec<u32> {
    let out = vm
        .run("main", vec![Object::tensor(input.clone())])
        .expect("run");
    let fields = match out.as_adt() {
        Ok(tuple) => tuple.fields.clone(),
        Err(_) => vec![out.clone()],
    };
    fields
        .iter()
        .flat_map(|f| {
            let t = f.wait_tensor().expect("tensor result");
            let bits: Vec<u32> = t
                .as_f32()
                .expect("f32 output")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            bits
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reloaded_executable_is_bitwise_identical(
        seed in 0u64..1_000_000,
        stage_codes in proptest::collection::vec(0u8..7, 1..7),
        cols in 1usize..6,
        rows in 1usize..5,
        fuse in proptest::arbitrary::any::<bool>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let stages = decode_stages(&stage_codes, &mut rng);
        let module = build_module(&stages, cols, &mut rng);
        let opts = CompileOptions { fuse, ..CompileOptions::default() };
        let (exe, _) = compile(&module, &opts).expect("compile generated program");

        // File round-trip (save_to/load_from), not just byte round-trip.
        let path = unique_artifact_path();
        exe.save_to(&path).expect("save_to");
        let reloaded = Executable::load_from(&path).expect("load_from");
        let _ = std::fs::remove_file(&path);

        // Structural equality of the serializable parts.
        prop_assert_eq!(&reloaded.functions, &exe.functions);
        prop_assert_eq!(&reloaded.kernels, &exe.kernels);
        prop_assert_eq!(reloaded.constants.len(), exe.constants.len());

        // Behavioral equality: bitwise-identical outputs on the same
        // dynamic-shaped input.
        let input = Tensor::rand_f32(&mut rng, &[rows, cols], 1.5);
        let vm_mem = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).expect("vm mem");
        let vm_disk =
            VirtualMachine::new(reloaded, Arc::new(DeviceSet::cpu_only())).expect("vm disk");
        prop_assert_eq!(run_f32(&vm_mem, &input), run_f32(&vm_disk, &input));
    }

    /// Corrupting any strict prefix of the serialized stream must fail to
    /// load, never panic or mis-load.
    #[test]
    fn truncated_artifacts_error_cleanly(
        seed in 0u64..1_000_000,
        cols in 1usize..5,
        cut_permille in 0u32..1000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let module = build_module(&[Stage::AddConst, Stage::Relu], cols, &mut rng);
        let (exe, _) = compile(&module, &CompileOptions::default()).expect("compile");
        let bytes = exe.save();
        let cut = (bytes.len() - 1) * cut_permille as usize / 1000;
        prop_assert!(Executable::load(&bytes[..cut]).is_err());
    }
}
