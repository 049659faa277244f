//! Per-layer probes that are the same for every workload: the compiler
//! passes called one by one, the executable's save/load path, and direct
//! calls into the tensor and simd kernels at the workloads' own shapes.

use crate::measure::{median_secs, per_call_secs, timed};
use crate::report::Record;
use crate::stats;
use nimble_core::lower::lower_module;
use nimble_core::{compile, CompileOptions};
use nimble_device::DeviceSet;
use nimble_ir::Module;
use nimble_passes::device_place::place_function;
use nimble_passes::memory_plan::plan_function;
use nimble_passes::type_infer::infer_function;
use nimble_passes::{anf, fusion, opt};
use nimble_simd::vecmath::{softmax_strip, unary_slice, UnaryOp};
use nimble_tensor::{kernels, prepack, Tensor};
use nimble_vm::{Executable, VirtualMachine};
use std::sync::Arc;
use std::time::Duration;

const PASS_CALLS: usize = 15;
const STAGES: [&str; 6] = [
    "passes.anf_ms",
    "passes.opt_ms",
    "passes.fusion_ms",
    "passes.type_infer_ms",
    "passes.memory_plan_ms",
    "passes.device_place_ms",
];

/// `compile()`'s pipeline re-composed from the public passes, timing each
/// stage; returns seconds per stage and the planned module.
fn staged_pipeline(module: &Module, opts: &CompileOptions) -> ([f64; 6], Module) {
    let mut spent = [0.0f64; 6];
    let mut planned = Module::new();
    for adt in module.adts() {
        planned.add_adt(adt.clone());
    }
    for (name, func) in module.functions() {
        let mut stage = 0;
        let mut clock = |seconds: f64| {
            spent[stage] += seconds;
            stage += 1;
        };
        let (f, s) = timed(|| anf::to_anf(func));
        clock(s);
        let (f, s) = timed(|| {
            let f = anf::to_anf(&opt::fold_constants(&f));
            opt::eliminate_dead_code(&opt::eliminate_common_subexpr(&f))
        });
        clock(s);
        let (f, s) = timed(|| fusion::fuse_function(&f));
        clock(s);
        let ((types, _ret), s) = timed(|| infer_function(module, &f).expect("type inference"));
        clock(s);
        let ((f, _mem), s) =
            timed(|| plan_function(&f, &types, opts.coalesce).expect("memory plan"));
        clock(s);
        let ((f, _place), s) = timed(|| place_function(&f, opts.target).expect("placement"));
        clock(s);
        planned.add_function(&name.0, f);
    }
    (spent, planned)
}

/// Add what compiling and loading `module` costs to the record; a workload
/// with several modules calls this once per module and the costs add up.
pub fn probe_compile(
    rec: &mut Record,
    module: &Module,
    opts: &CompileOptions,
    devices: &Arc<DeviceSet>,
) {
    let add = |rec: &mut Record, name: &str, v: f64| {
        let old = rec.get(name).map_or(0.0, |m| m.value);
        rec.set(name, old + v);
    };

    let mut compiled = None;
    let compile_s = median_secs(5, || {
        compiled = Some(compile(module, opts).expect("compile"))
    });
    let (exe, report) = compiled.expect("compiled at least once");
    add(rec, "core.compile_ms", compile_s * 1e3);

    let mut per_stage: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let mut lower_s = Vec::new();
    for _ in 0..PASS_CALLS {
        let (spent, planned) = staged_pipeline(module, opts);
        for (stage, s) in per_stage.iter_mut().zip(spent) {
            stage.push(s);
        }
        let (lowered, s) = timed(|| lower_module(&planned).expect("lowering"));
        lower_s.push(s);
        assert_eq!(
            lowered.num_instructions(),
            report.instructions,
            "the re-composed pipeline must emit what compile() emits"
        );
    }
    for (name, times) in STAGES.iter().zip(&per_stage) {
        add(rec, name, stats::median(times) * 1e3);
    }
    add(rec, "core.lower_ms", stats::median(&lower_s) * 1e3);

    let mut bytes = exe.save();
    let mem = &report.memplan;
    for (name, count) in [
        ("passes.fusion_groups", report.fusion_groups.len()),
        ("passes.fused_ops", report.fusion_groups.iter().sum()),
        ("passes.storages", mem.storages),
        ("passes.storages_uncoalesced", mem.storages_uncoalesced),
        ("passes.planned_bytes", mem.planned_bytes as usize),
        ("passes.dynamic_allocs", mem.dynamic_allocs),
        ("passes.shape_funcs", mem.shape_funcs),
        ("passes.copies_inserted", report.placement.copies_inserted),
        ("core.instructions_static", report.instructions),
        ("core.kernels", report.kernels),
        ("core.weights_prepacked", report.weights_prepacked),
        ("vm.exe_bytes", bytes.len()),
    ] {
        add(rec, name, count as f64);
    }

    let save_s = median_secs(5, || bytes = exe.save());
    add(rec, "vm.exe_save_ms", save_s * 1e3);
    let mut loaded = None;
    let load_s = median_secs(5, || loaded = Some(Executable::load(&bytes).expect("load")));
    add(rec, "vm.exe_load_ms", load_s * 1e3);
    let loaded = loaded.expect("loaded at least once");
    // Loading builds fresh weight tensors, so the packs of this copy are
    // its own; let go of them once timed. (`exe` shares its weights, and
    // so its packs, with the workload's live stack.)
    let ids = loaded.weight_buffer_ids();
    let (vm, vm_load_s) =
        timed(|| VirtualMachine::new(loaded, Arc::clone(devices)).expect("vm load"));
    add(rec, "vm.load_ms", vm_load_s * 1e3);
    drop(vm);
    prepack::release_buffers(&ids);
}

fn ramp(len: usize) -> Vec<f32> {
    (0..len).map(|i| ((i % 97) as f32 - 48.0) * 0.013).collect()
}

/// Direct calls into `tensor` and `simd`. FLOPs and elements are computed
/// from the shapes, not counted by the hardware.
pub fn probe_kernels(rec: &mut Record) {
    const K: usize = 256;
    const N: usize = 1024;
    let budget = Duration::from_millis(120);
    let weight = Tensor::from_vec_f32(ramp(N * K), &[N, K]).expect("weight");
    for (m, name) in [
        (1, "tensor.gemm_m1_gflops"),
        (32, "tensor.gemm_m32_gflops"),
        (128, "tensor.gemm_m128_gflops"),
    ] {
        let x = Tensor::from_vec_f32(ramp(m * K), &[m, K]).expect("x");
        let s = per_call_secs(budget, || {
            std::hint::black_box(kernels::dense(&x, &weight, None).expect("dense"));
        });
        rec.set(name, 2.0 * (m * N * K) as f64 / s / 1e9);
    }
    prepack::release_buffers(&[weight.buffer_id()]);

    let isa = nimble_simd::active();
    const LEN: usize = 16 * 1024;
    let src = ramp(LEN);
    let mut buf = src.clone();
    for (op, name) in [
        (UnaryOp::Tanh, "simd.tanh_melem_s"),
        (UnaryOp::Sigmoid, "simd.sigmoid_melem_s"),
        (UnaryOp::Gelu, "simd.gelu_melem_s"),
    ] {
        let s = per_call_secs(budget, || {
            buf.copy_from_slice(&src);
            unary_slice(isa, op, &mut buf);
            std::hint::black_box(&buf);
        });
        rec.set(name, LEN as f64 / s / 1e6);
    }
    // Attention rows of a 64-token BERT request.
    const COLS: usize = 64;
    let s = per_call_secs(budget, || {
        for (s, d) in src.chunks(COLS).zip(buf.chunks_mut(COLS)) {
            softmax_strip(isa, s, d);
        }
        std::hint::black_box(&buf);
    });
    rec.set("simd.softmax_melem_s", LEN as f64 / s / 1e6);
}

/// The process-wide pre-pack cache as the workload left it.
pub fn probe_prepack(rec: &mut Record) {
    rec.set("tensor.prepack_entries", prepack::cache_len() as f64);
    rec.set("tensor.prepack_bytes", prepack::cache_bytes() as f64);
}
