//! Cross-crate integration tests: the full pipeline (model builders →
//! passes → lowering → VM) against pure-kernel references, across
//! compilation options and devices.

use nimble::compiler::{compile, CompileOptions, StaticGraph};
use nimble::device::DeviceSet;
use nimble::models::data::list_object;
use nimble::models::{
    cv, BertConfig, BertModel, LstmConfig, LstmModel, TreeLstmConfig, TreeLstmModel,
};
use nimble::tensor::Tensor;
use nimble::vm::{Executable, Object, VirtualMachine};
use rand::SeedableRng;
use std::sync::Arc;

fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: shapes differ");
    for (x, y) in a.as_f32().unwrap().iter().zip(b.as_f32().unwrap()) {
        assert!((x - y).abs() < tol, "{what}: {x} vs {y}");
    }
}

fn tiny_lstm() -> LstmModel {
    LstmModel::new(LstmConfig {
        input: 6,
        hidden: 10,
        layers: 2,
        seed: 3,
    })
}

#[test]
fn lstm_pipeline_matches_reference_under_all_options() {
    let model = tiny_lstm();
    let module = model.module();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let tokens = model.random_tokens(&mut rng, 6);
    let want = model.reference(&tokens);
    for (fuse, coalesce, optimize) in [
        (true, true, true),
        (false, true, true),
        (true, false, true),
        (true, true, false),
        (false, false, false),
    ] {
        let opts = CompileOptions {
            fuse,
            coalesce,
            optimize,
            ..CompileOptions::default()
        };
        let (exe, _) = compile(&module, &opts).unwrap();
        let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
        let got = vm
            .run("main", vec![list_object(&tokens)])
            .unwrap()
            .wait_tensor()
            .unwrap();
        assert_close(
            &got,
            &want,
            1e-4,
            &format!("fuse={fuse} coalesce={coalesce} optimize={optimize}"),
        );
    }
}

#[test]
fn gpu_and_cpu_targets_agree() {
    let model = tiny_lstm();
    let module = model.module();
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let tokens = model.random_tokens(&mut rng, 4);

    let (cpu_exe, _) = compile(&module, &CompileOptions::default()).unwrap();
    let cpu_vm = VirtualMachine::new(cpu_exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    let cpu_out = cpu_vm
        .run("main", vec![list_object(&tokens)])
        .unwrap()
        .wait_tensor()
        .unwrap();

    let (gpu_exe, report) = compile(&module, &CompileOptions::gpu()).unwrap();
    assert!(report.placement.device_values > 0);
    let devices = Arc::new(DeviceSet::with_gpu());
    let gpu_vm = VirtualMachine::new(gpu_exe, Arc::clone(&devices)).unwrap();
    let gpu_out = gpu_vm
        .run("main", vec![list_object(&tokens)])
        .unwrap()
        .wait_tensor()
        .unwrap();
    assert_close(&cpu_out, &gpu_out, 1e-5, "cpu vs gpu");
    assert!(
        devices.gpu().launch_count() > 0,
        "kernels ran on the stream"
    );
}

#[test]
fn executable_round_trips_through_bytes_for_every_model() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // LSTM.
    let lstm = tiny_lstm();
    let (exe, _) = compile(&lstm.module(), &CompileOptions::default()).unwrap();
    let loaded = Executable::load(&exe.save()).unwrap();
    assert_eq!(loaded.num_instructions(), exe.num_instructions());
    let tokens = lstm.random_tokens(&mut rng, 3);
    let vm = VirtualMachine::new(loaded, Arc::new(DeviceSet::cpu_only())).unwrap();
    let got = vm
        .run("main", vec![list_object(&tokens)])
        .unwrap()
        .wait_tensor()
        .unwrap();
    assert_close(&got, &lstm.reference(&tokens), 1e-4, "lstm round trip");

    // BERT.
    let bert = BertModel::new(BertConfig {
        layers: 1,
        hidden: 8,
        heads: 2,
        ffn: 16,
        vocab: 30,
        max_pos: 32,
        seed: 5,
    });
    let (exe, _) = compile(&bert.module(), &CompileOptions::default()).unwrap();
    let loaded = Executable::load(&exe.save()).unwrap();
    let ids = bert.random_tokens(&mut rng, 5);
    let (tok, pos) = bert.inputs(&ids);
    let vm = VirtualMachine::new(loaded, Arc::new(DeviceSet::cpu_only())).unwrap();
    let got = vm
        .run("main", vec![Object::tensor(tok), Object::tensor(pos)])
        .unwrap()
        .wait_tensor()
        .unwrap();
    assert_close(&got, &bert.reference(&ids), 1e-3, "bert round trip");
}

#[test]
fn tree_lstm_many_structures_one_executable() {
    let model = TreeLstmModel::new(TreeLstmConfig {
        input: 5,
        hidden: 7,
        classes: 3,
        seed: 11,
    });
    let (exe, _) = compile(&model.module(), &CompileOptions::default()).unwrap();
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    for leaves in 1..=16 {
        let tree = model.random_tree(&mut rng, leaves);
        let got = vm
            .run("main", vec![tree.to_object()])
            .unwrap()
            .wait_tensor()
            .unwrap();
        assert_close(
            &got,
            &model.reference(&tree),
            1e-4,
            &format!("{leaves} leaves"),
        );
    }
}

#[test]
fn static_runtime_and_vm_agree_on_cv_models() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(19);
    let img = Tensor::rand_f32(&mut rng, &[1, 3, 32, 32], 1.0);
    for (name, module) in cv::all_models(3) {
        let graph = StaticGraph::compile(&module, true).unwrap();
        let (exe, _) = compile(&module, &CompileOptions::default()).unwrap();
        let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
        let a = vm
            .run("main", vec![Object::tensor(img.clone())])
            .unwrap()
            .wait_tensor()
            .unwrap();
        let b = graph.run(std::slice::from_ref(&img)).unwrap();
        assert_close(&a, &b, 1e-3, name);
    }
}

#[test]
fn profiler_accounts_for_instructions() {
    let model = tiny_lstm();
    let (exe, _) = compile(&model.module(), &CompileOptions::default()).unwrap();
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    vm.set_profiling(true);
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let tokens = model.random_tokens(&mut rng, 5);
    vm.run("main", vec![list_object(&tokens)]).unwrap();
    let report = vm.profile_report();
    assert!(report.instructions > 50);
    assert!(report.kernel_invocations >= 5);
    assert!(report.kernel_ns > 0);
}

#[test]
fn bench_systems_cross_validate() {
    // The frameworks used as baselines compute the same functions as
    // Nimble — the precondition for every latency table.
    let model = TreeLstmModel::new(TreeLstmConfig {
        input: 4,
        hidden: 6,
        classes: 2,
        seed: 29,
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let tree = model.random_tree(&mut rng, 9);
    let want = model.reference(&tree);
    let eager = nimble::frameworks::eager::tree_lstm_forward(&model, &tree);
    assert_close(&eager, &want, 1e-4, "eager");
    let fold = nimble::frameworks::fold::tree_lstm_forward(&model, &tree);
    assert_close(&fold, &want, 1e-4, "fold");
}

/// Records the inputs of every compute-kernel call.
#[derive(Default)]
struct Capture(std::sync::Mutex<Vec<(u32, Vec<Tensor>)>>);

impl nimble::vm::DispatchHook for Capture {
    fn intercept(&self, kernel: u32, inputs: &[Tensor]) -> Option<nimble::codegen::Kernel> {
        self.0.lock().unwrap().push((kernel, inputs.to_vec()));
        None
    }
}

/// A `[1, n]` tensor's row repeated `m` times.
fn repeat_rows(t: &Tensor, m: usize) -> Tensor {
    assert_eq!(t.dims()[0], 1, "cell operands are single rows");
    let row = t.as_f32().unwrap();
    let data = (0..m).flat_map(|_| row.iter().copied()).collect();
    Tensor::from_vec_f32(data, &[m, row.len()]).unwrap()
}

/// The LSTM and Tree-LSTM cells compile to fused groups whose elementwise
/// work, `split` parts included, takes the strip route — not
/// member-at-a-time interpretation — at one row and at eight, and every
/// row of the eight-row run repeats the one-row run bit for bit.
#[test]
fn cell_groups_take_the_strip_route_at_one_and_eight_rows() {
    use nimble::codegen::kernel::fallback_invocations;
    let lstm = LstmModel::new(LstmConfig {
        input: 32,
        hidden: 32,
        layers: 2,
        seed: 42,
    });
    let tree = TreeLstmModel::new(TreeLstmConfig {
        input: 64,
        hidden: 64,
        classes: 5,
        seed: 42,
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let lstm_args = vec![list_object(&lstm.random_tokens(&mut rng, 4))];
    let tree_args = vec![tree.random_tree(&mut rng, 5).to_object()];
    for (module, args) in [(lstm.module(), lstm_args), (tree.module(), tree_args)] {
        let (exe, _) = compile(&module, &CompileOptions::default()).unwrap();
        let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
        let capture = Arc::new(Capture::default());
        vm.set_dispatch_hook(Some(capture.clone() as Arc<dyn nimble::vm::DispatchHook>));
        let before = fallback_invocations();
        vm.run("main", args).unwrap();
        assert_eq!(
            fallback_invocations(),
            before,
            "a group fell back at one row"
        );
        let calls = std::mem::take(&mut *capture.0.lock().unwrap());
        let cells: Vec<_> = calls
            .into_iter()
            .filter(|(k, _)| vm.kernels()[*k as usize].name().contains("+split+"))
            .collect();
        assert!(!cells.is_empty(), "no fused cell group ran");
        for (k, inputs) in cells {
            let kernel = &vm.kernels()[k as usize];
            let one = kernel.invoke(&inputs).unwrap();
            let eight: Vec<Tensor> = inputs.iter().map(|t| repeat_rows(t, 8)).collect();
            let before = fallback_invocations();
            let many = kernel.invoke(&eight).unwrap();
            assert_eq!(
                fallback_invocations(),
                before,
                "{} fell back at 8 rows",
                kernel.name()
            );
            for (a, b) in one.iter().zip(&many) {
                let bits = |t: &Tensor| -> Vec<u32> {
                    t.as_f32().unwrap().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(b.dims(), [8, a.dims()[1]].as_slice());
                assert_eq!(bits(b), bits(&repeat_rows(a, 8)), "{}", kernel.name());
            }
        }
    }
}
