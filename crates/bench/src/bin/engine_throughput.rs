//! Engine throughput: requests/sec as a function of worker count, for one
//! shared loaded program.
//!
//! The loaded `VirtualMachine` is `Send + Sync`, so N engine workers run
//! the same model with no per-worker re-instantiation; each worker's
//! session pins its kernels to its own simulated-GPU stream lane. The
//! host here is a single core, so the scaling being measured is *request
//! overlap against device time*: while one request's kernels occupy its
//! stream, other workers interpret and launch theirs — exactly the
//! serving effect a multi-stream GPU gives. Device kernel latency is
//! calibrated from a host-only measurement, so the device:host time ratio
//! (3:1) is explicit and reproducible rather than hardware-dependent.
//!
//! Run with `--full` for the numbers recorded in EXPERIMENTS.md.

use nimble_bench::harness::Effort;
use nimble_bench::workload::mrpc_lengths;
use nimble_core::{compile, CompileOptions, Engine, EngineConfig};
use nimble_device::DeviceSet;
use nimble_models::data::list_object;
use nimble_models::{BertConfig, BertModel, LstmConfig, LstmModel};
use nimble_vm::{Object, VirtualMachine};
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Device kernel time is this multiple of host interpretation time per
/// request: the device is the bottleneck for a single worker, so added
/// workers can overlap it (up to ~this factor at saturation).
const DEVICE_TO_HOST_RATIO: u32 = 3;

struct Workload {
    name: &'static str,
    /// Argument sets, one per request, cycled through.
    requests: Vec<Vec<Object>>,
    exe: nimble_vm::Executable,
}

fn lstm_workload(effort: Effort) -> Workload {
    let model = LstmModel::new(LstmConfig {
        input: 32,
        hidden: 32,
        layers: 1,
        seed: 42,
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let requests = mrpc_lengths(effort.samples, 3)
        .iter()
        .map(|&len| vec![list_object(&model.random_tokens(&mut rng, len.min(24)))])
        .collect();
    let (exe, _) = compile(&model.module(), &CompileOptions::gpu()).expect("compile lstm");
    Workload {
        name: "LSTM",
        requests,
        exe,
    }
}

fn bert_workload(effort: Effort) -> Workload {
    let model = BertModel::new(BertConfig {
        layers: 2,
        hidden: 64,
        heads: 4,
        ffn: 256,
        vocab: 500,
        max_pos: 128,
        seed: 42,
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let requests = mrpc_lengths(effort.samples, 5)
        .iter()
        .map(|&len| {
            let (tok, pos) = model.inputs(&model.random_tokens(&mut rng, len));
            vec![Object::tensor(tok), Object::tensor(pos)]
        })
        .collect();
    let (exe, _) = compile(&model.module(), &CompileOptions::gpu()).expect("compile bert");
    Workload {
        name: "BERT",
        requests,
        exe,
    }
}

/// Mean single-threaded request time on a zero-latency GPU set: the pure
/// host cost (interpretation + kernel compute) per request.
fn calibrate_host_cost(workload: &Workload, effort: Effort) -> (Duration, u64) {
    let devices = Arc::new(DeviceSet::with_gpu());
    let vm = VirtualMachine::new(workload.exe.clone(), devices).expect("vm");
    let mut session = vm.session();
    for args in &workload.requests {
        vm.run_in(&mut session, "main", args.clone())
            .expect("warmup");
    }
    vm.set_profiling(true);
    let rounds = effort.iters.max(2);
    let start = Instant::now();
    for _ in 0..rounds {
        for args in &workload.requests {
            vm.run_in(&mut session, "main", args.clone()).expect("run");
        }
    }
    let total = start.elapsed();
    let runs = (rounds * workload.requests.len()) as u32;
    let kernels_per_request = vm.profile_report().kernel_invocations / u64::from(runs);
    (total / runs, kernels_per_request.max(1))
}

struct Point {
    workers: usize,
    requests_per_sec: f64,
    mean_latency_ms: f64,
}

fn sweep(workload: &Workload, effort: Effort, worker_counts: &[usize]) -> Vec<Point> {
    let (host_cost, kernels) = calibrate_host_cost(workload, effort);
    let kernel_latency = host_cost * DEVICE_TO_HOST_RATIO / kernels as u32;
    let max_workers = worker_counts.iter().copied().max().unwrap_or(1);
    println!(
        "  calibration: host {:.2} ms/request, {} kernels/request -> device {:?}/kernel",
        host_cost.as_secs_f64() * 1e3,
        kernels,
        kernel_latency,
    );

    // One loaded program for the whole sweep: lanes for the largest
    // worker count, smaller sweeps simply use a prefix of them.
    let devices = Arc::new(DeviceSet::with_gpu_lanes(max_workers, kernel_latency));
    let vm = Arc::new(VirtualMachine::new(workload.exe.clone(), devices).expect("vm"));

    let total_requests = (workload.requests.len() * effort.iters).max(32);
    let mut points = Vec::new();
    for &workers in worker_counts {
        let engine = Engine::new(
            Arc::clone(&vm),
            EngineConfig {
                workers,
                queue_capacity: total_requests.max(8),
                max_batch: 4,
            },
        )
        .expect("engine");
        // Warm the workers (first touch of each lane, frame pools).
        let warm: Vec<_> = (0..workers.max(effort.warmup))
            .map(|i| {
                engine.submit(
                    "main",
                    workload.requests[i % workload.requests.len()].clone(),
                    None,
                )
            })
            .collect();
        for t in warm {
            t.wait().expect("warmup").result.expect("warmup run");
        }

        let start = Instant::now();
        let tickets: Vec<_> = (0..total_requests)
            .map(|i| {
                engine.submit(
                    "main",
                    workload.requests[i % workload.requests.len()].clone(),
                    None,
                )
            })
            .collect();
        let mut latency_sum = Duration::ZERO;
        for t in tickets {
            let done = t.wait().expect("request");
            done.result.expect("request run");
            latency_sum += done.latency;
        }
        let wall = start.elapsed();
        points.push(Point {
            workers,
            requests_per_sec: total_requests as f64 / wall.as_secs_f64(),
            mean_latency_ms: latency_sum.as_secs_f64() * 1e3 / total_requests as f64,
        });
    }
    points
}

fn main() {
    let effort = Effort::from_args();
    let worker_counts = [1usize, 2, 4, 8];
    println!("engine throughput sweep ({effort:?})");
    for workload in [lstm_workload(effort), bert_workload(effort)] {
        println!("\n{} workload:", workload.name);
        let points = sweep(&workload, effort, &worker_counts);
        let base = points[0].requests_per_sec;
        println!(
            "  {:>7} | {:>10} | {:>8} | {:>12}",
            "workers", "req/s", "scaling", "mean latency"
        );
        for p in &points {
            println!(
                "  {:>7} | {:>10.1} | {:>7.2}x | {:>9.2} ms",
                p.workers,
                p.requests_per_sec,
                p.requests_per_sec / base,
                p.mean_latency_ms,
            );
        }
    }
}
