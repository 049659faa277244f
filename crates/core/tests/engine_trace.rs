//! Traces a direct engine submission starts on its own (no upstream
//! context) are closed by the engine at every terminal: completed,
//! expired, killed while queued, and refused at admission. Each records
//! one `engine.request` root whose `arg` is its [`Outcome`] code, and
//! under `NIMBLE_TRACE=tail` each reaches a flight verdict, so no
//! per-request buffer is left for the safety valve to abandon.
//!
//! The obs recorder is process-global, so the tests that set the trace
//! mode hold [`mode_lock`].

use nimble_core::{compile, CompileOptions, Engine, EngineConfig, EngineError, Outcome};
use nimble_device::DeviceSet;
use nimble_ir::attrs::Attrs;
use nimble_ir::builder::FunctionBuilder;
use nimble_ir::types::TensorType;
use nimble_ir::Module;
use nimble_obs::{flight, TraceMode};
use nimble_tensor::{DType, Tensor};
use nimble_vm::{Object, VirtualMachine};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn mode_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn add_one_engine(queue_capacity: usize) -> Engine {
    let mut fb = FunctionBuilder::new("main");
    let x = fb.param("x", TensorType::new(&[2], DType::F32));
    let one = fb.constant(Tensor::ones_f32(&[2]));
    let y = fb.call("add", vec![x, one], Attrs::new());
    let mut module = Module::new();
    module.add_function("main", fb.finish(y));
    let (exe, _) = compile(&module, &CompileOptions::default()).unwrap();
    let vm = Arc::new(VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap());
    let config = EngineConfig {
        workers: 1,
        queue_capacity,
        max_batch: 1,
    };
    Engine::new(vm, config).unwrap()
}

fn arg() -> Vec<Object> {
    vec![Object::tensor(Tensor::ones_f32(&[2]))]
}

/// Drive one request to each terminal: `completed` successes, one
/// expired, then a paused queue filled to capacity (one more is refused
/// `Busy`) and killed. Returns how many were killed while queued.
fn drive_every_terminal(completed: usize) -> usize {
    let capacity = 3;
    let engine = add_one_engine(capacity);
    for _ in 0..completed {
        engine.run("main", arg()).unwrap().result.unwrap();
    }
    let past = Instant::now() - Duration::from_millis(1);
    let expired = engine.submit("main", arg(), Some(past));
    assert_eq!(expired.wait().unwrap_err(), EngineError::Expired);

    engine.pause_and_wait();
    let queued: Vec<_> = (0..capacity)
        .map(|_| engine.try_submit("main", arg(), None).unwrap())
        .collect();
    assert_eq!(
        engine.try_submit("main", arg(), None).unwrap_err(),
        EngineError::Busy
    );
    engine.kill();
    for t in queued {
        assert_eq!(t.wait().unwrap_err(), EngineError::Closed);
    }
    capacity
}

#[test]
fn tail_mode_engine_traces_reach_a_verdict() {
    let _l = mode_lock();
    nimble_obs::set_mode(TraceMode::Tail);
    nimble_obs::reset();
    let before = flight::active_buffers();

    let killed = drive_every_terminal(4);

    assert_eq!(
        flight::active_buffers(),
        before,
        "engine-owned traces left buffers in flight"
    );
    assert_eq!(flight::flight_abandoned(), 0);
    // Every non-Completed terminal is retained (the expired request, the
    // killed ones and the refused one); the fast completions are not.
    let retained = flight::retained_traces();
    assert_eq!(retained.len(), 1 + killed + 1, "retained: {retained:?}");
    assert!(retained.iter().all(|t| t.model == "main"));
    nimble_obs::set_mode(TraceMode::Off);
}

#[test]
fn every_engine_terminal_records_its_root() {
    let _l = mode_lock();
    nimble_obs::set_mode(TraceMode::All);
    nimble_obs::reset();

    let killed = drive_every_terminal(1);

    let mut codes: Vec<u64> = nimble_obs::snapshot()
        .iter()
        .filter(|s| s.name == "engine.request" && s.parent == 0)
        .map(|s| s.arg)
        .collect();
    codes.sort_unstable();
    let mut want = vec![Outcome::Completed as u64, Outcome::Expired as u64];
    want.extend(std::iter::repeat_n(Outcome::ReplicaDeath as u64, killed));
    want.push(Outcome::Shed as u64);
    assert_eq!(codes, want);
    nimble_obs::set_mode(TraceMode::Off);
}
