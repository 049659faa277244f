//! End-to-end trace tests: one served request must yield a *connected*
//! span tree — serve root → engine queue/run → vm run → at least one
//! kernel span — and both exporters must carry the same run; every
//! terminal outcome records exactly one serve root carrying its code.
//!
//! The obs recorder is process-global (mode, thread buffers), so the
//! tests hold [`obs_lock`]; integration tests get their own process, so
//! no other suite can interleave.

use nimble_core::{CompileOptions, EngineConfig, Outcome};
use nimble_ir::attrs::Attrs;
use nimble_ir::builder::FunctionBuilder;
use nimble_ir::types::TensorType;
use nimble_ir::Module;
use nimble_obs::{Category, SpanRecord, TraceMode};
use nimble_serve::{
    ModelRegistry, RegistryConfig, Rejected, Router, RouterConfig, SpecializeConfig,
};
use nimble_tensor::{DType, Tensor};
use nimble_vm::Object;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn add_k_module(k: f32) -> Module {
    let mut fb = FunctionBuilder::new("main");
    let x = fb.param("x", TensorType::new(&[2], DType::F32));
    let c = fb.constant(Tensor::from_vec_f32(vec![k, k], &[2]).unwrap());
    let y = fb.call("add", vec![x, c], Attrs::new());
    let mut m = Module::new();
    m.add_function("main", fb.finish(y));
    m
}

/// `main(x: [?, 8])`: one dense anchor, so the specializer attaches.
fn dense_module() -> Module {
    let mut fb = FunctionBuilder::new("main");
    let x = fb.param("x", TensorType::with_any(&[None, Some(8)], DType::F32));
    let w = fb.constant(
        Tensor::from_vec_f32((0..64).map(|i| i as f32 * 0.01).collect(), &[8, 8]).unwrap(),
    );
    let h = fb.call("dense", vec![x, w], Attrs::new());
    let y = fb.call("tanh", vec![h], Attrs::new());
    let mut m = Module::new();
    m.add_function("main", fb.finish(y));
    m
}

/// Walk `parent` links from `span` up to the root; panics on a cycle or a
/// dangling parent (a disconnected tree is exactly the bug this guards).
fn path_to_root<'a>(
    by_id: &'a HashMap<u64, &'a SpanRecord>,
    mut span: &'a SpanRecord,
) -> Vec<&'a str> {
    let mut path = vec![span.name];
    for _ in 0..64 {
        if span.parent == 0 {
            return path;
        }
        span = by_id
            .get(&span.parent)
            .unwrap_or_else(|| panic!("span {} has dangling parent {}", span.id, span.parent));
        path.push(span.name);
    }
    panic!("parent chain did not terminate: {path:?}");
}

#[test]
fn traced_request_yields_connected_span_tree() {
    let _l = obs_lock();
    nimble_obs::set_mode(TraceMode::All);
    nimble_obs::reset();

    let registry = Arc::new(ModelRegistry::new(RegistryConfig::default()));
    registry
        .register(
            "bertish",
            "v1",
            &add_k_module(1.0),
            &CompileOptions::default(),
        )
        .unwrap();
    let router = Router::new(Arc::clone(&registry), RouterConfig::default());

    let args = vec![Object::tensor(
        Tensor::from_vec_f32(vec![1.0, 2.0], &[2]).unwrap(),
    )];
    let completion = router.submit("bertish", args).unwrap().wait().unwrap();
    assert_eq!(
        completion
            .result
            .unwrap()
            .wait_tensor()
            .unwrap()
            .as_f32()
            .unwrap(),
        &[2.0, 3.0]
    );

    let spans = nimble_obs::snapshot();
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();

    // Exactly one serve root, named after the model, covering the request.
    let roots: Vec<_> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.cat == Category::Serve)
        .collect();
    assert_eq!(roots.len(), 1, "expected one serve root, got {roots:?}");
    let root = roots[0];
    assert_eq!(root.name, "bertish");
    assert_eq!(
        root.arg,
        Outcome::Completed as u64,
        "root must record the ok outcome"
    );

    // Queue-wait and execution are siblings directly under the root.
    let queue = spans
        .iter()
        .find(|s| s.name == "engine.queue")
        .expect("no engine.queue span");
    assert_eq!(queue.parent, root.id);
    assert_eq!(queue.trace, root.trace);
    let run = spans
        .iter()
        .find(|s| s.name == "engine.run")
        .expect("no engine.run span");
    assert_eq!(run.parent, root.id);
    assert_eq!(run.cat, Category::Engine);

    // The VM run nests under the engine execution span.
    let vm_run = spans
        .iter()
        .find(|s| s.name == "vm.run")
        .expect("no vm.run span");
    assert_eq!(vm_run.parent, run.id);
    assert_eq!(vm_run.cat, Category::Vm);

    // At least one compute-kernel span, connected through vm.run to the
    // serve root (possibly recorded on a different thread).
    let kernel = spans
        .iter()
        .find(|s| s.cat == Category::Kernel && s.trace == root.trace)
        .expect("no kernel span in the trace");
    let path = path_to_root(&by_id, kernel);
    assert_eq!(path.last().copied(), Some("bertish"));
    assert!(
        path.contains(&"vm.run"),
        "kernel not under vm.run: {path:?}"
    );

    // Every span in the buffers belongs to this one trace and parents
    // resolve (connectedness over the whole snapshot).
    for s in &spans {
        assert_eq!(s.trace, root.trace, "foreign trace in snapshot: {s:?}");
        if s.parent != 0 {
            assert!(by_id.contains_key(&s.parent), "dangling parent: {s:?}");
        }
    }

    // The Chrome export carries the same tree.
    let json = nimble_obs::export::chrome_trace();
    assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
    for name in ["bertish", "engine.queue", "engine.run", "vm.run"] {
        assert!(
            json.contains(&format!("\"name\":\"{name}\"")),
            "{name} missing"
        );
    }
    assert!(json.contains("\"cat\":\"kernel\""));
    assert!(json.contains("droppedSpans"));

    // The Prometheus exposition unifies serve, arena, pool and VM-profile
    // metrics from the same run through the router's collector.
    let prom = router.prometheus();
    for needle in [
        "nimble_serve_latency_seconds{model=\"bertish\",quantile=\"0.5\"}",
        "nimble_serve_latency_seconds_count{model=\"bertish\"} 1",
        "nimble_serve_queue_seconds_count{model=\"bertish\"} 1",
        "nimble_serve_requests_total{model=\"bertish\",outcome=\"completed\"} 1",
        "nimble_arena_hit_rate{model=\"bertish\"}",
        "nimble_pool_live_bytes{model=\"bertish\",device=\"cpu\"}",
        "nimble_pool_peak_live_bytes{model=\"bertish\",device=\"cpu\"}",
        "nimble_vm_time_seconds{model=\"bertish\",bucket=\"kernel\"}",
        "nimble_vm_time_seconds{model=\"bertish\",bucket=\"other\"}",
        "nimble_vm_instructions_total{model=\"bertish\"}",
        "nimble_engine_queue_seconds_total{model=\"bertish\"}",
        "nimble_engine_exec_seconds_total{model=\"bertish\"}",
        "nimble_obs_trace_mode 1",
    ] {
        assert!(
            prom.contains(needle),
            "missing from exposition: {needle}\n{prom}"
        );
    }

    // --- Shape specialization: spans and metric families ---------------
    // A dense model on its own registry with an aggressive threshold: the
    // hot shape tunes in the background, and the router's exposition
    // carries the nimble_specialize_* families with the specializer's
    // exact counters.
    let reg2 = Arc::new(ModelRegistry::new(RegistryConfig {
        specialize: Some(SpecializeConfig {
            hit_threshold: 2,
            max_trials: 4,
            repeats: 1,
            ..SpecializeConfig::default()
        }),
        ..RegistryConfig::default()
    }));
    reg2.register("densey", "v1", &dense_module(), &CompileOptions::default())
        .unwrap();
    let router2 = Router::new(Arc::clone(&reg2), RouterConfig::default());
    let x = || vec![Object::tensor(Tensor::ones_f32(&[3, 8]))];
    for _ in 0..3 {
        router2.submit("densey", x()).unwrap().wait().unwrap();
    }
    let entry = reg2.get("densey").unwrap();
    let spec = Arc::clone(entry.specializer().expect("specializer attached"));
    spec.quiesce();
    for _ in 0..2 {
        router2.submit("densey", x()).unwrap().wait().unwrap();
    }
    let s = spec.stats();
    assert!(s.tunes >= 1, "hot shape never tuned: {s:?}");
    assert_eq!(s.installs + s.rejected, s.tunes, "tune outcome leak: {s:?}");

    let spans = nimble_obs::snapshot();
    assert!(
        spans
            .iter()
            .any(|sp| sp.name == "specialize.observe" && sp.cat == Category::Specialize),
        "no specialize.observe span recorded"
    );
    assert!(
        spans
            .iter()
            .any(|sp| sp.name == "specialize.tune" && sp.cat == Category::Specialize),
        "no specialize.tune span recorded"
    );
    if s.installs > 0 {
        assert!(
            spans.iter().any(|sp| sp.name == "specialize.install"),
            "install happened but no specialize.install span"
        );
    }

    let prom = router2.prometheus();
    for needle in [
        format!(
            "nimble_specialize_hits_total{{model=\"densey\"}} {}",
            s.hits
        ),
        format!(
            "nimble_specialize_misses_total{{model=\"densey\"}} {}",
            s.misses
        ),
        format!(
            "nimble_specialize_installs_total{{model=\"densey\"}} {}",
            s.installs
        ),
        format!(
            "nimble_specialize_evictions_total{{model=\"densey\"}} {}",
            s.evictions
        ),
        format!(
            "nimble_specialize_cache_size{{model=\"densey\"}} {}",
            s.cache_len
        ),
        format!(
            "nimble_specialize_tune_seconds_count{{model=\"densey\"}} {}",
            s.tune_hist.count
        ),
    ] {
        assert!(
            prom.contains(&needle),
            "missing from exposition: {needle}\n{prom}"
        );
    }
    assert!(
        prom.contains("nimble_specialize_tune_seconds_bucket{model=\"densey\",le=\"+Inf\"}"),
        "histogram +Inf bucket missing\n{prom}"
    );
    drop(router2);
    reg2.shutdown();

    // Dropping the router retires its collector from future scrapes.
    drop(router);
    let prom = nimble_obs::export::prometheus();
    assert!(!prom.contains("nimble_serve_latency_seconds"));
}

#[test]
fn every_terminal_outcome_records_its_root_code() {
    let _l = obs_lock();
    nimble_obs::set_mode(TraceMode::All);
    nimble_obs::reset();
    // The codes are published in exported traces: pin the table.
    let table = [
        Outcome::Completed,
        Outcome::Failed,
        Outcome::Expired,
        Outcome::ReplicaDeath,
        Outcome::Shed,
    ];
    assert_eq!(table.map(|o| o as u64), [0, 1, 2, 3, 4]);

    // One single-worker replica with a one-slot queue per model, so a
    // paused replica holds exactly one request.
    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        engine: EngineConfig {
            workers: 1,
            queue_capacity: 1,
            max_batch: 1,
        },
        ..RegistryConfig::default()
    }));
    for model in ["expires", "dies", "sheds"] {
        registry
            .register(model, "v1", &add_k_module(1.0), &CompileOptions::default())
            .unwrap();
    }
    let router = Router::new(Arc::clone(&registry), RouterConfig::default());
    let x = || vec![Object::tensor(Tensor::ones_f32(&[2]))];
    let shards = |model: &str| Arc::clone(registry.get(model).unwrap().shards());

    // Expired while queued behind a paused replica.
    let set = shards("expires");
    set.pause_all();
    let deadline = Instant::now() + Duration::from_millis(20);
    let t = router
        .submit_with_deadline("expires", x(), Some(deadline))
        .unwrap();
    std::thread::sleep(Duration::from_millis(40));
    set.resume_all();
    assert_eq!(t.wait().unwrap_err(), Rejected::Expired);

    // Replica death: the only replica dies holding the request, and the
    // requeue finds no survivor.
    let set = shards("dies");
    set.pause_all();
    let t = router.submit("dies", x()).unwrap();
    assert!(set.kill(set.replica_ids()[0]));
    assert_eq!(t.wait().unwrap_err(), Rejected::Unloaded);

    // Shed: the paused replica's one slot is taken, so the next request
    // is refused at admission; the occupant then completes.
    let set = shards("sheds");
    set.pause_all();
    let occupant = router.submit("sheds", x()).unwrap();
    assert_eq!(
        router.submit("sheds", x()).unwrap_err(),
        Rejected::QueueFull
    );
    set.resume_all();
    occupant.wait().unwrap();

    let spans = nimble_obs::snapshot();
    let codes = |model: &str| -> Vec<u64> {
        let mut codes: Vec<u64> = spans
            .iter()
            .filter(|s| s.parent == 0 && s.cat == Category::Serve && s.name == model)
            .map(|s| s.arg)
            .collect();
        codes.sort_unstable();
        codes
    };
    assert_eq!(codes("expires"), [Outcome::Expired as u64]);
    assert_eq!(codes("dies"), [Outcome::ReplicaDeath as u64]);
    assert_eq!(
        codes("sheds"),
        [Outcome::Completed as u64, Outcome::Shed as u64]
    );
    router.shutdown();
    nimble_obs::set_mode(TraceMode::Off);
}
