//! Multi-model serving mix: an LSTM and a BERT served concurrently
//! through the [`nimble_serve`] registry + router, exercising the whole
//! serving story end to end:
//!
//! 1. **steady state** — a balanced client mix with generous deadlines;
//!    reports per-model throughput and p50/p90/p99 latency;
//! 2. **2x overload** — a burst at roughly twice the sustainable rate
//!    against a small admission queue; load is shed *explicitly*
//!    (`QueueFull` at admission, `Expired` in the queue), accepted
//!    requests keep a bounded p99, and nothing is silently dropped;
//! 3. **hot-swap** — the LSTM is re-registered under a new version
//!    mid-traffic; every in-flight request still resolves;
//! 4. **unload** — both models are unloaded and the process-wide
//!    prepack cache returns to its baseline size.
//!
//! The default (smoke) effort asserts the invariants and is wired into
//! CI; `--full` runs a larger mix for the numbers in EXPERIMENTS.md.
//!
//! `--batching` switches to the cross-request dynamic-batching A/B: the
//! same client mix is served by an unbatched stack and a batch-planned
//! stack (pad-to-bucket + one `main_b{bucket}` VM run per formed batch),
//! asserting the batched outputs are **bitwise identical** to the
//! unbatched ones, that real batches formed, that nothing is lost, and
//! that batched throughput at 2x overload beats unbatched (>= 1.8x under
//! `--full`). A `--full` run writes its results to `BENCH_batching.json`.

use nimble_bench::harness::Effort;
use nimble_bench::workload::mrpc_lengths;
use nimble_core::{CompileOptions, EngineConfig};
use nimble_device::DeviceSet;
use nimble_models::data::list_object;
use nimble_models::{BertConfig, BertModel, LstmConfig, LstmModel};
use nimble_serve::{ModelRegistry, ModelStats, RegistryConfig, Rejected, Router, RouterConfig};
use nimble_tensor::{prepack, Tensor};
use nimble_vm::{BatchConfig, BatchPlan, Object};
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;

/// Shape-bucket edges for the `--batching` mode. LSTM requests are
/// clamped to 24 tokens; BERT draws MRPC-like lengths in 5..=64 (well
/// under its `max_pos` of 128).
const LSTM_BUCKETS: [usize; 3] = [8, 16, 24];
const BERT_BUCKETS: [usize; 4] = [8, 16, 32, 64];

/// One model's request mix: name plus pre-built argument sets.
struct ClientMix {
    model: &'static str,
    requests: Vec<Vec<Object>>,
}

fn lstm_requests(effort: Effort, seed: u64) -> Vec<Vec<Object>> {
    let model = LstmModel::new(LstmConfig {
        input: 32,
        hidden: 32,
        layers: 1,
        seed: 42,
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    mrpc_lengths(effort.samples, 3)
        .iter()
        .map(|&len| vec![list_object(&model.random_tokens(&mut rng, len.min(24)))])
        .collect()
}

fn lstm_module(seed: u64) -> nimble_ir::Module {
    LstmModel::new(LstmConfig {
        input: 32,
        hidden: 32,
        layers: 1,
        seed,
    })
    .module()
}

fn bert_requests(effort: Effort, seed: u64) -> (nimble_ir::Module, Vec<Vec<Object>>) {
    let model = BertModel::new(BertConfig {
        layers: 2,
        hidden: 64,
        heads: 4,
        ffn: 256,
        vocab: 500,
        max_pos: 128,
        seed: 42,
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let requests = mrpc_lengths(effort.samples, 5)
        .iter()
        .map(|&len| {
            let (tok, pos) = model.inputs(&model.random_tokens(&mut rng, len));
            vec![Object::tensor(tok), Object::tensor(pos)]
        })
        .collect();
    (model.module(), requests)
}

fn fmt_model_line(name: &str, m: &ModelStats, wall: Duration) -> String {
    format!(
        "  {:>5}: {:>4} ok ({:>6.1} req/s) | p50 {:>7.2?} p90 {:>7.2?} p99 {:>7.2?} | \
         expired {} shed(full {} dead {})",
        name,
        m.completed,
        m.completed as f64 / wall.as_secs_f64(),
        Duration::from_nanos(m.latency.p50()),
        Duration::from_nanos(m.latency.p90()),
        Duration::from_nanos(m.latency.p99()),
        m.expired,
        m.rejected_queue_full,
        m.rejected_expired,
    )
}

/// Drive `rounds * requests` per model from one thread per model,
/// submitting at most `window` requests before waiting for them; wait
/// for every ticket and return the wall time. A window no larger than
/// the admission queue paces the client (steady state); a window the
/// size of the whole mix bursts it (overload).
fn drive(
    router: &Arc<Router>,
    mixes: &[ClientMix],
    rounds: usize,
    deadline: Duration,
    window: usize,
) -> Duration {
    let start = Instant::now();
    let handles: Vec<_> = mixes
        .iter()
        .map(|mix| {
            let router = Arc::clone(router);
            let model = mix.model;
            let requests = mix.requests.clone();
            std::thread::spawn(move || {
                for _ in 0..rounds {
                    for chunk in requests.chunks(window.max(1)) {
                        let tickets: Vec<_> = chunk
                            .iter()
                            .map(|args| {
                                router.submit_with_deadline(
                                    model,
                                    args.clone(),
                                    Some(Instant::now() + deadline),
                                )
                            })
                            .collect();
                        for t in tickets.into_iter().flatten() {
                            // Expired is a legal terminal outcome;
                            // anything else lost would trip the
                            // telemetry asserts.
                            let _ = t.wait();
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    start.elapsed()
}

fn assert_healthy(stats: &nimble_serve::ServeStats, phase: &str) {
    for (name, m) in &stats.models {
        assert_eq!(m.lost, 0, "{phase}/{name}: request lost");
        assert_eq!(m.failed, 0, "{phase}/{name}: VM error");
        assert_eq!(
            m.terminal(),
            m.accepted,
            "{phase}/{name}: accepted request without terminal outcome"
        );
        assert_eq!(
            m.latency.count(),
            m.completed + m.failed,
            "{phase}/{name}: histogram count mismatch"
        );
    }
}

fn lstm_model() -> LstmModel {
    LstmModel::new(LstmConfig {
        input: 32,
        hidden: 32,
        layers: 1,
        seed: 42,
    })
}

fn bert_model() -> BertModel {
    BertModel::new(BertConfig {
        layers: 2,
        hidden: 64,
        heads: 4,
        ffn: 256,
        vocab: 500,
        max_pos: 128,
        seed: 42,
    })
}

fn batch_config(buckets: &[usize]) -> BatchConfig {
    BatchConfig {
        buckets: buckets.to_vec(),
        min_batch: 2,
        max_batch: 4,
        max_wait: Duration::from_micros(200),
    }
}

/// Build a full serving stack; `batched` registers the bucket-entry
/// modules with their [`BatchPlan`]s, otherwise the plain single-request
/// modules. Engine/device shape is identical either way, so the A/B
/// isolates the batcher.
fn build_stack(batched: bool) -> (Arc<ModelRegistry>, Arc<Router>) {
    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        engine: EngineConfig {
            workers: WORKERS,
            queue_capacity: 8,
            max_batch: 4,
        },
        devices: Arc::new(DeviceSet::with_gpu_lanes(
            WORKERS,
            Duration::from_micros(20),
        )),
        ..RegistryConfig::default()
    }));
    let opts = CompileOptions::gpu();
    let lstm = lstm_model();
    let bert = bert_model();
    if batched {
        let lstm_plan: Arc<BatchPlan> = Arc::new(lstm.batch_plan(batch_config(&LSTM_BUCKETS)));
        let bert_plan: Arc<BatchPlan> = Arc::new(bert.batch_plan(batch_config(&BERT_BUCKETS)));
        registry
            .register_with_batch(
                "lstm",
                "v1",
                &lstm.module_batched(&LSTM_BUCKETS),
                &opts,
                Some(lstm_plan),
            )
            .expect("register batched lstm");
        registry
            .register_with_batch(
                "bert",
                "v1",
                &bert.module_batched(&BERT_BUCKETS),
                &opts,
                Some(bert_plan),
            )
            .expect("register batched bert");
    } else {
        registry
            .register("lstm", "v1", &lstm.module(), &opts)
            .expect("register lstm");
        registry
            .register("bert", "v1", &bert.module(), &opts)
            .expect("register bert");
    }
    let router = Arc::new(Router::new(Arc::clone(&registry), RouterConfig::default()));
    (registry, router)
}

/// Serve every request in `mixes` and return the output tensors in
/// submission order, windowed to the admission queue so nothing sheds.
fn collect_outputs(router: &Arc<Router>, mixes: &[ClientMix]) -> Vec<Vec<Tensor>> {
    mixes
        .iter()
        .map(|mix| {
            let mut outs = Vec::new();
            for chunk in mix.requests.chunks(8) {
                let tickets: Vec<_> = chunk
                    .iter()
                    .map(|args| router.submit(mix.model, args.clone()).expect("admit"))
                    .collect();
                for t in tickets {
                    outs.push(
                        t.wait()
                            .expect("terminal outcome")
                            .result
                            .expect("vm run")
                            .wait_tensor()
                            .expect("tensor output"),
                    );
                }
            }
            outs
        })
        .collect()
}

/// Repeat each mix up to `burst` requests for the overload phase.
fn overload_mixes(mixes: &[ClientMix], burst: usize) -> Vec<ClientMix> {
    mixes
        .iter()
        .map(|m| {
            let mut requests = Vec::new();
            while requests.len() < burst {
                requests.extend(m.requests.iter().cloned());
            }
            requests.truncate(burst);
            ClientMix {
                model: m.model,
                requests,
            }
        })
        .collect()
}

/// The `--batching` A/B: bitwise identity, then 2x-overload throughput,
/// unbatched stack vs batch-planned stack; `--full` writes
/// BENCH_batching.json.
fn batching_mode(effort: Effort) {
    let full = effort == Effort::full();
    println!("serve_mix --batching: dynamic batching A/B ({effort:?})");

    let (_, bert_reqs) = bert_requests(effort, 9);
    let mixes = [
        ClientMix {
            model: "lstm",
            requests: lstm_requests(effort, 7),
        },
        ClientMix {
            model: "bert",
            requests: bert_reqs,
        },
    ];
    let burst = 2 * (8 + WORKERS);
    let over = overload_mixes(&mixes, burst);
    let rounds = if full { 6 } else { 3 };
    // Generous deadline: overload sheds at admission (QueueFull), never
    // by expiry, so completed counts measure capacity cleanly.
    let deadline = Duration::from_secs(30);
    let p99_budget = Duration::from_secs(5);

    // ---- A: unbatched reference ----
    let (_registry_u, router_u) = build_stack(false);
    let want = collect_outputs(&router_u, &mixes);
    let before = router_u.stats();
    let wall_u = drive(&router_u, &over, rounds, deadline, burst);
    let stats_u = router_u.stats();
    assert_healthy(&stats_u, "unbatched-overload");
    let done_u: u64 = stats_u.models.values().map(|m| m.completed).sum::<u64>()
        - before.models.values().map(|m| m.completed).sum::<u64>();
    let rate_u = done_u as f64 / wall_u.as_secs_f64();
    let p99_u = stats_u
        .models
        .values()
        .map(|m| Duration::from_nanos(m.latency.p99()))
        .max()
        .unwrap();
    println!("\nunbatched 2x overload ({rounds} rounds, wall {wall_u:.2?}):");
    for (name, m) in &stats_u.models {
        println!("{}", fmt_model_line(name, m, wall_u));
        assert_eq!(
            m.expired, 0,
            "unbatched/{name}: expired under generous deadline"
        );
    }
    router_u.shutdown();

    // ---- B: batched stack ----
    let (registry_b, router_b) = build_stack(true);
    let got = collect_outputs(&router_b, &mixes);
    let mut compared = 0usize;
    for (mix, (ws, gs)) in mixes.iter().zip(want.iter().zip(&got)) {
        assert_eq!(ws.len(), gs.len());
        for (i, (w, g)) in ws.iter().zip(gs).enumerate() {
            assert_eq!(
                w.dims(),
                g.dims(),
                "{}/{i}: batched output shape differs",
                mix.model
            );
            for (a, b) in w.as_f32().unwrap().iter().zip(g.as_f32().unwrap()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}/{i}: batched output not bitwise identical ({a} vs {b})",
                    mix.model
                );
            }
            compared += 1;
        }
    }
    println!("\nidentity: {compared} outputs bitwise-identical across stacks");

    let before = router_b.stats();
    let wall_b = drive(&router_b, &over, rounds, deadline, burst);
    let stats_b = router_b.stats();
    assert_healthy(&stats_b, "batched-overload");
    let done_b: u64 = stats_b.models.values().map(|m| m.completed).sum::<u64>()
        - before.models.values().map(|m| m.completed).sum::<u64>();
    let rate_b = done_b as f64 / wall_b.as_secs_f64();
    let p99_b = stats_b
        .models
        .values()
        .map(|m| Duration::from_nanos(m.latency.p99()))
        .max()
        .unwrap();

    let mut batches_formed = 0u64;
    let mut batched_requests = 0u64;
    let mut padded = 0u64;
    let mut used = 0u64;
    println!("\nbatched 2x overload ({rounds} rounds, wall {wall_b:.2?}):");
    for (name, m) in &stats_b.models {
        println!("{}", fmt_model_line(name, m, wall_b));
        assert_eq!(
            m.expired, 0,
            "batched/{name}: expired under generous deadline"
        );
        let e = registry_b.get(name).unwrap().shards().engine_stats();
        batches_formed += e.batches_formed;
        batched_requests += e.batched_requests;
        padded += e.padded_units;
        used += e.used_units;
        assert!(
            e.batches_formed > 0,
            "{name}: overload never formed a batch"
        );
        assert_eq!(
            m.batched, e.batched_requests,
            "{name}: telemetry and engine disagree on batched count"
        );
    }
    router_b.shutdown();

    let mean_batch = batched_requests as f64 / batches_formed.max(1) as f64;
    let pad_waste = padded as f64 / (padded + used).max(1) as f64;
    let speedup = rate_b / rate_u;
    println!(
        "\nbatching: {batches_formed} batches (mean size {mean_batch:.2}, pad waste {:.1}%), \
         {rate_u:.1} -> {rate_b:.1} req/s ({speedup:.2}x), p99 {p99_u:.2?} -> {p99_b:.2?}",
        pad_waste * 100.0
    );

    assert!(
        p99_u <= p99_budget,
        "unbatched p99 {p99_u:?} blew the budget"
    );
    assert!(p99_b <= p99_budget, "batched p99 {p99_b:?} blew the budget");
    assert!(
        rate_b >= rate_u,
        "batched throughput regressed: {rate_b:.1} < {rate_u:.1} req/s"
    );
    if full {
        assert!(
            speedup >= 1.8,
            "batched speedup {speedup:.2}x below the 1.8x bar at 2x overload"
        );
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serve_mix_batching\",\n",
            "  \"effort\": \"{}\",\n",
            "  \"models\": [\"lstm\", \"bert\"],\n",
            "  \"burst\": {},\n",
            "  \"rounds\": {},\n",
            "  \"unbatched\": {{ \"req_s\": {:.1}, \"p99_ms\": {:.3} }},\n",
            "  \"batched\": {{ \"req_s\": {:.1}, \"p99_ms\": {:.3}, \"batches_formed\": {}, ",
            "\"batched_requests\": {}, \"mean_batch_size\": {:.2}, \"pad_waste_ratio\": {:.3} }},\n",
            "  \"speedup\": {:.2},\n",
            "  \"outputs\": \"bitwise-identical\",\n",
            "  \"lost\": 0\n",
            "}}\n"
        ),
        if full { "full" } else { "smoke" },
        burst,
        rounds,
        rate_u,
        p99_u.as_secs_f64() * 1e3,
        rate_b,
        p99_b.as_secs_f64() * 1e3,
        batches_formed,
        batched_requests,
        mean_batch,
        pad_waste,
        speedup,
    );
    // Only a full run updates the committed trajectory.
    if full {
        std::fs::write("BENCH_batching.json", json).expect("write BENCH_batching.json");
        println!("wrote BENCH_batching.json");
    }
    println!("serve_mix --batching: OK");
}

fn main() {
    let effort = Effort::from_args();
    if std::env::args().any(|a| a == "--batching") {
        return batching_mode(effort);
    }
    let full = effort == Effort::full();
    println!("serve_mix: two models behind one router ({effort:?})");

    let prepack_baseline = prepack::cache_len();
    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        engine: EngineConfig {
            workers: WORKERS,
            queue_capacity: 8,
            max_batch: 4,
        },
        devices: Arc::new(DeviceSet::with_gpu_lanes(
            WORKERS,
            Duration::from_micros(20),
        )),
        ..RegistryConfig::default()
    }));
    let opts = CompileOptions::gpu();

    let (bert_mod, bert_reqs) = bert_requests(effort, 9);
    registry
        .register("lstm", "v1", &lstm_module(42), &opts)
        .expect("register lstm");
    registry
        .register("bert", "v1", &bert_mod, &opts)
        .expect("register bert");
    let lstm_packs = registry
        .get("lstm")
        .unwrap()
        .vm()
        .executable()
        .weight_buffer_ids()
        .len();
    println!(
        "  registered lstm@v1 + bert@v1 ({} prepacked weight buffers)",
        prepack::cache_len() - prepack_baseline
    );

    let router = Arc::new(Router::new(Arc::clone(&registry), RouterConfig::default()));
    let mixes = [
        ClientMix {
            model: "lstm",
            requests: lstm_requests(effort, 7),
        },
        ClientMix {
            model: "bert",
            requests: bert_reqs,
        },
    ];

    // Phase 1: steady state, generous deadlines — nothing shed.
    let rounds = effort.iters.max(2);
    let wall = drive(&router, &mixes, rounds, Duration::from_secs(30), 4);
    let steady = router.stats();
    assert_healthy(&steady, "steady");
    println!("\nsteady state ({rounds} rounds, wall {wall:.2?}):");
    for (name, m) in &steady.models {
        println!("{}", fmt_model_line(name, m, wall));
        assert_eq!(m.rejected(), 0, "steady/{name}: shed under light load");
        assert_eq!(m.expired, 0, "steady/{name}: expired under light load");
    }

    // Per-request service estimate drives the overload deadline: tight
    // enough that a 2x-deep backlog cannot fully drain in time.
    let total_steady: u64 = steady.models.values().map(|m| m.completed).sum();
    let service = wall / total_steady.max(1) as u32;

    // Phase 2: ~2x overload. Each client bursts twice the queue+worker
    // capacity at once with deadlines sized for about half the backlog,
    // so admission control and queue expiry both have to fire.
    let burst = 2 * (8 + WORKERS);
    let overload_mixes: Vec<ClientMix> = mixes
        .iter()
        .map(|m| {
            let mut requests = Vec::new();
            while requests.len() < burst {
                requests.extend(m.requests.iter().cloned());
            }
            requests.truncate(burst);
            ClientMix {
                model: m.model,
                requests,
            }
        })
        .collect();
    let burst_deadline = service * (burst / 2) as u32;
    let before = router.stats();
    let overload_rounds = if full { 6 } else { 3 };
    let wall2 = drive(
        &router,
        &overload_mixes,
        overload_rounds,
        burst_deadline,
        burst,
    );
    let after = router.stats();
    assert_healthy(&after, "overload");
    println!("\n2x overload burst (deadline {burst_deadline:.2?}, wall {wall2:.2?}):");
    let mut shed_total = 0;
    for (name, m) in &after.models {
        let b = &before.models[name];
        let shed = (m.rejected_queue_full - b.rejected_queue_full)
            + (m.rejected_expired - b.rejected_expired)
            + (m.expired - b.expired);
        shed_total += shed;
        println!("{}", fmt_model_line(name, m, wall2));
    }
    assert!(
        shed_total > 0,
        "overload must shed explicitly (QueueFull/Expired), got none"
    );
    println!("  shed {shed_total} requests explicitly, 0 lost");

    // Phase 3: hot-swap the LSTM mid-traffic; every in-flight request
    // must still resolve and the old version's packs must retire.
    let packs_before_swap = prepack::cache_len();
    let traffic = {
        let router = Arc::clone(&router);
        let requests = mixes[0].requests.clone();
        std::thread::spawn(move || {
            for _ in 0..4 {
                let tickets: Vec<_> = requests
                    .iter()
                    .map(|args| router.submit("lstm", args.clone()))
                    .collect();
                for t in tickets.into_iter().flatten() {
                    let _ = t.wait();
                }
            }
        })
    };
    std::thread::sleep(Duration::from_millis(2));
    registry
        .register("lstm", "v2", &lstm_module(43), &opts)
        .expect("hot-swap lstm");
    traffic.join().expect("swap traffic thread");
    let swapped = router.stats();
    assert_healthy(&swapped, "hot-swap");
    assert_eq!(registry.get("lstm").unwrap().version(), "v2");
    assert_eq!(
        prepack::cache_len(),
        packs_before_swap,
        "hot-swap must retire v1 packs as it installs v2"
    );
    println!("\nhot-swap lstm v1 -> v2 under traffic: 0 lost, packs steady");

    // Phase 4: unload both models; the prepack cache returns to its
    // pre-registration size.
    router.shutdown();
    assert!(matches!(
        router.submit("lstm", mixes[0].requests[0].clone()),
        Err(Rejected::ShuttingDown)
    ));
    assert_eq!(
        prepack::cache_len(),
        prepack_baseline,
        "unload must free all prepacked weights (had {lstm_packs} for lstm alone)"
    );
    println!("unload: prepack cache back to baseline ({prepack_baseline} entries)");

    println!("\nfinal counters:\n{}", router.stats());
    println!("serve_mix: OK");
}
