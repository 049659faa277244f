//! `serve_closed`: the full stack under two closed-loop clients. An LSTM
//! and a BERT registered with batch plans on simulated GPU lanes; each
//! client keeps 8 requests in flight, so batches form.

use crate::gen::{self, Rng};
use crate::layers;
use crate::measure::{self, INPUTS};
use crate::report::Record;
use crate::serve::{self, Done};
use crate::spans::SpanLog;
use crate::stats;
use nimble_core::{CompileOptions, EngineConfig};
use nimble_device::DeviceSet;
use nimble_models::data::list_object;
use nimble_models::{BertConfig, BertModel, LstmConfig, LstmModel};
use nimble_serve::{ModelRegistry, RegistryConfig, Router, RouterConfig, ShardConfig};
use nimble_tensor::Tensor;
use nimble_vm::{BatchConfig, BatchPlan, Object};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LSTM: LstmConfig = LstmConfig {
    input: 32,
    hidden: 32,
    layers: 1,
    seed: 42,
};
const BERT: BertConfig = BertConfig {
    layers: 2,
    hidden: 64,
    heads: 4,
    ffn: 256,
    vocab: 500,
    max_pos: 128,
    seed: 42,
};
const LSTM_BUCKETS: [usize; 3] = [8, 16, 24];
const BERT_BUCKETS: [usize; 4] = [8, 16, 32, 64];
const MODELS: [&str; 2] = ["lstm", "bert"];
const REPLICAS: usize = 2;
/// Requests each client keeps in flight.
const IN_FLIGHT: usize = 8;
/// Generous: nothing should expire in a closed loop, and a request that
/// does counts as failed.
const DEADLINE: Duration = Duration::from_secs(1);

fn batch_config(buckets: &[usize]) -> BatchConfig {
    BatchConfig {
        buckets: buckets.to_vec(),
        min_batch: 2,
        max_batch: 4,
        max_wait: Duration::from_micros(200),
    }
}

struct Stack {
    registry: Arc<ModelRegistry>,
    router: Arc<Router>,
    lstm: LstmModel,
    bert: BertModel,
    modules: [nimble_ir::Module; 2],
}

impl Stack {
    /// Model build + register (compile, load, spawn replicas) for both
    /// models. `batched` registers the bucket entry points with their
    /// plans; the unbatched stack is the bitwise reference.
    fn set_up(batched: bool, cache_dir: Option<PathBuf>) -> Stack {
        let registry = Arc::new(ModelRegistry::new(RegistryConfig {
            cache_dir,
            engine: EngineConfig {
                workers: 1,
                queue_capacity: 8,
                max_batch: 4,
            },
            shards: ShardConfig {
                replicas: REPLICAS,
                ..ShardConfig::default()
            },
            devices: Arc::new(DeviceSet::with_gpu_lanes(REPLICAS, Duration::ZERO)),
            ..RegistryConfig::default()
        }));
        let lstm = LstmModel::new(LSTM);
        let bert = BertModel::new(BERT);
        let opts = CompileOptions::gpu();
        let modules = if batched {
            [
                lstm.module_batched(&LSTM_BUCKETS),
                bert.module_batched(&BERT_BUCKETS),
            ]
        } else {
            [lstm.module(), bert.module()]
        };
        let plans: [Option<Arc<BatchPlan>>; 2] = if batched {
            [
                Some(Arc::new(lstm.batch_plan(batch_config(&LSTM_BUCKETS)))),
                Some(Arc::new(bert.batch_plan(batch_config(&BERT_BUCKETS)))),
            ]
        } else {
            [None, None]
        };
        for ((name, module), plan) in MODELS.iter().zip(&modules).zip(plans) {
            registry
                .register_with_batch(name, "v1", module, &opts, plan)
                .expect("register");
        }
        let router = Arc::new(Router::new(Arc::clone(&registry), RouterConfig::default()));
        Stack {
            registry,
            router,
            lstm,
            bert,
            modules,
        }
    }

    /// The first answer of each model: the end of what `setup_s` times. The
    /// rest of the warm-up is one request after another through every hop
    /// of the stack, which would make set-up time a latency measurement
    /// ten times the size of the registration it is meant to show.
    fn first_answers(&self, inputs: &[Vec<Input>; 2]) {
        for (name, inputs) in MODELS.iter().zip(inputs) {
            // The shortest input: the same size under every seed.
            let first = inputs
                .iter()
                .min_by_key(|i| i.tokens)
                .expect("a model has inputs");
            self.router
                .run(name, first.args.clone())
                .expect("first request");
        }
    }

    /// One pass over every input, so arenas, frame pools and lanes are warm.
    fn warm_up(&self, inputs: &[Vec<Input>; 2]) {
        for (name, inputs) in MODELS.iter().zip(inputs) {
            for input in inputs {
                self.router
                    .run(name, input.args.clone())
                    .expect("warm-up run");
            }
        }
    }
}

struct Input {
    args: Vec<Object>,
    tokens: u64,
    /// Token tensors (LSTM) or ids (BERT), for the reference.
    host: Host,
}

enum Host {
    Tokens(Vec<Tensor>),
    Ids(Vec<i64>),
}

fn make_inputs(seed: u64) -> [Vec<Input>; 2] {
    let mut rng = Rng::new(seed, 10);
    // LSTM requests are clamped to the last bucket edge, as in `serve_mix`.
    let lstm = gen::mrpc_lengths(INPUTS, &mut rng)
        .into_iter()
        .map(|n| {
            let n = n.min(*LSTM_BUCKETS.last().expect("buckets"));
            let tokens: Vec<Tensor> = (0..n).map(|_| rng.tensor(&[1, LSTM.input])).collect();
            Input {
                args: vec![list_object(&tokens)],
                tokens: n as u64,
                host: Host::Tokens(tokens),
            }
        })
        .collect();
    let bert = gen::mrpc_lengths(INPUTS, &mut rng)
        .into_iter()
        .map(|n| {
            let ids: Vec<i64> = (0..n).map(|_| rng.below(BERT.vocab) as i64).collect();
            let tok = Tensor::from_vec_i64(ids.clone(), &[n]).expect("tokens");
            let pos = Tensor::from_vec_i64((0..n as i64).collect(), &[n]).expect("positions");
            Input {
                args: vec![Object::tensor(tok), Object::tensor(pos)],
                tokens: n as u64,
                host: Host::Ids(ids),
            }
        })
        .collect();
    [lstm, bert]
}

/// Reference outputs and first-seen checksums per model and input, and
/// what failed.
struct Checks {
    want: [Vec<Tensor>; 2],
    seen: [Vec<Option<u64>>; 2],
    attempted: u64,
    failed: u64,
    /// Timed answers within tolerance of the reference whose bits differ
    /// from the first answer to the same input.
    bitwise_mismatches: u64,
}

/// Same tolerances as the `systems.rs` tests of `nimble-bench`.
const TOLERANCE: [f32; 2] = [1e-4, 1e-3];

impl Checks {
    /// Before timing: every distinct input against the models' reference
    /// and, bitwise, against the same request through an unbatched stack.
    fn before_timing(stack: &Stack, inputs: &[Vec<Input>; 2]) -> Checks {
        let mut checks = Checks {
            want: [Vec::new(), Vec::new()],
            seen: [vec![None; INPUTS], vec![None; INPUTS]],
            attempted: 0,
            failed: 0,
            bitwise_mismatches: 0,
        };
        let unbatched = Stack::set_up(false, None);
        for (m, name) in MODELS.iter().enumerate() {
            for (i, input) in inputs[m].iter().enumerate() {
                checks.attempted += 1;
                let want = match &input.host {
                    Host::Tokens(t) => stack.lstm.reference(t),
                    Host::Ids(ids) => stack.bert.reference(ids),
                };
                let through = |s: &Stack| {
                    let c = s.router.run(name, input.args.clone()).ok()?;
                    measure::output_tensor(&c.result)
                };
                match (through(stack), through(&unbatched)) {
                    (Some(got), Some(plain))
                        if measure::close(&got, &want, TOLERANCE[m])
                            && measure::bitwise_equal(&got, &plain) =>
                    {
                        checks.seen[m][i] = Some(measure::checksum(&got));
                    }
                    _ => {
                        eprintln!("e2e: {name} input {i} disagrees with its references");
                        checks.failed += 1;
                    }
                }
                checks.want[m].push(want);
            }
        }
        unbatched.router.shutdown();
        checks
    }
}

/// What one client checks its answers against.
struct Expect<'a> {
    want: &'a [Tensor],
    seen: &'a mut [Option<u64>],
    tolerance: f32,
}

/// One closed-loop client of `model`: keeps [`IN_FLIGHT`] requests
/// submitted, answers drained in submission order. An answer is right when
/// it is within tolerance of the reference; one whose bits differ from the
/// first answer to the same input is counted beside.
fn client(
    router: &Router,
    model: &str,
    inputs: &[Input],
    expect: Expect,
    origin: Instant,
    window: Duration,
) -> (Vec<Done>, u64) {
    let mut pending = VecDeque::with_capacity(IN_FLIGHT);
    let mut done = Vec::new();
    let mut bitwise_mismatches = 0;
    let mut next = 0usize;
    loop {
        let open = origin.elapsed() < window;
        while open && pending.len() < IN_FLIGHT {
            let i = next % inputs.len();
            next += 1;
            let start = Instant::now();
            let admitted =
                router.submit_with_deadline(model, inputs[i].args.clone(), Some(start + DEADLINE));
            pending.push_back((i, start, Instant::now(), admitted));
        }
        let Some((i, start, end, admitted)) = pending.pop_front() else {
            return (done, bitwise_mismatches);
        };
        let at_ns = (start - origin).as_nanos() as u64;
        done.push(serve::resolve(
            admitted,
            origin,
            at_ns,
            start,
            end,
            inputs[i].tokens,
            |t| {
                let right = measure::close(t, &expect.want[i], expect.tolerance);
                if right && !measure::same_as_first(&mut expect.seen[i], t) {
                    bitwise_mismatches += 1;
                }
                right
            },
        ));
    }
}

/// Both clients for `window`; every request of both, by submit time.
fn drive(
    stack: &Stack,
    inputs: &[Vec<Input>; 2],
    checks: &mut Checks,
    window: Duration,
) -> Vec<Done> {
    let origin = Instant::now();
    let router = &stack.router;
    let [seen_lstm, seen_bert] = &mut checks.seen;
    let expect = |m: usize, seen| Expect {
        want: &checks.want[m],
        seen,
        tolerance: TOLERANCE[m],
    };
    let (lstm, bert) = (expect(0, seen_lstm), expect(1, seen_bert));
    let (mut done, mismatches) = std::thread::scope(|scope| {
        let lstm = scope.spawn(|| client(router, MODELS[0], &inputs[0], lstm, origin, window));
        let bert = scope.spawn(|| client(router, MODELS[1], &inputs[1], bert, origin, window));
        let (mut all, a) = lstm.join().expect("lstm client");
        let (mut more, b) = bert.join().expect("bert client");
        more.iter_mut().for_each(|d| d.sample.class = 1);
        all.extend(more);
        (all, a + b)
    });
    done.sort_by_key(|d| d.start_ns);
    checks.attempted += done.len() as u64;
    checks.failed += done.iter().filter(|d| !d.sample.ok).count() as u64;
    checks.bitwise_mismatches += mismatches;
    done
}

fn samples(done: &[Done]) -> Vec<stats::Sample> {
    done.iter().map(|d| d.sample).collect()
}

const WARM_UP: Duration = Duration::from_secs(1);

pub fn run(rec: &mut Record) {
    let inputs = make_inputs(rec.seed);
    let (stack, setup_s) = measure::set_up_repeatedly(
        || {
            let stack = Stack::set_up(true, None);
            stack.first_answers(&inputs);
            stack
        },
        |old| old.router.shutdown(),
    );
    stack.warm_up(&inputs);
    let mut checks = Checks::before_timing(&stack, &inputs);
    drive(&stack, &inputs, &mut checks, WARM_UP);
    let window = Duration::from_secs(rec.seconds);
    let done = samples(&drive(&stack, &inputs, &mut checks, window));
    measure::fill_end_to_end(rec, setup_s, &done, window, DEADLINE);
    rec.attempted = checks.attempted;
    rec.failed = checks.failed;
    stack.router.shutdown();
}

pub fn run_traced(rec: &mut Record, trace_path: &Path) {
    let inputs = make_inputs(rec.seed);
    let stack = Stack::set_up(true, None);
    stack.warm_up(&inputs);
    let mut checks = Checks::before_timing(&stack, &inputs);
    let phase = Duration::from_millis(rec.seconds * 1000 / 5);
    drive(&stack, &inputs, &mut checks, phase / 2);
    let snapshot = || serve::counters(&stack.registry, &stack.router, &MODELS);

    // Phase A: tracing off — layer times, budget, counters.
    let before = snapshot();
    let off = drive(&stack, &inputs, &mut checks, phase * 2);
    let after = snapshot();
    serve::record_counters(rec, &before, &after);
    let mut log = SpanLog::default();
    serve::record_parts(rec, &off, &mut log);
    if let Err(e) = log.write_json(trace_path) {
        eprintln!("e2e: cannot write {}: {e}", trace_path.display());
    }
    let off = samples(&off);
    rec.set(
        "serve.router.latency_p99_ms",
        measure::percentile_ms(&off, 0.99),
    );
    rec.set(
        "serve.router.latency_samples",
        off.iter().filter(|s| s.ok).count() as f64,
    );

    // Phase B: the program's flight recorder on.
    measure::flight_recorder_phase(rec, &off, || {
        samples(&drive(&stack, &inputs, &mut checks, phase))
    });

    // Phase C: the VM profiler on.
    let set_profiling = |on: bool| {
        for name in MODELS {
            let entry = stack.registry.get(name).expect("registered");
            entry.vm().set_profiling(on);
        }
    };
    set_profiling(true);
    let before = snapshot();
    let profiled = samples(&drive(&stack, &inputs, &mut checks, phase));
    serve::record_profile_shares(rec, &before, &snapshot());
    set_profiling(false);
    rec.set(
        "vm.profile_overhead_share",
        measure::p50_ms(&profiled) / measure::p50_ms(&off) - 1.0,
    );

    batch_plan_probe(rec, &stack, &inputs[1]);
    layers::probe_prepack(rec);
    let devices = Arc::clone(
        stack
            .registry
            .get(MODELS[0])
            .expect("registered")
            .vm()
            .devices(),
    );
    for module in &stack.modules {
        layers::probe_compile(rec, module, &CompileOptions::gpu(), &devices);
    }
    serve::probe_registry(rec, trace_path, |dir| Stack::set_up(true, Some(dir)).router);
    layers::probe_kernels(rec);
    rec.attempted = checks.attempted;
    rec.failed = checks.failed;
    rec.set(
        "e2e.failed_share",
        checks.failed as f64 / checks.attempted.max(1) as f64,
    );
    rec.set(
        "vm.batch.bitwise_mismatch_share",
        checks.bitwise_mismatches as f64 / checks.attempted.max(1) as f64,
    );
    stack.router.shutdown();
}

/// `BatchPlan.gather` and `.scatter` called directly on a fixed batch of
/// four BERT requests of the 32-token bucket.
fn batch_plan_probe(rec: &mut Record, stack: &Stack, bert_inputs: &[Input]) {
    const BUCKET: usize = 32;
    let members: Vec<&Input> = bert_inputs
        .iter()
        .filter(|i| (17..=BUCKET as u64).contains(&i.tokens))
        .take(4)
        .collect();
    if members.len() < 4 {
        return;
    }
    let plan = stack.bert.batch_plan(batch_config(&BERT_BUCKETS));
    let args: Vec<Vec<Object>> = members.iter().map(|i| i.args.clone()).collect();
    let keys: Vec<usize> = members.iter().map(|i| i.tokens as usize).collect();
    let budget = Duration::from_millis(100);
    let gather_s = measure::per_call_secs(budget, || {
        std::hint::black_box((plan.gather)(&args, &keys, BUCKET).expect("gather"));
    });
    rec.set("vm.batch.gather_us", gather_s * 1e6);
    let vm = Arc::clone(stack.registry.get("bert").expect("registered").vm());
    let gathered = (plan.gather)(&args, &keys, BUCKET).expect("gather");
    let batched = vm.run(&plan.entry(BUCKET), gathered).expect("batched run");
    let scatter_s = measure::per_call_secs(budget, || {
        std::hint::black_box((plan.scatter)(&batched, &keys, BUCKET).expect("scatter"));
    });
    rec.set("vm.batch.scatter_us", scatter_s * 1e6);
}
