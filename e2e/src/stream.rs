//! The three `*_stream` workloads: one closed-loop client calling
//! `VirtualMachine::run_in` on one `Session`, CPU only, no serve stack.

use crate::gen::{self, Rng};
use crate::layers;
use crate::measure::{self, INPUTS};
use crate::report::Record;
use crate::spans::{RequestParts, SpanLog};
use crate::stats::Sample;
use nimble_core::{compile, CompileOptions};
use nimble_device::DeviceSet;
use nimble_frameworks::graphflow::{BertSession, Flavor, LstmSession};
use nimble_frameworks::{eager, fold};
use nimble_models::data::{list_object, TreeNode};
use nimble_models::{BertConfig, BertModel, LstmConfig, LstmModel, TreeLstmConfig, TreeLstmModel};
use nimble_tensor::{prepack, Tensor};
use nimble_vm::{Object, Session, VirtualMachine};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Lstm,
    Tree,
    Bert,
}

const LSTM: LstmConfig = LstmConfig {
    input: 32,
    hidden: 32,
    layers: 2,
    seed: 42,
};
const TREE: TreeLstmConfig = TreeLstmConfig {
    input: 64,
    hidden: 64,
    classes: 5,
    seed: 42,
};
const BERT: BertConfig = BertConfig {
    layers: 4,
    hidden: 256,
    heads: 4,
    ffn: 1024,
    vocab: 1000,
    max_pos: 128,
    seed: 42,
};

enum Model {
    Lstm(LstmModel),
    Tree(TreeLstmModel),
    Bert(BertModel),
}

/// One request as the host holds it, before it becomes VM objects.
enum Host {
    Tokens(Vec<Tensor>),
    Tree(TreeNode),
    Ids(Vec<i64>),
}

struct Input {
    host: Host,
    args: Vec<Object>,
    tokens: u64,
}

fn make_inputs(kind: Kind, seed: u64) -> Vec<Input> {
    let mut rng = Rng::new(seed, kind as u64);
    let sizes = match kind {
        Kind::Tree => gen::sst_leaf_counts(INPUTS, &mut rng),
        _ => gen::mrpc_lengths(INPUTS, &mut rng),
    };
    sizes
        .into_iter()
        .map(|n| {
            let (host, args) = match kind {
                Kind::Lstm => {
                    let tokens: Vec<Tensor> =
                        (0..n).map(|_| rng.tensor(&[1, LSTM.input])).collect();
                    let args = vec![list_object(&tokens)];
                    (Host::Tokens(tokens), args)
                }
                Kind::Tree => {
                    let tree = gen::random_tree(&mut rng, n, TREE.input);
                    let args = vec![tree.to_object()];
                    (Host::Tree(tree), args)
                }
                Kind::Bert => {
                    let ids: Vec<i64> = (0..n).map(|_| rng.below(BERT.vocab) as i64).collect();
                    let tok = Tensor::from_vec_i64(ids.clone(), &[n]).expect("tokens");
                    let pos = Tensor::from_vec_i64((0..n as i64).collect(), &[n]).expect("pos");
                    (
                        Host::Ids(ids),
                        vec![Object::tensor(tok), Object::tensor(pos)],
                    )
                }
            };
            Input {
                host,
                args,
                tokens: n as u64,
            }
        })
        .collect()
}

impl Model {
    fn build(kind: Kind) -> Model {
        match kind {
            Kind::Lstm => Model::Lstm(LstmModel::new(LSTM)),
            Kind::Tree => Model::Tree(TreeLstmModel::new(TREE)),
            Kind::Bert => Model::Bert(BertModel::new(BERT)),
        }
    }

    fn module(&self) -> nimble_ir::Module {
        match self {
            Model::Lstm(m) => m.module(),
            Model::Tree(m) => m.module(),
            Model::Bert(m) => m.module(),
        }
    }

    /// The independent reference the compiled program is checked against.
    fn reference(&self, host: &Host) -> Tensor {
        match (self, host) {
            (Model::Lstm(m), Host::Tokens(t)) => m.reference(t),
            (Model::Tree(m), Host::Tree(t)) => m.reference(t),
            (Model::Bert(m), Host::Ids(ids)) => m.reference(ids),
            _ => unreachable!("inputs are made for their model"),
        }
    }

    /// Same tolerances as the `systems.rs` tests of `nimble-bench`.
    fn tolerance(&self) -> f32 {
        match self {
            Model::Bert(_) => 1e-3,
            _ => 1e-4,
        }
    }
}

/// The input set-up answers first: the shortest, which is the same size
/// under every seed.
fn shortest(inputs: &[Input]) -> &Input {
    inputs
        .iter()
        .min_by_key(|i| i.tokens)
        .expect("a workload has inputs")
}

/// What set-up leaves behind: a loaded program and the session the client
/// runs on.
struct Stack {
    model: Model,
    module: nimble_ir::Module,
    vm: VirtualMachine,
    session: Session,
}

impl Stack {
    /// Model build + compile + load + the first answer: what a user waits
    /// for once. Warming the arena on the other inputs is left out, or
    /// set-up time would be 64 request latencies and little else.
    fn set_up(kind: Kind, first: &Input) -> Stack {
        let model = Model::build(kind);
        let module = model.module();
        let (exe, _report) = compile(&module, &CompileOptions::default()).expect("compile");
        let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).expect("load");
        let mut session = vm.session();
        vm.run_in(&mut session, "main", first.args.clone())
            .expect("first run");
        Stack {
            model,
            module,
            vm,
            session,
        }
    }

    fn tear_down(self) {
        prepack::release_buffers(&self.vm.executable().weight_buffer_ids());
    }

    fn run(&mut self, input: &Input) -> Result<Object, nimble_vm::VmError> {
        self.vm
            .run_in(&mut self.session, "main", input.args.clone())
    }
}

/// Runs requests and keeps count of what was attempted and what failed.
struct Client {
    /// First-seen checksum of each distinct input's output.
    seen: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
}

impl Client {
    fn new() -> Client {
        Client {
            seen: vec![None; INPUTS],
            attempted: 0,
            failed: 0,
        }
    }

    /// Before timing: every distinct input's output against the reference.
    fn check_outputs(&mut self, stack: &mut Stack, inputs: &[Input]) {
        let tol = stack.model.tolerance();
        for (i, input) in inputs.iter().enumerate() {
            self.attempted += 1;
            let want = stack.model.reference(&input.host);
            match measure::output_tensor(&stack.run(input)) {
                Some(got) if measure::close(&got, &want, tol) => {
                    self.seen[i] = Some(measure::checksum(&got));
                }
                _ => {
                    eprintln!("e2e: input {i} disagrees with the reference");
                    self.failed += 1;
                }
            }
        }
    }

    /// Cycle through the inputs for `window`, one request at a time.
    /// `around` wraps the call into the VM (tracing phases open and close a
    /// trace there); each checksum is compared after its clock stops.
    fn run_for(
        &mut self,
        stack: &mut Stack,
        inputs: &[Input],
        window: Duration,
        around: &mut dyn FnMut(&mut Stack, &Input) -> Result<Object, nimble_vm::VmError>,
    ) -> Vec<Sample> {
        let origin = Instant::now();
        let mut samples = Vec::new();
        while origin.elapsed() < window {
            let i = samples.len() % INPUTS;
            let start = Instant::now();
            let result = around(stack, &inputs[i]);
            let latency = start.elapsed();
            let ok = measure::output_tensor(&result)
                .is_some_and(|t| measure::same_as_first(&mut self.seen[i], &t));
            self.attempted += 1;
            self.failed += u64::from(!ok);
            samples.push(Sample {
                at_ns: (start - origin).as_nanos() as u64,
                latency_ns: latency.as_nanos() as u64,
                tokens: inputs[i].tokens,
                ok,
                class: 0,
            });
        }
        samples
    }
}

const WARM_UP: Duration = Duration::from_secs(1);

/// The untraced run: end-to-end metrics, tracing off.
pub fn run(kind: Kind, rec: &mut Record) {
    let inputs = make_inputs(kind, rec.seed);
    let (mut stack, setup_s) =
        measure::set_up_repeatedly(|| Stack::set_up(kind, shortest(&inputs)), Stack::tear_down);
    let mut client = Client::new();
    client.check_outputs(&mut stack, &inputs);
    client.run_for(&mut stack, &inputs, WARM_UP, &mut Stack::run);
    let window = Duration::from_secs(rec.seconds);
    let samples = client.run_for(&mut stack, &inputs, window, &mut Stack::run);
    measure::fill_end_to_end(rec, setup_s, &samples, window, Duration::MAX);
    rec.attempted = client.attempted;
    rec.failed = client.failed;
}

/// The traced run: per-layer metrics. Three short phases over the same
/// input cycle — tracing off, the program's flight recorder on, the VM
/// profiler on — then the probes that need no traffic.
pub fn run_traced(kind: Kind, rec: &mut Record, trace_path: &std::path::Path) {
    let inputs = make_inputs(kind, rec.seed);
    let mut stack = Stack::set_up(kind, shortest(&inputs));
    let mut client = Client::new();
    client.check_outputs(&mut stack, &inputs);
    let phase = Duration::from_millis(rec.seconds * 1000 / 5);
    client.run_for(&mut stack, &inputs, phase / 2, &mut Stack::run);

    // Phase A: tracing off. One pass over the distinct inputs gives the
    // per-request instruction counts, which the VM keeps without timing.
    if let Some(arena) = stack.session.arena() {
        arena.reset_stats();
    }
    let off = client.run_for(&mut stack, &inputs, phase, &mut Stack::run);
    let arena = stack.session.arena_stats();
    rec.set("vm.arena.hit_rate", arena.hit_rate());
    rec.set(
        "vm.arena.misses_per_req",
        arena.misses as f64 / off.len().max(1) as f64,
    );
    rec.set("vm.arena.high_water_bytes", arena.high_water_bytes as f64);
    rec.set("vm.arena.retained_bytes", arena.retained_bytes as f64);
    let mut counts = nimble_vm::ProfileReport::default();
    for input in &inputs {
        stack.run(input).expect("count pass");
        counts += stack.session.last_report();
    }
    let per_req = |n: u64| n as f64 / INPUTS as f64;
    let packed = counts.counts[4];
    let allocs = counts.counts[5] + counts.counts[6] + counts.counts[7];
    rec.set("vm.instructions_per_req", per_req(counts.instructions));
    rec.set(
        "vm.kernel_calls_per_req",
        per_req(counts.kernel_invocations),
    );
    rec.set(
        "vm.shape_func_calls_per_req",
        per_req(packed - counts.kernel_invocations),
    );
    rec.set("vm.allocs_per_req", per_req(allocs));

    // Phase B: the flight recorder, driven as the router drives it.
    measure::flight_recorder_phase(rec, &off, || {
        client.run_for(&mut stack, &inputs, phase, &mut |stack, input| {
            let ctx = nimble_obs::start_trace();
            let start = Instant::now();
            let result = {
                let _guard = nimble_obs::enter(ctx);
                stack.run(input)
            };
            let ns = start.elapsed().as_nanos() as u64;
            nimble_obs::flight::finish(ctx, "stream", ns, result.is_ok());
            result
        })
    });

    // Phase C: the VM profiler. Its `other_ns` counts a nested `Invoke`
    // twice, so "other" here is wall time minus kernels and shape
    // functions, which do not nest.
    stack.vm.set_profiling(true);
    let mut runs: Vec<(u64, u64, u64)> = Vec::new();
    let mut instructions = 0u64;
    let profiled = client.run_for(&mut stack, &inputs, phase, &mut |stack, input| {
        let start = Instant::now();
        let result = stack.run(input);
        let ns = start.elapsed().as_nanos() as u64;
        let report = stack.session.last_report();
        instructions += report.instructions;
        runs.push((ns, report.kernel_ns, report.shape_func_ns));
        result
    });
    stack.vm.set_profiling(false);
    let mut log = SpanLog::default();
    for (request, (sample, &(wall, kernel, shape))) in profiled.iter().zip(&runs).enumerate() {
        log.record(&RequestParts {
            request: request as u64,
            root: "client.request",
            start_ns: sample.at_ns,
            total_ns: sample.latency_ns,
            children: &[
                ("vm.kernels", kernel),
                ("vm.shape_funcs", shape),
                ("vm.other", wall.saturating_sub(kernel + shape)),
            ],
        });
    }
    let sum = |pick: fn(&(u64, u64, u64)) -> u64| runs.iter().map(pick).sum::<u64>() as f64;
    let (wall, kernel, shape) = (sum(|r| r.0).max(1.0), sum(|r| r.1), sum(|r| r.2));
    let other = (wall - kernel - shape).max(0.0);
    rec.set("vm.kernel_share", kernel / wall);
    rec.set("vm.shape_func_share", shape / wall);
    rec.set("vm.other_share", other / wall);
    rec.set(
        "vm.other_ns_per_instruction",
        other / instructions.max(1) as f64,
    );
    rec.set(
        "vm.profile_overhead_share",
        measure::p50_ms(&profiled) / measure::p50_ms(&off) - 1.0,
    );
    // What the client spends around the VM call (argument clones, the
    // clock) is its self time; the rest of what it waited is the VM.
    rec.set("budget.client_self_share", log.share("client.request"));
    rec.set(
        "budget.vm_run_share",
        log.share("vm.kernels") + log.share("vm.shape_funcs") + log.share("vm.other"),
    );
    rec.set("budget.gap_share", log.gap_share());
    if let Err(e) = log.write_json(trace_path) {
        eprintln!("e2e: cannot write {}: {e}", trace_path.display());
    }

    frameworks(rec, &mut stack, &inputs);
    layers::probe_prepack(rec);
    let devices = Arc::new(DeviceSet::cpu_only());
    layers::probe_compile(rec, &stack.module, &CompileOptions::default(), &devices);
    layers::probe_kernels(rec);
    rec.attempted = client.attempted;
    rec.failed = client.failed;
    rec.set(
        "e2e.failed_share",
        client.failed as f64 / client.attempted.max(1) as f64,
    );
}

/// One baseline system running one host input.
type Baseline<'m> = (&'static str, Box<dyn FnMut(&Host) + 'm>);

impl Model {
    /// The stand-in frameworks that can run this model, by metric name.
    fn baselines(&self) -> Vec<Baseline<'_>> {
        match self {
            Model::Lstm(m) => {
                let session = LstmSession::build(m, Flavor::MxNet);
                vec![
                    (
                        "frameworks.eager_ratio",
                        Box::new(move |h| {
                            if let Host::Tokens(t) = h {
                                std::hint::black_box(eager::lstm_forward(m, t));
                            }
                        }),
                    ),
                    (
                        "frameworks.graphflow_ratio",
                        Box::new(move |h| {
                            if let Host::Tokens(t) = h {
                                std::hint::black_box(session.run(t));
                            }
                        }),
                    ),
                ]
            }
            Model::Tree(m) => vec![
                (
                    "frameworks.eager_ratio",
                    Box::new(move |h| {
                        if let Host::Tree(t) = h {
                            std::hint::black_box(eager::tree_lstm_forward(m, t));
                        }
                    }),
                ),
                (
                    "frameworks.fold_ratio",
                    Box::new(move |h| {
                        if let Host::Tree(t) = h {
                            std::hint::black_box(fold::compile(m, t).run());
                        }
                    }),
                ),
            ],
            Model::Bert(m) => {
                let session = BertSession::build(m);
                vec![
                    (
                        "frameworks.eager_ratio",
                        Box::new(move |h| {
                            if let Host::Ids(ids) = h {
                                std::hint::black_box(eager::bert_forward(m, ids));
                            }
                        }),
                    ),
                    (
                        "frameworks.graphflow_ratio",
                        Box::new(move |h| {
                            if let Host::Ids(ids) = h {
                                let (tok, pos) = m.inputs(ids);
                                std::hint::black_box(session.run(&tok, &pos));
                            }
                        }),
                    ),
                ]
            }
        }
    }
}

/// Baseline µs/token over Nimble µs/token on the first 16 inputs: the
/// claim of the paper's Tables 1-3, measured on this box.
fn frameworks(rec: &mut Record, stack: &mut Stack, inputs: &[Input]) {
    let subset = &inputs[..16];
    let nimble = measure::median_secs(3, || {
        for input in subset {
            stack.run(input).expect("nimble run");
        }
    });
    for (name, mut run) in stack.model.baselines() {
        let baseline = measure::median_secs(3, || subset.iter().for_each(|i| run(&i.host)));
        rec.set(name, baseline / nimble);
    }
}
