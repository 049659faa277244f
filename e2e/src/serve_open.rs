//! `serve_open_zipf`: the full stack under an open loop. A row-dynamic MLP
//! with the specializer on, Zipf row counts, Poisson arrivals at three
//! fixed rates; latency counts from the time a request was due.

use crate::gen::{self, Rng};
use crate::layers;
use crate::measure::{self, INPUTS};
use crate::report::Record;
use crate::serve::{self, Done};
use crate::spans::SpanLog;
use crate::stats::{self, Sample};
use nimble_core::{CompileOptions, EngineConfig};
use nimble_models::{MlpConfig, MlpModel};
use nimble_serve::{
    ModelRegistry, RegistryConfig, Router, RouterConfig, ShardConfig, SpecializeConfig,
};
use nimble_vm::Object;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MLP: MlpConfig = MlpConfig {
    input: 64,
    hidden: 512,
    layers: 2,
    classes: 16,
    seed: 42,
};
const MODEL: &str = "mlp";

/// Arrival rates in requests per second, fixed once for a 2-core box and
/// never calibrated at run time: about 12 %, 30 % and 120 % of what the
/// stack sustains there with the generator on the same cores. The
/// end-to-end metrics come from `r_over`; the traced run steps through
/// all three.
pub const RATES: [f64; 3] = [1000.0, 2500.0, 10000.0];
const STEP_NAMES: [&str; 3] = ["r_low", "r_mid", "r_over"];
/// Latency limit, and the deadline of every request, from its due time.
const LIMIT: Duration = Duration::from_millis(20);

struct Stack {
    registry: Arc<ModelRegistry>,
    router: Arc<Router>,
    model: MlpModel,
    module: nimble_ir::Module,
}

struct Input {
    args: Vec<Object>,
    rows: u64,
}

fn make_inputs(model: &MlpModel, seed: u64) -> Vec<Input> {
    let mut rng = Rng::new(seed, 20);
    gen::zipf_rows(INPUTS, &mut rng)
        .into_iter()
        .map(|rows| Input {
            args: vec![Object::tensor(rng.tensor(&[rows, model.config.input]))],
            rows: rows as u64,
        })
        .collect()
}

impl Stack {
    /// Model build + register (compile, load, two replicas, specializer
    /// attached with its default budgets).
    fn set_up(cache_dir: Option<PathBuf>) -> Stack {
        let registry = Arc::new(ModelRegistry::new(RegistryConfig {
            cache_dir,
            engine: EngineConfig {
                workers: 1,
                queue_capacity: 32,
                max_batch: 8,
            },
            shards: ShardConfig {
                replicas: 2,
                ..ShardConfig::default()
            },
            specialize: Some(SpecializeConfig::default()),
            ..RegistryConfig::default()
        }));
        let model = MlpModel::new(MLP);
        let module = model.module();
        registry
            .register(MODEL, "v1", &module, &CompileOptions::default())
            .expect("register");
        let router = Arc::new(Router::new(Arc::clone(&registry), RouterConfig::default()));
        Stack {
            registry,
            router,
            model,
            module,
        }
    }

    /// Passes over the inputs until the background tuner has nothing left
    /// to do: every tune lands here, none in a timed step. Requests go in
    /// waves of 16 (half a replica's queue), not one by one, so that set-up
    /// time is the tuning it waits for and not 1500 round trips through the
    /// stack's threads.
    fn warm_up(&self, inputs: &[Input]) {
        let entry = self.registry.get(MODEL).expect("registered");
        let mut tunes = u64::MAX;
        // The rarest shape appears once per pass and needs `hit_threshold`
        // (16) sightings, so no verdict before 24 passes.
        for round in 0..12 {
            for _ in 0..8 {
                for wave in inputs.chunks(16) {
                    let tickets: Vec<_> = wave
                        .iter()
                        .map(|input| self.router.submit(MODEL, input.args.clone()))
                        .collect();
                    for ticket in tickets {
                        ticket.expect("warm-up submit").wait().expect("warm-up run");
                    }
                }
            }
            let Some(spec) = entry.specializer() else {
                return;
            };
            spec.quiesce();
            let now = spec.stats().tunes;
            if round >= 2 && now == tunes {
                return;
            }
            tunes = now;
        }
    }
}

/// First-seen checksums and what failed.
struct Checks {
    seen: Vec<Option<u64>>,
    attempted: u64,
    /// Wrong outputs, VM errors and lost requests.
    failed: u64,
    /// Requests shed or expired outside the overload step, where the stack
    /// is expected to serve everything.
    refused_below_over: u64,
}

impl Checks {
    /// Before timing: every distinct input against the model's reference.
    fn before_timing(stack: &Stack, inputs: &[Input]) -> Checks {
        let mut checks = Checks {
            seen: vec![None; INPUTS],
            attempted: 0,
            failed: 0,
            refused_below_over: 0,
        };
        for (i, input) in inputs.iter().enumerate() {
            checks.attempted += 1;
            let x = input.args[0].wait_tensor().expect("input tensor");
            let want = stack.model.reference(&x);
            let got = stack
                .router
                .run(MODEL, input.args.clone())
                .ok()
                .and_then(|c| measure::output_tensor(&c.result));
            match got {
                Some(got) if measure::close(&got, &want, 1e-4) => {
                    checks.seen[i] = Some(measure::checksum(&got));
                }
                _ => {
                    eprintln!("e2e: input {i} disagrees with the reference");
                    checks.failed += 1;
                }
            }
        }
        checks
    }
}

/// Sleep until shortly before `due`, then spin until it. The spin is kept
/// short: on a 2-core box the generator shares its core with a worker.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(120) {
            std::thread::sleep(left - Duration::from_micros(80));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One step's outcome; `T` is what was kept of each request.
struct Step<T> {
    rate: f64,
    window_ns: u64,
    done: Vec<T>,
    /// How late each submit call started after its due time.
    gen_lag_ns: Vec<u64>,
}

/// One rate for `window`: a generator thread submits on the seeded
/// schedule whatever the stack does, a collector thread waits for the
/// answers in submission order. A refusal (shed or expired) is an explicit
/// answer that misses the latency limit; only a wrong, failed or lost
/// request counts as failed. `keep` says what to hold on to of each request:
/// the untraced run keeps the sample alone, so that `peak_rss_mb` is the
/// stack's memory and not the benchmark's notes.
fn step<T: Send>(
    stack: &Stack,
    inputs: &[Input],
    checks: &mut Checks,
    rate_index: usize,
    window: Duration,
    seed: u64,
    keep: fn(Done) -> T,
) -> Step<T> {
    let rate = RATES[rate_index];
    let mut rng = Rng::new(seed, 30 + rate_index as u64);
    let schedule = gen::poisson_schedule(rate, window.as_secs_f64(), &mut rng);
    let arrivals = schedule.len();
    let origin = Instant::now();
    let (tx, rx) = std::sync::mpsc::channel();
    let router = &stack.router;
    let seen = &mut checks.seen;
    let ((done, refused, wrong), gen_lag_ns) = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut lag = Vec::with_capacity(schedule.len());
            for (j, &due_ns) in schedule.iter().enumerate() {
                let due = origin + Duration::from_nanos(due_ns);
                wait_until(due);
                let input = &inputs[j % inputs.len()];
                let start = Instant::now();
                let admitted =
                    router.submit_with_deadline(MODEL, input.args.clone(), Some(due + LIMIT));
                let end = Instant::now();
                lag.push((start - due).as_nanos() as u64);
                if tx.send((j, due_ns, start, end, admitted)).is_err() {
                    break;
                }
            }
            lag
        });
        let collector = scope.spawn(move || {
            // Sized once: a growing vector would show in `peak_rss_mb`.
            let mut done = Vec::with_capacity(arrivals);
            let (mut refused, mut wrong) = (0u64, 0u64);
            for (j, due_ns, start, end, admitted) in rx {
                let i = j % inputs.len();
                let d = serve::resolve(admitted, origin, due_ns, start, end, inputs[i].rows, |t| {
                    measure::same_as_first(&mut seen[i], t)
                });
                if d.shed || d.expired {
                    refused += 1;
                } else if !d.sample.ok {
                    wrong += 1;
                }
                done.push(keep(d));
            }
            (done, refused, wrong)
        });
        let lag = generator.join().expect("generator");
        (collector.join().expect("collector"), lag)
    });
    checks.attempted += done.len() as u64;
    checks.failed += wrong;
    if rate_index < RATES.len() - 1 {
        checks.refused_below_over += refused;
    }
    Step {
        rate,
        window_ns: window.as_nanos() as u64,
        done,
        gen_lag_ns,
    }
}

impl Step<Done> {
    fn samples(&self) -> Vec<Sample> {
        self.done.iter().map(|d| d.sample).collect()
    }

    /// At least 99 % answered correctly inside the limit, and latency at
    /// the end of the step no worse than twice its start (plus a
    /// millisecond): the rate is sustained, not queueing up.
    fn sustained(&self) -> bool {
        let limit = LIMIT.as_nanos() as u64;
        let good = self
            .done
            .iter()
            .filter(|d| d.sample.ok && d.sample.latency_ns <= limit)
            .count();
        let fifth = self.window_ns / 5;
        let p50_of = |from: u64, to: u64| {
            let part = self.done.iter().map(|d| &d.sample);
            let lat = stats::latencies_ms(part.filter(|s| (from..to).contains(&s.at_ns)));
            stats::percentile_sorted(&lat, 0.5)
        };
        let (first, last) = (p50_of(0, fifth), p50_of(4 * fifth, self.window_ns));
        good as f64 >= 0.99 * self.done.len() as f64 && last <= 2.0 * first + 1.0
    }

    fn shed_share(&self) -> f64 {
        self.done.iter().filter(|d| d.shed).count() as f64 / self.done.len().max(1) as f64
    }
}

pub fn run(rec: &mut Record) {
    let ((stack, inputs), setup_s) = measure::set_up_repeatedly(
        || {
            let stack = Stack::set_up(None);
            let inputs = make_inputs(&stack.model, rec.seed);
            stack.warm_up(&inputs);
            (stack, inputs)
        },
        |(old, _)| old.router.shutdown(),
    );
    let mut checks = Checks::before_timing(&stack, &inputs);
    // The whole window at `r_over`. Latency at `r_low` and `r_mid` is
    // wake-up time more than work on a shared 2-core box and does not
    // repeat within any bound (see README), so those steps are per-layer
    // metrics of the traced run; under overload the queue sets the latency.
    let window = Duration::from_secs(rec.seconds);
    let over = step(&stack, &inputs, &mut checks, 2, window, rec.seed, |d| {
        d.sample
    });
    measure::fill_end_to_end(rec, setup_s, &over.done, window, LIMIT);
    rec.attempted = checks.attempted;
    rec.failed = checks.failed;
    stack.router.shutdown();
}

pub fn run_traced(rec: &mut Record, trace_path: &Path) {
    let stack = Stack::set_up(None);
    let inputs = make_inputs(&stack.model, rec.seed);
    stack.warm_up(&inputs);
    let mut checks = Checks::before_timing(&stack, &inputs);
    let window = Duration::from_millis(rec.seconds * 1000 / 5);
    let seed = rec.seed;
    let keep_all: fn(Done) -> Done = |d| d;
    let snapshot = || serve::counters(&stack.registry, &stack.router, &[MODEL]);

    // Three steps with tracing off: what each rate does to the stack.
    let before = snapshot();
    let steps: Vec<Step<Done>> = (0..RATES.len())
        .map(|i| step(&stack, &inputs, &mut checks, i, window, seed, keep_all))
        .collect();
    serve::record_counters(rec, &before, &snapshot());
    let mut log = SpanLog::default();
    serve::record_parts(rec, &steps[1].done, &mut log);
    if let Err(e) = log.write_json(trace_path) {
        eprintln!("e2e: cannot write {}: {e}", trace_path.display());
    }
    for (s, name) in steps.iter().zip(STEP_NAMES) {
        let p90 = measure::percentile_ms(&s.samples(), 0.9);
        rec.set(&format!("serve.router.p90_ms_{name}"), p90);
    }
    let mid = steps[1].samples();
    rec.set("serve.router.p50_ms_r_mid", measure::p50_ms(&mid));
    rec.set(
        "serve.router.latency_p99_ms",
        measure::percentile_ms(&mid, 0.99),
    );
    rec.set(
        "serve.router.latency_samples",
        mid.iter().filter(|s| s.ok).count() as f64,
    );
    rec.set("serve.router.shed_share", steps[2].shed_share());
    let below: Vec<&Done> = steps[..2].iter().flat_map(|s| &s.done).collect();
    rec.set(
        "serve.router.shed_share_below_over",
        below.iter().filter(|d| d.shed).count() as f64 / below.len().max(1) as f64,
    );
    let max_ok = steps
        .iter()
        .filter(|s| s.sustained())
        .map(|s| s.rate)
        .fold(0.0, f64::max);
    rec.set("serve.router.max_ok_rate_rps", max_ok);
    let lag = stats::sorted(
        steps[1]
            .gen_lag_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect(),
    );
    rec.set(
        "serve.router.gen_lag_p90_us",
        stats::percentile_sorted(&lag, 0.9),
    );

    // The program's flight recorder on, at r_mid.
    measure::flight_recorder_phase(rec, &mid, || {
        step(&stack, &inputs, &mut checks, 1, window, seed, keep_all).samples()
    });

    // The VM profiler on, at r_mid.
    let vm = Arc::clone(stack.registry.get(MODEL).expect("registered").vm());
    vm.set_profiling(true);
    let before = snapshot();
    let profiled = step(&stack, &inputs, &mut checks, 1, window, seed, keep_all).samples();
    serve::record_profile_shares(rec, &before, &snapshot());
    vm.set_profiling(false);
    rec.set(
        "vm.profile_overhead_share",
        measure::p50_ms(&profiled) / measure::p50_ms(&mid) - 1.0,
    );

    layers::probe_prepack(rec);
    layers::probe_compile(rec, &stack.module, &CompileOptions::default(), vm.devices());
    serve::probe_registry(rec, trace_path, |dir| Stack::set_up(Some(dir)).router);
    layers::probe_kernels(rec);
    rec.attempted = checks.attempted;
    rec.failed = checks.failed;
    rec.set(
        "e2e.failed_share",
        (checks.failed + checks.refused_below_over) as f64 / checks.attempted.max(1) as f64,
    );
    stack.router.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator stalls 5 ms past a request's due time. Refused or
    /// served, the request waited from when it was due, not from when the
    /// late submit call started.
    #[test]
    fn latency_counts_from_the_due_time_through_a_generator_stall() {
        let origin = Instant::now();
        let due_ns = 1_000_000;
        let start = origin + Duration::from_millis(6);
        let end = start + Duration::from_micros(10);
        let refused: Result<nimble_serve::ServeTicket, _> = Err(nimble_serve::Rejected::QueueFull);
        let done = serve::resolve(refused, origin, due_ns, start, end, 4, |_| true);
        assert!(done.shed && !done.sample.ok);
        assert_eq!(done.sample.at_ns, due_ns);
        assert_eq!(done.sample.latency_ns, 5_010_000);
        assert_eq!((done.start_ns, done.total_ns), (6_000_000, 10_000));

        let stack = Stack::set_up(None);
        let inputs = make_inputs(&stack.model, 1);
        let origin = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        let start = Instant::now();
        let admitted = stack.router.submit(MODEL, inputs[0].args.clone());
        let end = Instant::now();
        let done = serve::resolve(admitted, origin, 0, start, end, inputs[0].rows, |_| true);
        stack.router.shutdown();
        assert!(done.sample.ok);
        let [engine_latency, queued, execution] = done.engine.expect("completed");
        assert!(done.sample.latency_ns >= 5_000_000 + engine_latency);
        assert!(done.total_ns < done.sample.latency_ns);
        assert!(queued + execution <= engine_latency);
    }
}
