//! The serving front door: deadline-aware dispatch with explicit load
//! shedding.
//!
//! Every request names a model and (optionally) carries a deadline. The
//! router resolves the model's live entry in the [`ModelRegistry`],
//! admits the request to that model's bounded engine queue, and hands
//! back a [`ServeTicket`]. Overload is never absorbed silently: a full
//! queue, a dead deadline, or an unknown model is an immediate
//! [`Rejected`] at admission, and a request whose deadline passes *while
//! queued* resolves to [`Rejected::Expired`] without executing (the
//! engine's deadline-aware dequeue). Under overload this is what keeps
//! accepted-request tail latency bounded: the queue cannot grow beyond
//! its capacity and cannot hold work nobody is waiting for.
//!
//! Every admission and every terminal outcome is counted in the
//! per-model [`Telemetry`], so `accepted == completed + failed + expired`
//! (+ `lost`, which stays 0 in a healthy server) holds at quiesce — the
//! invariant the router tests and the `serve_mix` smoke gate assert.

use crate::registry::ModelRegistry;
use crate::telemetry::{
    as_ns, bump, render_metrics, LiveStats, ModelTelemetry, ServeStats, Telemetry,
};
use nimble_core::{Completion, EngineError};
use nimble_device::DeviceId;
use nimble_obs::export::{register_collector, CollectorHandle};
use nimble_obs::{Category as ObsCat, SpanContext};
use nimble_vm::Object;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why the router refused (or gave up on) a request. Always explicit —
/// a submission never disappears without one of these or a
/// [`Completion`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The model's admission queue is at capacity (load shed).
    QueueFull,
    /// The deadline passed — at admission, or while queued.
    Expired,
    /// No model with that name is loaded (or it was unloaded before the
    /// request could be admitted).
    Unloaded,
    /// The router is draining and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull => write!(f, "rejected: admission queue full"),
            Rejected::Expired => write!(f, "rejected: deadline expired"),
            Rejected::Unloaded => write!(f, "rejected: model not loaded"),
            Rejected::ShuttingDown => write!(f, "rejected: router shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Router configuration.
#[derive(Debug, Clone, Default)]
pub struct RouterConfig {
    /// Deadline applied to requests submitted without one; `None` means
    /// such requests never expire.
    pub default_deadline: Option<Duration>,
    /// Cadence of the background autoscaler thread, which calls
    /// [`crate::shard::ShardSet::autoscale_tick`] on every live model.
    /// `None` (the default) spawns no thread — ticks stay caller-driven,
    /// which is what deterministic harnesses want. Scale decisions land
    /// in the shard lifecycle counters (`nimble_shard_events_total`).
    pub autoscale_interval: Option<Duration>,
    /// When set, spawns the [`crate::slo::SloWatchdog`] thread computing
    /// multi-window burn rates from this router's telemetry. `None` (the
    /// default) spawns no thread.
    pub slo: Option<crate::slo::SloConfig>,
}

/// Background autoscaler: ticks every live model's replica set on a fixed
/// cadence. Holds only a weak registry reference, so it never keeps
/// models alive; stops (and joins) when dropped with the router.
struct AutoscaleDriver {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl AutoscaleDriver {
    fn spawn(registry: &Arc<ModelRegistry>, interval: Duration) -> AutoscaleDriver {
        let stop = Arc::new(AtomicBool::new(false));
        let registry = Arc::downgrade(registry);
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("nimble-autoscale".to_string())
            .spawn(move || {
                // Wake at a fraction of the interval so a stop request is
                // honored promptly even with a long cadence.
                let nap = interval
                    .min(Duration::from_millis(50))
                    .max(Duration::from_millis(1));
                let mut next = Instant::now() + interval;
                while !flag.load(Ordering::Acquire) {
                    if Instant::now() < next {
                        std::thread::sleep(nap);
                        continue;
                    }
                    next = Instant::now() + interval;
                    let Some(registry) = registry.upgrade() else {
                        return;
                    };
                    for (name, _) in registry.list() {
                        if let Some(entry) = registry.get(&name) {
                            entry.shards().autoscale_tick();
                        }
                    }
                }
            })
            .expect("spawn autoscaler thread");
        AutoscaleDriver {
            stop,
            handle: Some(handle),
        }
    }

    fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for AutoscaleDriver {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Handle to one admitted request; resolves to a [`Completion`] or a
/// terminal [`Rejected`]. Waiting records the outcome in the model's
/// telemetry exactly once.
#[derive(Debug)]
pub struct ServeTicket {
    ticket: crate::shard::ShardTicket,
    telemetry: Arc<ModelTelemetry>,
    model: String,
    /// Trace context assigned at admission; the serve root span is
    /// recorded when the request reaches its terminal state.
    ctx: SpanContext,
    admitted_ns: u64,
    root_name: &'static str,
}

impl ServeTicket {
    /// The model this request was admitted to.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Block until the request reaches its terminal state. A replica
    /// dying while holding the request is absorbed here: the shard layer
    /// requeues it onto a survivor (counted in `requeued`), and only when
    /// every requeue finds the replicas dead does the request fail —
    /// explicitly, as `failed`/`replica_deaths`, never `lost`.
    ///
    /// # Errors
    /// [`Rejected::Expired`] when the deadline passed while queued;
    /// [`Rejected::Unloaded`] when the request could not survive replica
    /// deaths (no live replica left to requeue onto).
    pub fn wait(self) -> Result<Completion, Rejected> {
        let outcome = self.ticket.wait();
        self.telemetry.record_requeued(u64::from(outcome.requeues));
        let mut queued_ns: Option<u64> = None;
        let (result, outcome_code) = match outcome.result {
            Ok(completion) => {
                let ok = completion.result.is_ok();
                queued_ns = Some(as_ns(completion.queued));
                self.telemetry.record_completed(
                    ok,
                    completion.queued,
                    completion.latency,
                    completion.batch_size,
                );
                (Ok(completion), if ok { 0 } else { 1 })
            }
            Err(EngineError::Expired) => {
                bump(&self.telemetry.expired);
                (Err(Rejected::Expired), 2)
            }
            Err(_) => {
                self.telemetry.record_replica_death();
                (Err(Rejected::Unloaded), 3)
            }
        };
        if self.ctx.is_sampled() {
            let end_ns = nimble_obs::now_ns();
            // The root span must land before the flight verdict so a
            // retained trace includes it.
            nimble_obs::record_root(
                self.ctx,
                self.root_name,
                ObsCat::Serve,
                self.admitted_ns,
                end_ns,
                outcome_code,
            );
            if outcome.requeues > 0 {
                nimble_obs::flight::pin(self.ctx, nimble_obs::flight::PIN_REQUEUED);
            }
            let latency_ns = end_ns.saturating_sub(self.admitted_ns);
            if let Some(verdict) =
                nimble_obs::flight::finish(self.ctx, &self.model, latency_ns, outcome_code == 0)
            {
                self.telemetry
                    .record_exemplar(latency_ns, queued_ns, verdict.trace);
            }
        }
        result
    }
}

/// Multi-model serving front door over a shared [`ModelRegistry`].
pub struct Router {
    registry: Arc<ModelRegistry>,
    telemetry: Arc<Telemetry>,
    config: RouterConfig,
    draining: AtomicBool,
    /// Keeps this router's Prometheus collector registered with
    /// `nimble_obs::export`; dropping the router retires it.
    _collector: CollectorHandle,
    /// Background autoscaler (when `autoscale_interval` is set); stopped
    /// and joined on shutdown/drop.
    autoscaler: std::sync::Mutex<Option<AutoscaleDriver>>,
    /// SLO burn-rate watchdog (when `config.slo` is set); stopped and
    /// joined on shutdown/drop.
    slo: std::sync::Mutex<Option<crate::slo::SloWatchdog>>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("models", &self.registry.list())
            .field("draining", &self.draining.load(Ordering::Relaxed))
            .finish()
    }
}

impl Router {
    /// A router over `registry`. Registers a Prometheus collector so
    /// [`nimble_obs::export::prometheus`] includes every serving metric
    /// family (one walk of the family table over [`Router::stats`]) for as
    /// long as the router lives.
    pub fn new(registry: Arc<ModelRegistry>, config: RouterConfig) -> Router {
        let telemetry = Arc::new(Telemetry::default());
        let collector = {
            let telemetry = Arc::downgrade(&telemetry);
            let registry = Arc::downgrade(&registry);
            register_collector(move |buf| {
                if let (Some(t), Some(r)) = (telemetry.upgrade(), registry.upgrade()) {
                    render_metrics(&serve_stats(&t, &r), buf);
                }
            })
        };
        let autoscaler = config
            .autoscale_interval
            .map(|i| AutoscaleDriver::spawn(&registry, i));
        let slo = config
            .slo
            .clone()
            .map(|c| crate::slo::SloWatchdog::spawn(&telemetry, c));
        Router {
            registry,
            telemetry,
            config,
            draining: AtomicBool::new(false),
            _collector: collector,
            autoscaler: std::sync::Mutex::new(autoscaler),
            slo: std::sync::Mutex::new(slo),
        }
    }

    /// The latest per-model SLO watchdog state, when the watchdog is
    /// running (`config.slo` set); `None` otherwise.
    pub fn slo_state(&self) -> Option<BTreeMap<String, crate::slo::SloState>> {
        self.slo.lock().unwrap().as_ref()?;
        let models = self.telemetry.snapshot().models.into_iter();
        Some(models.filter_map(|(k, m)| Some((k, m.slo?))).collect())
    }

    /// The registry this router dispatches into.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Submit a request to `model`'s `main` entry point with the
    /// configured default deadline.
    ///
    /// # Errors
    /// See [`Rejected`]; the rejection is also counted in telemetry.
    pub fn submit(&self, model: &str, args: Vec<Object>) -> Result<ServeTicket, Rejected> {
        let deadline = self.config.default_deadline.map(|d| Instant::now() + d);
        self.submit_with_deadline(model, args, deadline)
    }

    /// Submit with an explicit deadline (`None` = never expires,
    /// overriding the default).
    ///
    /// # Errors
    /// See [`Rejected`]; the rejection is also counted in telemetry.
    pub fn submit_with_deadline(
        &self,
        model: &str,
        args: Vec<Object>,
        deadline: Option<Instant>,
    ) -> Result<ServeTicket, Rejected> {
        let telemetry = self.telemetry.model(model);
        if self.draining.load(Ordering::Acquire) {
            bump(&telemetry.rejected_shutdown);
            return Err(Rejected::ShuttingDown);
        }
        let Some(entry) = self.registry.get(model) else {
            bump(&telemetry.rejected_unloaded);
            return Err(Rejected::Unloaded);
        };
        if let Some(d) = deadline {
            if d <= Instant::now() {
                bump(&telemetry.rejected_expired);
                return Err(Rejected::Expired);
            }
        }
        // Admission is where the trace id is assigned: the engine adopts
        // this context (its spans nest under the serve root), and the root
        // span itself is recorded at the terminal state in `wait`.
        let ctx = nimble_obs::start_trace();
        let (admitted_ns, root_name) = if ctx.is_sampled() {
            (nimble_obs::now_ns(), nimble_obs::intern(model))
        } else {
            (0, "")
        };
        let _g = nimble_obs::enter(ctx);
        let admitted = entry.shards().submit("main", args, deadline);
        let rejected = |arg: u64| {
            if ctx.is_sampled() {
                nimble_obs::record_root(
                    ctx,
                    root_name,
                    ObsCat::Serve,
                    admitted_ns,
                    nimble_obs::now_ns(),
                    arg,
                );
            }
        };
        match admitted {
            Ok(ticket) => {
                bump(&telemetry.accepted);
                Ok(ServeTicket {
                    ticket,
                    telemetry,
                    model: model.to_string(),
                    ctx,
                    admitted_ns,
                    root_name,
                })
            }
            Err(EngineError::Busy) => {
                bump(&telemetry.rejected_queue_full);
                rejected(4);
                nimble_obs::flight::finish_shed(ctx, model, "shed_queue_full");
                Err(Rejected::QueueFull)
            }
            // The entry's engine drained between `get` and admission
            // (hot-swap or unload race): same answer as not-loaded.
            Err(_) => {
                bump(&telemetry.rejected_unloaded);
                rejected(4);
                nimble_obs::flight::finish_shed(ctx, model, "shed_unloaded");
                Err(Rejected::Unloaded)
            }
        }
    }

    /// Submit and wait — the synchronous convenience path.
    ///
    /// # Errors
    /// See [`ServeTicket::wait`] and [`Rejected`].
    pub fn run(&self, model: &str, args: Vec<Object>) -> Result<Completion, Rejected> {
        self.submit(model, args)?.wait()
    }

    /// Snapshot every model's counters and distributions. Loaded models
    /// additionally carry their live engine/shard/pool/specializer state
    /// ([`LiveStats`]), and their storage-arena counters and VM profile
    /// are refreshed from their engines first; unloaded models keep their
    /// last-recorded arena and profile numbers as history.
    pub fn stats(&self) -> ServeStats {
        serve_stats(&self.telemetry, &self.registry)
    }

    /// Render the unified Prometheus exposition (obs core metrics plus
    /// every live collector, including this router's).
    pub fn prometheus(&self) -> String {
        nimble_obs::export::prometheus()
    }

    /// Graceful drain: refuse new submissions, then drain every model's
    /// engine so all accepted requests reach a terminal state. Existing
    /// [`ServeTicket`]s resolve normally. Idempotent.
    pub fn shutdown(&self) {
        self.draining.store(true, Ordering::Release);
        // Stop (and join) the autoscaler before draining, so no scale
        // decision races the drain.
        if let Some(mut driver) = self.autoscaler.lock().unwrap().take() {
            driver.stop();
        }
        if let Some(mut watchdog) = self.slo.lock().unwrap().take() {
            watchdog.stop();
        }
        self.registry.shutdown();
    }
}

/// The one stats walk behind [`Router::stats`], `/status` and `/metrics`:
/// pull each loaded model's arena counters and VM profile into its
/// telemetry (unloaded models keep their last-recorded values), snapshot,
/// and attach what only a live registry entry can report.
fn serve_stats(telemetry: &Telemetry, registry: &ModelRegistry) -> ServeStats {
    let mut live = Vec::new();
    for (name, _) in registry.list() {
        let Some(entry) = registry.get(&name) else {
            continue;
        };
        let shards = entry.shards();
        let t = telemetry.model(&name);
        t.record_arena(shards.arena_stats());
        t.record_profile(shards.profile_report());
        let devices = entry.vm().devices();
        let stats = LiveStats {
            engine: shards.engine_stats(),
            shards: shards.stats(),
            pools: [DeviceId::Cpu, DeviceId::Gpu].map(|d| devices.pool(d).stats()),
            specialize: entry.specializer().map(|s| s.stats()),
        };
        live.push((name, stats));
    }
    let mut snap = telemetry.snapshot();
    for (name, stats) in live {
        if let Some(m) = snap.models.get_mut(&name) {
            m.live = Some(stats);
        }
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;
    use nimble_core::{CompileOptions, EngineConfig};
    use nimble_ir::attrs::Attrs;
    use nimble_ir::builder::FunctionBuilder;
    use nimble_ir::types::TensorType;
    use nimble_ir::Module;
    use nimble_tensor::{DType, Tensor};

    fn add_k_module(k: f32) -> Module {
        let mut fb = FunctionBuilder::new("main");
        let x = fb.param("x", TensorType::new(&[2], DType::F32));
        let c = fb.constant(Tensor::from_vec_f32(vec![k, k], &[2]).unwrap());
        let y = fb.call("add", vec![x, c], Attrs::new());
        let mut m = Module::new();
        m.add_function("main", fb.finish(y));
        m
    }

    fn arg(v: f32) -> Vec<Object> {
        vec![Object::tensor(
            Tensor::from_vec_f32(vec![v, v], &[2]).unwrap(),
        )]
    }

    fn router_with(models: &[(&str, f32)], engine: EngineConfig) -> Router {
        let reg = Arc::new(ModelRegistry::new(RegistryConfig {
            engine,
            ..RegistryConfig::default()
        }));
        for (name, k) in models {
            reg.register(name, "v1", &add_k_module(*k), &CompileOptions::default())
                .unwrap();
        }
        Router::new(reg, RouterConfig::default())
    }

    #[test]
    fn routes_by_model_name() {
        let router = router_with(&[("plus1", 1.0), ("plus10", 10.0)], EngineConfig::default());
        let a = router.run("plus1", arg(0.0)).unwrap();
        assert_eq!(
            a.result.unwrap().wait_tensor().unwrap().as_f32().unwrap(),
            &[1.0, 1.0]
        );
        let b = router.run("plus10", arg(0.0)).unwrap();
        assert_eq!(
            b.result.unwrap().wait_tensor().unwrap().as_f32().unwrap(),
            &[10.0, 10.0]
        );
        let stats = router.stats();
        assert_eq!(stats.models["plus1"].completed, 1);
        assert_eq!(stats.models["plus10"].completed, 1);
        assert_eq!(stats.models["plus1"].latency.count(), 1);
    }

    #[test]
    fn unknown_model_is_rejected_unloaded() {
        let router = router_with(&[("m", 1.0)], EngineConfig::default());
        assert_eq!(
            router.submit("ghost", arg(0.0)).unwrap_err(),
            Rejected::Unloaded
        );
        assert_eq!(router.stats().models["ghost"].rejected_unloaded, 1);
    }

    #[test]
    fn dead_deadline_rejected_at_admission() {
        let router = router_with(&[("m", 1.0)], EngineConfig::default());
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(
            router
                .submit_with_deadline("m", arg(0.0), Some(past))
                .unwrap_err(),
            Rejected::Expired
        );
        assert_eq!(router.stats().models["m"].rejected_expired, 1);
    }

    #[test]
    fn full_queue_sheds_with_queue_full() {
        // 1 worker, capacity 1: the first request parks the worker, the
        // queue holds one more, everything beyond that must shed.
        let router = router_with(
            &[("m", 1.0)],
            EngineConfig {
                workers: 1,
                queue_capacity: 1,
                max_batch: 1,
            },
        );
        let mut tickets = Vec::new();
        let mut shed = 0;
        for _ in 0..100 {
            match router.submit("m", arg(0.0)) {
                Ok(t) => tickets.push(t),
                Err(Rejected::QueueFull) => shed += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(shed > 0, "capacity-1 queue never filled");
        for t in tickets {
            t.wait().unwrap();
        }
        let m = &router.stats().models["m"];
        assert_eq!(m.rejected_queue_full, shed);
        assert_eq!(m.accepted, m.terminal());
        assert_eq!(m.submitted(), 100);
    }

    #[test]
    fn autoscale_cadence_thread_scales_under_pressure() {
        let reg = Arc::new(ModelRegistry::new(RegistryConfig {
            engine: EngineConfig {
                workers: 1,
                queue_capacity: 32,
                max_batch: 2,
            },
            ..RegistryConfig::default()
        }));
        reg.register("m", "v1", &add_k_module(1.0), &CompileOptions::default())
            .unwrap();
        let router = Router::new(
            Arc::clone(&reg),
            RouterConfig {
                autoscale_interval: Some(Duration::from_millis(5)),
                ..RouterConfig::default()
            },
        );
        let entry = reg.get("m").unwrap();
        // Park the single replica and build a backlog past queue_high:
        // the cadence thread (no manual ticks anywhere) must scale up.
        entry.shards().pause_all();
        let tickets: Vec<_> = (0..8)
            .map(|_| router.submit("m", arg(0.0)).unwrap())
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while entry.shards().len() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            entry.shards().len() >= 2,
            "autoscaler cadence thread never scaled up"
        );
        // The decision is visible in the lifecycle event log (and thus
        // the nimble_shard_events_total exposition).
        let (added, _, _) = entry.shards().stats().event_counts();
        assert!(added >= 2);
        entry.shards().resume_all();
        for t in tickets {
            t.wait().unwrap();
        }
        // Shutdown joins the thread; further ticks cannot race the drain.
        router.shutdown();
    }

    #[test]
    fn shutdown_drains_and_then_sheds() {
        let router = router_with(&[("m", 1.0)], EngineConfig::default());
        let tickets: Vec<_> = (0..8)
            .map(|_| router.submit("m", arg(0.0)).unwrap())
            .collect();
        router.shutdown();
        for t in tickets {
            assert!(t.wait().is_ok(), "accepted work must survive the drain");
        }
        assert_eq!(
            router.submit("m", arg(0.0)).unwrap_err(),
            Rejected::ShuttingDown
        );
        let m = &router.stats().models["m"];
        assert_eq!(m.accepted, 8);
        assert_eq!(m.completed, 8);
        assert_eq!(m.lost, 0);
        assert_eq!(m.rejected_shutdown, 1);
        // Idempotent.
        router.shutdown();
    }
}
