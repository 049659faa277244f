//! Deterministic, seeded chaos harness for the sharded serving stack.
//!
//! The harness owns a private [`ModelRegistry`] + [`Router`] and drives a
//! seeded sequence of fault-injection **episodes** against them: request
//! bursts, replica kills mid-burst, deadline storms, hot-swaps mid-traffic,
//! and autoscaler pressure cycles — with the request payloads themselves
//! drawn from a model-supplied generator so pathological dynamic-shape
//! mixes ride along for free. After every episode it quiesces and asserts
//! the two serving invariants this repo is built around:
//!
//! 1. **Exactly-once accounting** — for every model,
//!    `accepted == completed + failed + expired` and `lost == 0`, with the
//!    harness's own client-side tallies agreeing with the router's
//!    telemetry bucket for bucket. A replica killed while holding queued
//!    requests must surface them as requeues or explicit failures; a
//!    request never vanishes and never terminates twice.
//! 2. **Memory returns to baseline** — storage-arena `live_bytes` is zero
//!    at every quiesce point, the prepack cache holds exactly the live
//!    models' panels after every hot-swap, and [`ChaosHarness::finish`]
//!    checks prepack *and* device-pool bytes return to the pre-load
//!    baseline captured at construction.
//!
//! **Determinism.** Everything random comes from one seeded [`StdRng`]
//! (episode kinds, victim replicas, request shapes) and everything racy is
//! fenced: faults are injected only while the target shard set is paused
//! ([`ShardSet::pause_all`] parks every worker *before* it touches the
//! queue, so queue contents are exact), deadline storms use a deadline the
//! harness then deliberately sleeps far past (every admitted request
//! expires, unambiguously), and burst sizes stay within queue capacity so
//! admission never depends on drain timing. Two runs with the same seed
//! and the same model set produce byte-identical [`ChaosReport`]s — the
//! replay test and the `chaos_soak --smoke` CI gate both assert exactly
//! that.

use crate::registry::{ModelRegistry, RegistryConfig};
use crate::router::{Rejected, Router, RouterConfig, ServeTicket};
use crate::shard::{AutoscalerConfig, ShardConfig, ShardSet};
use nimble_core::{CompileOptions, EngineConfig};
use nimble_device::{DeviceId, DeviceSet};
use nimble_ir::Module;
use nimble_obs::Category;
use nimble_specialize::{ModelSpecializer, SpecializeConfig};
use nimble_tensor::prepack;
use nimble_vm::Object;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One model under chaos: how to build each version of it and how to
/// generate one request's arguments.
pub struct ChaosModel {
    /// Stable model name.
    pub name: String,
    /// Build version `v` of the module. Every version must keep the same
    /// architecture (same prepackable-weight count) so the harness can
    /// predict the prepack cache size across hot-swaps.
    pub module: Box<dyn Fn(u64) -> Module>,
    /// Generate one request's arguments; dynamic-shape pathology lives
    /// here (e.g. drawing a different batch/sequence size per request).
    pub request: RequestFn,
    /// Dynamic-batching plan given to every replica of this model; the
    /// module builder must then emit the matching `main_b{bucket}`
    /// entries. `None` serves unbatched. Shared across hot-swap versions
    /// (gather/scatter depend only on the architecture, not the weights).
    pub batch: Option<Arc<nimble_vm::BatchPlan>>,
}

/// Argument generator for one request, drawing from the harness's seeded
/// RNG so the whole traffic mix replays with the schedule.
pub type RequestFn = Box<dyn Fn(&mut StdRng) -> Vec<Object>>;

impl std::fmt::Debug for ChaosModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosModel")
            .field("name", &self.name)
            .finish()
    }
}

/// Harness shape: the seed, episode count, and the serving stack's
/// engine/shard configuration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed of the single RNG every random choice is drawn from.
    pub seed: u64,
    /// Episodes to run (each ends in a full quiesce check).
    pub episodes: u32,
    /// Nominal burst size; episodes clamp it to queue capacity so
    /// admission outcomes never depend on drain timing.
    pub burst: usize,
    /// Deadline attached to deadline-storm requests.
    pub storm_deadline: Duration,
    /// How long the storm sleeps before releasing the paused replicas —
    /// far past `storm_deadline`, so every queued request has expired.
    pub storm_wait: Duration,
    /// Engine shape for every replica.
    pub engine: EngineConfig,
    /// Replica-set shape for every model.
    pub shards: ShardConfig,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0xC4A0_5EED,
            episodes: 10,
            burst: 6,
            storm_deadline: Duration::from_millis(5),
            storm_wait: Duration::from_millis(25),
            engine: EngineConfig {
                workers: 2,
                queue_capacity: 8,
                max_batch: 2,
            },
            shards: ShardConfig {
                replicas: 2,
                min_replicas: 1,
                max_replicas: 4,
                seed: 0x51AB_5EED,
                autoscaler: AutoscalerConfig {
                    queue_high: 3,
                    // Wall-clock queue-wait growth is not replayable;
                    // chaos scales on queue depth only.
                    queue_ns_growth_high: u64::MAX,
                    idle_ticks: 2,
                    cooldown_ticks: 2,
                    window_ticks: 8,
                    max_events_per_window: 2,
                },
            },
        }
    }
}

/// Client-side terminal tallies for one model — the harness's own books,
/// reconciled against the router's telemetry at every quiesce point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosCounts {
    /// Requests the router admitted.
    pub accepted: u64,
    /// Admitted requests that completed with a VM result.
    pub completed: u64,
    /// Admitted requests that terminated as an explicit failure (VM error
    /// or replica death after requeue exhaustion).
    pub failed: u64,
    /// Admitted requests whose deadline expired while queued.
    pub expired: u64,
    /// Re-admissions after a replica died holding the request.
    pub requeued: u64,
    /// Shed at admission: queue full.
    pub shed_queue_full: u64,
    /// Shed at admission: deadline already dead.
    pub shed_expired: u64,
}

/// The harness's deterministic transcript: one line per injected fault or
/// checkpoint, plus the per-model terminal accounting. Two runs with the
/// same seed and model set must produce equal reports.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosReport {
    /// Human-readable event lines, in injection order.
    pub events: Vec<String>,
    /// Final client-side tallies per model (already reconciled against
    /// the router's telemetry by the per-episode quiesce checks).
    pub accounting: BTreeMap<String, ChaosCounts>,
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for e in &self.events {
            writeln!(f, "  {e}")?;
        }
        writeln!(
            f,
            "{:<12} {:>9} {:>9} {:>7} {:>7} {:>8} {:>6} {:>8}",
            "model", "accepted", "done", "failed", "expired", "requeued", "shed", "lost"
        )?;
        for (name, c) in &self.accounting {
            writeln!(
                f,
                "{:<12} {:>9} {:>9} {:>7} {:>7} {:>8} {:>6} {:>8}",
                name,
                c.accepted,
                c.completed,
                c.failed,
                c.expired,
                c.requeued,
                c.shed_queue_full + c.shed_expired,
                c.accepted - c.completed - c.failed - c.expired,
            )?;
        }
        Ok(())
    }
}

/// The seven fault-injection episode kinds.
const KINDS: [&str; 7] = [
    "burst",
    "kill",
    "storm",
    "hot_swap",
    "scale",
    "kill_batch",
    "specialize",
];

/// Seeded fault-injection driver over a private serving stack. See the
/// module docs for the invariants it continuously asserts.
pub struct ChaosHarness {
    config: ChaosConfig,
    devices: Arc<DeviceSet>,
    registry: Arc<ModelRegistry>,
    router: Router,
    models: Vec<ChaosModel>,
    /// Next version number per model (bumped by hot-swap episodes).
    versions: Vec<u64>,
    /// Live prepacked-panel count per model (tracked across hot-swaps).
    packs: Vec<usize>,
    prepack_baseline: usize,
    pool_baseline: u64,
    rng: StdRng,
    events: Vec<String>,
    tallies: BTreeMap<String, ChaosCounts>,
    episode: u32,
}

impl std::fmt::Debug for ChaosHarness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosHarness")
            .field("episode", &self.episode)
            .field("models", &self.registry.list())
            .finish()
    }
}

impl ChaosHarness {
    /// Build the private serving stack, capture the pre-load memory
    /// baselines, and register version 0 of every model.
    ///
    /// # Panics
    /// On compile/registration failure, or an empty model list.
    pub fn new(models: Vec<ChaosModel>, config: ChaosConfig) -> ChaosHarness {
        assert!(!models.is_empty(), "chaos harness needs at least one model");
        let devices = Arc::new(DeviceSet::cpu_only());
        // Baselines BEFORE any model loads: finish() must return here.
        let prepack_baseline = prepack::cache_len();
        let pool_baseline = pool_live_bytes(&devices);
        let registry = Arc::new(ModelRegistry::new(RegistryConfig {
            cache_dir: None,
            engine: config.engine.clone(),
            shards: config.shards.clone(),
            devices: Arc::clone(&devices),
            // The specialize episode attaches (and fully tears down) its
            // own specializer with explicit quiesce fences; a registry-
            // owned one would tune at wall-clock-dependent times and
            // break transcript replay.
            specialize: None,
        }));
        let router = Router::new(Arc::clone(&registry), RouterConfig::default());
        let mut harness = ChaosHarness {
            rng: StdRng::seed_from_u64(config.seed),
            versions: vec![0; models.len()],
            packs: vec![0; models.len()],
            tallies: models
                .iter()
                .map(|m| (m.name.clone(), ChaosCounts::default()))
                .collect(),
            config,
            devices,
            registry,
            router,
            models,
            prepack_baseline,
            pool_baseline,
            events: Vec::new(),
            episode: 0,
        };
        for idx in 0..harness.models.len() {
            harness.register_version(idx);
        }
        harness
    }

    /// The router under test (for extra traffic or metric scrapes).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Run `config.episodes` seeded episodes, quiescing and checking the
    /// invariants after each, then tear down and verify the memory
    /// baselines. Returns the deterministic transcript.
    ///
    /// # Panics
    /// On any invariant violation — that is the harness's job.
    pub fn run(mut self) -> ChaosReport {
        // The first `KINDS.len()` episodes deal every kind once, in seeded
        // order, so even a short run exercises each fault; then draw freely.
        let mut deal: Vec<usize> = (0..KINDS.len()).collect();
        deal.shuffle(&mut self.rng);
        for _ in 0..self.config.episodes {
            let kind = match deal.get(self.episode as usize) {
                Some(&kind) => kind,
                None => self.rng.gen_range(0..KINDS.len()),
            };
            self.episode += 1;
            let model = self.rng.gen_range(0..self.models.len());
            let _span =
                nimble_obs::span_full(KINDS[kind], Category::Chaos, u64::from(self.episode));
            // While an episode is open, every request the harness drives
            // finishes inside a chaos scope and is retained by the flight
            // recorder. Events go to the global log only — never into the
            // ChaosReport, which stays byte-identical per seed.
            let _chaos = nimble_obs::flight::episode_scope();
            nimble_obs::events::emit(
                "chaos_episode",
                &self.models[model].name,
                &[
                    ("kind", nimble_obs::events::FieldVal::Str(KINDS[kind])),
                    (
                        "episode",
                        nimble_obs::events::FieldVal::U64(u64::from(self.episode)),
                    ),
                ],
            );
            match kind {
                0 => self.episode_burst(model),
                1 => self.episode_kill(model),
                2 => self.episode_storm(model),
                3 => self.episode_hot_swap(model),
                4 => self.episode_scale(model),
                5 => self.episode_kill_batch(model),
                _ => self.episode_specialize(model),
            }
            self.check_quiesced();
        }
        self.finish()
    }

    fn shards(&self, model: usize) -> Arc<ShardSet> {
        let name = &self.models[model].name;
        Arc::clone(
            self.registry
                .get(name)
                .unwrap_or_else(|| panic!("model {name} vanished"))
                .shards(),
        )
    }

    /// Register the next version of `model` and track its pack count.
    fn register_version(&mut self, model: usize) {
        let v = self.versions[model];
        self.versions[model] += 1;
        let module = (self.models[model].module)(v);
        let name = self.models[model].name.clone();
        self.registry
            .register_with_batch(
                &name,
                &format!("v{v}"),
                &module,
                &CompileOptions::default(),
                self.models[model].batch.clone(),
            )
            .unwrap_or_else(|e| panic!("register {name}@v{v}: {e}"));
        self.packs[model] = self
            .registry
            .get(&name)
            .unwrap()
            .vm()
            .executable()
            .weight_buffer_ids()
            .len();
    }

    /// Submit `n` requests to `model` through the router, tallying sheds;
    /// returns the admitted tickets.
    fn submit_n(&mut self, model: usize, n: usize, deadline: Option<Duration>) -> Vec<ServeTicket> {
        let name = self.models[model].name.clone();
        let mut tickets = Vec::with_capacity(n);
        for _ in 0..n {
            let args = (self.models[model].request)(&mut self.rng);
            let deadline = deadline.map(|d| Instant::now() + d);
            let tally = self.tallies.get_mut(&name).unwrap();
            match self.router.submit_with_deadline(&name, args, deadline) {
                Ok(t) => {
                    tally.accepted += 1;
                    tickets.push(t);
                }
                Err(Rejected::QueueFull) => tally.shed_queue_full += 1,
                Err(Rejected::Expired) => tally.shed_expired += 1,
                Err(e) => panic!("unexpected admission rejection: {e}"),
            }
        }
        tickets
    }

    /// Wait every ticket to its terminal state, tallying outcomes.
    fn wait_all(&mut self, model: usize, tickets: Vec<ServeTicket>) {
        let name = self.models[model].name.clone();
        for t in tickets {
            let tally = self.tallies.get_mut(&name).unwrap();
            match t.wait() {
                Ok(completion) => {
                    if completion.result.is_ok() {
                        tally.completed += 1;
                    } else {
                        tally.failed += 1;
                    }
                }
                Err(Rejected::Expired) => tally.expired += 1,
                // Replica death the requeue path could not absorb.
                Err(Rejected::Unloaded) => tally.failed += 1,
                Err(e) => panic!("unexpected terminal rejection: {e}"),
            }
        }
    }

    /// Plain burst: pause (so admission sees exact depths), submit within
    /// capacity, release, drain. Everything must complete.
    fn episode_burst(&mut self, model: usize) {
        let shards = self.shards(model);
        let capacity = shards.len() * self.config.engine.queue_capacity;
        let n = self.config.burst.min(capacity);
        shards.pause_all();
        let tickets = self.submit_n(model, n, None);
        shards.resume_all();
        let accepted = tickets.len();
        self.wait_all(model, tickets);
        self.push_event(model, format!("burst n={n} accepted={accepted}"));
    }

    /// Replica kill mid-burst: pause, load both replicas, kill a seeded
    /// victim while it holds queued work, release. The victim's queued
    /// requests must resolve by requeue onto survivors — the burst stays
    /// within one survivor's capacity, so no requeue can shed.
    fn episode_kill(&mut self, model: usize) {
        self.kill_episode(model, "kill");
    }

    /// Replica kill while the victim's queue holds would-be batch
    /// members: same orphan contract as `episode_kill`, but against a
    /// model whose replicas batch, so the orphans are members of forming
    /// batches. Survivors re-admit them (and may batch them again);
    /// `lost` must stay 0. Without any batching model in the set this
    /// degrades to a plain kill (still a valid, deterministic episode).
    fn episode_kill_batch(&mut self, model: usize) {
        let model = if self.models[model].batch.is_some() {
            model
        } else {
            (0..self.models.len())
                .find(|&i| self.models[i].batch.is_some())
                .unwrap_or(model)
        };
        self.kill_episode(model, "kill_batch");
    }

    fn kill_episode(&mut self, model: usize, label: &str) {
        let shards = self.shards(model);
        if shards.len() < 2 {
            // A prior scale-down may have left one replica; grow back so
            // there is a survivor to requeue onto.
            shards.scale_up().expect("scale_up for kill episode");
        }
        let n = self.config.burst.min(self.config.engine.queue_capacity);
        shards.pause_all();
        let tickets = self.submit_n(model, n, None);
        let ids = shards.replica_ids();
        let victim = ids[self.rng.gen_range(0..ids.len())];
        let orphans = shards
            .stats()
            .replicas
            .iter()
            .find(|r| r.id == victim)
            .map_or(0, |r| r.engine.queue_depth);
        assert!(shards.kill(victim), "victim {victim} not live");
        shards.resume_all();
        let accepted = tickets.len();
        self.wait_all(model, tickets);
        self.tallies
            .get_mut(&self.models[model].name.clone())
            .unwrap()
            .requeued += orphans;
        self.push_event(
            model,
            format!("{label} replica={victim} orphans={orphans} accepted={accepted}"),
        );
    }

    /// Deadline storm: pause, oversubmit with a short deadline (overflow
    /// sheds QueueFull deterministically against frozen queues), sleep far
    /// past the deadline, release. Every admitted request must expire.
    fn episode_storm(&mut self, model: usize) {
        let shards = self.shards(model);
        let capacity = shards.len() * self.config.engine.queue_capacity;
        let n = capacity + self.config.burst;
        shards.pause_all();
        let tickets = self.submit_n(model, n, Some(self.config.storm_deadline));
        std::thread::sleep(self.config.storm_wait);
        shards.resume_all();
        let accepted = tickets.len();
        self.wait_all(model, tickets);
        self.push_event(
            model,
            format!("storm n={n} accepted={accepted} shed={}", n - accepted),
        );
    }

    /// Hot-swap mid-traffic: launch a burst, swap in the next version
    /// while it is in flight. The displaced version drains gracefully, so
    /// every accepted request still completes; the prepack cache must end
    /// holding exactly the new version's panels.
    fn episode_hot_swap(&mut self, model: usize) {
        let n = self.config.burst.min(self.config.engine.queue_capacity);
        let tickets = self.submit_n(model, n, None);
        self.register_version(model);
        let accepted = tickets.len();
        self.wait_all(model, tickets);
        let v = self.versions[model] - 1;
        self.push_event(model, format!("hot_swap to=v{v} in_flight={accepted}"));
    }

    /// Autoscaler pressure cycle: freeze, build a backlog past the
    /// scale-up threshold, tick (expect growth), release and drain, then
    /// tick through the idle streak (expect a bounded retire). Decisions
    /// are recorded in the transcript — hysteresis keeps them bounded.
    fn episode_scale(&mut self, model: usize) {
        let shards = self.shards(model);
        let need = self.config.shards.autoscaler.queue_high as usize * shards.len();
        let n = need.min(shards.len() * self.config.engine.queue_capacity);
        shards.pause_all();
        let tickets = self.submit_n(model, n, None);
        let up = shards.autoscale_tick();
        shards.resume_all();
        self.wait_all(model, tickets);
        let mut decisions = vec![up];
        for _ in 0..(self.config.shards.autoscaler.idle_ticks
            + self.config.shards.autoscaler.cooldown_ticks
            + 2)
        {
            decisions.push(shards.autoscale_tick());
        }
        let rendered: Vec<String> = decisions
            .iter()
            .map(|d| match d {
                Some(crate::shard::ScaleDecision::Up(id)) => format!("up:{id}"),
                Some(crate::shard::ScaleDecision::Down(id)) => format!("down:{id}"),
                None => "-".to_string(),
            })
            .collect();
        self.push_event(
            model,
            format!("scale backlog={n} decisions=[{}]", rendered.join(",")),
        );
    }

    /// Specialize churn: attach a low-threshold specializer to the
    /// model's live VM, drive seeded traffic until hot shapes tune and
    /// install (quiescing the tuner so its outcomes are settled off the
    /// request path), dispatch through the installed kernels, force a
    /// full eviction, then hot-swap mid-traffic and tear the specializer
    /// down. Books must balance, tune outcomes must account exactly once
    /// (`installs + rejected == tunes`), and every specialized prepack
    /// layout must be released by episode end — the post-episode quiesce
    /// check then sees exactly the live models' base panels. The event
    /// line logs only structurally deterministic values: batch formation
    /// makes raw hit/tune counts timing-dependent for batched models.
    fn episode_specialize(&mut self, model: usize) {
        let name = self.models[model].name.clone();
        let entry = self
            .registry
            .get(&name)
            .unwrap_or_else(|| panic!("model {name} vanished"));
        let spec = ModelSpecializer::attach(
            entry.vm(),
            SpecializeConfig {
                hit_threshold: 2,
                max_trials: 4,
                repeats: 1,
                ..SpecializeConfig::default()
            },
        );
        drop(entry);
        let n = self.config.burst.min(self.config.engine.queue_capacity);
        // Warm phase: every executed request is observed; hot shapes
        // cross the threshold and enqueue background tunes.
        let tickets = self.submit_n(model, n, None);
        let warm_accepted = tickets.len();
        self.wait_all(model, tickets);
        if let Some(spec) = &spec {
            spec.quiesce();
            let s = spec.stats();
            assert_eq!(
                s.installs + s.rejected,
                s.tunes,
                "{name}: tune outcomes leaked\n{}",
                self.transcript()
            );
            // Hot phase: the same mix now dispatches through whatever
            // installed (bitwise-verified) kernels the tuner produced.
            let tickets = self.submit_n(model, n, None);
            self.wait_all(model, tickets);
            // Eviction: dropping every tracked shape must release the
            // installed kernels' extra prepack layouts with them.
            spec.evict_all();
            let s = spec.stats();
            assert_eq!(
                s.cache_len,
                0,
                "{name}: evict_all left entries\n{}",
                self.transcript()
            );
            assert_eq!(
                s.extra_pack_entries,
                0,
                "{name}: eviction stranded specialized panels\n{}",
                self.transcript()
            );
        }
        // Hot-swap mid-traffic: requests are in flight when the
        // specializer is torn down and the next version swapped in.
        // Shutdown precedes the swap — the same order the registry's own
        // retire path uses — so no late tune can re-create panels after
        // the outgoing version's buffers are released.
        let tickets = self.submit_n(model, n, None);
        if let Some(spec) = &spec {
            spec.shutdown();
            assert_eq!(
                spec.stats().extra_pack_entries,
                0,
                "{name}: shutdown stranded specialized panels\n{}",
                self.transcript()
            );
        }
        self.register_version(model);
        let swap_in_flight = tickets.len();
        self.wait_all(model, tickets);
        let v = self.versions[model] - 1;
        self.push_event(
            model,
            format!(
                "specialize attached={} warm={warm_accepted} swap to=v{v} in_flight={swap_in_flight}",
                spec.is_some()
            ),
        );
    }

    fn push_event(&mut self, model: usize, detail: String) {
        self.events.push(format!(
            "ep{} {} {detail}",
            self.episode, self.models[model].name
        ));
    }

    /// The post-episode invariant wall. Panics with the failing episode's
    /// transcript on any violation.
    fn check_quiesced(&mut self) {
        let stats = self.router.stats();
        for (name, tally) in &self.tallies {
            let m = stats
                .models
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing from router stats"));
            // Exactly-once: the router's books agree with the client's,
            // bucket for bucket, and nothing is lost.
            assert_eq!(m.lost, 0, "{name}: lost requests\n{}", self.transcript());
            assert_eq!(
                m.accepted,
                m.completed + m.failed + m.expired,
                "{name}: accounting leak\n{}",
                self.transcript()
            );
            // Batch-mode accounting: every terminal wait() recorded its
            // batch size exactly once, whether it ran batched or solo.
            assert_eq!(
                m.batched + m.unbatched,
                m.completed + m.failed,
                "{name}: batch-size accounting leak\n{}",
                self.transcript()
            );
            for (label, got, want) in [
                ("accepted", m.accepted, tally.accepted),
                ("completed", m.completed, tally.completed),
                ("failed", m.failed, tally.failed),
                ("expired", m.expired, tally.expired),
                ("requeued", m.requeued, tally.requeued),
                (
                    "shed_queue_full",
                    m.rejected_queue_full,
                    tally.shed_queue_full,
                ),
                ("shed_expired", m.rejected_expired, tally.shed_expired),
            ] {
                assert_eq!(
                    got,
                    want,
                    "{name}: router {label}={got} != client {want}\n{}",
                    self.transcript()
                );
            }
        }
        // Memory: no storage checked out of any live replica's arenas,
        // and the prepack cache holds exactly the live models' panels.
        for idx in 0..self.models.len() {
            let live = self.shards(idx).arena_stats().live_bytes;
            assert_eq!(
                live,
                0,
                "{}: {live} arena bytes live at quiesce\n{}",
                self.models[idx].name,
                self.transcript()
            );
        }
        let expected_packs: usize = self.packs.iter().sum();
        assert_eq!(
            prepack::cache_len(),
            self.prepack_baseline + expected_packs,
            "prepack cache drifted\n{}",
            self.transcript()
        );
    }

    /// Tear down the stack and assert prepack and device-pool memory are
    /// back at the pre-load baseline; returns the final report.
    fn finish(self) -> ChaosReport {
        self.router.shutdown();
        assert_eq!(
            prepack::cache_len(),
            self.prepack_baseline,
            "prepack cache did not return to baseline\n{}",
            self.transcript()
        );
        let live = pool_live_bytes(&self.devices);
        assert_eq!(
            live,
            self.pool_baseline,
            "device pools hold {live} bytes (baseline {})\n{}",
            self.pool_baseline,
            self.transcript()
        );
        ChaosReport {
            events: self.events,
            accounting: self.tallies,
        }
    }

    fn transcript(&self) -> String {
        self.events.join("\n")
    }
}

fn pool_live_bytes(devices: &DeviceSet) -> u64 {
    devices.pool(DeviceId::Cpu).stats().live_bytes + devices.pool(DeviceId::Gpu).stats().live_bytes
}
