//! Replicated serving shards: N engine replicas behind one model name.
//!
//! One engine is a single node; "millions of users" needs replicas. A
//! [`ShardSet`] owns N [`Engine`] replicas over one shared loaded program
//! (the VM is immutable `Send + Sync`, so replicas duplicate only queues,
//! workers, and storage arenas — never weights) and balances admissions
//! with **power-of-two-choices** on live queue depth: draw two distinct
//! replicas from a seeded deterministic RNG, probe their queue depths,
//! and admit to the shallower one (ties break toward the lower replica
//! id). P2C gives near-best-of-N tail behavior at O(1) probe cost and —
//! because the RNG is seeded per shard set — a fully deterministic pick
//! sequence when callers are serialized, which is what the chaos
//! harness's replay guarantee is built on.
//!
//! Replica lifecycle is explicit and always accounted:
//!
//! * [`ShardSet::scale_up`] adds a replica (autoscaler or operator);
//! * [`ShardSet::retire`] drains one gracefully (queued work completes)
//!   — the same hot-swap retirement path the registry uses;
//! * [`ShardSet::kill`] is the chaos primitive: the replica dies holding
//!   its queue, queued tickets resolve [`EngineError::Closed`], and the
//!   router's [`crate::ServeTicket`] *requeues* them onto a surviving
//!   replica — a request is failed only when no replica is left to take
//!   it, and is never silently lost.
//!
//! The set only places requests: what happens to one after admission is
//! the router's business.
//!
//! Every lifecycle transition lands in an event log ([`ShardEvent`]) and
//! the per-replica accepted counters survive retirement inside those
//! events, so `Σ replica accepted == shard accepted + requeues` is
//! checkable at any quiesce point (the `shard_props` property test does).

use nimble_core::{Engine, EngineConfig, EngineError, EngineStats, Ticket};
use nimble_obs::events::{emit, FieldVal};
use nimble_vm::{ArenaStats, BatchPlan, Object, ProfileReport, VirtualMachine};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Shape of a model's replica set.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Replicas spawned at registration (clamped to at least 1).
    pub replicas: usize,
    /// The autoscaler never drains below this many replicas.
    pub min_replicas: usize,
    /// Neither the autoscaler nor [`ShardSet::scale_up`] grows past this.
    pub max_replicas: usize,
    /// Seed of the deterministic power-of-two-choices RNG.
    pub seed: u64,
    /// Autoscaler thresholds and hysteresis.
    pub autoscaler: AutoscalerConfig,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            replicas: 1,
            min_replicas: 1,
            max_replicas: 8,
            seed: 0x5bd1_e995,
            autoscaler: AutoscalerConfig::default(),
        }
    }
}

/// Autoscaler thresholds. Scale-up triggers on queue pressure (depth per
/// replica, or cumulative queue-wait growth between ticks); scale-down
/// requires a sustained idle streak. Both are rate-limited by a cooldown
/// and an event budget per window so a load spike followed by an
/// immediate drop cannot flap replicas.
#[derive(Debug, Clone)]
pub struct AutoscalerConfig {
    /// Scale up when mean queue depth per replica reaches this.
    pub queue_high: u64,
    /// Scale up when `total_queue_ns` grew by more than this since the
    /// previous tick (`u64::MAX` disables the wait-growth trigger — the
    /// chaos harness does, because wall-clock growth is not replayable).
    pub queue_ns_growth_high: u64,
    /// Consecutive idle ticks (zero depth, zero completions) required
    /// before one replica is retired.
    pub idle_ticks: u32,
    /// Minimum ticks between any two scale events.
    pub cooldown_ticks: u32,
    /// Sliding-window length for the event budget.
    pub window_ticks: u32,
    /// Max scale events (adds + retires) per window.
    pub max_events_per_window: u32,
}

impl Default for AutoscalerConfig {
    fn default() -> AutoscalerConfig {
        AutoscalerConfig {
            queue_high: 4,
            queue_ns_growth_high: 50_000_000, // 50 ms of queue wait per tick
            idle_ticks: 3,
            cooldown_ticks: 2,
            window_ticks: 10,
            max_events_per_window: 2,
        }
    }
}

/// What one autoscaler tick decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Added the replica with this id.
    Up(u64),
    /// Began graceful retirement of the replica with this id.
    Down(u64),
}

/// One replica-set lifecycle transition. `accepted` on the terminal
/// events preserves the dead replica's admission count so conservation
/// sums stay checkable after it is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardEvent {
    /// A replica joined the set (initial spawn, scale-up, or operator).
    Added { replica: u64 },
    /// A replica was drained gracefully and left the set.
    Retired { replica: u64, accepted: u64 },
    /// A replica was killed holding its queue (chaos).
    Killed { replica: u64, accepted: u64 },
}

/// One live engine replica.
pub struct Replica {
    id: u64,
    engine: Arc<Engine>,
    /// Requests this replica admitted (first-time and requeued alike).
    accepted: AtomicU64,
}

impl Replica {
    /// Stable replica id within its shard set.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The engine serving this replica.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }
}

/// Point-in-time view of one live replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Replica id.
    pub id: u64,
    /// Requests this replica admitted.
    pub accepted: u64,
    /// Engine counters (queue depth, completed, expired, closed, …).
    pub engine: EngineStats,
}

/// Snapshot of a shard set: live replicas, lifecycle history, and the
/// conservation counters.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Live replicas, sorted by id.
    pub replicas: Vec<ReplicaStats>,
    /// Lifecycle event log since creation.
    pub events: Vec<ShardEvent>,
    /// Requests admitted by the shard set (each counted once, at first
    /// admission).
    pub accepted: u64,
    /// Successful re-admissions of requests orphaned by a replica death.
    pub requeued: u64,
}

impl ShardStats {
    /// Σ live replica accepted + accepted preserved in terminal events.
    /// Conservation: equals `accepted + requeued` at any quiesce point.
    pub fn replica_accepted_sum(&self) -> u64 {
        let live: u64 = self.replicas.iter().map(|r| r.accepted).sum();
        let dead: u64 = self
            .events
            .iter()
            .map(|e| match e {
                ShardEvent::Retired { accepted, .. } | ShardEvent::Killed { accepted, .. } => {
                    *accepted
                }
                ShardEvent::Added { .. } => 0,
            })
            .sum();
        live + dead
    }

    /// Lifecycle event counts as `(added, retired, killed)`.
    pub fn event_counts(&self) -> (u64, u64, u64) {
        let mut counts = (0, 0, 0);
        for e in &self.events {
            match e {
                ShardEvent::Added { .. } => counts.0 += 1,
                ShardEvent::Retired { .. } => counts.1 += 1,
                ShardEvent::Killed { .. } => counts.2 += 1,
            }
        }
        counts
    }
}

/// Autoscaler hysteresis state (guarded by one mutex so tick order is the
/// only thing that matters — ticks from a single driver are replayable).
#[derive(Debug, Default)]
struct ScalerState {
    tick: u64,
    last_event_tick: u64,
    has_event: bool,
    idle_streak: u32,
    window_start: u64,
    window_events: u32,
    last_queue_ns: u64,
    last_completed: u64,
}

/// N engine replicas over one shared loaded program, behind
/// power-of-two-choices admission.
pub struct ShardSet {
    vm: Arc<VirtualMachine>,
    engine_config: EngineConfig,
    config: ShardConfig,
    /// Batch plan handed to every replica (None = unbatched serving).
    plan: Option<Arc<BatchPlan>>,
    replicas: RwLock<Vec<Arc<Replica>>>,
    next_id: AtomicU64,
    /// splitmix64 state for the P2C draws (seeded, hence replayable when
    /// submissions are serialized).
    rng: Mutex<u64>,
    events: Mutex<Vec<ShardEvent>>,
    accepted: AtomicU64,
    requeued: AtomicU64,
    scaler: Mutex<ScalerState>,
    /// Model name for structured lifecycle events (set by the registry at
    /// install; empty until then).
    label: RwLock<String>,
    /// Concrete shape keys ever admitted — a request carrying a key not
    /// in this set is this set's first sight of the shape and gets its
    /// flight-recorder buffer pinned ([`nimble_obs::flight::PIN_NEW_SHAPE`]).
    seen_shapes: Mutex<BTreeSet<u64>>,
}

impl std::fmt::Debug for ShardSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSet")
            .field("replicas", &self.replicas.read().unwrap().len())
            .field("accepted", &self.accepted.load(Ordering::Relaxed))
            .finish()
    }
}

/// Concrete leading-dimension product ("rows") of the first tensor
/// argument. `None` when the first argument is not a tensor or is rank 0.
fn rows_key(args: &[Object]) -> Option<usize> {
    let dims = args.first()?.tensor_shape().ok()?;
    if dims.is_empty() {
        return None;
    }
    Some(dims[..dims.len() - 1].iter().product())
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ShardSet {
    /// Spawn `config.replicas` replicas (at least one) serving `vm`.
    ///
    /// # Errors
    /// Propagates engine-spawn failures.
    pub fn new(
        vm: Arc<VirtualMachine>,
        engine_config: EngineConfig,
        config: ShardConfig,
    ) -> nimble_core::Result<ShardSet> {
        ShardSet::with_plan(vm, engine_config, config, None)
    }

    /// Like [`ShardSet::new`], but every replica batches same-bucket
    /// requests per `plan` (each replica batches its own queue; the plan
    /// itself is shared, immutable).
    ///
    /// # Errors
    /// Propagates engine-spawn failures.
    pub fn with_plan(
        vm: Arc<VirtualMachine>,
        engine_config: EngineConfig,
        config: ShardConfig,
        plan: Option<Arc<BatchPlan>>,
    ) -> nimble_core::Result<ShardSet> {
        let initial = config.replicas.max(1);
        let set = ShardSet {
            vm,
            engine_config,
            rng: Mutex::new(config.seed),
            config,
            plan,
            replicas: RwLock::new(Vec::new()),
            next_id: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
            accepted: AtomicU64::new(0),
            requeued: AtomicU64::new(0),
            scaler: Mutex::new(ScalerState::default()),
            label: RwLock::new(String::new()),
            seen_shapes: Mutex::new(BTreeSet::new()),
        };
        for _ in 0..initial {
            set.spawn_replica()?;
        }
        Ok(set)
    }

    /// The shared loaded program.
    pub fn vm(&self) -> &Arc<VirtualMachine> {
        &self.vm
    }

    /// Name this set's structured lifecycle events with its model
    /// (registry wiring, at install).
    pub fn set_label(&self, model: &str) {
        model.clone_into(&mut self.label.write().unwrap());
    }

    /// Emit one structured lifecycle event tagged with this set's model.
    fn emit_event(&self, kind: &str, fields: &[(&str, FieldVal)]) {
        let label = self.label.read().unwrap();
        emit(kind, &label, fields);
    }

    fn spawn_replica(&self) -> nimble_core::Result<u64> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let engine = Arc::new(Engine::with_plan(
            Arc::clone(&self.vm),
            self.engine_config.clone(),
            self.plan.clone(),
        )?);
        engine.set_replica_label(id);
        let replica = Arc::new(Replica {
            id,
            engine,
            accepted: AtomicU64::new(0),
        });
        self.replicas.write().unwrap().push(replica);
        self.events
            .lock()
            .unwrap()
            .push(ShardEvent::Added { replica: id });
        self.emit_event("replica_added", &[("replica", FieldVal::U64(id))]);
        Ok(id)
    }

    /// Add one replica; returns its id, or `None` at `max_replicas`.
    ///
    /// # Errors
    /// Propagates engine-spawn failures.
    pub fn scale_up(&self) -> nimble_core::Result<Option<u64>> {
        if self.replicas.read().unwrap().len() >= self.config.max_replicas {
            return Ok(None);
        }
        self.spawn_replica().map(Some)
    }

    /// Gracefully drain and remove replica `id` (queued work completes —
    /// the hot-swap retirement path). Returns `false` when `id` is not
    /// live or removing it would drop below `min_replicas`.
    pub fn retire(&self, id: u64) -> bool {
        let Some(replica) = self.take_replica(id, true) else {
            return false;
        };
        replica.engine.shutdown();
        let accepted = replica.accepted.load(Ordering::Relaxed);
        self.events.lock().unwrap().push(ShardEvent::Retired {
            replica: id,
            accepted,
        });
        self.emit_event(
            "replica_retired",
            &[
                ("replica", FieldVal::U64(id)),
                ("accepted", FieldVal::U64(accepted)),
            ],
        );
        true
    }

    /// Kill replica `id` abruptly — the chaos "replica dies" primitive.
    /// Its queued requests resolve [`EngineError::Closed`] and the router
    /// requeues them onto survivors. Ignores `min_replicas`
    /// (chaos does not ask permission); returns `false` when `id` is not
    /// live.
    pub fn kill(&self, id: u64) -> bool {
        let Some(replica) = self.take_replica(id, false) else {
            return false;
        };
        replica.engine.kill();
        let accepted = replica.accepted.load(Ordering::Relaxed);
        self.events.lock().unwrap().push(ShardEvent::Killed {
            replica: id,
            accepted,
        });
        self.emit_event(
            "replica_killed",
            &[
                ("replica", FieldVal::U64(id)),
                ("accepted", FieldVal::U64(accepted)),
            ],
        );
        true
    }

    /// Remove one replica from the live set (engine teardown happens
    /// outside the lock, in the caller).
    fn take_replica(&self, id: u64, respect_min: bool) -> Option<Arc<Replica>> {
        let mut live = self.replicas.write().unwrap();
        if respect_min && live.len() <= self.config.min_replicas {
            return None;
        }
        let idx = live.iter().position(|r| r.id == id)?;
        Some(live.remove(idx))
    }

    /// Freeze every live replica between requests (see
    /// [`Engine::pause_and_wait`]); returns once all workers are parked.
    pub fn pause_all(&self) {
        let live: Vec<Arc<Replica>> = self.replicas.read().unwrap().clone();
        for r in &live {
            r.engine.pause_and_wait();
        }
    }

    /// Reopen every live replica's pause gate.
    pub fn resume_all(&self) {
        let live: Vec<Arc<Replica>> = self.replicas.read().unwrap().clone();
        for r in &live {
            r.engine.resume();
        }
    }

    /// Drain every replica gracefully (registry unload / hot-swap / drop
    /// path). Replicas stay listed so late tickets resolve `Closed`
    /// instead of dangling; the set accepts no further work.
    pub fn shutdown(&self) {
        let live: Vec<Arc<Replica>> = self.replicas.read().unwrap().clone();
        for r in &live {
            r.engine.shutdown();
        }
    }

    /// Ids of the live replicas, sorted.
    pub fn replica_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.replicas.read().unwrap().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids
    }

    /// Live replica count.
    pub fn len(&self) -> usize {
        self.replicas.read().unwrap().len()
    }

    /// Whether no replica is live.
    pub fn is_empty(&self) -> bool {
        self.replicas.read().unwrap().is_empty()
    }

    /// The lowest-id live replica — the single-replica compatibility
    /// handle ([`crate::ModelEntry::engine`] delegates here).
    pub fn primary(&self) -> Option<Arc<Replica>> {
        self.replicas
            .read()
            .unwrap()
            .iter()
            .min_by_key(|r| r.id)
            .cloned()
    }

    /// Admit a request to the least-loaded of two sampled replicas;
    /// returns the engine ticket and the admitting replica's id.
    ///
    /// # Errors
    /// [`EngineError::Busy`] when both probed queues are full,
    /// [`EngineError::Closed`] when no replica is live.
    pub fn submit(
        &self,
        function: &str,
        args: &[Object],
        deadline: Option<Instant>,
    ) -> Result<(Ticket, u64), EngineError> {
        let admitted = self.admit(function, args, deadline)?;
        self.accepted.fetch_add(1, Ordering::Relaxed);
        // First sight of a concrete shape key is always interesting: pin
        // the admitting request's flight buffer so the trace that
        // exercised the new shape is retained regardless of its latency.
        // Only a traced request has a buffer to pin, so the untraced path
        // hashes no key and takes no lock.
        let ctx = nimble_obs::current();
        if ctx.is_sampled() {
            if let Some(rows) = rows_key(args) {
                if self.seen_shapes.lock().unwrap().insert(rows as u64) {
                    nimble_obs::flight::pin(ctx, nimble_obs::flight::PIN_NEW_SHAPE);
                }
            }
        }
        Ok(admitted)
    }

    /// Re-admit a request orphaned by a replica death (counted in
    /// [`ShardStats::requeued`], not `accepted`).
    pub(crate) fn requeue(
        &self,
        function: &str,
        args: &[Object],
        deadline: Option<Instant>,
    ) -> Result<(Ticket, u64), EngineError> {
        let admitted = self.admit(function, args, deadline)?;
        self.requeued.fetch_add(1, Ordering::Relaxed);
        Ok(admitted)
    }

    /// One admission attempt: P2C pick, then try the shallower queue and
    /// fall back to the deeper one. Replicas that turn out dead are
    /// skipped and the pick retried.
    fn admit(
        &self,
        function: &str,
        args: &[Object],
        deadline: Option<Instant>,
    ) -> Result<(Ticket, u64), EngineError> {
        let live: Vec<Arc<Replica>> = self.replicas.read().unwrap().clone();
        if live.is_empty() {
            return Err(EngineError::Closed);
        }
        // Shape-affinity hint: the bucket this request would batch into,
        // if the set batches this function at all.
        let bucket = self
            .plan
            .as_ref()
            .filter(|p| p.function == function)
            .and_then(|p| p.bucket_of(args));
        // A dead pick retries; bound by the snapshot size.
        for _ in 0..=live.len() {
            let (first, second) = self.pick_two(&live, bucket);
            match self.try_replica(&first, function, args, deadline) {
                Ok(t) => return Ok((t, first.id)),
                Err(EngineError::Busy) => {
                    let Some(second) = second else {
                        return Err(EngineError::Busy);
                    };
                    match self.try_replica(&second, function, args, deadline) {
                        Ok(t) => return Ok((t, second.id)),
                        Err(EngineError::Busy) => return Err(EngineError::Busy),
                        Err(_) => continue,
                    }
                }
                Err(_) => continue,
            }
        }
        Err(EngineError::Closed)
    }

    /// Power-of-two-choices with a shape-aware tie-break: the shallower
    /// of two RNG-sampled distinct replicas first; at equal depth, prefer
    /// the replica whose last-formed batch bucket matches the incoming
    /// request's bucket (its next batch pads less and forms faster), then
    /// the lower id. The other replica stays as fallback.
    fn pick_two(
        &self,
        live: &[Arc<Replica>],
        bucket: Option<usize>,
    ) -> (Arc<Replica>, Option<Arc<Replica>>) {
        let n = live.len();
        if n == 1 {
            return (Arc::clone(&live[0]), None);
        }
        let (a, b) = {
            let mut rng = self.rng.lock().unwrap();
            let i = (splitmix64(&mut rng) % n as u64) as usize;
            let mut j = (splitmix64(&mut rng) % (n as u64 - 1)) as usize;
            if j >= i {
                j += 1;
            }
            (Arc::clone(&live[i]), Arc::clone(&live[j]))
        };
        let rank = |r: &Replica| {
            let affinity_miss = bucket.is_none() || r.engine.last_formed_bucket() != bucket;
            (r.engine.queue_depth(), affinity_miss, r.id)
        };
        if rank(&a) <= rank(&b) {
            (a, Some(b))
        } else {
            (b, Some(a))
        }
    }

    fn try_replica(
        &self,
        replica: &Replica,
        function: &str,
        args: &[Object],
        deadline: Option<Instant>,
    ) -> Result<Ticket, EngineError> {
        let ticket = replica
            .engine
            .try_submit(function, args.to_vec(), deadline)?;
        replica.accepted.fetch_add(1, Ordering::Relaxed);
        Ok(ticket)
    }

    /// One autoscaler step, driven by the owner (a serving loop, or the
    /// chaos harness — tick order is the only clock, so seeded runs
    /// replay). Applies the decision (spawn / graceful retire of the
    /// newest replica) before returning it.
    pub fn autoscale_tick(&self) -> Option<ScaleDecision> {
        let cfg = &self.config.autoscaler;
        let mut st = self.scaler.lock().unwrap();
        st.tick += 1;
        if st.tick - st.window_start >= u64::from(cfg.window_ticks) {
            st.window_start = st.tick;
            st.window_events = 0;
        }

        let (n, depth, queue_ns, completed) = {
            let live = self.replicas.read().unwrap();
            let mut depth = 0u64;
            let mut queue_ns = 0u64;
            let mut completed = 0u64;
            for r in live.iter() {
                let s = r.engine.stats();
                depth += s.queue_depth;
                queue_ns += s.total_queue_ns;
                completed += s.completed;
            }
            (live.len(), depth, queue_ns, completed)
        };
        let growth = queue_ns.saturating_sub(st.last_queue_ns);
        let completions = completed.saturating_sub(st.last_completed);
        st.last_queue_ns = queue_ns;
        st.last_completed = completed;

        let busy = n > 0
            && (depth >= cfg.queue_high.saturating_mul(n as u64)
                || (cfg.queue_ns_growth_high != u64::MAX && growth > cfg.queue_ns_growth_high));
        let idle = depth == 0 && completions == 0;
        st.idle_streak = if idle { st.idle_streak + 1 } else { 0 };

        let cooled = !st.has_event || st.tick - st.last_event_tick >= u64::from(cfg.cooldown_ticks);
        let in_budget = st.window_events < cfg.max_events_per_window;
        if !(cooled && in_budget) {
            return None;
        }

        if busy && n < self.config.max_replicas {
            drop(st);
            let id = self.scale_up().ok().flatten()?;
            let mut st = self.scaler.lock().unwrap();
            st.has_event = true;
            st.last_event_tick = st.tick;
            st.window_events += 1;
            drop(st);
            self.emit_event(
                "autoscale",
                &[
                    ("decision", FieldVal::Str("up")),
                    ("replica", FieldVal::U64(id)),
                ],
            );
            return Some(ScaleDecision::Up(id));
        }
        if st.idle_streak >= cfg.idle_ticks && n > self.config.min_replicas {
            // Retire the newest replica (highest id): the oldest keeps
            // the warmest arenas.
            let victim = *self.replica_ids().last()?;
            st.idle_streak = 0;
            drop(st);
            if !self.retire(victim) {
                return None;
            }
            let mut st = self.scaler.lock().unwrap();
            st.has_event = true;
            st.last_event_tick = st.tick;
            st.window_events += 1;
            drop(st);
            self.emit_event(
                "autoscale",
                &[
                    ("decision", FieldVal::Str("down")),
                    ("replica", FieldVal::U64(victim)),
                ],
            );
            return Some(ScaleDecision::Down(victim));
        }
        None
    }

    /// Snapshot live replicas, the event log, and conservation counters.
    pub fn stats(&self) -> ShardStats {
        let mut replicas: Vec<ReplicaStats> = self
            .replicas
            .read()
            .unwrap()
            .iter()
            .map(|r| ReplicaStats {
                id: r.id,
                accepted: r.accepted.load(Ordering::Relaxed),
                engine: r.engine.stats(),
            })
            .collect();
        replicas.sort_by_key(|r| r.id);
        ShardStats {
            replicas,
            events: self.events.lock().unwrap().clone(),
            accepted: self.accepted.load(Ordering::Relaxed),
            requeued: self.requeued.load(Ordering::Relaxed),
        }
    }

    /// Engine counters summed across live replicas (the per-model view
    /// the router exports; per-replica rows come from [`ShardSet::stats`]).
    pub fn engine_stats(&self) -> EngineStats {
        let live = self.replicas.read().unwrap();
        let mut total = EngineStats::default();
        for r in live.iter() {
            let s = r.engine.stats();
            total.completed += s.completed;
            total.expired += s.expired;
            total.closed += s.closed;
            total.queue_depth += s.queue_depth;
            total.total_latency_ns += s.total_latency_ns;
            total.total_queue_ns += s.total_queue_ns;
            total.total_execution_ns += s.total_execution_ns;
            total.max_latency_ns = total.max_latency_ns.max(s.max_latency_ns);
            total.batches += s.batches;
            total.batched_requests += s.batched_requests;
            total.batches_formed += s.batches_formed;
            total.padded_units += s.padded_units;
            total.used_units += s.used_units;
        }
        total
    }

    /// Storage-arena counters summed across live replicas' workers.
    pub fn arena_stats(&self) -> ArenaStats {
        let live = self.replicas.read().unwrap();
        let mut total = ArenaStats::default();
        for r in live.iter() {
            total.merge(&r.engine.arena_stats());
        }
        total
    }

    /// The shared VM's cumulative profile (replicas share one program, so
    /// there is exactly one profile).
    pub fn profile_report(&self) -> ProfileReport {
        self.vm.profile_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_core::{compile, CompileOptions};
    use nimble_device::DeviceSet;
    use nimble_ir::attrs::Attrs;
    use nimble_ir::builder::FunctionBuilder;
    use nimble_ir::types::TensorType;
    use nimble_ir::Module;
    use nimble_tensor::{DType, Tensor};

    fn add_one_vm() -> Arc<VirtualMachine> {
        let mut fb = FunctionBuilder::new("main");
        let x = fb.param("x", TensorType::new(&[2], DType::F32));
        let one = fb.constant(Tensor::from_vec_f32(vec![1.0, 1.0], &[2]).unwrap());
        let y = fb.call("add", vec![x, one], Attrs::new());
        let mut module = Module::new();
        module.add_function("main", fb.finish(y));
        let (exe, _) = compile(&module, &CompileOptions::default()).expect("compile");
        Arc::new(VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).expect("vm"))
    }

    fn arg(v: f32) -> Vec<Object> {
        vec![Object::tensor(
            Tensor::from_vec_f32(vec![v, v], &[2]).unwrap(),
        )]
    }

    fn set_with(replicas: usize, engine: EngineConfig) -> ShardSet {
        ShardSet::new(
            add_one_vm(),
            engine,
            ShardConfig {
                replicas,
                max_replicas: 8,
                ..ShardConfig::default()
            },
        )
        .unwrap()
    }

    /// Admit `n` requests tagged `0..n`; returns their engine tickets.
    fn submit_n(set: &ShardSet, n: usize) -> Vec<Ticket> {
        (0..n)
            .map(|i| set.submit("main", &arg(i as f32), None).unwrap().0)
            .collect()
    }

    /// The value a served `arg(v)` request answered with.
    fn served(done: Result<nimble_core::Completion, EngineError>) -> f32 {
        let out = done.unwrap().result.unwrap().wait_tensor().unwrap();
        out.as_f32().unwrap()[0]
    }

    #[test]
    fn p2c_spreads_load_across_replicas() {
        let set = set_with(3, EngineConfig::with_workers(1));
        set.pause_all();
        let tickets = submit_n(&set, 12);
        // P2C on live depth: every replica of a paused 3-set sees some of
        // a 12-request burst (worst imbalance P2C allows here still gives
        // each at least one).
        let stats = set.stats();
        assert_eq!(stats.replicas.len(), 3);
        for r in &stats.replicas {
            assert!(r.accepted > 0, "replica {} starved: {stats:?}", r.id);
        }
        assert_eq!(stats.accepted, 12);
        assert_eq!(stats.replica_accepted_sum(), 12);
        set.resume_all();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(served(t.wait()), i as f32 + 1.0);
        }
    }

    #[test]
    fn kill_requeues_onto_survivor() {
        let set = set_with(2, EngineConfig::with_workers(1));
        set.pause_all();
        let tickets = submit_n(&set, 6);
        let victim = *set.replica_ids().last().unwrap();
        let orphaned = set
            .stats()
            .replicas
            .iter()
            .find(|r| r.id == victim)
            .unwrap()
            .accepted;
        assert!(orphaned > 0, "victim held nothing — P2C should spread 6");
        assert!(set.kill(victim));
        set.resume_all();
        // Orphans resolve Closed; re-admitting each lands on the survivor.
        let mut requeued = 0;
        for (i, t) in tickets.into_iter().enumerate() {
            match t.wait() {
                Err(EngineError::Closed) => {
                    requeued += 1;
                    let (t, replica) = set.requeue("main", &arg(i as f32), None).unwrap();
                    assert_ne!(replica, victim);
                    assert_eq!(served(t.wait()), i as f32 + 1.0);
                }
                done => assert_eq!(served(done), i as f32 + 1.0),
            }
        }
        assert_eq!(requeued, orphaned, "every orphan answered Closed");
        let stats = set.stats();
        assert_eq!(stats.requeued, orphaned);
        assert_eq!(
            stats.replica_accepted_sum(),
            stats.accepted + stats.requeued
        );
        assert_eq!(stats.event_counts(), (2, 0, 1));
    }

    #[test]
    fn kill_of_last_replica_fails_explicitly() {
        let set = set_with(1, EngineConfig::with_workers(1));
        set.pause_all();
        let tickets = submit_n(&set, 4);
        assert!(set.kill(set.replica_ids()[0]));
        assert!(set.is_empty());
        for t in tickets {
            assert_eq!(t.wait().unwrap_err(), EngineError::Closed);
        }
        // New work on an empty set is refused, not queued into the void.
        assert!(matches!(
            set.submit("main", &arg(0.0), None),
            Err(EngineError::Closed)
        ));
        assert!(matches!(
            set.requeue("main", &arg(0.0), None),
            Err(EngineError::Closed)
        ));
    }

    #[test]
    fn retire_drains_gracefully() {
        let set = set_with(2, EngineConfig::with_workers(1));
        set.pause_all();
        let tickets = submit_n(&set, 6);
        let victim = *set.replica_ids().last().unwrap();
        // Graceful retirement executes the backlog: resume the survivor,
        // retire the victim (its own drain un-pauses it), everything
        // completes on the replica that admitted it.
        set.resume_all();
        assert!(set.retire(victim));
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(served(t.wait()), i as f32 + 1.0);
        }
        assert_eq!(set.len(), 1);
        // min_replicas floor holds.
        let last = set.replica_ids()[0];
        assert!(!set.retire(last));
    }

    #[test]
    fn autoscaler_scales_up_under_pressure_and_retires_when_idle() {
        let set = set_with(
            1,
            EngineConfig {
                workers: 1,
                queue_capacity: 32,
                max_batch: 2,
            },
        );
        // Backlog above queue_high on the single replica.
        set.pause_all();
        let tickets = submit_n(&set, 8);
        assert_eq!(set.autoscale_tick(), Some(ScaleDecision::Up(1)));
        // Cooldown: still busy, but no immediate second event.
        assert_eq!(set.autoscale_tick(), None);
        set.resume_all();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(served(t.wait()), i as f32 + 1.0);
        }
        // Idle hysteresis: the first post-drain tick still sees
        // completions, then idle_ticks (3) empty ticks must pass.
        let mut down = None;
        for _ in 0..8 {
            if let Some(d) = set.autoscale_tick() {
                down = Some(d);
                break;
            }
        }
        assert_eq!(down, Some(ScaleDecision::Down(1)));
        assert_eq!(set.len(), 1);
        let (added, retired, killed) = set.stats().event_counts();
        assert_eq!((added, retired, killed), (2, 1, 0));
    }

    #[test]
    fn affinity_tie_break_prefers_matching_replica() {
        use nimble_vm::BatchConfig;
        use std::time::Duration;
        // A plan whose key is the input's length; gather/scatter are
        // never reached (min_batch 2, single submission).
        let plan = Arc::new(BatchPlan {
            function: "main".to_string(),
            config: BatchConfig {
                buckets: vec![2, 4],
                min_batch: 2,
                max_batch: 8,
                max_wait: Duration::ZERO,
            },
            key: Arc::new(|args: &[Object]| {
                let dims = args.first()?.tensor_shape().ok()?;
                (dims.len() == 1).then(|| dims[0])
            }),
            gather: Arc::new(|_, _, _| Err(nimble_vm::VmError::msg("unused"))),
            scatter: Arc::new(|_, _, _| Err(nimble_vm::VmError::msg("unused"))),
        });
        let set = Arc::new(
            ShardSet::with_plan(
                add_one_vm(),
                EngineConfig::with_workers(1),
                ShardConfig {
                    replicas: 2,
                    ..ShardConfig::default()
                },
                Some(plan),
            )
            .unwrap(),
        );
        set.pause_all();
        // Seed the hint on the *higher*-id replica: at equal queue depth
        // the plain tie-break would pick id 0, so landing on id 1 can
        // only be the affinity hint ([2]-shaped input → bucket 2).
        for r in set.replicas.read().unwrap().iter() {
            if r.id == 1 {
                r.engine.set_last_formed_bucket(2);
            }
        }
        let (t, replica) = set.submit("main", &arg(1.0), None).unwrap();
        assert_eq!(replica, 1, "affinity hint ignored");
        set.resume_all();
        assert_eq!(served(t.wait()), 2.0);
    }

    #[test]
    fn autoscaler_does_not_flap_within_event_budget() {
        let set = Arc::new(
            ShardSet::new(
                add_one_vm(),
                EngineConfig {
                    workers: 1,
                    queue_capacity: 64,
                    max_batch: 2,
                },
                ShardConfig {
                    replicas: 1,
                    max_replicas: 8,
                    autoscaler: AutoscalerConfig {
                        queue_high: 2,
                        queue_ns_growth_high: u64::MAX,
                        idle_ticks: 2,
                        cooldown_ticks: 2,
                        window_ticks: 6,
                        max_events_per_window: 2,
                    },
                    ..ShardConfig::default()
                },
            )
            .unwrap(),
        );
        // Spike then hard drop, ticking the whole time: the event budget
        // and cooldown must bound lifecycle churn.
        set.pause_all();
        let tickets = submit_n(&set, 16);
        let mut events = 0;
        for _ in 0..4 {
            if set.autoscale_tick().is_some() {
                events += 1;
            }
        }
        set.resume_all();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(served(t.wait()), i as f32 + 1.0);
        }
        for _ in 0..8 {
            if set.autoscale_tick().is_some() {
                events += 1;
            }
        }
        // 12 ticks = exactly two 6-tick windows, each capped at 2 events.
        assert!(events <= 4, "autoscaler flapped: {events} events");
        let stats = set.stats();
        let (added, retired, _) = stats.event_counts();
        assert!(added <= 3 && retired <= 2, "churn: {:?}", stats.events);
        // Conservation holds through the churn.
        assert_eq!(
            stats.replica_accepted_sum(),
            stats.accepted + stats.requeued
        );
    }
}
