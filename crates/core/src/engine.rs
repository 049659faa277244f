//! Concurrent inference engine: a bounded request queue in front of a
//! shared [`VirtualMachine`].
//!
//! The paper's VM loads a model once — kernels instantiated, constants
//! placed — and then serves requests. Because the loaded program is
//! immutable (`Send + Sync`), serving concurrent traffic needs no
//! duplication: N worker threads share one `Arc<VirtualMachine>`, each
//! owning only a cheap per-run [`Session`]. The queue between callers and
//! workers is bounded, so a saturated engine exerts backpressure on
//! [`Engine::submit`] instead of growing without limit.
//!
//! Workers drain the queue in small batches (one blocking pop, then up to
//! `max_batch - 1` opportunistic pops) so a busy queue amortizes the
//! wake-up cost across requests.
//!
//! Requests may carry a **deadline** ([`Engine::submit_with_deadline`]):
//! a request whose deadline has already passed when a worker dequeues it
//! is *not* executed — its ticket resolves to [`EngineError::Expired`].
//! This keeps a backlogged queue from burning device time on answers
//! nobody is still waiting for, and is the mechanism the serving layer's
//! router builds its latency guarantees on.
//!
//! [`Engine::shutdown`] drains gracefully: the queue stops accepting new
//! work, workers finish everything already enqueued (honoring deadlines),
//! and then join. Dropping the engine performs the same drain, so every
//! accepted request always receives exactly one terminal reply —
//! completion, expiry, or [`EngineError::Closed`] — never silence.

use crate::Result as CompileResult;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use nimble_obs::{Category as ObsCat, SpanContext};
use nimble_vm::{
    ArenaStats, BatchPlan, Object, ProfileReport, Session, StorageArena, VirtualMachine, VmError,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a worker parks in `recv_timeout` before re-checking the pause
/// gate and abort flag. Bounds the latency of [`Engine::pause_and_wait`]
/// and [`Engine::kill`] on an idle engine; on the hot path it is only the
/// wake-up period of an otherwise idle worker.
const GATE_POLL: Duration = Duration::from_millis(10);

/// Tuning knobs for [`Engine::new`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads, each owning one [`Session`].
    pub workers: usize,
    /// Bounded queue capacity; a full queue blocks [`Engine::submit`].
    pub queue_capacity: usize,
    /// Max requests a worker drains per wake-up.
    pub max_batch: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 4,
            queue_capacity: 64,
            max_batch: 8,
        }
    }
}

impl EngineConfig {
    /// A config with the given worker count and defaults elsewhere.
    pub fn with_workers(workers: usize) -> EngineConfig {
        EngineConfig {
            workers,
            ..EngineConfig::default()
        }
    }
}

/// One finished request: the VM result plus its measured latencies.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The VM's result (or the error the run produced).
    pub result: std::result::Result<Object, VmError>,
    /// Submit-to-completion time, including time spent queued.
    pub latency: Duration,
    /// Time spent waiting in the queue before a worker picked the request
    /// up (`latency ≈ queued + execution`).
    pub queued: Duration,
    /// Time inside [`VirtualMachine::run_in`] only. For a member of a
    /// dynamically formed batch this is the *whole batch's* run time
    /// (members share one execution).
    pub execution: Duration,
    /// Index of the worker thread that served the request.
    pub worker: usize,
    /// How many requests shared the VM execution that produced this
    /// completion (1 on the unbatched path).
    pub batch_size: usize,
}

/// Why a request could not be submitted or completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The queue is at capacity (only from [`Engine::try_submit`]).
    Busy,
    /// The engine shut down before the request completed.
    Closed,
    /// The request's deadline passed before a worker could start it.
    Expired,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Busy => write!(f, "engine queue is full"),
            EngineError::Closed => write!(f, "engine has shut down"),
            EngineError::Expired => write!(f, "request deadline expired while queued"),
        }
    }
}

impl std::error::Error for EngineError {}

struct Request {
    function: String,
    args: Vec<Object>,
    reply: Sender<std::result::Result<Completion, EngineError>>,
    submitted: Instant,
    deadline: Option<Instant>,
    /// Trace context carried across the queue (the router's, or one the
    /// engine started itself for direct submissions).
    ctx: SpanContext,
    /// Whether this engine made the sampling decision (no upstream trace)
    /// and therefore records the trace's root span at the terminal state.
    owns_root: bool,
    /// Submission time on the obs clock; 0 when the trace is not sampled.
    submitted_ns: u64,
}

/// Trace fields for a request being submitted: adopt the caller's context
/// when one exists, otherwise make the admission sampling decision here.
fn admission_ctx() -> (SpanContext, bool, u64) {
    let cur = nimble_obs::current();
    let (ctx, owns_root) = if !cur.is_sampled() {
        (nimble_obs::start_trace(), true)
    } else {
        (cur, false)
    };
    let submitted_ns = if ctx.is_sampled() {
        nimble_obs::now_ns()
    } else {
        0
    };
    (ctx, owns_root && ctx.is_sampled(), submitted_ns)
}

/// Handle to one in-flight request; resolves to a [`Completion`].
#[derive(Debug)]
pub struct Ticket {
    reply: Receiver<std::result::Result<Completion, EngineError>>,
}

impl Ticket {
    /// Block until the request reaches a terminal state.
    ///
    /// # Errors
    /// [`EngineError::Expired`] when the deadline passed while queued,
    /// [`EngineError::Closed`] when the engine shut down first.
    pub fn wait(self) -> std::result::Result<Completion, EngineError> {
        self.reply.recv().map_err(|_| EngineError::Closed)?
    }

    /// A ticket that immediately resolves to [`EngineError::Closed`]
    /// (used when a request is submitted to an already-drained engine).
    fn closed() -> Ticket {
        let (_tx, rx) = unbounded();
        Ticket { reply: rx }
    }
}

/// Aggregate counters kept by the workers (all monotonic since engine
/// creation).
#[derive(Debug, Default)]
struct Counters {
    completed: AtomicU64,
    expired: AtomicU64,
    closed: AtomicU64,
    latency_ns: AtomicU64,
    queue_ns: AtomicU64,
    execution_ns: AtomicU64,
    max_latency_ns: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    batches_formed: AtomicU64,
    padded_units: AtomicU64,
    used_units: AtomicU64,
}

/// "No batch formed yet" sentinel for the last-formed-bucket atomic.
const NO_BUCKET: u64 = u64::MAX;

/// Control block shared between an engine and its workers: the chaos/scale
/// pause gate, the kill switch, and the replica label the serving layer
/// stamps into this engine's spans.
#[derive(Debug)]
struct WorkerCtrl {
    /// While `true`, workers park at the gate between requests.
    paused: Mutex<bool>,
    /// Wakes gate-parked workers on resume/kill; workers also notify it
    /// when they park, so [`Engine::pause_and_wait`] can observe quiesce.
    cond: Condvar,
    /// Workers currently parked at the pause gate.
    at_gate: AtomicUsize,
    /// Kill switch: once set, workers answer every remaining request with
    /// [`EngineError::Closed`] instead of executing it.
    aborted: AtomicBool,
    /// Replica id recorded in this engine's `engine.queue`/`engine.run`
    /// spans (0 for an unsharded engine).
    label: AtomicU64,
    /// Shape bucket of the most recently formed batch ([`NO_BUCKET`] when
    /// none yet) — the shard layer's shape-affinity admission hint.
    last_bucket: AtomicU64,
    /// Ring of recently admitted request shape keys (stored as `key + 1`;
    /// 0 = empty slot) — the shard layer's specialization-warmth hint:
    /// among equally loaded replicas, one that recently ran a shape the
    /// model's specialization cache holds is preferred for it.
    warm_shapes: [AtomicU64; WARM_RING],
    /// Next ring slot to overwrite.
    warm_cursor: AtomicUsize,
}

/// Slots in the recently-admitted-shape ring.
const WARM_RING: usize = 8;

impl Default for WorkerCtrl {
    fn default() -> WorkerCtrl {
        WorkerCtrl {
            paused: Mutex::new(false),
            cond: Condvar::new(),
            at_gate: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            label: AtomicU64::new(0),
            last_bucket: AtomicU64::new(NO_BUCKET),
            warm_shapes: std::array::from_fn(|_| AtomicU64::new(0)),
            warm_cursor: AtomicUsize::new(0),
        }
    }
}

/// Snapshot of engine counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Requests completed (successes and VM errors alike).
    pub completed: u64,
    /// Requests dropped at dequeue because their deadline had passed.
    pub expired: u64,
    /// Requests answered [`EngineError::Closed`] without executing (only
    /// nonzero after [`Engine::kill`] abandoned queued work).
    pub closed: u64,
    /// Requests currently waiting in the queue.
    pub queue_depth: u64,
    /// Sum of submit-to-completion latencies (ns).
    pub total_latency_ns: u64,
    /// Sum of queue-wait times — submit to worker pickup (ns).
    pub total_queue_ns: u64,
    /// Sum of pure execution times (ns).
    pub total_execution_ns: u64,
    /// Worst single-request latency (ns).
    pub max_latency_ns: u64,
    /// Worker wake-ups that drained at least one request.
    pub batches: u64,
    /// Requests served through a dynamically formed batch.
    pub batched_requests: u64,
    /// Dynamically formed batches executed (each one VM run).
    pub batches_formed: u64,
    /// Padding shape units (tokens/steps) added by pad-to-bucket.
    pub padded_units: u64,
    /// Real shape units carried by batched requests.
    pub used_units: u64,
}

impl EngineStats {
    /// Mean submit-to-completion latency.
    pub fn mean_latency(&self) -> Duration {
        match self.total_latency_ns.checked_div(self.completed) {
            Some(ns) => Duration::from_nanos(ns),
            None => Duration::ZERO,
        }
    }

    /// Mean queue-wait (submit to worker pickup) per completed request.
    pub fn mean_queue_wait(&self) -> Duration {
        match self.total_queue_ns.checked_div(self.completed) {
            Some(ns) => Duration::from_nanos(ns),
            None => Duration::ZERO,
        }
    }

    /// Mean pure execution time per completed request.
    pub fn mean_execution(&self) -> Duration {
        match self.total_execution_ns.checked_div(self.completed) {
            Some(ns) => Duration::from_nanos(ns),
            None => Duration::ZERO,
        }
    }

    /// Fraction of batched shape units that were padding
    /// (`padded / (padded + used)`; 0 when nothing batched yet).
    pub fn pad_waste_ratio(&self) -> f64 {
        let total = self.padded_units + self.used_units;
        if total == 0 {
            0.0
        } else {
            self.padded_units as f64 / total as f64
        }
    }
}

/// A multi-threaded serving loop over one shared loaded program.
pub struct Engine {
    vm: Arc<VirtualMachine>,
    /// `None` once [`Engine::shutdown`] has run; new submissions then get
    /// an immediately-closed ticket instead of reaching workers.
    queue: Mutex<Option<Sender<Request>>>,
    /// Kept only to observe queue depth (never received from).
    depth: Receiver<Request>,
    counters: Arc<Counters>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    ctrl: Arc<WorkerCtrl>,
    /// One storage arena per worker.
    /// Workers keep them warm across requests; the engine exposes their
    /// summed stats and trims them on shutdown.
    arenas: Vec<Arc<StorageArena>>,
    /// Dynamic-batching plan (None = unbatched path).
    plan: Option<Arc<BatchPlan>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers.lock().unwrap().len())
            .field("completed", &self.stats().completed)
            .finish()
    }
}

impl Engine {
    /// Start `config.workers` threads serving `vm`.
    ///
    /// # Errors
    /// Fails when the config asks for zero workers, zero capacity, or a
    /// zero batch, or when thread spawning fails.
    pub fn new(vm: Arc<VirtualMachine>, config: EngineConfig) -> CompileResult<Engine> {
        Engine::with_plan(vm, config, None)
    }

    /// [`Engine::new`] plus a dynamic-batching plan: workers additionally
    /// group compatible same-bucket requests from each drain into one
    /// padded batched execution (see [`nimble_vm::batch`]). `None` is the
    /// unbatched reference path the batching differentials compare against.
    ///
    /// # Errors
    /// Same conditions as [`Engine::new`].
    pub fn with_plan(
        vm: Arc<VirtualMachine>,
        config: EngineConfig,
        plan: Option<Arc<BatchPlan>>,
    ) -> CompileResult<Engine> {
        if config.workers == 0 || config.queue_capacity == 0 || config.max_batch == 0 {
            return Err(crate::CompileError::msg(
                "engine config: workers, queue_capacity and max_batch must be nonzero",
            ));
        }
        let (queue, rx) = bounded::<Request>(config.queue_capacity);
        let counters = Arc::new(Counters::default());
        let ctrl = Arc::new(WorkerCtrl::default());
        let mut workers = Vec::with_capacity(config.workers);
        let mut arenas = Vec::with_capacity(config.workers);
        for worker_idx in 0..config.workers {
            let vm = Arc::clone(&vm);
            let worker_rx = rx.clone();
            let counters = Arc::clone(&counters);
            let ctrl = Arc::clone(&ctrl);
            let max_batch = config.max_batch;
            let plan = plan.clone();
            // Engine-owned arena so stats/trim work from outside the
            // worker; the session recycles storage into it across every
            // request the worker serves.
            let arena = Arc::new(StorageArena::new());
            arenas.push(Arc::clone(&arena));
            let handle = std::thread::Builder::new()
                .name(format!("nimble-engine-{worker_idx}"))
                .spawn(move || {
                    Worker {
                        vm: &vm,
                        rx: &worker_rx,
                        counters: &counters,
                        ctrl: &ctrl,
                        worker_idx,
                        max_batch,
                        plan,
                        session: Session::with_lane_and_arena(worker_idx, Some(arena)),
                    }
                    .run()
                })
                .map_err(|e| crate::CompileError::msg(format!("spawn engine worker: {e}")))?;
            workers.push(handle);
        }
        Ok(Engine {
            vm,
            queue: Mutex::new(Some(queue)),
            depth: rx,
            counters,
            workers: Mutex::new(workers),
            ctrl,
            arenas,
            plan,
        })
    }

    /// The shared loaded program this engine serves.
    pub fn vm(&self) -> &Arc<VirtualMachine> {
        &self.vm
    }

    /// The dynamic-batching plan this engine runs with (None = unbatched).
    pub fn plan(&self) -> Option<&Arc<BatchPlan>> {
        self.plan.as_ref()
    }

    /// Shape bucket of the most recently formed batch, or `None` when no
    /// batch has formed yet. The shard layer uses this as its
    /// shape-affinity admission hint.
    pub fn last_formed_bucket(&self) -> Option<usize> {
        match self.ctrl.last_bucket.load(Ordering::Relaxed) {
            NO_BUCKET => None,
            b => Some(b as usize),
        }
    }

    /// Test hook: seed the last-formed-bucket hint without running a
    /// batch, so affinity routing is testable deterministically.
    #[doc(hidden)]
    pub fn set_last_formed_bucket(&self, bucket: usize) {
        self.ctrl
            .last_bucket
            .store(bucket as u64, Ordering::Relaxed);
    }

    /// Note that a request with shape key `key` was admitted to this
    /// replica (called by the shard layer on admission; lossy by design —
    /// a ring of the last few shapes, not a history).
    pub fn note_warm_shape(&self, key: u64) {
        if self.has_warm_shape(key) {
            return;
        }
        let slot =
            self.ctrl.warm_cursor.fetch_add(1, Ordering::Relaxed) % self.ctrl.warm_shapes.len();
        self.ctrl.warm_shapes[slot].store(key.wrapping_add(1), Ordering::Relaxed);
    }

    /// Whether `key` is in this replica's recently admitted shape ring.
    pub fn has_warm_shape(&self, key: u64) -> bool {
        let tagged = key.wrapping_add(1);
        self.ctrl
            .warm_shapes
            .iter()
            .any(|s| s.load(Ordering::Relaxed) == tagged)
    }

    /// A clone of the queue sender, or `None` after shutdown. Cloning
    /// under the lock and sending outside it keeps blocking sends from
    /// stalling [`Engine::shutdown`]'s lock acquisition; workers only exit
    /// once every clone is dropped, so a send that races shutdown is still
    /// drained, never stranded.
    fn sender(&self) -> Option<Sender<Request>> {
        self.queue.lock().unwrap().clone()
    }

    /// Enqueue a request, blocking while the queue is full (backpressure).
    ///
    /// After [`Engine::shutdown`] the returned ticket resolves immediately
    /// to [`EngineError::Closed`].
    pub fn submit(&self, function: &str, args: Vec<Object>) -> Ticket {
        self.submit_inner(function, args, None)
    }

    /// [`Engine::submit`] with a deadline: if the deadline passes before a
    /// worker dequeues the request, it is skipped and the ticket resolves
    /// to [`EngineError::Expired`].
    pub fn submit_with_deadline(
        &self,
        function: &str,
        args: Vec<Object>,
        deadline: Instant,
    ) -> Ticket {
        self.submit_inner(function, args, Some(deadline))
    }

    fn submit_inner(&self, function: &str, args: Vec<Object>, deadline: Option<Instant>) -> Ticket {
        let Some(queue) = self.sender() else {
            return Ticket::closed();
        };
        let (reply_tx, reply_rx) = unbounded();
        let (ctx, owns_root, submitted_ns) = admission_ctx();
        let req = Request {
            function: function.to_string(),
            args,
            reply: reply_tx,
            submitted: Instant::now(),
            deadline,
            ctx,
            owns_root,
            submitted_ns,
        };
        match queue.send(req) {
            Ok(()) => Ticket { reply: reply_rx },
            // Workers already exited (shutdown raced us): closed ticket.
            Err(_) => Ticket::closed(),
        }
    }

    /// Enqueue a request without blocking.
    ///
    /// # Errors
    /// [`EngineError::Busy`] when the queue is at capacity,
    /// [`EngineError::Closed`] after shutdown.
    pub fn try_submit(
        &self,
        function: &str,
        args: Vec<Object>,
    ) -> std::result::Result<Ticket, EngineError> {
        self.try_submit_inner(function, args, None)
    }

    /// [`Engine::try_submit`] with a deadline (see
    /// [`Engine::submit_with_deadline`]).
    ///
    /// # Errors
    /// [`EngineError::Busy`] when the queue is at capacity,
    /// [`EngineError::Closed`] after shutdown.
    pub fn try_submit_with_deadline(
        &self,
        function: &str,
        args: Vec<Object>,
        deadline: Instant,
    ) -> std::result::Result<Ticket, EngineError> {
        self.try_submit_inner(function, args, Some(deadline))
    }

    fn try_submit_inner(
        &self,
        function: &str,
        args: Vec<Object>,
        deadline: Option<Instant>,
    ) -> std::result::Result<Ticket, EngineError> {
        let Some(queue) = self.sender() else {
            return Err(EngineError::Closed);
        };
        let (reply_tx, reply_rx) = unbounded();
        let (ctx, owns_root, submitted_ns) = admission_ctx();
        let req = Request {
            function: function.to_string(),
            args,
            reply: reply_tx,
            submitted: Instant::now(),
            deadline,
            ctx,
            owns_root,
            submitted_ns,
        };
        match queue.try_send(req) {
            Ok(()) => Ok(Ticket { reply: reply_rx }),
            Err(TrySendError::Full(_)) => Err(EngineError::Busy),
            Err(TrySendError::Disconnected(_)) => Err(EngineError::Closed),
        }
    }

    /// Submit and wait — the synchronous convenience path.
    ///
    /// # Errors
    /// [`EngineError::Closed`] when the engine shut down mid-request.
    pub fn run(
        &self,
        function: &str,
        args: Vec<Object>,
    ) -> std::result::Result<Completion, EngineError> {
        self.submit(function, args).wait()
    }

    /// Drain and stop: refuse new submissions, let workers finish every
    /// request already enqueued (expiring those past their deadline), then
    /// join them and trim the worker arenas back to the device pools.
    /// A paused engine is resumed first — a graceful drain executes the
    /// backlog, it never strands it.
    /// Idempotent; concurrent callers all block until the drain completes.
    pub fn shutdown(&self) {
        self.resume();
        // Dropping the primary sender disconnects the channel once every
        // transient clone held by an in-flight submit is gone too.
        drop(self.queue.lock().unwrap().take());
        let mut workers = self.workers.lock().unwrap();
        for w in workers.drain(..) {
            let _ = w.join();
        }
        // Retired engines keep no recycled storage warm (model unload /
        // hot-swap returns to the pre-load memory baseline).
        self.trim_arenas();
    }

    /// Abrupt stop — the chaos-harness "replica dies" primitive. Unlike
    /// [`Engine::shutdown`], queued requests are *not* executed: each one
    /// is answered with [`EngineError::Closed`] (never silence), the
    /// request currently mid-execution (if any) completes — the simulated
    /// process death is at request granularity — and the workers exit.
    /// Idempotent; safe after `shutdown`.
    pub fn kill(&self) {
        self.ctrl.aborted.store(true, Ordering::Release);
        // Wake gate-parked workers so they can observe the kill.
        self.ctrl.cond.notify_all();
        self.shutdown();
    }

    /// Whether [`Engine::kill`] has run.
    pub fn is_killed(&self) -> bool {
        self.ctrl.aborted.load(Ordering::Acquire)
    }

    /// Freeze the workers between requests and return once every worker
    /// is parked at the pause gate: nothing is mid-execution, so queue
    /// contents (and [`Engine::queue_depth`]) are exact until
    /// [`Engine::resume`]. The chaos harness uses this to make fault
    /// injection deterministic; submissions stay open while paused.
    pub fn pause_and_wait(&self) {
        *self.ctrl.paused.lock().unwrap() = true;
        let workers = self.workers.lock().unwrap().len();
        while self.ctrl.at_gate.load(Ordering::Acquire) < workers
            && !self.ctrl.aborted.load(Ordering::Acquire)
        {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Reopen the pause gate (see [`Engine::pause_and_wait`]). Idempotent.
    pub fn resume(&self) {
        *self.ctrl.paused.lock().unwrap() = false;
        self.ctrl.cond.notify_all();
    }

    /// Stamp this engine's `engine.queue`/`engine.run` spans with a
    /// replica id (set by the shard layer; 0 means unsharded).
    pub fn set_replica_label(&self, label: u64) {
        self.ctrl.label.store(label, Ordering::Relaxed);
    }

    /// The replica id set by [`Engine::set_replica_label`].
    pub fn replica_label(&self) -> u64 {
        self.ctrl.label.load(Ordering::Relaxed)
    }

    /// Summed arena counters across all workers.
    pub fn arena_stats(&self) -> ArenaStats {
        let mut total = ArenaStats::default();
        for arena in &self.arenas {
            total.merge(&arena.stats());
        }
        total
    }

    /// Return every block parked in the worker arenas to the device pools;
    /// yields the bytes released. In-flight requests are unaffected (their
    /// storage re-parks on drop).
    pub fn trim_arenas(&self) -> u64 {
        self.arenas.iter().map(|a| a.trim()).sum()
    }

    /// Requests currently waiting in the queue (not yet dequeued by a
    /// worker).
    pub fn queue_depth(&self) -> usize {
        self.depth.len()
    }

    /// Snapshot the aggregate request counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            completed: self.counters.completed.load(Ordering::Relaxed),
            expired: self.counters.expired.load(Ordering::Relaxed),
            closed: self.counters.closed.load(Ordering::Relaxed),
            queue_depth: self.queue_depth() as u64,
            total_latency_ns: self.counters.latency_ns.load(Ordering::Relaxed),
            total_queue_ns: self.counters.queue_ns.load(Ordering::Relaxed),
            total_execution_ns: self.counters.execution_ns.load(Ordering::Relaxed),
            max_latency_ns: self.counters.max_latency_ns.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            batched_requests: self.counters.batched_requests.load(Ordering::Relaxed),
            batches_formed: self.counters.batches_formed.load(Ordering::Relaxed),
            padded_units: self.counters.padded_units.load(Ordering::Relaxed),
            used_units: self.counters.used_units.load(Ordering::Relaxed),
        }
    }

    /// Profile aggregated across all workers' sessions (see
    /// [`VirtualMachine::profile_report`]); exact because every session
    /// merges its per-run profile into the VM's shared totals.
    pub fn profile_report(&self) -> ProfileReport {
        self.vm.profile_report()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A request a worker has committed to serve: past the abort and deadline
/// checks, queue wait measured, queue span recorded.
struct Picked {
    req: Request,
    queued: Duration,
}

/// One engine worker thread: the drain loop, the batch-forming stage, and
/// both (unbatched / batched) execution paths.
struct Worker<'a> {
    vm: &'a VirtualMachine,
    rx: &'a Receiver<Request>,
    counters: &'a Counters,
    ctrl: &'a WorkerCtrl,
    worker_idx: usize,
    max_batch: usize,
    plan: Option<Arc<BatchPlan>>,
    // Lane = worker index: each worker's kernels get their own device
    // stream, so requests overlap on the simulated GPU. The session
    // reuses the engine-owned arena across every request this worker
    // serves.
    session: Session,
}

impl Worker<'_> {
    fn run(mut self) {
        let mut batch = Vec::with_capacity(self.max_batch);
        loop {
            // Pause gate: while paused, park *before* touching the channel
            // so `pause_and_wait` can guarantee no request is mid-flight
            // and the queue contents are exact.
            {
                let mut paused = self.ctrl.paused.lock().unwrap();
                if *paused && !self.ctrl.aborted.load(Ordering::Acquire) {
                    self.ctrl.at_gate.fetch_add(1, Ordering::Release);
                    self.ctrl.cond.notify_all();
                    while *paused && !self.ctrl.aborted.load(Ordering::Acquire) {
                        paused = self.ctrl.cond.wait(paused).unwrap();
                    }
                    self.ctrl.at_gate.fetch_sub(1, Ordering::Release);
                }
            }
            // Timed pop so a paused/killed engine cycles back to the gate;
            // `Disconnected` means every sender is gone and the queue is
            // empty — the drain is complete, nothing can be stranded.
            let first = match self.rx.recv_timeout(GATE_POLL) {
                Ok(req) => req,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            };
            batch.push(first);
            while batch.len() < self.max_batch {
                match self.rx.try_recv() {
                    Ok(req) => batch.push(req),
                    Err(_) => break,
                }
            }
            self.counters.batches.fetch_add(1, Ordering::Relaxed);
            self.serve_drained(std::mem::take(&mut batch));
        }
    }

    /// Serve one drained set: with no plan every request runs alone (the
    /// pre-batching path, byte for byte); with a plan, same-bucket
    /// requests for the plan's function are grouped, optionally topped up
    /// within `max_wait`, and executed as padded batches.
    fn serve_drained(&mut self, drained: Vec<Request>) {
        let Some(plan) = self.plan.clone() else {
            for req in drained {
                if let Some(p) = self.pick(req) {
                    self.execute_single(p);
                }
            }
            return;
        };

        // Partition at pull time. The deadline check runs *here*, as each
        // request enters the forming batch — an already-expired request
        // must never pad-inflate a batch (it is answered Expired and takes
        // no slot).
        let mut singles: Vec<Picked> = Vec::new();
        let mut groups: Vec<(usize, Vec<(Picked, usize)>)> = Vec::new();
        let mut members = 0usize;
        let mut partition =
            |w: &mut Self, req: Request, groups: &mut Vec<(usize, Vec<(Picked, usize)>)>| {
                let Some(p) = w.pick(req) else {
                    return false;
                };
                if p.req.function == plan.function {
                    if let Some(key) = (plan.key)(&p.req.args) {
                        if let Some(bucket) = plan.bucket_for(key) {
                            match groups.iter_mut().find(|(b, _)| *b == bucket) {
                                Some((_, g)) => g.push((p, key)),
                                None => groups.push((bucket, vec![(p, key)])),
                            }
                            return true;
                        }
                    }
                }
                singles.push(p);
                false
            };
        for req in drained {
            if partition(self, req, &mut groups) {
                members += 1;
            }
        }

        // Top-up: while nothing batchable has reached `min_batch`, hold
        // the forming batch open for up to `max_wait` hoping same-bucket
        // traffic arrives. Deadline pressure closes the batch early: the
        // wait never extends past any member's deadline, so a request
        // admitted with time to spare is not expired by the wait itself.
        let undersized = |groups: &Vec<(usize, Vec<(Picked, usize)>)>| {
            groups.iter().all(|(_, g)| g.len() < plan.config.min_batch)
        };
        if members > 0 && plan.config.max_wait > Duration::ZERO && undersized(&groups) {
            let mut close_at = Instant::now() + plan.config.max_wait;
            for (_, g) in &groups {
                for (p, _) in g {
                    if let Some(d) = p.req.deadline {
                        close_at = close_at.min(d);
                    }
                }
            }
            while members < self.max_batch && undersized(&groups) {
                let now = Instant::now();
                if now >= close_at {
                    break;
                }
                match self.rx.recv_timeout(close_at - now) {
                    Ok(req) => {
                        let deadline = req.deadline;
                        if partition(self, req, &mut groups) {
                            members += 1;
                            if let Some(d) = deadline {
                                close_at = close_at.min(d);
                            }
                        }
                    }
                    Err(_) => break,
                }
            }
        }

        for p in singles {
            self.execute_single(p);
        }
        for (bucket, group) in groups {
            if group.len() < plan.config.min_batch {
                // Not worth padding: run members on the unbatched path.
                for (p, _) in group {
                    self.execute_single(p);
                }
            } else {
                self.execute_batched(&plan, bucket, group);
            }
        }
    }

    /// Abort and deadline checks at the moment a worker pulls a request
    /// out of the queue (into a forming batch or straight to execution).
    /// Replies and returns `None` when the request must not execute.
    fn pick(&self, req: Request) -> Option<Picked> {
        if self.ctrl.aborted.load(Ordering::Acquire) {
            // Killed replica: abandoned work is answered explicitly,
            // never executed, never silent. Payload drops first so a
            // caller observing Closed sees memory back at baseline.
            let Request { args, reply, .. } = req;
            drop(args);
            self.counters.closed.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(Err(EngineError::Closed));
            return None;
        }
        // Queue wait ends the moment this worker picks the request up
        // (also recorded as a span under the request's trace, tagged with
        // the replica label).
        let queued = req.submitted.elapsed();
        let dequeued_ns = if req.ctx.is_sampled() {
            let now = nimble_obs::now_ns();
            nimble_obs::record_under(
                req.ctx,
                "engine.queue",
                ObsCat::Engine,
                req.submitted_ns,
                now,
                self.ctrl.label.load(Ordering::Relaxed),
            );
            now
        } else {
            0
        };
        // Deadline-aware pickup: a request nobody is waiting for anymore
        // is answered with Expired instead of executed (or batched).
        if let Some(deadline) = req.deadline {
            if Instant::now() >= deadline {
                // Release the request's payload (argument tensors and any
                // storage already allocated for them) *before* replying: a
                // caller observing Expired must be able to assert memory
                // is back at its idle baseline without racing this
                // worker's cleanup.
                let Request {
                    args,
                    reply,
                    ctx,
                    owns_root,
                    submitted_ns,
                    ..
                } = req;
                drop(args);
                self.counters.expired.fetch_add(1, Ordering::Relaxed);
                if owns_root {
                    nimble_obs::record_root(
                        ctx,
                        "engine.request",
                        ObsCat::Engine,
                        submitted_ns,
                        dequeued_ns,
                        2,
                    );
                }
                let _ = reply.send(Err(EngineError::Expired));
                return None;
            }
        }
        Some(Picked { req, queued })
    }

    /// Unbatched execution of one picked request.
    fn execute_single(&mut self, p: Picked) {
        let Picked { req, queued } = p;
        let exec_start = Instant::now();
        let result = {
            let _g = nimble_obs::enter(req.ctx);
            // High half: replica label; low half: worker index.
            let tag = (self.ctrl.label.load(Ordering::Relaxed) << 32) | self.worker_idx as u64;
            let _s = nimble_obs::span_full("engine.run", ObsCat::Engine, tag);
            self.vm.run_in(&mut self.session, &req.function, req.args)
        };
        let execution = exec_start.elapsed();
        self.finish(
            FinishedRequest {
                reply: req.reply,
                submitted: req.submitted,
                ctx: req.ctx,
                owns_root: req.owns_root,
                submitted_ns: req.submitted_ns,
            },
            result,
            queued,
            execution,
            1,
        );
        self.counters
            .execution_ns
            .fetch_add(execution.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Batched execution: gather the members' padded inputs, run the
    /// `main_b{bucket}` entry once on this worker's session, scatter the
    /// per-member slices back. Any batched-path error (gather, VM run,
    /// scatter) falls back to running every member unbatched, so batching
    /// can only change *when* a request runs, never its outcome.
    fn execute_batched(&mut self, plan: &BatchPlan, bucket: usize, group: Vec<(Picked, usize)>) {
        let size = group.len();
        self.ctrl
            .last_bucket
            .store(bucket as u64, Ordering::Relaxed);
        // Spans land under the batch leader's trace: the first member
        // with a sampled context (members keep their own engine.queue /
        // terminal spans regardless).
        let leader = group
            .iter()
            .map(|(p, _)| p.req.ctx)
            .find(|c| c.is_sampled())
            .unwrap_or(SpanContext::NONE);
        let tag = (self.ctrl.label.load(Ordering::Relaxed) << 32) | self.worker_idx as u64;
        let form_start = nimble_obs::now_ns();
        let member_args: Vec<Vec<Object>> = group.iter().map(|(p, _)| p.req.args.clone()).collect();
        let keys: Vec<usize> = group.iter().map(|(_, k)| *k).collect();
        let gathered = (plan.gather)(&member_args, &keys, bucket);
        drop(member_args);
        nimble_obs::record_under(
            leader,
            "batch.form",
            ObsCat::Engine,
            form_start,
            nimble_obs::now_ns(),
            size as u64,
        );
        let batched_args = match gathered {
            Ok(args) => args,
            Err(_) => return self.fall_back(group),
        };

        let exec_start = Instant::now();
        let result = {
            let _g = nimble_obs::enter(leader);
            let _s = nimble_obs::span_full("batch.run", ObsCat::Engine, tag);
            self.vm
                .run_in(&mut self.session, &plan.entry(bucket), batched_args)
        };
        let execution = exec_start.elapsed();
        let batched = match result {
            Ok(out) => out,
            Err(_) => return self.fall_back(group),
        };

        let scatter_start = nimble_obs::now_ns();
        let outputs = (plan.scatter)(&batched, &keys, bucket);
        drop(batched);
        nimble_obs::record_under(
            leader,
            "batch.scatter",
            ObsCat::Engine,
            scatter_start,
            nimble_obs::now_ns(),
            size as u64,
        );
        let outputs = match outputs {
            Ok(outs) if outs.len() == size => outs,
            _ => return self.fall_back(group),
        };

        // Fan out per-member completions; the batch's run time is shared.
        self.counters
            .batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
        self.counters.batches_formed.fetch_add(1, Ordering::Relaxed);
        let used: u64 = keys.iter().map(|&k| k as u64).sum();
        self.counters.used_units.fetch_add(used, Ordering::Relaxed);
        let padded = (bucket * size) as u64 - used;
        self.counters
            .padded_units
            .fetch_add(padded, Ordering::Relaxed);
        // A batch that is mostly padding is a tail-latency suspect (its
        // members paid for shape units nobody used): pin every member's
        // flight buffer so the traces survive tail-based retention.
        if padded.saturating_mul(2) > (bucket * size) as u64 {
            for (p, _) in &group {
                nimble_obs::flight::pin(p.req.ctx, nimble_obs::flight::PIN_PAD_BATCH);
            }
        }
        // The batch ran once: its execution wall time is added once, not
        // per member, so utilization counters track real device time.
        self.counters
            .execution_ns
            .fetch_add(execution.as_nanos() as u64, Ordering::Relaxed);
        for ((p, _), output) in group.into_iter().zip(outputs) {
            let Picked { req, queued } = p;
            drop(req.args);
            self.finish(
                FinishedRequest {
                    reply: req.reply,
                    submitted: req.submitted,
                    ctx: req.ctx,
                    owns_root: req.owns_root,
                    submitted_ns: req.submitted_ns,
                },
                Ok(output),
                queued,
                execution,
                size,
            );
        }
    }

    /// Batched-path error recovery: run every member individually on the
    /// unbatched path, preserving per-request semantics exactly.
    fn fall_back(&mut self, group: Vec<(Picked, usize)>) {
        for (p, _) in group {
            self.execute_single(p);
        }
    }

    /// Terminal bookkeeping shared by both paths: counters, root span,
    /// reply.
    fn finish(
        &self,
        req: FinishedRequest,
        result: std::result::Result<Object, VmError>,
        queued: Duration,
        execution: Duration,
        batch_size: usize,
    ) {
        let latency = req.submitted.elapsed();
        if req.owns_root {
            nimble_obs::record_root(
                req.ctx,
                "engine.request",
                ObsCat::Engine,
                req.submitted_ns,
                nimble_obs::now_ns(),
                if result.is_ok() { 0 } else { 1 },
            );
        }
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        self.counters
            .latency_ns
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
        self.counters
            .queue_ns
            .fetch_add(queued.as_nanos() as u64, Ordering::Relaxed);
        self.counters
            .max_latency_ns
            .fetch_max(latency.as_nanos() as u64, Ordering::Relaxed);
        // A dropped Ticket just means the caller stopped listening.
        let _ = req.reply.send(Ok(Completion {
            result,
            latency,
            queued,
            execution,
            worker: self.worker_idx,
            batch_size,
        }));
    }
}

/// The slice of a [`Request`] that survives to terminal bookkeeping
/// (arguments are consumed by execution or dropped before the reply).
struct FinishedRequest {
    reply: Sender<std::result::Result<Completion, EngineError>>,
    submitted: Instant,
    ctx: SpanContext,
    owns_root: bool,
    submitted_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use nimble_device::DeviceSet;
    use nimble_ir::attrs::Attrs;
    use nimble_ir::builder::FunctionBuilder;
    use nimble_ir::types::TensorType;
    use nimble_ir::Module;
    use nimble_tensor::{DType, Tensor};

    fn identity_plus_one_vm() -> Arc<VirtualMachine> {
        let mut fb = FunctionBuilder::new("main");
        let x = fb.param("x", TensorType::new(&[4], DType::F32));
        let one = fb.constant(Tensor::ones_f32(&[4]));
        let y = fb.call("add", vec![x, one], Attrs::new());
        let mut module = Module::new();
        module.add_function("main", fb.finish(y));
        let (exe, _) = compile(&module, &CompileOptions::default()).expect("compile");
        Arc::new(VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).expect("vm"))
    }

    #[test]
    fn serves_requests_and_counts_them() {
        let engine = Engine::new(identity_plus_one_vm(), EngineConfig::with_workers(2)).unwrap();
        let tickets: Vec<Ticket> = (0..10)
            .map(|i| {
                engine.submit(
                    "main",
                    vec![Object::tensor(
                        Tensor::from_vec_f32(vec![i as f32; 4], &[4]).unwrap(),
                    )],
                )
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let done = t.wait().unwrap();
            let out = done.result.unwrap().wait_tensor().unwrap();
            assert_eq!(out.as_f32().unwrap(), &[i as f32 + 1.0; 4]);
            assert!(done.latency >= done.execution);
        }
        let stats = engine.stats();
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.expired, 0);
        assert!(stats.batches >= 1 && stats.batches <= 10);
        assert!(stats.mean_latency() > Duration::ZERO);
    }

    #[test]
    fn try_submit_reports_backpressure() {
        // 1 worker, tiny queue: park the worker on a first request, then
        // fill the queue until Busy appears.
        let vm = identity_plus_one_vm();
        let engine = Engine::new(
            Arc::clone(&vm),
            EngineConfig {
                workers: 1,
                queue_capacity: 2,
                max_batch: 1,
            },
        )
        .unwrap();
        let arg = || vec![Object::tensor(Tensor::ones_f32(&[4]))];
        let mut tickets = Vec::new();
        let mut saw_busy = false;
        for _ in 0..200 {
            match engine.try_submit("main", arg()) {
                Ok(t) => tickets.push(t),
                Err(EngineError::Busy) => {
                    saw_busy = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(saw_busy, "queue of capacity 2 never filled");
        for t in tickets {
            assert!(t.wait().unwrap().result.is_ok());
        }
    }

    #[test]
    fn zero_workers_is_rejected() {
        let vm = identity_plus_one_vm();
        assert!(Engine::new(vm, EngineConfig::with_workers(0)).is_err());
    }

    #[test]
    fn drop_completes_accepted_requests() {
        let vm = identity_plus_one_vm();
        let engine = Engine::new(vm, EngineConfig::with_workers(2)).unwrap();
        let tickets: Vec<Ticket> = (0..16)
            .map(|_| engine.submit("main", vec![Object::tensor(Tensor::ones_f32(&[4]))]))
            .collect();
        drop(engine);
        for t in tickets {
            assert!(t.wait().unwrap().result.is_ok());
        }
    }

    #[test]
    fn shutdown_drains_then_rejects_new_work() {
        let vm = identity_plus_one_vm();
        let engine = Engine::new(vm, EngineConfig::with_workers(2)).unwrap();
        let tickets: Vec<Ticket> = (0..16)
            .map(|_| engine.submit("main", vec![Object::tensor(Tensor::ones_f32(&[4]))]))
            .collect();
        engine.shutdown();
        // Everything accepted before shutdown completed.
        for t in tickets {
            assert!(t.wait().unwrap().result.is_ok());
        }
        assert_eq!(engine.stats().completed, 16);
        assert_eq!(engine.queue_depth(), 0);
        // New work after shutdown resolves to Closed, never blocks.
        let late = engine.submit("main", vec![Object::tensor(Tensor::ones_f32(&[4]))]);
        assert_eq!(late.wait().unwrap_err(), EngineError::Closed);
        assert_eq!(
            engine
                .try_submit("main", vec![Object::tensor(Tensor::ones_f32(&[4]))])
                .unwrap_err(),
            EngineError::Closed
        );
        // Idempotent.
        engine.shutdown();
    }

    #[test]
    fn expired_deadline_skips_execution() {
        let vm = identity_plus_one_vm();
        let engine = Engine::new(
            Arc::clone(&vm),
            EngineConfig {
                workers: 1,
                queue_capacity: 64,
                max_batch: 1,
            },
        )
        .unwrap();
        // A deadline already in the past must expire, not execute.
        let past = Instant::now() - Duration::from_millis(1);
        let t =
            engine.submit_with_deadline("main", vec![Object::tensor(Tensor::ones_f32(&[4]))], past);
        assert_eq!(t.wait().unwrap_err(), EngineError::Expired);
        // A generous deadline completes normally.
        let future = Instant::now() + Duration::from_secs(60);
        let t = engine.submit_with_deadline(
            "main",
            vec![Object::tensor(Tensor::ones_f32(&[4]))],
            future,
        );
        assert!(t.wait().unwrap().result.is_ok());
        let stats = engine.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn queue_exec_latency_split() {
        let engine = Engine::new(
            identity_plus_one_vm(),
            EngineConfig {
                workers: 1,
                queue_capacity: 64,
                max_batch: 2,
            },
        )
        .unwrap();
        let tickets: Vec<Ticket> = (0..8)
            .map(|_| engine.submit("main", vec![Object::tensor(Tensor::ones_f32(&[4]))]))
            .collect();
        for t in tickets {
            let done = t.wait().unwrap();
            assert!(done.result.is_ok());
            // Queue wait ends before execution starts, and both fit inside
            // the end-to-end latency.
            assert!(done.latency >= done.queued);
            assert!(done.latency >= done.queued + done.execution);
        }
        let stats = engine.stats();
        assert_eq!(stats.completed, 8);
        assert!(stats.total_latency_ns >= stats.total_queue_ns + stats.total_execution_ns);
        assert!(stats.mean_latency() >= stats.mean_queue_wait());
        assert!(stats.mean_latency() >= stats.mean_execution());
    }

    #[test]
    fn pause_freezes_dequeue_and_resume_drains() {
        let engine = Engine::new(
            identity_plus_one_vm(),
            EngineConfig {
                workers: 2,
                queue_capacity: 16,
                max_batch: 4,
            },
        )
        .unwrap();
        engine.pause_and_wait();
        let tickets: Vec<Ticket> = (0..6)
            .map(|_| engine.submit("main", vec![Object::tensor(Tensor::ones_f32(&[4]))]))
            .collect();
        // Paused workers never touch the channel: depth is exact & stable.
        assert_eq!(engine.queue_depth(), 6);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(engine.queue_depth(), 6);
        assert_eq!(engine.stats().completed, 0);
        engine.resume();
        for t in tickets {
            assert!(t.wait().unwrap().result.is_ok());
        }
        assert_eq!(engine.stats().completed, 6);
    }

    #[test]
    fn kill_answers_queued_work_with_closed() {
        let engine = Engine::new(
            identity_plus_one_vm(),
            EngineConfig {
                workers: 1,
                queue_capacity: 16,
                max_batch: 2,
            },
        )
        .unwrap();
        engine.pause_and_wait();
        let tickets: Vec<Ticket> = (0..5)
            .map(|_| engine.submit("main", vec![Object::tensor(Tensor::ones_f32(&[4]))]))
            .collect();
        engine.kill();
        // Every queued request resolves — explicitly Closed, not silence,
        // and not executed.
        for t in tickets {
            assert_eq!(t.wait().unwrap_err(), EngineError::Closed);
        }
        let stats = engine.stats();
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.closed, 5);
        assert!(engine.is_killed());
        // New work after a kill is refused like after shutdown.
        assert_eq!(
            engine
                .try_submit("main", vec![Object::tensor(Tensor::ones_f32(&[4]))])
                .unwrap_err(),
            EngineError::Closed
        );
        // Idempotent.
        engine.kill();
    }

    #[test]
    fn shutdown_of_paused_engine_executes_backlog() {
        let engine = Engine::new(identity_plus_one_vm(), EngineConfig::with_workers(2)).unwrap();
        engine.pause_and_wait();
        let tickets: Vec<Ticket> = (0..4)
            .map(|_| engine.submit("main", vec![Object::tensor(Tensor::ones_f32(&[4]))]))
            .collect();
        // Graceful drain un-pauses: accepted work runs, nothing strands.
        engine.shutdown();
        for t in tickets {
            assert!(t.wait().unwrap().result.is_ok());
        }
        assert_eq!(engine.stats().completed, 4);
    }

    #[test]
    fn replica_label_round_trips() {
        let engine = Engine::new(identity_plus_one_vm(), EngineConfig::with_workers(1)).unwrap();
        assert_eq!(engine.replica_label(), 0);
        engine.set_replica_label(7);
        assert_eq!(engine.replica_label(), 7);
    }

    #[test]
    fn profiler_sums_match_across_workers() {
        let vm = identity_plus_one_vm();
        vm.set_profiling(true);
        let engine = Engine::new(Arc::clone(&vm), EngineConfig::with_workers(4)).unwrap();
        let tickets: Vec<Ticket> = (0..32)
            .map(|_| engine.submit("main", vec![Object::tensor(Tensor::ones_f32(&[4]))]))
            .collect();
        for t in tickets {
            t.wait().unwrap().result.unwrap();
        }
        let report = engine.profile_report();
        assert_eq!(vm.profiled_runs(), 32);
        // Every request runs the same single-kernel program.
        assert_eq!(report.kernel_invocations, 32);
        assert!(report.instructions >= 32);
    }

    // ---- dynamic batching ------------------------------------------------

    use nimble_tensor::kernels;
    use nimble_vm::BatchConfig;

    /// `main(x: [Any]) = x + x` plus the padded batched entry
    /// `main_b4(x: [Any, 4]) = x + x`. Elementwise, so batched rows are
    /// trivially bitwise-identical to unbatched vectors.
    fn batchable_vm() -> Arc<VirtualMachine> {
        let mut module = Module::new();
        let mut fb = FunctionBuilder::new("main");
        let x = fb.param("x", TensorType::with_any(&[None], DType::F32));
        let y = fb.call("add", vec![x.clone(), x], Attrs::new());
        module.add_function("main", fb.finish(y));
        let mut fb = FunctionBuilder::new("main_b4");
        let x = fb.param("x", TensorType::with_any(&[None, Some(4)], DType::F32));
        let y = fb.call("add", vec![x.clone(), x], Attrs::new());
        module.add_function("main_b4", fb.finish(y));
        let (exe, _) = compile(&module, &CompileOptions::default()).expect("compile");
        Arc::new(VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).expect("vm"))
    }

    fn vector_plan(config: BatchConfig) -> Arc<BatchPlan> {
        Arc::new(BatchPlan {
            function: "main".to_string(),
            config,
            key: Arc::new(|args: &[Object]| {
                let dims = args.first()?.tensor_shape().ok()?;
                (dims.len() == 1 && dims[0] > 0).then_some(dims[0])
            }),
            gather: Arc::new(|members, keys, bucket| {
                let mut data = vec![0f32; members.len() * bucket];
                for (i, (args, &k)) in members.iter().zip(keys).enumerate() {
                    let t = args[0].wait_tensor()?;
                    data[i * bucket..i * bucket + k].copy_from_slice(t.as_f32()?);
                }
                let batched = nimble_tensor::Tensor::from_vec_f32(data, &[members.len(), bucket])?;
                Ok(vec![Object::tensor(batched)])
            }),
            scatter: Arc::new(|out, keys, _bucket| {
                let t = out.wait_tensor()?;
                keys.iter()
                    .enumerate()
                    .map(|(i, &k)| {
                        let row = kernels::slice_axis(&t, 0, i, i + 1)?;
                        let trimmed = kernels::slice_axis(&row, 1, 0, k)?;
                        Ok(Object::tensor(trimmed.reshaped(&[k])?))
                    })
                    .collect()
            }),
        })
    }

    fn vec_arg(data: Vec<f32>) -> Vec<Object> {
        let n = data.len();
        vec![Object::tensor(Tensor::from_vec_f32(data, &[n]).unwrap())]
    }

    #[test]
    fn batched_outputs_bitwise_match_and_are_counted() {
        let vm = batchable_vm();
        let plan = vector_plan(BatchConfig {
            buckets: vec![4],
            min_batch: 2,
            max_batch: 8,
            max_wait: Duration::from_millis(20),
        });
        let engine = Engine::with_plan(
            Arc::clone(&vm),
            EngineConfig {
                workers: 1,
                queue_capacity: 16,
                max_batch: 8,
            },
            Some(plan),
        )
        .unwrap();
        // Pause so the whole wave is queued before the single worker
        // drains it — the drain then forms one padded batch.
        engine.pause_and_wait();
        let inputs: Vec<Vec<f32>> = vec![
            vec![1.5, -2.25],
            vec![0.1, 0.2, 0.3, 0.4],
            vec![7.0, 8.5, -0.5],
            vec![std::f32::consts::PI],
        ];
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|v| engine.submit("main", vec_arg(v.clone())))
            .collect();
        engine.resume();
        for (v, t) in inputs.iter().zip(tickets) {
            let out = t.wait().unwrap();
            let got = out.result.unwrap().wait_tensor().unwrap();
            let got = got.as_f32().unwrap();
            assert_eq!(got.len(), v.len());
            for (g, x) in got.iter().zip(v) {
                // Bitwise, not approximate: batching must not perturb
                // results at all.
                assert_eq!(g.to_bits(), (x + x).to_bits());
            }
            assert!(out.batch_size >= 1);
        }
        let stats = engine.stats();
        assert_eq!(stats.completed, 4);
        assert!(stats.batches_formed >= 1, "no batch formed");
        assert!(stats.batched_requests >= 2);
        // Units: every batched member pads to the bucket edge.
        assert_eq!(
            stats.padded_units + stats.used_units,
            4 * stats.batched_requests
        );
        assert!(stats.pad_waste_ratio() >= 0.0 && stats.pad_waste_ratio() < 1.0);
        assert_eq!(engine.last_formed_bucket(), Some(4));
    }

    #[test]
    fn no_plan_serves_the_unbatched_path() {
        let vm = batchable_vm();
        let engine = Engine::new(Arc::clone(&vm), EngineConfig::with_workers(1)).unwrap();
        assert!(engine.plan().is_none());
        let tickets: Vec<Ticket> = (0..6)
            .map(|_| engine.submit("main", vec_arg(vec![1.0, 2.0])))
            .collect();
        for t in tickets {
            let done = t.wait().unwrap();
            assert!(done.result.is_ok());
            assert_eq!(done.batch_size, 1);
        }
        let stats = engine.stats();
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.batched_requests, 0);
        assert_eq!(stats.batches_formed, 0);
        assert_eq!(engine.last_formed_bucket(), None);
    }

    #[test]
    fn expired_request_never_joins_a_forming_batch() {
        let vm = batchable_vm();
        let plan = vector_plan(BatchConfig {
            buckets: vec![4],
            min_batch: 2,
            max_batch: 8,
            max_wait: Duration::ZERO,
        });
        let engine = Engine::with_plan(
            Arc::clone(&vm),
            EngineConfig {
                workers: 1,
                queue_capacity: 16,
                max_batch: 8,
            },
            Some(plan),
        )
        .unwrap();
        engine.pause_and_wait();
        // The expired request sits between two live ones: the deadline
        // check at pull-into-forming-batch time must drop it before it
        // can claim a batch slot or pad-inflate the gather.
        let a = engine.submit("main", vec_arg(vec![1.0, 2.0]));
        let dead = engine.submit_with_deadline(
            "main",
            vec_arg(vec![3.0]),
            Instant::now() - Duration::from_millis(1),
        );
        let b = engine.submit("main", vec_arg(vec![4.0, 5.0, 6.0]));
        engine.resume();
        assert_eq!(dead.wait().unwrap_err(), EngineError::Expired);
        let got_a = a.wait().unwrap();
        let got_b = b.wait().unwrap();
        assert!(got_a.result.is_ok() && got_b.result.is_ok());
        let stats = engine.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 2);
        // The expired request contributed nothing to batch accounting.
        assert_eq!(stats.batched_requests, 2);
        assert_eq!(stats.used_units, 5);
        assert_eq!(stats.padded_units, 3);
    }

    #[test]
    fn batched_path_errors_fall_back_to_unbatched() {
        let vm = batchable_vm();
        // Bucket 8 has no compiled `main_b8` entry: the batched run fails
        // and every member must still complete on the unbatched path.
        let plan = vector_plan(BatchConfig {
            buckets: vec![8],
            min_batch: 2,
            max_batch: 8,
            max_wait: Duration::ZERO,
        });
        let engine = Engine::with_plan(
            Arc::clone(&vm),
            EngineConfig {
                workers: 1,
                queue_capacity: 16,
                max_batch: 8,
            },
            Some(plan),
        )
        .unwrap();
        engine.pause_and_wait();
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| engine.submit("main", vec_arg(vec![i as f32; 2])))
            .collect();
        engine.resume();
        for (i, t) in tickets.into_iter().enumerate() {
            let done = t.wait().unwrap();
            let out = done.result.unwrap().wait_tensor().unwrap();
            assert_eq!(out.as_f32().unwrap(), &[2.0 * i as f32; 2]);
            assert_eq!(done.batch_size, 1);
        }
        let stats = engine.stats();
        assert_eq!(stats.completed, 4);
        // The failed batch never counts as formed.
        assert_eq!(stats.batches_formed, 0);
        assert_eq!(stats.batched_requests, 0);
    }

    #[test]
    fn undersized_group_runs_unbatched() {
        let vm = batchable_vm();
        let plan = vector_plan(BatchConfig {
            buckets: vec![4],
            min_batch: 3,
            max_batch: 8,
            max_wait: Duration::ZERO,
        });
        let engine = Engine::with_plan(
            Arc::clone(&vm),
            EngineConfig {
                workers: 1,
                queue_capacity: 16,
                max_batch: 8,
            },
            Some(plan),
        )
        .unwrap();
        // A lone request can never meet min_batch = 3 with max_wait = 0:
        // it must run unbatched rather than stall.
        let t = engine.submit("main", vec_arg(vec![2.5, -1.0]));
        let done = t.wait().unwrap();
        assert_eq!(done.batch_size, 1);
        let got = done.result.unwrap().wait_tensor().unwrap();
        assert_eq!(got.as_f32().unwrap(), &[5.0, -2.0]);
        let stats = engine.stats();
        assert_eq!(stats.batches_formed, 0);
        assert_eq!(stats.batched_requests, 0);
    }
}
