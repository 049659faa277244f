//! Runtime shape specialization: a hot-shape observation cache with online
//! tuning (ROADMAP item 3).
//!
//! Nimble's symbolic codegen (paper §4) picks residue variants at dispatch
//! time — correct for arbitrary dynamic shapes, but a production server
//! sees a Zipfian shape distribution, and the top few concrete shapes
//! deserve fully concretized, tuned kernels. This crate adds that tier as
//! a layer between compilation and serving:
//!
//! 1. **Observe** — a [`ModelSpecializer`] installs itself as the VM's
//!    [`DispatchHook`]. Every CPU `InvokePacked` on a dense-anchored
//!    kernel (symbolic `dense` or the fused dense+epilogue fast path,
//!    both carrying a [`DenseSpec`]) reports the concrete value of the
//!    `Any` row dimension `m`; the cache counts hits per `(kernel, m)`.
//! 2. **Tune** — when a shape crosses the configured hit threshold, a
//!    *background* specializer thread (never the request path) runs the
//!    existing `search_space`/`measure`/`top_configs` tuner against the
//!    exact shape, budgeted to `max_trials` proxy measurements and
//!    `top_k` exact-shape candidates (Vortex-style bounded online
//!    search), races the winners against the default schedule on the
//!    exact shape, and pre-packs the weight at the tuned `tile_k`.
//! 3. **Verify + install** — the candidate kernel is probe-run against
//!    the symbolic fallback on the real inputs captured at threshold
//!    time; only a **bitwise-identical** candidate is installed
//!    (atomically, per entry). Subsequent exact-shape dispatches take the
//!    fast path; every other shape — and any guard mismatch — falls back
//!    to the always-correct symbolic kernel.
//!
//! Eviction is LRU over observation recency with a capacity cap. A
//! specialized kernel's extra prepacked panel (a tuned-`tile_k` layout
//! next to the base pack) is released when its last referencing entry is
//! evicted and again wholesale on [`ModelSpecializer::shutdown`] — the
//! serving layer couples that to the model unload/hot-swap drain path so
//! memory returns to baseline. A model that should not specialize is
//! simply never attached (`RegistryConfig::specialize = None` in the
//! serving layer).

use nimble_codegen::{
    select_schedule, tune_dense_symbolic, DenseSpec, Kernel, KernelError, TunerConfig,
};
use nimble_obs::hist::{Histogram, HistogramSnapshot};
use nimble_tensor::kernels::gemm::{gemm_packed, Epilogue};
use nimble_tensor::kernels::MatmulSchedule;
use nimble_tensor::pool::default_profile;
use nimble_tensor::{prepack, Tensor};
use nimble_vm::{DispatchHook, VirtualMachine};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock, Weak};
use std::time::Instant;

/// Knobs for the observation cache and the background tuner budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecializeConfig {
    /// Observations of one `(kernel, m)` shape before a tune is queued.
    pub hit_threshold: u64,
    /// Maximum tracked shapes per model; beyond it the least recently
    /// observed entry is evicted (installed kernels are dropped and their
    /// extra packs released).
    pub capacity: usize,
    /// Tuner: candidates carried from the proxy round to the exact-shape
    /// round (`TunerConfig::top_k`).
    pub top_k: usize,
    /// Tuner: upper bound on proxy-round measurements
    /// (`TunerConfig::max_trials`) — the online budget.
    pub max_trials: usize,
    /// Tuner: timing repetitions per measurement.
    pub repeats: usize,
    /// Tuner RNG seed (schedule-space subsampling).
    pub seed: u64,
}

impl Default for SpecializeConfig {
    fn default() -> SpecializeConfig {
        SpecializeConfig {
            hit_threshold: 16,
            capacity: 64,
            top_k: 4,
            max_trials: 12,
            repeats: 2,
            seed: 0x5eed,
        }
    }
}

/// `le` ladder of the tune-duration exposition: 1 µs × 2^i in
/// nanoseconds, i = 0..24 (1 µs .. ~8 s), then `+Inf`.
static TUNE_LADDER_NS: [u64; 24] = {
    let mut ladder = [0u64; 24];
    let mut i = 0;
    while i < ladder.len() {
        ladder[i] = 1_000 << i;
        i += 1;
    }
    ladder
};

/// Point-in-time view of the tune-duration histogram.
#[derive(Debug, Clone, Default)]
pub struct TuneHistSnapshot {
    /// Tune durations in nanoseconds, exposed over a 1 µs × 2^i ladder.
    pub ns: HistogramSnapshot,
    /// Total tunes recorded.
    pub count: u64,
    /// Total tuning wall time in seconds.
    pub sum_seconds: f64,
}

/// Point-in-time counters for one model's specializer.
#[derive(Debug, Clone, Default)]
pub struct SpecializeStats {
    /// Dispatches served by an installed specialized kernel.
    pub hits: u64,
    /// Dispatches on specializable kernels that ran the symbolic fallback.
    pub misses: u64,
    /// Specialized kernels installed (bitwise-verified).
    pub installs: u64,
    /// Cache entries evicted (LRU or capacity).
    pub evictions: u64,
    /// Tunes whose candidate failed the bitwise probe and was discarded.
    pub rejected: u64,
    /// Tunes executed by the background thread.
    pub tunes: u64,
    /// Tracked shapes currently in the cache.
    pub cache_len: usize,
    /// Cache entries currently holding an installed kernel.
    pub installed: usize,
    /// Extra prepack-cache entries (tuned-`tile_k` layouts) currently
    /// pinned by installed kernels — chaos accounting hook.
    pub extra_pack_entries: usize,
    /// Tune-duration histogram.
    pub tune_hist: TuneHistSnapshot,
}

/// Prepack-cache key: `(buffer, n, k, tile_k)`.
type PackKey = (usize, usize, usize, usize);

/// A specialized kernel ready to serve one exact shape.
struct Installed {
    kernel: Kernel,
    /// Buffer id of the weight the packed panels were built from; a
    /// dispatch whose weight differs (e.g. an executable reloaded into
    /// the same VM) misses instead of computing with stale panels.
    weight_id: usize,
    /// Extra prepack entry pinned by this kernel, when the tuned `tile_k`
    /// differs from the base layout (`None` when it reuses the base pack).
    pack_key: Option<PackKey>,
}

enum EntryState {
    /// Counting observations.
    Observing,
    /// A tune job is queued or running for this shape.
    Tuning,
    /// Specialized kernel installed; exact-shape dispatches take it.
    Ready(Installed),
    /// Tune produced a non-bitwise-identical candidate (e.g. an FMA
    /// execution profile); never retried, fallback serves forever.
    Rejected,
}

struct ShapeEntry {
    hits: AtomicU64,
    last_used: AtomicU64,
    state: RwLock<EntryState>,
}

/// One specializable kernel slot: its operand map and the loaded symbolic
/// kernel it falls back to.
struct SlotInfo {
    spec: Arc<DenseSpec>,
    fallback: Kernel,
}

struct TuneJob {
    kernel_idx: u32,
    m: usize,
    /// Real inputs captured at threshold time: operands for packing and
    /// the probe vector for the bitwise install check.
    inputs: Vec<Tensor>,
    /// Trace context of the request that crossed the threshold, so the
    /// background tune/install spans attach to its trace.
    ctx: nimble_obs::SpanContext,
}

/// Per-model shape-specialization state: observation cache, background
/// tuner thread, and the installed-kernel table. Install as a VM dispatch
/// hook via [`ModelSpecializer::attach`]; tear down (and release every
/// extra pack) via [`ModelSpecializer::shutdown`].
pub struct ModelSpecializer {
    cfg: SpecializeConfig,
    vm: Weak<VirtualMachine>,
    /// Index-aligned with the VM kernel table; `None` for
    /// non-specializable slots.
    slots: Vec<Option<Arc<SlotInfo>>>,
    entries: RwLock<HashMap<(u32, usize), Arc<ShapeEntry>>>,
    /// Global observation tick driving LRU recency.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    installs: AtomicU64,
    evictions: AtomicU64,
    rejected: AtomicU64,
    tunes: AtomicU64,
    /// Tune durations, nanoseconds.
    tune_hist: Histogram,
    /// Refcounts of extra prepack entries created by installed kernels.
    pack_refs: Mutex<HashMap<PackKey, usize>>,
    tx: Mutex<Option<Sender<TuneJob>>>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Queued + running tune jobs, for [`ModelSpecializer::quiesce`].
    pending: Mutex<u64>,
    idle: Condvar,
    /// Set at the start of [`ModelSpecializer::shutdown`]: the worker
    /// drops (rather than tunes) any still-queued jobs, so no prepack
    /// entry can be created after teardown started releasing them.
    closed: AtomicBool,
    /// Model name for structured install/reject/evict events (set by the
    /// serving layer; empty until then).
    label: RwLock<String>,
}

impl std::fmt::Debug for ModelSpecializer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelSpecializer")
            .field("slots", &self.slots.iter().filter(|s| s.is_some()).count())
            .field("entries", &self.entries.read().unwrap().len())
            .finish()
    }
}

impl ModelSpecializer {
    /// Scan `vm` for specializable kernels, spawn the background tuner
    /// thread, and install the specializer as the VM's dispatch hook.
    /// Returns `None` when the program has no dense anchor to specialize
    /// — the VM is left unhooked and pays nothing.
    pub fn attach(
        vm: &Arc<VirtualMachine>,
        cfg: SpecializeConfig,
    ) -> Option<Arc<ModelSpecializer>> {
        let slots: Vec<Option<Arc<SlotInfo>>> = vm
            .kernels()
            .iter()
            .enumerate()
            .map(|(i, k)| {
                if vm.kernel_is_shape_func(i) {
                    return None;
                }
                k.dense_spec().map(|spec| {
                    Arc::new(SlotInfo {
                        spec: Arc::clone(spec),
                        fallback: k.clone(),
                    })
                })
            })
            .collect();
        if slots.iter().all(|s| s.is_none()) {
            return None;
        }
        let (tx, rx) = std::sync::mpsc::channel::<TuneJob>();
        let this = Arc::new(ModelSpecializer {
            cfg,
            vm: Arc::downgrade(vm),
            slots,
            entries: RwLock::new(HashMap::new()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            installs: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            tunes: AtomicU64::new(0),
            tune_hist: Histogram::with_ladder(&TUNE_LADDER_NS),
            pack_refs: Mutex::new(HashMap::new()),
            tx: Mutex::new(Some(tx)),
            worker: Mutex::new(None),
            pending: Mutex::new(0),
            idle: Condvar::new(),
            closed: AtomicBool::new(false),
            label: RwLock::new(String::new()),
        });
        let weak = Arc::downgrade(&this);
        let handle = std::thread::Builder::new()
            .name("nimble-specialize".into())
            .spawn(move || Self::worker_loop(&weak, &rx))
            .expect("spawn specializer thread");
        *this.worker.lock().unwrap() = Some(handle);
        vm.set_dispatch_hook(Some(Arc::clone(&this) as Arc<dyn DispatchHook>));
        Some(this)
    }

    /// Name this specializer's structured events with its model (serving
    /// layer wiring, at install).
    pub fn set_label(&self, model: &str) {
        model.clone_into(&mut self.label.write().unwrap());
    }

    /// Emit one structured event tagged with this specializer's model.
    fn emit_event(&self, kind: &str, fields: &[(&str, nimble_obs::events::FieldVal)]) {
        let label = self.label.read().unwrap();
        nimble_obs::events::emit(kind, &label, fields);
    }

    /// Whether the cache currently holds an installed kernel for row
    /// count `m` — the serving layer's warmth probe for shape-affinity
    /// admission.
    pub fn is_warm(&self, m: usize) -> bool {
        self.entries.read().unwrap().iter().any(|((_, em), e)| {
            *em == m && matches!(*e.state.read().unwrap(), EntryState::Ready(_))
        })
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> SpecializeStats {
        let entries = self.entries.read().unwrap();
        let installed = entries
            .values()
            .filter(|e| matches!(*e.state.read().unwrap(), EntryState::Ready(_)))
            .count();
        let tune_ns = self.tune_hist.snapshot();
        SpecializeStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            installs: self.installs.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            tunes: self.tunes.load(Ordering::Relaxed),
            cache_len: entries.len(),
            installed,
            extra_pack_entries: self.pack_refs.lock().unwrap().len(),
            tune_hist: TuneHistSnapshot {
                count: tune_ns.count(),
                sum_seconds: tune_ns.sum() as f64 * 1e-9,
                ns: tune_ns,
            },
        }
    }

    /// Block until every queued and running tune job has completed (test
    /// and chaos-quiesce hook; requests never wait on this).
    pub fn quiesce(&self) {
        let mut pending = self.pending.lock().unwrap();
        while *pending > 0 {
            pending = self.idle.wait(pending).unwrap();
        }
    }

    /// Tear down: detach the VM hook, stop the tuner thread (draining its
    /// queue), drop every installed kernel, and release every extra
    /// prepack entry this specializer created, returning memory to the
    /// pre-attach baseline. Called by the serving layer on model
    /// unload/hot-swap, after the replica drain. Idempotent.
    pub fn shutdown(&self) {
        self.closed.store(true, Ordering::Release);
        if let Some(vm) = self.vm.upgrade() {
            vm.set_dispatch_hook(None);
        }
        // Dropping the sender ends the worker loop once the queue drains.
        self.tx.lock().unwrap().take();
        if let Some(h) = self.worker.lock().unwrap().take() {
            let _ = h.join();
        }
        self.entries.write().unwrap().clear();
        let keys: Vec<PackKey> = self
            .pack_refs
            .lock()
            .unwrap()
            .drain()
            .map(|(k, _)| k)
            .collect();
        prepack::release_entries(&keys);
    }

    /// Evict the least recently observed entry. Caller holds the write
    /// lock on `entries`.
    fn evict_lru(&self, entries: &mut HashMap<(u32, usize), Arc<ShapeEntry>>) {
        let Some(victim) = entries
            .iter()
            .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
            .map(|(k, _)| *k)
        else {
            return;
        };
        if let Some(e) = entries.remove(&victim) {
            self.release_entry_pack(&e);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.emit_event(
                "specialize_evict",
                &[
                    (
                        "kernel",
                        nimble_obs::events::FieldVal::U64(u64::from(victim.0)),
                    ),
                    ("rows", nimble_obs::events::FieldVal::U64(victim.1 as u64)),
                ],
            );
        }
    }

    /// Drop an entry's pack reference (if installed with an extra
    /// layout); releases the prepack entry when the last reference goes.
    fn release_entry_pack(&self, entry: &ShapeEntry) {
        let state = entry.state.read().unwrap();
        if let EntryState::Ready(inst) = &*state {
            self.unref_pack(inst.pack_key);
        }
    }

    /// Decrement one pack reference; releases the prepack entry when the
    /// last reference goes.
    fn unref_pack(&self, key: Option<PackKey>) {
        let Some(key) = key else { return };
        let mut refs = self.pack_refs.lock().unwrap();
        if let Some(n) = refs.get_mut(&key) {
            *n -= 1;
            if *n == 0 {
                refs.remove(&key);
                prepack::release_entries(&[key]);
            }
        }
    }

    /// Test hook: evict every entry (keeps counters; releases packs).
    #[doc(hidden)]
    pub fn evict_all(&self) {
        let mut entries = self.entries.write().unwrap();
        for (_, e) in entries.drain() {
            self.release_entry_pack(&e);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn worker_loop(weak: &Weak<ModelSpecializer>, rx: &Receiver<TuneJob>) {
        while let Ok(job) = rx.recv() {
            let Some(this) = weak.upgrade() else { break };
            let _guard = nimble_obs::enter(job.ctx);
            this.process(job);
        }
    }

    /// Run one tune job: budgeted schedule search on the exact shape,
    /// pack, bitwise probe against the symbolic fallback, and atomic
    /// install. Runs on the background thread only.
    fn process(&self, job: TuneJob) {
        // Once shutdown has begun, leftover queued jobs are dropped
        // untuned: a late `get_or_pack` would re-create panels the
        // teardown path is in the middle of releasing.
        let outcome = if self.closed.load(Ordering::Acquire) {
            None
        } else {
            self.tune_and_install(&job)
        };
        {
            // Publish under the entries read lock: eviction needs the
            // write lock, so an entry seen here cannot be evicted out
            // from under the pack-reference bump (lock order is always
            // `entries` then `pack_refs`).
            let entries = self.entries.read().unwrap();
            match (entries.get(&(job.kernel_idx, job.m)), outcome) {
                (Some(entry), Some(inst)) => {
                    if let Some(key) = inst.pack_key {
                        *self.pack_refs.lock().unwrap().entry(key).or_insert(0) += 1;
                    }
                    self.installs.fetch_add(1, Ordering::Relaxed);
                    self.emit_event(
                        "specialize_install",
                        &[
                            (
                                "kernel",
                                nimble_obs::events::FieldVal::U64(u64::from(job.kernel_idx)),
                            ),
                            ("rows", nimble_obs::events::FieldVal::U64(job.m as u64)),
                        ],
                    );
                    // An eviction + re-observation can race a second tune
                    // for the same shape: overwriting a previous install
                    // must release its pack reference, or the layout
                    // leaks.
                    let old = std::mem::replace(
                        &mut *entry.state.write().unwrap(),
                        EntryState::Ready(inst),
                    );
                    if let EntryState::Ready(old) = old {
                        self.unref_pack(old.pack_key);
                    }
                }
                (Some(entry), None) => {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    self.emit_event(
                        "specialize_reject",
                        &[
                            (
                                "kernel",
                                nimble_obs::events::FieldVal::U64(u64::from(job.kernel_idx)),
                            ),
                            ("rows", nimble_obs::events::FieldVal::U64(job.m as u64)),
                        ],
                    );
                    let old =
                        std::mem::replace(&mut *entry.state.write().unwrap(), EntryState::Rejected);
                    if let EntryState::Ready(old) = old {
                        self.unref_pack(old.pack_key);
                    }
                }
                (None, Some(inst)) => {
                    // Evicted while tuning: nothing published; unpin the
                    // candidate's extra layout unless another installed
                    // kernel shares it.
                    if let Some(key) = inst.pack_key {
                        if !self.pack_refs.lock().unwrap().contains_key(&key) {
                            drop(inst);
                            prepack::release_entries(&[key]);
                        }
                    }
                }
                (None, None) => {}
            }
        }
        let mut pending = self.pending.lock().unwrap();
        *pending -= 1;
        if *pending == 0 {
            self.idle.notify_all();
        }
    }

    /// The tune itself; returns the verified installed kernel, or `None`
    /// when the shape is untunable or the candidate is not bitwise
    /// identical. On `None`, any extra pack created for the candidate is
    /// released before returning.
    fn tune_and_install(&self, job: &TuneJob) -> Option<Installed> {
        let slot = self.slots.get(job.kernel_idx as usize)?.as_ref()?;
        let spec = &slot.spec;
        let w = spec.w.resolve(&job.inputs)?.clone();
        if w.rank() != 2 {
            return None;
        }
        let (n, k) = (w.dims()[0], w.dims()[1]);
        if n == 0 || k == 0 {
            return None;
        }
        self.tunes.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let span = nimble_obs::span_full(
            "specialize.tune",
            nimble_obs::Category::Specialize,
            job.m as u64,
        );
        let tcfg = TunerConfig {
            proxy_dim: job.m,
            top_k: self.cfg.top_k,
            eval_shapes: vec![job.m],
            repeats: self.cfg.repeats,
            max_trials: self.cfg.max_trials,
            seed: self.cfg.seed ^ job.m as u64,
        };
        let report = tune_dense_symbolic(n, k, &tcfg);
        // `select_schedule` always races the default schedule against the
        // candidates on the exact shape, so the winner is never worse
        // than what the symbolic fallback runs today.
        let choice = select_schedule(n, k, &report.top_configs, &[job.m], self.cfg.repeats);
        let sched = choice.schedule.sanitized();
        drop(span);

        let base = MatmulSchedule::for_profile(default_profile());
        let is_base_layout = sched.tile_k.max(1) == base.tile_k.max(1)
            || sched.tile_k.max(1) == base.sanitized().tile_k.max(1);
        let pb = prepack::get_or_pack(&w, n, k, sched.tile_k).ok()?;
        let pack_key = (!is_base_layout).then_some((w.buffer_id(), n, k, sched.tile_k.max(1)));

        let kernel = {
            let spec = Arc::clone(spec);
            let fallback = slot.fallback.clone();
            let pb = Arc::clone(&pb);
            let weight_id = w.buffer_id();
            // The schedule race and the installed kernel both inherit the
            // process-wide active SIMD backend; record it in the name so
            // traces show which ISA the winning measurement ran under.
            let name = format!(
                "{}@m={}[{sched:?},{}]",
                slot.fallback.name(),
                job.m,
                nimble_simd::active().label()
            );
            Kernel::new(&name, move |inputs: &[Tensor]| {
                // Guards re-derive everything from the live inputs; any
                // mismatch (weight swapped, odd rank, wrong k) routes to
                // the symbolic fallback instead of erroring.
                let (Some(x), Some(w)) = (spec.x.resolve(inputs), spec.w.resolve(inputs)) else {
                    return fallback.invoke(inputs);
                };
                if w.buffer_id() != weight_id || x.rank() == 0 {
                    return fallback.invoke(inputs);
                }
                let (n, k) = (pb.n(), pb.k());
                if *x.dims().last().expect("rank >= 1") != k {
                    return fallback.invoke(inputs);
                }
                let bias = spec.bias.as_ref().and_then(|b| b.resolve(inputs));
                let bb = match bias {
                    Some(b) => {
                        if b.dims() != [n] {
                            return fallback.invoke(inputs);
                        }
                        Some(b.as_f32().map_err(|e| KernelError(e.to_string()))?)
                    }
                    None => None,
                };
                let m: usize = x.dims()[..x.rank() - 1].iter().product();
                let xa = x.as_f32().map_err(|e| KernelError(e.to_string()))?;
                let mut out = vec![0.0f32; m * n];
                let ep = Epilogue {
                    bias: bb,
                    unary: &spec.unary,
                };
                gemm_packed(default_profile(), xa, &pb, m, &mut out, sched, &ep);
                let mut shape = x.dims()[..x.rank() - 1].to_vec();
                shape.push(n);
                Tensor::from_vec_f32(out, &shape)
                    .map(|t| vec![t])
                    .map_err(|e| KernelError(e.to_string()))
            })
        };

        // Bitwise install gate: the specialized kernel must reproduce the
        // symbolic fallback exactly on the captured real inputs. This is
        // what makes install safe even on execution profiles whose
        // microkernel uses fused multiply-add (different rounding).
        let identical = match (
            slot.fallback.invoke(&job.inputs),
            kernel.invoke(&job.inputs),
        ) {
            (Ok(want), Ok(got)) => {
                want.len() == got.len()
                    && want.iter().zip(&got).all(|(a, b)| {
                        a.dims() == b.dims()
                            && match (a.as_f32(), b.as_f32()) {
                                (Ok(av), Ok(bv)) => {
                                    av.iter().zip(bv).all(|(x, y)| x.to_bits() == y.to_bits())
                                }
                                _ => false,
                            }
                    })
            }
            _ => false,
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        self.tune_hist.record(elapsed);
        if !identical {
            if let Some(key) = pack_key {
                // Unpin the candidate's layout unless another installed
                // kernel shares it.
                if !self.pack_refs.lock().unwrap().contains_key(&key) {
                    drop(pb);
                    prepack::release_entries(&[key]);
                }
            }
            return None;
        }
        nimble_obs::record_under(
            nimble_obs::current(),
            "specialize.install",
            nimble_obs::Category::Specialize,
            nimble_obs::now_ns().saturating_sub(elapsed),
            nimble_obs::now_ns(),
            job.m as u64,
        );
        Some(Installed {
            kernel,
            weight_id: w.buffer_id(),
            pack_key,
        })
    }
}

impl DispatchHook for ModelSpecializer {
    fn intercept(&self, kernel_idx: u32, inputs: &[Tensor]) -> Option<Kernel> {
        let slot = self.slots.get(kernel_idx as usize)?.as_ref()?;
        let x = slot.spec.x.resolve(inputs)?;
        if x.rank() == 0 {
            return None;
        }
        let m: usize = x.dims()[..x.rank() - 1].iter().product();
        let span = nimble_obs::span_full(
            "specialize.observe",
            nimble_obs::Category::Specialize,
            m as u64,
        );
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let key = (kernel_idx, m);
        let entry = {
            let entries = self.entries.read().unwrap();
            entries.get(&key).cloned()
        };
        let entry = match entry {
            Some(e) => e,
            None => {
                let mut entries = self.entries.write().unwrap();
                if !entries.contains_key(&key) && entries.len() >= self.cfg.capacity.max(1) {
                    self.evict_lru(&mut entries);
                }
                Arc::clone(entries.entry(key).or_insert_with(|| {
                    Arc::new(ShapeEntry {
                        hits: AtomicU64::new(0),
                        last_used: AtomicU64::new(tick),
                        state: RwLock::new(EntryState::Observing),
                    })
                }))
            }
        };
        entry.last_used.store(tick, Ordering::Relaxed);
        let hits = entry.hits.fetch_add(1, Ordering::Relaxed) + 1;

        {
            let state = entry.state.read().unwrap();
            if let EntryState::Ready(inst) = &*state {
                let w = slot.spec.w.resolve(inputs)?;
                if w.buffer_id() == inst.weight_id {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    drop(span);
                    // Owned clone: keeps the specialized kernel (and its
                    // packed panels) alive for this whole invoke even if
                    // the entry is evicted concurrently.
                    return Some(inst.kernel.clone());
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);

        if hits == self.cfg.hit_threshold.max(1) {
            // Exactly-once transition per entry generation: the hit
            // counter is monotonic, so only one dispatch sees the
            // crossing value.
            let mut state = entry.state.write().unwrap();
            if matches!(*state, EntryState::Observing) {
                *state = EntryState::Tuning;
                drop(state);
                let job = TuneJob {
                    kernel_idx,
                    m,
                    inputs: inputs.to_vec(),
                    ctx: nimble_obs::current(),
                };
                // The request that crossed the hit threshold is what a
                // tail-debugging session wants to see: pin its flight
                // buffer so the trace is retained.
                nimble_obs::flight::pin(job.ctx, nimble_obs::flight::PIN_SPECIALIZE);
                let tx = self.tx.lock().unwrap();
                if let Some(tx) = tx.as_ref() {
                    *self.pending.lock().unwrap() += 1;
                    if tx.send(job).is_err() {
                        let mut pending = self.pending.lock().unwrap();
                        *pending -= 1;
                        if *pending == 0 {
                            self.idle.notify_all();
                        }
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_ladder_is_microsecond_octaves() {
        assert_eq!(TUNE_LADDER_NS[0], 1_000);
        assert_eq!(TUNE_LADDER_NS[2], 4_000);
        assert_eq!(TUNE_LADDER_NS[23], 1_000 << 23);
        let h = Histogram::with_ladder(&TUNE_LADDER_NS);
        h.record(500); // < 1 µs
        h.record(3_000); // 3 µs → le 4 µs
        h.record(3_000);
        h.record(u64::MAX / 2); // +Inf only
        let snap = h.snapshot();
        let rows: Vec<_> = snap.ladder().collect();
        assert_eq!(rows.len(), 25);
        assert_eq!(rows[0].count, 1);
        assert_eq!((rows[2].le, rows[2].count), (Some(4_000), 3));
        assert_eq!((rows[24].le, rows[24].count), (None, 4));
    }
}
