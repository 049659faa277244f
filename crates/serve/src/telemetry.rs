//! Serving telemetry: per-model outcome counters and latency
//! distributions, and the one table that exposes them.
//!
//! Every recording path is a handful of relaxed atomic increments — no
//! locks, no allocation — so workers and clients can record from any
//! thread without contending. Distributions are
//! [`nimble_obs::hist::Histogram`]s (latency and queue wait in
//! nanoseconds, batch size in members); reading goes through snapshots,
//! so a reader never blocks a writer.
//!
//! [`ModelStats`] is the one snapshot of a model, and [`FAMILIES`] is
//! the one place a metric is declared: each row names a Prometheus family
//! and reads its series out of a `ModelStats`. The `/metrics` exposition
//! ([`render_metrics`]) and the [`ServeStats`] table printer both walk
//! that table, so a new counter is one new row.

use crate::shard::ShardStats;
use crate::slo::SloState;
use nimble_core::{ArenaStats, EngineStats};
use nimble_device::PoolStats;
use nimble_obs::export::PromBuf;
use nimble_obs::hist::{Histogram, HistogramSnapshot};
use nimble_specialize::SpecializeStats;
use nimble_vm::ProfileReport;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// `le` ladder (ns) of the latency and queue-wait histogram families,
/// and of their exemplars: 1ms, 5ms, 10ms, 50ms, 100ms, 500ms, 1s, +Inf.
static LATENCY_LADDER_NS: [u64; 7] = [
    1_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
];

/// A duration in nanoseconds, saturating.
pub(crate) fn as_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Add one to an event counter.
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Per-model outcome counters plus the completed-request latency
/// histogram. All writes are relaxed atomics.
///
/// Invariant (checked by the router tests and the `serve_mix` smoke
/// gate): every submission lands in exactly one of `accepted`,
/// `rejected_*`; every accepted request later lands in exactly one of
/// `completed`, `failed`, `expired`, `lost`, and `lost` stays zero unless
/// a worker thread died.
#[derive(Debug)]
pub struct ModelTelemetry {
    pub(crate) accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    pub(crate) expired: AtomicU64,
    /// The invariant bucket: nothing increments it, so a nonzero reading
    /// can only mean the books failed to close.
    lost: AtomicU64,
    /// Successful re-admissions after a replica died holding the request
    /// (the request itself still terminates exactly once).
    requeued: AtomicU64,
    /// Requests that exhausted requeues (or found no surviving replica)
    /// after replica deaths; folded into `failed` for the invariant.
    replica_deaths: AtomicU64,
    pub(crate) rejected_queue_full: AtomicU64,
    pub(crate) rejected_expired: AtomicU64,
    pub(crate) rejected_unloaded: AtomicU64,
    pub(crate) rejected_shutdown: AtomicU64,
    /// End-to-end latency (ns) of completed + failed requests; its
    /// exemplar cells hold the most recent *retained* flight-recorder
    /// trace per ladder bucket.
    latency: Histogram,
    /// Queue wait (ns, admission → worker pickup) of requests that
    /// reached a worker; `latency` covers queue + execution.
    queue: Histogram,
    /// Requests served inside a formed batch (batch size > 1).
    batched: AtomicU64,
    /// Requests served on the unbatched path (no plan, no bucket match,
    /// undersized group, or fallback).
    unbatched: AtomicU64,
    /// The batch size each completed request rode in (1 = unbatched);
    /// sizes are small, so the low buckets are exact.
    batch_size: Histogram,
    /// Last-known storage-arena counters for the model's live engine
    /// (refreshed by `Router::stats`; survives unload as history).
    arena: RwLock<ArenaStats>,
    /// Last-known VM profile for the model's live engine (refreshed by
    /// `Router::stats` and the Prometheus collector).
    profile: RwLock<ProfileReport>,
    /// Latest SLO watchdog verdict; `None` while no watchdog runs.
    slo: RwLock<Option<SloState>>,
}

impl Default for ModelTelemetry {
    fn default() -> ModelTelemetry {
        ModelTelemetry {
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            requeued: AtomicU64::new(0),
            replica_deaths: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_expired: AtomicU64::new(0),
            rejected_unloaded: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            latency: Histogram::with_ladder(&LATENCY_LADDER_NS),
            queue: Histogram::with_ladder(&LATENCY_LADDER_NS),
            batched: AtomicU64::new(0),
            unbatched: AtomicU64::new(0),
            batch_size: Histogram::new(),
            arena: RwLock::default(),
            profile: RwLock::default(),
            slo: RwLock::default(),
        }
    }
}

impl ModelTelemetry {
    /// A request reached a worker and ran: count the outcome and record
    /// its queue wait, end-to-end latency, and the batch size it was
    /// served at (1 = unbatched).
    pub(crate) fn record_completed(
        &self,
        ok: bool,
        queued: Duration,
        latency: Duration,
        batch_size: usize,
    ) {
        bump(if ok { &self.completed } else { &self.failed });
        self.queue.record(as_ns(queued));
        self.latency.record(as_ns(latency));
        bump(if batch_size > 1 {
            &self.batched
        } else {
            &self.unbatched
        });
        self.batch_size.record(batch_size as u64);
    }

    pub(crate) fn record_requeued(&self, n: u64) {
        if n > 0 {
            self.requeued.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// A request's serving replica(s) died and no survivor could take it:
    /// an explicit failure (never `lost`), tagged for the chaos report.
    pub(crate) fn record_replica_death(&self) {
        bump(&self.replica_deaths);
        bump(&self.failed);
    }

    /// Stamp the trace id of a freshly *retained* flight-recorder trace
    /// into the latency (and, when known, queue-wait) exemplar cells.
    pub(crate) fn record_exemplar(&self, latency_ns: u64, queue_ns: Option<u64>, trace: u64) {
        self.latency.exemplar(latency_ns, trace);
        if let Some(q) = queue_ns {
            self.queue.exemplar(q, trace);
        }
    }

    pub(crate) fn record_arena(&self, stats: ArenaStats) {
        *self.arena.write().unwrap() = stats;
    }

    pub(crate) fn record_profile(&self, profile: ProfileReport) {
        *self.profile.write().unwrap() = profile;
    }

    pub(crate) fn record_slo(&self, state: Option<SloState>) {
        *self.slo.write().unwrap() = state;
    }

    /// Snapshot this model's counters and histograms.
    pub fn snapshot(&self) -> ModelStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ModelStats {
            accepted: load(&self.accepted),
            completed: load(&self.completed),
            failed: load(&self.failed),
            expired: load(&self.expired),
            lost: load(&self.lost),
            requeued: load(&self.requeued),
            replica_deaths: load(&self.replica_deaths),
            rejected_queue_full: load(&self.rejected_queue_full),
            rejected_expired: load(&self.rejected_expired),
            rejected_unloaded: load(&self.rejected_unloaded),
            rejected_shutdown: load(&self.rejected_shutdown),
            latency: self.latency.snapshot(),
            queue: self.queue.snapshot(),
            batched: load(&self.batched),
            unbatched: load(&self.unbatched),
            batch_size: self.batch_size.snapshot(),
            slowest_trace: None,
            arena: *self.arena.read().unwrap(),
            profile: *self.profile.read().unwrap(),
            slo: self.slo.read().unwrap().clone(),
            live: None,
        }
    }
}

/// What only a *loaded* model has: engine, shard, device-pool and
/// specializer state read from its live registry entry. These have no
/// history once the model is unloaded.
#[derive(Debug, Clone)]
pub struct LiveStats {
    /// Engine counters summed across replicas.
    pub engine: EngineStats,
    /// Per-replica rows and the replica lifecycle log.
    pub shards: ShardStats,
    /// Device memory pool counters, `[cpu, gpu]`.
    pub pools: [PoolStats; 2],
    /// The model's specializer, when one is attached.
    pub specialize: Option<SpecializeStats>,
}

/// Snapshot of one model's serving counters.
#[derive(Debug, Clone, Default)]
pub struct ModelStats {
    /// Requests admitted to the model's queue.
    pub accepted: u64,
    /// Accepted requests that ran and returned a VM result.
    pub completed: u64,
    /// Accepted requests that ran and returned a VM error.
    pub failed: u64,
    /// Accepted requests whose deadline passed while queued.
    pub expired: u64,
    /// Accepted requests that never got a reply (worker death; always 0
    /// in a healthy server).
    pub lost: u64,
    /// Successful re-admissions after replica deaths (not a terminal
    /// outcome: the requeued request still lands in exactly one bucket).
    pub requeued: u64,
    /// Requests failed because every requeue attempt found the replicas
    /// dead (subset of `failed`).
    pub replica_deaths: u64,
    /// Shed at admission: queue at capacity.
    pub rejected_queue_full: u64,
    /// Shed at admission: deadline already passed.
    pub rejected_expired: u64,
    /// Shed at admission: model not loaded (or unloaded mid-submit).
    pub rejected_unloaded: u64,
    /// Shed at admission: router draining.
    pub rejected_shutdown: u64,
    /// Latency distribution (ns) of completed + failed requests, with the
    /// retained-trace exemplar of each ladder bucket.
    pub latency: HistogramSnapshot,
    /// Queue-wait distribution (ns, admission → worker pickup); execution
    /// is roughly `latency - queue`.
    pub queue: HistogramSnapshot,
    /// Completed/failed requests served inside a formed batch (size > 1).
    pub batched: u64,
    /// Completed/failed requests served on the unbatched path.
    pub unbatched: u64,
    /// Batch-size distribution across completed/failed requests, in
    /// members (1 = unbatched).
    pub batch_size: HistogramSnapshot,
    /// Slowest retained flight-recorder trace for this model:
    /// `(trace id, latency ns)`; `None` when nothing is retained.
    pub slowest_trace: Option<(u64, u64)>,
    /// Storage-arena allocation counters for the model's engine (summed
    /// over its workers): hits, misses, recycled bytes, high-water mark.
    pub arena: ArenaStats,
    /// Cumulative VM profile for the model's engine: per-bucket and
    /// per-opcode time, instruction counts.
    pub profile: ProfileReport,
    /// Latest SLO watchdog verdict (`None` while no watchdog runs).
    pub slo: Option<SloState>,
    /// Engine/shard/pool/specializer state, filled in by `Router::stats`
    /// for models that are currently loaded.
    pub live: Option<LiveStats>,
}

impl ModelStats {
    /// All admission-time rejections.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full
            + self.rejected_expired
            + self.rejected_unloaded
            + self.rejected_shutdown
    }

    /// Accepted requests with a terminal outcome so far.
    pub fn terminal(&self) -> u64 {
        self.completed + self.failed + self.expired + self.lost
    }

    /// Total submissions seen (accepted + rejected).
    pub fn submitted(&self) -> u64 {
        self.accepted + self.rejected()
    }
}

// ---------------------------------------------------------------------------
// The family table

/// One sample read out of a [`ModelStats`].
enum Sample<'a> {
    U64(u64),
    F64(f64),
    /// A distribution recorded in nanoseconds and exposed in seconds. A
    /// `summary` family renders it as quantiles, a `histogram` family as
    /// its cumulative `le` ladder with exemplars.
    Nanos(&'a HistogramSnapshot),
    /// A distribution of plain counts, exposed as recorded.
    Counts(&'a HistogramSnapshot),
}
use Sample::{Counts, Nanos, F64, U64};

/// A family's series for one model: `(value of the family's own label,
/// sample)`. Empty when the model has nothing to say (not loaded, no
/// specializer, no watchdog).
type Rows<'a> = Vec<(String, Sample<'a>)>;

/// One Prometheus metric family, declared once.
struct Family {
    name: &'static str,
    help: &'static str,
    /// `counter`, `gauge`, `summary` or `histogram`.
    kind: &'static str,
    /// The label next to `model` that tells the family's series apart;
    /// empty when each model has a single series.
    label: &'static str,
    /// `columns[i]` titles the [`ServeStats`] table column series `i`
    /// lands in (series sharing a title are summed; no title, no column).
    columns: &'static [&'static str],
    series: Series,
}

impl Family {
    const fn new(
        kind: &'static str,
        name: &'static str,
        help: &'static str,
        series: Series,
    ) -> Family {
        Family {
            name,
            help,
            kind,
            label: "",
            columns: &[],
            series,
        }
    }

    /// Name the label that tells this family's series apart.
    const fn by(mut self, label: &'static str) -> Family {
        self.label = label;
        self
    }

    /// Show this family's series in the [`ServeStats`] table.
    const fn columns(mut self, columns: &'static [&'static str]) -> Family {
        self.columns = columns;
        self
    }
}

type Series = for<'a> fn(&'a ModelStats) -> Rows<'a>;

const fn counter(name: &'static str, help: &'static str, series: Series) -> Family {
    Family::new("counter", name, help, series)
}

const fn gauge(name: &'static str, help: &'static str, series: Series) -> Family {
    Family::new("gauge", name, help, series)
}

const fn summary(name: &'static str, help: &'static str, series: Series) -> Family {
    Family::new("summary", name, help, series)
}

const fn histogram(name: &'static str, help: &'static str, series: Series) -> Family {
    Family::new("histogram", name, help, series)
}

fn one(sample: Sample) -> Rows {
    vec![(String::new(), sample)]
}

fn each<'a, const N: usize>(rows: [(&str, Sample<'a>); N]) -> Rows<'a> {
    rows.into_iter().map(|(k, s)| (k.to_string(), s)).collect()
}

fn seconds(ns: u64) -> Sample<'static> {
    F64(ns as f64 / 1e9)
}

fn live<'a>(m: &'a ModelStats, rows: fn(&'a LiveStats) -> Rows<'a>) -> Rows<'a> {
    m.live.as_ref().map(rows).unwrap_or_default()
}

fn per_device(m: &ModelStats, pick: fn(&PoolStats) -> u64) -> Rows<'static> {
    match &m.live {
        Some(l) => each([
            ("cpu", U64(pick(&l.pools[0]))),
            ("gpu", U64(pick(&l.pools[1]))),
        ]),
        None => Vec::new(),
    }
}

fn specialize<'a>(m: &'a ModelStats, rows: fn(&'a SpecializeStats) -> Rows<'a>) -> Rows<'a> {
    let spec = m.live.as_ref().and_then(|l| l.specialize.as_ref());
    spec.map(rows).unwrap_or_default()
}

fn slo(m: &ModelStats, rows: fn(&SloState) -> Rows<'static>) -> Rows<'static> {
    m.slo.as_ref().map(rows).unwrap_or_default()
}

/// Every serving metric family, in exposition order. To add a metric:
/// put the value in [`ModelStats`] (or something it already holds) and
/// add a row here; `/metrics` and — with `.columns(..)` — the
/// [`ServeStats`] table pick it up.
static FAMILIES: &[Family] = &[
    counter(
        "nimble_serve_requests_total",
        "Serve request outcomes by model",
        |m| {
            each([
                ("accepted", U64(m.accepted)),
                ("completed", U64(m.completed)),
                ("failed", U64(m.failed)),
                ("expired", U64(m.expired)),
                ("lost", U64(m.lost)),
                ("rejected_queue_full", U64(m.rejected_queue_full)),
                ("rejected_expired", U64(m.rejected_expired)),
                ("rejected_unloaded", U64(m.rejected_unloaded)),
                ("rejected_shutdown", U64(m.rejected_shutdown)),
            ])
        },
    )
    .by("outcome")
    .columns(&[
        "accepted", "done", "done", "expired", "", "shed", "shed", "shed", "shed",
    ]),
    summary(
        "nimble_serve_latency_seconds",
        "End-to-end latency of completed requests",
        |m| one(Nanos(&m.latency)),
    )
    .columns(&["latency p50/p90/p99"]),
    summary(
        "nimble_serve_queue_seconds",
        "Queue wait from admission to worker pickup",
        |m| one(Nanos(&m.queue)),
    )
    .columns(&["queue p50/p90/p99"]),
    histogram(
        "nimble_serve_latency_hist_seconds",
        "End-to-end latency ladder with flight-recorder exemplars",
        |m| one(Nanos(&m.latency)),
    ),
    histogram(
        "nimble_serve_queue_hist_seconds",
        "Queue-wait ladder with flight-recorder exemplars",
        |m| one(Nanos(&m.queue)),
    ),
    gauge(
        "nimble_arena_hit_rate",
        "Fraction of storage allocations served from the arena",
        |m| one(F64(m.arena.hit_rate())),
    )
    .columns(&["arena hit"]),
    gauge(
        "nimble_arena_live_bytes",
        "Bytes currently checked out of the arena",
        |m| one(U64(m.arena.live_bytes)),
    ),
    gauge(
        "nimble_arena_high_water_bytes",
        "High-water mark of live arena bytes",
        |m| one(U64(m.arena.high_water_bytes)),
    ),
    gauge(
        "nimble_arena_retained_bytes",
        "Bytes parked in the arena free lists",
        |m| one(U64(m.arena.retained_bytes)),
    ),
    counter(
        "nimble_vm_time_seconds",
        "VM execution time by profile bucket",
        |m| {
            each([
                ("kernel", seconds(m.profile.kernel_ns)),
                ("shape_func", seconds(m.profile.shape_func_ns)),
                ("other", seconds(m.profile.other_ns)),
            ])
        },
    )
    .by("bucket"),
    counter(
        "nimble_vm_instructions_total",
        "Bytecode instructions executed",
        |m| one(U64(m.profile.instructions)),
    ),
    counter(
        "nimble_vm_kernel_invocations_total",
        "Compute-kernel invocations",
        |m| one(U64(m.profile.kernel_invocations)),
    ),
    counter(
        "nimble_vm_opcode_seconds",
        "Accumulated time of the top-5 opcodes by time",
        |m| {
            let top = m.profile.top_opcodes(5);
            top.iter()
                .map(|op| (op.name.to_string(), seconds(op.ns)))
                .collect()
        },
    )
    .by("opcode"),
    counter(
        "nimble_serve_requeued_total",
        "Re-admissions after a replica died holding the request",
        |m| one(U64(m.requeued)),
    ),
    counter(
        "nimble_batch_requests_total",
        "Completed requests by serving mode (batched = rode in a batch of >1)",
        |m| each([("batched", U64(m.batched)), ("unbatched", U64(m.unbatched))]),
    )
    .by("mode"),
    summary(
        "nimble_batch_size",
        "Batch size each completed request was served at (1 = unbatched)",
        |m| one(Counts(&m.batch_size)),
    ),
    gauge(
        "nimble_shard_replicas",
        "Live engine replicas serving the model",
        |m| live(m, |l| one(U64(l.shards.replicas.len() as u64))),
    ),
    gauge(
        "nimble_replica_queue_depth",
        "Requests waiting in one replica's queue",
        |m| {
            live(m, |l| {
                let replicas = l.shards.replicas.iter();
                replicas
                    .map(|r| (r.id.to_string(), U64(r.engine.queue_depth)))
                    .collect()
            })
        },
    )
    .by("replica"),
    counter(
        "nimble_replica_accepted_total",
        "Requests admitted to one replica (requeues included)",
        |m| {
            live(m, |l| {
                let replicas = l.shards.replicas.iter();
                replicas
                    .map(|r| (r.id.to_string(), U64(r.accepted)))
                    .collect()
            })
        },
    )
    .by("replica"),
    counter(
        "nimble_shard_events_total",
        "Replica lifecycle events since model registration",
        |m| {
            live(m, |l| {
                let (added, retired, killed) = l.shards.event_counts();
                each([
                    ("added", U64(added)),
                    ("retired", U64(retired)),
                    ("killed", U64(killed)),
                ])
            })
        },
    )
    .by("event"),
    gauge(
        "nimble_engine_queue_depth",
        "Requests waiting in the engine queue",
        |m| live(m, |l| one(U64(l.engine.queue_depth))),
    ),
    counter(
        "nimble_engine_queue_seconds_total",
        "Cumulative queue-wait time across completed requests",
        |m| live(m, |l| one(seconds(l.engine.total_queue_ns))),
    ),
    counter(
        "nimble_engine_exec_seconds_total",
        "Cumulative pure execution time across completed requests",
        |m| live(m, |l| one(seconds(l.engine.total_execution_ns))),
    ),
    counter(
        "nimble_batches_formed_total",
        "Padded batches executed (summed across replicas)",
        |m| live(m, |l| one(U64(l.engine.batches_formed))),
    ),
    gauge(
        "nimble_batch_pad_waste_ratio",
        "Fraction of gathered batch units that were padding",
        |m| live(m, |l| one(F64(l.engine.pad_waste_ratio()))),
    ),
    gauge(
        "nimble_pool_live_bytes",
        "Bytes currently live in the device memory pool",
        |m| per_device(m, |p| p.live_bytes),
    )
    .by("device"),
    gauge(
        "nimble_pool_peak_live_bytes",
        "High-water mark of live pool bytes",
        |m| per_device(m, |p| p.peak_live_bytes),
    )
    .by("device"),
    counter(
        "nimble_pool_allocs_total",
        "Allocation requests served by the pool",
        |m| per_device(m, |p| p.allocs),
    )
    .by("device"),
    counter(
        "nimble_pool_hits_total",
        "Allocations served from the pool free list",
        |m| per_device(m, |p| p.pool_hits),
    )
    .by("device"),
    counter(
        "nimble_pool_frees_total",
        "Blocks returned to the pool",
        |m| per_device(m, |p| p.frees),
    )
    .by("device"),
    counter(
        "nimble_specialize_hits_total",
        "Dispatches served by an installed specialized kernel",
        |m| specialize(m, |s| one(U64(s.hits))),
    ),
    counter(
        "nimble_specialize_misses_total",
        "Dispatches on specializable kernels that ran the symbolic fallback",
        |m| specialize(m, |s| one(U64(s.misses))),
    ),
    counter(
        "nimble_specialize_installs_total",
        "Specialized kernels installed after passing the bitwise probe",
        |m| specialize(m, |s| one(U64(s.installs))),
    ),
    counter(
        "nimble_specialize_evictions_total",
        "Hot-shape cache entries evicted (LRU or teardown)",
        |m| specialize(m, |s| one(U64(s.evictions))),
    ),
    gauge(
        "nimble_specialize_cache_size",
        "Shapes currently tracked by the hot-shape cache",
        |m| specialize(m, |s| one(U64(s.cache_len as u64))),
    ),
    histogram(
        "nimble_specialize_tune_seconds",
        "Background tune duration (search + bitwise probe)",
        |m| specialize(m, |s| one(Nanos(&s.tune_hist.ns))),
    ),
    gauge(
        "nimble_slo_objective",
        "Configured good-request objective",
        |m| slo(m, |s| one(F64(s.objective))),
    ),
    gauge(
        "nimble_slo_burn_rate",
        "Error-budget burn rate per window (NaN until the window fills)",
        |m| {
            slo(m, |s| {
                each([("fast", F64(s.fast_burn)), ("slow", F64(s.slow_burn))])
            })
        },
    )
    .by("window"),
    gauge(
        "nimble_slo_alert",
        "1 while the model's burn rate is in the alerting state",
        |m| slo(m, |s| one(U64(u64::from(s.alerting)))),
    ),
];

/// Append every serving family to a Prometheus scrape: one walk of
/// [`FAMILIES`], each family's series for each model in turn. A family no
/// model has a series for (nothing loaded, no specializer, no watchdog)
/// is left out, header included.
pub(crate) fn render_metrics(stats: &ServeStats, buf: &mut PromBuf) {
    for family in FAMILIES {
        let mut headed = false;
        for (model, m) in &stats.models {
            for (value, sample) in (family.series)(m) {
                if !headed {
                    buf.header(family.name, family.help, family.kind);
                    headed = true;
                }
                let labels = [("model", model.as_str()), (family.label, value.as_str())];
                let labels = &labels[..if family.label.is_empty() { 1 } else { 2 }];
                let (h, unit) = match sample {
                    U64(v) => {
                        buf.sample_u64(family.name, labels, v);
                        continue;
                    }
                    F64(v) => {
                        buf.sample_f64(family.name, labels, v);
                        continue;
                    }
                    Nanos(h) => (h, 1e9),
                    Counts(h) => (h, 1.0),
                };
                if family.kind == "summary" {
                    buf.summary(family.name, labels, h, unit);
                } else {
                    buf.histogram(family.name, labels, h, unit);
                }
            }
        }
    }
}

/// A snapshot of every model's counters, keyed by model name.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Per-model snapshots (BTreeMap for stable print order).
    pub models: BTreeMap<String, ModelStats>,
}

/// The stats table: one row per model, one column per titled series of
/// [`FAMILIES`] (see [`Family::columns`]; distributions print
/// `p50/p90/p99`), plus the two joins that are not metrics — each model's
/// slowest retained flight-recorder trace (`<id>@<ms>ms` jumps straight
/// to `/traces/<id>` on the debug endpoint) and, on a second line, its
/// most expensive opcodes.
impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut titles = vec!["model"];
        for title in FAMILIES.iter().flat_map(|family| family.columns) {
            if !title.is_empty() && !titles.contains(title) {
                titles.push(title);
            }
        }
        titles.push("slowest trace");
        let mut table: Vec<Vec<String>> = vec![titles.iter().map(|t| t.to_string()).collect()];
        for (name, m) in &self.models {
            let mut counts = vec![0u64; titles.len()];
            let mut texts: Vec<Option<String>> = vec![None; titles.len()];
            texts[0] = Some(name.clone());
            for family in FAMILIES.iter().filter(|family| !family.columns.is_empty()) {
                for ((_, sample), title) in (family.series)(m).into_iter().zip(family.columns) {
                    let Some(col) = titles.iter().position(|t| t == title) else {
                        continue;
                    };
                    let quantiles = |h: &HistogramSnapshot, show: fn(u64) -> String| {
                        [h.p50(), h.p90(), h.p99()].map(show).join("/")
                    };
                    match sample {
                        U64(v) => counts[col] += v,
                        F64(v) => texts[col] = Some(format!("{v:.3}")),
                        Nanos(h) => {
                            let time = |ns| format!("{:.2?}", Duration::from_nanos(ns));
                            texts[col] = Some(quantiles(h, time));
                        }
                        Counts(h) => texts[col] = Some(quantiles(h, |n| n.to_string())),
                    }
                }
            }
            texts[titles.len() - 1] = Some(match m.slowest_trace {
                Some((trace, ns)) => format!("{trace}@{:.1}ms", ns as f64 / 1e6),
                None => "-".to_string(),
            });
            let cells = texts.into_iter().zip(counts);
            table.push(
                cells
                    .map(|(text, n)| text.unwrap_or(n.to_string()))
                    .collect(),
            );
        }
        let width = |col: usize| {
            table
                .iter()
                .map(|r| r[col].chars().count())
                .max()
                .unwrap_or(0)
        };
        let widths: Vec<usize> = (0..titles.len()).map(width).collect();
        let models = [None].into_iter().chain(self.models.values().map(Some));
        for (row, model) in table.iter().zip(models) {
            write!(f, "{:<w$}", row[0], w = widths[0])?;
            for (cell, w) in row.iter().zip(&widths).skip(1) {
                write!(f, " {cell:>w$}")?;
            }
            writeln!(f)?;
            if let Some(m) = model.filter(|m| m.profile.instructions > 0) {
                write!(f, "{:<w$}   top ops:", "", w = widths[0])?;
                for op in m.profile.top_opcodes(3) {
                    let ms = op.ns as f64 / 1e6;
                    write!(f, " {} ({}x, {ms:.2} ms)", op.name, op.count)?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// The shared telemetry registry: one [`ModelTelemetry`] per model
/// *name*, surviving hot-swaps (a swapped version keeps accumulating
/// into the same series) and unloads (history remains reportable).
#[derive(Debug, Default)]
pub struct Telemetry {
    models: RwLock<BTreeMap<String, Arc<ModelTelemetry>>>,
}

impl Telemetry {
    /// The counters for `name`, created on first use.
    pub fn model(&self, name: &str) -> Arc<ModelTelemetry> {
        if let Some(t) = self.models.read().unwrap().get(name) {
            return Arc::clone(t);
        }
        let mut w = self.models.write().unwrap();
        Arc::clone(
            w.entry(name.to_string())
                .or_insert_with(|| Arc::new(ModelTelemetry::default())),
        )
    }

    /// Snapshot every model's counters, joining in each model's slowest
    /// retained flight-recorder trace so the stats table can point at a
    /// `/traces/<id>` export.
    pub fn snapshot(&self) -> ServeStats {
        ServeStats {
            models: self
                .models
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| {
                    let mut stats = v.snapshot();
                    stats.slowest_trace = nimble_obs::flight::slowest_retained(k);
                    (k.clone(), stats)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn telemetry_snapshot_accumulates_per_model() {
        let t = Telemetry::default();
        bump(&t.model("a").accepted);
        t.model("a").record_completed(true, MS, 2 * MS, 1);
        bump(&t.model("b").rejected_queue_full);
        let snap = t.snapshot();
        assert_eq!(snap.models["a"].accepted, 1);
        assert_eq!(snap.models["a"].completed, 1);
        assert_eq!(snap.models["a"].unbatched, 1);
        assert_eq!(snap.models["a"].latency.count(), 1);
        assert_eq!(snap.models["a"].queue.sum(), 1_000_000);
        assert_eq!(snap.models["b"].rejected_queue_full, 1);
        // Same Arc for the same name.
        assert!(Arc::ptr_eq(&t.model("a"), &t.model("a")));
    }

    #[test]
    fn table_sums_shared_columns_and_joins_the_slowest_trace() {
        let t = Telemetry::default();
        let m = t.model("m");
        for _ in 0..3 {
            bump(&m.accepted);
        }
        m.record_completed(true, MS, 2 * MS, 4);
        m.record_completed(false, MS, 2 * MS, 1);
        bump(&m.rejected_queue_full);
        bump(&m.rejected_shutdown);
        let mut stats = t.snapshot();
        stats.models.get_mut("m").unwrap().slowest_trace = Some((123, 5_000_000));
        stats.models.insert("n".into(), ModelStats::default());
        let text = format!("{stats}");
        let lines: Vec<Vec<&str>> = text
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        // "slowest trace" and "arena hit" are two words each.
        assert_eq!(
            lines[0].join(" "),
            "model accepted done expired shed latency p50/p90/p99 queue p50/p90/p99 \
             arena hit slowest trace"
        );
        // completed + failed share "done"; the four rejections share "shed".
        assert_eq!(lines[1][..5], ["m", "3", "2", "0", "2"]);
        // p50 is a bucket midpoint; the top rank is the exact maximum.
        assert!(lines[1][5].ends_with("ms/2.00ms/2.00ms"), "{}", lines[1][5]);
        assert_eq!(lines[1].last(), Some(&"123@5.0ms"));
        assert_eq!(lines[2].last(), Some(&"-"), "no retained trace prints '-'");
    }

    #[test]
    fn metrics_omit_families_no_model_has_series_for() {
        let t = Telemetry::default();
        t.model("m").record_completed(true, MS, MS, 1);
        let mut buf = PromBuf::default();
        render_metrics(&t.snapshot(), &mut buf);
        let text = buf.finish();
        assert!(text.contains("# TYPE nimble_serve_latency_seconds summary"));
        assert!(text.contains("nimble_batch_size{model=\"m\",quantile=\"0.5\"} 1\n"));
        assert!(text.contains("nimble_batch_size_sum{model=\"m\"} 1\n"));
        // Not loaded, no specializer, no watchdog: those families (header
        // included) stay out of the scrape.
        for absent in [
            "nimble_engine_",
            "nimble_pool_",
            "nimble_specialize_",
            "nimble_slo_",
        ] {
            assert!(
                !text.contains(absent),
                "{absent} exposed for an unloaded model"
            );
        }
    }

    #[test]
    fn family_names_are_unique() {
        let mut names: Vec<&str> = FAMILIES.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FAMILIES.len());
    }

    #[test]
    fn arena_counters_survive_in_snapshot() {
        let t = Telemetry::default();
        let stats = ArenaStats {
            hits: 9,
            misses: 1,
            recycled_bytes: 1024,
            high_water_bytes: 2048,
            ..ArenaStats::default()
        };
        t.model("m").record_arena(stats);
        let snap = t.snapshot();
        assert_eq!(snap.models["m"].arena, stats);
        assert!((snap.models["m"].arena.hit_rate() - 0.9).abs() < 1e-12);
    }
}
