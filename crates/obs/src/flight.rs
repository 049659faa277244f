//! Tail-based flight recorder: always-on per-request span capture with a
//! keep/drop decision at request *completion*.
//!
//! In `NIMBLE_TRACE=tail[:p99_mult]` mode every admitted request gets a
//! bounded span buffer registered at [`crate::start_trace`] time; span
//! records for that trace are routed here instead of the per-thread
//! rings. When the request reaches its terminal state the layer that
//! started the trace (the router, or the engine for a direct submission)
//! calls [`finish`], which renders the retention verdict:
//!
//! | verdict        | trigger                                              |
//! |----------------|------------------------------------------------------|
//! | `slow`         | latency > rolling-p99 × multiplier (after warmup)    |
//! | `outcome`      | any non-Completed terminal (failed/expired/unloaded) |
//! | `shed`         | rejected at admission (queue full / dead deadline)   |
//! | `requeued`     | replica died holding the request ([`PIN_REQUEUED`])  |
//! | `chaos`        | a chaos episode was active ([`episode_scope`])       |
//! | `specialize`   | the request triggered a tune enqueue                 |
//! | `new_shape`    | first sight of a shape bucket on its shard set       |
//! | `pad_batch`    | ran in a batch dominated by padding                  |
//!
//! Retained traces land in a per-model ring of the last
//! [`RETAINED_PER_MODEL`]; everything else is freed on the spot. The ring
//! is addressable by trace id (`/traces/<id>` on the debug endpoint) and
//! exportable as Chrome trace JSON. Fast steady-state requests therefore
//! cost one buffer allocation and one hash insert/remove — the ≤3%
//! overhead gate in `obs_overhead --smoke` holds the line.

use crate::hist::Histogram;
use crate::{SpanRecord, WORDS};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Spans captured per in-flight request before further spans are dropped
/// (and counted in [`flight_dropped`]).
pub const REQUEST_BUFFER_SPANS: usize = 512;

/// Retained traces kept per model (oldest evicted first).
pub const RETAINED_PER_MODEL: usize = 32;

/// Rolling latency window per model used for the p99 threshold.
const WINDOW: usize = 512;

/// Completions a model must see before the rolling-quantile trigger
/// activates (cold models never false-retain on their first requests).
const WARMUP: usize = 64;

/// Active-map shard count (keyed by trace id).
const MAP_SHARDS: usize = 16;

/// Safety valve: in-flight buffers beyond this are abandoned (a caller
/// that starts traces without ever finishing them cannot leak memory).
const MAX_ACTIVE: usize = 8192;

/// Pin bit: request ran while a chaos episode was active.
pub const PIN_CHAOS: u32 = 1 << 0;
/// Pin bit: request triggered a specialize tune / install / rejection.
pub const PIN_SPECIALIZE: u32 = 1 << 1;
/// Pin bit: first sight of a new shape bucket on the shard set.
pub const PIN_NEW_SHAPE: u32 = 1 << 2;
/// Pin bit: executed in a batch whose padded-row fraction was high.
pub const PIN_PAD_BATCH: u32 = 1 << 3;
/// Pin bit: requeued after a replica died holding it.
pub const PIN_REQUEUED: u32 = 1 << 4;

/// Default rolling-quantile multiplier when `tail` is given bare.
pub const DEFAULT_TAIL_MULT: f64 = 4.0;

/// `f64::to_bits` of the tail multiplier; 0 = unset (use default).
static TAIL_MULT: AtomicU64 = AtomicU64::new(0);

/// Spans dropped because a request buffer was full (cumulative since the
/// last [`reset`]).
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Buffers abandoned by the [`MAX_ACTIVE`] safety valve.
static ABANDONED: AtomicU64 = AtomicU64::new(0);

/// Total traces retained since the last [`reset`].
static RETAINED_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Nesting depth of active chaos episodes (process-wide).
static EPISODE_DEPTH: AtomicU32 = AtomicU32::new(0);

/// Set the rolling-quantile multiplier (`tail:<mult>`); also settable by
/// the environment parse. Values ≤ 0 or non-finite reset to the default.
pub fn set_tail_multiplier(mult: f64) {
    let v = if mult.is_finite() && mult > 0.0 {
        mult.to_bits()
    } else {
        0
    };
    TAIL_MULT.store(v, Ordering::Relaxed);
}

/// The active rolling-quantile multiplier.
pub fn tail_multiplier() -> f64 {
    match TAIL_MULT.load(Ordering::Relaxed) {
        0 => DEFAULT_TAIL_MULT,
        bits => f64::from_bits(bits),
    }
}

// ---------------------------------------------------------------------------
// In-flight request buffers

struct RequestBuf {
    pinned: AtomicU32,
    dropped: AtomicU64,
    /// Records admitted across all segments — enforces the per-request
    /// cap without walking the segment list. Monotone; may exceed the cap
    /// transiently (readers clamp with `saturating_sub`).
    admitted: AtomicU64,
    /// Donated staging batches, one `Vec` per flush. Flushing *moves* the
    /// thread's staging vector here (three words under the lock) instead
    /// of copying records; only retained traces ever pay a concatenation.
    segs: Mutex<Vec<Vec<[u64; WORDS]>>>,
}

impl RequestBuf {
    /// Drain and concatenate the donated segments in arrival order.
    fn collect(&self) -> Vec<[u64; WORDS]> {
        let mut segs = self.segs.lock().unwrap();
        match segs.len() {
            0 => Vec::new(),
            1 => segs.pop().unwrap(),
            _ => segs.drain(..).flatten().collect(),
        }
    }
}

type ActiveShard = Mutex<HashMap<u64, Arc<RequestBuf>>>;

fn active() -> &'static Vec<ActiveShard> {
    static ACTIVE: OnceLock<Vec<ActiveShard>> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        (0..MAP_SHARDS)
            .map(|_| Mutex::new(HashMap::new()))
            .collect()
    })
}

fn shard_for(trace: u64) -> &'static Mutex<HashMap<u64, Arc<RequestBuf>>> {
    &active()[(trace as usize) % MAP_SHARDS]
}

/// Spans a thread stages locally before taking the buffer lock once for
/// the whole batch. A worker executing a request emits hundreds of kernel
/// spans back-to-back under one trace; paying an `Arc` clone plus a
/// `Mutex` round trip per span is what the ≤3% overhead gate measures, so
/// the per-span path must be a plain `Vec::push`. Staged spans are
/// flushed on batch overflow, on any trace switch, when the thread's span
/// stack for the trace unwinds (root close / context-guard drop), and by
/// [`finish`] on the finishing thread — every handoff point where another
/// thread may next observe the buffer. The batch matches the per-request
/// cap so a typical request flushes once per participating thread (one
/// lock, one bulk copy); staleness is bounded by the unwind hooks, not by
/// this constant.
const FLUSH_SPANS: usize = REQUEST_BUFFER_SPANS;

/// Flush batches below this size are copied into an existing segment's
/// spare capacity instead of donated — donating a `Vec` per couple of
/// records would cost a malloc/free round trip per flush on threads that
/// publish eagerly (per-kernel device-lane guards).
const DONATE_MIN: usize = 64;

/// Per-thread (trace → buffer) cache plus the local staging batch.
struct Cache {
    trace: u64,
    buf: Option<Arc<RequestBuf>>,
    staging: Vec<[u64; WORDS]>,
}

thread_local! {
    /// One-entry cache so a worker emitting many spans for the same
    /// request resolves the shard map once and locks the buffer once per
    /// [`FLUSH_SPANS`] batch, not per span.
    static BUF_CACHE: RefCell<Cache> = const {
        RefCell::new(Cache {
            trace: 0,
            buf: None,
            staging: Vec::new(),
        })
    };
}

/// Publish `staging` into `buf` by *donating* the vector as a new
/// segment: one lock, one `Vec` move, no record copy. The per-request cap
/// is claimed via `admitted` before the donation; overflow records are
/// truncated off and counted as drops. The thread gets a fresh staging
/// vector sized to its recent batch so steady-state pushes never realloc.
fn flush_into(buf: &RequestBuf, staging: &mut Vec<[u64; WORDS]>) {
    if staging.is_empty() {
        return;
    }
    let prev = buf
        .admitted
        .fetch_add(staging.len() as u64, Ordering::Relaxed) as usize;
    let fit = REQUEST_BUFFER_SPANS.saturating_sub(prev).min(staging.len());
    let overflow = (staging.len() - fit) as u64;
    if overflow > 0 {
        buf.dropped.fetch_add(overflow, Ordering::Relaxed);
        DROPPED.fetch_add(overflow, Ordering::Relaxed);
    }
    if fit == 0 {
        staging.clear();
        return;
    }
    if staging.len() < DONATE_MIN {
        // Small batches (a device-lane thread flushing per kernel launch,
        // a one-off cross-thread record) are *copied*, preferentially
        // into the spare capacity of the newest small segment, and the
        // thread keeps its staging allocation — no malloc on this path.
        let mut segs = buf.segs.lock().unwrap();
        match segs.last_mut() {
            Some(last) if last.capacity() - last.len() >= fit => {
                last.extend_from_slice(&staging[..fit]);
            }
            _ => {
                let mut seg = Vec::with_capacity(DONATE_MIN.max(fit));
                seg.extend_from_slice(&staging[..fit]);
                segs.push(seg);
            }
        }
        drop(segs);
        staging.clear();
    } else {
        // Big batches (a worker's span burst) are donated wholesale; the
        // replacement is sized to the batch so the next request's burst
        // never regrows it.
        let cap = staging.len().clamp(DONATE_MIN, FLUSH_SPANS);
        let mut seg = std::mem::replace(staging, Vec::with_capacity(cap));
        seg.truncate(fit);
        buf.segs.lock().unwrap().push(seg);
    }
}

/// Point the cache at `trace`, flushing spans staged for the previously
/// cached trace first so a thread switching requests never strands
/// records in its staging batch.
fn resolve(cache: &mut Cache, trace: u64) {
    if cache.trace == trace {
        return;
    }
    if let Some(old) = cache.buf.take() {
        flush_into(&old, &mut cache.staging);
    }
    cache.trace = trace;
    cache.buf = shard_for(trace).lock().unwrap().get(&trace).cloned();
}

/// Register a per-request buffer for a freshly started trace (called by
/// [`crate::start_trace`] in tail mode).
pub(crate) fn begin(trace: u64) {
    let buf = Arc::new(RequestBuf {
        pinned: AtomicU32::new(0),
        dropped: AtomicU64::new(0),
        admitted: AtomicU64::new(0),
        segs: Mutex::new(Vec::new()),
    });
    let mut shard = shard_for(trace).lock().unwrap();
    if shard.len() >= MAX_ACTIVE / MAP_SHARDS {
        // Abandon an arbitrary stale buffer rather than grow unbounded.
        if let Some(&stale) = shard.keys().next() {
            shard.remove(&stale);
            ABANDONED.fetch_add(1, Ordering::Relaxed);
        }
    }
    shard.insert(trace, buf);
}

/// Route a raw span record to its request buffer. Returns `false` when no
/// buffer is registered for `trace` (the caller falls back to the
/// per-thread rings, so bare traces still record somewhere). With
/// `staged` the record only joins the thread-local batch (the caller
/// attests the thread is inside the trace's span stack, so an unwind hook
/// will flush it); without it the batch is flushed immediately — the
/// record may be the last this thread ever pushes for the trace.
pub(crate) fn try_push(trace: u64, rec: [u64; WORDS], staged: bool) -> bool {
    if trace == 0 {
        return false;
    }

    BUF_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        resolve(&mut cache, trace);
        let Cache { buf, staging, .. } = &mut *cache;
        let Some(buf) = buf else {
            return false;
        };
        staging.push(rec);
        if !staged || staging.len() >= FLUSH_SPANS {
            flush_into(buf, staging);
        }
        true
    })
}

/// Flush the calling thread's staged spans for `trace` (no-op when the
/// thread's cache points elsewhere). Called from the span-stack unwind
/// hooks in the core crate so staged spans are published before any other
/// thread can reach the request's terminal state.
pub(crate) fn flush_thread(trace: u64) {
    BUF_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.trace == trace {
            let Cache { buf, staging, .. } = &mut *cache;
            if let Some(buf) = buf {
                flush_into(buf, staging);
            }
        }
    });
}

/// Flush the calling thread's staged spans regardless of which trace they
/// belong to — the completion barrier for sticky-context executor threads
/// (see [`crate::flush_staged`]).
pub(crate) fn flush_thread_any() {
    BUF_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        let Cache { buf, staging, .. } = &mut *cache;
        if let Some(buf) = buf {
            flush_into(buf, staging);
        }
    });
}

/// Flag the in-flight buffer for `ctx.trace` so [`finish`] retains it
/// regardless of latency. `reason` is a `PIN_*` bit. No-op when the trace
/// has no buffer (non-tail mode, already finished).
pub fn pin(ctx: crate::SpanContext, reason: u32) {
    if !ctx.is_sampled() {
        return;
    }
    BUF_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        resolve(&mut cache, ctx.trace);
        if let Some(buf) = &cache.buf {
            buf.pinned.fetch_or(reason, Ordering::Relaxed);
        }
    });
}

/// RAII marker for a chaos episode: every request finishing while at
/// least one episode guard is live is retained with reason `chaos`.
#[must_use]
pub struct EpisodeGuard(());

impl Drop for EpisodeGuard {
    fn drop(&mut self) {
        EPISODE_DEPTH.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Enter a chaos-episode scope (see [`EpisodeGuard`]).
pub fn episode_scope() -> EpisodeGuard {
    EPISODE_DEPTH.fetch_add(1, Ordering::Relaxed);
    EpisodeGuard(())
}

// ---------------------------------------------------------------------------
// Rolling-quantile threshold

/// The last [`WINDOW`] latencies of one model. The ring only remembers
/// which sample ages out next; the distribution lives in the shared
/// [`Histogram`], so the p99 estimate is the upper bound of the log-linear
/// bucket holding the p99 rank — conservative by at most 25% (absorbed by
/// the multiplier).
struct LatWindow {
    ring: VecDeque<u64>,
    hist: Histogram,
}

impl LatWindow {
    fn new() -> LatWindow {
        LatWindow {
            ring: VecDeque::with_capacity(WINDOW),
            hist: Histogram::new(),
        }
    }

    fn push(&mut self, ns: u64) {
        if self.ring.len() == WINDOW {
            if let Some(old) = self.ring.pop_front() {
                self.hist.unrecord(old);
            }
        }
        self.ring.push_back(ns);
        self.hist.record(ns);
    }

    /// Upper bound of the bucket containing the p99 rank, or `None`
    /// before warmup.
    fn p99_ub(&self) -> Option<u64> {
        (self.ring.len() >= WARMUP).then(|| self.hist.quantile_upper(0.99))
    }
}

fn windows() -> &'static Mutex<HashMap<String, LatWindow>> {
    static WINDOWS: OnceLock<Mutex<HashMap<String, LatWindow>>> = OnceLock::new();
    WINDOWS.get_or_init(|| Mutex::new(HashMap::new()))
}

// ---------------------------------------------------------------------------
// Retained ring

/// One retained trace, addressable by id.
#[derive(Debug, Clone)]
pub struct RetainedTrace {
    /// Trace id (the `/traces/<id>` key).
    pub trace: u64,
    /// Model the request was served under.
    pub model: String,
    /// Terminal latency in nanoseconds.
    pub latency_ns: u64,
    /// Comma-joined retention reasons (`slow`, `outcome`, `requeued`, ...).
    pub reasons: String,
    /// Completion timestamp on the [`crate::now_ns`] clock.
    pub finished_ns: u64,
    /// Captured span records.
    pub spans: Vec<SpanRecord>,
    /// Spans dropped because the request buffer was full.
    pub dropped: u64,
}

fn retained() -> &'static Mutex<HashMap<String, VecDeque<Arc<RetainedTrace>>>> {
    static RETAINED: OnceLock<Mutex<HashMap<String, VecDeque<Arc<RetainedTrace>>>>> =
        OnceLock::new();
    RETAINED.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A retention decision whose span collection is deferred to read time.
///
/// [`finish`] renders the verdict on the request's critical path, but the
/// device-lane publication barrier is fire-and-forget (the stream thread
/// flushes its staged spans concurrently with terminal accounting, see
/// `GpuStream::synchronize`), so spans may still be in flight for a few
/// microseconds after the verdict. Holding the buffer `Arc` here — late
/// flushes land in it harmlessly — and concatenating at the first read
/// keeps both sides off the steady-state path: debug-endpoint and export
/// reads are human-paced, by which time every flush has long landed.
struct PendingRetained {
    trace: u64,
    model: String,
    latency_ns: u64,
    reasons: String,
    finished_ns: u64,
    buf: Arc<RequestBuf>,
}

/// Pending entries beyond this are drained inline by the finishing thread
/// — a server that retains heavily but is never read must not accumulate
/// unbounded buffers.
const PENDING_MAX: usize = 64;

fn pending() -> &'static Mutex<Vec<PendingRetained>> {
    static PENDING: OnceLock<Mutex<Vec<PendingRetained>>> = OnceLock::new();
    PENDING.get_or_init(|| Mutex::new(Vec::new()))
}

/// Move every pending retention into the per-model ring, collecting span
/// segments. Called by all read paths before they look at the ring.
fn drain_pending() {
    let drained: Vec<PendingRetained> = {
        let mut p = pending().lock().unwrap();
        if p.is_empty() {
            return;
        }
        p.drain(..).collect()
    };
    let mut map = retained().lock().unwrap();
    for p in drained {
        let mut spans: Vec<SpanRecord> = p
            .buf
            .collect()
            .into_iter()
            .map(|rec| crate::decode_record(rec, 0))
            .collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let entry = Arc::new(RetainedTrace {
            trace: p.trace,
            model: p.model.clone(),
            latency_ns: p.latency_ns,
            reasons: p.reasons,
            finished_ns: p.finished_ns,
            spans,
            dropped: p.buf.dropped.load(Ordering::Relaxed),
        });
        let ring = map.entry(p.model).or_default();
        if ring.len() == RETAINED_PER_MODEL {
            ring.pop_front();
        }
        ring.push_back(entry);
    }
}

/// Queue a retention for read-time collection (draining inline past
/// [`PENDING_MAX`]).
fn push_pending(entry: PendingRetained) {
    let overflow = {
        let mut p = pending().lock().unwrap();
        p.push(entry);
        p.len() >= PENDING_MAX
    };
    if overflow {
        drain_pending();
    }
    RETAINED_TOTAL.fetch_add(1, Ordering::Relaxed);
}

/// The retention verdict for one finished request, returned by [`finish`]
/// so the serving layer can stamp exemplars.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Trace id of the retained trace.
    pub trace: u64,
    /// Why it was retained.
    pub reasons: String,
}

/// The terminal prologue shared by [`finish`] and [`finish_shed`]: remove
/// the trace's buffer from the in-flight map, publish this thread's
/// staged spans (the terminal root span was just recorded on it), and
/// drop the cache entry so no further spans route into the finished
/// buffer from here. `None` when the trace has no buffer.
fn take_buf(ctx: crate::SpanContext) -> Option<Arc<RequestBuf>> {
    if !ctx.is_sampled() {
        return None;
    }
    let buf = shard_for(ctx.trace).lock().unwrap().remove(&ctx.trace);
    BUF_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.trace == ctx.trace {
            let Cache { buf, staging, .. } = &mut *cache;
            if let Some(b) = buf.take() {
                flush_into(&b, staging);
            }
            cache.trace = 0;
        }
    });
    buf
}

/// Render the retention verdict for a finished request and either retain
/// its buffer into the per-model ring or free it. Call exactly once, at
/// the single point where the terminal outcome is known. `ok` is true
/// only for a Completed-with-result terminal. Returns the verdict when
/// retained (for exemplar stamping), `None` when dropped.
pub fn finish(ctx: crate::SpanContext, model: &str, latency_ns: u64, ok: bool) -> Option<Verdict> {
    let buf = take_buf(ctx)?;

    // Threshold from the window *before* this sample, then roll it in.
    let threshold = {
        let mut windows = windows().lock().unwrap();
        // Double lookup on the miss path only: `entry()` would allocate a
        // key String on every completion, and this runs per request.
        if !windows.contains_key(model) {
            windows.insert(model.to_string(), LatWindow::new());
        }
        let w = windows.get_mut(model).expect("window just ensured");
        let t = w.p99_ub().map(|ub| (ub as f64 * tail_multiplier()) as u64);
        w.push(latency_ns);
        t
    };

    let mut reasons = Vec::new();
    if let Some(t) = threshold {
        if latency_ns > t {
            reasons.push("slow");
        }
    }
    if !ok {
        reasons.push("outcome");
    }
    let pins = buf.pinned.load(Ordering::Relaxed);
    if pins & PIN_REQUEUED != 0 {
        reasons.push("requeued");
    }
    if pins & PIN_CHAOS != 0 || EPISODE_DEPTH.load(Ordering::Relaxed) > 0 {
        reasons.push("chaos");
    }
    if pins & PIN_SPECIALIZE != 0 {
        reasons.push("specialize");
    }
    if pins & PIN_NEW_SHAPE != 0 {
        reasons.push("new_shape");
    }
    if pins & PIN_PAD_BATCH != 0 {
        reasons.push("pad_batch");
    }
    if reasons.is_empty() {
        return None;
    }

    let verdict = Verdict {
        trace: ctx.trace,
        reasons: reasons.join(","),
    };
    push_pending(PendingRetained {
        trace: ctx.trace,
        model: model.to_string(),
        latency_ns,
        reasons: verdict.reasons.clone(),
        finished_ns: crate::now_ns(),
        buf,
    });
    Some(verdict)
}

/// Shed-path variant of [`finish`] for requests rejected at admission:
/// the trace has only its root span, the outcome is by definition
/// non-Completed, and the latency does not join the rolling window.
pub fn finish_shed(ctx: crate::SpanContext, model: &str, reason: &'static str) -> Option<Verdict> {
    let buf = take_buf(ctx)?;
    let verdict = Verdict {
        trace: ctx.trace,
        reasons: reason.to_string(),
    };
    push_pending(PendingRetained {
        trace: ctx.trace,
        model: model.to_string(),
        latency_ns: 0,
        reasons: verdict.reasons.clone(),
        finished_ns: crate::now_ns(),
        buf,
    });
    Some(verdict)
}

// ---------------------------------------------------------------------------
// Queries + export

/// Every retained trace, newest first.
pub fn retained_traces() -> Vec<Arc<RetainedTrace>> {
    drain_pending();
    let map = retained().lock().unwrap();
    let mut all: Vec<Arc<RetainedTrace>> = map.values().flatten().cloned().collect();
    all.sort_by_key(|t| std::cmp::Reverse(t.finished_ns));
    all
}

/// Look up one retained trace by id.
pub fn retained_trace(trace: u64) -> Option<Arc<RetainedTrace>> {
    drain_pending();
    retained()
        .lock()
        .unwrap()
        .values()
        .flatten()
        .find(|t| t.trace == trace)
        .cloned()
}

/// The slowest retained trace for `model`: `(trace id, latency ns)`.
pub fn slowest_retained(model: &str) -> Option<(u64, u64)> {
    drain_pending();
    retained()
        .lock()
        .unwrap()
        .get(model)?
        .iter()
        .max_by_key(|t| t.latency_ns)
        .map(|t| (t.trace, t.latency_ns))
}

/// The `/traces` index as a JSON array (newest first).
pub fn index_json() -> String {
    use std::fmt::Write as _;
    let all = retained_traces();
    let mut out = String::with_capacity(64 + all.len() * 128);
    out.push('[');
    for (i, t) in all.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"trace\":");
        let _ = write!(out, "{}", t.trace);
        out.push_str(",\"model\":\"");
        crate::export::escape_json(&t.model, &mut out);
        out.push_str("\",\"latency_ms\":");
        let _ = write!(out, "{:.3}", t.latency_ns as f64 / 1e6);
        out.push_str(",\"reasons\":\"");
        crate::export::escape_json(&t.reasons, &mut out);
        let _ = write!(
            out,
            "\",\"spans\":{},\"dropped\":{}}}",
            t.spans.len(),
            t.dropped
        );
    }
    out.push(']');
    out
}

/// Chrome trace JSON for one retained trace, or `None` if the id is not
/// (or no longer) retained.
pub fn chrome_json(trace: u64) -> Option<String> {
    let t = retained_trace(trace)?;
    Some(crate::export::chrome_trace_for(&t.spans, t.dropped))
}

/// Spans dropped on request-buffer overflow since the last [`reset`].
pub fn flight_dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Buffers abandoned by the in-flight safety valve since the last
/// [`reset`].
pub fn flight_abandoned() -> u64 {
    ABANDONED.load(Ordering::Relaxed)
}

/// Traces retained since the last [`reset`].
pub fn retained_total() -> u64 {
    RETAINED_TOTAL.load(Ordering::Relaxed)
}

/// In-flight request buffers currently registered.
pub fn active_buffers() -> usize {
    active().iter().map(|s| s.lock().unwrap().len()).sum()
}

/// Clear all flight-recorder state: in-flight buffers, rolling windows,
/// retained rings and counters. Called by [`crate::reset`].
pub(crate) fn reset() {
    for shard in active() {
        shard.lock().unwrap().clear();
    }
    windows().lock().unwrap().clear();
    pending().lock().unwrap().clear();
    retained().lock().unwrap().clear();
    DROPPED.store(0, Ordering::Relaxed);
    ABANDONED.store(0, Ordering::Relaxed);
    RETAINED_TOTAL.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lat_window_p99_tracks_bucket_upper_bound() {
        let mut w = LatWindow::new();
        for _ in 0..WARMUP - 1 {
            w.push(1000);
        }
        assert_eq!(w.p99_ub(), None, "threshold armed before warmup");
        w.push(1000); // bucket [896, 1024) → ub 1024
        assert_eq!(w.p99_ub(), Some(1024));
        // One giant sample in a 64-window is above the p99 rank only when
        // rank ≥ n; with n=65, rank = ceil(65*0.99)=65 → it IS the max.
        w.push(1_000_000);
        let ub = w.p99_ub().unwrap();
        assert!(ub >= 1_000_000, "p99 ub {ub} should cover the max");
    }

    #[test]
    fn lat_window_rolls_off_old_samples() {
        let mut w = LatWindow::new();
        for _ in 0..WINDOW {
            w.push(1 << 30);
        }
        for _ in 0..WINDOW {
            w.push(1000);
        }
        assert_eq!(w.p99_ub(), Some(1024));
        assert_eq!(w.ring.len(), WINDOW);
        assert_eq!(w.hist.snapshot().count(), WINDOW as u64);
    }
}
